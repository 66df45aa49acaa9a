#!/usr/bin/env python3
"""Measured reach: the library functions that no user workload runs.

    scripts/reach.py

1. Builds every example, bench and bin of the `jamm` and `jamm-bench`
   packages with `-C instrument-coverage -C codegen-units=1` into
   target/reach/ (one codegen unit, so each binary carries the coverage
   records of every library function, called or not).
2. Runs the workload set, each process writing
   target/reach/prof/<pid>-<module>.profraw:
   - the five CI examples;
   - every scenarios/<name>.scn through `scenario_run`, whose output must
     equal scenarios/<name>.report byte for byte;
   - the four e21 workloads, `--smoke` and then 4 s with `--trace 1`;
   - every bench under crates/bench/benches (what scripts/bench-all.sh
     runs) and the `e4_frame_rate` / `e9_admin_ops` bins.
   Tests are not in the set: code that only its own tests reach is what
   this script is for.
3. Reads each raw profile (LLVM raw profile format version 10) and each
   run binary's `__llvm_covmap` / `__llvm_covfun` / `__llvm_prf_names`
   sections.  Functions are keyed by NameRef, the low 8 bytes (little
   endian) of the MD5 of the function's name; one is reached when any of
   its counters is non-zero in any profile.
4. Prints a per-crate table: non-test lines (scripts/nontest-lines.sh),
   library functions, and the functions and lines no workload ran.
5. Lists the unreached functions per file with their line spans.

A function is a source span: every monomorphised copy of a generic
function shares one.  A closure or nested function that did not run inside
a function that did is a branch of a reached function, not a finding, so
it is neither counted nor listed.  Unreached lines are the lines of
unreached spans that no reached span covers.  Library code is
crates/<crate>/src/** except src/bin/ (nontest-lines.sh's rule).

Exits non-zero, naming the cause, on an unknown profile or covmap version,
a workload that exits non-zero or times out, or a scenario report that
differs from its pinned file.  Needs cargo, rustc and python3 only
(c++filt, when present, demangles names); it runs offline and writes only
under target/.
"""

import collections
import glob
import hashlib
import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import time
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "target", "reach")
PROF = os.path.join(OUT, "prof")
LOGS = os.path.join(OUT, "logs")
RUSTFLAGS = "-C instrument-coverage -C codegen-units=1"
EXAMPLES = ["quickstart", "self_monitoring", "overload_shedding", "cluster_monitoring",
            "netlogger_analysis"]
E21_WORKLOADS = ["stream_edge", "archive_ingest", "history_query", "full_pipeline"]
BINS = ["e4_frame_rate", "e9_admin_ops"]
TIMEOUT_S = 300

PROFRAW_MAGIC = 0xFF6C70726F667281
PROFRAW_VERSION = 10
PROFRAW_HEADER = struct.Struct("<16Q")
PROFRAW_DATA_SIZE = 64
# Zero-based covmap version of the mapping format: 5 is LLVM's Version6,
# 6 its Version7 (the same regions plus MC/DC kinds).
COVMAP_VERSIONS = (5, 6)


class ReachError(Exception):
    pass


# ---------------------------------------------------------------- steps 1-2


def build():
    """Build the instrumented binaries; returns {(kind, name): executable}."""
    cmd = ["cargo", "build", "--release", "--offline", "--target-dir", OUT,
           "-p", "jamm", "-p", "jamm-bench", "--examples", "--bins", "--bench", "*",
           "--message-format=json-render-diagnostics"]
    env = dict(os.environ, RUSTFLAGS=RUSTFLAGS)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise ReachError(f"instrumented build failed (exit {proc.returncode})")
    exes = {}
    for line in proc.stdout.decode().splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[(msg["target"]["kind"][0], msg["target"]["name"])] = msg["executable"]
    return exes


def workloads(exes):
    """(label, argv, expected stdout or None) for every run of the set."""
    runs = [(f"example {ex}", [exes[("example", ex)]], None) for ex in EXAMPLES]
    for spec in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.scn"))):
        with open(spec[:-len(".scn")] + ".report", "rb") as f:
            pinned = f.read()
        rel = os.path.relpath(spec, ROOT)
        runs.append((f"scenario {rel}", [exes[("example", "scenario_run")], rel], pinned))
    e21 = exes[("bin", "e21_end_to_end")]
    for w in E21_WORKLOADS:
        runs.append((f"e21 {w} smoke", [e21, "--workload", w, "--seed", "1", "--smoke"], None))
        runs.append((f"e21 {w} traced", [e21, "--workload", w, "--seed", "1", "--seconds", "4",
                                         "--trace", "1"], None))
    for src in sorted(glob.glob(os.path.join(ROOT, "crates", "bench", "benches", "*.rs"))):
        bench = os.path.basename(src)[:-len(".rs")]
        runs.append((f"bench {bench}", [exes[("bench", bench)], "--bench"], None))
    runs += [(f"bin {b}", [exes[("bin", b)]], None) for b in BINS]
    return runs


def run_all(runs):
    # e17 opens 10,000 sockets in each of two processes (bench-all.sh's ulimit).
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 20000 if hard == resource.RLIM_INFINITY else min(20000, hard)
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, want), hard))
    env = dict(os.environ, LLVM_PROFILE_FILE=os.path.join(PROF, "%p-%m.profraw"),
               CARGO_TARGET_DIR=OUT)
    for label, argv, pinned in runs:
        t0 = time.monotonic()
        log = os.path.join(LOGS, re.sub(r"[^\w.-]+", "_", label) + ".log")
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ReachError(f"{label}: timed out after {TIMEOUT_S} s")
        with open(log, "wb") as f:
            f.write(proc.stdout)
        print(f"  {time.monotonic() - t0:6.1f} s  {label}", flush=True)
        if proc.returncode != 0:
            tail = proc.stdout.decode(errors="replace").splitlines()[-20:]
            raise ReachError(f"{label}: exit {proc.returncode} (log {log})\n" + "\n".join(tail))
        if pinned is not None and proc.stdout != pinned:
            raise ReachError(f"{label}: report differs from its pinned .report (output in {log})")


# ---------------------------------------------------------------- step 3


def uleb(buf, at):
    value = shift = 0
    while True:
        byte = buf[at]
        at += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, at


def name_ref(name):
    return int.from_bytes(hashlib.md5(name).digest()[:8], "little")


def profile_reached(path):
    """NameRefs with a non-zero counter in one raw profile."""
    with open(path, "rb") as f:
        buf = f.read()
    (magic, version, ids_size, num_data, pad_before, num_counters, _pad_after, num_bitmap,
     _pad_bitmap, _names, counters_delta, *_rest) = PROFRAW_HEADER.unpack_from(buf)
    if magic != PROFRAW_MAGIC:
        raise ReachError(f"{path}: not an LLVM raw profile (magic {magic:#x})")
    if version & 0xFFFFFFFF != PROFRAW_VERSION:
        raise ReachError(f"{path}: raw profile version {version & 0xFFFFFFFF}, "
                         f"this reader knows {PROFRAW_VERSION}")
    if version & (3 << 59) or num_bitmap:  # debug-info correlation, byte counters, MC/DC
        raise ReachError(f"{path}: counter variant {version >> 32:#x} is not read here")
    data_at = PROFRAW_HEADER.size + ids_size
    counters_at = data_at + num_data * PROFRAW_DATA_SIZE + pad_before
    counters_delta -= 1 << 64 if counters_delta >= 1 << 63 else 0
    reached = set()
    for i in range(num_data):
        rec = data_at + i * PROFRAW_DATA_SIZE
        ref, _hash, counter_ptr = struct.unpack_from("<QQq", buf, rec)
        (n,) = struct.unpack_from("<I", buf, rec + 48)
        start = (counter_ptr - (counters_delta - PROFRAW_DATA_SIZE * i)) // 8
        if not 0 <= start <= start + n <= num_counters:
            raise ReachError(f"{path}: record {i} counters out of range")
        if any(struct.unpack_from(f"<{n}Q", buf, counters_at + 8 * start)):
            reached.add(ref)
    return reached


def elf_sections(path):
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != b"\x7fELF" or buf[4] != 2 or buf[5] != 1:
        raise ReachError(f"{path}: not a little-endian 64-bit ELF")
    shoff, = struct.unpack_from("<Q", buf, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", buf, 0x3A)
    headers = [struct.unpack_from("<IIQQQQ", buf, shoff + i * shentsize) for i in range(shnum)]
    strtab = headers[shstrndx]
    sections = {}
    for name_off, _type, _flags, _addr, offset, size in headers:
        at = strtab[4] + name_off
        name = buf[at:buf.index(b"\0", at)].decode()
        sections[name] = buf[offset:offset + size]
    return sections


def names_section(blob):
    """{NameRef: name} from a `__llvm_prf_names` section (chunks of names)."""
    names = {}
    at = 0
    while at < len(blob):
        if blob[at] == 0 and not any(blob[at:at + 8]):
            at += 1  # alignment between objects' chunks
            continue
        raw_len, at = uleb(blob, at)
        zipped_len, at = uleb(blob, at)
        if zipped_len:
            text = zlib.decompress(blob[at:at + zipped_len])
            at += zipped_len
        else:
            text = blob[at:at + raw_len]
            at += raw_len
        for name in text.split(b"\x01"):
            names[name_ref(name)] = name.decode(errors="replace")
    return names


def covmap_files(blob, path):
    """{FilenamesRef: [absolute filename]} from a `__llvm_covmap` section."""
    files = {}
    at = 0
    while at + 16 <= len(blob):
        _nrec, size, _cov, version = struct.unpack_from("<4I", blob, at)
        if version not in COVMAP_VERSIONS:
            raise ReachError(f"{path}: covmap version {version + 1}, this reader knows "
                             f"{', '.join(str(v + 1) for v in COVMAP_VERSIONS)}")
        enc = blob[at + 16:at + 16 + size]
        count, i = uleb(enc, 0)
        raw_len, i = uleb(enc, i)
        zipped_len, i = uleb(enc, i)
        text = zlib.decompress(enc[i:i + zipped_len]) if zipped_len else enc[i:i + raw_len]
        names, j = [], 0
        for _ in range(count):
            n, j = uleb(text, j)
            names.append(text[j:j + n].decode())
            j += n
        files[name_ref(enc)] = [os.path.join(names[0], n) for n in names]
        at += (16 + size + 7) & ~7
    return files


def covfun_spans(blob, files):
    """Yield (NameRef, filename, start (line, col), end (line, col)) per record."""
    at = 0
    while at + 28 <= len(blob):
        ref, size, _hash, files_ref = struct.unpack_from("<QIQQ", blob, at)
        data = blob[at + 28:at + 28 + size]
        at = (at + 28 + size + 7) & ~7
        nfiles, i = uleb(data, 0)
        indices = []
        for _ in range(nfiles):
            idx, i = uleb(data, i)
            indices.append(idx)
        nexpr, i = uleb(data, i)
        for _ in range(2 * nexpr):
            _, i = uleb(data, i)
        lo = hi = None
        for file_id in range(nfiles):
            nregions, i = uleb(data, i)
            line = 0
            for _ in range(nregions):
                enc, i = uleb(data, i)
                skipped = False
                if enc & 3 == 0 and not enc & 4:
                    kind = enc >> 3
                    if kind == 2:  # skipped region
                        skipped = True
                    elif kind == 4:  # branch: two counters
                        _, i = uleb(data, i)
                        _, i = uleb(data, i)
                    elif kind == 5:  # MC/DC decision: bitmap index, conditions
                        _, i = uleb(data, i)
                        _, i = uleb(data, i)
                    elif kind == 6:  # MC/DC branch: two counters, three ids
                        for _ in range(5):
                            _, i = uleb(data, i)
                    elif kind != 0:
                        raise ReachError(f"covfun record {ref:#x}: region kind {kind}")
                delta, i = uleb(data, i)
                col_start, i = uleb(data, i)
                nlines, i = uleb(data, i)
                col_end, i = uleb(data, i)
                line += delta
                gap = col_end & (1 << 31)
                if file_id == 0 and not skipped and not gap:
                    start, end = (line, col_start), (line + nlines, col_end)
                    lo = start if lo is None else min(lo, start)
                    hi = end if hi is None else max(hi, end)
        if lo is not None and files_ref in files:
            yield ref, files[files_ref][indices[0]], lo, hi


# ---------------------------------------------------------------- steps 4-5


def library_file(path):
    rel = os.path.relpath(path, ROOT)
    parts = rel.split(os.sep)
    if len(parts) > 3 and parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin":
        return rel, parts[1]
    return None


def demangle(names):
    if not names or not shutil.which("c++filt"):
        return {n: n for n in names}
    out = subprocess.run(["c++filt"], input="\n".join(names), capture_output=True,
                         text=True).stdout.splitlines()
    if len(out) != len(names):
        return {n: n for n in names}
    return {n: re.sub(r"\[[0-9a-f]{16}\]", "", d) for n, d in zip(names, out)}


def nontest_lines():
    out = subprocess.run(["sh", "scripts/nontest-lines.sh"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    rows = re.findall(r"^\| (\w+) \| (\d+) \|$", out, re.M)
    return {crate: int(n) for crate, n in rows}


def analyse(binaries):
    reached = set()
    profiles = glob.glob(os.path.join(PROF, "*.profraw"))
    if not profiles:
        raise ReachError(f"no raw profiles under {PROF}")
    for path in profiles:
        reached |= profile_reached(path)

    names, spans = {}, {}  # spans: (file, start, end) -> set of NameRefs
    for exe in binaries:
        sections = elf_sections(exe)
        names.update(names_section(sections.get("__llvm_prf_names", b"")))
        files = covmap_files(sections.get("__llvm_covmap", b""), exe)
        for ref, path, start, end in covfun_spans(sections.get("__llvm_covfun", b""), files):
            lib = library_file(path)
            if lib:
                spans.setdefault((lib, start, end), set()).add(ref)

    by_file = collections.defaultdict(lambda: ([], []))  # file -> (reached, unreached)
    for (lib, start, end), refs in spans.items():
        by_file[lib][0 if refs & reached else 1].append((start, end, refs))

    crates = collections.defaultdict(lambda: [0, 0, 0])  # functions, unreached, lines
    listing = {}
    for (rel, crate), (hit, missed) in by_file.items():
        inside = lambda s, e: any(hs <= s and e <= he for hs, he, _ in hit)  # noqa: E731
        missed = sorted(m for m in missed if not inside(m[0], m[1]))
        covered = {ln for s, e, _ in hit for ln in range(s[0], e[0] + 1)}
        lines = {ln for s, e, _ in missed for ln in range(s[0], e[0] + 1)} - covered
        crates[crate][0] += len(hit) + len(missed)
        crates[crate][1] += len(missed)
        crates[crate][2] += len(lines)
        if missed:
            listing[rel] = (missed, len(lines))
    return crates, listing, names


def report(crates, listing, names, elapsed, nruns):
    nontest = nontest_lines()
    print(f"\nreach: {nruns} workload runs, {elapsed:.0f} s\n")
    print("| crate | non-test lines | functions | unreached functions | unreached lines |")
    print("|---|---|---|---|---|")
    total = [0, 0, 0, 0]
    for crate in sorted(set(nontest) | set(crates)):
        row = [nontest.get(crate, 0)] + crates[crate]
        total = [a + b for a, b in zip(total, row)]
        print(f"| {crate} | " + " | ".join(str(v) for v in row) + " |")
    print("| **all** | " + " | ".join(f"**{v}**" for v in total) + " |")

    wanted = sorted({names[min(refs)] for missed, _ in listing.values()
                     for _s, _e, refs in missed if min(refs) in names})
    pretty = demangle(wanted)
    print("\nunreached functions per file (first-last line, name):")
    for rel in sorted(listing):
        missed, nlines = listing[rel]
        print(f"\n{rel}: {len(missed)} functions, {nlines} lines")
        for start, end, refs in missed:
            name = names.get(min(refs))
            print(f"  {start[0]:5}-{end[0]:<5} {pretty[name] if name else f'{min(refs):#018x}'}")


def main():
    if sys.argv[1:]:
        sys.exit("usage: scripts/reach.py")
    t0 = time.monotonic()
    try:
        print("building instrumented binaries into target/reach/", flush=True)
        runs = workloads(build())
        for d in (PROF, LOGS):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        print(f"running {len(runs)} workloads", flush=True)
        run_all(runs)
        crates, listing, names = analyse(sorted({argv[0] for _, argv, _ in runs}))
    except ReachError as e:
        sys.exit(f"reach: {e}")
    report(crates, listing, names, time.monotonic() - t0, len(runs))


if __name__ == "__main__":
    main()
