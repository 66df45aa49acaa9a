#!/usr/bin/env python3
"""User-space CPU profile of a running process, per thread and per symbol.

    scripts/cpu-profile.py <pid> [seconds] [--hz N] [--top N] [--thread-top N]

Opens one software cpu-clock sampling event (PERF_TYPE_SOFTWARE /
PERF_COUNT_SW_CPU_CLOCK, exclude_kernel set) on every thread of <pid>,
rescanning /proc/<pid>/task for threads started later, and reads each
event's mmap ring buffer for <seconds> (default 10).  Then it prints each
thread's share of the user-space samples, each symbol's self share over
all threads (the top 25, or --top N), and each thread's top symbols (5,
or --thread-top N).

Symbols come from `nm` for the executable and `nm -D` for shared
libraries (libc's malloc/free show as themselves).  An address inside a
file but past the end of every symbol nm lists -- glibc's internal
functions, such as _int_malloc, have no dynamic symbol -- prints as
"<file> (internal)", so read a library's share from the per-file table.

perf_event_paranoid 2 allows this without privileges: it samples the
caller's own processes, user space only.  Software clock sampling works
where hardware counters are missing (virtual machines); none are used.

Typical use on the benchmark (e21 builds into its own target directory):

    cargo build --release --manifest-path crates/bench/src/bin/e21_end_to_end/Cargo.toml
    crates/bench/src/bin/e21_end_to_end/target/release/e21_end_to_end \
        --workload stream_edge --seconds 20 &
    sleep 3; scripts/cpu-profile.py $! 10
"""

import bisect
import collections
import ctypes
import mmap
import os
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_RECORD_SAMPLE = 9
PERF_FLAG_FD_CLOEXEC = 1 << 3
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
FLAG_EXCLUDE_KERNEL = 1 << 5
FLAG_EXCLUDE_HV = 1 << 6
FLAG_FREQ = 1 << 10
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
RING_PAGES = 64

libc = ctypes.CDLL(None, use_errno=True)
libc.syscall.restype = ctypes.c_long


def perf_event_open(tid, hz):
    attr = bytearray(ATTR_SIZE)
    struct.pack_into("<IIQQQQQI", attr, 0,
                     PERF_TYPE_SOFTWARE, ATTR_SIZE, PERF_COUNT_SW_CPU_CLOCK,
                     hz, PERF_SAMPLE_IP | PERF_SAMPLE_TID, 0,
                     FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV | FLAG_FREQ, 1)
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    nr = SYS_PERF_EVENT_OPEN[os.uname().machine]
    fd = libc.syscall(nr, buf, tid, -1, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open(tid {tid}): {os.strerror(err)}")
    return fd


class Ring:
    """One thread's event and its mmap ring buffer."""

    def __init__(self, tid, hz):
        self.tid = tid
        self.fd = perf_event_open(tid, hz)
        self.page = mmap.PAGESIZE
        self.map = mmap.mmap(self.fd, (1 + RING_PAGES) * self.page,
                             mmap.MAP_SHARED, mmap.PROT_READ | mmap.PROT_WRITE)
        self.size = RING_PAGES * self.page

    def drain(self, samples):
        head = struct.unpack_from("<Q", self.map, 1024)[0]
        tail = struct.unpack_from("<Q", self.map, 1032)[0]
        while tail < head:
            at = self.page + tail % self.size
            header = self.read(at, 8)
            kind, _misc, size = struct.unpack("<IHH", header)
            if size == 0:
                break
            if kind == PERF_RECORD_SAMPLE:
                ip, _pid, tid = struct.unpack("<QII", self.read(at + 8, 16))
                samples.append((tid, ip))
            tail += size
        struct.pack_into("<Q", self.map, 1032, tail)

    def read(self, at, n):
        start = self.page + (at - self.page) % self.size
        end = start + n
        limit = self.page + self.size
        if end <= limit:
            return self.map[start:end]
        return self.map[start:limit] + self.map[self.page:self.page + end - limit]

    def close(self):
        self.map.close()
        os.close(self.fd)


def elf_loads(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of an ELF64 file."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", ident, 32)
        phentsize, phnum = struct.unpack_from("<HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr = struct.unpack_from("<IIQQ", table, i * phentsize)
        p_filesz, = struct.unpack_from("<Q", table, i * phentsize + 32)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return loads


def nm_symbols(path):
    """Sorted (address, end, name) of the file's text symbols, from nm (the
    static table, else the dynamic one); `end` is None when nm gives no
    size."""
    out = []
    for dynamic in ([], ["-D"]):
        try:
            text = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only", *dynamic, path],
                                  capture_output=True, text=True, check=False).stdout
        except FileNotFoundError:
            sys.exit("cpu-profile: nm not found")
        for line in text.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                addr, size = int(parts[0], 16), int(parts[1], 16)
                out.append((addr, addr + size, parts[3]))
            elif len(parts) >= 3 and parts[1] in "tTwWiI" and parts[0]:
                out.append((int(parts[0], 16), None, line.split(" ", 2)[2]))
        if out:
            break
    out.sort()
    return out


class Symbolizer:
    def __init__(self, pid):
        self.maps = []  # (start, end, file offset, path)
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                self.maps.append((start, end, int(fields[2], 16), fields[5]))
        self.maps.sort()
        self.files = {}

    def file(self, path):
        if path not in self.files:
            syms = nm_symbols(path)
            self.files[path] = (elf_loads(path), [s[0] for s in syms], syms)
        return self.files[path]

    def file_of(self, ip):
        i = bisect.bisect_right(self.maps, (ip, float("inf"))) - 1
        if i < 0 or not self.maps[i][0] <= ip < self.maps[i][1]:
            return "[unknown]"
        return os.path.basename(self.maps[i][3])

    def name(self, ip):
        i = bisect.bisect_right(self.maps, (ip, float("inf"))) - 1
        if i < 0 or not self.maps[i][0] <= ip < self.maps[i][1]:
            return "[unknown]"
        start, _end, offset, path = self.maps[i]
        file_off = ip - start + offset
        loads, addrs, syms = self.file(path)
        vaddr = file_off
        for p_offset, p_vaddr, p_filesz in loads:
            if p_offset <= file_off < p_offset + p_filesz:
                vaddr = file_off - p_offset + p_vaddr
                break
        j = bisect.bisect_right(addrs, vaddr) - 1
        base = os.path.basename(path)
        if j < 0 or (syms[j][1] is not None and vaddr >= syms[j][1]):
            return f"{base} (internal)"
        return f"{syms[j][2]} [{base}]"


def thread_name(pid, tid):
    try:
        with open(f"/proc/{pid}/task/{tid}/comm") as f:
            return f.read().strip()
    except OSError:
        return "?"


def main():
    args = sys.argv[1:]
    counts = {"--hz": 997, "--top": 25, "--thread-top": 5}
    for flag in counts:
        if flag in args:
            i = args.index(flag)
            counts[flag] = int(args[i + 1])
            del args[i:i + 2]
    hz, top, thread_top = counts["--hz"], counts["--top"], counts["--thread-top"]
    if not args:
        sys.exit(__doc__)
    pid = int(args[0])
    seconds = float(args[1]) if len(args) > 1 else 10.0

    rings, names, samples = {}, {}, []
    deadline = time.monotonic() + seconds
    next_scan = 0.0
    while time.monotonic() < deadline:
        if time.monotonic() >= next_scan:
            try:
                tids = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
            except FileNotFoundError:
                break
            for tid in tids:
                if tid not in rings:
                    try:
                        rings[tid] = Ring(tid, hz)
                        names[tid] = thread_name(pid, tid)
                    except OSError as e:
                        print(f"cpu-profile: {e}", file=sys.stderr)
            next_scan = time.monotonic() + 0.5
        for ring in rings.values():
            ring.drain(samples)
        time.sleep(0.05)
    for ring in rings.values():
        ring.drain(samples)
    symbolizer = Symbolizer(pid)
    for ring in rings.values():
        ring.close()
    if not samples:
        sys.exit("cpu-profile: no samples")

    total = len(samples)
    by_thread = collections.Counter(tid for tid, _ in samples)
    by_symbol = collections.Counter()
    by_file = collections.Counter()
    per_thread = collections.defaultdict(collections.Counter)
    for tid, ip in samples:
        sym = symbolizer.name(ip)
        by_symbol[sym] += 1
        by_file[symbolizer.file_of(ip)] += 1
        per_thread[tid][sym] += 1

    print(f"{total} user-space samples over {seconds:g} s at {hz} Hz per thread, pid {pid}")
    print("\nthreads (share of samples):")
    for tid, n in by_thread.most_common():
        print(f"  {100 * n / total:6.2f}%  {names.get(tid, '?')} ({tid})")
    print("\nfiles (share of samples):")
    for name, n in by_file.most_common():
        print(f"  {100 * n / total:6.2f}%  {name}")
    print(f"\nsymbols (self share, top {top}):")
    for sym, n in by_symbol.most_common(top):
        print(f"  {100 * n / total:6.2f}%  {sym}")
    for tid, n in by_thread.most_common():
        print(f"\n{names.get(tid, '?')} ({tid}), {n} samples:")
        for sym, m in per_thread[tid].most_common(thread_top):
            print(f"  {100 * m / n:6.2f}%  {sym}")


if __name__ == "__main__":
    main()
