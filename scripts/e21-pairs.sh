#!/bin/sh
# The pair protocol for a performance claim on e21 (BENCHMARK.json), as one
# command: check the parent revision out under target/, build e21 on both
# sides once (each into its own target dir), then run <n> parent/change
# pairs of one workload at the driver's settings, alternating which side
# goes first.  Prints one markdown row per pair as it completes and, at the
# end, per metric: both medians, their ratio, the parent's Q1-Q3 and how
# many pairs the change won - the table CHANGES.md quotes.
#
#   scripts/e21-pairs.sh <parent-rev> <workload> <n> [seed] [metrics]
#
# Without [metrics] the runs are untraced and the three end-to-end metrics
# are tabulated.  A fifth argument lists per-layer names instead, e.g.
# "query.selective.p50_us query.full.p50_us tsdb.rows_per_s": each run is
# then traced (`--trace 1`, which is what reports them) and "won" follows
# the metric's `better` direction in BENCHMARK.json.
#
# A run that reports `correct false` says why in `WRONG:` lines: each is
# echoed to stderr and appended, tagged with its pair and side, to
# target/e21-pairs/<workload>-<ts>-wrong.txt beside the pair log.
#
# Run from the repository root on a committed or uncommitted working tree
# (the change side is whatever is checked out here).  The parent tree is
# extracted with `git archive`, so nothing is registered in .git and
# `rm -rf target/e21-pairs` is the whole clean-up.
set -eu
[ $# -ge 3 ] || { echo "usage: $0 <parent-rev> <workload> <n> [seed] [metrics]" >&2; exit 2; }
rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=$3
seed=${4:-1}
manifest=crates/bench/src/bin/e21_end_to_end/Cargo.toml
metrics=${5:-"setup_s cpu_us_per_event peak_rss_mb"}
[ $# -ge 5 ] && trace=1 || trace=0
nmetrics=$(echo "$metrics" | wc -w)
root=$(pwd)/target/e21-pairs
parent=$root/parent-$rev

if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
# build <side> <dir>: build e21 from the checkout in <dir>.
build() {
    (cd "$2" && CARGO_TARGET_DIR="$root/target-$1" \
        cargo build --release --quiet --offline --manifest-path $manifest)
}
build parent "$parent"
# Building e21 rewrites its Cargo.lock, which is out of date: the file
# checked out here is put back as soon as the build ends, failed or not.
lock=${manifest%/*}/Cargo.lock
cp "$lock" "$root/change-Cargo.lock"
status=0
build change . || status=$?
cp "$root/change-Cargo.lock" "$lock"
[ "$status" -eq 0 ] || exit "$status"

# run <side>: one benchmark run from that side's checkout; prints the
# result line's `failed`, `correct` and the metric values, and keeps the
# run's `WRONG:` lines (pair $i).
run() {
    [ "$1" = parent ] && src=$parent || src=.
    out=$root/run-$1.out
    (cd "$src" && CARGO_TARGET_DIR="$root/target-$1" \
        "$root/target-$1/release/e21_end_to_end" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace "$trace") > "$out" || true
    grep '^WRONG:' "$out" | sed "s/^/pair $i $1: /" | tee -a "$wrong" >&2
    tail -n 1 "$out" | awk -v metrics="$metrics" '{
            line = $0
            out = field(line, "\"failed\":") " " field(line, "\"correct\":")
            n = split(metrics, m, " ")
            for (i = 1; i <= n; i++)
                out = out " " field(line, "\"" m[i] "\":{\"value\":")
            print out
        }
        function field(s, key,    at, rest) {
            at = index(s, key)
            if (!at) return "missing"
            rest = substr(s, at + length(key))
            sub(/[,}].*/, "", rest)
            return rest
        }'
}

ts=$(date +%s)
log=$root/$workload-$ts.txt
wrong=$root/$workload-$ts-wrong.txt
: > "$log"
: > "$wrong"
echo "e21 $workload, seed $seed, 20 s, parent $(git rev-parse --short "$rev") vs working tree; values are parent/change"
echo "| pair | first | $(echo "$metrics" | sed 's/ / | /g') | failed | correct |"
echo "|---|---|$(echo "$metrics" | sed 's/[^ ]*/---|/g; s/ //g')---|---|"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=parent; p=$(run parent); c=$(run change)
    else first=change; c=$(run change); p=$(run parent); fi
    echo "$p $c" >> "$log"
    # A log line is the parent's `failed correct v1..vn`, then the change's.
    echo "$p $c" | awk -v i="$i" -v first="$first" -v n="$nmetrics" '{
        printf "| %d | %s |", i, first
        for (k = 1; k <= n; k++) printf " %.3f/%.3f |", $(2 + k), $(n + 4 + k)
        printf " %s/%s | %s/%s |\n", $1, $(n + 3), $2, $(n + 4) }'
    i=$((i + 1))
done

# better <metric>: the direction BENCHMARK.json declares (lower by default).
better() {
    awk -v name="\"name\": \"$1\"" '
        index($0, name) { hit = 1 }
        hit && /"better"/ { print (/higher/ ? "higher" : "lower"); found = 1; exit }
        END { if (!found) print "lower" }' BENCHMARK.json
}

echo
echo "| metric | parent median | change median | change/parent | parent Q1-Q3 | pairs won |"
echo "|---|---|---|---|---|---|"
col=3
for metric in $metrics; do
    awk -v col="$col" -v skip="$((nmetrics + 2))" -v name="$metric" -v better="$(better "$metric")" '
        {
            p[NR] = $col; c[NR] = $(col + skip)
            if (better == "higher" ? c[NR] > p[NR] : c[NR] < p[NR]) won++
        }
        END {
            sort(p, NR); sort(c, NR)
            pm = q(p, NR, 0.5); cm = q(c, NR, 0.5)
            printf "| %s | %.3f | %.3f | %s | %.3f-%.3f | %d of %d |\n", name, pm, cm,
                (pm ? sprintf("%.3f", cm / pm) : "-"), q(p, NR, 0.25), q(p, NR, 0.75), won, NR
        }
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function q(a, n, f,    pos, lo) {
            pos = 1 + (n - 1) * f; lo = int(pos)
            return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
        }' "$log"
    col=$((col + 1))
done
