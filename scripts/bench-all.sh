#!/bin/sh
# The one bench command: run every target under crates/bench/benches.
# Each writes target/bench/<target>.json (stamped with commit, rustc, cores
# and date) and compares itself with its committed BENCH_<id>.json; a
# deterministic row that differs from the baseline, or a failed inline
# assertion, makes that bench — and this script — exit non-zero.  Wall-clock
# rows are printed with their ratio to the baseline and never fail the run.
#
#   scripts/bench-all.sh            run and compare
#   scripts/bench-all.sh --record   run, then copy each result over the
#                                   committed baseline it belongs to
#
# The benches take no flag and read no environment variable.
set -eu
cd "$(dirname "$0")/.."
# e17 opens 10,000 sockets in each of two processes.
ulimit -n 20000 2>/dev/null || true
case "${1-}" in
"") record=0 ;;
--record) record=1 ;;
*)
    echo "usage: $0 [--record]" >&2
    exit 2
    ;;
esac

rm -rf target/bench
status=0
for src in crates/bench/benches/*.rs; do
    bench=$(basename "$src" .rs)
    echo "=== $bench"
    cargo bench -p jamm-bench --bench "$bench" || status=1
done

if [ "$record" = 1 ]; then
    # The old baselines are what is being replaced, so differing from them
    # is not a failure here; a baseline whose bench wrote nothing is.
    status=0
    for baseline in BENCH_*.json; do
        id=${baseline#BENCH_}
        id=${id%.json}
        result=$(ls target/bench/"$id"_*.json 2>/dev/null || true)
        if [ -n "$result" ]; then
            cp "$result" "$baseline"
            echo "recorded $baseline from $result"
        else
            echo "$baseline: its bench wrote no result; left as it was" >&2
            status=1
        fi
    done
fi
exit $status
