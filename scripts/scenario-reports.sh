#!/bin/sh
# Rewrite the pinned scenario reports: runs every `scenarios/<name>.scn`
# through the `scenario_run` example and stores its output (the report's
# `render_text()`) as `scenarios/<name>.report`.  The scenario suite's
# determinism test compares each run with its file, so a change that moves
# any report must run this and explain the diff.  Run from the repository
# root.
set -eu
cargo build -q --release --example scenario_run
for spec in scenarios/*.scn; do
    target/release/examples/scenario_run "$spec" > "${spec%.scn}.report"
done
