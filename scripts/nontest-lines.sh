#!/bin/sh
# Non-test line count per crate: lines above the test module of every `.rs`
# file under crates/<crate>/src, at any depth, except src/bin/ (the
# definition ROADMAP.md and the CHANGES.md size tables use).  The test
# module starts at the first `#[cfg(test)]` whose next line opens a `mod`;
# one on a lone item (a test-only helper) does not end the count.  Prints
# markdown table rows; run from the repository root.
set -eu
total=0
echo "| crate | non-test lines |"
echo "|---|---|"
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir"src -name '*.rs' -not -path "$dir"'src/bin/*' -exec \
        awk 'FNR == 1 { n += held; test = 0; held = 0 }
            test { next }
            held { held = 0; if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) { test = 1; next } n++ }
            /#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + held }' {} +)
    total=$((total + lines))
    echo "| $crate | $lines |"
done
echo "| **all** | $total |"
