#!/bin/sh
# Non-test line count per crate: lines above the first `#[cfg(test)]` of
# every `.rs` file under crates/<crate>/src, at any depth, except src/bin/
# (the definition ROADMAP.md and the CHANGES.md size tables use).  Prints
# markdown table rows; run from the repository root.
set -eu
total=0
echo "| crate | non-test lines |"
echo "|---|---|"
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "$dir"src -name '*.rs' -not -path "$dir"'src/bin/*' -exec \
        awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' {} +)
    total=$((total + lines))
    echo "| $crate | $lines |"
done
echo "| **all** | $total |"
