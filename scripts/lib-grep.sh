#!/bin/sh
# Print `file:line` for every line of library code that matches an
# extended regular expression:
#
#   scripts/lib-grep.sh <regex> [excluded-file...]
#
# Library code is the git-tracked `.rs` files under crates/*/src, at any
# depth, crates/bench excluded, each cut at its test module by the rule
# scripts/nontest-lines.sh uses (the first `#[cfg(test)]` whose next line
# opens a `mod`).  Files given after the regex, as repository-relative
# paths, are skipped.  Prints nothing when nothing matches; the CI steps
# that keep a rule over library code fail on any output.  Run from the
# repository root.
set -eu
if [ $# -lt 1 ]; then
    echo "usage: $0 <regex> [excluded-file...]" >&2
    exit 2
fi
pattern=$1
shift
files=$(git ls-files 'crates/*/src/*.rs' | grep -v '^crates/bench/' || true)
for excluded in "$@"; do
    files=$(printf '%s\n' "$files" | grep -v -x -F -e "$excluded" || true)
done
[ -n "$files" ] || exit 0
# The regex reaches awk through the environment: `-v` would expand its
# backslash escapes, turning `\(` into a group.
printf '%s\n' "$files" | LIB_GREP_RE=$pattern xargs awk '
    FNR == 1 { test = 0; held = 0 }
    test { next }
    held { held = 0; if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) { test = 1; next } }
    /#\[cfg\(test\)\]/ { held = 1; next }
    $0 ~ ENVIRON["LIB_GREP_RE"] { print FILENAME ":" FNR }'
