#!/bin/sh
# Prints each crate's non-test source line count: for every .rs file
# under the crate's src/, the lines above its first inline test module (a
# `#[cfg(test)]` whose next line opens `mod … {`) or its file-level
# `#![cfg(test)]` (the whole file when it has neither). A `#[cfg(test)]` on
# any other item (an `extern crate`, a `mod name;` declaration) is counted
# like any other line. Crates default to every first-party crate under
# crates/ (the vendored criterion and proptest stand-ins excluded); pass
# crate names to count a subset.
#
#   scripts/nontest-lines.sh [crate...]
set -eu
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
    for dir in crates/*/; do
        crate=$(basename "$dir")
        case "$crate" in criterion | proptest) ;; *) set -- "$@" "$crate" ;; esac
    done
fi
count='
    pending {
        pending = 0
        if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/) exit
        n++
    }
    /^#!\[cfg\(test\)\]/ { exit }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    { n++ }
    END { print n + pending }'
total=0
for crate in "$@"; do
    n=$(find "crates/$crate/src" -name '*.rs' -exec awk "$count" {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-16s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
