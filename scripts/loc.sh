#!/bin/sh
# Non-test code size: non-blank, non-comment Rust lines per crate under
# crates/, leaving out tests/, benches/ and examples/ directories, a
# module's `tests.rs` file and each file's trailing `#[cfg(test)] mod
# tests` block (or `mod tests;` declaration). `//` line comments
# (incl. `///`, `//!`) are not counted; the workspace has no block comments.
#
#   scripts/loc.sh [checkout-root]     (default: the current directory)
set -eu

cd "${1:-.}"
for crate in crates/*/; do
    find "$crate" -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/examples/*' \
        -not -name tests.rs -print |
        sort | xargs awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0; pending = 0 }
            in_tests { next }
            pending { pending = 0; if ($0 ~ /^mod tests/) { in_tests = 1; n -= 1; next } }
            /^#\[cfg\(test\)\]$/ { pending = 1 }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { n += 1 }
            END { printf "%-12s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-12s %6d\n", "total", total }'
