#!/bin/sh
# Counts the lines of non-test Rust code, per crate and in total.
#
#   scripts/loc.sh [repo-dir]
#
# Reads every .rs file under crates/*/src and under src/ (the `tenways`
# crate). Blank lines and `//` comment lines, doc comments included, do
# not count, so deleting comments cannot pass for deleting code. Neither
# does a `#[cfg(test)]` item: the attribute line through the `}` that
# closes the item at the attribute's indentation (where rustfmt puts
# it), or through the item's first line when that line ends in `;`.
set -eu

cd "${1:-.}"
find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    case "$file" in
    crates/*) crate=${file#crates/}; crate=${crate%%/*} ;;
    *) crate=tenways ;;
    esac
    awk -v crate="$crate" '
        close_line != "" {
            if ($0 == close_line || (item_start && /;[ \t]*$/ && !/\{/)) close_line = ""
            item_start = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ {
            match($0, /^[ \t]*/)
            close_line = substr($0, 1, RLENGTH) "}"
            item_start = 1
            next
        }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        { n++ }
        END { print crate, n + 0 }
    ' "$file"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (crate in lines) printf "%-10s %6d\n", crate, lines[crate] | "LC_ALL=C sort"
        close("LC_ALL=C sort")
        printf "%-10s %6d\n", "total", total
    }
'
