#!/bin/sh
# Per-crate count of non-test lock sites: `.lock()`, `.read()` and
# `.write()` calls in crates/*/src and src (the `root` row), reading each
# file only up to its first unindented `#[cfg(test)]`, so its unit-test
# module is not counted (a `#[cfg(test)]` helper method still is).
# Prints the markdown table ROADMAP's [core] item keeps, largest crate
# first, then the totals. POSIX sh; bash runs it the same.
#
#   tools/lock_sites.sh
set -eu
cd "$(dirname "$0")/.."

sites() { # <pattern> <dir>: matching lines above each file's test module
    # Unquoted on purpose: one word per source file (no path has a space).
    awk -v pat="$1" \
        'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && $0 ~ pat { n++ } END { print n + 0 }' \
        $(find "$2" -name '*.rs' | sort)
}

echo '| crate | `.lock()` | `.read()`/`.write()` |'
echo '|---|---|---|'
for dir in crates/*/src src; do
    name=$(basename "$(dirname "$dir")"); [ "$dir" = src ] && name=root
    echo "$(sites '\\.lock\\(\\)' "$dir") $(sites '\\.(read|write)\\(\\)' "$dir") $name"
done | sort -k1,1nr -k3 | awk '$1 + $2 > 0 { printf "| %s | %d | %d |\n", $3, $1, $2; l += $1; rw += $2 }
    END { printf "| **total** | %d | %d |\n", l, rw }'
