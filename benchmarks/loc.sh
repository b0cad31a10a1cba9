#!/usr/bin/env bash
# Non-test line ledger of the workspace crates.
#
#   benchmarks/loc.sh [ROOT=.]
#
# Counts every `crates/*/src/**/*.rs` under ROOT up to its first line that
# starts with `#[cfg(test)]` (the whole file when it has none), and prints
# three sections: one line per file, one per crate (largest first), and the
# total. This is the method CHANGES.md's LINES tables use; run it at the
# parent and at the change and put both outputs there instead of counting
# by hand. A fourth section, `== tests ==`, counts the test side apart:
# every `.rs` under each `crates/*/tests` and `tests/` directory, the
# `#[cfg(test)]` tails of `crates/*/src` (from that line to the end), and
# their total. Exits 2 on a usage error or when ROOT holds no crate
# sources. Needs only bash, find, awk and sort.
set -euo pipefail

[ $# -le 1 ] || { echo "usage: $0 [ROOT=.]" >&2; exit 2; }
root=${1:-.}
[ -d "$root/crates" ] || { echo "loc.sh: no crates/ under $root" >&2; exit 2; }

files=$(cd "$root" && find crates/*/src -name '*.rs' -type f | LC_ALL=C sort)
[ -n "$files" ] || { echo "loc.sh: no crates/*/src/**/*.rs under $root" >&2; exit 2; }

# One "crate lines path" row per file.
rows=$(cd "$root" && for f in $files; do
    awk -v path="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { split(path, part, "/"); printf "%s %d %s\n", part[2], n, path }
    ' "$f"
done)

echo "== files =="
printf '%s\n' "$rows" | awk '{ printf "%6d  %s\n", $2, $3 }'
echo "== crates =="
printf '%s\n' "$rows" | awk '{ sum[$1] += $2 } END { for (c in sum) printf "%6d  %s\n", sum[c], c }' |
    LC_ALL=C sort -k1,1nr -k2,2
echo "== total =="
printf '%s\n' "$rows" | awk '{ t += $2 } END { printf "%6d\n", t }'

# The test side: one line per test directory, one for the source tails.
echo "== tests =="
tests=$(cd "$root" && for d in crates/*/tests tests; do
    [ -d "$d" ] || continue
    find "$d" -name '*.rs' -type f -exec cat {} + | awk -v dir="$d" 'END { printf "%d %s\n", NR, dir }'
done
for f in $files; do
    awk '/^#\[cfg\(test\)\]/ { on = 1 } on { n++ } END { printf "%d\n", n }' "$f"
done | awk '{ t += $1 } END { printf "%d crates/*/src #[cfg(test)] tails\n", t }')
printf '%s\n' "$tests" | awk '{ n = $1; $1 = ""; printf "%6d %s\n", n, $0 }'
printf '%s\n' "$tests" | awk '{ t += $1 } END { printf "%6d  total\n", t }'
