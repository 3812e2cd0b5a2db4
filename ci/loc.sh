#!/usr/bin/env bash
# Prints the two size numbers a simplicity change quotes before → after
# (CONTRIBUTING.md, "Rules of the house", rule 6):
#
#   non-test lines  every .rs file under crates/, outside tests/, benches/
#                   and fixtures/ directories, counted up
#                   to its first column-0 `#[cfg(test)]` line;
#   lint exceptions every `#[allow(`, `#![allow(`, `#[expect(`,
#                   `#![expect(` and `xlint::allow(` in .rs files outside
#                   crates/xlint (the lint's own sources and fixtures name
#                   the markers without suppressing anything).
#
# Run from anywhere inside the checkout:
#
#   ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every .rs file below the given roots, skipping build output.
rust_files() {
    find "$@" -name target -prune -o -name '*.rs' -type f -print | sort
}

mapfile -t sources < <(rust_files crates |
    grep -Ev '/(tests|benches|fixtures)/')
lines="$(awk 'FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }' "${sources[@]}")"

mapfile -t all < <(rust_files . | grep -v '^\./crates/xlint/')
exceptions="$(cat "${all[@]}" |
    grep -oE '#!?\[(allow|expect)\(|xlint::allow\(' | wc -l)"

echo "non-test lines: $lines"
echo "lint exceptions: $exceptions"
