#!/usr/bin/env bash
# loc.sh — the one size measure simplicity PRs quote: per package, the
# non-blank, non-// lines of its non-test .go files. bench/ and testdata/
# are excluded. With arguments, prints only those package directories.
cd "$(dirname "$0")/.."
find "${@:-.}" -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 |
    xargs -0 awk '!/^[[:space:]]*(\/\/|$)/ { d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\//, "", d); n[d]++; total++ }
        END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", total }' | sort -k2
