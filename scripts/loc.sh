#!/usr/bin/env bash
# Prints the Go code lines of every package: non-blank, non-comment lines of
# non-test .go files, one "lines<TAB>package" row per directory and a total.
# benchmark/ is its own module measuring the program, not part of it, so it is
# left out. Run from anywhere; an optional argument names another checkout
# (e.g. a clone of the parent commit) to measure instead.
set -euo pipefail
root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -print0 |
	sort -z |
	xargs -0 awk '
		FNR == 1 { block = 0 }
		{
			line = $0
			sub(/^[ \t]+/, "", line)
			if (block) {                      # inside a /* ... */ comment
				if (line ~ /\*\//) block = 0
				next
			}
			if (line == "" || line ~ /^\/\//) next
			if (line ~ /^\/\*/) {
				if (line !~ /\*\//) block = 1
				next
			}
			dir = FILENAME
			sub(/\/[^\/]*$/, "", dir)
			if (dir == FILENAME) dir = "."
			n[dir]++
			total++
		}
		END {
			for (d in n) printf "%d\t%s\n", n[d], d
			printf "%d\ttotal\n", total
		}' |
	sort -k2
