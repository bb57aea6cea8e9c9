#!/usr/bin/env bash
# loc.sh — the size report ROADMAP's "quality of design" needle asks
# for: non-test Go lines per internal/* package (lint fixtures under
# testdata/ excluded) and under cmd/, lines under scripts/, the number
# of wire message types in internal/proto, the files at the top of the
# tree, and what a node is before it stores a byte: the packages ringd
# links from outside this module and the size of its text and read-only
# data, which an idle process keeps resident whole. Run from anywhere;
# pass a checkout root to measure another tree (e.g. the parent commit)
# with the same rules.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# golines DIR... — non-test Go lines under the directories.
golines() {
	find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l
}

for dir in internal/*/; do
	lines=$(golines "$dir")
	[ "$lines" -gt 0 ] || continue
	printf '%-24s %6d\n' "${dir%/}" "$lines"
done
printf '%-24s %6d\n' 'internal (total)' "$(golines internal)"
printf '%-24s %6d\n' 'cmd (total)' "$(golines cmd)"
printf '%-24s %6d\n' 'scripts' "$(find scripts -type f -exec cat {} + | wc -l)"
printf '%-24s %6d\n' 'proto message types' \
	"$(find internal/proto -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c ') Type() MsgType')"
# Tracked files when this is a git checkout, every file otherwise (an
# archive of a commit holds exactly the tracked ones).
printf '%-24s %6d\n' 'top-level files' \
	"$( (git ls-files 2>/dev/null || find . -maxdepth 1 -type f -printf '%f\n') | grep -vc /)"
printf '%-24s %6d\n' 'ringd deps (non-ring)' \
	"$(go list -deps ./cmd/ringd | grep -vc -e '^ring$' -e '^ring/')"
ringd=$(mktemp)
trap 'rm -f "$ringd"' EXIT
go build -o "$ringd" ./cmd/ringd
printf '%-24s %6d\n' 'ringd text+rodata kB' "$(size "$ringd" | awk 'NR == 2 { print int($1 / 1000) }')"
