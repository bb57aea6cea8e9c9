#!/usr/bin/env bash
# loc.sh — the size report ROADMAP's "quality of design" needle asks
# for: non-test Go lines per internal/* package (lint fixtures under
# testdata/ excluded) and the number of wire message types in
# internal/proto. Run from anywhere; pass a checkout root to measure
# another tree (e.g. the parent commit) with the same rules.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in internal/*/; do
	pkg=${dir%/}
	files=$(find "$pkg" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*')
	[ -n "$files" ] || continue
	lines=$(cat $files | wc -l)
	total=$((total + lines))
	printf '%-24s %6d\n' "$pkg" "$lines"
done
printf '%-24s %6d\n' 'internal (total)' "$total"
printf '%-24s %6d\n' 'proto message types' \
	"$(find internal/proto -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c ') Type() MsgType')"
