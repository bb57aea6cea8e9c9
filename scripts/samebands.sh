#!/usr/bin/env bash
# samebands.sh OTHER_CHECKOUT [SKEW] — the byte-identical bands witness
# for a change that claims to keep behaviour: runs `ringchaos -seeds
# 1:2000 -v -shrink=false -skew SKEW` (SKEW default 0) on the plain,
# -durable and -elasticity bands, built from this tree and from
# OTHER_CHECKOUT (e.g. `git archive` of the parent), drops each run's
# last, wall-clock line and cmps the pair. Exits 1 if any band differs.
set -euo pipefail
other=$(cd "$1" && pwd)
skew=${2:-0}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/this" ./cmd/ringchaos
(cd "$other" && go build -o "$tmp/other" ./cmd/ringchaos)
status=0
for band in plain -durable -elasticity; do
	for tree in this other; do
		flags=(-seeds 1:2000 -v -shrink=false -skew "$skew")
		[ "$band" = plain ] || flags+=("$band")
		{ "$tmp/$tree" "${flags[@]}" || true; } | sed '$d' >"$tmp/$tree$band"
	done
	if cmp "$tmp/this$band" "$tmp/other$band"; then
		echo "samebands: $band skew $skew: identical ($(wc -l <"$tmp/this$band") lines)"
	else
		status=1
	fi
done
exit $status
