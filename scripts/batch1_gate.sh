#!/usr/bin/env sh
# batch1_gate.sh — measured batch-1 latency gate for output-channel
# sharding: one AlexNetS inference on a 2-device shard=channel pool must
# beat one device in wall clock.
#
# The root test binary is built once, then each of 7 rounds runs
# BenchmarkIntraBatch1/single and BenchmarkIntraBatch1/channel2 at 30
# iterations each, swapping which goes first every round, and takes
# single ns/op / channel2 ns/op. Alternating rounds keep a burst of CPU
# steal from landing on one side only; the gate fails when the median
# ratio is below the bound. Channel sharding runs its two shards as
# goroutines, so a host with one CPU cannot show the gain and the gate
# skips there.
#
# Usage: scripts/batch1_gate.sh
set -eu
cd "$(dirname "$0")/.."

rounds=7
bound=1.1
iters=30x

cpus=$(nproc)
if [ "$cpus" -lt 2 ]; then
	echo "batch1 gate: skipped, nproc=$cpus < 2 (the two channel shards would share one CPU)"
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/root.test" .

# ns_per_op CASE — one invocation of one BenchmarkIntraBatch1 case.
ns_per_op() {
	"$tmp/root.test" -test.run '^$' -test.bench "IntraBatch1/$1\$" -test.benchtime "$iters" -test.timeout 5m |
		awk '/^BenchmarkIntraBatch1\// { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }'
}

: >"$tmp/ratios"
r=1
while [ "$r" -le "$rounds" ]; do
	if [ $((r % 2)) -eq 1 ]; then
		single=$(ns_per_op single)
		chan2=$(ns_per_op channel2)
	else
		chan2=$(ns_per_op channel2)
		single=$(ns_per_op single)
	fi
	ratio=$(awk -v s="$single" -v c="$chan2" 'BEGIN { printf "%.3f", s / c }')
	echo "round $r: single ${single} ns/op, channel2 ${chan2} ns/op, ratio $ratio"
	echo "$ratio" >>"$tmp/ratios"
	r=$((r + 1))
done

sort -g "$tmp/ratios" | awk -v bound="$bound" '
	{ v[NR] = $1 }
	END {
		med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
		printf "batch1 gate: median single/channel2 %.3fx over %d rounds (bound %.2fx, nproc %d)\n", med, NR, bound, '"$cpus"'
		if (med < bound) { print "batch1 gate: channel2 batch-1 latency does not beat one device by the bound" > "/dev/stderr"; exit 1 }
	}'
