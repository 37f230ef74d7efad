#!/usr/bin/env bash
# The perf gate: the repository benchmark (bench/, BENCHMARK.json) run on
# a parent revision and on this checkout, uncommitted changes included.
#
#   bash scripts/perfgate.sh <parent-rev>        (make bench PARENT=<rev>)
#
# 1. Exports <parent-rev> into a temporary directory, removed on exit.
# 2. Runs every BENCHMARK.json workload untraced in $pairs pairs, the two
#    sides alternating which runs first, and judges the pairs with
#    `bench/run.sh compare`.
# 3. Runs every workload once traced on each side and prints each side's
#    figures_digest and every count.* that differs between the sides.
#    serve-mix's count.polls is left out: it counts status polls made at
#    a fixed wall-clock interval. Neither is gated, because an intended
#    protocol change must be able to move them; the go test bit-identity
#    pins (the zero-fault cycle counts, TestCorpusPinned,
#    the TestRandomTrafficAllConfigs hashes, TestSnoopStreamGolden) are
#    what enforce them.
# 4. Fails when this checkout's traced bigfft has live_heap_mb.256n at or
#    above 16 × live_heap_mb.64n: 4× the nodes costing 16× the heap is
#    route or switch state growing quadratically.
#
# Exit status: 0 when everything passes; 1 when compare's verdict fails
# (an end-to-end metric is a regression or unresolved) and nothing else
# does; 2 on anything else: usage, a run that failed, compare refusing
# its input, the heap ceiling. Run outputs stay in .bench_build/gate/.
set -euo pipefail

# Three pairs of 25-second runs per workload, plus one traced run per
# workload and side, take about 15 minutes on a 2-vCPU host.
pairs=3
traced=$((pairs + 1)) # the traced runs' seed

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
die() { echo "perfgate: FAIL: $*" >&2; exit 2; }
[ $# -eq 1 ] && [ -n "$1" ] || die "usage: scripts/perfgate.sh <parent-rev> (make bench PARENT=<rev>)"
rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || die "no commit $1"

workloads=$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json")
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
[ -n "$workloads" ] && [ -n "$seconds" ] || die "cannot read the workloads and run_seconds of BENCHMARK.json"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tmp"
out="$root/.bench_build/gate"
rm -rf "$out"

# bench SIDE DIR WORKLOAD SEED TRACE runs one benchmark from checkout DIR
# into $out/[traced/]SIDE/WORKLOAD/SEED.
bench() {
	local side=$1 src=$2 wl=$3 seed=$4 trace=$5 dir=$out/$1/$3
	[ "$trace" = 0 ] || dir=$out/traced/$side/$wl
	mkdir -p "$dir"
	echo "perfgate: $side $wl seed $seed trace $trace"
	bash "$src/bench/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace "$trace" \
		>"$dir/$seed" || die "$side $wl seed $seed trace $trace: run failed, see $dir/$seed"
}

# pair SEED TRACE runs every workload on both sides, parent first on odd
# seeds and this checkout first on even ones.
pair() {
	local wl
	for wl in $workloads; do
		if [ $(($1 % 2)) = 1 ]; then
			bench parent "$tmp" "$wl" "$1" "$2"
			bench head "$root" "$wl" "$1" "$2"
		else
			bench head "$root" "$wl" "$1" "$2"
			bench parent "$tmp" "$wl" "$1" "$2"
		fi
	done
}

for seed in $(seq "$pairs"); do
	pair "$seed" 0
done
verdict=0
bash "$root/bench/run.sh" compare "$out/parent" "$out/head" || verdict=$?
[ "$verdict" -le 1 ] || die "compare exited $verdict"

pair "$traced" 1

# metrics FILE PATTERN prints "name value" for the metrics of FILE's
# result line whose names match PATTERN, at full precision.
metrics() {
	tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,}]*" | sed 's/^"\([^"]*\)":{"value":/\1 /' || true
}

for wl in $workloads; do
	p=$(cat "$out/parent/$wl"/* "$out/traced/parent/$wl/$traced" | sed -n 's/^figures_digest //p' | sort -u)
	h=$(cat "$out/head/$wl"/* "$out/traced/head/$wl/$traced" | sed -n 's/^figures_digest //p' | sort -u)
	same=$([ -n "$p" ] && [ "$p" = "$h" ] && [ "$(echo "$p" | wc -l)" -eq 1 ] && echo equal || echo DIFFERENT)
	echo "perfgate: $wl figures_digest parent" $p "head" $h "($same)"
	awk -v wl="$wl" 'FNR == NR { p[$1] = $2; next } { h[$1] = $2 }
		END {
			n = 0
			for (k in h) if (p[k] != h[k] && !(wl == "serve-mix" && k == "count.polls")) {
				printf "perfgate: %s %s differs: parent %s head %s\n", wl, k, (k in p) ? p[k] : "-", h[k]; n++
			}
			if (n == 0) printf "perfgate: %s count.*: equal\n", wl
		}' <(metrics "$out/traced/parent/$wl/$traced" 'count\.[a-z_]*') \
		<(metrics "$out/traced/head/$wl/$traced" 'count\.[a-z_]*') | sort
done

heap() { metrics "$out/traced/head/bigfft/$traced" "live_heap_mb\\.$1" | cut -d' ' -f2; }
h64=$(heap 64n)
h256=$(heap 256n)
[ -n "$h64" ] && [ -n "$h256" ] || die "no live_heap_mb.64n or .256n in the traced bigfft run"
awk -v a="$h256" -v b="$h64" 'BEGIN { exit !(a >= 16 * b) }' &&
	die "live_heap_mb.256n $h256 MB is at or above 16 × live_heap_mb.64n ($h64 MB)"
awk -v a="$h256" -v b="$h64" 'BEGIN { printf "perfgate: heap ceiling: live_heap_mb.256n %.2f MB / .64n %.2f MB = %.2f×, below 16×\n", a, b, a / b }'

[ "$verdict" = 0 ] || echo "perfgate: compare's verdict fails (exit 1)" >&2
exit "$verdict"
