#!/usr/bin/env bash
# Same-host A/B speed gate. Runs alternating base/head pairs of the
# benchmark's sim-trade2 workload, with the same seed on both sides of a
# pair, and compares their refs_per_s:
#
#   bash .github/workflows/bench-ab.sh BASE_DIR HEAD_DIR
#
# BASE_DIR and HEAD_DIR are checkouts of the two commits; CI makes
# BASE_DIR a git worktree of the merge base. Every run's number is
# printed. The gate fails when a head run reports a failed operation,
# or when the head median is more than 5% below the base median and
# below it by more than the base's quartile spread (Q3 - Q1), so host
# noise alone does not fail it.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
pairs=5

# run DIR SEED prints "refs_per_s failed" from the run's last stdout line.
run() {
	(cd "$1" && bash perfbench/run.sh --workload sim-trade2 --seed "$2" --seconds 20 --trace 0) |
		tail -n 1 | jq -r '"\(.metrics.refs_per_s.value) \(.failed)"'
}

# quartiles reads numbers on stdin and prints "Q1 median Q3", linearly
# interpolated between the sorted values.
quartiles() {
	sort -g | awk '{ v[NR - 1] = $1 }
		function q(p,   h, i) { h = (NR - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
		END { printf "%.0f %.0f %.0f\n", q(0.25), q(0.5), q(0.75) }'
}

base_rates=() head_rates=() head_failed=0
for i in $(seq 1 "$pairs"); do
	order="base head"
	if ((i % 2 == 0)); then order="head base"; fi
	for side in $order; do
		dir=$base
		if [ "$side" = head ]; then dir=$head; fi
		out=$(run "$dir" "$i")
		read -r rate failed <<<"$out"
		printf 'pair %d seed %d %-4s refs_per_s %.0f failed %s\n' "$i" "$i" "$side" "$rate" "$failed"
		if [ "$side" = base ]; then
			base_rates+=("$rate")
		else
			head_rates+=("$rate")
			if [ "$failed" != 0 ]; then head_failed=1; fi
		fi
	done
done

read -r bq1 bmed bq3 < <(printf '%s\n' "${base_rates[@]}" | quartiles)
read -r _ hmed _ < <(printf '%s\n' "${head_rates[@]}" | quartiles)
printf 'base median %s (Q1 %s, Q3 %s), head median %s, head/base %s\n' \
	"$bmed" "$bq1" "$bq3" "$hmed" "$(awk -v h="$hmed" -v b="$bmed" 'BEGIN { printf "%.3f", h / b }')"

if ((head_failed)); then
	echo "bench-ab: a head run reported failed operations" >&2
	exit 1
fi
if awk -v h="$hmed" -v b="$bmed" -v s="$((bq3 - bq1))" 'BEGIN { exit !(h < 0.95 * b && b - h > s) }'; then
	echo "bench-ab: head refs_per_s median is more than 5% and more than the base's quartile spread below base" >&2
	exit 1
fi
echo "bench-ab: pass"
