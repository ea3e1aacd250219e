#!/usr/bin/env bash
# Alternating parent/change pairs of the standing benchmark, run one after
# the other in the foreground, leaving nothing behind.
#
#   scripts/bench-pairs.sh [-w workload] [-n pairs] [-s first-seed] [-p parent-ref]
#
# The parent is `git archive`d into a temp tree (under $TMPDIR), the change
# is the working tree. Pair i runs both sides at seed first-seed+i, odd seeds
# parent first, even seeds change first. Prints each side's median and
# quartiles per gated metric and how many pairs the change won (all six are
# lower-is-better). A timing metric needs ten pairs, ≈ 6 min: call it in
# chunks that fit one foreground command (-n 5 -s 1, then -n 5 -s 6).
# heap_mb_end and wal_bytes_per_user_byte repeat within 1 % for a seed, so a
# claim on one of them needs only -n 3 on the claimed workload plus one -n 1
# pair on each other workload (≈ 2 min a call, each in the foreground). It
# reads bench/, it does not edit it, and it ends with the leak check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
w=page_hotcrp n=5 s=1 p=HEAD
while getopts w:n:s:p: o; do
	case $o in w) w=$OPTARG ;; n) n=$OPTARG ;; s) s=$OPTARG ;; p) p=$OPTARG ;; *) exit 2 ;; esac
done
tree=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tree"' EXIT
mkdir "$tree/parent"
git archive "$p" | tar -x -C "$tree/parent"
metrics="page_overhead_ratio page_resin_us_p50 page_base_us_p50 setup_s wal_bytes_per_user_byte heap_mb_end"

run() { # side checkout seed: one measuring run, its metrics appended to $tree/side.metric
	local line m
	line=$(timeout -k 5 180 bash "$2/bench/run.sh" --workload "$w" --seed "$3" --seconds 15 --trace 0 | tail -n 1)
	grep -q '"failed":0,' <<<"$line" || { echo "$1, seed $3: failed ops or no result: $line" >&2; exit 1; }
	for m in $metrics; do
		grep -o "\"$m\":{\"value\":[^,]*" <<<"$line" | sed 's/.*://' >>"$tree/$1.$m"
	done
	echo "seed $3 $1: $(for m in $metrics; do printf '%s %s  ' "$m" "$(tail -n 1 "$tree/$1.$m")"; done)"
}
for ((i = s; i < s + n; i++)); do
	if ((i % 2)); then
		run parent "$tree/parent" "$i"
		run change "$PWD" "$i"
	else
		run change "$PWD" "$i"
		run parent "$tree/parent" "$i"
	fi
done

quartiles() { # file: "median [q1, q3]", linear interpolation between ranks
	sort -g "$1" | awk '{ v[NR] = $1 }
		function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return l < NR ? v[l] + (h - l) * (v[l + 1] - v[l]) : v[NR] }
		END { printf "%.5g [%.5g, %.5g]", q(.5), q(.25), q(.75) }'
}
echo "== $w, seeds $s..$((s + n - 1)), parent $p: median [q1, q3]; wins = pairs where the change reads lower"
for m in $metrics; do
	wins=$(paste "$tree/parent.$m" "$tree/change.$m" | awk '$2 < $1 { n++ } END { print n + 0 }')
	printf '%-24s parent %-30s change %-30s wins %d/%d\n' "$m" "$(quartiles "$tree/parent.$m")" "$(quartiles "$tree/change.$m")" "$wins" "$n"
done
bash scripts/no-stray-procs.sh
