#!/usr/bin/env bash
# A/B timing of two cioq_benchmark binaries on one workload.
#
#   benchmarks/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [SECONDS=20] [PAIRS=10] [SEED=7]
#
# Runs PAIRS pairs of timing passes (`--trace 0`) of WORKLOAD at SEED for
# SECONDS each. Pair 1 runs the parent first, then the order alternates
# (P C, C P, P C, ...), so neither side always runs second. Each run prints
# one line: slots_per_s, setup_s, peak_rss_mib, value_throughput,
# sim.digest and failed. The summary gives each side's median slots_per_s,
# setup_s and peak_rss_mib, the parent's slots_per_s IQR as a percentage
# of its median, the change's gain in the median, and the pairs the change
# won (higher slots_per_s).
#
# Both binaries run from the current directory. Exits 1 if the digests
# differ, a run reports failed != 0 or a run exits non-zero; 2 on a usage
# error. Needs only bash, awk and sort.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [SECONDS=20] [PAIRS=10] [SEED=7]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 6 ] || usage
parent=$1 change=$2 workload=$3 seconds=${4:-20} pairs=${5:-10} seed=${6:-7}
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "ab.sh: $bin is not an executable" >&2; exit 2; }
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
status=0

# run SIDE BIN PAIR: one timing pass; appends "side pair slots setup rss vt
# digest failed" to $runs and prints it labelled.
run() {
    local out
    out=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || status=1
    printf '%s\n' "$out" | awk -v side="$1" -v pair="$3" '
        $1 == "slots_per_s" { s = $2 }
        $1 == "setup_s" { u = $2 }
        $1 == "peak_rss_mib" { r = $2 }
        $1 == "value_throughput" { v = $2 }
        $1 == "sim.digest" { d = $2 }
        $1 == "failed" { f = $2 }
        END {
            print side, pair, or_nan(s), or_nan(u), or_nan(r), or_nan(v), or_nan(d), or_nan(f)
        }
        function or_nan(x) { return x == "" ? "nan" : x }' >>"$runs"
    tail -n 1 "$runs" | awk '{
        printf "pair %2d %-6s slots_per_s %12.1f  setup_s %.6f  peak_rss_mib %7.3f  value_throughput %s  sim.digest %s  failed %s\n",
            $2, $1, $3, $4, $5, $6, $7, $8
    }'
}

echo "# ab.sh: $workload, seed $seed, ${seconds}-s timing passes, $pairs pairs"
echo "# parent $parent"
echo "# change $change"
for ((k = 1; k <= pairs; k++)); do
    if ((k % 2 == 1)); then
        run parent "$parent" "$k"
        run change "$change" "$k"
    else
        run change "$change" "$k"
        run parent "$parent" "$k"
    fi
done

# quantile SIDE COLUMN Q: linear-interpolated quantile Q of one column.
quantile() {
    awk -v side="$1" -v col="$2" '$1 == side { print $col }' "$runs" | sort -g |
        awk -v q="$3" '{ a[NR] = $1 } END {
            if (NR == 0) { print "nan"; exit }
            h = (NR - 1) * q; lo = int(h)
            hi = (lo + 1 <= NR - 1) ? lo + 1 : lo
            printf "%.6f\n", a[lo + 1] + (h - lo) * (a[hi + 1] - a[lo + 1])
        }'
}

p25=$(quantile parent 3 0.25) p50=$(quantile parent 3 0.5) p75=$(quantile parent 3 0.75)
c50=$(quantile change 3 0.5)
won=$(awk '{ s[$1, $2] = $3 } END {
    for (k = 1; k <= n; k++) w += (s["change", k] > s["parent", k])
    print w + 0
}' n="$pairs" "$runs")
echo "# summary"
awk -v p25="$p25" -v p50="$p50" -v p75="$p75" -v c50="$c50" -v won="$won" -v pairs="$pairs" 'BEGIN {
    printf "slots_per_s  parent p50 %.1f (IQR %.1f %%)  change p50 %.1f  gain %+.1f %%  change won %d/%d\n",
        p50, 100 * (p75 - p25) / p50, c50, 100 * (c50 / p50 - 1), won, pairs
}'
for metric in "setup_s 4" "peak_rss_mib 5"; do
    set -- $metric
    printf '%-12s parent p50 %s  change p50 %s\n' "$1" "$(quantile parent "$2" 0.5)" "$(quantile change "$2" 0.5)"
done

digests=$(awk '{ print $7 }' "$runs" | sort -u)
if [ "$(printf '%s\n' "$digests" | wc -l)" -ne 1 ]; then
    echo "ab.sh: sim.digest differs between runs:" $digests >&2
    status=1
fi
if awk '$8 != "0" { bad = 1 } END { exit !bad }' "$runs"; then
    echo "ab.sh: a run reported failed != 0" >&2
    status=1
fi
exit "$status"
