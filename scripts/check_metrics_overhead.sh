#!/usr/bin/env bash
# Gate on the cost of hot-path metric instrumentation: micro_gmdj built
# with GMDJ_METRICS=ON must stay within a tolerance (default 3%) of the
# GMDJ_METRICS=OFF build on the same machine.
#
#   check_metrics_overhead.sh <micro_gmdj_metrics_on> <micro_gmdj_metrics_off> [tolerance_pct]
#
# Single runs on a shared or single-core host swing by tens of percent
# between processes, far more than the bound. So the two binaries run as
# 21 interleaved pairs: each pair runs both back to back, the
# order alternating from pair to pair, and the gate is the median of the
# per-pair deltas (on - off) / off. Host drift then moves both halves of
# a pair alike, and the median drops the pairs a burst of noise hit.
set -euo pipefail

on_bin=$1
off_bin=$2
tol=${3:-3}
pairs=21  # 9 pairs once read +4.0% on a build that measures +0.4%.
filter='micro/conditions/4'

run_ms() {
  local bin=$1 ms
  ms=$("$bin" --benchmark_filter="$filter" --benchmark_min_time=0.2 \
      2>/dev/null | grep '^{' |
      sed -n 's/.*"ms": \([0-9eE.+-]*\).*/\1/p' | head -1)
  if [ -z "$ms" ]; then
    echo "error: no JSON ms line from $bin" >&2
    return 1
  fi
  echo "$ms"
}

deltas=()
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    on_ms=$(run_ms "$on_bin")
    off_ms=$(run_ms "$off_bin")
  else
    off_ms=$(run_ms "$off_bin")
    on_ms=$(run_ms "$on_bin")
  fi
  delta=$(awk -v on="$on_ms" -v off="$off_ms" \
      'BEGIN { printf "%.4f", (on - off) / off * 100.0 }')
  echo "pair $((i + 1)): metrics ON ${on_ms} ms, OFF ${off_ms} ms, delta ${delta}%"
  deltas+=("$delta")
done

printf '%s\n' "${deltas[@]}" | sort -g | awk -v tol="$tol" -v f="$filter" '
  { d[NR] = $1 }
  END {
    m = (NR % 2) ? d[(NR + 1) / 2] : (d[NR / 2] + d[NR / 2 + 1]) / 2
    printf "micro_gmdj %s: median paired delta %+.2f%% over %d pairs (tolerance %s%%)\n",
           f, m, NR, tol
    exit (m > tol + 0.0) ? 1 : 0
  }'
