#!/usr/bin/env bash
# End-to-end server smoke: check that gmdj_serve refuses a batching
# window, boot it, run the closed-loop load driver against it (16
# clients, row-equality checked against a local engine over the same
# deterministic warehouse), verify /health, then exercise graceful
# shutdown and insist the server exits 0.
#
#   serve_smoke.sh <gmdj_serve> <serve_load> [port]
#
# The driver exits nonzero on any wrong answer, error, or zero-QPS run,
# so this script is the CI gate for "the server answers correctly under
# concurrent load and drains cleanly".
set -euo pipefail

serve_bin=$1
load_bin=$2
port=${3:-18123}

log=$(mktemp)
trap 'rm -f "$log"' EXIT

# Server batching was removed: a nonzero window is refused at flag
# parsing (exit 2, before the warehouse loads or a port is bound).
rc=0
timeout 30 "$serve_bin" --port="$port" --batch-window-us=200 >"$log" 2>&1 || rc=$?
if [ "$rc" -ne 2 ] || grep -q "listening on" "$log" ||
   ! grep -q "server batching was removed" "$log"; then
  echo "error: --batch-window-us=200 should exit 2 unbound (rc=$rc)" >&2
  cat "$log" >&2
  exit 1
fi

# Spill directory in a mktemp -d, trap-cleaned so failed runs leave no
# litter; the tiny cap exercises the spill byte-budget path too. The
# batching flags are the benchmark's launch line, accepted as no-ops.
spill_dir=$(mktemp -d)
"$serve_bin" --port="$port" --warehouse-scale=0.25 \
  --batch-window-us=0 --max-batch=1 \
  --spill-dir="$spill_dir" --spill-max-bytes=256mb >"$log" 2>&1 &
server_pid=$!
trap 'kill -9 $server_pid 2>/dev/null || true; rm -f "$log"; rm -rf "$spill_dir"' EXIT

# Wait for the listen line (the binary prints it once bound).
for _ in $(seq 1 100); do
  grep -q "listening on" "$log" && break
  if ! kill -0 $server_pid 2>/dev/null; then
    echo "error: server died during startup" >&2
    cat "$log" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q "listening on" "$log" || { echo "error: server never bound" >&2; exit 1; }

# Closed-loop run with row-equality checking + governance isolation probe.
# The server has a spill dir, so the probe expects graceful degradation:
# tight budgets answer correctly via spill, sub-row budgets still 429.
"$load_bin" --port="$port" --warehouse-scale=0.25 --smoke --expect-spill

# /health must answer ok while idle.
health=$(curl -sf "http://127.0.0.1:$port/health")
echo "health: $health"
case "$health" in
  *'"status": "ok"'*) ;;
  *) echo "error: unexpected /health body" >&2; exit 1 ;;
esac

# Graceful shutdown: SIGTERM drains and the process exits 0.
kill -TERM $server_pid
server_rc=0
wait $server_pid || server_rc=$?
if [ "$server_rc" -ne 0 ]; then
  echo "error: server exited $server_rc on SIGTERM" >&2
  cat "$log" >&2
  exit 1
fi
trap 'rm -f "$log"; rm -rf "$spill_dir"' EXIT
echo "serve smoke OK (graceful shutdown exit 0)"
