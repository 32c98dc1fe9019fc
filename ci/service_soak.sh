#!/usr/bin/env bash
# Service soak (CI service-soak job; docs/service.md): ~60 s of mixed
# load at 10% hostile traffic against scanc-serve, with one mid-run
# SIGTERM + restart on the same state dir.  The run passes only if
#
#   - both daemon generations exit 0 (clean drain, no crash),
#   - load_gen exits 0 (daemon alive at the end, every accepted job
#     observed in a terminal state — nothing lost across the restart),
#   - the load report passes bench/check_service_baseline.py's
#     invariant gates.
#
# Usage: ci/service_soak.sh [BUILD_DIR] [OUT_DIR]
# Tunables (env): SOAK_JOBS SOAK_CLIENTS SOAK_HOSTILE_PCT
#                 SOAK_RESTART_AFTER_S SOAK_SEED
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-soak-out}"
JOBS="${SOAK_JOBS:-450}"
CLIENTS="${SOAK_CLIENTS:-6}"
HOSTILE_PCT="${SOAK_HOSTILE_PCT:-10}"
RESTART_AFTER_S="${SOAK_RESTART_AFTER_S:-20}"
SEED="${SOAK_SEED:-11}"

SERVE="$BUILD_DIR/src/svc/scanc-serve"
LOAD_GEN="$BUILD_DIR/bench/load_gen"
for bin in "$SERVE" "$LOAD_GEN"; do
  [ -x "$bin" ] || { echo "[soak] missing binary: $bin" >&2; exit 2; }
done

mkdir -p "$OUT_DIR"
STATE_DIR="$OUT_DIR/state"
# AF_UNIX paths are capped around 108 bytes; keep the socket in /tmp
# rather than a possibly deep CI workspace.
SOCK_DIR="$(mktemp -d /tmp/scanc-soak-XXXXXX)"
SOCK="$SOCK_DIR/serve.sock"
SERVE_PID=""
LOAD_PID=""

cleanup() {
  [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2>/dev/null || true
  [ -n "$LOAD_PID" ] && kill -KILL "$LOAD_PID" 2>/dev/null || true
  rm -rf "$SOCK_DIR"
}
trap cleanup EXIT

start_daemon() { # $1 = metrics output path
  "$SERVE" --socket="$SOCK" --state-dir="$STATE_DIR" \
      --executors=4 --max-queue=32 --metrics-out="$1" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
  done
  echo "[soak] daemon failed to come up on $SOCK" >&2
  return 1
}

stop_daemon() { # clean SIGTERM drain; daemon must exit 0
  kill -TERM "$SERVE_PID"
  local rc=0
  wait "$SERVE_PID" || rc=$?
  SERVE_PID=""
  if [ "$rc" -ne 0 ]; then
    echo "[soak] daemon exited $rc on SIGTERM (expected clean drain)" >&2
    exit 1
  fi
}

echo "[soak] generation 1 up; driving $JOBS jobs / $CLIENTS clients" \
     "at ${HOSTILE_PCT}% hostile (seed $SEED)"
start_daemon "$OUT_DIR/serve_metrics_gen1.json"

"$LOAD_GEN" --socket="$SOCK" --jobs="$JOBS" --clients="$CLIENTS" \
    --hostile-pct="$HOSTILE_PCT" --seed="$SEED" \
    --json-out="$OUT_DIR/load.json" &
LOAD_PID=$!

sleep "$RESTART_AFTER_S"
if ! kill -0 "$LOAD_PID" 2>/dev/null; then
  echo "[soak] load_gen finished before the restart point — raise" \
       "SOAK_JOBS so the restart lands mid-run" >&2
  exit 1
fi
echo "[soak] mid-run SIGTERM: draining generation 1"
stop_daemon
echo "[soak] generation 2 up: resuming on the same state dir"
start_daemon "$OUT_DIR/serve_metrics_gen2.json"

load_rc=0
wait "$LOAD_PID" || load_rc=$?
LOAD_PID=""
if [ "$load_rc" -ne 0 ]; then
  echo "[soak] load_gen exited $load_rc (daemon dead or jobs lost)" >&2
  exit 1
fi

echo "[soak] final drain of generation 2"
stop_daemon

python3 bench/check_service_baseline.py "$OUT_DIR/load.json"
echo "[soak] PASS"
