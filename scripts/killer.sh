#!/usr/bin/env bash
# Kill-under-load chaos harness: SIGKILL a journaling `xbfs serve` while a
# load generator is mid-stream, restart it on the same journal, and assert
# nothing was lost — the loadgen reconnects and resends outstanding ids,
# the restarted server replays incomplete admits from the journal, and
# every digest stays consistent across the crash boundary.
#
# Usage: scripts/killer.sh [GRAPH.bin]
#   REQUESTS=3600 RPS=4000 KILL_AFTER=0.6 KILLS=1 scripts/killer.sh
#
# Exits nonzero if any request is lost, any digest diverges, the restarted
# server replays nothing, or the final drain is not clean.
set -euo pipefail
cd "$(dirname "$0")/.."

XBFS=${XBFS:-target/release/xbfs}
# Offered load deliberately exceeds two workers' capacity so the queue is
# backed up when the SIGKILL lands — that backlog is what replay recovers.
# The send alone outlasts KILL_AFTER (3600 / 4000 = 0.9 s), so however
# fast the engine gets, the kill lands under live load.
REQUESTS=${REQUESTS:-3600}
RPS=${RPS:-4000}
KILL_AFTER=${KILL_AFTER:-0.6}   # seconds of live load before each SIGKILL
KILLS=${KILLS:-1}               # crash/restart cycles within one load run
FSYNC=${FSYNC:-batch=8}

WORK=$(mktemp -d)
SERVE_PID=""
LOAD_PID=""
cleanup() {
  [ -n "$LOAD_PID" ] && kill "$LOAD_PID" 2>/dev/null || true
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

GRAPH=${1:-}
if [ -z "$GRAPH" ]; then
  GRAPH="$WORK/g.bin"
  "$XBFS" generate --out "$GRAPH" --scale 12 --seed 7 > /dev/null
fi

PORT=$((20000 + RANDOM % 20000))
JOURNAL="$WORK/journal.wal"

start_server() { # $1 = serve report json path, $2 = incarnation tag
  "$XBFS" serve "$GRAPH" --addr "127.0.0.1:$PORT" --workers 2 \
    --queue-cap 256 --journal "$JOURNAL" --journal-fsync "$FSYNC" \
    --json "$1" > "$WORK/serve.$2.out" 2> "$WORK/serve.$2.err" &
  SERVE_PID=$!
}

wait_port() { # wait until the serve port accepts, or the process died
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then return 0; fi
    kill -0 "$SERVE_PID" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

# Restarting on the same port can race lingering sockets from the killed
# incarnation (EADDRINUSE); retry the whole start until the bind lands.
restart_server() { # $1 = serve report json path, $2 = incarnation tag
  for _ in $(seq 1 50); do
    start_server "$1" "$2"
    if wait_port; then return 0; fi
    wait "$SERVE_PID" 2>/dev/null || true
    sleep 0.2
  done
  echo "killer: could not rebind 127.0.0.1:$PORT after SIGKILL" >&2
  return 1
}

echo "killer: serving $GRAPH on 127.0.0.1:$PORT, journal $JOURNAL (fsync $FSYNC)"
start_server "$WORK/serve_report.0.json" 0
wait_port || { echo "killer: server never came up" >&2; exit 1; }

"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests "$REQUESTS" \
  --rps "$RPS" --connections 4 --sources 8 --retries 8 \
  --json "$WORK/loadgen.json" > "$WORK/loadgen.out" 2>&1 &
LOAD_PID=$!

for K in $(seq 1 "$KILLS"); do
  sleep "$KILL_AFTER"
  kill -0 "$LOAD_PID" 2>/dev/null \
    || { echo "killer: load finished before kill $K — raise REQUESTS or lower KILL_AFTER" >&2; exit 1; }
  echo "killer: SIGKILL incarnation $((K - 1)) (pid $SERVE_PID) under live load"
  kill -9 "$SERVE_PID"
  wait "$SERVE_PID" 2>/dev/null || true
  restart_server "$WORK/serve_report.$K.json" "$K"
  echo "killer: incarnation $K is up on the same journal"
done

wait "$LOAD_PID" \
  || { echo "killer: loadgen failed (lost work or diverged digests)"; cat "$WORK/loadgen.out" >&2; exit 1; }
LOAD_PID=""

# Drain the surviving incarnation so its report is flushed.
"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 1 --rps 50 \
  --shutdown > /dev/null 2>&1
wait "$SERVE_PID" || { echo "killer: final drain was not clean" >&2; exit 1; }
SERVE_PID=""

FINAL="$WORK/serve_report.$KILLS.json"
grep -q '"lost":0,' "$WORK/loadgen.json" \
  || { echo "killer: requests lost across the crash" >&2; exit 1; }
grep -q '"digests_consistent":true' "$WORK/loadgen.json" \
  || { echo "killer: digests diverged across the crash" >&2; exit 1; }
RECONNECTS=$(grep -o '"reconnects":[0-9]*' "$WORK/loadgen.json" | grep -o '[0-9]*$')
test "${RECONNECTS:-0}" -ge 1 \
  || { echo "killer: loadgen never reconnected — did the kill land?" >&2; exit 1; }
REPLAYED=$(grep -o '"replayed_requests":[0-9]*' "$FINAL" | grep -o '[0-9]*$')
test "${REPLAYED:-0}" -ge 1 \
  || { echo "killer: restarted server replayed nothing from the journal" >&2; exit 1; }
grep -q '"drain_clean":true' "$FINAL" \
  || { echo "killer: restarted server drain was not clean" >&2; exit 1; }
RECOVERY_MS=$(grep -o '"recovery_ms":[0-9.]*' "$FINAL" | grep -o '[0-9.]*$')

echo "killer: PASS — lost=0, reconnects=$RECONNECTS, replayed=$REPLAYED," \
  "recovery=${RECOVERY_MS}ms, drain clean after $KILLS SIGKILL(s)"
# Leave the composed evidence where a caller (CI) can pick it up.
if [ -n "${KILLER_OUT:-}" ]; then
  printf '{"schema":"xbfs-killer-v1","kills":%s,"reconnects":%s,"replayed_requests":%s,"recovery_ms":%s,"loadgen":%s,"serve_final":%s}\n' \
    "$KILLS" "$RECONNECTS" "$REPLAYED" "${RECOVERY_MS:-0}" \
    "$(cat "$WORK/loadgen.json")" "$(cat "$FINAL")" > "$KILLER_OUT"
  echo "killer: wrote $KILLER_OUT"
fi
