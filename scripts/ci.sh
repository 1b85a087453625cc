#!/usr/bin/env bash
# Local CI gate — identical to .github/workflows/ci.yml.
# Usage: scripts/ci.sh [lone-latency|sim-overhead|lines]
#   no argument   the whole gate
#   lone-latency, sim-overhead, lines
#                 only that stage; the workflow's job of the same name
#                 calls this, so the gate is written down once
set -euo pipefail
cd "$(dirname "$0")/.."

overhead_gate() { # $1 = xbfs-perf workload, $2 = limit on its host_overhead_x
  local LINE X
  LINE=$(cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$1" --seconds 2 --trace 0 | tail -1)
  echo "    $LINE"
  grep -q '"correct":true' <<<"$LINE" || { echo "$1 is not correct" >&2; exit 1; }
  X=$(grep -o '"host_overhead_x":{"value":[0-9.]*' <<<"$LINE" | grep -o '[0-9.]*$')
  awk -v x="$X" -v l="$2" 'BEGIN { exit !(x < l) }' \
    || { echo "$1 host_overhead_x = $X, want < $2" >&2; exit 1; }
}
lone_latency() {
  echo "==> lone-latency (a lone client of the default serve arm waits for the engine, not a timer)"
  # ~8 with completion-driven replies, ~50 with a Nagle stall, ~100 with a
  # 50 ms flush poll on top: above 25, replies are waiting on something
  overhead_gate serve-lone-s14 25
}
sim_overhead() {
  echo "==> sim-overhead (a modeled edge stays cheap on the host, in both exec modes)"
  # Medians before -> after the traced lane access lost its branch and its
  # index vectors (results/BENCH_pr16.json): 5.55 -> 4.30 and 3.02 -> 2.03.
  # The solo limit sits about midway between its medians, above the slowest
  # run after (2.16) and below the fastest before (2.80); the timing limit
  # sits between the old limit (10) and the slowest run after (4.45).
  overhead_gate direct-timing-s14 7
  overhead_gate direct-solo-s16 2.6
}
# Source lines under crates/*/src may not grow unnoticed: a change that
# must grow the tree raises this number in its own diff, where review
# sees it; a change that shrinks it lowers the number to the new count.
LINES_CEILING=29768
lines() {
  echo "==> lines (crates/*/src stays at or under $LINES_CEILING lines)"
  local N
  N=$(find crates -path '*/src/*' -name '*.rs' | xargs cat | wc -l)
  echo "    $N"
  test "$N" -le "$LINES_CEILING" \
    || { echo "crates/*/src has $N lines, ceiling is $LINES_CEILING" >&2; exit 1; }
}
case "${1:-}" in
  lone-latency) lone_latency; exit 0 ;;
  sim-overhead) sim_overhead; exit 0 ;;
  lines) lines; exit 0 ;;
esac

echo "==> cargo build --release --workspace"
cargo build --release --workspace --benches --examples

echo "==> cargo test --workspace"
cargo test -q --workspace --no-fail-fast

echo "==> cargo clippy -D warnings -W clippy::perf"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::perf

echo "==> cargo fmt --check"
cargo fmt --all --check || echo "(fmt differences are advisory, not a gate)"

echo "==> telemetry smoke (trace export + summarize round-trip)"
XBFS=target/release/xbfs
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$XBFS" generate --out "$SMOKE/g.bin" --scale 12 --seed 7
"$XBFS" run "$SMOKE/g.bin" --trace json:- > "$SMOKE/BENCH_pr2.json"
"$XBFS" trace summarize "$SMOKE/BENCH_pr2.json" > /dev/null
grep -q '"schema":"xbfs-trace-v1"' "$SMOKE/BENCH_pr2.json"
grep -q '"gteps"' "$SMOKE/BENCH_pr2.json"
"$XBFS" run "$SMOKE/g.bin" --trace "chrome:$SMOKE/trace.json" > /dev/null
"$XBFS" trace summarize "$SMOKE/trace.json" > /dev/null
"$XBFS" cluster "$SMOKE/g.bin" --gcds 4 --inject-faults crash@1:rank1 \
  --checkpoint-every 1 --trace json:- > "$SMOKE/cluster_trace.json"
"$XBFS" trace summarize "$SMOKE/cluster_trace.json" | grep -q '1 recoveries'
mkdir -p results
cp "$SMOKE/BENCH_pr2.json" results/BENCH_pr2.json
echo "    wrote results/BENCH_pr2.json"

echo "==> sweep smoke (pooled multi-source throughput)"
"$XBFS" generate --out "$SMOKE/sweep.bin" --scale 11 --seed 11
mkdir -p results
# default --threads = available cores (a forced count oversubscribes 1-core boxes)
"$XBFS" sweep "$SMOKE/sweep.bin" --sources 64 \
  --json results/BENCH_pr3.json | tee "$SMOKE/sweep.out"
grep -q "runs/sec" "$SMOKE/sweep.out"
grep -q "bit-identical" "$SMOKE/sweep.out"
grep -q '"schema": "xbfs-sweep-v1"' results/BENCH_pr3.json
# acceptance gate: >= 3x the runs/sec of a shell loop over `xbfs bfs`,
# which pays process spawn + graph load + upload + alloc on every run
"$XBFS" bfs "$SMOKE/sweep.bin" --source 1 > /dev/null # warm the file cache
T0=$(date +%s%N)
for i in $(seq 1 16); do
  "$XBFS" bfs "$SMOKE/sweep.bin" --source $((i * 50)) > /dev/null
done
T1=$(date +%s%N)
LOOPED_RPS=$(awk -v ns="$((T1 - T0))" 'BEGIN { printf "%.1f", 16 / (ns / 1e9) }')
POOLED_RPS=$(grep -o '"runs_per_sec": [0-9.]*' results/BENCH_pr3.json \
  | head -1 | grep -o '[0-9.]*$')
echo "    pooled sweep ${POOLED_RPS} runs/sec vs looped xbfs bfs ${LOOPED_RPS} runs/sec"
awk -v p="$POOLED_RPS" -v l="$LOOPED_RPS" 'BEGIN { exit !(p >= 3.0 * l) }' \
  || { echo "pooled sweep < 3x looped xbfs bfs" >&2; exit 1; }
echo "    wrote results/BENCH_pr3.json"

echo "==> corruption smoke (SDC detection + self-healing supervisor)"
"$XBFS" generate --out "$SMOKE/corrupt.bin" --scale 11 --seed 4
# every injection target must be detected: exit 7 + IntegrityError on stderr.
# (pool flips need a parked victim buffer, which a fresh `bfs` process
# doesn't have — tests/integrity.rs covers that target.)
for SPEC in "status,seed=7" "parents,seed=13" "csr,seed=29"; do
  if "$XBFS" bfs "$SMOKE/corrupt.bin" --source 5 --verify \
      --inject-bitflips "$SPEC" 2> "$SMOKE/verify.err"; then
    echo "injection $SPEC escaped detection" >&2
    exit 1
  else
    test $? -eq 7
  fi
  grep -q "IntegrityError" "$SMOKE/verify.err"
done
# clean certified runs succeed and print the certificate
"$XBFS" bfs "$SMOKE/corrupt.bin" --source 5 --verify | grep -q "certified:"
# a clean verified sweep certifies every run and reports health
"$XBFS" sweep "$SMOKE/corrupt.bin" --sources 32 --verify \
  --json results/BENCH_pr4.json | tee "$SMOKE/sweep_clean.out"
grep -q "certified" "$SMOKE/sweep_clean.out"
grep -q '"schema": "xbfs-sweep-v1"' results/BENCH_pr4.json
grep -q '"verified": true' results/BENCH_pr4.json
CLEAN_SUM=$(grep -o '"checksum": "[^"]*"' results/BENCH_pr4.json)
# under injection the supervisor quarantines, re-executes, and the healed
# sweep is bit-identical to the clean one
"$XBFS" sweep "$SMOKE/corrupt.bin" --sources 32 --inject-bitflips status,seed=7 \
  --json "$SMOKE/BENCH_pr4_healed.json" | tee "$SMOKE/sweep_healed.out"
grep -q "32/32 certified" "$SMOKE/sweep_healed.out"
HEALED_SUM=$(grep -o '"checksum": "[^"]*"' "$SMOKE/BENCH_pr4_healed.json")
test "$CLEAN_SUM" = "$HEALED_SUM"
# exhausted retries must abort with the integrity exit code, not 0
if "$XBFS" sweep "$SMOKE/corrupt.bin" --sources 8 \
    --inject-bitflips csr,seed=11 --retries 0 2> "$SMOKE/exhausted.err"; then
  echo "expected exit 7 for exhausted retries" >&2
  exit 1
else
  test $? -eq 7
fi
grep -q "IntegrityError" "$SMOKE/exhausted.err"
# a pool byte cap degrades gracefully: pressure counted, results unchanged
"$XBFS" sweep "$SMOKE/corrupt.bin" --sources 32 --verify --max-pool-bytes 4096 \
  --json "$SMOKE/BENCH_pr4_capped.json" | tee "$SMOKE/sweep_capped.out"
grep -q "pool pressure" "$SMOKE/sweep_capped.out"
CAPPED_SUM=$(grep -o '"checksum": "[^"]*"' "$SMOKE/BENCH_pr4_capped.json")
test "$CLEAN_SUM" = "$CAPPED_SUM"
echo "    wrote results/BENCH_pr4.json"

echo "==> serve smoke (load shedding past capacity, zero drops, clean drain)"
"$XBFS" generate --out "$SMOKE/serve.bin" --scale 13 --seed 5
PORT=$((20000 + RANDOM % 20000))
# a deliberately tiny server: 1 worker, 2-deep queue — overload must shed
"$XBFS" serve "$SMOKE/serve.bin" --addr "127.0.0.1:$PORT" --workers 1 \
  --queue-cap 2 --json "$SMOKE/serve_report.json" > "$SMOKE/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
  sleep 0.1
done
# offer far more than it can take; --shutdown drains the daemon afterwards
"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 400 --rps 4000 \
  --connections 8 --sources 16 --max-shed-pct 98 \
  --json results/BENCH_pr5.json --shutdown | tee "$SMOKE/loadgen.out"
wait "$SERVE_PID" # clean drain is exit 0; lost work would make this nonzero
grep -q '"format":"xbfs-loadgen-v1"' results/BENCH_pr5.json
grep -q '"lost":0,' results/BENCH_pr5.json
grep -q '"digests_consistent":true' results/BENCH_pr5.json
SHED=$(grep -o '"shed":[0-9]*' results/BENCH_pr5.json | grep -o '[0-9]*$')
test "$SHED" -gt 0 || { echo "expected nonzero shed past capacity" >&2; exit 1; }
grep -q '"dropped_connections":0' "$SMOKE/serve_report.json"
grep -q '"drain_clean":true' "$SMOKE/serve_report.json"
echo "    wrote results/BENCH_pr5.json (shed=$SHED)"

echo "==> certified sweep perf gate (pooled >= unpooled, both certified)"
# Both passes of a --verify sweep now certify every run, so the speedup is
# an apples-to-apples pooled-vs-unpooled ratio on the certified path.
CERT_SPEEDUP=$(grep -o '"speedup": [0-9.]*' results/BENCH_pr4.json | grep -o '[0-9.]*$')
echo "    certified pooled-vs-unpooled speedup: ${CERT_SPEEDUP}x"
awk -v s="$CERT_SPEEDUP" 'BEGIN { exit !(s >= 1.0) }' \
  || { echo "certified pooled sweep slower than unpooled rebuild" >&2; exit 1; }

echo "==> cluster serve smoke (rank crashes under live load: shed, heal, drain)"
"$XBFS" generate --out "$SMOKE/clsrv.bin" --scale 12 --seed 6
PORT=$((20000 + RANDOM % 20000))
# 2 workers, each a 4-GCD partitioned cluster engine; chaos honored
"$XBFS" serve "$SMOKE/clsrv.bin" --addr "127.0.0.1:$PORT" --workers 2 \
  --cluster 4 --allow-chaos \
  --json "$SMOKE/cluster_serve_report.json" > "$SMOKE/cluster_serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
  sleep 0.1
done
# every 3rd request injects a rank-1 crash at level 1 (recovered in-request
# by checkpoint/restart); shed requests are retried until they land
"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 48 --rps 400 \
  --connections 4 --sources 1 --chaos "crash@1:3,rank=1" --retries 10 \
  --max-shed-pct 90 --json "$SMOKE/cluster_loadgen.json" --shutdown \
  | tee "$SMOKE/cluster_loadgen.out"
wait "$SERVE_PID" # clean drain is exit 0; lost work would make this nonzero
grep -q '"lost":0,' "$SMOKE/cluster_loadgen.json"
grep -q '"digests_consistent":true' "$SMOKE/cluster_loadgen.json"
grep -q '"retried_ok":' "$SMOKE/cluster_loadgen.json"
grep -q '"drain_clean":true' "$SMOKE/cluster_serve_report.json"
grep -q '"cluster":4' "$SMOKE/cluster_serve_report.json"
RESTORES=$(grep -o '"checkpoints_restored":[0-9]*' "$SMOKE/cluster_serve_report.json" \
  | awk -F: '{ s += $2 } END { print s + 0 }')
test "$RESTORES" -ge 1 || { echo "expected >= 1 checkpoint restore" >&2; exit 1; }
printf '{"schema":"xbfs-bench-pr6-v1","certified_sweep_speedup":%s,"loadgen":%s,"serve":%s}\n' \
  "$CERT_SPEEDUP" "$(cat "$SMOKE/cluster_loadgen.json")" \
  "$(cat "$SMOKE/cluster_serve_report.json")" > results/BENCH_pr6.json
echo "    wrote results/BENCH_pr6.json (restores=$RESTORES)"

echo "==> metrics smoke (mid-load scrape, flight recorder, scrape-overhead + perf gates)"
"$XBFS" generate --out "$SMOKE/metrics.bin" --scale 12 --seed 8
PORT=$((20000 + RANDOM % 20000))
MPORT=$((40000 + RANDOM % 20000))
"$XBFS" serve "$SMOKE/metrics.bin" --addr "127.0.0.1:$PORT" --workers 2 \
  --allow-chaos --metrics-addr "127.0.0.1:$MPORT" --flight-dir "$SMOKE/flight" \
  --json "$SMOKE/metrics_serve_report.json" > "$SMOKE/metrics_serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$MPORT") 2>/dev/null; then break; fi
  sleep 0.1
done
scrape() { # GET $1 from the metrics listener; response (headers+body) on stdout
  exec 3<>"/dev/tcp/127.0.0.1/$MPORT"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&-
}
series_sum() { # sum every sample of series $1 in scrape file $2
  awk -v s="$1" 'index($1, s) == 1 { t += $2 } END { print t + 0 }' "$2"
}
# Load in the background — every 9th request panics its worker (contained,
# replayed, and flight-dumped) — and scrape twice while it runs.
"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 240 --rps 300 \
  --connections 4 --sources 8 --retries 8 --chaos "panic:9" \
  --progress-every-ms 200 --json "$SMOKE/metrics_loadgen.json" \
  > "$SMOKE/metrics_loadgen.out" &
LOAD_PID=$!
sleep 0.4
scrape /metrics > "$SMOKE/scrape1.txt"
sleep 0.4
scrape /metrics > "$SMOKE/scrape2.txt"
grep -q '# TYPE xbfs_serve_requests_total counter' "$SMOKE/scrape2.txt"
grep -q '^xbfs_serve_shed_total' "$SMOKE/scrape2.txt"
grep -q '^xbfs_serve_queue_depth' "$SMOKE/scrape2.txt"
grep -q '^xbfs_serve_request_latency_ms_bucket' "$SMOKE/scrape2.txt"
scrape /metrics.json | grep -q '"format":"xbfs-metrics-v1"'
# key counters are monotone across scrapes taken under live load
for SERIES in xbfs_serve_requests_total xbfs_serve_admitted_total; do
  A=$(series_sum "$SERIES" "$SMOKE/scrape1.txt")
  B=$(series_sum "$SERIES" "$SMOKE/scrape2.txt")
  awk -v a="$A" -v b="$B" 'BEGIN { exit !(b >= a) }' \
    || { echo "$SERIES went backwards across scrapes ($A -> $B)" >&2; exit 1; }
done
wait "$LOAD_PID"
# scrape cost, measured against the live (now idle) server
T0=$(date +%s%N)
for _ in $(seq 1 20); do scrape /metrics.json > /dev/null; done
T1=$(date +%s%N)
SCRAPE_MS=$(awk -v ns="$((T1 - T0))" 'BEGIN { printf "%.3f", ns / 20 / 1e6 }')
"$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 4 --rps 100 \
  --shutdown > /dev/null 2>&1
wait "$SERVE_PID"
grep -q '"lost":0,' "$SMOKE/metrics_loadgen.json"
grep -q '"drain_clean":true' "$SMOKE/metrics_serve_report.json"
# the forced panics left flight-recorder dumps, referenced by the report
grep -q '"flight_dumps":\["' "$SMOKE/metrics_serve_report.json"
DUMP=$(ls "$SMOKE"/flight/xbfs-flight-*.log | head -1)
grep -q 'reason: worker-panic' "$DUMP"
grep -q 'request.start' "$DUMP"
echo "    flight dumps: $(ls "$SMOKE"/flight | wc -l), scrape overhead ${SCRAPE_MS} ms"

echo "==> metrics overhead gate (always-on registry, unscraped: certified sweep >= 98% of PR 6)"
CERT6=$(grep -o '"certified_sweep_speedup":[0-9.]*' results/BENCH_pr6.json | grep -o '[0-9.]*$')
"$XBFS" sweep "$SMOKE/corrupt.bin" --sources 32 --verify --json "$SMOKE/cert7.json" > /dev/null
CERT7=$(grep -o '"speedup": [0-9.]*' "$SMOKE/cert7.json" | grep -o '[0-9.]*$')
echo "    certified sweep speedup with live metrics plane: ${CERT7}x (PR 6 baseline ${CERT6}x)"
awk -v a="$CERT7" -v b="$CERT6" 'BEGIN { exit !(a >= 0.98 * b) }' \
  || { echo "metrics plane regressed certified sweep by > 2%" >&2; exit 1; }
printf '{"schema":"xbfs-bench-pr7-v1","certified_sweep_speedup":%s,"baseline_pr6_speedup":%s,"scrape_overhead_ms":%s,"loadgen":%s,"serve":%s}\n' \
  "$CERT7" "$CERT6" "$SCRAPE_MS" "$(cat "$SMOKE/metrics_loadgen.json")" \
  "$(cat "$SMOKE/metrics_serve_report.json")" > results/BENCH_pr7.json
echo "    wrote results/BENCH_pr7.json"

echo "==> batch smoke (64-wide waves: >= 2x solo served qps, zero lost, clean drains)"
# scale 14 so a solo run costs real host time (the thing batching amortizes)
"$XBFS" generate --out "$SMOKE/batch.bin" --scale 14 --seed 9
batch_profile() { # $1 = --batch-width; writes loadgen json to $2, serve json to $3
  local PORT=$((20000 + RANDOM % 20000))
  "$XBFS" serve "$SMOKE/batch.bin" --addr "127.0.0.1:$PORT" --workers 1 \
    --batch-width "$1" --batch-window-ms 5 --queue-cap 1024 \
    --json "$3" > /dev/null &
  local SRV=$!
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
    sleep 0.1
  done
  # Same offered load both times: far past solo capacity, a hot-key source
  # mix (16 distinct sources) the batcher can dedup and share, and a queue
  # deep enough to hold the burst, so ok-counts match and served qps is
  # the honest throughput difference.
  "$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 600 --rps 4000 \
    --connections 8 --sources 16 --retries 12 --max-shed-pct 99 \
    --json "$2" --shutdown > /dev/null
  wait "$SRV" # clean drain is exit 0; lost work would make this nonzero
}
batch_profile 1 "$SMOKE/loadgen_solo.json" "$SMOKE/serve_solo.json"
batch_profile 64 "$SMOKE/loadgen_batched.json" "$SMOKE/serve_batched.json"
for F in "$SMOKE/loadgen_solo.json" "$SMOKE/loadgen_batched.json"; do
  grep -q '"lost":0,' "$F"
  grep -q '"digests_consistent":true' "$F"
done
for F in "$SMOKE/serve_solo.json" "$SMOKE/serve_batched.json"; do
  grep -q '"drain_clean":true' "$F"
done
# the batched server actually coalesced: waves launched, at least one wide
BATCHES=$(grep -o '"batches":[0-9]*' "$SMOKE/serve_batched.json" | grep -o '[0-9]*$')
MAXB=$(grep -o '"max_batch_size":[0-9]*' "$SMOKE/serve_batched.json" | grep -o '[0-9]*$')
test "$BATCHES" -ge 1 || { echo "batched server never launched a batch" >&2; exit 1; }
test "$MAXB" -ge 2 || { echo "no batch ever coalesced > 1 request" >&2; exit 1; }
SOLO_QPS=$(grep -o '"served_qps":[0-9.]*' "$SMOKE/loadgen_solo.json" | grep -o '[0-9.]*$')
BATCH_QPS=$(grep -o '"served_qps":[0-9.]*' "$SMOKE/loadgen_batched.json" | grep -o '[0-9.]*$')
echo "    served qps: batch-width 64 = ${BATCH_QPS}, batch-width 1 = ${SOLO_QPS}"
awk -v b="$BATCH_QPS" -v s="$SOLO_QPS" 'BEGIN { exit !(b >= 2.0 * s) }' \
  || { echo "batched serving < 2x solo served qps" >&2; exit 1; }
# the offline twin: a multi-source sweep pass, bit-identical to the rebuild
"$XBFS" sweep "$SMOKE/batch.bin" --sources 96 --multi-source \
  --json "$SMOKE/sweep_ms.json" | tee "$SMOKE/sweep_ms.out"
grep -q "multi-source:" "$SMOKE/sweep_ms.out"
grep -q "slot levels bit-identical" "$SMOKE/sweep_ms.out"
grep -q '"multi_source":' "$SMOKE/sweep_ms.json"
printf '{"schema":"xbfs-bench-pr8-v1","batched_served_qps":%s,"solo_served_qps":%s,"batches":%s,"max_batch_size":%s,"loadgen_batched":%s,"loadgen_solo":%s,"serve_batched":%s,"sweep_multi_source":%s}\n' \
  "$BATCH_QPS" "$SOLO_QPS" "$BATCHES" "$MAXB" \
  "$(cat "$SMOKE/loadgen_batched.json")" "$(cat "$SMOKE/loadgen_solo.json")" \
  "$(cat "$SMOKE/serve_batched.json")" "$(cat "$SMOKE/sweep_ms.json")" \
  > results/BENCH_pr8.json
echo "    wrote results/BENCH_pr8.json"

echo "==> durability smoke (journal overhead gate, then SIGKILL-under-load replay)"
"$XBFS" generate --out "$SMOKE/dur.bin" --scale 12 --seed 10
dur_profile() { # $1 = journal flags (or ""), $2 = loadgen json, $3 = serve json
  local PORT=$((20000 + RANDOM % 20000))
  # shellcheck disable=SC2086 — $1 is deliberately word-split serve flags
  "$XBFS" serve "$SMOKE/dur.bin" --addr "127.0.0.1:$PORT" --workers 1 \
    --queue-cap 1024 $1 --json "$3" > /dev/null &
  local SRV=$!
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
    sleep 0.1
  done
  "$XBFS" loadgen --addr "127.0.0.1:$PORT" --requests 400 --rps 4000 \
    --connections 8 --sources 16 --retries 12 --max-shed-pct 99 \
    --json "$2" --shutdown > /dev/null
  wait "$SRV" # clean drain is exit 0; lost work would make this nonzero
}
# Same offered load with and without the journal: the WAL must cost < 10%
# of served throughput under the default batch fsync policy.
dur_profile "" "$SMOKE/loadgen_nojournal.json" "$SMOKE/serve_nojournal.json"
dur_profile "--journal $SMOKE/ci.wal --journal-fsync batch=8" \
  "$SMOKE/loadgen_journal.json" "$SMOKE/serve_journal.json"
for F in "$SMOKE/loadgen_nojournal.json" "$SMOKE/loadgen_journal.json"; do
  grep -q '"lost":0,' "$F"
  grep -q '"digests_consistent":true' "$F"
done
JAPPENDS=$(grep -o '"journal_appends":[0-9]*' "$SMOKE/serve_journal.json" | grep -o '[0-9]*$')
test "$JAPPENDS" -ge 1 || { echo "journaled server appended nothing" >&2; exit 1; }
NOJ_QPS=$(grep -o '"served_qps":[0-9.]*' "$SMOKE/loadgen_nojournal.json" | grep -o '[0-9.]*$')
J_QPS=$(grep -o '"served_qps":[0-9.]*' "$SMOKE/loadgen_journal.json" | grep -o '[0-9.]*$')
echo "    served qps: journal(batch=8) = ${J_QPS}, no journal = ${NOJ_QPS}"
awk -v j="$J_QPS" -v s="$NOJ_QPS" 'BEGIN { exit !(j >= 0.9 * s) }' \
  || { echo "journaling cost > 10% of served qps" >&2; exit 1; }
# The crash harness: SIGKILL the journaling server mid-load, restart it on
# the same journal, and require lost=0, >= 1 replayed admit, consistent
# digests across the crash boundary, and a clean final drain.
KILLER_OUT="$SMOKE/killer.json" scripts/killer.sh "$SMOKE/dur.bin"
grep -q '"lost":0,' "$SMOKE/killer.json"
grep -q '"digests_consistent":true' "$SMOKE/killer.json"
REPLAYED=$(grep -o '"replayed_requests":[0-9]*' "$SMOKE/killer.json" | head -1 | grep -o '[0-9]*$')
RECOVERY_MS=$(grep -o '"recovery_ms":[0-9.]*' "$SMOKE/killer.json" | head -1 | grep -o '[0-9.]*$')
JOVERHEAD=$(awk -v j="$J_QPS" -v s="$NOJ_QPS" 'BEGIN { printf "%.1f", (1 - j / s) * 100 }')
printf '{"schema":"xbfs-bench-pr9-v1","journal_served_qps":%s,"nojournal_served_qps":%s,"journal_overhead_pct":%s,"recovery_ms":%s,"replayed_requests":%s,"killer":%s,"loadgen_journal":%s,"serve_journal":%s}\n' \
  "$J_QPS" "$NOJ_QPS" "$JOVERHEAD" "${RECOVERY_MS:-0}" "${REPLAYED:-0}" \
  "$(cat "$SMOKE/killer.json")" "$(cat "$SMOKE/loadgen_journal.json")" \
  "$(cat "$SMOKE/serve_journal.json")" > results/BENCH_pr9.json
echo "    wrote results/BENCH_pr9.json (overhead=${JOVERHEAD}%, replayed=$REPLAYED, recovery=${RECOVERY_MS}ms)"

lone_latency
sim_overhead
lines

echo "CI gate passed."
