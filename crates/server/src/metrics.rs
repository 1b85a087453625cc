//! The server's live metrics plane: every stage of the serving path
//! reports into one always-on [`MetricsRegistry`], and a fixed-memory
//! [`FlightRecorder`] remembers what each worker was doing so failures
//! can be dumped post-mortem.
//!
//! All handles are pre-registered at server start, so the hot path
//! never touches the registry lock — an update is the one relaxed
//! atomic the telemetry crate promises.
//!
//! The registry is the server's only ledger. Every event has one owner:
//! either the handle here *is* the count (the site calls `add` and
//! nothing else), or a component that needs its total for its own
//! reasons keeps it — the journal on its append path, the breaker and
//! the queue under their locks — and `Shared::metrics_snapshot` samples
//! it into its series with `raise_to`. Never both. The serve report, the
//! wire `stats` line and `xbfs top` are three views of one
//! `MetricsSnapshot`, so they cannot disagree with a scrape.
//!
//! Per-rank cluster series and the flight-dump ledger are the two
//! exceptions to "pre-registered": ranks appear when the first cluster
//! run's health is merged (registration is get-or-create, off the
//! request path), and dumps are rare by definition.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gcd_sim::PoolGauges;
use xbfs_multi_gcd::RankHealth;
use xbfs_telemetry::{
    names::live, Counter, FlightRecorder, Gauge, LogHistogram, MetricUnit, MetricsRegistry,
};

use crate::worker::Completion;

/// Worker state gauge codes.
pub(crate) const WORKER_IDLE: f64 = 0.0;
/// Worker is executing a request.
pub(crate) const WORKER_RUNNING: f64 = 1.0;
/// Worker just quarantined its engine and is rebuilding.
pub(crate) const WORKER_QUARANTINED: f64 = 2.0;

/// Most flight dumps kept on disk per server life; beyond this, dump
/// requests stop writing files (a crash loop must not fill the disk).
const MAX_FLIGHT_DUMPS: usize = 32;

/// Events each flight-recorder lane remembers.
const FLIGHT_RING: usize = 64;

/// Request statuses, in the order the per-status handle arrays use.
const STATUSES: [&str; 3] = ["ok", "timeout", "error"];

/// Index into the per-status handle arrays.
pub(crate) fn status_idx(status: &str) -> usize {
    STATUSES.iter().position(|&s| s == status).unwrap_or(2)
}

/// Handles for one worker's series.
pub(crate) struct WorkerMetrics {
    pub(crate) state: Arc<Gauge>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) rebuilds: Arc<Counter>,
    pub(crate) panics: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    pool_bytes: Arc<Gauge>,
    pool_pressure: Arc<Counter>,
    /// Last pool sample, for delta accounting (counters stay monotone).
    last_pool: Mutex<PoolGauges>,
}

/// Handles for one cluster rank's series (registered on first sight).
struct RankMetrics {
    crashes: Arc<Counter>,
    restores: Arc<Counter>,
    retransmitted: Arc<Counter>,
}

/// Everything the serving path records into, plus the flight recorder
/// and its dump ledger.
pub struct ServerMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
    flight_dir: PathBuf,
    dumps: Mutex<Vec<String>>,

    // Admission / connection stage.
    pub(crate) requests: [Arc<Counter>; 3],
    /// Admission → reply on the socket, per status.
    latency_ms: [Arc<LogHistogram>; 3],
    /// Worker finished → reply on the socket.
    write_ms: Arc<LogHistogram>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) shed_queue: Arc<Counter>,
    pub(crate) shed_breaker: Arc<Counter>,
    pub(crate) rejected_draining: Arc<Counter>,
    pub(crate) deduped: Arc<Counter>,
    pub(crate) bad_lines: Arc<Counter>,
    pub(crate) long_lines: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) connections: Arc<Counter>,
    pub(crate) dropped_connections: Arc<Counter>,
    pub(crate) undelivered: Arc<Counter>,
    pub(crate) chaos_ignored: Arc<Counter>,
    pub(crate) retried_ok: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) max_queue_depth: Arc<Gauge>,
    pub(crate) retry_after_ms: Arc<Gauge>,
    pub(crate) queue_wait_ms: Arc<LogHistogram>,
    /// One attempt's `Engine::run`, and the share of a certified one
    /// spent validating after the traversal.
    pub(crate) engine_ms: Arc<LogHistogram>,
    pub(crate) certify_ms: Arc<LogHistogram>,
    pub(crate) deadline_headroom_ms: Arc<LogHistogram>,

    // Batching stage (all zero / empty unless `--batch-width > 1`).
    pub(crate) batches_total: Arc<Counter>,
    pub(crate) batched_requests: Arc<Counter>,
    pub(crate) max_batch_size: Arc<Gauge>,
    pub(crate) batch_size: Arc<LogHistogram>,
    pub(crate) batch_occupancy_pct: Arc<Gauge>,
    pub(crate) linger_wait_ms: Arc<LogHistogram>,

    // Breaker: it owns its state and totals under its lock; sampled.
    pub(crate) breaker_state: Arc<Gauge>,
    pub(crate) breaker_transitions: Arc<Counter>,
    pub(crate) breaker_trips: Arc<Counter>,
    pub(crate) flight_dumps_total: Arc<Counter>,

    // Durability (all zero unless `--journal` is set). The journal owns
    // the first three totals, so its append hot path touches only its
    // own relaxed atomics; sampled.
    pub(crate) journal_appends: Arc<Counter>,
    pub(crate) journal_fsyncs: Arc<Counter>,
    pub(crate) journal_bytes: Arc<Counter>,
    pub(crate) replayed_requests: Arc<Counter>,
    pub(crate) recovery_ms: Arc<Gauge>,

    // Per-worker.
    pub(crate) workers: Vec<WorkerMetrics>,

    // Cluster.
    pub(crate) cluster_expand_us: Arc<Counter>,
    pub(crate) cluster_exchange_us: Arc<Counter>,
    ranks: Mutex<Vec<RankMetrics>>,
}

impl ServerMetrics {
    /// Pre-register every fixed series for a `workers`-wide server.
    /// Flight dumps land in `flight_dir`.
    pub fn new(workers: usize, flight_dir: PathBuf) -> Self {
        let reg = MetricsRegistry::new();
        let requests = STATUSES
            .map(|s| reg.counter(live::REQUESTS_TOTAL, MetricUnit::Count, &[("status", s)]));
        let latency_ms = STATUSES.map(|s| {
            reg.histogram(
                live::REQUEST_LATENCY_MS,
                MetricUnit::Millis,
                &[("status", s)],
            )
        });
        let worker_handles = (0..workers.max(1))
            .map(|i| {
                let w = i.to_string();
                let l: &[(&str, &str)] = &[("worker", w.as_str())];
                WorkerMetrics {
                    state: reg.gauge(live::WORKER_STATE, MetricUnit::State, l),
                    requests: reg.counter(live::WORKER_REQUESTS_TOTAL, MetricUnit::Count, l),
                    rebuilds: reg.counter(live::WORKER_REBUILDS_TOTAL, MetricUnit::Count, l),
                    panics: reg.counter(live::WORKER_PANICS_TOTAL, MetricUnit::Count, l),
                    pool_hits: reg.counter(live::POOL_HITS_TOTAL, MetricUnit::Count, l),
                    pool_misses: reg.counter(live::POOL_MISSES_TOTAL, MetricUnit::Count, l),
                    pool_bytes: reg.gauge(live::POOL_BYTES, MetricUnit::Bytes, l),
                    pool_pressure: reg.counter(live::POOL_PRESSURE_TOTAL, MetricUnit::Count, l),
                    last_pool: Mutex::new(PoolGauges::default()),
                }
            })
            .collect();
        Self {
            flight: FlightRecorder::new(workers.max(1), FLIGHT_RING),
            flight_dir,
            dumps: Mutex::new(Vec::new()),
            requests,
            latency_ms,
            write_ms: reg.histogram(live::WRITE_MS, MetricUnit::Millis, &[]),
            admitted: reg.counter(live::ADMITTED_TOTAL, MetricUnit::Count, &[]),
            shed_queue: reg.counter(live::SHED_TOTAL, MetricUnit::Count, &[("reason", "queue")]),
            shed_breaker: reg.counter(
                live::SHED_TOTAL,
                MetricUnit::Count,
                &[("reason", "breaker")],
            ),
            rejected_draining: reg.counter(live::REJECTED_DRAINING_TOTAL, MetricUnit::Count, &[]),
            deduped: reg.counter(live::DEDUPED_TOTAL, MetricUnit::Count, &[]),
            bad_lines: reg.counter(live::BAD_LINES_TOTAL, MetricUnit::Count, &[]),
            long_lines: reg.counter(live::LONG_LINES_TOTAL, MetricUnit::Count, &[]),
            idle_disconnects: reg.counter(live::IDLE_DISCONNECTS_TOTAL, MetricUnit::Count, &[]),
            connections: reg.counter(live::CONNECTIONS_TOTAL, MetricUnit::Count, &[]),
            dropped_connections: reg.counter(
                live::DROPPED_CONNECTIONS_TOTAL,
                MetricUnit::Count,
                &[],
            ),
            undelivered: reg.counter(live::UNDELIVERED_TOTAL, MetricUnit::Count, &[]),
            chaos_ignored: reg.counter(live::CHAOS_IGNORED_TOTAL, MetricUnit::Count, &[]),
            retried_ok: reg.counter(live::RETRIED_OK_TOTAL, MetricUnit::Count, &[]),
            queue_depth: reg.gauge(live::QUEUE_DEPTH, MetricUnit::Count, &[]),
            max_queue_depth: reg.gauge(live::MAX_QUEUE_DEPTH, MetricUnit::Count, &[]),
            retry_after_ms: reg.gauge(live::RETRY_AFTER_MS, MetricUnit::Millis, &[]),
            queue_wait_ms: reg.histogram(live::QUEUE_WAIT_MS, MetricUnit::Millis, &[]),
            engine_ms: reg.histogram(live::ENGINE_MS, MetricUnit::Millis, &[]),
            certify_ms: reg.histogram(live::CERTIFY_MS, MetricUnit::Millis, &[]),
            deadline_headroom_ms: reg.histogram(
                live::DEADLINE_HEADROOM_MS,
                MetricUnit::Millis,
                &[],
            ),
            batches_total: reg.counter(live::BATCHES_TOTAL, MetricUnit::Count, &[]),
            batched_requests: reg.counter(live::BATCHED_REQUESTS_TOTAL, MetricUnit::Count, &[]),
            max_batch_size: reg.gauge(live::MAX_BATCH_SIZE, MetricUnit::Count, &[]),
            batch_size: reg.histogram(live::BATCH_SIZE, MetricUnit::Count, &[]),
            batch_occupancy_pct: reg.gauge(live::BATCH_OCCUPANCY_PCT, MetricUnit::Count, &[]),
            linger_wait_ms: reg.histogram(live::LINGER_WAIT_MS, MetricUnit::Millis, &[]),
            breaker_state: reg.gauge(live::BREAKER_STATE, MetricUnit::State, &[]),
            breaker_transitions: reg.counter(
                live::BREAKER_TRANSITIONS_TOTAL,
                MetricUnit::Count,
                &[],
            ),
            breaker_trips: reg.counter(live::BREAKER_TRIPS_TOTAL, MetricUnit::Count, &[]),
            flight_dumps_total: reg.counter(live::FLIGHT_DUMPS_TOTAL, MetricUnit::Count, &[]),
            journal_appends: reg.counter(live::JOURNAL_APPENDS_TOTAL, MetricUnit::Count, &[]),
            journal_fsyncs: reg.counter(live::JOURNAL_FSYNCS_TOTAL, MetricUnit::Count, &[]),
            journal_bytes: reg.counter(live::JOURNAL_BYTES_TOTAL, MetricUnit::Bytes, &[]),
            replayed_requests: reg.counter(live::REPLAYED_REQUESTS_TOTAL, MetricUnit::Count, &[]),
            recovery_ms: reg.gauge(live::RECOVERY_MS, MetricUnit::Millis, &[]),
            workers: worker_handles,
            cluster_expand_us: reg.counter(live::CLUSTER_EXPAND_US_TOTAL, MetricUnit::Micros, &[]),
            cluster_exchange_us: reg.counter(
                live::CLUSTER_EXCHANGE_US_TOTAL,
                MetricUnit::Micros,
                &[],
            ),
            ranks: Mutex::new(Vec::new()),
            registry: reg,
        }
    }

    /// Count one request a worker finished. Its latency is recorded
    /// later, by [`Self::reply_written`].
    pub(crate) fn finish_request(&self, worker: usize, status: &str) {
        self.requests[status_idx(status)].add(1);
        if let Some(w) = self.workers.get(worker) {
            w.requests.add(1);
        }
    }

    /// Stop a request's clocks now that its reply is on the socket:
    /// end-to-end latency since admission, and the share of it spent
    /// between the worker finishing and the write returning.
    pub(crate) fn reply_written(&self, done: &Completion) {
        let ms = |since: Instant| since.elapsed().as_secs_f64() * 1000.0;
        self.latency_ms[done.status].record(ms(done.enqueued));
        self.write_ms.record(ms(done.finished));
    }

    /// Fold one cluster run's per-rank deltas into the rank series
    /// (ranks are registered the first time they are seen).
    pub(crate) fn merge_rank_health(&self, health: &[RankHealth]) {
        let mut ranks = self.ranks.lock().unwrap_or_else(|e| e.into_inner());
        while ranks.len() < health.len() {
            let r = ranks.len().to_string();
            let l: &[(&str, &str)] = &[("rank", r.as_str())];
            ranks.push(RankMetrics {
                crashes: self
                    .registry
                    .counter(live::RANK_CRASHES_TOTAL, MetricUnit::Count, l),
                restores: self
                    .registry
                    .counter(live::RANK_RESTORES_TOTAL, MetricUnit::Count, l),
                retransmitted: self.registry.counter(
                    live::RANK_RETRANSMITTED_BYTES_TOTAL,
                    MetricUnit::Bytes,
                    l,
                ),
            });
        }
        for (rm, h) in ranks.iter().zip(health) {
            rm.crashes.add(h.crashes);
            rm.restores.add(h.checkpoints_restored);
            rm.retransmitted.add(h.retransmitted_bytes);
        }
    }

    /// Sample a worker device's pool and fold the deltas in (counters
    /// stay monotone across engine rebuilds: a fresh device restarts
    /// its own totals from zero, which the delta logic treats as a
    /// reset, not a regression).
    pub(crate) fn sample_pool(&self, worker: usize, g: PoolGauges) {
        let Some(w) = self.workers.get(worker) else {
            return;
        };
        let mut last = w.last_pool.lock().unwrap_or_else(|e| e.into_inner());
        let d = |now: u64, then: u64| now.saturating_sub(then);
        if g.hits < last.hits || g.misses < last.misses {
            // Engine rebuilt on a fresh device: whole sample is new.
            *last = PoolGauges::default();
        }
        w.pool_hits.add(d(g.hits, last.hits));
        w.pool_misses.add(d(g.misses, last.misses));
        w.pool_pressure
            .add(d(g.pressure_events, last.pressure_events));
        w.pool_bytes.set(g.parked_bytes as f64);
        *last = g;
    }

    /// Dump the flight recorder to a timestamped file. Returns the path
    /// (already pushed onto the ledger) unless the dump cap was hit or
    /// the write failed — dumps are forensics, never a failure source.
    pub(crate) fn dump_flight(&self, reason: &str) -> Option<String> {
        // The cap check and the ledger entry share one hold: two workers
        // quarantining at once must not both pass the check at 31.
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        if dumps.len() >= MAX_FLIGHT_DUMPS {
            return None;
        }
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let seq = self.flight.next_dump_seq();
        let safe_reason: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = self
            .flight_dir
            .join(format!("xbfs-flight-{unix_ms}-{seq}-{safe_reason}.log"));
        let text = self.flight.render(reason);
        if std::fs::create_dir_all(&self.flight_dir).is_err() {
            return None;
        }
        if std::fs::write(&path, text).is_err() {
            return None;
        }
        let shown = path.to_string_lossy().into_owned();
        dumps.push(shown.clone());
        self.flight_dumps_total.add(1);
        Some(shown)
    }

    /// Paths of every flight dump written so far.
    pub(crate) fn dump_paths(&self) -> Vec<String> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Where dumps are written.
    pub(crate) fn flight_dir(&self) -> &Path {
        &self.flight_dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_telemetry::SeriesValue;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("xbfs-metrics-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn finish_request_feeds_status_series_and_worker_counters() {
        let m = ServerMetrics::new(2, tmpdir("finish"));
        m.finish_request(0, "ok");
        m.finish_request(1, "timeout");
        m.finish_request(0, "error");
        m.finish_request(0, "ok");
        let snap = m.registry.snapshot();
        assert_eq!(snap.counter_family_total(live::REQUESTS_TOTAL), 4);
        let ok = snap
            .find(live::REQUESTS_TOTAL, &[("status", "ok")])
            .unwrap();
        assert_eq!(ok.value, SeriesValue::Counter(2));
        let w0 = snap
            .find(live::WORKER_REQUESTS_TOTAL, &[("worker", "0")])
            .unwrap();
        assert_eq!(w0.value, SeriesValue::Counter(3));
    }

    #[test]
    fn reply_written_stops_both_clocks_on_the_status_series() {
        let m = ServerMetrics::new(1, tmpdir("written"));
        let enqueued = Instant::now() - std::time::Duration::from_millis(20);
        let finished = Instant::now() - std::time::Duration::from_millis(5);
        m.reply_written(&Completion {
            line: String::new(),
            status: status_idx("timeout"),
            enqueued,
            finished,
        });
        let snap = m.registry.snapshot();
        let hist =
            |name: &str, labels: &[(&str, &str)]| match &snap.find(name, labels).unwrap().value {
                SeriesValue::Histogram(h) => h.clone(),
                other => panic!("expected histogram, got {other:?}"),
            };
        let latency = hist(live::REQUEST_LATENCY_MS, &[("status", "timeout")]);
        let write = hist(live::WRITE_MS, &[]);
        assert_eq!((latency.count(), write.count()), (1, 1));
        assert_eq!(
            hist(live::REQUEST_LATENCY_MS, &[("status", "ok")]).count(),
            0
        );
        // The write gap is the tail of the latency, never more than it.
        assert!(write.sum() >= 5.0 && latency.sum() >= 20.0);
        assert!(write.sum() < latency.sum());
    }

    #[test]
    fn pool_deltas_survive_engine_rebuild_resets() {
        let m = ServerMetrics::new(1, tmpdir("pool"));
        m.sample_pool(
            0,
            PoolGauges {
                hits: 10,
                misses: 4,
                parked_bytes: 100,
                pressure_events: 1,
                limit_bytes: None,
            },
        );
        m.sample_pool(
            0,
            PoolGauges {
                hits: 15,
                misses: 4,
                parked_bytes: 80,
                pressure_events: 1,
                limit_bytes: None,
            },
        );
        // Fresh device after rebuild: totals restart lower — treated as
        // a reset, not subtracted.
        m.sample_pool(
            0,
            PoolGauges {
                hits: 3,
                misses: 1,
                parked_bytes: 40,
                pressure_events: 0,
                limit_bytes: None,
            },
        );
        let snap = m.registry.snapshot();
        let hits = snap
            .find(live::POOL_HITS_TOTAL, &[("worker", "0")])
            .unwrap();
        assert_eq!(hits.value, SeriesValue::Counter(15 + 3));
        let bytes = snap.find(live::POOL_BYTES, &[("worker", "0")]).unwrap();
        assert_eq!(bytes.value, SeriesValue::Gauge(40.0));
    }

    #[test]
    fn rank_series_appear_on_first_merge_and_accumulate() {
        let m = ServerMetrics::new(1, tmpdir("rank"));
        let h = RankHealth {
            crashes: 1,
            checkpoints_restored: 2,
            retransmitted_bytes: 64,
        };
        m.merge_rank_health(&[RankHealth::default(), h.clone()]);
        m.merge_rank_health(&[RankHealth::default(), h]);
        let snap = m.registry.snapshot();
        let crashes = snap
            .find(live::RANK_CRASHES_TOTAL, &[("rank", "1")])
            .unwrap();
        assert_eq!(crashes.value, SeriesValue::Counter(2));
        let bytes = snap
            .find(live::RANK_RETRANSMITTED_BYTES_TOTAL, &[("rank", "1")])
            .unwrap();
        assert_eq!(bytes.value, SeriesValue::Counter(128));
    }

    #[test]
    fn flight_dump_writes_a_file_and_ledgers_it() {
        let dir = tmpdir("dump");
        let m = ServerMetrics::new(1, dir.clone());
        m.flight.note(0, "request.start", "id=1");
        m.flight.note(0, "panic", "chaos: injected worker panic");
        let path = m.dump_flight("worker-panic").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("reason: worker-panic"));
        assert!(text.contains("injected worker panic"));
        assert_eq!(m.dump_paths(), vec![path]);
        let snap = m.registry.snapshot();
        assert_eq!(
            snap.find(live::FLIGHT_DUMPS_TOTAL, &[]).unwrap().value,
            SeriesValue::Counter(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_dumps_never_pass_the_cap() {
        let dir = tmpdir("race");
        let m = ServerMetrics::new(1, dir.clone());
        let gate = std::sync::Barrier::new(40);
        std::thread::scope(|s| {
            for _ in 0..40 {
                s.spawn(|| {
                    gate.wait();
                    m.dump_flight("quarantine-race");
                });
            }
        });
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(
            (m.dump_paths().len(), files),
            (MAX_FLIGHT_DUMPS, MAX_FLIGHT_DUMPS)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
