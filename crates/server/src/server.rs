//! The serving daemon: TCP listener, connection handlers, worker pool,
//! and the graceful-drain choreography.
//!
//! Thread layout: one accept thread, a reader and a writer thread per
//! connection, `workers` engine threads consuming the admission queue. A
//! reader never runs BFS itself — it parses requests, applies
//! breaker/admission policy, answers control ops inline, and forwards
//! accepted jobs with a per-connection completion channel. The writer
//! blocks on that channel and puts completions on the socket the moment
//! a worker produces them, in finish order, matched by id.
//!
//! Drain: `initiate_drain` (or the wire `shutdown` op) flips the
//! draining flag, moves the queue to `Draining` (reject new, keep
//! serving queued), and pokes the accept loop awake with a
//! self-connection. Handlers close once their in-flight requests are
//! answered; workers exit when the queue runs dry; `join` then merges
//! everything into one [`ServeReport`]. Every accepted request is
//! answered before the process exits — the report's `drain_clean` says
//! so explicitly.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_graph::Csr;
use xbfs_multi_gcd::RankHealth;
use xbfs_telemetry::names::live;
use xbfs_telemetry::{attrs, json, MetricsSnapshot, Recorder, SeriesValue};

use crate::breaker::CircuitBreaker;
use crate::dedup::DedupCache;
use crate::journal::{FsyncPolicy, Journal};
use crate::metrics::ServerMetrics;
use crate::protocol::{self, Request};
use crate::queue::{Admission, AdmissionQueue};
use crate::worker::{worker_loop, Completion, Job};

/// Builds one fresh device per engine generation. Fresh devices (not
/// clones) are what make a rebuilt engine's modeled timeline — and hence
/// its result digest — bit-identical to a single-shot run.
pub type DeviceFactory = Arc<dyn Fn() -> Device + Send + Sync>;

/// Serving-layer policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Engine worker threads (each owns one warm pooled engine).
    pub workers: usize,
    /// Admission-queue bound; beyond it requests are shed.
    pub queue_cap: usize,
    /// Certify every run by default (per-request `verify` overrides).
    pub verify: bool,
    /// Honor chaos tokens stamped on requests (test servers only).
    pub allow_chaos: bool,
    /// Deadline applied when a request does not carry one, ms.
    pub default_deadline_ms: Option<f64>,
    /// Coalesce up to this many admitted requests into one bit-parallel
    /// multi-source traversal per worker dispatch (1 = the classic solo
    /// engine; capped at [`xbfs_core::MAX_CONCURRENT`]). Mutually
    /// exclusive with `cluster`.
    pub batch_width: usize,
    /// How long a worker lingers for company after popping the first
    /// request of a batch, wall ms. A lone request is never parked
    /// longer than this.
    pub batch_window_ms: f64,
    /// Route requests through the partitioned multi-GCD engine with this
    /// many modeled GCDs per worker (`None` = single-device engine).
    pub cluster: Option<usize>,
    /// Bind a second TCP listener here serving Prometheus-style text on
    /// `GET /metrics` and the `xbfs-metrics-v1` JSON snapshot on
    /// `GET /metrics.json` (`None` = main protocol's `metrics` op only).
    pub metrics_addr: Option<String>,
    /// Directory for flight-recorder dumps (`None` = a per-process dir
    /// under the system temp dir).
    pub flight_dir: Option<String>,
    /// Write-ahead request journal path (`None` = durability off). With a
    /// journal, every admitted request and every terminal response is
    /// CRC-framed to this file, and a restart on the same path replays
    /// incomplete requests ahead of new traffic.
    pub journal: Option<String>,
    /// How often journal appends are forced to stable storage.
    pub journal_fsync: FsyncPolicy,
    /// Close a connection after this many ms with no request and nothing
    /// in flight, so a stalled client cannot pin a handler thread forever
    /// (0 disables).
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 32,
            verify: false,
            allow_chaos: false,
            default_deadline_ms: None,
            batch_width: 1,
            batch_window_ms: 2.0,
            cluster: None,
            metrics_addr: None,
            flight_dir: None,
            journal: None,
            journal_fsync: FsyncPolicy::Batch(8),
            idle_timeout_ms: 30_000,
        }
    }
}

/// Base backoff hint attached to shed responses, ms.
const RETRY_AFTER_MS: u64 = 25;
/// Consecutive uncorrected failures that trip the breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// Breaker cooldown before the half-open probe, ms.
const BREAKER_COOLDOWN_MS: u64 = 250;
/// Completed responses remembered for idempotent replay.
const DEDUP_CAP: usize = 128;
/// Replays after quarantine before a lone request fails typed.
pub(crate) const MAX_RETRIES: u32 = 2;

/// Everything handlers and workers share.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: AdmissionQueue<Job>,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) graph: Arc<Csr>,
    pub(crate) xcfg: xbfs_core::XbfsConfig,
    pub(crate) factory: DeviceFactory,
    pub(crate) draining: AtomicBool,
    pub(crate) dedup: DedupCache,
    /// The always-on live metrics plane + flight recorder: the server's
    /// only ledger.
    pub(crate) metrics: ServerMetrics,
    /// The write-ahead request journal (`None` = durability off).
    pub(crate) journal: Option<Journal>,
    addr: SocketAddr,
    /// Where the scrape listener is bound, for the drain wake-up poke.
    metrics_addr: Option<SocketAddr>,
}

impl Shared {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flip to draining and wake the accept loop with a self-connection
    /// (idempotent; safe from any thread).
    pub(crate) fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.metrics.flight.note(
            self.metrics.flight.control_lane(),
            "drain",
            "graceful drain initiated",
        );
        self.queue.drain();
        // The accept loops block in accept(); a throwaway connection is
        // the std-only way to make them re-check the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(maddr) = self.metrics_addr {
            let _ = TcpStream::connect_timeout(&maddr, Duration::from_millis(200));
        }
    }

    /// One consistent scrape, and the only way anything reads the
    /// server's books: sample the totals their owners keep (the breaker
    /// and the queue under their locks, the journal on its append path)
    /// into their series, then freeze the registry. Runs entirely on the
    /// scraping thread; workers are never stopped or signaled.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = &self.metrics;
        let (state, transitions, trips) = self.breaker.sample();
        m.breaker_state.set(f64::from(state));
        m.breaker_transitions.raise_to(transitions);
        m.breaker_trips.raise_to(trips);
        let queue = self.queue.stats();
        m.queue_depth.set(queue.depth as f64);
        m.max_queue_depth.raise_to(queue.max_depth as f64);
        if let Some(j) = &self.journal {
            m.journal_appends.raise_to(j.appends());
            m.journal_fsyncs.raise_to(j.fsyncs());
            m.journal_bytes.raise_to(j.bytes_written());
        }
        m.registry.snapshot()
    }

    /// Journal a completion record (no-op without a journal). `line`
    /// rides along only for dedup-cacheable `ok` responses; an append
    /// failure is noted in the flight recorder, never fatal to serving.
    pub(crate) fn journal_done(
        &self,
        id: u64,
        source: u32,
        status: &str,
        line: &str,
        cacheable: bool,
    ) {
        let Some(journal) = &self.journal else {
            return;
        };
        let digest = extract_digest(line);
        let cached = if cacheable { Some(line) } else { None };
        if journal
            .append_done(id, source, status, digest, cached)
            .is_err()
        {
            self.metrics.flight.note(
                self.metrics.flight.control_lane(),
                "journal.error",
                format!("done append failed id={id}"),
            );
        }
    }
}

/// Pull the `"digest":"0x…"` value out of a response line without a full
/// JSON parse — the journal rides the hot path.
pub(crate) fn extract_digest(line: &str) -> Option<&str> {
    let start = line.find("\"digest\":\"")? + "\"digest\":\"".len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// The `breaker.state` gauge code of an open breaker.
const BREAKER_OPEN: f64 = 2.0;

/// Per-rank cluster health, rebuilt from the `cluster.rank_*_total{rank}`
/// series. Keyed by the parsed rank because series sort by label
/// *string* (`"10"` before `"2"`).
fn rank_health(snap: &MetricsSnapshot) -> Vec<RankHealth> {
    let mut ranks: BTreeMap<usize, RankHealth> = BTreeMap::new();
    for s in &snap.series {
        let field: fn(&mut RankHealth) -> &mut u64 = match s.name.as_str() {
            live::RANK_CRASHES_TOTAL => |h| &mut h.crashes,
            live::RANK_RESTORES_TOTAL => |h| &mut h.checkpoints_restored,
            live::RANK_RETRANSMITTED_BYTES_TOTAL => |h| &mut h.retransmitted_bytes,
            _ => continue,
        };
        let rank = s.label("rank").and_then(|r| r.parse().ok());
        if let (Some(rank), &SeriesValue::Counter(v)) = (rank, &s.value) {
            *field(ranks.entry(rank).or_default()) = v;
        }
    }
    ranks.into_values().collect()
}

/// Merged end-of-life report: one line of truth per robustness claim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests admitted by the queue.
    pub accepted: u64,
    /// Requests shed (queue full).
    pub shed: u64,
    /// Requests rejected during drain.
    pub rejected_draining: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered `timeout` (queue or run budget).
    pub timeouts: u64,
    /// Requests answered `error`.
    pub errors: u64,
    /// `ok` responses that needed a quarantine replay first.
    pub replayed: u64,
    /// Worker panics contained by `catch_unwind`.
    pub panics_recovered: u64,
    /// Engine generations discarded + rebuilt.
    pub rebuilds: u64,
    /// Chaos tokens ignored because `--allow-chaos` was off.
    pub chaos_ignored: u64,
    /// Breaker trips over the server's life.
    pub breaker_trips: u64,
    /// Requests rejected fast while the breaker was open.
    pub breaker_fast_rejects: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that died with an unanswered in-flight request.
    pub dropped_connections: u64,
    /// Unparsable request lines (answered with a typed error).
    pub bad_lines: u64,
    /// Deepest queue backlog observed.
    pub max_queue_depth: usize,
    /// Replayed ids answered from the idempotency cache (never
    /// re-executed, never re-queued).
    pub deduped: u64,
    /// Multi-source batches dispatched (0 unless `batch_width > 1`).
    pub batches: u64,
    /// Requests that rode a dispatched batch (ok, replayed, or shed
    /// in-batch — everything the batcher coalesced).
    pub batched_requests: u64,
    /// Widest batch actually coalesced.
    pub max_batch_size: u64,
    /// Configured coalescing width (1 = solo engine).
    pub batch_width: usize,
    /// Journal records appended (admits + completions; 0 without
    /// `--journal`).
    pub journal_appends: u64,
    /// Explicit fsyncs the journal issued under its policy.
    pub journal_fsyncs: u64,
    /// Journal bytes written, frames included.
    pub journal_bytes: u64,
    /// Incomplete requests recovered from the journal and re-enqueued
    /// ahead of new traffic at startup.
    pub replayed_requests: u64,
    /// Startup recovery time: journal replay + dedup warm-start +
    /// re-enqueue, in ms (0.0 without a journal).
    pub recovery_ms: f64,
    /// Request lines shed for exceeding the length bound.
    pub long_lines: u64,
    /// Connections closed by the idle read timeout.
    pub idle_disconnects: u64,
    /// Flight-recorder dump files written over the server's life
    /// (worker panics, quarantines, breaker opens), oldest first.
    pub flight_dumps: Vec<String>,
    /// Modeled GCDs per worker engine (0 = single-device).
    pub cluster: usize,
    /// Per-rank health across every cluster run served (empty for
    /// single-device servers): injected crashes observed, checkpoint
    /// restores performed, and bytes retransmitted over degraded links.
    pub rank_health: Vec<RankHealth>,
    /// Every accepted request was answered and nothing was lost.
    pub drain_clean: bool,
}

impl ServeReport {
    /// The report as a pure function of one metrics snapshot — a live
    /// scrape mid-load or the last one `join` takes — so it cannot
    /// disagree with what `/metrics` said. The two things no series
    /// carries ride along: the flight-dump paths and how many requests
    /// were still queued at close.
    pub fn from_snapshot(
        snap: &MetricsSnapshot,
        cfg: &ServeConfig,
        flight_dumps: Vec<String>,
        abandoned: usize,
    ) -> Self {
        let count = |name: &str| snap.counter(name, &[]);
        let finished = |status: &str| snap.counter(live::REQUESTS_TOTAL, &[("status", status)]);
        let high_water = |name: &str| snap.gauge(name, &[]).unwrap_or(0.0);
        let accepted = count(live::ADMITTED_TOTAL);
        let (ok, timeouts, errors) = (finished("ok"), finished("timeout"), finished("error"));
        let dropped_connections = count(live::DROPPED_CONNECTIONS_TOTAL);
        Self {
            accepted,
            shed: snap.counter(live::SHED_TOTAL, &[("reason", "queue")]),
            rejected_draining: count(live::REJECTED_DRAINING_TOTAL),
            ok,
            timeouts,
            errors,
            replayed: count(live::RETRIED_OK_TOTAL),
            panics_recovered: snap.counter_family_total(live::WORKER_PANICS_TOTAL),
            rebuilds: snap.counter_family_total(live::WORKER_REBUILDS_TOTAL),
            chaos_ignored: count(live::CHAOS_IGNORED_TOTAL),
            breaker_trips: count(live::BREAKER_TRIPS_TOTAL),
            breaker_fast_rejects: snap.counter(live::SHED_TOTAL, &[("reason", "breaker")]),
            connections: count(live::CONNECTIONS_TOTAL),
            dropped_connections,
            bad_lines: count(live::BAD_LINES_TOTAL),
            max_queue_depth: high_water(live::MAX_QUEUE_DEPTH) as usize,
            deduped: count(live::DEDUPED_TOTAL),
            batches: count(live::BATCHES_TOTAL),
            batched_requests: count(live::BATCHED_REQUESTS_TOTAL),
            max_batch_size: high_water(live::MAX_BATCH_SIZE) as u64,
            batch_width: cfg.batch_width.max(1),
            journal_appends: count(live::JOURNAL_APPENDS_TOTAL),
            journal_fsyncs: count(live::JOURNAL_FSYNCS_TOTAL),
            journal_bytes: count(live::JOURNAL_BYTES_TOTAL),
            replayed_requests: count(live::REPLAYED_REQUESTS_TOTAL),
            recovery_ms: high_water(live::RECOVERY_MS),
            long_lines: count(live::LONG_LINES_TOTAL),
            idle_disconnects: count(live::IDLE_DISCONNECTS_TOTAL),
            flight_dumps,
            cluster: cfg.cluster.unwrap_or(0),
            rank_health: rank_health(snap),
            drain_clean: abandoned == 0
                && count(live::UNDELIVERED_TOTAL) == 0
                && dropped_connections == 0
                && accepted == ok + timeouts + errors,
        }
    }

    /// `xbfs-serve-report-v1` JSON object (single line).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.key("format").str("xbfs-serve-report-v1");
            o.key("accepted").int(self.accepted);
            o.key("shed").int(self.shed);
            o.key("rejected_draining").int(self.rejected_draining);
            o.key("ok").int(self.ok);
            o.key("timeouts").int(self.timeouts);
            o.key("errors").int(self.errors);
            o.key("replayed").int(self.replayed);
            o.key("panics_recovered").int(self.panics_recovered);
            o.key("rebuilds").int(self.rebuilds);
            o.key("chaos_ignored").int(self.chaos_ignored);
            o.key("breaker_trips").int(self.breaker_trips);
            o.key("breaker_fast_rejects").int(self.breaker_fast_rejects);
            o.key("connections").int(self.connections);
            o.key("dropped_connections").int(self.dropped_connections);
            o.key("bad_lines").int(self.bad_lines);
            o.key("max_queue_depth").int(self.max_queue_depth);
            o.key("deduped").int(self.deduped);
            o.key("batches").int(self.batches);
            o.key("batched_requests").int(self.batched_requests);
            o.key("max_batch_size").int(self.max_batch_size);
            o.key("batch_width").int(self.batch_width);
            o.key("journal_appends").int(self.journal_appends);
            o.key("journal_fsyncs").int(self.journal_fsyncs);
            o.key("journal_bytes").int(self.journal_bytes);
            o.key("replayed_requests").int(self.replayed_requests);
            o.key("recovery_ms").f64(self.recovery_ms);
            o.key("long_lines").int(self.long_lines);
            o.key("idle_disconnects").int(self.idle_disconnects);
            o.key("cluster").int(self.cluster);
            o.key("rank_health").arr(|ranks| {
                for (rank, h) in self.rank_health.iter().enumerate() {
                    ranks.item().obj(|o| {
                        o.key("rank").int(rank);
                        o.key("crashes").int(h.crashes);
                        o.key("checkpoints_restored").int(h.checkpoints_restored);
                        o.key("retransmitted_bytes").int(h.retransmitted_bytes);
                    });
                }
            });
            let dumps = self.flight_dumps.iter();
            o.key("flight_dumps")
                .arr(|a| dumps.for_each(|path| a.item().str(path)));
            o.key("drain_clean").bool(self.drain_clean);
        })
    }
}

/// The daemon. [`Server::start`] returns a handle; the server lives
/// until a drain is initiated (wire `shutdown` or
/// [`ServerHandle::initiate_drain`]) and [`ServerHandle::join`] reaps it.
pub struct Server;

/// Running-server handle: address, drain trigger, and the join that
/// yields the merged report.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    /// Where `join` renders the flight rings (see [`Server::start`]).
    rec: Arc<Recorder>,
}

impl Server {
    /// Bind, spawn workers + accept loop, and return immediately. `rec`
    /// records nothing while the server runs: [`ServerHandle::join`]
    /// renders the flight recorder into it once, at drain.
    pub fn start(
        cfg: ServeConfig,
        graph: Arc<Csr>,
        xcfg: xbfs_core::XbfsConfig,
        factory: DeviceFactory,
        rec: Arc<Recorder>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // Bind the scrape listener up front so its address lands in
        // `Shared` (the drain poke needs it) and bind errors surface to
        // the caller instead of dying in a thread.
        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let flight_dir = cfg
            .flight_dir
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("xbfs-flight-{}", std::process::id()))
            });
        let metrics = ServerMetrics::new(cfg.workers.max(1), flight_dir);
        // Open + replay the journal before anything serves: completions
        // warm the dedup cache and incomplete admits are re-enqueued
        // below, strictly ahead of new traffic (the listener is bound but
        // the accept thread is not running yet — the OS backlog holds
        // early connections).
        let recovery_started = Instant::now();
        let journal_state = match &cfg.journal {
            Some(path) => Some(Journal::open(path, cfg.journal_fsync)?),
            None => None,
        };
        let (journal, replay) = match journal_state {
            Some((j, r)) => (Some(j), Some(r)),
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_cap, RETRY_AFTER_MS),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN_MS),
            graph,
            xcfg,
            factory,
            draining: AtomicBool::new(false),
            dedup: DedupCache::new(DEDUP_CAP),
            metrics,
            journal,
            addr,
            metrics_addr,
            cfg,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xbfs-worker-{i}"))
                    .spawn(move || worker_loop(sh, i))
                    .expect("spawn worker thread")
            })
            .collect();

        if let Some(replay) = replay {
            recover(&shared, replay, recovery_started);
        }

        let sh = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xbfs-accept".into())
            .spawn(move || accept_loop(sh, listener))
            .expect("spawn accept thread");

        let metrics_thread = metrics_listener.map(|l| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xbfs-metrics".into())
                .spawn(move || metrics_loop(sh, l))
                .expect("spawn metrics thread")
        });

        Ok(ServerHandle {
            addr,
            shared,
            accept,
            workers,
            metrics_thread,
            rec,
        })
    }
}

/// Apply a replayed journal to a freshly built server: warm the dedup
/// cache from completion records, then re-enqueue every incomplete
/// request. Runs after the workers are spawned (recovered requests can
/// outnumber the queue bound, so the queue must be draining while we
/// fill it) and before the accept thread starts (the OS listen backlog
/// holds new connections, so recovered requests are strictly ahead of
/// new traffic). Recovered responses flow to a sink thread — the
/// connections that asked for them died with the previous process; a
/// client that still cares will resend the id and hit the warm dedup
/// cache.
fn recover(shared: &Arc<Shared>, replay: crate::journal::ReplayedJournal, started: Instant) {
    for done in &replay.completed {
        if let Some(line) = &done.line {
            shared.dedup.record(done.id, done.source, line);
        }
    }
    let n = replay.incomplete.len() as u64;
    if n > 0 {
        let (tx, rx) = mpsc::channel::<Completion>();
        let _ = std::thread::Builder::new()
            .name("xbfs-recovery".into())
            .spawn(move || while rx.recv().is_ok() {});
        for req in replay.incomplete {
            // Recovery is the only submitter and workers only drain, so
            // a depth check below the bound guarantees admission.
            loop {
                if shared.queue.depth() >= shared.cfg.queue_cap {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let job = Job {
                    req: req.clone(),
                    enqueued: Instant::now(),
                    resp: tx.clone(),
                };
                match shared.queue.submit(job) {
                    Admission::Accepted { .. } => {
                        shared.metrics.admitted.add(1);
                        break;
                    }
                    Admission::Shed { .. } => std::thread::sleep(Duration::from_millis(1)),
                    Admission::Draining => return,
                }
            }
        }
    }
    shared.metrics.replayed_requests.add(n);
    let us = started.elapsed().as_micros() as u64;
    shared.metrics.recovery_ms.set(us as f64 / 1000.0);
    shared.metrics.flight.note(
        shared.metrics.flight.control_lane(),
        "journal.recovered",
        format!(
            "records={} completed={} re-enqueued={n} torn_bytes={}",
            replay.records,
            replay.completed.len(),
            replay.torn_bytes
        ),
    );
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where the scrape listener is bound, when `metrics_addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// Where flight-recorder dumps are written.
    pub fn flight_dir(&self) -> PathBuf {
        self.shared.metrics.flight_dir().to_path_buf()
    }

    /// Begin graceful drain from the host process (equivalent to the
    /// wire `shutdown` op). Idempotent.
    pub fn initiate_drain(&self) {
        self.shared.begin_drain();
    }

    /// Block until the drain completes, render the flight rings into the
    /// [`Server::start`] recorder (one instant per event), and merge the
    /// final report. Joining without a drain in progress waits for a wire
    /// `shutdown`.
    pub fn join(self) -> ServeReport {
        // Accept loop exits once draining; it joins all handlers first,
        // and handlers only exit with zero in-flight requests.
        let _ = self.accept.join();
        // Queue is in Draining; workers exit when it runs dry.
        for w in self.workers {
            let _ = w.join();
        }
        // The scrape listener was poked awake by begin_drain.
        if let Some(m) = self.metrics_thread {
            let _ = m.join();
        }
        for ev in self.shared.metrics.flight.events() {
            let (ts_us, detail) = (ev.at_ms * 1000.0, attrs!["detail" => ev.detail]);
            self.rec.event(None, &ev.kind, ev.lane, ts_us, detail);
        }
        // Anything still queued now is a bug — close() surfaces it.
        let abandoned = self.shared.queue.close();
        // Final fsync: a drained journal is fully on stable storage no
        // matter the policy.
        if let Some(j) = &self.shared.journal {
            let _ = j.sync();
        }
        ServeReport::from_snapshot(
            &self.shared.metrics_snapshot(),
            &self.shared.cfg,
            self.shared.metrics.dump_paths(),
            abandoned.len(),
        )
    }
}

/// Serve scrapes on the dedicated listener until drain. Scrapes run
/// entirely on this thread (snapshotting never stops a worker); one at a
/// time is plenty for a monitoring endpoint.
fn metrics_loop(shared: Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.is_draining() {
            break; // the begin_drain wake-up poke (or a late scraper)
        }
        if let Ok(stream) = conn {
            let _ = serve_scrape(&shared, stream);
        }
    }
}

/// Answer one minimal HTTP/1.0 scrape: `GET /metrics` returns the
/// Prometheus text exposition, `GET /metrics.json` the `xbfs-metrics-v1`
/// snapshot. Anything else is a 404.
fn serve_scrape(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut writer = stream.try_clone()?;
    // No scrape needs more than 8 KiB of request.
    let mut reader = BufReader::new(stream.take(8192));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    // Read the headers out too: closing a socket with input unread resets
    // it, and the reset can overtake the reply on its way to the client.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let (status, ctype, body) = if path == "/metrics.json" {
        (
            "200 OK",
            "application/json",
            shared.metrics_snapshot().to_json(),
        )
    } else if path == "/metrics" || path == "/" {
        (
            "200 OK",
            "text/plain; version=0.0.4",
            shared.metrics_snapshot().to_prometheus(),
        )
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shared.is_draining() {
            break; // the wake-up connection (or a late client) is dropped
        }
        match conn {
            Ok(stream) => {
                shared.metrics.connections.add(1);
                let sh = Arc::clone(&shared);
                if let Ok(h) = std::thread::Builder::new()
                    .name("xbfs-conn".into())
                    .spawn(move || handle_conn(sh, stream))
                {
                    handlers.push(h);
                }
            }
            Err(_) => continue,
        }
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
}

/// Longest request line a handler will buffer. One BFS request is well
/// under a kilobyte; anything bigger is a confused or malicious client,
/// and bounding the read turns it into a typed shed instead of an
/// unbounded allocation.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One connection's write side, shared by its reader thread (inline
/// replies) and its writer thread (completions). Every reply goes out as
/// one `write_all` under the socket lock, so lines from the two threads
/// never interleave and a line never straddles two TCP segments.
struct Conn {
    sock: Mutex<TcpStream>,
    /// Requests admitted on this connection whose replies are not on the
    /// socket yet. The reader counts a request *before* submitting it —
    /// a worker can finish it before `submit` even returns — and the
    /// writer uncounts it once written.
    pending: AtomicUsize,
}

impl Conn {
    fn sock(&self) -> MutexGuard<'_, TcpStream> {
        self.sock
            .lock()
            .expect("socket lock poisoned: this connection's other thread panicked mid-write")
    }

    /// Answer inline from the reader thread. A client that stopped
    /// listening is not an error worth reporting, but there is no point
    /// reading more from it either: shutting the socket down ends the
    /// read loop at its next read.
    fn reply(&self, line: String) {
        self.reply_with(|| line);
    }

    /// [`Self::reply`] with the line built under the socket lock, for
    /// replies that must observe everything already written.
    fn reply_with(&self, line: impl FnOnce() -> String) {
        let mut sock = self.sock();
        let mut line = line();
        line.push('\n');
        if sock.write_all(line.as_bytes()).is_err() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

/// Serve one connection until EOF (or until drain completes with nothing
/// owed). This thread reads and admits; a writer thread of its own
/// delivers completions the moment workers produce them.
fn handle_conn(shared: Arc<Shared>, stream: TcpStream) {
    let dropped = || shared.metrics.dropped_connections.add(1);
    // Replies are whole lines in one write; Nagle would only hold them
    // back behind the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    // The read timeout paces two checks the blocked reader cannot be
    // woken for — the idle budget and the draining flag. No reply waits
    // on it: the writer blocks on the completion channel instead.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // A client that neither reads nor closes would block a write forever,
    // pinning both of this connection's threads and any drain. A write
    // stuck for the whole idle budget fails instead: the socket is shut,
    // the writer reports its completions lost, the reader sees EOF.
    let idle_ms = shared.cfg.idle_timeout_ms;
    let _ = stream.set_write_timeout((idle_ms > 0).then(|| Duration::from_millis(idle_ms)));
    let Ok(sock) = stream.try_clone() else {
        dropped();
        return;
    };
    let conn = Arc::new(Conn {
        sock: Mutex::new(sock),
        pending: AtomicUsize::new(0),
    });
    let (tx, rx) = mpsc::channel::<Completion>();
    let writer = {
        let (shared, conn) = (Arc::clone(&shared), Arc::clone(&conn));
        std::thread::Builder::new()
            .name("xbfs-conn-writer".into())
            .spawn(move || write_completions(&shared, &conn, rx))
    };
    let Ok(writer) = writer else {
        dropped();
        return;
    };
    // The reader's sender dies with this call; each admitted job holds a
    // clone, so the writer returns exactly when the last one is answered
    // (or as soon as the socket fails).
    read_requests(&shared, &conn, stream, tx);
    let lost = writer.join().unwrap_or(true);
    if lost || conn.pending.load(Ordering::Acquire) > 0 {
        // In-flight requests whose responses can no longer be delivered.
        dropped();
    }
}

/// The connection's writer: block on the completion channel, take
/// everything that is ready, and hand it to the socket as one
/// `write_all`. Returns whether a completion could not be delivered; the
/// receiver is dropped on return, so completions that arrive after a
/// failed write count as `undelivered` at the worker.
fn write_completions(shared: &Shared, conn: &Conn, rx: mpsc::Receiver<Completion>) -> bool {
    let mut ready: Vec<Completion> = Vec::new();
    let mut buf = String::new();
    while let Ok(first) = rx.recv() {
        ready.push(first);
        ready.extend(rx.try_iter());
        buf.clear();
        for done in &ready {
            buf.push_str(&done.line);
            buf.push('\n');
        }
        let mut sock = conn.sock();
        if sock.write_all(buf.as_bytes()).is_err() {
            // Unblock the reader: nothing it admits could be answered.
            let _ = sock.shutdown(Shutdown::Both);
            return true;
        }
        // Clocks stop before the socket lock is released; a `metrics`
        // reply on this connection snapshots under the same lock, so it
        // covers every answer its client has already read.
        for done in &ready {
            shared.metrics.reply_written(done);
        }
        drop(sock);
        conn.pending.fetch_sub(ready.len(), Ordering::AcqRel);
        ready.clear();
    }
    false
}

/// The connection's reader: parse and dispatch request lines until EOF,
/// an overlong line, the idle budget, or a drain with nothing owed.
fn read_requests(
    shared: &Arc<Shared>,
    conn: &Conn,
    stream: TcpStream,
    tx: mpsc::Sender<Completion>,
) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let idle_ms = shared.cfg.idle_timeout_ms;
    let mut last_activity = Instant::now();
    loop {
        // Once the server is draining and everything owed here is
        // answered, close without reading further.
        if shared.is_draining() && conn.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        // The `take` bound keeps a newline-less firehose from growing
        // `line` without limit — one byte past the cap proves the line
        // is overlong.
        let before = line.len();
        let cap = (MAX_REQUEST_LINE + 1 - before) as u64;
        match (&mut reader).take(cap).read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {
                last_activity = Instant::now();
                let req = std::mem::take(&mut line);
                dispatch_line(shared, conn, &tx, req.trim());
            }
            // Checked before the EOF arm: a cap-exhausted read also
            // returns `Ok(0)` and must shed, not close quietly.
            Ok(_) if line.len() > MAX_REQUEST_LINE => {
                // Overlong: answer typed and close — the line framing
                // is unrecoverable past the cap.
                shared.metrics.long_lines.add(1);
                conn.reply(protocol::error_line(
                    0,
                    "overlong",
                    &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                ));
                return;
            }
            Ok(_) => return, // EOF (0) or partial line at EOF
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if line.len() > before {
                    last_activity = Instant::now(); // partial bytes arrived
                } else if idle_ms > 0
                    && conn.pending.load(Ordering::Acquire) == 0
                    && line.is_empty()
                    && last_activity.elapsed() >= Duration::from_millis(idle_ms)
                {
                    // Nothing owed, nothing in progress, nothing said
                    // for the whole idle budget: stop pinning threads.
                    shared.metrics.idle_disconnects.add(1);
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parse + answer one request line; `bfs` goes through breaker and
/// admission control, everything else is answered inline.
fn dispatch_line(shared: &Arc<Shared>, conn: &Conn, tx: &mpsc::Sender<Completion>, raw: &str) {
    if raw.is_empty() {
        return;
    }
    let req = match protocol::parse_request(raw) {
        Ok(r) => r,
        Err(bad) => {
            shared.metrics.bad_lines.add(1);
            conn.reply(protocol::error_line(bad.id, "usage", &bad.message));
            return;
        }
    };
    match req {
        Request::Ping { id } => conn.reply(protocol::pong_line(id)),
        Request::Info { id } => conn.reply(protocol::info_line(
            id,
            shared.graph.num_vertices(),
            shared.graph.num_edges(),
            shared.cfg.workers,
            shared.cfg.queue_cap,
        )),
        Request::Stats { id } => {
            let snap = shared.metrics_snapshot();
            let r = ServeReport::from_snapshot(&snap, &shared.cfg, Vec::new(), 0);
            conn.reply(protocol::stats_line(
                id,
                &r,
                snap.gauge(live::QUEUE_DEPTH, &[]).unwrap_or(0.0) as u64,
                snap.gauge(live::BREAKER_STATE, &[]) == Some(BREAKER_OPEN),
            ));
        }
        Request::Shutdown { id } => {
            conn.reply(protocol::shutdown_line(id));
            shared.begin_drain();
        }
        // Snapshot under the socket lock: see `write_completions`.
        Request::Metrics { id } => {
            conn.reply_with(|| protocol::metrics_line(id, &shared.metrics_snapshot().to_json()))
        }
        Request::Bfs(bfs) => {
            let id = bfs.id;
            // Idempotent replay: an id we already completed is answered
            // from cache — even while draining or with the breaker open,
            // since nothing re-executes. Chaos-carrying requests bypass
            // the cache so soaks always exercise the real path.
            if bfs.chaos.is_none() {
                if let Some(cached) = shared.dedup.lookup(id, bfs.source) {
                    shared.metrics.deduped.add(1);
                    conn.reply(protocol::mark_deduped(&cached));
                    return;
                }
            }
            if shared.is_draining() {
                shared.metrics.rejected_draining.add(1);
                conn.reply(protocol::overloaded_line(id, "draining", RETRY_AFTER_MS));
                return;
            }
            if let Err(retry_ms) = shared.breaker.admit() {
                shared.metrics.shed_breaker.add(1);
                shared.metrics.retry_after_ms.set(retry_ms as f64);
                shared.metrics.flight.note(
                    shared.metrics.flight.control_lane(),
                    "shed.breaker",
                    format!("id={id} retry_after_ms={retry_ms}"),
                );
                conn.reply(protocol::overloaded_line(id, "breaker-open", retry_ms));
                return;
            }
            // The journal needs the request after `Job` takes ownership;
            // clone up front only when journaling is on.
            let journal_req = shared.journal.as_ref().map(|_| bfs.clone());
            let job = Job {
                req: bfs,
                enqueued: Instant::now(),
                resp: tx.clone(),
            };
            // Counted before `submit`: a worker may finish the job, and
            // the writer uncount it, before `submit` returns.
            conn.pending.fetch_add(1, Ordering::AcqRel);
            match shared.queue.submit(job) {
                Admission::Accepted { .. } => {
                    if let (Some(j), Some(req)) = (&shared.journal, &journal_req) {
                        if j.append_admit(req).is_err() {
                            shared.metrics.flight.note(
                                shared.metrics.flight.control_lane(),
                                "journal.error",
                                format!("admit append failed id={id}"),
                            );
                        }
                    }
                    shared.metrics.admitted.add(1);
                }
                Admission::Shed { retry_after_ms } => {
                    conn.pending.fetch_sub(1, Ordering::AcqRel);
                    shared.metrics.shed_queue.add(1);
                    shared.metrics.retry_after_ms.set(retry_after_ms as f64);
                    shared.metrics.flight.note(
                        shared.metrics.flight.control_lane(),
                        "shed.queue",
                        format!("id={id} retry_after_ms={retry_after_ms}"),
                    );
                    conn.reply(protocol::overloaded_line(id, "queue-full", retry_after_ms));
                }
                Admission::Draining => {
                    conn.pending.fetch_sub(1, Ordering::AcqRel);
                    shared.metrics.rejected_draining.add(1);
                    conn.reply(protocol::overloaded_line(id, "draining", RETRY_AFTER_MS));
                }
            }
        }
    }
}
