#![warn(missing_docs)]

//! `xbfs-telemetry` — the observability substrate of the XBFS reproduction.
//!
//! The paper's evaluation is built on *explaining* where BFS time goes:
//! per-level strategy choices driven by the frontier edge ratio `r`,
//! queue-generation cost, and rocprofiler counter rows per kernel. This
//! crate provides the structured-telemetry layer a finished record is
//! rendered into — a run's by `trace_of`, a server's flight rings at drain —
//! plus the wall-clock instruments a live server keeps:
//!
//! * **Spans** ([`Recorder`], [`SpanRecord`]) — hierarchical timed regions
//!   (`run > level > {expand, queue_gen, scan, collective, checkpoint,
//!   recovery}`) with typed attributes, stamped on the *modeled* device
//!   timeline (microseconds) so traces are bit-deterministic.
//! * **Metrics** ([`registry`]) — the live plane's typed counters, gauges
//!   and log-linear histograms, plus the canonical metric- and span-name
//!   vocabulary ([`names`]).
//! * **Flight recorder** ([`flight`]) — fixed-size per-worker rings of the
//!   server's recent wall-clock events, dumped on a failure.
//! * **Exporters** ([`export`]) — [`TraceFormat::render`] in four
//!   formats: human-readable per-level table, machine-readable
//!   JSON (`xbfs-trace-v1`, the `BENCH_*.json` feed), chrome://tracing /
//!   Perfetto `trace.json`, and a rocprofiler-style kernel CSV.
//! * **JSON** ([`json`]) — the std-only reader and compact writer behind every
//!   document the workspace parses or emits (it has no serialization dependency).
//!
//! The disabled recorder ([`Recorder::disabled`]) is a no-op sink: every
//! recording call is a single relaxed atomic load.
//!
//! # Quick start
//!
//! ```
//! use xbfs_telemetry::{AttrValue, Recorder, names};
//! use xbfs_telemetry::export::TraceFormat;
//!
//! let rec = Recorder::new();
//! let run = rec.begin_span(None, names::span::RUN, 0, 0.0);
//! let lvl = rec.begin_span(Some(run), names::span::LEVEL, 0, 0.0);
//! rec.span_attr(lvl, "level", AttrValue::U64(0));
//! rec.counter(names::metric::FRONTIER_SIZE, 0, 0.0, 1.0);
//! rec.end_span(lvl, 10.0);
//! rec.end_span(run, 12.0);
//! let trace = rec.finish();
//! assert!(trace.well_formed().is_ok());
//! let json = TraceFormat::Chrome.render(&trace);
//! assert!(json.contains("traceEvents"));
//! ```

pub mod export;
pub mod flight;
pub mod json;
pub mod registry;
pub mod span;

pub use export::TraceFormat;
pub use flight::{FlightEvent, FlightRecorder};
pub use json::JsonValue;
pub use registry::{
    Counter, Gauge, HistogramSnapshot, LogHistogram, MetricUnit, MetricsRegistry, MetricsSnapshot,
    SeriesSnapshot, SeriesValue,
};
pub use span::{AttrValue, CounterRecord, EventRecord, Recorder, SpanId, SpanRecord, Trace};

/// Canonical span, event and metric names — the trace vocabulary shared by
/// the single-GCD runner, the multi-GCD engine and the exporters. Using
/// these constants (rather than ad-hoc strings) is what lets
/// `xbfs trace summarize` understand any trace the workspace produces.
pub mod names {
    /// Span names, ordered by nesting depth.
    pub mod span {
        /// Root span of one BFS execution.
        pub const RUN: &str = "run";
        /// Status/parent-array initialization inside the measured window.
        pub const INIT: &str = "init";
        /// One BFS level (child of `run`).
        pub const LEVEL: &str = "level";
        /// Frontier expansion of one level (any strategy).
        pub const EXPAND: &str = "expand";
        /// Frontier-queue generation scan (single-scan kernel 1).
        pub const QUEUE_GEN: &str = "queue_gen";
        /// A collective (all-to-all / allgather / allreduce) on the fabric.
        pub const COLLECTIVE: &str = "collective";
        /// Level-synchronous checkpoint snapshot.
        pub const CHECKPOINT: &str = "checkpoint";
        /// Crash detection + rebuild + checkpoint restore.
        pub const RECOVERY: &str = "recovery";
        /// One kernel dispatch (leaf; carries rocprof counters as attrs).
        pub const KERNEL: &str = "kernel";
    }

    /// Instant-event names.
    pub mod event {
        /// The controller's per-level strategy decision.
        pub const STRATEGY_CHOICE: &str = "strategy.choice";
        /// An injected GCD crash was detected.
        pub const FAULT_CRASH: &str = "fault.crash";
        /// A collective retried dropped messages.
        pub const FAULT_RETRY: &str = "fault.retry";
        /// Device state was restored from a checkpoint.
        pub const RECOVERY_RESTORE: &str = "recovery.restore";
        /// A checkpoint was taken at a level boundary.
        pub const CHECKPOINT_TAKEN: &str = "checkpoint.taken";
    }

    /// Counter/gauge metric names.
    pub mod metric {
        /// Vertices in the expanded frontier.
        pub const FRONTIER_SIZE: &str = "frontier.size";
        /// Sum of frontier vertex degrees.
        pub const FRONTIER_EDGES: &str = "frontier.edges";
        /// The controller's edge ratio `r = frontier_edges / |E|`.
        pub const FRONTIER_RATIO: &str = "frontier.ratio";
        /// HBM fetch of a level's kernels, KB.
        pub const FETCH_KB: &str = "hbm.fetch_kb";
        /// Atomic operations issued by a level's kernels.
        pub const ATOMICS: &str = "wave.atomics";
        /// Candidate bytes moved through collectives.
        pub const EXCHANGED_BYTES: &str = "comm.exchanged_bytes";
        /// Bytes retransmitted by the retry layer.
        pub const RETRANSMITTED_BYTES: &str = "comm.retransmitted_bytes";
        /// Time spent in retry timeouts/backoff, ms.
        pub const RETRY_MS: &str = "comm.retry_ms";
        /// Bytes snapshotted by a checkpoint.
        pub const CHECKPOINT_BYTES: &str = "ckpt.bytes";
        /// Crash-recovery overhead, ms.
        pub const RECOVERY_MS: &str = "recovery.ms";
    }

    /// Canonical series names of the live metrics plane (the always-on
    /// [`crate::MetricsRegistry`] scraped via `--metrics-addr` and the
    /// `metrics` protocol op). Naming scheme: `<stage>.<what>[_total]`
    /// — dotted stages (`serve`, `worker`, `breaker`, `pool`,
    /// `cluster`), counters end in `_total`, gauges and histograms
    /// don't; Prometheus exposition mangles dots to underscores and
    /// prefixes `xbfs_`.
    pub mod live {
        /// Finished requests, labeled `status=ok|timeout|error`.
        pub const REQUESTS_TOTAL: &str = "serve.requests_total";
        /// Requests accepted into the admission queue.
        pub const ADMITTED_TOTAL: &str = "serve.admitted_total";
        /// Requests shed by admission control (queue full or breaker
        /// open), labeled `reason=queue|breaker`.
        pub const SHED_TOTAL: &str = "serve.shed_total";
        /// Requests rejected because the server was draining.
        pub const REJECTED_DRAINING_TOTAL: &str = "serve.rejected_draining_total";
        /// Replayed ids answered from the idempotency cache.
        pub const DEDUPED_TOTAL: &str = "serve.deduped_total";
        /// Unparseable protocol lines.
        pub const BAD_LINES_TOTAL: &str = "serve.bad_lines_total";
        /// Accepted TCP connections.
        pub const CONNECTIONS_TOTAL: &str = "serve.connections_total";
        /// Current admission-queue depth (gauge).
        pub const QUEUE_DEPTH: &str = "serve.queue_depth";
        /// Last retry_after_ms hint sent to a shed client (gauge).
        pub const RETRY_AFTER_MS: &str = "serve.retry_after_ms";
        /// Queue-wait distribution, wall ms (histogram).
        pub const QUEUE_WAIT_MS: &str = "serve.queue_wait_ms";
        /// End-to-end request latency, admission to the reply reaching
        /// the socket, wall ms (histogram), labeled
        /// `status=ok|timeout|error`.
        pub const REQUEST_LATENCY_MS: &str = "serve.request_latency_ms";
        /// The response-write stage: worker finished to the reply
        /// reaching the socket, wall ms (histogram).
        pub const WRITE_MS: &str = "serve.write_ms";
        /// The engine stage: one attempt's `Engine::run`, traversal and
        /// validation together, wall ms (histogram).
        pub const ENGINE_MS: &str = "serve.engine_ms";
        /// The certificate stage: the part of a certified attempt spent
        /// validating after the traversal, wall ms (histogram).
        pub const CERTIFY_MS: &str = "serve.certify_ms";
        /// Deadline headroom left at completion, wall ms (histogram).
        pub const DEADLINE_HEADROOM_MS: &str = "serve.deadline_headroom_ms";
        /// Per-worker state gauge: 0=idle, 1=running, 2=quarantined;
        /// labeled `worker=<i>`.
        pub const WORKER_STATE: &str = "worker.state";
        /// Requests finished per worker, labeled `worker=<i>`.
        pub const WORKER_REQUESTS_TOTAL: &str = "worker.requests_total";
        /// Engine rebuilds after quarantine, labeled `worker=<i>`.
        pub const WORKER_REBUILDS_TOTAL: &str = "worker.rebuilds_total";
        /// Contained worker panics, labeled `worker=<i>`.
        pub const WORKER_PANICS_TOTAL: &str = "worker.panics_total";
        /// Breaker state gauge: 0=closed, 1=half-open, 2=open.
        pub const BREAKER_STATE: &str = "breaker.state";
        /// Breaker state transitions (any direction).
        pub const BREAKER_TRANSITIONS_TOTAL: &str = "breaker.transitions_total";
        /// Breaker trips to open.
        pub const BREAKER_TRIPS_TOTAL: &str = "breaker.trips_total";
        /// Flight-recorder dumps written.
        pub const FLIGHT_DUMPS_TOTAL: &str = "serve.flight_dumps_total";
        /// Device pool cache hits, labeled `worker=<i>`.
        pub const POOL_HITS_TOTAL: &str = "pool.hits_total";
        /// Device pool cache misses, labeled `worker=<i>`.
        pub const POOL_MISSES_TOTAL: &str = "pool.misses_total";
        /// Bytes currently parked in the device pool (gauge), labeled
        /// `worker=<i>`.
        pub const POOL_BYTES: &str = "pool.bytes";
        /// Pool pressure events (cap trims/bypasses), labeled
        /// `worker=<i>`.
        pub const POOL_PRESSURE_TOTAL: &str = "pool.pressure_events_total";
        /// Cluster rank crashes recovered, labeled `rank=<r>`.
        pub const RANK_CRASHES_TOTAL: &str = "cluster.rank_crashes_total";
        /// Checkpoint restores performed, labeled `rank=<r>`.
        pub const RANK_RESTORES_TOTAL: &str = "cluster.rank_restores_total";
        /// Bytes retransmitted by the retry layer, labeled `rank=<r>`.
        pub const RANK_RETRANSMITTED_BYTES_TOTAL: &str = "cluster.rank_retransmitted_bytes_total";
        /// Modeled time spent expanding frontiers across cluster
        /// requests, µs.
        pub const CLUSTER_EXPAND_US_TOTAL: &str = "cluster.expand_us_total";
        /// Modeled time spent exchanging frontiers/collectives across
        /// cluster requests, µs.
        pub const CLUSTER_EXCHANGE_US_TOTAL: &str = "cluster.exchange_us_total";
        /// Members coalesced per dispatched multi-source batch
        /// (histogram).
        pub const BATCH_SIZE: &str = "serve.batch_size";
        /// Batches dispatched to the multi-source engine.
        pub const BATCHES_TOTAL: &str = "serve.batches_total";
        /// Last batch's fill of the configured width, percent (gauge).
        pub const BATCH_OCCUPANCY_PCT: &str = "serve.batch_occupancy_pct";
        /// Time the batcher lingered waiting for company, wall ms
        /// (histogram).
        pub const LINGER_WAIT_MS: &str = "serve.linger_wait_ms";
        /// Records appended to the write-ahead request journal.
        pub const JOURNAL_APPENDS_TOTAL: &str = "serve.journal_appends_total";
        /// Explicit fsyncs issued by the journal's fsync policy.
        pub const JOURNAL_FSYNCS_TOTAL: &str = "serve.journal_fsyncs_total";
        /// Bytes appended to the journal (frames included).
        pub const JOURNAL_BYTES_TOTAL: &str = "serve.journal_bytes_total";
        /// Incomplete requests re-enqueued from the journal at startup.
        pub const REPLAYED_REQUESTS_TOTAL: &str = "serve.replayed_requests_total";
        /// Startup journal recovery time — replay + dedup warm-start +
        /// re-enqueue, wall ms (gauge; 0 for a fresh journal).
        pub const RECOVERY_MS: &str = "serve.recovery_ms";
        /// Request lines shed for exceeding the length bound.
        pub const LONG_LINES_TOTAL: &str = "serve.long_lines_total";
        /// Connections closed by the idle read timeout.
        pub const IDLE_DISCONNECTS_TOTAL: &str = "serve.idle_disconnects_total";
        /// `ok` responses that needed a quarantine replay first.
        pub const RETRIED_OK_TOTAL: &str = "serve.retried_ok_total";
        /// Chaos tokens ignored because the server did not opt in.
        pub const CHAOS_IGNORED_TOTAL: &str = "serve.chaos_ignored_total";
        /// Finished responses whose connection was already gone.
        pub const UNDELIVERED_TOTAL: &str = "serve.undelivered_total";
        /// Connections that died with an unanswered in-flight request.
        pub const DROPPED_CONNECTIONS_TOTAL: &str = "serve.dropped_connections_total";
        /// Requests that rode a dispatched multi-source batch.
        pub const BATCHED_REQUESTS_TOTAL: &str = "serve.batched_requests_total";
        /// Widest batch coalesced so far (high-water gauge).
        pub const MAX_BATCH_SIZE: &str = "serve.max_batch_size";
        /// Deepest admission-queue backlog so far (high-water gauge).
        pub const MAX_QUEUE_DEPTH: &str = "serve.max_queue_depth";
    }
}
