//! Resilient BFS serving layer.
//!
//! A long-running daemon (`xbfs serve`) loads the graph once, keeps warm
//! pooled [`xbfs_core::Xbfs`] engines across worker threads, and serves BFS
//! requests over a JSON-lines-over-TCP protocol (`xbfs-serve-v1`). The
//! robustness story is the point:
//!
//! - **Admission control** — a bounded queue ([`AdmissionQueue`]) sheds
//!   load explicitly (`overloaded` + `retry_after_ms`) instead of letting
//!   latency collapse under backlog.
//! - **Deadlines** — per-request wall budgets: queue wait is charged
//!   against the budget, the remainder rides into the run loop as a
//!   modeled-time deadline ([`xbfs_core::RunRequest::deadline_ms`]), and
//!   exceedances surface as typed `timeout` responses.
//! - **Panic isolation** — worker threads wrap execution in
//!   `catch_unwind`; a panicking engine is quarantined (engine *and*
//!   device discarded — a corrupted pool must not survive), rebuilt
//!   fresh, and the request replayed. Replayed results are bit-identical
//!   to a single-shot run: that is the pool-reuse invariant PR 3/4
//!   established, and the e2e tests re-assert it through the socket.
//! - **Circuit breaker** — consecutive uncorrected integrity failures
//!   trip the breaker ([`CircuitBreaker`]); while open, BFS requests are
//!   rejected fast instead of burning a poisoned substrate.
//! - **Graceful drain** — `shutdown` (or [`ServerHandle::initiate_drain`])
//!   stops admissions, completes everything already accepted, closes
//!   connections, and flushes one merged report.
//! - **Cluster serving** — `--cluster N` swaps each worker's engine for a
//!   partitioned multi-GCD [`xbfs_multi_gcd::GcdCluster`]: the graph is
//!   partitioned once, per-request runs reuse the partitioning, injected
//!   rank crashes are recovered mid-request by level-synchronous
//!   checkpoint/restart *within the deadline budget*, and per-rank
//!   health (crashes, restores, retransmitted bytes) lands in the serve
//!   report. Responses carry the backend-independent levels-only digest,
//!   bit-identical to a fault-free single-device run.
//! - **Idempotent replay** — completed request ids are remembered in a
//!   small LRU ([`DedupCache`]); a client that reconnects after a timeout
//!   and resends an id gets the cached response (`"deduped":true`)
//!   instead of double-executing.
//! - **Durability** — an optional CRC-framed write-ahead journal
//!   ([`journal::Journal`]) records every admitted request and every
//!   terminal response; a restart on the same `--journal` path replays
//!   it torn-tail-tolerantly, warm-starts the dedup cache from
//!   completion records, and re-enqueues incomplete requests ahead of
//!   new traffic — so even SIGKILL of the process loses nothing.
//! - **Live metrics plane** — an always-on, lock-light registry
//!   ([`metrics::ServerMetrics`]) instrumenting every stage (admission,
//!   workers, breaker, pools, cluster health), scrapeable mid-load via
//!   the wire `metrics` op or a dedicated `--metrics-addr` listener
//!   (Prometheus text + `xbfs-metrics-v1` JSON), plus a crash-forensics
//!   flight recorder dumped on panic/quarantine/breaker-open and a live
//!   terminal dashboard ([`top`]).
//!
//! The load generator ([`loadgen`]) is the other half: an open-loop
//! client that drives a server past capacity on purpose and reports
//! shed/accepted counts and p50/p99/p999 latency from *scheduled* send
//! times (so coordinated omission cannot hide queueing delay).

pub mod breaker;
pub mod chaos;
pub mod dedup;
pub mod journal;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod top;
pub mod worker;

pub use breaker::CircuitBreaker;
pub use chaos::{ChaosAction, ChaosPlan};
pub use dedup::DedupCache;
pub use journal::{replay_bytes, FsyncPolicy, Journal, Record, ReplayedJournal};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use protocol::{BfsRequest, Request, ResponseSummary, PROTOCOL};
pub use queue::{Admission, AdmissionQueue, QueueStats};
pub use server::{DeviceFactory, ServeConfig, ServeReport, Server, ServerHandle};
