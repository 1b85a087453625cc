//! Direction-optimizing distributed BFS over a cluster of simulated GCDs.
//!
//! This is the system the paper positions itself as the basis for: XBFS-
//! style per-GCD kernels inside a Graph500-style 1D-partitioned BFS.
//!
//! Per level, each rank either
//!
//! * **pushes** (top-down): expands its local frontier, claims locally
//!   owned neighbors directly, and buckets remote neighbors by owner for a
//!   personalized all-to-all, after which destination ranks CAS-claim the
//!   received candidates; or
//! * **pulls** (bottom-up): the ranks allgather their slice of a global
//!   frontier *bitmap*, then every locally unvisited vertex probes its
//!   (global) neighbors against the bitmap with early termination — the
//!   XBFS bottom-up idea in distributed form, trading candidate traffic
//!   for one `|V|/8`-byte bitmap exchange.
//!
//! The global controller switches on the same edge-ratio-vs-α rule as
//! single-GCD XBFS, with thresholds allreduced every level.
//!
//! # Fault tolerance
//!
//! [`GcdCluster::run_with`] executes under a [`FaultConfig`]: the
//! collectives retry dropped messages with exponential backoff (charging
//! retransmitted bytes and backoff waits to the cost model), bandwidth-
//! degradation windows slow every link, and GCD crashes are recovered by
//! level-synchronous checkpoint/restart — the status-array partitions are
//! snapshotted every `checkpoint_every` levels, and on a crash the cluster
//! either promotes a spare GCD or repartitions the dead rank's block across
//! the survivors, then re-executes from the last checkpointed level.
//! Because levels are deterministic, a recovered run produces bit-identical
//! BFS levels to a fault-free run.

use crate::faults::{
    detection_us, faulty_allgather, faulty_allreduce, faulty_alltoall, FaultConfig, FaultEvent,
    FaultPlan, RecoveryPolicy,
};
use crate::interconnect::LinkModel;
use crate::partition::Partition;
use crate::rank::{fleet_elapsed, RankState};
use gcd_sim::ArchProfile;
use std::collections::HashMap;
use xbfs_core::engine::{check_deadline, check_source, validate_levels};
use xbfs_core::{Engine, EngineError, Inject, RunOutcome, RunRequest, SlotAnswer, XbfsError};
use xbfs_graph::reference::traversed_edges;
use xbfs_graph::{Csr, VertexId};
use xbfs_telemetry::{attrs, names, Recorder, SpanId, Trace};

/// Not-yet-visited marker, shared with single-GCD XBFS.
pub use xbfs_graph::UNVISITED;

/// Configuration of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of GCDs.
    pub num_gcds: usize,
    /// Bottom-up threshold on the global edge ratio (paper: 0.1).
    pub alpha: f64,
    /// Force push-only operation (the non-direction-optimizing baseline).
    pub push_only: bool,
}

impl ClusterConfig {
    /// Defaults: 8 GCDs (one Frontier node), α = 0.1, direction-optimizing.
    pub fn node_of_8() -> Self {
        Self {
            num_gcds: 8,
            alpha: 0.1,
            push_only: false,
        }
    }
}

/// When one collective of a level ran and what the retry layer charged
/// it. Its kind and payload are already on the level row (`bottom_up`,
/// `exchanged_bytes`); this is the part the row's sums cannot give back.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveStats {
    /// Fleet clock when the collective started, µs.
    pub start_us: f64,
    /// Fleet clock when every rank had finished it, µs.
    pub end_us: f64,
    /// Bytes this collective retransmitted (link drops).
    pub retransmitted_bytes: u64,
    /// Retry timeouts/backoff this collective waited, ms.
    pub retry_ms: f64,
}

/// A level-synchronous checkpoint taken right after a level.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointStats {
    /// Fleet clock when the snapshot started, µs.
    pub start_us: f64,
    /// Fleet clock when every rank had copied its share out, µs.
    pub end_us: f64,
    /// Bytes snapshotted (status array + next frontier).
    pub bytes: u64,
}

/// What one level did.
#[derive(Debug, Clone)]
pub struct ClusterLevelStats {
    /// Level this row describes.
    pub level: u32,
    /// Execution attempt of this level (0 = first; >0 means the level was
    /// re-executed after a crash recovery).
    pub attempt: u32,
    /// True if this level ran bottom-up (pull).
    pub bottom_up: bool,
    /// Vertices in the global frontier at this level.
    pub frontier_count: u64,
    /// Sum of their degrees.
    pub frontier_edges: u64,
    /// Candidate bytes moved through the all-to-all (push levels).
    pub exchanged_bytes: u64,
    /// Bytes retransmitted by the retry layer (link drops).
    pub retransmitted_bytes: u64,
    /// Time spent in retry timeouts/backoff, ms.
    pub retry_ms: f64,
    /// Crash detection + checkpoint-restore time charged before this level
    /// ran, ms (non-zero only on the first level after a recovery).
    pub recovery_ms: f64,
    /// The checkpoint taken right after this level, if one was.
    pub checkpoint: Option<CheckpointStats>,
    /// Modeled time this level spent expanding/claiming frontiers on
    /// the devices (kernel launches outside the collectives), ms.
    pub expand_ms: f64,
    /// Modeled time this level spent in inter-GCD exchange (all-to-all
    /// or allgather plus the termination allreduce), ms.
    pub exchange_ms: f64,
    /// Modeled wall time of the level (compute + comm + faults), ms.
    pub time_ms: f64,
    /// Fleet clock when the level started, µs. Stored, like every
    /// instant below, because recovery rewinds the level counter and a
    /// round trip through `time_ms` does not give the same bits back;
    /// [`GcdCluster::trace_of`] draws its spans from these.
    pub start_us: f64,
    /// Fleet clock when the level ended, µs.
    pub end_us: f64,
    /// The frontier exchange: all-to-all (push) or allgather (pull).
    pub exchange: CollectiveStats,
    /// The termination allreduce that closes the level.
    pub allreduce: CollectiveStats,
}

impl ClusterLevelStats {
    /// True if a checkpoint was taken right after this level.
    pub fn checkpointed(&self) -> bool {
        self.checkpoint.is_some()
    }
}

/// One crash recovery performed during a run.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Level at which the crash was detected.
    pub detected_level: u32,
    /// Rank that died.
    pub dead_rank: usize,
    /// Recovery strategy applied.
    pub policy: RecoveryPolicy,
    /// Level execution resumed from (the last checkpoint).
    pub restored_level: u32,
    /// GCDs in the cluster after recovery.
    pub gcds_after: usize,
    /// Detection + rebuild + restore time, ms.
    pub overhead_ms: f64,
    /// Fleet clock when the rank died, µs.
    pub crash_us: f64,
    /// Fleet clock when execution resumed, µs.
    pub resume_us: f64,
    /// Index into [`ClusterRun::level_stats`] of the first level executed
    /// after this recovery: what orders it among the level rows.
    pub before_row: usize,
}

/// Cumulative per-rank health counters, maintained across runs on the
/// same cluster and drained by [`GcdCluster::take_health`]. Indexed by
/// rank; the vector keeps its initial length even after a graceful-
/// degradation recovery shrinks the cluster, so rank rows stay stable
/// across a serving session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankHealth {
    /// Injected GCD crashes observed on this rank.
    pub crashes: u64,
    /// Checkpoint restores this rank participated in.
    pub checkpoints_restored: u64,
    /// Bytes this rank retransmitted through the retry layer.
    pub retransmitted_bytes: u64,
}

/// Result of a distributed BFS.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Source vertex of the run.
    pub source: VertexId,
    /// Configuration the run started with.
    pub config: ClusterConfig,
    /// The full fault schedule the run executed under (empty = fault-free).
    pub fault_plan: FaultPlan,
    /// Global per-vertex levels.
    pub levels: Vec<u32>,
    /// Per-level statistics in execution order (levels re-executed after a
    /// recovery appear once per attempt).
    pub level_stats: Vec<ClusterLevelStats>,
    /// Crash recoveries performed, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// Modeled end-to-end time, ms (max over GCD timelines).
    pub total_ms: f64,
    /// Edges traversed, Graph500 convention.
    pub traversed_edges: u64,
    /// Aggregate cluster GTEPS.
    pub gteps: f64,
    /// Per-GCD GTEPS (aggregate / the *initial* GCD count) — the paper's
    /// headline metric, kept comparable across degraded runs.
    pub gteps_per_gcd: f64,
    /// Fleet clock when initialization finished, µs.
    pub init_end_us: f64,
}

impl ClusterRun {
    /// Backend-independent result digest ([`xbfs_core::levels_digest`]
    /// over source + levels). Excludes the modeled timeline, so it
    /// compares bit-for-bit against `BfsRun::result_digest()` from a
    /// single-device run of the same traversal — and stays identical
    /// between a fault-free run and one that paid for recoveries.
    pub fn result_digest(&self) -> u64 {
        xbfs_core::levels_digest(self.source, &self.levels)
    }

    /// What cluster serving answers with: depth is the level count and
    /// the digest is the levels-only [`ClusterRun::result_digest`].
    pub fn answer(&self) -> SlotAnswer {
        let cert = xbfs_graph::certificate(self.source, &self.levels);
        SlotAnswer {
            source: self.source,
            depth: cert.depth + 1,
            reached: cert.visited,
            gteps: self.gteps,
            digest: cert.levels_checksum,
        }
    }
}

/// Host-side snapshot taken at a level boundary: everything needed to
/// resume execution from the start of `next_level`.
struct Checkpoint {
    /// Level execution resumes at.
    next_level: u32,
    /// Global status array at the boundary.
    status: Vec<u32>,
    /// Global ids of the frontier for `next_level`.
    frontier: Vec<u32>,
    /// Frontier size (== frontier.len(), cached as u64).
    frontier_count: u64,
    /// Sum of frontier degrees.
    frontier_edges: u64,
}

/// Per-level communication tally returned by [`GcdCluster::run_level`].
struct LevelComm {
    exchanged: u64,
    /// The exchange collective (the level loop adds the allreduce).
    exchange: CollectiveStats,
    retry_us: f64,
    /// Modeled µs the level's device phases (expand/claim/pull) took.
    expand_us: f64,
}

/// Host-side scratch reused across levels and runs so the level loop does
/// no heap allocation. Everything here is host bookkeeping; reuse never
/// touches the modeled timeline.
#[derive(Default)]
struct LevelScratch {
    /// `send[src][dst]` byte counts for the push all-to-all.
    send: Vec<Vec<u64>>,
    /// Per-destination receive byte counts, refilled for each rank.
    recv: Vec<u64>,
    /// Per-rank inbox fill levels.
    inbox_lens: Vec<usize>,
    /// OR-merge of the per-rank frontier bitmaps (pull levels).
    merged: Vec<u32>,
}

impl LevelScratch {
    /// Resize the comm buffers for the current cluster shape (changes only
    /// after a graceful-degradation recovery shrinks the cluster).
    fn ensure(&mut self, p: usize, bitmap_words: usize) {
        if self.send.len() != p {
            self.send = vec![vec![0u64; p]; p];
            self.recv = vec![0u64; p];
            self.inbox_lens = vec![0usize; p];
        }
        if self.merged.len() != bitmap_words {
            self.merged = vec![0u32; bitmap_words];
        }
    }
}

/// A cluster of simulated GCDs ready to run BFS on a partitioned graph.
pub struct GcdCluster<'g> {
    graph: &'g Csr,
    partition: Partition,
    link: LinkModel,
    cfg: ClusterConfig,
    ranks: Vec<RankState>,
    scratch: LevelScratch,
    health: Vec<RankHealth>,
    /// See [`GcdCluster::take_phase_us`].
    phase_us: (f64, f64),
}

impl<'g> GcdCluster<'g> {
    /// Partition `graph` across `cfg.num_gcds` simulated MI250X GCDs.
    pub fn new(graph: &'g Csr, cfg: ClusterConfig, link: LinkModel) -> Result<Self, XbfsError> {
        if cfg.num_gcds < 1 {
            return Err(XbfsError::InvalidConfig(
                "num_gcds must be at least 1".into(),
            ));
        }
        if graph.num_vertices() == 0 {
            return Err(XbfsError::EmptyGraph);
        }
        let wavefront = ArchProfile::mi250x_gcd().wavefront_size;
        let partition = Partition::new(graph, cfg.num_gcds, wavefront);
        let ranks = (partition.parts.iter())
            .map(|part| RankState::new(graph, part, cfg.num_gcds))
            .collect();
        Ok(Self {
            graph,
            partition,
            link,
            cfg,
            ranks,
            scratch: LevelScratch::default(),
            health: vec![RankHealth::default(); cfg.num_gcds],
            phase_us: (0.0, 0.0),
        })
    }

    /// Number of GCDs currently in the cluster (shrinks after a
    /// graceful-degradation recovery).
    pub fn num_gcds(&self) -> usize {
        self.cfg.num_gcds
    }

    /// Per-rank health counters accumulated since construction (or the
    /// last [`GcdCluster::take_health`]).
    pub fn rank_health(&self) -> &[RankHealth] {
        &self.health
    }

    /// Drain the per-rank health counters. Serving layers flush these
    /// into their own accumulators after every request, so a quarantined
    /// and rebuilt cluster starts clean without losing history.
    pub fn take_health(&mut self) -> Vec<RankHealth> {
        let fresh = vec![RankHealth::default(); self.health.len()];
        std::mem::replace(&mut self.health, fresh)
    }

    /// Attribute a collective's retransmitted bytes across the ranks
    /// that participated. Ring/pairwise collectives do not expose
    /// per-sender counts, so the model splits evenly (remainder to
    /// rank 0); the personalized all-to-all attributes exactly.
    fn spread_retransmits(health: &mut [RankHealth], p: usize, bytes: u64) {
        if bytes == 0 || p == 0 {
            return;
        }
        let share = bytes / p as u64;
        let rem = bytes % p as u64;
        for h in health.iter_mut().take(p) {
            h.retransmitted_bytes += share;
        }
        if let Some(h) = health.first_mut() {
            h.retransmitted_bytes += rem;
        }
    }

    /// Drain the modeled `(expand, exchange)` µs summed over the runs the
    /// [`Engine`] impl completed since the last call — how much of the
    /// served time went to expanding frontiers vs exchanging them.
    pub fn take_phase_us(&mut self) -> (f64, f64) {
        std::mem::take(&mut self.phase_us)
    }

    /// Run one fault-free distributed BFS from `source`.
    pub fn run(&mut self, source: VertexId) -> Result<ClusterRun, XbfsError> {
        self.run_with(source, &FaultConfig::none(), None)
    }

    /// The full form of [`GcdCluster::run`]: one distributed BFS from
    /// `source` under a fault schedule and an optional budget.
    ///
    /// * `faults`: collectives retry dropped messages (`faults::MAX_RETRIES`);
    ///   GCD crashes are recovered per `faults.recovery` from the last
    ///   checkpoint (the initial state always counts as one). After a
    ///   [`RecoveryPolicy::Degrade`] recovery, the cluster permanently
    ///   runs with one GCD fewer.
    /// * `deadline_ms` is a modeled-time budget: the fleet clock is
    ///   checked between levels — and immediately after a crash recovery
    ///   is charged — and a run that crosses it aborts with
    ///   [`XbfsError::DeadlineExceeded`] instead of finishing. A run
    ///   that completes on its last level is never a timeout. Recovery
    ///   overhead counts against the budget, which is what lets a serving
    ///   layer promise "recovered within the request's remaining
    ///   deadline". The cluster state stays reusable after an abort: the
    ///   next run's init re-uploads status arrays and resets timelines.
    pub fn run_with(
        &mut self,
        source: VertexId,
        faults: &FaultConfig,
        deadline_ms: Option<f64>,
    ) -> Result<ClusterRun, XbfsError> {
        let n = self.graph.num_vertices();
        check_source(source, n)?;
        faults.plan.validate(self.cfg.num_gcds)?;
        let initial_p = self.cfg.num_gcds;
        let m_global = self.graph.num_edges().max(1) as f64;

        // --- init (measured) ---
        for r in &self.ranks {
            r.device.reset_timeline();
            r.device.fill_u32(0, &r.status, UNVISITED);
        }
        let owner = self.partition.owner(source);
        {
            let part = &self.partition.parts[owner];
            let r = &self.ranks[owner];
            r.status.store(part.to_local(source) as usize, 0);
            r.frontier.store(0, source);
            r.device.charge_transfer(0, 8);
        }
        let mut frontier_lens = vec![0usize; self.cfg.num_gcds];
        frontier_lens[owner] = 1;
        let mut frontier_count = 1u64;
        let mut frontier_edges = u64::from(self.graph.degree(source));
        let mut level = 0u32;
        let init_end_us = fleet_elapsed(&self.ranks);
        let mut clock_us = init_end_us;
        let mut stats: Vec<ClusterLevelStats> = Vec::new();
        let mut recoveries: Vec<RecoveryReport> = Vec::new();

        // The initial state is the implicit first checkpoint: resuming from
        // it replays the whole run. Host-side, so nothing is charged.
        let mut ckpt = if faults.plan.is_empty() {
            None
        } else {
            let mut status = vec![UNVISITED; n];
            status[source as usize] = 0;
            Some(Checkpoint {
                next_level: 0,
                status,
                frontier: vec![source],
                frontier_count: 1,
                frontier_edges,
            })
        };
        let mut fired_crashes: Vec<(usize, u32)> = Vec::new();
        let mut attempts: HashMap<u32, u32> = HashMap::new();
        let mut pending_recovery_us = 0.0f64;

        loop {
            // Crash scheduled at this level and not yet handled?
            if let Some(rank) = faults.plan.crash_at(level) {
                if rank < self.cfg.num_gcds && !fired_crashes.contains(&(rank, level)) {
                    fired_crashes.push((rank, level));
                    if let Some(h) = self.health.get_mut(rank) {
                        h.crashes += 1;
                    }
                    let restored = ckpt
                        .as_ref()
                        .expect("a crash needs a non-empty plan, which seeded the checkpoint");
                    let report = self.recover(rank, level, faults, restored, stats.len())?;
                    level = restored.next_level;
                    frontier_count = restored.frontier_count;
                    frontier_edges = restored.frontier_edges;
                    frontier_lens = self.restore_frontiers(restored);
                    pending_recovery_us += report.overhead_ms * 1000.0;
                    clock_us = fleet_elapsed(&self.ranks);
                    recoveries.push(report);
                    // Every rank present after recovery restored its
                    // status partition from the checkpoint.
                    let p_now = self.cfg.num_gcds;
                    for h in self.health.iter_mut().take(p_now) {
                        h.checkpoints_restored += 1;
                    }
                    // A recovery that exhausted the budget aborts here
                    // instead of burning levels it cannot finish.
                    check_deadline(deadline_ms, clock_us, level)?;
                    continue;
                }
            }

            let p = self.cfg.num_gcds;
            let ratio = frontier_edges as f64 / m_global;
            let bottom_up = !self.cfg.push_only && ratio > self.cfg.alpha;
            let comm = self.run_level(level, bottom_up, &frontier_lens, faults)?;

            // Barrier + counter allreduce (retries charged like any other
            // collective).
            let ar_t0 = fleet_elapsed(&self.ranks);
            let ar = faulty_allreduce(&self.link, &faults.plan, level, p, 16)?;
            let mut t = fleet_elapsed(&self.ranks);
            t += ar.time_us.max(self.ranks[0].device.arch().sync_us);
            for r in &self.ranks {
                r.device.advance_to(t);
            }
            Self::spread_retransmits(&mut self.health, p, ar.retransmitted_bytes);
            let mut claimed = 0u64;
            let mut claimed_edges = 0u64;
            for (len, r) in frontier_lens.iter_mut().zip(&self.ranks) {
                let (nf, edges) = r.claimed();
                *len = nf;
                claimed += nf as u64;
                claimed_edges += edges;
            }

            let attempt = attempts.get(&level).copied().unwrap_or(0);
            *attempts.entry(level).or_default() += 1;
            stats.push(ClusterLevelStats {
                level,
                attempt,
                bottom_up,
                frontier_count,
                frontier_edges,
                exchanged_bytes: comm.exchanged,
                retransmitted_bytes: comm.exchange.retransmitted_bytes + ar.retransmitted_bytes,
                retry_ms: (comm.retry_us + ar.retry_us) / 1000.0,
                recovery_ms: pending_recovery_us / 1000.0,
                checkpoint: None,
                expand_ms: comm.expand_us / 1000.0,
                exchange_ms: ((comm.exchange.end_us - comm.exchange.start_us) + (t - ar_t0))
                    / 1000.0,
                time_ms: (t - clock_us) / 1000.0,
                start_us: clock_us,
                end_us: t,
                exchange: comm.exchange,
                allreduce: CollectiveStats {
                    start_us: ar_t0,
                    end_us: t,
                    retransmitted_bytes: ar.retransmitted_bytes,
                    retry_ms: ar.retry_us / 1000.0,
                },
            });
            pending_recovery_us = 0.0;
            clock_us = t;
            if claimed == 0 {
                break;
            }
            check_deadline(deadline_ms, clock_us, level + 1)?;
            self.ranks.iter_mut().for_each(RankState::swap_frontiers);
            frontier_count = claimed;
            frontier_edges = claimed_edges;
            level += 1;

            // Level-synchronous checkpoint: the boundary between levels is
            // the natural consistency point.
            if faults.checkpoint_every > 0 && level.is_multiple_of(faults.checkpoint_every) {
                let ck_t0 = fleet_elapsed(&self.ranks);
                ckpt = Some(self.take_checkpoint(
                    level,
                    &frontier_lens,
                    frontier_count,
                    frontier_edges,
                ));
                clock_us = fleet_elapsed(&self.ranks);
                if let Some(row) = stats.last_mut() {
                    row.checkpoint = Some(CheckpointStats {
                        start_us: ck_t0,
                        end_us: clock_us,
                        bytes: 4 * (n as u64 + frontier_count),
                    });
                }
            }
        }

        // --- collect ---
        let total_us = fleet_elapsed(&self.ranks);
        let total_ms = total_us / 1000.0;
        let mut levels = vec![UNVISITED; n];
        for (part, r) in self.partition.parts.iter().zip(&self.ranks) {
            let local = r.status.to_host();
            levels[part.start as usize..part.end as usize].copy_from_slice(&local[..part.len()]);
        }
        let traversed_edges = traversed_edges(self.graph, &levels);
        let gteps = xbfs_core::engine::gteps(traversed_edges, total_ms * 1e-3);
        Ok(ClusterRun {
            source,
            config: ClusterConfig {
                num_gcds: initial_p,
                ..self.cfg
            },
            fault_plan: faults.plan.clone(),
            levels,
            level_stats: stats,
            recoveries,
            total_ms,
            traversed_edges,
            gteps,
            gteps_per_gcd: gteps / initial_p as f64,
            init_end_us,
        })
    }

    /// Render a finished run as its `run > {init, level > collective,
    /// checkpoint, recovery}` span tree on the modeled cluster timeline
    /// (max over GCD clocks), with fault/recovery/checkpoint events and
    /// the frontier, byte and retry counter series. A pure function of
    /// the record and this cluster's graph. Spans open in execution
    /// order — level rows as stored, each recovery just ahead of its
    /// `before_row`, a checkpoint right after the level that took it — so
    /// ids, and every byte a sink renders from them, are stable.
    pub fn trace_of(&self, run: &ClusterRun) -> Trace {
        let rec = Recorder::new();
        let alpha = run.config.alpha;
        let edges = self.graph.num_edges();
        let run_span = rec.begin_span(None, names::span::RUN, 0, 0.0);
        let init_span = rec.begin_span(Some(run_span), names::span::INIT, 0, 0.0);
        rec.end_span(init_span, run.init_end_us);

        let mut recoveries = run.recoveries.iter().peekable();
        for (i, row) in run.level_stats.iter().enumerate() {
            while let Some(r) = recoveries.next_if(|r| r.before_row == i) {
                rec.event(
                    Some(run_span),
                    names::event::FAULT_CRASH,
                    r.dead_rank,
                    r.crash_us,
                    attrs!["rank" => r.dead_rank, "level" => r.detected_level],
                );
                let rspan = rec.begin_span(Some(run_span), names::span::RECOVERY, 0, r.crash_us);
                rec.span_attrs(
                    rspan,
                    attrs![
                        "dead_rank" => r.dead_rank,
                        "policy" => r.policy.to_string(),
                        "restored_level" => r.restored_level,
                        "gcds_after" => r.gcds_after,
                        "overhead_ms" => r.overhead_ms,
                    ],
                );
                rec.event(
                    Some(rspan),
                    names::event::RECOVERY_RESTORE,
                    0,
                    r.resume_us,
                    attrs!["restored_level" => r.restored_level],
                );
                rec.end_span(rspan, r.resume_us);
                rec.counter(names::metric::RECOVERY_MS, 0, r.resume_us, r.overhead_ms);
            }

            let (t0, t1) = (row.start_us, row.end_us);
            let ratio = row.frontier_edges as f64 / edges.max(1) as f64;
            let (mode, exchange) = if row.bottom_up {
                ("pull", "allgather")
            } else {
                ("push", "alltoall")
            };
            let counter = |name, ts, value| rec.counter(name, 0, ts, value);
            let lvl_span = rec.begin_span(Some(run_span), names::span::LEVEL, 0, t0);
            rec.event(
                Some(lvl_span),
                names::event::STRATEGY_CHOICE,
                0,
                t0,
                attrs!["mode" => mode, "ratio" => ratio, "alpha" => alpha],
            );
            counter(names::metric::FRONTIER_SIZE, t0, row.frontier_count as f64);
            counter(names::metric::FRONTIER_EDGES, t0, row.frontier_edges as f64);
            counter(names::metric::FRONTIER_RATIO, t0, ratio);
            let (exchanged, resent) = (row.exchanged_bytes, row.retransmitted_bytes);
            collective_span(&rec, lvl_span, exchange, Some(exchanged), &row.exchange);
            collective_span(&rec, lvl_span, "allreduce", None, &row.allreduce);
            let mut summary = attrs![
                "level" => row.level,
                "attempt" => row.attempt,
                "mode" => mode,
                "frontier_count" => row.frontier_count,
                "frontier_edges" => row.frontier_edges,
                "exchanged_bytes" => exchanged,
                "retransmitted_bytes" => resent,
                "retry_ms" => row.retry_ms,
                "recovery_ms" => row.recovery_ms,
            ];
            if row.checkpointed() {
                summary.extend(attrs!["checkpointed" => true]);
            }
            rec.span_attrs(lvl_span, summary);
            counter(names::metric::EXCHANGED_BYTES, t1, exchanged as f64);
            counter(names::metric::RETRANSMITTED_BYTES, t1, resent as f64);
            counter(names::metric::RETRY_MS, t1, row.retry_ms);
            rec.end_span(lvl_span, t1);

            if let Some(ck) = &row.checkpoint {
                // The snapshot is the state at the start of the next
                // level, which is the level its span and event name.
                let taken = attrs!["level" => row.level + 1, "bytes" => ck.bytes];
                let span = rec.begin_span(Some(run_span), names::span::CHECKPOINT, 0, ck.start_us);
                rec.span_attrs(span, taken.clone());
                rec.event(
                    Some(span),
                    names::event::CHECKPOINT_TAKEN,
                    0,
                    ck.end_us,
                    taken,
                );
                rec.end_span(span, ck.end_us);
                counter(names::metric::CHECKPOINT_BYTES, ck.end_us, ck.bytes as f64);
            }
        }

        let mut summary = attrs![
            "engine" => "xbfs-cluster",
            "num_gcds" => run.config.num_gcds,
            "source" => run.source,
            "vertices" => run.levels.len(),
            "edges" => edges,
            "alpha" => alpha,
            "push_only" => run.config.push_only,
        ];
        if !run.fault_plan.is_empty() {
            summary.extend(attrs!["fault_plan" => run.fault_plan.to_spec()]);
        }
        let depth = run.level_stats.iter().map(|l| l.level + 1).max();
        summary.extend(attrs![
            "depth" => depth.unwrap_or(0),
            "total_ms" => run.total_ms,
            "traversed_edges" => run.traversed_edges,
            "gteps" => run.gteps,
            "recoveries" => run.recoveries.len(),
        ]);
        rec.span_attrs(run_span, summary);
        // The run ends with its last level (the one that claimed nothing
        // takes no checkpoint).
        rec.end_span(run_span, run.level_stats.last().map_or(0.0, |l| l.end_us));
        rec.finish()
    }

    /// Snapshot the global status array and frontier at the start of
    /// `next_level`, charging the device→host copies.
    fn take_checkpoint(
        &self,
        next_level: u32,
        frontier_lens: &[usize],
        frontier_count: u64,
        frontier_edges: u64,
    ) -> Checkpoint {
        let n = self.graph.num_vertices();
        let mut status = vec![UNVISITED; n];
        let mut frontier = Vec::with_capacity(frontier_count as usize);
        for ((part, r), &flen) in self
            .partition
            .parts
            .iter()
            .zip(&self.ranks)
            .zip(frontier_lens)
        {
            let local = r.status.to_host();
            status[part.start as usize..part.end as usize].copy_from_slice(&local[..part.len()]);
            for i in 0..flen {
                frontier.push(r.frontier.load(i));
            }
            r.device
                .charge_transfer(0, 4 * (part.len() as u64 + flen as u64));
        }
        let t = fleet_elapsed(&self.ranks);
        for r in &self.ranks {
            r.device.advance_to(t);
        }
        Checkpoint {
            next_level,
            status,
            frontier,
            frontier_count,
            frontier_edges,
        }
    }

    /// Handle the death of `rank` detected at `level`: rebuild capacity per
    /// the recovery policy, then restore device state from `restored`,
    /// the last checkpoint (the implicit initial one if none was taken).
    fn recover(
        &mut self,
        rank: usize,
        level: u32,
        faults: &FaultConfig,
        restored: &Checkpoint,
        before_row: usize,
    ) -> Result<RecoveryReport, XbfsError> {
        let crash_us = fleet_elapsed(&self.ranks);
        let t_detect = crash_us + detection_us();

        let gcds_after = match faults.recovery {
            RecoveryPolicy::PromoteSpare => {
                // Fresh GCD takes over the dead rank's slot: same partition,
                // graph block re-uploaded over the fabric.
                let part = &self.partition.parts[rank];
                self.ranks[rank] =
                    RankState::respawn(self.graph, part, self.cfg.num_gcds, t_detect);
                self.cfg.num_gcds
            }
            RecoveryPolicy::Degrade => {
                let survivors = self.cfg.num_gcds - 1;
                if survivors == 0 {
                    return Err(XbfsError::Unrecoverable {
                        rank,
                        level,
                        reason: "no surviving GCDs to repartition onto".into(),
                    });
                }
                // Repartition the whole graph across the survivors; every
                // rank re-uploads its (larger) block.
                let wavefront = self.ranks[0].device.arch().wavefront_size;
                self.partition = Partition::new(self.graph, survivors, wavefront);
                self.ranks = (self.partition.parts.iter())
                    .map(|part| RankState::respawn(self.graph, part, survivors, t_detect))
                    .collect();
                self.cfg.num_gcds = survivors;
                survivors
            }
        };

        // Restore status partitions (host→device, charged) and advance all
        // surviving timelines past detection.
        for (part, r) in self.partition.parts.iter().zip(&self.ranks) {
            r.device.advance_to(t_detect);
            if !part.is_empty() {
                let mut local = restored.status[part.start as usize..part.end as usize].to_vec();
                local.resize(part.len().max(1), UNVISITED);
                r.status.host_write(&local);
            } else {
                r.status.host_fill(UNVISITED);
            }
            r.device.charge_transfer(0, 4 * part.len() as u64);
        }
        let t_done = fleet_elapsed(&self.ranks);
        for r in &self.ranks {
            r.device.advance_to(t_done);
        }

        Ok(RecoveryReport {
            detected_level: level,
            dead_rank: rank,
            policy: faults.recovery,
            restored_level: restored.next_level,
            gcds_after,
            overhead_ms: (t_done - (t_detect - detection_us())) / 1000.0,
            crash_us,
            resume_us: t_done,
            before_row,
        })
    }

    /// Refill per-rank frontier queues from a checkpoint's global frontier.
    fn restore_frontiers(&self, ckpt: &Checkpoint) -> Vec<usize> {
        let mut lens = vec![0usize; self.cfg.num_gcds];
        for &v in &ckpt.frontier {
            let o = self.partition.owner(v);
            let r = &self.ranks[o];
            r.frontier.store(lens[o], v);
            lens[o] += 1;
        }
        lens
    }

    /// One level: every rank's [`RankState::first_step`], the exchange,
    /// every rank's [`RankState::second_step`].
    fn run_level(
        &mut self,
        level: u32,
        pull: bool,
        frontier_lens: &[usize],
        faults: &FaultConfig,
    ) -> Result<LevelComm, XbfsError> {
        let t_entry = fleet_elapsed(&self.ranks);
        let (ranks, partition) = (&self.ranks, &self.partition);
        for ((r, part), &qlen) in ranks.iter().zip(&partition.parts).zip(frontier_lens) {
            r.first_step(level, pull, part, partition, qlen);
        }
        let (exchanged, exchange, retry_us) = self.exchange(level, pull, faults)?;
        let steps = self.ranks.iter().zip(&self.partition.parts);
        for ((r, part), &inbox_len) in steps.zip(&self.scratch.inbox_lens) {
            r.second_step(level, pull, part, inbox_len);
        }
        let t_exit = fleet_elapsed(&self.ranks);
        Ok(LevelComm {
            exchanged,
            exchange,
            retry_us,
            expand_us: (exchange.start_us - t_entry) + (t_exit - exchange.end_us),
        })
    }

    /// The host side of a level, in rank order: the personalized
    /// all-to-all of the push buckets into the owners' inboxes, or the
    /// allgather of the pull bitmaps merged into every rank's copy (data
    /// motion charged by the collective). Returns the bytes exchanged, the
    /// collective and its retry wait, µs.
    fn exchange(
        &mut self,
        level: u32,
        pull: bool,
        faults: &FaultConfig,
    ) -> Result<(u64, CollectiveStats, f64), XbfsError> {
        let Self {
            graph,
            link,
            cfg,
            ranks,
            scratch,
            health,
            ..
        } = self;
        let p = cfg.num_gcds;
        scratch.ensure(p, ranks[0].bitmap.len());
        let plan = &faults.plan;
        let t0 = fleet_elapsed(ranks);
        let (exchanged, t_end, retransmitted, retry_us) = if pull {
            // Bytes per rank: its slice of |V|/8.
            let slice_bytes = (graph.num_vertices().div_ceil(8) / p.max(1)).max(4) as u64;
            let cost = faulty_allgather(link, plan, level, p, slice_bytes)?;
            Self::spread_retransmits(health, p, cost.retransmitted_bytes);
            // OR every rank's slice together, then hand each the result.
            let merged = &mut scratch.merged;
            merged.fill(0);
            for r in ranks.iter() {
                for (i, m) in merged.iter_mut().enumerate() {
                    *m |= r.bitmap.load(i);
                }
            }
            for r in ranks.iter() {
                r.bitmap.host_write(merged);
            }
            let t_end = t0 + cost.time_us;
            (
                slice_bytes * p as u64,
                t_end,
                cost.retransmitted_bytes,
                cost.retry_us,
            )
        } else {
            let (send, recv) = (&mut scratch.send, &mut scratch.recv);
            for (r, row) in ranks.iter().zip(send.iter_mut()) {
                for (d, cell) in row.iter_mut().enumerate() {
                    *cell = 4 * r.bucket_len(d) as u64;
                }
            }
            let (mut exchanged, mut retransmitted, mut retry_us) = (0u64, 0u64, 0.0f64);
            let mut t_end = t0;
            for (rank, sent) in send.iter().enumerate() {
                for (d, slot) in recv.iter_mut().enumerate() {
                    *slot = send[d][rank];
                }
                let cost = faulty_alltoall(link, plan, level, rank, sent, recv)?;
                t_end = t_end.max(t0 + cost.time_us);
                exchanged += sent.iter().sum::<u64>();
                retransmitted += cost.retransmitted_bytes;
                retry_us = retry_us.max(cost.retry_us);
                // The all-to-all knows its sender: exact attribution.
                if let Some(h) = health.get_mut(rank) {
                    h.retransmitted_bytes += cost.retransmitted_bytes;
                }
            }
            scratch.inbox_lens.fill(0);
            for (src, r) in ranks.iter().enumerate() {
                for (dst, inbox_len) in scratch.inbox_lens.iter_mut().enumerate() {
                    let cnt = r.bucket_len(dst);
                    if dst == src || cnt == 0 {
                        continue;
                    }
                    let inbox = &ranks[dst].inbox;
                    for i in 0..cnt {
                        let slot = *inbox_len + i;
                        assert!(slot < inbox.len(), "inbox overflow on rank {dst}");
                        inbox.store(slot, r.buckets[dst].load(i));
                    }
                    *inbox_len += cnt;
                }
            }
            (exchanged, t_end, retransmitted, retry_us)
        };
        for r in ranks.iter() {
            r.device.advance_to(t_end);
        }
        let exchange = CollectiveStats {
            start_us: t0,
            end_us: t_end,
            retransmitted_bytes: retransmitted,
            retry_ms: retry_us / 1000.0,
        };
        Ok((exchanged, exchange, retry_us))
    }
}

/// One collective as a child span of its level, plus the `fault.retry`
/// event when the retry layer had to resend ([`GcdCluster::trace_of`]).
fn collective_span(
    rec: &Recorder,
    lvl_span: SpanId,
    kind: &str,
    bytes: Option<u64>,
    c: &CollectiveStats,
) {
    let span = rec.begin_span(Some(lvl_span), names::span::COLLECTIVE, 0, c.start_us);
    let mut list = attrs!["kind" => kind];
    if let Some(bytes) = bytes {
        list.extend(attrs!["bytes" => bytes]);
    }
    list.extend(attrs![
        "retransmitted_bytes" => c.retransmitted_bytes,
        "retry_ms" => c.retry_ms,
    ]);
    rec.span_attrs(span, list);
    rec.end_span(span, c.end_us);
    if c.retransmitted_bytes > 0 {
        let resent = attrs!["kind" => kind, "bytes" => c.retransmitted_bytes];
        rec.event(Some(span), names::event::FAULT_RETRY, 0, c.end_us, resent);
    }
}

impl Engine for GcdCluster<'_> {
    fn width(&self) -> usize {
        1
    }

    /// `Inject::RankCrash` becomes a one-event fault plan, checkpointed
    /// every level ([`FaultConfig::new`]) and recovered from the latest
    /// checkpoint within the request's budget. The cluster has no
    /// certificate machinery; `verify` is [`validate_levels`].
    fn run(&mut self, req: &RunRequest<'_>) -> Result<RunOutcome, EngineError> {
        let source = req.slots(1)?[0];
        let events = match req.inject {
            Inject::None => vec![],
            Inject::RankCrash { level, rank } => vec![FaultEvent::GcdCrash { rank, level }],
            Inject::Bitflips(_) => {
                return Err(EngineError::unsupported(
                    "bitflip chaos requires a single-device server",
                ))
            }
        };
        let plan = FaultPlan {
            events,
            ..FaultPlan::none()
        };
        let faults = FaultConfig::new(plan, RecoveryPolicy::PromoteSpare);
        let run = self.run_with(source, &faults, req.deadline_ms)?;
        let certify_wall_ms = validate_levels(self.graph, source, &run.levels, req.verify)?;
        for ls in &run.level_stats {
            self.phase_us.0 += ls.expand_ms * 1000.0;
            self.phase_us.1 += ls.exchange_ms * 1000.0;
        }
        Ok(RunOutcome {
            slots: vec![run.answer()],
            total_ms: run.total_ms,
            certified: req.verify,
            certify_wall_ms,
            recoveries: Some(run.recoveries.len() as u64),
            levels: vec![run.levels],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::bfs_levels_serial;
    use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};

    fn check(g: &Csr, cfg: ClusterConfig, src: u32) -> ClusterRun {
        let mut cluster = GcdCluster::new(g, cfg, LinkModel::frontier()).unwrap();
        let run = cluster.run(src).unwrap();
        assert_eq!(run.levels, bfs_levels_serial(g, src), "cfg {cfg:?}");
        run
    }

    fn fault_cfg(spec: &str, recovery: RecoveryPolicy, checkpoint_every: u32) -> FaultConfig {
        FaultConfig {
            plan: FaultPlan::parse(spec).unwrap(),
            recovery,
            checkpoint_every,
        }
    }

    /// A long-lived cluster keeps one run's kernel reports, not every
    /// run's: nothing reads the rank devices' logs between requests.
    #[test]
    fn report_log_does_not_grow_across_runs() {
        let g = rmat_graph(RmatParams::graph500(8), 3);
        let cfg = ClusterConfig {
            num_gcds: 2,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let backlog = |c: &GcdCluster<'_>| -> Vec<usize> {
            (c.ranks.iter().map(|r| r.device.take_reports().len())).collect()
        };
        cluster.run(1).unwrap();
        let after_one = backlog(&cluster);
        for _ in 0..50 {
            cluster.run(1).unwrap();
        }
        assert_eq!(backlog(&cluster), after_one);
    }

    #[test]
    fn distributed_matches_reference_various_gcd_counts() {
        let g = erdos_renyi(800, 4000, 1);
        for p in [1, 2, 4, 8] {
            let cfg = ClusterConfig {
                num_gcds: p,
                ..ClusterConfig::node_of_8()
            };
            check(&g, cfg, 5);
        }
    }

    #[test]
    fn push_only_matches_reference() {
        let g = rmat_graph(RmatParams::graph500(10), 2);
        let cfg = ClusterConfig {
            num_gcds: 4,
            push_only: true,
            ..ClusterConfig::node_of_8()
        };
        check(&g, cfg, 0);
    }

    #[test]
    fn direction_optimizing_uses_both_modes_on_rmat() {
        let g = rmat_graph(RmatParams::graph500(12), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let run = check(&g, cfg, 1);
        assert!(run.level_stats.iter().any(|l| l.bottom_up), "no pull level");
        assert!(
            run.level_stats.iter().any(|l| !l.bottom_up),
            "no push level"
        );
        // Expand/exchange decomposition: both phases account for modeled
        // time, and together they never exceed the level's wall time
        // (retry stalls and sync overheads make up any remainder).
        for l in &run.level_stats {
            assert!(
                l.expand_ms >= 0.0 && l.exchange_ms >= 0.0,
                "level {}",
                l.level
            );
            assert!(
                l.expand_ms + l.exchange_ms <= l.time_ms + 1e-6,
                "level {}: expand {} + exchange {} > time {}",
                l.level,
                l.expand_ms,
                l.exchange_ms,
                l.time_ms
            );
        }
        assert!(run.level_stats.iter().any(|l| l.expand_ms > 0.0));
        assert!(run.level_stats.iter().any(|l| l.exchange_ms > 0.0));
        assert!(run.gteps > 0.0);
        assert!((run.gteps_per_gcd - run.gteps / 4.0).abs() < 1e-9);
    }

    #[test]
    fn pull_avoids_candidate_traffic() {
        let g = rmat_graph(RmatParams::graph500(12), 3);
        let mk = |push_only| ClusterConfig {
            num_gcds: 4,
            push_only,
            ..ClusterConfig::node_of_8()
        };
        let mut c_push = GcdCluster::new(&g, mk(true), LinkModel::frontier()).unwrap();
        let push = c_push.run(1).unwrap();
        let mut c_opt = GcdCluster::new(&g, mk(false), LinkModel::frontier()).unwrap();
        let opt = c_opt.run(1).unwrap();
        let bytes = |r: &ClusterRun| r.level_stats.iter().map(|l| l.exchanged_bytes).sum::<u64>();
        assert!(
            bytes(&opt) < bytes(&push) / 2,
            "direction optimization should slash exchange volume: {} vs {}",
            bytes(&opt),
            bytes(&push)
        );
        assert!(opt.total_ms < push.total_ms);
    }

    #[test]
    fn disconnected_and_bad_inputs() {
        let g = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let cfg = ClusterConfig {
            num_gcds: 2,
            ..ClusterConfig::node_of_8()
        };
        let run = check(&g, cfg, 0);
        assert_eq!(run.levels[2], UNVISITED);
    }

    #[test]
    fn rejects_bad_source_with_typed_error() {
        let g = erdos_renyi(10, 30, 1);
        let mut c = GcdCluster::new(&g, ClusterConfig::node_of_8(), LinkModel::frontier()).unwrap();
        assert_eq!(
            c.run(10).unwrap_err(),
            XbfsError::SourceOutOfRange {
                source: 10,
                num_vertices: 10
            }
        );
    }

    #[test]
    fn rejects_zero_gcds_and_empty_graph() {
        let g = erdos_renyi(10, 30, 1);
        let cfg = ClusterConfig {
            num_gcds: 0,
            ..ClusterConfig::node_of_8()
        };
        assert!(matches!(
            GcdCluster::new(&g, cfg, LinkModel::frontier()),
            Err(XbfsError::InvalidConfig(_))
        ));
        let empty = Csr::from_parts(vec![0], vec![]).unwrap();
        assert_eq!(
            GcdCluster::new(&empty, ClusterConfig::node_of_8(), LinkModel::frontier())
                .err()
                .unwrap(),
            XbfsError::EmptyGraph
        );
    }

    #[test]
    fn crash_recovers_via_spare_with_identical_levels() {
        let g = rmat_graph(RmatParams::graph500(11), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let clean = check(&g, cfg, 1);
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let faults = fault_cfg("crash@2:rank1", RecoveryPolicy::PromoteSpare, 1);
        let run = cluster.run_with(1, &faults, None).unwrap();
        assert_eq!(run.levels, clean.levels, "recovered levels must match");
        validate_levels(&g, 1, &run.levels, true).expect("Graph500 level validation");
        assert_eq!(run.recoveries.len(), 1);
        let rec = &run.recoveries[0];
        assert_eq!(rec.detected_level, 2);
        assert_eq!(rec.dead_rank, 1);
        assert_eq!(rec.restored_level, 2, "checkpoint_every=1 loses nothing");
        assert_eq!(rec.gcds_after, 4);
        assert!(rec.overhead_ms > 0.0);
        assert!(run.level_stats.iter().any(|l| l.recovery_ms > 0.0));
        assert!(run.total_ms > clean.total_ms, "recovery must cost time");
    }

    #[test]
    fn crash_recovers_via_degradation_and_reexecutes_lost_levels() {
        let g = rmat_graph(RmatParams::graph500(11), 5);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let src = xbfs_graph::stats::pick_sources(&g, 1, 1)[0];
        let clean = check(&g, cfg, src);
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        // Checkpoint every 3 levels: a crash at level 2 rewinds to level 0.
        let faults = fault_cfg("crash@2:rank0", RecoveryPolicy::Degrade, 3);
        let run = cluster.run_with(src, &faults, None).unwrap();
        assert_eq!(run.levels, clean.levels);
        validate_levels(&g, src, &run.levels, true).expect("Graph500 level validation");
        assert_eq!(run.recoveries[0].gcds_after, 3);
        assert_eq!(run.recoveries[0].restored_level, 0);
        assert_eq!(cluster.num_gcds(), 3, "cluster stays degraded");
        // Levels 0 and 1 ran twice.
        assert!(run
            .level_stats
            .iter()
            .any(|l| l.level == 0 && l.attempt == 1));
        assert!(run
            .level_stats
            .iter()
            .any(|l| l.level == 1 && l.attempt == 1));
        // Per-GCD GTEPS stays normalized to the initial cluster size.
        assert!((run.gteps_per_gcd - run.gteps / 4.0).abs() < 1e-12);
    }

    #[test]
    fn crash_of_last_survivor_is_unrecoverable() {
        let g = erdos_renyi(200, 800, 2);
        let cfg = ClusterConfig {
            num_gcds: 1,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let faults = fault_cfg("crash@1:rank0", RecoveryPolicy::Degrade, 1);
        assert!(matches!(
            cluster.run_with(0, &faults, None),
            Err(XbfsError::Unrecoverable { rank: 0, .. })
        ));
    }

    #[test]
    fn link_drops_charge_retries_but_keep_results_exact() {
        let g = rmat_graph(RmatParams::graph500(10), 4);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let clean = check(&g, cfg, 0);
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let faults = fault_cfg(
            "drop@0:0-1x2,degrade@1-2:0.5",
            RecoveryPolicy::PromoteSpare,
            0,
        );
        let run = cluster.run_with(0, &faults, None).unwrap();
        assert_eq!(run.levels, clean.levels);
        let l0 = &run.level_stats[0];
        assert!(l0.retransmitted_bytes > 0, "drops must retransmit");
        assert!(l0.retry_ms > 0.0, "backoff must be charged");
        assert!(run.total_ms > clean.total_ms);
    }

    #[test]
    fn excessive_drops_fail_with_typed_error() {
        let g = erdos_renyi(400, 2000, 3);
        let cfg = ClusterConfig {
            num_gcds: 2,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let faults = fault_cfg("drop@0:0-1x9", RecoveryPolicy::PromoteSpare, 0);
        assert!(matches!(
            cluster.run_with(5, &faults, None),
            Err(XbfsError::LinkFailed { src: 0, dst: 1, .. })
        ));
    }

    #[test]
    fn checkpoints_cost_time_and_are_flagged() {
        let g = rmat_graph(RmatParams::graph500(11), 1);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let src = xbfs_graph::stats::pick_sources(&g, 1, 1)[0];
        let clean = check(&g, cfg, src);
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        // A plan with a (never-firing) late crash keeps fault mode on.
        let faults = fault_cfg("crash@99:rank0", RecoveryPolicy::PromoteSpare, 2);
        let run = cluster.run_with(src, &faults, None).unwrap();
        assert_eq!(run.levels, clean.levels);
        assert!(run.recoveries.is_empty());
        let flagged: Vec<u32> = run
            .level_stats
            .iter()
            .filter(|l| l.checkpointed())
            .map(|l| l.level)
            .collect();
        assert!(!flagged.is_empty(), "expected checkpoints every 2 levels");
        assert!(
            flagged.iter().all(|l| l % 2 == 1),
            "boundary levels: {flagged:?}"
        );
        assert!(run.total_ms > clean.total_ms, "checkpoints must cost time");
    }

    #[test]
    fn governed_run_times_out_typed_and_state_is_reusable() {
        let g = rmat_graph(RmatParams::graph500(10), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let clean = cluster.run(1).unwrap();
        assert!(clean.level_stats.len() > 2, "need a multi-level run");
        let err = cluster
            .run_with(1, &FaultConfig::none(), Some(clean.total_ms / 100.0))
            .unwrap_err();
        match err {
            XbfsError::DeadlineExceeded {
                level,
                elapsed_us,
                deadline_us,
            } => {
                assert!(level > 0, "gate fires between levels");
                assert!(elapsed_us > deadline_us);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The cluster is fully reusable after an abort.
        let again = cluster.run(1).unwrap();
        assert_eq!(again.levels, clean.levels);
        // A generous budget behaves exactly like no budget at all.
        let roomy = cluster
            .run_with(1, &FaultConfig::none(), Some(clean.total_ms * 100.0))
            .unwrap();
        assert_eq!(roomy.levels, clean.levels);
        assert_eq!(roomy.result_digest(), clean.result_digest());
    }

    #[test]
    fn recovery_overhead_counts_against_the_budget() {
        let g = rmat_graph(RmatParams::graph500(11), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let clean = check(&g, cfg, 1);
        let faults = fault_cfg("crash@2:rank1", RecoveryPolicy::PromoteSpare, 1);
        // Generous budget: the crash is recovered *within* it.
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let run = cluster
            .run_with(1, &faults, Some(clean.total_ms * 100.0))
            .unwrap();
        assert_eq!(run.recoveries.len(), 1);
        assert_eq!(run.levels, clean.levels, "recovered within the budget");
        // A budget below even the fault-free runtime cannot absorb the
        // recovery: the run aborts typed instead of overrunning.
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let err = cluster
            .run_with(1, &faults, Some(clean.total_ms * 0.2))
            .unwrap_err();
        assert!(
            matches!(err, XbfsError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn rank_health_tracks_crashes_restores_and_retransmits() {
        let g = rmat_graph(RmatParams::graph500(11), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        assert!(cluster
            .rank_health()
            .iter()
            .all(|h| h == &RankHealth::default()));
        let faults = fault_cfg(
            "crash@2:rank1,drop@0:0-1x2",
            RecoveryPolicy::PromoteSpare,
            1,
        );
        cluster.run_with(1, &faults, None).unwrap();
        let health = cluster.take_health();
        assert_eq!(health.len(), 4);
        assert_eq!(health[1].crashes, 1, "crash lands on the victim rank");
        assert_eq!(health[0].crashes, 0);
        assert!(
            health.iter().all(|h| h.checkpoints_restored >= 1),
            "every present rank restored from the checkpoint: {health:?}"
        );
        assert!(
            health[0].retransmitted_bytes > 0,
            "rank 0 sent the dropped messages: {health:?}"
        );
        // take_health drains: the next snapshot is clean, and a clean
        // run accumulates nothing.
        assert!(cluster
            .rank_health()
            .iter()
            .all(|h| h == &RankHealth::default()));
        cluster.run(1).unwrap();
        assert!(cluster
            .take_health()
            .iter()
            .all(|h| h.crashes == 0 && h.checkpoints_restored == 0 && h.retransmitted_bytes == 0));
    }

    #[test]
    fn result_digest_matches_single_device_engine() {
        use gcd_sim::Device;
        use xbfs_core::{Xbfs, XbfsConfig};
        let g = rmat_graph(RmatParams::graph500(10), 3);
        let dev = Device::mi250x();
        let single = Xbfs::new(&dev, &g, XbfsConfig::default())
            .unwrap()
            .run(1)
            .unwrap();
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let clean = cluster.run(1).unwrap();
        assert_eq!(clean.result_digest(), single.result_digest());
        // A chaos-recovered run still matches: the digest sees levels,
        // not the (recovery-inflated) timeline.
        let faults = fault_cfg("crash@1:rank0", RecoveryPolicy::PromoteSpare, 1);
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let healed = cluster.run_with(1, &faults, None).unwrap();
        assert!(healed.total_ms > clean.total_ms);
        assert_eq!(healed.result_digest(), single.result_digest());
    }

    /// A served request pays for checkpoints only when it plans a crash:
    /// a fault-free `Engine::run` is `GcdCluster::run` to the bit, while a
    /// `RankCrash` request still restores from a per-level checkpoint.
    #[test]
    fn engine_run_checkpoints_only_when_a_crash_is_planned() {
        let g = rmat_graph(RmatParams::graph500(10), 3);
        let cfg = ClusterConfig {
            num_gcds: 4,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let plain = cluster.run(1).unwrap();
        assert!(plain.level_stats.iter().all(|l| !l.checkpointed()));
        let served = Engine::run(&mut cluster, &RunRequest::plain(&[1])).unwrap();
        assert_eq!(served.total_ms.to_bits(), plain.total_ms.to_bits());
        assert_eq!(served.levels[0], plain.levels);
        // A checkpoint every level would have cost time.
        let ckpt = cluster.run_with(1, &FaultConfig::default(), None);
        assert!(ckpt.unwrap().total_ms > served.total_ms);
        let crash = RunRequest {
            inject: Inject::RankCrash { level: 2, rank: 1 },
            ..RunRequest::plain(&[1])
        };
        let healed = Engine::run(&mut cluster, &crash).unwrap();
        assert_eq!(healed.levels[0], plain.levels);
        assert_eq!(healed.recoveries, Some(1));
        let every_level = fault_cfg("crash@2:rank1", RecoveryPolicy::PromoteSpare, 1);
        let want = cluster.run_with(1, &every_level, None).unwrap();
        assert_eq!(healed.total_ms.to_bits(), want.total_ms.to_bits());
    }

    /// A run's one machine record is its trace: the run span's
    /// `fault_plan`, read back from the `json:` rendering, reproduces the
    /// run exactly, and the document stays JSON on its worst input.
    #[test]
    fn run_exports_reproducibility_record() {
        use xbfs_telemetry::{JsonValue, TraceFormat};
        let g = erdos_renyi(300, 1500, 7);
        let cfg = ClusterConfig {
            num_gcds: 2,
            ..ClusterConfig::node_of_8()
        };
        let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
        let faults = FaultConfig {
            plan: FaultPlan::parse("seed=9,drop@0:0-1x1").unwrap(),
            ..FaultConfig::default()
        };
        let run = cluster.run_with(3, &faults, None).unwrap();
        assert_eq!(run.fault_plan, faults.plan);
        let run_attrs = |run: &ClusterRun| {
            let rendered = TraceFormat::Json.render(&cluster.trace_of(run));
            let doc = JsonValue::parse(&rendered).expect("valid JSON");
            let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap();
            let span = spans
                .iter()
                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(names::span::RUN))
                .expect("a run span");
            span.get("attrs").cloned().unwrap()
        };
        let attrs = run_attrs(&run);
        let spec = attrs.get("fault_plan").and_then(JsonValue::as_str);
        assert_eq!(spec, Some("seed=9,drop@0:0-1x1"));
        // `null`, not `inf`.
        let mut hostile = run.clone();
        hostile.config.alpha = f64::INFINITY;
        assert_eq!(run_attrs(&hostile).get("alpha"), Some(&JsonValue::Null));
        // The recorded plan reproduces the run exactly.
        let mut again = GcdCluster::new(&g, run.config, LinkModel::frontier()).unwrap();
        let replayed = FaultConfig {
            plan: FaultPlan::parse(spec.unwrap()).unwrap(),
            ..FaultConfig::default()
        };
        let rerun = again.run_with(run.source, &replayed, None).unwrap();
        assert_eq!(rerun.levels, run.levels);
        assert_eq!(rerun.total_ms.to_bits(), run.total_ms.to_bits());
    }
}
