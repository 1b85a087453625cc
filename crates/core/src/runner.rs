//! The XBFS runner: the host-side loop that drives adaptive BFS on the
//! simulated GCD, exactly mirroring the structure of the ported code —
//! per-level counter memset, strategy dispatch, device sync, counter
//! readback, controller decision.
//!
//! Since PR 3 the runner is a *throughput engine*: BFS state is acquired
//! from the device buffer pool once at construction, reset between runs in
//! O(1) by advancing an epoch bias (no O(|V|) fill kernels). Back-to-back
//! runs from different sources therefore cost O(|frontier work|), not
//! O(|V|).

use crate::config::XbfsConfig;
use crate::controller::Controller;
use crate::device_graph::DeviceGraph;
use crate::engine::{
    check_deadline, check_source, Engine, EngineError, Inject, RunOutcome, RunRequest,
};
use crate::error::XbfsError;
use crate::integrity::{apply_sabotage, certify_run, verified_run, Sabotage};
use crate::state::{ctr, decode_level, ectr, BfsState, QueueState, UNVISITED};
use crate::stats::{BfsRun, LevelStats};
use crate::strategy::{
    launch_bottom_up_level, launch_generation_scan, launch_reset_counters, launch_top_down_expand,
    Strategy,
};
use gcd_sim::Device;
use std::borrow::Borrow;
use std::sync::{Mutex, PoisonError};
use xbfs_graph::{Certificate, Csr};
use xbfs_telemetry::{attrs, names, Recorder, Trace};

/// Per-engine mutable run context, reused across runs: the pooled BFS
/// state and the previous run's depth (how far to advance the epoch).
struct RunInner {
    /// `Some` until drop, when the buffers return to the device pool.
    st: Option<BfsState>,
    /// Depth of the previous run; bounds the epoch advance on reset.
    last_depth: u32,
}

/// An XBFS instance bound to a device-resident graph.
///
/// Generic over how it holds the device: `Xbfs<&Device>` borrows a device
/// owned elsewhere (the common case, inferred from `Xbfs::new(&dev, ..)`),
/// while `Xbfs<Device>` owns one outright — used by long-lived engines
/// (e.g. the server worker's) that would otherwise be self-referential.
pub struct Xbfs<D: Borrow<Device>> {
    device: D,
    graph: DeviceGraph,
    cfg: XbfsConfig,
    inner: Mutex<RunInner>,
}

impl<D: Borrow<Device>> Xbfs<D> {
    /// Upload `g` and prepare a runner. The device must have at least
    /// [`XbfsConfig::required_streams`] streams.
    ///
    /// Like the original XBFS (whose inputs are symmetrized Graph500/SNAP
    /// graphs), the bottom-up strategy pulls through **out**-edges, so
    /// results are exact on directed graphs only with a configuration that
    /// never selects bottom-up — use [`XbfsConfig::directed`] for those.
    pub fn new(device: D, g: &Csr, cfg: XbfsConfig) -> Result<Self, XbfsError> {
        let dev: &Device = device.borrow();
        if dev.num_streams() < cfg.required_streams() {
            return Err(XbfsError::InsufficientStreams {
                required: cfg.required_streams(),
                available: dev.num_streams(),
            });
        }
        if g.num_vertices() == 0 {
            return Err(XbfsError::EmptyGraph);
        }
        let graph = DeviceGraph::upload(dev, g);
        let st = BfsState::from_pool(dev, g.num_vertices(), cfg.record_parents);
        Ok(Self {
            graph,
            cfg,
            inner: Mutex::new(RunInner {
                st: Some(st),
                last_depth: 0,
            }),
            device,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &XbfsConfig {
        &self.cfg
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        self.device.borrow()
    }

    /// Summed capacity of the kernels' working vectors: where a warm-up
    /// pass leaves it, a repeat pass over the same sources keeps it.
    pub fn kernel_scratch_capacity(&self) -> usize {
        let inner = crate::lock(&self.inner);
        let st = inner.st.as_ref().expect("state is released only on drop");
        let scratch = st.scratch.borrow();
        scratch.capacity()
    }

    /// Run one BFS from `source`, returning levels plus full per-level
    /// statistics. Models the paper's "n to n" measured window: status
    /// initialization through final sync.
    pub fn run(&self, source: u32) -> Result<BfsRun, XbfsError> {
        self.run_impl(source, None, None)
    }

    /// The full form of [`Xbfs::run`]: one run under every governor at
    /// once.
    ///
    /// * `sabotage` injects bit flips after the level loop — with `verify`
    ///   this exercises the detection path end to end; without, it is the
    ///   "what does corruption do when nothing checks" baseline.
    /// * `deadline_ms` bounds the modeled clock: it is checked between
    ///   levels, and a run that crosses it aborts with
    ///   [`XbfsError::DeadlineExceeded`]. The pooled state stays reusable
    ///   after an abort — the next run's epoch reset clears the partial
    ///   traversal in O(1).
    /// * `verify` wraps the run in the verified pipeline (pool sweeps,
    ///   CSR re-check, [`certify_run`]); any detection surfaces as
    ///   [`XbfsError::Integrity`]. With `verify` off the certificate is
    ///   `None`. Either way the run itself is the exact hot path
    ///   [`Xbfs::run`] executes.
    ///
    /// The third field is the wall ms the verified pipeline spent after
    /// the traversal (0 unverified).
    pub fn run_with(
        &self,
        source: u32,
        sabotage: Option<&Sabotage<'_>>,
        deadline_ms: Option<f64>,
        verify: bool,
    ) -> Result<(BfsRun, Option<Certificate>, f64), XbfsError> {
        let run = || self.run_impl(source, sabotage, deadline_ms);
        verified_run(self.device.borrow(), &self.graph, verify, run, certify_run)
    }

    fn run_impl(
        &self,
        source: u32,
        sabotage: Option<&Sabotage<'_>>,
        deadline_ms: Option<f64>,
    ) -> Result<BfsRun, XbfsError> {
        let dev: &Device = self.device.borrow();
        let g = &self.graph;
        let n = g.num_vertices();
        check_source(source, n)?;
        let controller = Controller::new(self.cfg.alpha, self.cfg.scan_free_max_ratio);

        let mut guard = crate::lock(&self.inner);
        let RunInner { st, last_depth } = &mut *guard;
        let st = st.as_mut().expect("state is released only on drop");
        // O(1) between-run reset: advance the epoch past everything the
        // previous run stored instead of re-filling O(|V|) arrays.
        st.reset_in_place(*last_depth);
        dev.reset_timeline();

        // --- measured window starts ---
        // Epoch-versioned state needs no O(|V|) fill kernels here: entries
        // from older epochs read as unvisited, and the parent array decode
        // is gated on visited-ness, so seeding the source is the whole
        // initialization (satellite of the paper's "n to n" window).
        dev.set_phase("init");
        if let Some(parents) = &st.parents {
            parents.store(source as usize, source);
        }
        st.status.store(source as usize, st.base); // level 0, epoch-encoded
        st.queues[0].store(0, source);
        dev.charge_transfer(0, 8); // seed the source + queue head
        let init_end_us = dev.elapsed_us();

        let m = g.num_edges().max(1) as f64;
        let mut exact: Option<[usize; 3]> = Some([1, 0, 0]);
        let mut superset: Option<usize> = None;
        let mut frontier_count = 1u64;
        let mut frontier_edges = u64::from(self.graph.host_degrees[source as usize]);
        // Proactive bottom-up claims targeting the level after next:
        // (count, degree sum), plus whether the *current* frontier contains
        // proactively claimed vertices (then stale exact queues are unusable).
        let mut pending_pro = (0u64, 0u64);
        let mut frontier_has_proactive = false;
        let mut level = 0u32;
        let mut level_stats: Vec<LevelStats> = Vec::new();

        loop {
            let ratio = frontier_edges as f64 / m;
            let strategy = self.cfg.forced.unwrap_or_else(|| controller.choose(ratio));
            dev.set_phase(format!("level {level}"));
            let t0 = dev.elapsed_us();
            let mut gen_end_us = None;

            match strategy {
                Strategy::BottomUp => {
                    launch_reset_counters(dev, 0, st);
                    launch_bottom_up_level(dev, g, st, st.base + level, &self.cfg);
                }
                Strategy::ScanFree | Strategy::SingleScan => {
                    let mut qstate = if !self.cfg.nfg {
                        QueueState::None
                    } else if frontier_has_proactive {
                        // Stale exact queues miss proactive claims; the
                        // superset (or a fresh scan) covers them.
                        superset
                            .map(QueueState::Superset)
                            .unwrap_or(QueueState::None)
                    } else if let Some(lens) = exact {
                        QueueState::Exact(lens)
                    } else if let Some(len) = superset {
                        QueueState::Superset(len)
                    } else {
                        QueueState::None
                    };
                    if qstate == QueueState::None {
                        // Frontier-queue generation scan (single-scan
                        // kernel 1; also the fallback scan-free pays when
                        // no queue survived).
                        launch_reset_counters(dev, 0, st);
                        launch_generation_scan(dev, 0, g, st, st.base + level, &self.cfg);
                        dev.sync();
                        dev.charge_transfer(0, 12);
                        let lens = st.next_queue_lens();
                        st.swap_queues();
                        qstate = QueueState::Exact(lens);
                        gen_end_us = Some(dev.elapsed_us());
                    }
                    launch_reset_counters(dev, 0, st);
                    let atomic_claim = strategy == Strategy::ScanFree;
                    launch_top_down_expand(
                        dev,
                        g,
                        st,
                        st.base + level,
                        qstate,
                        atomic_claim,
                        &self.cfg,
                    );
                }
            }

            dev.sync();
            let expand_end_us = dev.elapsed_us();
            dev.charge_transfer(0, 48); // counter readback
            let claimed = u64::from(st.counters.load(ctr::CLAIMED));
            let proactive = u64::from(st.counters.load(ctr::PROACTIVE));
            let claimed_edges = st.edge_counters.load(ectr::CLAIMED_EDGES);
            let proactive_edges = st.edge_counters.load(ectr::PROACTIVE_EDGES);

            match strategy {
                Strategy::ScanFree => {
                    let lens = st.next_queue_lens();
                    st.swap_queues();
                    exact = Some(lens);
                }
                Strategy::SingleScan => {
                    exact = None;
                }
                Strategy::BottomUp => {
                    superset = Some(st.counters.load(ctr::BU_LEN) as usize);
                    exact = None;
                }
            }

            let t1 = dev.elapsed_us();
            level_stats.push(LevelStats {
                level,
                strategy,
                used_nfg: gen_end_us.is_none(),
                ratio,
                frontier_count,
                frontier_edges,
                time_ms: (t1 - t0) / 1000.0,
                kernels: dev.take_reports(),
                start_us: t0,
                gen_end_us,
                expand_end_us,
                end_us: t1,
            });

            let next_count = claimed + pending_pro.0;
            let next_edges = claimed_edges + pending_pro.1;
            frontier_has_proactive = pending_pro.0 > 0;
            pending_pro = (proactive, proactive_edges);
            if next_count == 0 {
                break;
            }
            // Deadline gate, between levels only: a run that completes on
            // its last level is never a timeout. The abort leaves partial
            // marks up to two levels past the last recorded one (proactive
            // claims), which `reset_in_place`'s +3 epoch skip already
            // covers — the state is fully reusable by the next run.
            if let Err(late) = check_deadline(deadline_ms, t1, level + 1) {
                *last_depth = level_stats.len() as u32;
                return Err(late);
            }
            frontier_count = next_count;
            frontier_edges = next_edges;
            level = level.checked_add(1).expect("level overflow");
        }
        let total_us = dev.elapsed_us();
        // --- measured window ends ---
        *last_depth = level_stats.len() as u32;

        // Fault injection point: corrupt live device state after the level
        // loop but before host readback, modeling an SDC the measured
        // window never observed. A `None` plan leaves the path untouched,
        // so clean runs are bit-identical with or without verification.
        if let Some(sab) = sabotage {
            apply_sabotage(dev, g, st, sab);
        }

        // Decode epoch-encoded status back to plain levels; parent entries
        // are only meaningful for vertices this run actually visited.
        let mut levels = st.status.to_host();
        for l in &mut levels {
            *l = decode_level(*l, st.base);
        }
        let parents = st.parents.as_ref().map(|p| {
            let mut ps = p.to_host();
            for (pv, &l) in ps.iter_mut().zip(&levels) {
                if l == UNVISITED {
                    *pv = UNVISITED;
                }
            }
            ps
        });
        let traversed_edges: u64 = levels
            .iter()
            .zip(&self.graph.host_degrees)
            .filter(|(&l, _)| l != UNVISITED)
            .map(|(_, &d)| u64::from(d))
            .sum();
        let total_ms = total_us / 1000.0;
        let gteps = crate::engine::gteps(traversed_edges, total_us * 1e-6);
        Ok(BfsRun {
            source,
            levels,
            parents,
            level_stats,
            total_ms,
            traversed_edges,
            gteps,
            init_end_us,
        })
    }

    /// Render a finished run as its `run > {init, level > {queue_gen,
    /// expand, kernel}}` span tree on the modeled device timeline, with
    /// per-level strategy-choice events and frontier/fetch counter
    /// series. A pure function of the record and this engine's graph and
    /// config: spans open in row order, so ids — and every byte a sink
    /// renders from them — are the same on every call.
    pub fn trace_of(&self, run: &BfsRun) -> Trace {
        let rec = Recorder::new();
        let alpha = self.cfg.alpha;
        let run_span = rec.begin_span(None, names::span::RUN, 0, 0.0);
        let init_span = rec.begin_span(Some(run_span), names::span::INIT, 0, 0.0);
        rec.end_span(init_span, run.init_end_us);

        for ls in &run.level_stats {
            let (t0, t1) = (ls.start_us, ls.end_us);
            let strategy = ls.strategy.to_string();
            let lvl_span = rec.begin_span(Some(run_span), names::span::LEVEL, 0, t0);
            rec.event(
                Some(lvl_span),
                names::event::STRATEGY_CHOICE,
                0,
                t0,
                attrs![
                    "strategy" => strategy.clone(),
                    "ratio" => ls.ratio,
                    "alpha" => alpha,
                    "forced" => self.cfg.forced.is_some(),
                ],
            );
            let counter = |name, ts, value| rec.counter(name, 0, ts, value);
            counter(names::metric::FRONTIER_SIZE, t0, ls.frontier_count as f64);
            counter(names::metric::FRONTIER_EDGES, t0, ls.frontier_edges as f64);
            counter(names::metric::FRONTIER_RATIO, t0, ls.ratio);
            if let Some(scanned) = ls.gen_end_us {
                let qg = rec.begin_span(Some(lvl_span), names::span::QUEUE_GEN, 0, t0);
                rec.end_span(qg, scanned);
            }
            let expand_start = ls.gen_end_us.unwrap_or(t0);
            let expand_span = rec.begin_span(Some(lvl_span), names::span::EXPAND, 0, expand_start);
            rec.end_span(expand_span, ls.expand_end_us);
            // Lay the level's kernel reports out as sequential child
            // spans so chrome://tracing shows the dispatch stream.
            let mut cursor = t0;
            for k in &ls.kernels {
                let ks = rec.begin_span(Some(lvl_span), names::span::KERNEL, 0, cursor);
                rec.span_attrs(
                    ks,
                    attrs![
                        "phase" => k.phase.clone(),
                        "kernel" => k.name.clone(),
                        "l2_hit_pct" => k.l2_hit_pct,
                        "mem_busy_pct" => k.mem_busy_pct,
                        "fetch_kb" => k.fetch_kb,
                        "instructions" => k.stats.instructions,
                        "atomics" => k.stats.atomics,
                        "hbm_lines" => k.stats.hbm_lines,
                        "occupancy" => k.occupancy,
                    ],
                );
                cursor = (cursor + (k.runtime_ms * 1000.0).max(0.0)).min(t1);
                rec.end_span(ks, cursor);
            }
            let atomics: u64 = ls.kernels.iter().map(|k| k.stats.atomics).sum();
            counter(names::metric::FETCH_KB, t1, ls.fetch_kb());
            counter(names::metric::ATOMICS, t1, atomics as f64);
            rec.span_attrs(
                lvl_span,
                attrs![
                    "level" => ls.level,
                    "strategy" => strategy,
                    "used_nfg" => ls.used_nfg,
                    "ratio" => ls.ratio,
                    "frontier_count" => ls.frontier_count,
                    "frontier_edges" => ls.frontier_edges,
                ],
            );
            rec.end_span(lvl_span, t1);
        }

        rec.span_attrs(
            run_span,
            attrs![
                "engine" => "xbfs",
                "source" => run.source,
                "vertices" => run.levels.len(),
                "edges" => self.graph.num_edges(),
                "alpha" => alpha,
                "depth" => run.level_stats.len(),
                "total_ms" => run.total_ms,
                "traversed_edges" => run.traversed_edges,
                "gteps" => run.gteps,
            ],
        );
        // The measured window closes with its last level: nothing after
        // it advances the device clock.
        rec.end_span(run_span, run.level_stats.last().map_or(0.0, |l| l.end_us));
        rec.finish()
    }
}

impl<D: Borrow<Device>> Drop for Xbfs<D> {
    /// Return the BFS state and graph buffers to the device pool so the
    /// next engine of the same shape on this device reuses them (same
    /// addresses, hence bit-identical modeled timings). State goes back
    /// first — it was acquired last, and the pool's free lists are LIFO.
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(st) = inner.st.take() {
            st.release_to_pool(self.device.borrow());
        }
        self.graph.release_to_pool(self.device.borrow());
    }
}

impl<D: Borrow<Device>> Engine for Xbfs<D> {
    fn width(&self) -> usize {
        1
    }

    fn run(&mut self, req: &RunRequest<'_>) -> Result<RunOutcome, EngineError> {
        let source = req.slots(1)?[0];
        let sabotage = match req.inject {
            Inject::None => None,
            Inject::Bitflips(sab) => Some(sab),
            Inject::RankCrash { .. } => {
                return Err(EngineError::unsupported(
                    "crash chaos requires a --cluster server",
                ))
            }
        };
        let (run, cert, certify_wall_ms) =
            self.run_with(source, sabotage, req.deadline_ms, req.verify)?;
        Ok(RunOutcome {
            slots: vec![run.answer()],
            total_ms: run.total_ms,
            levels: vec![run.levels],
            certified: cert.is_some(),
            certify_wall_ms,
            recoveries: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd_sim::{ArchProfile, ExecMode};
    use xbfs_graph::bfs_levels_serial;
    use xbfs_graph::generators::{barabasi_albert, erdos_renyi, rmat_graph, RmatParams};

    fn check_against_reference(g: &Csr, cfg: XbfsConfig, sources: &[u32]) {
        let dev = Device::new(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            cfg.required_streams(),
        );
        let xbfs = Xbfs::new(&dev, g, cfg).unwrap();
        for &s in sources {
            let run = xbfs.run(s).unwrap();
            assert_eq!(
                run.levels,
                bfs_levels_serial(g, s),
                "levels mismatch from source {s}"
            );
        }
    }

    #[test]
    fn adaptive_matches_reference_on_rmat() {
        let g = rmat_graph(RmatParams::graph500(10), 3);
        check_against_reference(&g, XbfsConfig::default(), &[0, 17, 513]);
    }

    #[test]
    fn adaptive_matches_reference_on_er_and_ba() {
        let er = erdos_renyi(2000, 8000, 5);
        check_against_reference(&er, XbfsConfig::default(), &[0, 999]);
        let ba = barabasi_albert(3000, 5, 1);
        check_against_reference(&ba, XbfsConfig::default(), &[0, 2999]);
    }

    #[test]
    fn every_forced_strategy_matches_reference() {
        let g = rmat_graph(RmatParams::graph500(9), 8);
        for strat in [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp] {
            check_against_reference(&g, XbfsConfig::forced(strat), &[3, 250]);
        }
    }

    #[test]
    fn naive_port_config_matches_reference() {
        let g = rmat_graph(RmatParams::graph500(9), 2);
        check_against_reference(&g, XbfsConfig::naive_port(), &[0, 100]);
    }

    #[test]
    fn ablations_match_reference() {
        let g = barabasi_albert(1500, 6, 9);
        for cfg in [
            XbfsConfig {
                nfg: false,
                ..XbfsConfig::default()
            },
            XbfsConfig {
                proactive: false,
                ..XbfsConfig::default()
            },
            XbfsConfig {
                balancing_top_down: false,
                ..XbfsConfig::default()
            },
            XbfsConfig {
                balancing_bottom_up: true,
                ..XbfsConfig::default()
            },
            XbfsConfig {
                record_parents: true,
                ..XbfsConfig::default()
            },
        ] {
            check_against_reference(&g, cfg, &[0, 700]);
        }
    }

    #[test]
    fn parent_array_validates() {
        let g = rmat_graph(RmatParams::graph500(9), 4);
        let dev = Device::mi250x();
        let cfg = XbfsConfig {
            record_parents: true,
            ..XbfsConfig::default()
        };
        let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
        let run = xbfs.run(42).unwrap();
        assert!(run.parents.is_some(), "parents requested");
        certify_run(g.offsets(), g.adjacency(), &run).expect("invalid BFS tree");
    }

    #[test]
    fn adaptive_visits_all_three_strategies_on_rmat() {
        // R-MAT has the hockey-stick ratio curve: tiny ratios early, a
        // bottom-up hump, then a tail — the paper's Fig. 6/7 story.
        let g = rmat_graph(RmatParams::graph500(12), 1);
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let run = xbfs.run(0).unwrap();
        let trace = run.strategy_trace();
        assert!(trace.contains(&Strategy::ScanFree), "trace {trace:?}");
        assert!(trace.contains(&Strategy::BottomUp), "trace {trace:?}");
        assert!(run.gteps > 0.0);
        assert!(run.total_ms > 0.0);
        assert_eq!(run.depth(), run.level_stats.len());
    }

    #[test]
    fn unreachable_component_stays_unvisited() {
        // Two disjoint triangles.
        let g = Csr::from_parts(
            vec![0, 2, 4, 6, 8, 10, 12],
            vec![1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4],
        )
        .unwrap();
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let run = xbfs.run(0).unwrap();
        assert_eq!(run.levels[3..], [UNVISITED; 3]);
        assert_eq!(run.traversed_edges, 6);
    }

    #[test]
    fn rejects_bad_source_with_typed_error() {
        let g = erdos_renyi(10, 20, 1);
        let dev = Device::mi250x();
        assert_eq!(
            Xbfs::new(&dev, &g, XbfsConfig::default())
                .unwrap()
                .run(10)
                .unwrap_err(),
            XbfsError::SourceOutOfRange {
                source: 10,
                num_vertices: 10
            }
        );
    }

    #[test]
    fn rejects_insufficient_streams_with_typed_error() {
        let g = erdos_renyi(10, 20, 1);
        let dev = Device::mi250x(); // 1 stream
        let err = Xbfs::new(&dev, &g, XbfsConfig::naive_port()).err().unwrap();
        assert!(matches!(
            err,
            XbfsError::InsufficientStreams { available: 1, .. }
        ));
    }

    #[test]
    fn rejects_empty_graph_with_typed_error() {
        let g = Csr::from_parts(vec![0], vec![]).unwrap();
        let dev = Device::mi250x();
        assert_eq!(
            Xbfs::new(&dev, &g, XbfsConfig::default()).err(),
            Some(XbfsError::EmptyGraph)
        );
    }

    /// `run_with` under a deadline only (no sabotage or verify).
    fn run_until(xbfs: &Xbfs<&Device>, source: u32, ms: f64) -> Result<BfsRun, XbfsError> {
        xbfs.run_with(source, None, Some(ms), false)
            .map(|(run, ..)| run)
    }

    #[test]
    fn tight_deadline_aborts_with_typed_error() {
        let g = rmat_graph(RmatParams::graph500(10), 3);
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let full = xbfs.run(0).unwrap();
        assert!(full.depth() > 2, "need a multi-level run to abort");
        // A budget below the full runtime must fire between levels.
        let err = run_until(&xbfs, 0, full.total_ms / 100.0).unwrap_err();
        match err {
            XbfsError::DeadlineExceeded {
                level,
                elapsed_us,
                deadline_us,
            } => {
                assert!((level as usize) < full.depth());
                assert!(elapsed_us > deadline_us);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn pooled_state_survives_deadline_abort() {
        // An aborted run must leave the epoch-versioned state reusable:
        // the very next run on the same engine is bit-identical to a run
        // on a fresh engine.
        let g = rmat_graph(RmatParams::graph500(9), 7);
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let reference = xbfs.run(5).unwrap();
        assert!(run_until(&xbfs, 5, 1e-6).is_err());
        let after_abort = xbfs.run(5).unwrap();
        assert_eq!(after_abort.levels, reference.levels);
        assert_eq!(after_abort.digest(), reference.digest());
        // And a generous budget behaves exactly like no budget at all.
        let roomy = run_until(&xbfs, 5, reference.total_ms * 100.0).unwrap();
        assert_eq!(roomy.digest(), reference.digest());
    }

    #[test]
    fn run_with_composes_deadline_and_verification() {
        let g = erdos_renyi(2000, 8000, 5);
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let (run, cert, _) = xbfs.run_with(0, None, Some(1e9), true).unwrap();
        assert!(cert.is_some(), "verify=true must yield a certificate");
        assert_eq!(run.levels, bfs_levels_serial(&g, 0));
        let (fast, no_cert, _) = xbfs.run_with(0, None, None, false).unwrap();
        assert!(no_cert.is_none());
        assert_eq!(fast.digest(), run.digest());
        let err = xbfs.run_with(0, None, Some(1e-6), true).unwrap_err();
        assert!(matches!(err, XbfsError::DeadlineExceeded { .. }));
    }
}
