//! Concurrent multi-source BFS (iBFS-style), 64 sources wide.
//!
//! The paper's introduction cites the authors' iBFS work: many BFS
//! instances — e.g. the 64 search keys of a Graph500 run, or a burst of
//! distance queries from different users — can share one traversal. This
//! module implements the bit-parallel formulation on the simulated GCD:
//! each vertex carries a 64-bit *visited mask* (one bit per concurrent
//! source, matching the CDNA wave width), a frontier level expands the
//! union frontier once, and newly discovered `(vertex, source)` pairs are
//! the bits that survive `frontier_bits & !seen_bits`, propagated with a
//! 64-bit `atomicOr`.
//!
//! Sharing pays because hub vertices are touched once per *level* instead
//! of once per *source* — the same locality argument as the paper's
//! degree-aware re-arrangement, one level up.
//!
//! On symmetric adjacency it is direction-optimizing per bit (the MS-BFS
//! bottom-up of Then et al.): in a batch's middle levels each vertex pulls
//! the bits it lacks from its neighbours' masks ([`MsBfs::with_config`]).
//!
//! [`MsBfs`] is a pooled run-context in the mold of [`crate::Xbfs`]: the
//! graph is uploaded once, every buffer comes from the device pool (so a
//! rebuilt engine reacquires the same addresses). A batch that reaches its
//! first empty level leaves no fill to the next: that level's step zeroes
//! the seen mask, and the per-slot level arrays use the same base-offset
//! encoding as [`crate::BfsState`].
//! [`MsBfs::run_with`] adds the serving governors: a modeled-time
//! deadline checked between levels and optional per-slot certification
//! ([`xbfs_graph::certify_levels`]).

use std::borrow::Borrow;
use std::sync::{Mutex, PoisonError};

use crate::config::XbfsConfig;
use crate::device_graph::DeviceGraph;
use crate::engine::{
    check_deadline, check_source, gteps, Engine, EngineError, Inject, RunOutcome, RunRequest,
    SlotAnswer,
};
use crate::error::XbfsError;
use crate::integrity::verified_run;
use crate::state::{advance_base, decode_level, UNVISITED};
use gcd_sim::{BufU32, BufU64, Device, LaunchCfg, WaveCtx};
use xbfs_graph::{certificate, certify_levels, levels_digest, Certificate, Csr};

/// Maximum sources per batch (bits in the visited mask = wave width).
pub const MAX_CONCURRENT: usize = 64;

/// One live lane of a neighbour walk: the bits it carries (expand) or
/// still wants (pull), its edges, and its place among the walk's heads.
struct Lane {
    bits: u64,
    off: u64,
    deg: u32,
    at: usize,
}

/// The kernels' host-side working vectors. The engine owns one set per
/// core and lends one to each wave, so a launch allocates nothing once
/// they have grown to a wave's width. A wave clears what it uses *before*
/// using it: nothing an earlier wave left behind — one that returned early
/// included — reaches the next.
#[derive(Default)]
struct WaveScratch {
    /// The wave's own gathers: frontier entries (expand) and seen masks.
    words: Vec<u32>,
    masks: Vec<u64>,
    /// The vertices the wave works on with their bits: the walk's heads
    /// (and what each found, pulling), or the fold's fresh entries.
    pending: Vec<(usize, u64)>,
    got: Vec<u64>,
    // The walk: the heads' offsets and degrees, the live lanes, then per
    // step their neighbours, the seen masks there (the fold's: at its fresh
    // entries), and the `atomicOr`s the step issues.
    offs: Vec<u64>,
    degs: Vec<u32>,
    lanes: Vec<Lane>,
    vs: Vec<u32>,
    svs: Vec<u64>,
    ops: Vec<(usize, u64)>,
    // Fold: fresh masks, the members (vertices with new bits), and what to
    // write (level stores per slot, grown to the widest batch seen).
    fb: Vec<u64>,
    members: Vec<u32>,
    seen_writes: Vec<(usize, u64)>,
    level_writes: Vec<Vec<(usize, u32)>>,
}

/// The device buffers the kernels share, in acquisition order.
struct MsBufs {
    /// Per-vertex 64-bit visited mask, all-zero between batches (see
    /// `step_kernel` and `MsInner::seen_dirty`).
    seen: BufU64,
    /// Per-vertex freshly-discovered bits for the level in flight. The
    /// fold pass zeroes every entry it consumes, so the buffer is
    /// all-zero between levels and between batches (no per-level fill).
    fresh: BufU64,
    /// One per level parity: level L's frontier is `frontiers[L & 1]`, its
    /// length word `L & 1` of `counters`. The fold of L appends to the other
    /// buffer and adds into the other word, which the step of L zeroed: its
    /// last reader, the fold of L − 1, is done (a fold wave zeroing its own
    /// level's word would race the fold's other waves).
    frontiers: [BufU32; 2],
    counters: BufU32,
    /// Σ deg(v) over each level's frontier, the pull rule's numerator, in
    /// the same two parity words. Only an engine that may pull has one.
    work: Option<BufU64>,
}

/// Mutable traversal state, pooled and reused across batches.
struct MsInner {
    bufs: MsBufs,
    /// Per-slot level arrays, grown lazily to the widest batch seen.
    /// Values are `base + level`; anything `< base` (or `UNVISITED`) is
    /// unvisited — the [`crate::BfsState`] epoch encoding.
    level_of: Vec<BufU32>,
    /// `seen` may hold bits: the last batch ended before the step that
    /// zeroes it (a deadline, or an early sync short of that step).
    seen_dirty: bool,
    /// Current level-encoding base.
    base: u32,
    /// At least the deepest level the last batch wrote (bounds the base).
    last_depth: u32,
    /// The levels the last batch pulled (see [`MsBfs::pulled_levels`]).
    pulled: Vec<u32>,
    /// One per core: `msbfs_step` lends them all to its workers,
    /// `msbfs_fold` only the first (see `run_impl`).
    scratch: Vec<WaveScratch>,
}

/// A persistent, pooled multi-source engine: the graph upload and every
/// device buffer are built **once**, and each batch reuses them — repeat
/// batches over one graph pay only the traversal itself (the level arrays
/// reset by a base bump, `seen` in the batch's own trailing empty step).
pub struct MsBfs<D: Borrow<Device>> {
    device: D,
    graph: DeviceGraph,
    /// Pull threshold on the union frontier's edge ratio (used only where
    /// `MsBufs::work` exists).
    alpha: f64,
    inner: Mutex<MsInner>,
}

impl<D: Borrow<Device>> MsBfs<D> {
    /// [`MsBfs::with_config`] under the default configuration.
    pub fn new(device: D, graph: &Csr) -> Result<Self, XbfsError> {
        Self::with_config(device, graph, XbfsConfig::default())
    }

    /// Upload `graph` and acquire the reusable traversal state from the
    /// device pool. A level pulls when the union frontier F's edges,
    /// Σ_{u∈F} deg(u) / |E|, exceed `cfg.alpha`: a push walks each row of F
    /// once and a pull sweeps about |E|, whatever the width. Pulling
    /// through out-edges is exact only on symmetric adjacency: an
    /// asymmetric `graph`, or `α = ∞` ([`XbfsConfig::directed`]), gives a
    /// push-only engine.
    pub fn with_config(device: D, graph: &Csr, cfg: XbfsConfig) -> Result<Self, XbfsError> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(XbfsError::EmptyGraph);
        }
        let dev: &Device = device.borrow();
        let g = DeviceGraph::upload(dev, graph);
        let pulls = cfg.alpha.is_finite() && graph.is_symmetric();
        let bufs = MsBufs {
            seen: dev.pool_acquire_u64(n),
            fresh: dev.pool_acquire_u64(n),
            frontiers: [dev.pool_acquire_u32(n), dev.pool_acquire_u32(n)],
            counters: dev.pool_acquire_u32(2),
            work: pulls.then(|| dev.pool_acquire_u64(2)),
        };
        bufs.seen.host_fill(0);
        bufs.fresh.host_fill(0);
        let inner = MsInner {
            bufs,
            level_of: Vec::new(),
            seen_dirty: false,
            base: 1,
            last_depth: 0,
            pulled: Vec::new(),
            scratch: (0..gcd_sim::cores())
                .map(|_| WaveScratch::default())
                .collect(),
        };
        Ok(Self {
            device,
            graph: g,
            alpha: cfg.alpha,
            inner: Mutex::new(inner),
        })
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        self.device.borrow()
    }

    /// The levels the last batch pulled, ascending. Each level's step
    /// chooses its direction on the device; the host applies the same rule
    /// to the counts it reads back anyway.
    pub fn pulled_levels(&self) -> Vec<u32> {
        crate::lock(&self.inner).pulled.clone()
    }

    /// Run up to [`MAX_CONCURRENT`] BFS instances in one shared traversal.
    ///
    /// Panics on invalid input (empty / oversized batch, out-of-range
    /// source); serving layers should use [`MsBfs::run_with`], which
    /// returns typed errors and supports deadlines and certification.
    pub fn run_batch(&self, sources: &[u32]) -> MsBfsRun {
        self.run_with(sources, None, false)
            .unwrap_or_else(|e| panic!("{e}"))
            .0
    }

    /// The full form of [`MsBfs::run_batch`]: one batch under every
    /// governor at once. `deadline_ms` bounds the modeled clock (checked
    /// between levels — a batch that completes on its last level is never
    /// a timeout), `verify` runs the verified pipeline with the per-slot
    /// certificate ([`certify_levels`]); the third field is the wall ms
    /// that pipeline spent after the traversal (0 unverified). An
    /// out-of-range source is a typed error; an empty or oversized batch
    /// is a caller bug and panics.
    pub fn run_with(
        &self,
        sources: &[u32],
        deadline_ms: Option<f64>,
        verify: bool,
    ) -> Result<(MsBfsRun, Option<Vec<Certificate>>, f64), XbfsError> {
        assert!(!sources.is_empty(), "need at least one source");
        assert!(
            sources.len() <= MAX_CONCURRENT,
            "at most {MAX_CONCURRENT} concurrent sources"
        );
        let n = self.graph.num_vertices();
        for &source in sources {
            check_source(source, n)?;
        }
        let (dev, run) = (self.device.borrow(), || self.run_impl(sources, deadline_ms));
        let certify = |off: &[u64], adj: &[u32], run: &MsBfsRun| {
            certify_levels(off, adj, &run.sources, &run.levels)
        };
        verified_run(dev, &self.graph, verify, run, certify)
    }

    fn run_impl(&self, sources: &[u32], deadline_ms: Option<f64>) -> Result<MsBfsRun, XbfsError> {
        let device: &Device = self.device.borrow();
        let graph = &self.graph;
        let n = graph.num_vertices();
        let mut guard = crate::lock(&self.inner);
        let inner = &mut *guard;

        // Between batches: zero a `seen` the last batch left dirty, and
        // advance the level base past everything it wrote (a fill when it
        // wraps); both uncharged. `seen` is dirty until an empty step runs.
        if std::mem::replace(&mut inner.seen_dirty, true) {
            inner.bufs.seen.host_fill(0);
        }
        inner.base = advance_base(inner.base, inner.last_depth, n).unwrap_or_else(|| {
            for l in &inner.level_of {
                l.host_fill(UNVISITED);
            }
            1
        });
        while inner.level_of.len() < sources.len() {
            let l = device.pool_acquire_u32(n);
            // A recycled pool buffer may hold values that decode as
            // visited under the current base; neutralize once on acquire.
            l.host_fill(UNVISITED);
            inner.level_of.push(l);
        }
        let base = inner.base;
        let level_of = &inner.level_of[..sources.len()];

        device.reset_timeline();
        device.set_phase("msbfs init");
        // Seed: sources may coincide; OR their bits. ≤ 64 entries, sorted
        // by vertex — equivalent to the dedup'd init frontier.
        let mut seeds: Vec<(u32, u64)> = Vec::with_capacity(sources.len());
        for (i, &s) in sources.iter().enumerate() {
            level_of[i].store(s as usize, base);
            match seeds.binary_search_by_key(&s, |&(v, _)| v) {
                Ok(p) => seeds[p].1 |= 1 << i,
                Err(p) => seeds.insert(p, (s, 1 << i)),
            }
        }
        // Level 0's words: the seeds' count and edges (the pull rule's input).
        let mut work = 0u64;
        for (i, &(v, bits)) in seeds.iter().enumerate() {
            inner.bufs.frontiers[0].store(i, v);
            inner.bufs.seen.store(v as usize, bits);
            work += u64::from(graph.host_degrees[v as usize]);
        }
        inner.bufs.counters.store(0, seeds.len() as u32);
        inner.bufs.work.iter().for_each(|t| t.store(0, work));
        device.charge_transfer(0, 12 * (seeds.len() as u64 + 1));
        let (alpha, edges) = (self.alpha, graph.num_edges().max(1) as f64);
        let pulls = move |work: u64| work as f64 / edges > alpha;
        let slots = u64::MAX >> (MAX_CONCURRENT - sources.len());
        let mut level = 0u32;
        let bufs = &inner.bufs;
        let words = |p: usize| (bufs.counters.load(p), bufs.work.as_ref().map(|t| t.load(p)));
        let pulled = &mut inner.pulled;
        pulled.clear();
        // Read level `l`'s words: true if it is empty, else record its pull.
        let mut empty = |l: u32, (count, work): (u32, Option<u64>)| {
            if count > 0 && work.is_some_and(pulls) {
                pulled.push(l);
            }
            count == 0
        };

        // The host never waits on a level it has just queued. After the
        // fold of an even level L both parity words hold live levels, L's
        // and L + 1's (step L + 1 zeroes the first), so one in-stream copy
        // carries both; the host reads it once level L + 1 is queued too.
        // So one empty level runs past the deepest (two if the first empty
        // level is even), and the batch syncs once. The step of an empty
        // level zeroes `seen`, leaving it clean for the next batch.
        let mut copied = [(0, None); 2];
        let clean = loop {
            device.set_phase(format!("msbfs level {level}"));
            let (scratch, at) = (&mut inner.scratch, level as usize & 1);
            // Step waves read only what the last fold wrote and write only
            // through `atomicOr` (expand) or to their own vertices (pull):
            // they may run on every core.
            let step = LaunchCfg::new("msbfs_step", n).with_registers(56);
            device.launch_split(0, step, scratch, |w, s| {
                step_kernel(w, graph, bufs, at, slots, &pulls, s)
            });
            // Fold: merge fresh bits into seen, record levels, build the
            // next union frontier, and zero the fresh entries consumed.
            // Its `wave_add32` hands out frontier slots in wave order, and
            // the coalescer sees where they land: one worker, in order.
            let enc = base + level + 1;
            let fold = LaunchCfg::new("msbfs_fold", n).with_registers(40);
            device.launch_split(0, fold, &mut scratch[..1], |w, s| {
                fold_kernel(w, graph, bufs, level_of, enc, at, s)
            });
            inner.last_depth = level + 1;
            // After an even fold, queue the copy of this level's words and
            // the next's; after an odd one, read the copy queued before it.
            if at == 0 {
                device.charge_transfer(0, if bufs.work.is_some() { 24 } else { 8 });
                copied = [words(0), words(1)];
            } else if empty(level - 1, copied[0]) || empty(level, copied[1]) {
                device.sync();
                break true;
            }
            // A batch that completes on its last level is never a timeout:
            // past the budget, sync and read the words not read yet to
            // learn whether this level found anything. The fold already
            // zeroed `fresh`, so the engine stays reusable; `seen` is clean
            // only if this level was empty (its step zeroed it).
            if let Err(late) = check_deadline(deadline_ms, device.elapsed_us(), level + 1) {
                device.sync();
                let clean = at == 0 && empty(level, words(0));
                if clean || words(at ^ 1).0 == 0 {
                    break clean;
                }
                return Err(late);
            }
            level += 1;
        };
        inner.seen_dirty = !clean;

        let total_ms = device.elapsed_us() / 1000.0;
        // One pass per slot: decode each level and sum the reached degrees,
        // reading the synced buffers as plain values.
        let degrees = &graph.host_degrees;
        let mut slot_edges = Vec::with_capacity(sources.len());
        let levels: Vec<Vec<u32>> = inner.level_of[..sources.len()]
            .iter_mut()
            .map(|b| {
                let mut edges = 0u64;
                let decode = |(raw, &d): (u32, &u32)| {
                    let level = decode_level(raw, base);
                    edges += u64::from(d) * u64::from(level != UNVISITED);
                    level
                };
                let levels = b.host_values().zip(degrees).map(decode).collect();
                slot_edges.push(edges);
                levels
            })
            .collect();
        let traversed_edges = slot_edges.iter().sum();
        let gteps = gteps(traversed_edges, total_ms * 1e-3);
        Ok(MsBfsRun {
            sources: sources.to_vec(),
            levels,
            slot_edges,
            total_ms,
            traversed_edges,
            gteps,
        })
    }
}

impl<D: Borrow<Device>> Drop for MsBfs<D> {
    /// Release every pooled buffer in reverse acquisition order so the
    /// pool's LIFO free lists hand each one back to the same role on the
    /// next build — the bit-identical warm-rebuild invariant.
    fn drop(&mut self) {
        let device: &Device = self.device.borrow();
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        for l in inner.level_of.drain(..).rev() {
            device.pool_release_u32(l);
        }
        let b = &mut inner.bufs;
        if let Some(work) = b.work.take() {
            device.pool_release_u64(work);
        }
        let [first, second] = &mut b.frontiers;
        for buf in [&mut b.counters, second, first] {
            device.pool_release_u32(std::mem::replace(buf, BufU32::placeholder()));
        }
        for buf in [&mut b.fresh, &mut b.seen] {
            device.pool_release_u64(std::mem::replace(buf, BufU64::placeholder()));
        }
        self.graph.release_to_pool(device);
    }
}

impl<D: Borrow<Device>> Engine for MsBfs<D> {
    fn width(&self) -> usize {
        MAX_CONCURRENT
    }

    fn run(&mut self, req: &RunRequest<'_>) -> Result<RunOutcome, EngineError> {
        let sources = req.slots(MAX_CONCURRENT)?;
        let refusal = match req.inject {
            Inject::None => None,
            Inject::Bitflips(_) => Some("bitflip chaos requires a batch-width 1 server"),
            Inject::RankCrash { .. } => Some("crash chaos requires a --cluster server"),
        };
        if let Some(why) = refusal {
            return Err(EngineError::unsupported(why));
        }
        let (run, certs, certify_wall_ms) = self.run_with(sources, req.deadline_ms, req.verify)?;
        let slots = (0..run.width()).map(|slot| match &certs {
            // A certificate already counted and digested its slot's levels.
            Some(certs) => run.answer_from(slot, &certs[slot]),
            None => run.answer(slot),
        });
        Ok(RunOutcome {
            slots: slots.collect(),
            total_ms: run.total_ms,
            levels: run.levels,
            certified: certs.is_some(),
            certify_wall_ms,
            recoveries: None,
        })
    }
}

/// Result of a concurrent run.
#[derive(Debug, Clone)]
pub struct MsBfsRun {
    /// The batch's sources, in slot order.
    pub sources: Vec<u32>,
    /// `levels[i][v]` = BFS level of `v` from `sources[i]`.
    pub levels: Vec<Vec<u32>>,
    /// Per-slot traversed edges (Graph500 convention).
    pub slot_edges: Vec<u64>,
    /// Modeled end-to-end time for the whole batch, ms.
    pub total_ms: f64,
    /// Sum of per-source traversed edges.
    pub traversed_edges: u64,
    /// Aggregate GTEPS across the batch.
    pub gteps: f64,
}

impl MsBfsRun {
    /// Slots in the batch.
    pub fn width(&self) -> usize {
        self.sources.len()
    }

    /// Timing-independent per-slot digest — bit-identical to
    /// [`crate::stats::BfsRun::result_digest`] of a solo run from the
    /// same source on the same graph. This is what batched serving
    /// answers with, so batching is invisible in the response payload.
    pub fn result_digest(&self, slot: usize) -> u64 {
        levels_digest(self.sources[slot], &self.levels[slot])
    }

    /// What batched serving answers with for one slot: depth is the
    /// deepest level and the digest is the levels-only
    /// [`MsBfsRun::result_digest`], so batching is invisible next to a
    /// solo run's `result_digest`. One pass over the slot's levels.
    pub fn answer(&self, slot: usize) -> SlotAnswer {
        self.answer_from(slot, &certificate(self.sources[slot], &self.levels[slot]))
    }

    /// [`MsBfsRun::answer`] from the slot's [`Certificate`], which counted
    /// and digested its levels already.
    fn answer_from(&self, slot: usize, cert: &Certificate) -> SlotAnswer {
        SlotAnswer {
            source: self.sources[slot],
            depth: cert.depth,
            reached: cert.visited,
            gteps: self.slot_gteps(slot),
            digest: cert.levels_checksum,
        }
    }

    /// Per-slot GTEPS share (slot edges over the shared batch time).
    pub fn slot_gteps(&self, slot: usize) -> f64 {
        gteps(self.slot_edges[slot], self.total_ms * 1e-3)
    }
}

/// One level's step, launched over every vertex before the host knows the
/// frontier. Each wave reads the level's count and edges from parity word
/// `at` (wave 0 also zeroes the other word for the fold to add into). On
/// an empty level it zeroes `seen` over its own vertices and exits: no
/// wave of that launch reads `seen`, and every batch that ends normally
/// runs it, so `seen` starts the next batch all-zero. Otherwise it pulls
/// where `pulls(edges)` holds, the rule the host records, and pushes.
///
/// A push lane holds a frontier entry (lanes past the count exit at once)
/// and sends `its bits & !seen` to its neighbours with a 64-bit `atomicOr`
/// into `fresh`. A pull lane wants the batch's `slots` its vertex has not
/// seen, ORs in `seen[u] & want` over its neighbours, and retires once
/// nothing is wanted or the row ends. On symmetric adjacency a bit of
/// `seen[u]` that `v` lacks reached `u` at the level just folded, so the
/// lane finds exactly what the frontier would have pushed to it. It stores
/// only its own `fresh[v]`: no atomics, waves commute.
fn step_kernel(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    b: &MsBufs,
    at: usize,
    slots: u64,
    pulls: &(impl Fn(u64) -> bool + Sync),
    s: &mut WaveScratch,
) {
    let count = w.sload32(&b.counters, at) as usize;
    let work = b.work.as_ref().map(|t| w.sload64(t, at));
    if w.wave_id() == 0 {
        w.sstore32(&b.counters, at ^ 1, 0);
        b.work.iter().for_each(|t| w.vstore64(t, [(at ^ 1, 0)]));
    }
    let gids = w.lanes();
    if count == 0 {
        return w.vstore64(&b.seen, gids.map(|v| (v, 0)));
    }
    let pull = work.is_some_and(pulls);
    if !pull && gids.start >= count {
        return;
    }
    s.words.clear();
    s.masks.clear();
    s.pending.clear();
    if !pull {
        let entries = gids.len().min(count - gids.start);
        w.vload32_range(&b.frontiers[at], gids.start, entries, &mut s.words);
        let us = s.words.iter().map(|&u| u as usize);
        w.vload64(&b.seen, us.clone(), &mut s.masks);
        s.pending.extend(us.zip(s.masks.iter().copied()));
        return walk(w, g, b, s, |l, v, sb, _| {
            let new = l.bits & !sb;
            (new != 0).then_some((v, new))
        });
    }
    w.vload64_range(&b.seen, gids.start, gids.len(), &mut s.masks);
    w.alu(1);
    let wants = gids.zip(&s.masks).map(|(v, &sv)| (v, slots & !sv));
    s.pending.extend(wants.filter(|&(_, want)| want != 0));
    s.got.clear();
    s.got.resize(s.pending.len(), 0);
    walk(w, g, b, s, |l, _, sb, got| {
        got[l.at] |= l.bits & sb;
        l.bits &= !sb;
        None
    });
    let found = s.pending.iter().zip(&s.got).filter(|&(_, &f)| f != 0);
    s.ops.clear();
    s.ops.extend(found.map(|(&(v, _), &f)| (v, f)));
    w.vstore64(&b.fresh, &s.ops);
}

/// The neighbour walk both directions share. Each head `(v, bits)` of
/// `s.pending` gets a lane over `v`'s row. Per step every live lane
/// gathers one neighbour and its seen mask, two gathers per edge; `step`
/// sees the lane with them and `s.got`, and the `atomicOr`s into `fresh`
/// it asks for go out as one op. A lane retires at its row's end or once
/// its `bits` are 0.
fn walk(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    b: &MsBufs,
    s: &mut WaveScratch,
    mut step: impl FnMut(&mut Lane, usize, u64, &mut [u64]) -> Option<(usize, u64)>,
) {
    let vidx = s.pending.iter().map(|&(v, _)| v);
    s.offs.clear();
    w.vload64(&g.offsets, vidx.clone(), &mut s.offs);
    s.degs.clear();
    w.vload32(&g.degrees, vidx, &mut s.degs);
    s.lanes.clear();
    let lanes = s.pending.iter().zip(s.offs.iter().zip(&s.degs)).enumerate();
    s.lanes
        .extend(lanes.map(|(at, (&(_, bits), (&off, &deg)))| Lane { bits, off, deg, at }));
    for k in 0.. {
        s.lanes.retain(|l| k < l.deg && l.bits != 0);
        if s.lanes.is_empty() {
            break;
        }
        s.vs.clear();
        let aidx = s.lanes.iter().map(|l| (l.off + u64::from(k)) as usize);
        w.vload32(&g.adjacency, aidx, &mut s.vs);
        s.svs.clear();
        w.vload64(&b.seen, s.vs.iter().map(|&v| v as usize), &mut s.svs);
        w.alu(2);
        s.ops.clear();
        for (&v, (l, &sb)) in s.vs.iter().zip(s.lanes.iter_mut().zip(&s.svs)) {
            s.ops.extend(step(l, v as usize, sb, &mut s.got));
        }
        w.vor64(&b.fresh, &s.ops);
    }
}

/// Fold: for every vertex with fresh bits, merge into `seen`, record the
/// level for each new bit, enqueue into the next union frontier — and
/// zero the fresh entry, restoring the all-zero invariant without a
/// per-level fill kernel. Its members' count (and, on an engine that may
/// pull, their degrees) go to parity word `!at`; an empty level (word `at`
/// is 0) exits after that scalar load.
fn fold_kernel(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    b: &MsBufs,
    level_of: &[BufU32],
    enc_level: u32,
    at: usize,
    s: &mut WaveScratch,
) {
    if w.sload32(&b.counters, at) == 0 {
        return;
    }
    let gids = w.lanes();
    s.fb.clear();
    w.vload64_range(&b.fresh, gids.start, gids.len(), &mut s.fb);
    w.alu(1);
    s.pending.clear();
    let pending = gids.zip(&s.fb).filter(|&(_, &f)| f != 0);
    s.pending.extend(pending.map(|(v, &f)| (v, f)));
    if s.pending.is_empty() {
        return;
    }
    s.svs.clear();
    w.vload64(&b.seen, s.pending.iter().map(|&(v, _)| v), &mut s.svs);
    s.members.clear();
    s.seen_writes.clear();
    let widest = s.level_writes.len().max(level_of.len());
    s.level_writes.resize_with(widest, Vec::new);
    let level_writes = &mut s.level_writes[..level_of.len()];
    level_writes.iter_mut().for_each(Vec::clear);
    for (&(v, f), &sb) in s.pending.iter().zip(&s.svs) {
        let new = f & !sb;
        if new == 0 {
            continue;
        }
        s.seen_writes.push((v, sb | new));
        s.members.push(v as u32);
        let mut bits = new;
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            level_writes[slot].push((v, enc_level));
            bits &= bits - 1;
        }
        w.alu(1);
    }
    w.vstore64(&b.fresh, s.pending.iter().map(|&(v, _)| (v, 0)));
    w.vstore64(&b.seen, &s.seen_writes);
    // Slot ascending, vertex ascending within a slot: the order of these
    // stores is coalescer state (DESIGN.md §8). An empty store is free.
    for (level, writes) in level_of.iter().zip(level_writes.iter()) {
        w.vstore32(level, writes);
    }
    if s.members.is_empty() {
        return;
    }
    let base = w.wave_add32(&b.counters, at ^ 1, s.members.len() as u32) as usize;
    w.vstore32_range(&b.frontiers[at ^ 1], base, &s.members);
    if let Some(work) = &b.work {
        let members = s.members.iter().map(|&v| v as usize);
        s.degs.clear();
        w.vload32(&g.degrees, members, &mut s.degs);
        w.alu(1);
        w.wave_add64(work, at ^ 1, s.degs.iter().map(|&d| u64::from(d)).sum());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::bfs_levels_serial;

    /// One batch on a one-shot engine.
    fn one_shot(device: &Device, graph: &Csr, sources: &[u32]) -> MsBfsRun {
        MsBfs::new(device, graph).unwrap().run_batch(sources)
    }
    use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};
    use xbfs_graph::stats::pick_sources;

    #[test]
    fn sharing_beats_sequential_runs() {
        // The iBFS claim: one shared traversal for k sources beats k
        // independent traversals.
        let g = rmat_graph(RmatParams::graph500(12), 4);
        let sources = pick_sources(&g, 16, 11);
        let dev = Device::mi250x();
        let shared = one_shot(&dev, &g, &sources);
        let xbfs = crate::Xbfs::new(&dev, &g, crate::XbfsConfig::default()).unwrap();
        let sequential_ms: f64 = sources.iter().map(|&s| xbfs.run(s).unwrap().total_ms).sum();
        assert!(
            shared.total_ms < 0.5 * sequential_ms,
            "shared {} ms should be well under sequential {} ms",
            shared.total_ms,
            sequential_ms
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_oversized_batch() {
        let g = erdos_renyi(50, 100, 1);
        let dev = Device::mi250x();
        let sources: Vec<u32> = (0..65).collect();
        one_shot(&dev, &g, &sources);
    }

    #[test]
    fn pooled_engine_reuse_is_bit_identical() {
        // The tentpole invariant: an engine reused across many batches (each
        // batch's first empty step zeroes `seen`, no fills) answers exactly
        // like a fresh one-shot engine, batch after batch — including interleaved widths.
        let g = rmat_graph(RmatParams::graph500(10), 6);
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        let batches: Vec<Vec<u32>> = vec![
            pick_sources(&g, 64, 1),
            pick_sources(&g, 3, 2),
            pick_sources(&g, 64, 1), // repeat of batch 0
            vec![0, 0, 1],
            pick_sources(&g, 17, 9),
        ];
        let first = engine.run_batch(&batches[0]);
        for (bi, sources) in batches.iter().enumerate() {
            let warm = engine.run_batch(sources);
            let fresh = one_shot(&Device::mi250x(), &g, sources);
            assert_eq!(warm.levels, fresh.levels, "batch {bi} levels diverged");
            for slot in 0..sources.len() {
                assert_eq!(
                    warm.result_digest(slot),
                    fresh.result_digest(slot),
                    "batch {bi} slot {slot} digest diverged"
                );
            }
        }
        let again = engine.run_batch(&batches[0]);
        assert_eq!(first.levels, again.levels);
    }

    #[test]
    fn lent_scratch_carries_nothing_between_waves_or_batches() {
        // The kernels' working vectors outlive every wave. Whatever one
        // leaves in them must not reach the next: a reused engine reports
        // the levels, kernel counters and modeled time of a fresh one.
        let g = rmat_graph(RmatParams::graph500(9), 2);
        let observe = |engine: &MsBfs<&Device>, sources: &[u32]| {
            let run = engine.run_batch(sources);
            let kernels: Vec<_> = (engine.device().take_reports().into_iter())
                .map(|k| (k.name, k.stats, k.runtime_ms.to_bits()))
                .collect();
            (run.levels, kernels, run.total_ms.to_bits())
        };
        let dev = Device::mi250x();
        let reused = MsBfs::new(&dev, &g).unwrap();
        // From an isolated source every wave returns early: the expand
        // wave has no live lane and no fold wave has a pending bit.
        let isolated = (0..g.num_vertices() as u32).find(|&v| g.degree(v) == 0);
        let (levels, ..) = observe(&reused, &[isolated.expect("R-MAT isolates vertices")]);
        assert_eq!(levels[0].iter().filter(|&&l| l != UNVISITED).count(), 1);
        for sources in [pick_sources(&g, MAX_CONCURRENT, 5), pick_sources(&g, 3, 6)] {
            let fresh_dev = Device::mi250x();
            let fresh = MsBfs::new(&fresh_dev, &g).unwrap();
            let (warm, cold) = (observe(&reused, &sources), observe(&fresh, &sources));
            assert!(warm == cold, "width {} diverged", sources.len());
            assert!(!warm.1.is_empty(), "every launch leaves a report");
        }
    }

    #[test]
    fn every_way_a_batch_ends_leaves_seen_zeroed_or_dirty() {
        // `seen` has no epoch gate: whichever way a batch ends, the next
        // finds it all-zero or knows to zero it, and then reports the
        // levels, kernel counters and modeled time of a fresh engine.
        let g = rmat_graph(RmatParams::graph500(10), 6);
        let depth = |s| certificate(s, &bfs_levels_serial(&g, s)).depth as usize;
        let candidates = pick_sources(&g, 64, 3);
        let parity = |p| *candidates.iter().find(|&&s| depth(s) % 2 == p).unwrap();
        let (even, odd) = (parity(0), parity(1));
        let (de, dodd) = (depth(even), depth(odd));
        // The modeled µs a one-source batch has spent at the deadline check
        // after level `l`: seed upload and readbacks (24 bytes each), kernels.
        let checked_at = |source, l: usize| {
            let dev = Device::mi250x();
            one_shot(&dev, &g, &[source]);
            let kernels = dev.take_reports()[..2 * l + 2]
                .iter()
                .map(|k| k.runtime_ms)
                .sum::<f64>();
            let a = dev.arch();
            (l / 2 + 2) as f64 * (a.h2d_latency_us + 24.0 / (a.h2d_bw_gbps * 1e3)) + kernels * 1e3
        };
        // A budget (ms) that runs out at the check after level `l`.
        let past = |s, l| Some((checked_at(s, l - 1) + checked_at(s, l)) / 2e3);
        let observe = |engine: &MsBfs<&Device>| {
            let run = engine.run_batch(&pick_sources(&g, MAX_CONCURRENT, 5));
            let kernels = engine.device().take_reports().into_iter();
            let kernels: Vec<_> = kernels.map(|k| (k.stats, k.runtime_ms.to_bits())).collect();
            (run.levels, kernels, run.total_ms.to_bits())
        };
        let fresh = observe(&MsBfs::new(&Device::mi250x(), &g).unwrap());
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        // (how a batch ends, its source and budget, whether `seen` is zeroed)
        for (how, source, budget, zeroed) in [
            ("first empty level odd", even, None, true),
            ("first empty level even", odd, None, true),
            ("early sync, level L empty", odd, past(odd, dodd + 1), true),
            ("early sync, level L + 1 empty", even, past(even, de), false),
            ("deadline", even, past(even, de - 1), false),
        ] {
            let ended = engine.run_with(&[source], budget, false);
            assert_eq!(ended.is_ok(), how != "deadline", "{how}");
            let inner = crate::lock(&engine.inner);
            let clean = !inner.seen_dirty && inner.bufs.seen.iter().all(|m| m == 0);
            assert!(if zeroed { clean } else { inner.seen_dirty }, "{how}");
            drop(inner);
            dev.take_reports();
            assert!(observe(&engine) == fresh, "the batch after: {how}");
        }
    }

    #[test]
    fn governed_deadline_aborts_and_engine_stays_reusable() {
        let g = rmat_graph(RmatParams::graph500(11), 3);
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        let sources = pick_sources(&g, 32, 4);
        // An absurdly small budget must abort between levels...
        let err = engine
            .run_with(&sources, Some(1e-6), false)
            .expect_err("1ns budget must abort");
        assert!(matches!(err, XbfsError::DeadlineExceeded { .. }));
        // ...and the engine must remain consistent for the next batch.
        let (run, ..) = engine.run_with(&sources, None, false).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(run.levels[i], bfs_levels_serial(&g, s), "source {s}");
        }
    }

    #[test]
    fn governed_verify_certifies_every_slot() {
        let g = rmat_graph(RmatParams::graph500(9), 8);
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        let sources = pick_sources(&g, 16, 7);
        let (run, certs, _) = engine.run_with(&sources, None, true).unwrap();
        let certs = certs.expect("verify produces certificates");
        assert_eq!(certs.len(), sources.len());
        for (i, c) in certs.iter().enumerate() {
            assert_eq!(c.visited, run.answer(i).reached);
            assert_eq!(c.levels_checksum, run.result_digest(i));
        }
    }

    #[test]
    fn batched_digest_matches_solo_xbfs_result_digest() {
        // The serving contract: a batched response's digest is
        // bit-identical to what a solo single-source run would answer.
        let g = rmat_graph(RmatParams::graph500(10), 12);
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        let sources = pick_sources(&g, 24, 13);
        let run = engine.run_batch(&sources);
        let solo_dev = Device::mi250x();
        let xbfs = crate::Xbfs::new(&solo_dev, &g, crate::XbfsConfig::default()).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let solo = xbfs.run(s).unwrap();
            assert_eq!(
                run.result_digest(i),
                solo.result_digest(),
                "slot {i} source {s}"
            );
        }
    }
}
