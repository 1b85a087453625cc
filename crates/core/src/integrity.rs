//! Silent-data-corruption detection for the single-GCD serving path:
//! seedable device-memory bit-flip injection, an O(|V|+|E|) BFS result
//! *certificate* validator, and the typed [`IntegrityError`] the CLI and
//! sweep supervisor act on.
//!
//! PR 1's fault framework models *crash* faults (a GCD dies mid-collective
//! and the cluster recovers). This module models *silent* faults: a bit
//! flips in device memory and every downstream number is quietly wrong
//! unless something checks. Three complementary detectors cover the state
//! a flip can land in (DESIGN.md §9):
//!
//! * **CSR checksum** ([`crate::DeviceGraph::verify`]) — FNV-1a over the
//!   uploaded topology; any single-word corruption always changes the
//!   digest (the mix is bijective per word).
//! * **Pool checksums + canaries** (`gcd_sim::Device::verify_pool`) — the
//!   same guarantee for buffers parked between runs.
//! * **The certificate** ([`certify_run`]) — semantic validation of live
//!   run output: level histogram bounded by the runner's claims-based
//!   frontier counters, the one level check every engine shares
//!   ([`xbfs_graph::certify_levels`]), and full parent-tree checks when
//!   parents are recorded.
//!
//! The injector ([`apply_sabotage`]) deliberately emulates an adversarial
//! single-event upset *that matters*: it flips bits whose corruption is
//! semantically visible (e.g. it skips a parents flip that would land on a
//! valid alternative parent), so "detected in 100% of injected runs" is a
//! meaningful property rather than vacuously counting masked flips.

use crate::device_graph::DeviceGraph;
use crate::error::XbfsError;
use crate::state::{is_unvisited, BfsState, UNVISITED};
use crate::stats::BfsRun;
use gcd_sim::{splitmix64, Device, PoolError};
use std::fmt;
use std::time::Instant;
use xbfs_graph::validate::check_shape;
use xbfs_graph::{certify_levels, certify_parents, CertViolation, Certificate};

/// How many seeded bit flips to inject into each kind of device state.
///
/// Parsed from / rendered to the CLI spec syntax
/// `status[:N],parents[:N],csr[:N],pool[:N],seed=S` (mirroring the crash
/// fault specs of `xbfs cluster --inject-faults`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitflipPlan {
    /// Flips into the epoch-encoded status (level) array.
    pub status: u32,
    /// Flips into the parent array (requires `record_parents`).
    pub parents: u32,
    /// Flips into the uploaded CSR (offsets or adjacency).
    pub csr: u32,
    /// Flips into buffers parked in the device pool.
    pub pool: u32,
    /// Seed for target selection.
    pub seed: u64,
}

impl BitflipPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if the plan injects no flips at all.
    pub fn is_empty(&self) -> bool {
        self.status == 0 && self.parents == 0 && self.csr == 0 && self.pool == 0
    }

    /// Parse a spec like `status:2,csr,seed=7` (a bare kind means one
    /// flip). Unknown kinds and malformed counts are errors, reported in
    /// the shared ``token `X`: why`` shape of [`xbfs_spec`].
    pub fn parse(spec: &str) -> Result<Self, xbfs_spec::SpecError> {
        let mut plan = Self::none();
        for tok in xbfs_spec::tokenize(spec) {
            match tok {
                xbfs_spec::Token::Assign {
                    key: "seed", value, ..
                } => plan.seed = tok.num("seed", value)?,
                xbfs_spec::Token::Assign { .. } => {
                    return Err(tok.err("unknown assignment (expected seed=<n>)"))
                }
                xbfs_spec::Token::Item { kind, .. } => {
                    let count = tok.arg_count(1)?;
                    match kind {
                        "status" => plan.status += count,
                        "parents" => plan.parents += count,
                        "csr" => plan.csr += count,
                        "pool" => plan.pool += count,
                        _ => {
                            return Err(tok
                                .err("unknown bitflip target (expected status|parents|csr|pool)"))
                        }
                    }
                }
            }
        }
        Ok(plan)
    }

    /// Render back to the spec syntax `parse` accepts (for JSON exports).
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::new();
        for (kind, count) in [
            ("status", self.status),
            ("parents", self.parents),
            ("csr", self.csr),
            ("pool", self.pool),
        ] {
            match count {
                0 => {}
                1 => parts.push(kind.to_string()),
                c => parts.push(format!("{kind}:{c}")),
            }
        }
        parts.push(format!("seed={}", self.seed));
        parts.join(",")
    }
}

/// A bit-flip plan bound to one run: `salt` (e.g. the source vertex in a
/// sweep) decorrelates targets across runs sharing one plan.
#[derive(Debug, Clone, Copy)]
pub struct Sabotage<'a> {
    /// The flip counts and seed.
    pub plan: &'a BitflipPlan,
    /// Mixed into the seed so each run of a sweep corrupts differently.
    pub salt: u64,
}

/// True if `parent -> v` would pass every certificate parent check — used
/// by the injector to skip semantically masked parents flips.
fn is_valid_parent(g: &DeviceGraph, levels: &[u32], parent: u32, v: usize) -> bool {
    let n = g.num_vertices();
    if parent as usize >= n {
        return false;
    }
    let lv = levels[v];
    if lv == 0 {
        return parent as usize == v; // the source parents itself
    }
    if levels[parent as usize] != lv - 1 {
        return false;
    }
    let beg = g.offsets.load(parent as usize) as usize;
    let end = g.offsets.load(parent as usize + 1) as usize;
    (beg..end).any(|e| g.adjacency.load(e) as usize == v)
}

/// Inject the plan's bit flips into live device state. Called by the
/// runner inside the run (after the level loop, before host readback), so
/// the flips model corruption the measured window never observed.
///
/// Targets are chosen so every applied flip is detectable by the
/// certificate / checksum layer (see the module docs); the return value is
/// the number of flips actually applied (a plan can come up short only
/// when its target state does not exist, e.g. `parents` flips on a run
/// without parents, or `pool` flips with an empty pool).
pub fn apply_sabotage(dev: &Device, g: &DeviceGraph, st: &BfsState, sab: &Sabotage) -> u32 {
    let mut s = sab
        .plan
        .seed
        .wrapping_add(sab.salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut applied = 0u32;
    let n = g.num_vertices();

    // Host-side snapshot of the decoded levels for target selection
    // (host reads are untraced, so modeled timings are unaffected).
    let raw: Vec<u32> = st.status.to_host();
    let visited: Vec<usize> = (0..n).filter(|&v| !is_unvisited(raw[v], st.base)).collect();
    let levels: Vec<u32> = raw
        .iter()
        .map(|&r| crate::state::decode_level(r, st.base))
        .collect();

    // Status flips: any bit of any *visited* entry. Flipping a visited
    // entry always moves the vertex's decoded level, and a moved level is
    // always caught: out of range trips LevelOutOfRange, UNVISITED trips
    // UnreachedNeighbor (or SourceNotLevelZero), and an in-range move
    // breaks NoPredecessor or LevelSkip because a true BFS level is
    // exactly 1 + the minimum neighbor level. Flips on unvisited entries
    // could be invisible (stale epochs are already arbitrary), so the
    // injector never wastes a flip there.
    for _ in 0..sab.plan.status {
        if visited.is_empty() {
            break;
        }
        let v = visited[splitmix64(&mut s) as usize % visited.len()];
        let bit = (splitmix64(&mut s) % 32) as u32;
        st.status.store(v, raw[v] ^ (1 << bit));
        applied += 1;
    }

    // Parents flips: pick a visited vertex and a bit whose flip yields an
    // *invalid* parent (out of range, wrong level, or no such edge). A
    // flip that lands on a valid alternative parent is semantically
    // masked — no validator can reject a correct BFS tree — so it would
    // make the 100%-detection property meaningless, not stronger.
    if let Some(parents) = &st.parents {
        'flips: for _ in 0..sab.plan.parents {
            if visited.is_empty() {
                break;
            }
            let start = splitmix64(&mut s) as usize % visited.len();
            let bit0 = splitmix64(&mut s) % 32;
            for i in 0..visited.len() {
                let v = visited[(start + i) % visited.len()];
                let p = parents.load(v);
                for b in 0..32u64 {
                    let bit = ((bit0 + b) % 32) as u32;
                    let flipped = p ^ (1 << bit);
                    if !is_valid_parent(g, &levels, flipped, v) {
                        parents.store(v, flipped);
                        applied += 1;
                        continue 'flips;
                    }
                }
            }
            break; // every candidate flip is masked (degenerate graph)
        }
    }

    // CSR flips: any bit anywhere in the topology — the FNV-1a re-check
    // in `DeviceGraph::verify` detects every single-word corruption.
    for _ in 0..sab.plan.csr {
        let pick = splitmix64(&mut s);
        if pick.is_multiple_of(2) && !g.adjacency.is_empty() {
            let w = splitmix64(&mut s) as usize % g.adjacency.len();
            let bit = (splitmix64(&mut s) % 32) as u32;
            g.adjacency.store(w, g.adjacency.load(w) ^ (1 << bit));
        } else {
            let w = splitmix64(&mut s) as usize % g.offsets.len();
            let bit = (splitmix64(&mut s) % 64) as u32;
            g.offsets.store(w, g.offsets.load(w) ^ (1u64 << bit));
        }
        applied += 1;
    }

    // Pool flips: corrupt a buffer parked in the device pool (detected by
    // the pool's release-time checksums on the next acquire/verify).
    for _ in 0..sab.plan.pool {
        if dev.corrupt_parked(splitmix64(&mut s)).is_some() {
            applied += 1;
        }
    }
    applied
}

/// A detected integrity violation, by detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The uploaded CSR no longer matches its upload-time checksum.
    GraphChecksum {
        /// Digest recorded at upload.
        expected: u64,
        /// Digest recomputed from device memory.
        actual: u64,
    },
    /// The device buffer pool detected corruption or a misuse.
    Pool(PoolError),
    /// The run's output failed certificate validation.
    Certificate(CertViolation),
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::GraphChecksum { expected, actual } => write!(
                f,
                "CSR corrupted in device memory: checksum {actual:#018x}, \
                 expected {expected:#018x}"
            ),
            Self::Pool(e) => write!(f, "buffer pool: {e}"),
            Self::Certificate(v) => write!(f, "certificate violation: {v}"),
        }
    }
}

impl std::error::Error for IntegrityError {}

impl From<PoolError> for IntegrityError {
    fn from(e: PoolError) -> Self {
        Self::Pool(e)
    }
}

impl From<CertViolation> for IntegrityError {
    fn from(v: CertViolation) -> Self {
        Self::Certificate(v)
    }
}

/// The pipeline both device engines run: `run` alone, or under `verify`
/// a pre-run pool sweep, the (optionally sabotaged) `run`, CSR checksum
/// re-check of a host copy, `certify` over those same bytes, and a
/// post-run pool sweep. The run itself is the exact unverified hot path,
/// so certified fault-free results are bit-identical to unverified ones.
/// Also returns the wall ms spent after the run, i.e. what verification
/// added to it (0 unverified).
pub(crate) fn verified_run<R, C>(
    dev: &Device,
    graph: &DeviceGraph,
    verify: bool,
    run: impl FnOnce() -> Result<R, XbfsError>,
    certify: impl FnOnce(&[u64], &[u32], &R) -> Result<C, CertViolation>,
) -> Result<(R, Option<C>, f64), XbfsError> {
    if !verify {
        return run().map(|out| (out, None, 0.0));
    }
    // Surface corruption the pool already quarantined (e.g. during
    // engine construction) before investing in a run.
    if let Some(f) = dev.take_pool_faults().into_iter().next() {
        return Err(IntegrityError::Pool(f).into());
    }
    dev.verify_pool().map_err(IntegrityError::Pool)?;
    let out = run()?;
    let ran = Instant::now();
    let (offsets, adjacency) = graph.verify()?;
    let cert = certify(&offsets, &adjacency, &out).map_err(IntegrityError::Certificate)?;
    // Catch corruption of buffers that sat parked during the run, and
    // any quarantine the run's own acquires performed.
    dev.verify_pool().map_err(IntegrityError::Pool)?;
    if let Some(f) = dev.take_pool_faults().into_iter().next() {
        return Err(IntegrityError::Pool(f).into());
    }
    Ok((out, Some(cert), ran.elapsed().as_secs_f64() * 1000.0))
}

/// Validate a solo run's output against the graph in O(|V| + |E|): the
/// source at level 0, the per-level histogram bounded by the runner's
/// claims-based frontier counters (duplicate claims over-count, never
/// under-count), the levels a BFS ([`certify_levels`], one lane), the
/// traversed-edge count reproducible, and the parent tree exact when
/// recorded ([`certify_parents`]). Returns the [`Certificate`]
/// `certify_levels` gave the levels.
pub fn certify_run(
    offsets: &[u64],
    adjacency: &[u32],
    run: &BfsRun,
) -> Result<Certificate, CertViolation> {
    let levels = &run.levels;
    check_shape(offsets.len().saturating_sub(1), run.source, levels)?;

    // Histogram vs the runner's own per-level frontier counters. The
    // counter is claims-based: single-scan's non-atomic claims can count
    // benign duplicates, so it is an *upper bound* on the true level
    // population (scan-free queues, CAS claims, and proactive bottom-up
    // claims are all exactly-once). A histogram that exceeds the counter
    // is therefore impossible in a clean run. Equality is not required —
    // status flips that move a vertex between in-range levels are caught
    // by the level check below instead (a true BFS level is 1 + the
    // minimum in-neighbor level, so a moved vertex either lacks a
    // predecessor or sits ≥ 2 levels from a neighbor).
    let depth = run.level_stats.len();
    let mut hist = vec![0u64; depth];
    let mut traversed = 0u64;
    for (v, &l) in levels.iter().enumerate() {
        if l == UNVISITED {
            continue;
        }
        if (l as usize) >= depth {
            return Err(CertViolation::LevelOutOfRange {
                vertex: v as u32,
                level: l,
                depth,
            });
        }
        hist[l as usize] += 1;
        traversed += offsets[v + 1] - offsets[v];
    }
    for (l, ls) in run.level_stats.iter().enumerate() {
        if hist[l] > ls.frontier_count {
            return Err(CertViolation::HistogramMismatch {
                level: l as u32,
                counted: hist[l],
                reported: ls.frontier_count,
            });
        }
    }

    let mut certs = certify_levels(offsets, adjacency, &[run.source], &[levels])?;
    if traversed != run.traversed_edges {
        return Err(CertViolation::TraversedEdgesMismatch {
            counted: traversed,
            reported: run.traversed_edges,
        });
    }
    if let Some(parents) = &run.parents {
        certify_parents(offsets, adjacency, run.source, levels, parents)?;
    }
    Ok(certs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::MsBfsRun;
    use crate::config::XbfsConfig;
    use crate::runner::Xbfs;
    use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};

    fn sample_run() -> (Vec<u64>, Vec<u32>, BfsRun) {
        let g = rmat_graph(RmatParams::graph500(8), 11);
        let dev = Device::mi250x();
        let cfg = XbfsConfig {
            record_parents: true,
            ..XbfsConfig::default()
        };
        let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
        let run = xbfs.run(0).unwrap();
        (g.offsets().to_vec(), g.adjacency().to_vec(), run)
    }

    #[test]
    fn clean_run_certifies() {
        let (off, adj, run) = sample_run();
        let cert = certify_run(&off, &adj, &run).expect("clean run must certify");
        assert_eq!(cert.depth as usize + 1, run.level_stats.len());
        assert_eq!(
            cert.visited,
            run.levels.iter().filter(|&&l| l != UNVISITED).count() as u64
        );
    }

    #[test]
    fn status_corruption_fails_certification() {
        let (off, adj, mut run) = sample_run();
        let v = run
            .levels
            .iter()
            .position(|&l| l != UNVISITED && l != 0)
            .unwrap();
        run.levels[v] ^= 1 << 7;
        assert!(certify_run(&off, &adj, &run).is_err());
    }

    #[test]
    fn parent_corruption_fails_certification() {
        let (off, adj, mut run) = sample_run();
        let parents = run.parents.as_mut().unwrap();
        let v = run.levels.iter().position(|&l| l == 1).unwrap();
        parents[v] = u32::MAX - 1; // out of range
        let err = certify_run(&off, &adj, &run).unwrap_err();
        assert!(
            matches!(err, CertViolation::ParentOutOfRange { .. }),
            "{err}"
        );
    }

    #[test]
    fn frontier_counter_mismatch_fails_certification() {
        // The claims counter is an upper bound on the level population
        // (duplicate claims over-count, never under-count), so corruption
        // is a counter that dropped *below* the histogram.
        let (off, adj, mut run) = sample_run();
        run.level_stats[1].frontier_count = 0;
        let err = certify_run(&off, &adj, &run).unwrap_err();
        assert!(
            matches!(err, CertViolation::HistogramMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn bitflip_plan_spec_round_trips() {
        for spec in ["status:2,csr,seed=7", "pool:3,parents,seed=0", "seed=9"] {
            let plan = BitflipPlan::parse(spec).unwrap();
            assert_eq!(BitflipPlan::parse(&plan.to_spec()).unwrap(), plan);
        }
        assert_eq!(
            BitflipPlan::parse("status,status").unwrap().status,
            2,
            "repeats accumulate"
        );
        assert!(BitflipPlan::parse("bogus").is_err());
        assert!(BitflipPlan::parse("status:x").is_err());
        assert!(BitflipPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn isolated_source_certifies() {
        // A source with no edges: depth 1, one visited vertex.
        let g = erdos_renyi(10, 0, 1);
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let run = xbfs.run(3).unwrap();
        let cert = certify_run(g.offsets(), g.adjacency(), &run).unwrap();
        assert_eq!(cert.visited, 1);
    }

    fn sample_ms_run() -> (Vec<u64>, Vec<u32>, MsBfsRun) {
        let g = rmat_graph(RmatParams::graph500(8), 11);
        let dev = Device::mi250x();
        let eng = crate::concurrent::MsBfs::new(&dev, &g).unwrap();
        let run = eng.run_batch(&[0, 5, 9, 5]);
        (g.offsets().to_vec(), g.adjacency().to_vec(), run)
    }

    #[test]
    fn hand_built_batches_of_any_shape_get_a_typed_answer() {
        // Rows hold no per-slot mask, so a batch wider than the engine
        // builds is only a longer one: 65 slots certify.
        let (off, adj, mut run) = sample_ms_run();
        run.sources = vec![run.sources[0]; 65];
        run.levels = vec![run.levels[0].clone(); 65];
        let certs =
            certify_levels(&off, &adj, &run.sources, &run.levels).expect("65 slots certify");
        assert!(certs.len() == 65 && certs.iter().all(|c| *c == certs[0]));
        // A slot without levels (or levels without a slot) is malformed.
        run.levels.pop();
        let err = certify_levels(&off, &adj, &run.sources, &run.levels).unwrap_err();
        let want = CertViolation::LengthMismatch {
            expected: 65,
            actual: 64,
        };
        assert_eq!(err, want);
    }
}
