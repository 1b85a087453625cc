//! Per-run and per-level statistics — the raw material for every table and
//! figure in the paper's evaluation.

use crate::engine::SlotAnswer;
use crate::strategy::Strategy;
use gcd_sim::{fnv1a, KernelReport};
use xbfs_graph::{levels_digest, UNVISITED};

/// What happened at one BFS level.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// BFS level this row describes.
    pub level: u32,
    /// Strategy the controller (or forced mode) selected.
    pub strategy: Strategy,
    /// Whether the No-Frontier-Generation shortcut applied (no generation
    /// scan ran before the expansion).
    pub used_nfg: bool,
    /// Edge ratio of the expanded frontier (`frontier_edges / |E|`).
    pub ratio: f64,
    /// Vertices in the expanded frontier.
    pub frontier_count: u64,
    /// Sum of their degrees.
    pub frontier_edges: u64,
    /// Modeled wall time of the level (kernels + syncs + readbacks), ms.
    pub time_ms: f64,
    /// rocprof-style rows for every kernel launched this level.
    pub kernels: Vec<KernelReport>,
    /// Modeled instant the level started, µs. The four instants are what
    /// [`crate::Xbfs::trace_of`] draws spans from; they are stored, not
    /// re-derived from `time_ms`, so a span's bytes never depend on a
    /// round trip through milliseconds.
    pub start_us: f64,
    /// Instant the frontier-generation scan finished (`None` when the
    /// level ran without one, i.e. `used_nfg` or bottom-up), µs.
    pub gen_end_us: Option<f64>,
    /// Instant the expansion's final sync returned, µs.
    pub expand_end_us: f64,
    /// Instant the level ended (after the counter readback), µs.
    pub end_us: f64,
}

impl LevelStats {
    /// Total HBM fetch across this level's kernels, KB.
    pub fn fetch_kb(&self) -> f64 {
        self.kernels.iter().map(|k| k.fetch_kb).sum()
    }
}

/// Result of one BFS run.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Source vertex of the run.
    pub source: u32,
    /// Per-vertex levels (`u32::MAX` = unreachable).
    pub levels: Vec<u32>,
    /// Optional Graph500 parent array.
    pub parents: Option<Vec<u32>>,
    /// Per-level statistics in level order.
    pub level_stats: Vec<LevelStats>,
    /// End-to-end modeled time (the paper's "n to n" window), ms.
    pub total_ms: f64,
    /// Edges traversed under the Graph500 TEPS convention.
    pub traversed_edges: u64,
    /// Giga-traversed-edges per second.
    pub gteps: f64,
    /// Modeled instant initialization (seeding the source) finished, µs.
    pub init_end_us: f64,
}

impl BfsRun {
    /// BFS depth (number of levels with a non-empty frontier).
    pub fn depth(&self) -> usize {
        self.level_stats.len()
    }

    /// Total HBM fetch over the whole run, KB.
    pub fn total_fetch_kb(&self) -> f64 {
        self.level_stats.iter().map(|l| l.fetch_kb()).sum()
    }

    /// Strategy sequence over the levels.
    pub fn strategy_trace(&self) -> Vec<Strategy> {
        self.level_stats.iter().map(|l| l.strategy).collect()
    }

    /// FNV-1a digest over source, modeled total time, and the full level
    /// array. Two runs with equal digests are bit-identical in everything
    /// the sweep and serving layers compare — the replay/bit-identity
    /// checks in the sweep supervisor and the serve protocol both quote
    /// this value.
    pub fn digest(&self) -> u64 {
        let head = [u64::from(self.source), self.total_ms.to_bits()];
        let levels = self.levels.iter().map(|&l| u64::from(l));
        fnv1a(head.into_iter().chain(levels))
    }

    /// Backend-independent result digest: [`levels_digest`] over this
    /// run's source and levels. Unlike [`BfsRun::digest`] it excludes
    /// the modeled time, so a cluster run (whose timeline includes
    /// exchange, checkpoint, and recovery costs) can be compared
    /// bit-for-bit against a single-device run of the same traversal.
    pub fn result_digest(&self) -> u64 {
        levels_digest(self.source, &self.levels)
    }

    /// What the solo engine answers with: depth is the level count and
    /// the digest is [`BfsRun::digest`], which folds in the modeled time.
    pub fn answer(&self) -> SlotAnswer {
        SlotAnswer {
            source: self.source,
            depth: self.depth() as u32,
            reached: self.levels.iter().filter(|&&l| l != UNVISITED).count() as u64,
            gteps: self.gteps,
            digest: self.digest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd_sim::WaveStats;

    fn kr(rt: f64, fetch: f64) -> KernelReport {
        KernelReport {
            name: "k".into(),
            phase: String::new(),
            runtime_ms: rt,
            l2_hit_pct: 0.0,
            mem_busy_pct: 0.0,
            fetch_kb: fetch,
            stats: WaveStats::default(),
            occupancy: 1.0,
        }
    }

    #[test]
    fn level_aggregates() {
        let l = LevelStats {
            level: 0,
            strategy: Strategy::ScanFree,
            used_nfg: true,
            ratio: 0.5,
            frontier_count: 1,
            frontier_edges: 2,
            time_ms: 3.0,
            kernels: vec![kr(1.0, 10.0), kr(0.5, 20.0)],
            start_us: 0.0,
            gen_end_us: None,
            expand_end_us: 3000.0,
            end_us: 3000.0,
        };
        assert!((l.fetch_kb() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn result_digest_ignores_timing_but_not_levels() {
        let mk = |total_ms: f64, levels: Vec<u32>| BfsRun {
            source: 3,
            levels,
            parents: None,
            level_stats: vec![],
            total_ms,
            traversed_edges: 0,
            gteps: 0.0,
            init_end_us: 0.0,
        };
        let a = mk(1.0, vec![0, 1, 1, 2]);
        let b = mk(9.5, vec![0, 1, 1, 2]);
        assert_ne!(a.digest(), b.digest(), "full digest covers total_ms");
        assert_eq!(a.result_digest(), b.result_digest());
        assert_eq!(a.result_digest(), levels_digest(3, &[0, 1, 1, 2]));
        let c = mk(1.0, vec![0, 1, 2, 2]);
        assert_ne!(a.result_digest(), c.result_digest());
        assert_ne!(levels_digest(3, &[0, 1]), levels_digest(4, &[0, 1]));
    }
}
