//! Graph statistics used by the evaluation harness: per-level
//! frontier/edge profiles (the raw data behind Fig. 6) and a summary
//! struct printed by `repro table2`.

use crate::csr::{Csr, VertexId};
use crate::reference::bfs_levels_serial;
use crate::UNVISITED;

/// Summary statistics for one graph.
#[derive(Debug, Clone)]
pub struct GraphSummary {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: u32,
    /// Vertices with no edges.
    pub isolated_vertices: usize,
    /// Bytes under the paper's device layout (`8(|V|+1) + 4|M|`).
    pub device_bytes: u64,
}

/// Compute the summary for `g`.
pub fn summarize(g: &Csr) -> GraphSummary {
    let isolated = (0..g.num_vertices() as VertexId)
        .filter(|&v| g.degree(v) == 0)
        .count();
    GraphSummary {
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        avg_degree: g.average_degree(),
        max_degree: g.max_degree(),
        isolated_vertices: isolated,
        device_bytes: g.device_bytes(),
    }
}

/// Per-level frontier profile of a BFS from `source` — the quantity plotted
/// in Fig. 6 is `log2(edge_ratio)` per level.
#[derive(Debug, Clone)]
pub struct LevelProfile {
    /// BFS source this profile was computed from.
    pub source: VertexId,
    /// Number of vertices at each level.
    pub frontier_sizes: Vec<u64>,
    /// Sum of degrees of the vertices at each level ("edges to expand").
    pub frontier_edges: Vec<u64>,
    /// `frontier_edges[l] / |E|` — the ratio XBFS compares against α.
    pub edge_ratios: Vec<f64>,
}

/// Compute the level profile with a serial reference BFS.
pub fn level_profile(g: &Csr, source: VertexId) -> LevelProfile {
    let levels = bfs_levels_serial(g, source);
    let depth = crate::certificate(source, &levels).depth;
    let mut sizes = vec![0u64; depth as usize + 1];
    let mut edges = vec![0u64; depth as usize + 1];
    for (v, &l) in levels.iter().enumerate() {
        if l != UNVISITED {
            sizes[l as usize] += 1;
            edges[l as usize] += g.degree(v as VertexId) as u64;
        }
    }
    let m = g.num_edges().max(1) as f64;
    let ratios = edges.iter().map(|&e| e as f64 / m).collect();
    LevelProfile {
        source,
        frontier_sizes: sizes,
        frontier_edges: edges,
        edge_ratios: ratios,
    }
}

/// Pick `count` sources with nonzero degree, spread deterministically, for
/// "n-to-n" experiments (the paper averages over many sources).
pub fn pick_sources(g: &Csr, count: usize, seed: u64) -> Vec<VertexId> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_vertices();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < 100 * count.max(1) {
        let v = rng.gen_range(0..n) as VertexId;
        attempts += 1;
        if g.degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi};

    #[test]
    fn summary_counts_isolated() {
        let g = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let s = summarize(&g);
        assert_eq!(s.isolated_vertices, 1);
        assert_eq!(s.num_edges, 2);
    }

    #[test]
    fn level_profile_sums_to_reachable_set() {
        let g = barabasi_albert(500, 3, 2);
        let p = level_profile(&g, 0);
        let total: u64 = p.frontier_sizes.iter().sum();
        assert_eq!(total, 500); // BA graphs are connected
        let edge_total: u64 = p.frontier_edges.iter().sum();
        assert_eq!(edge_total, g.num_edges() as u64);
        let ratio_sum: f64 = p.edge_ratios.iter().sum();
        assert!((ratio_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sources_have_degree() {
        let g = erdos_renyi(400, 300, 5);
        let s = pick_sources(&g, 16, 1);
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&v| g.degree(v) > 0));
        assert_eq!(s, pick_sources(&g, 16, 1));
    }
}
