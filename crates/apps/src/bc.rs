//! Betweenness centrality (Brandes' algorithm) with XBFS as the traversal
//! engine — the McLaughlin/Bader use case from the paper's introduction.
//!
//! The forward pass (the dominant cost at scale) is a device BFS producing
//! exact levels; shortest-path counts `σ` and dependency accumulation `δ`
//! run level by level on the host, walking the level buckets the device
//! produced.

use crate::BfsEngine;
use xbfs_graph::{Csr, UNVISITED};

/// Exact betweenness centrality from the given sources (pass all vertices
/// for the classic exact algorithm; a sample for approximation). Scores
/// follow Brandes' convention for undirected graphs (each pair counted
/// twice; divide by 2 if you want the undirected normalization).
pub fn betweenness_centrality(g: &Csr, sources: &[u32]) -> Vec<f64> {
    let n = g.num_vertices();
    let engine = BfsEngine::new(g);
    let mut bc = vec![0.0f64; n];
    for &s in sources {
        let levels = engine.bfs(s).levels;
        accumulate_from(g, s, &levels, &mut bc);
    }
    bc
}

/// One Brandes accumulation from `s`, given device-computed levels.
fn accumulate_from(g: &Csr, s: u32, levels: &[u32], bc: &mut [f64]) {
    let n = g.num_vertices();
    let depth = levels
        .iter()
        .filter(|&&l| l != UNVISITED)
        .max()
        .copied()
        .unwrap_or(0) as usize;
    // Level buckets.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); depth + 1];
    for (v, &l) in levels.iter().enumerate() {
        if l != UNVISITED {
            buckets[l as usize].push(v as u32);
        }
    }
    // σ: number of shortest paths from s, computed level by level.
    let mut sigma = vec![0.0f64; n];
    sigma[s as usize] = 1.0;
    // A vertex reads only the level above it, so a level can be written
    // in place.
    for bucket in buckets.iter().skip(1) {
        for &v in bucket {
            let mut sum = 0.0;
            for &u in g.neighbors(v) {
                if levels[u as usize] + 1 == levels[v as usize] {
                    sum += sigma[u as usize];
                }
            }
            sigma[v as usize] = sum;
        }
    }
    // δ: dependency, accumulated backwards (each level reads the one below).
    let mut delta = vec![0.0f64; n];
    for d in (1..=depth).rev() {
        for &u in &buckets[d - 1] {
            let mut sum = 0.0;
            for &v in g.neighbors(u) {
                if levels[v as usize] == levels[u as usize] + 1 && sigma[v as usize] > 0.0 {
                    sum += sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            delta[u as usize] = sum;
        }
    }
    for ((b, &d), (v, &l)) in bc.iter_mut().zip(&delta).zip(levels.iter().enumerate()) {
        if v as u32 != s && l != UNVISITED {
            *b += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::Csr;

    fn path4() -> Csr {
        // 0 - 1 - 2 - 3
        Csr::from_parts(vec![0, 1, 3, 5, 6], vec![1, 0, 2, 1, 3, 2]).unwrap()
    }

    #[test]
    fn path_centrality() {
        let g = path4();
        let all: Vec<u32> = (0..4).collect();
        let bc = betweenness_centrality(&g, &all);
        // On a path, interior vertices carry all crossing pairs:
        // vertex 1 lies on s-t paths (0,2),(0,3),(2,0),(3,0) => 4.
        assert!((bc[0] - 0.0).abs() < 1e-9);
        assert!((bc[1] - 4.0).abs() < 1e-9, "bc = {bc:?}");
        assert!((bc[2] - 4.0).abs() < 1e-9);
        assert!((bc[3] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn star_center_dominates() {
        // Star: 0 in the middle of 1..=4.
        let g = Csr::from_parts(vec![0, 4, 5, 6, 7, 8], vec![1, 2, 3, 4, 0, 0, 0, 0]).unwrap();
        let all: Vec<u32> = (0..5).collect();
        let bc = betweenness_centrality(&g, &all);
        // Center lies on all 4*3 = 12 ordered leaf pairs.
        assert!((bc[0] - 12.0).abs() < 1e-9, "bc = {bc:?}");
        for &leaf_score in &bc[1..5] {
            assert!((leaf_score - 0.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cycle_is_uniform() {
        // 4-cycle: every vertex lies on exactly the two paths between its
        // opposite pair's endpoints... by symmetry all scores equal.
        let g = Csr::from_parts(vec![0, 2, 4, 6, 8], vec![1, 3, 0, 2, 1, 3, 0, 2]).unwrap();
        let all: Vec<u32> = (0..4).collect();
        let bc = betweenness_centrality(&g, &all);
        for v in 1..4 {
            assert!((bc[v] - bc[0]).abs() < 1e-9, "bc = {bc:?}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        use xbfs_graph::generators::erdos_renyi;
        let g = erdos_renyi(30, 80, 3);
        let all: Vec<u32> = (0..30).collect();
        let bc = betweenness_centrality(&g, &all);
        // Brute force: enumerate shortest paths via BFS per pair.
        let brute = brute_force_bc(&g);
        for v in 0..30 {
            assert!(
                (bc[v] - brute[v]).abs() < 1e-6,
                "vertex {v}: {} vs {}",
                bc[v],
                brute[v]
            );
        }
    }

    fn brute_force_bc(g: &Csr) -> Vec<f64> {
        let n = g.num_vertices();
        let mut bc = vec![0.0f64; n];
        for s in 0..n as u32 {
            let levels = xbfs_graph::bfs_levels_serial(g, s);
            // σ via dynamic programming over levels.
            let mut sigma = vec![0.0f64; n];
            sigma[s as usize] = 1.0;
            let mut order: Vec<u32> = (0..n as u32)
                .filter(|&v| levels[v as usize] != UNVISITED)
                .collect();
            order.sort_by_key(|&v| levels[v as usize]);
            for &v in &order {
                if v == s {
                    continue;
                }
                for &u in g.neighbors(v) {
                    if levels[u as usize] + 1 == levels[v as usize] {
                        sigma[v as usize] += sigma[u as usize];
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            for &u in order.iter().rev() {
                for &v in g.neighbors(u) {
                    if levels[v as usize] == levels[u as usize] + 1 {
                        delta[u as usize] +=
                            sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                    }
                }
                if u != s {
                    bc[u as usize] += delta[u as usize];
                }
            }
        }
        bc
    }
}
