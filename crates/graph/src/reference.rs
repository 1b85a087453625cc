//! CPU reference BFS implementations.
//!
//! These are the ground truth every GPU-substrate strategy is tested
//! against: a textbook queue BFS, and a level-synchronous frontier BFS
//! that shares no structure with it.

use crate::csr::{Csr, VertexId};
use crate::UNVISITED;
use std::collections::VecDeque;

/// Serial textbook BFS; returns per-vertex levels (`UNVISITED` for
/// unreachable vertices).
pub fn bfs_levels_serial(g: &Csr, source: VertexId) -> Vec<u32> {
    assert!((source as usize) < g.num_vertices(), "source out of range");
    let mut levels = vec![UNVISITED; g.num_vertices()];
    let mut q = VecDeque::new();
    levels[source as usize] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let next = levels[u as usize] + 1;
        for &v in g.neighbors(u) {
            if levels[v as usize] == UNVISITED {
                levels[v as usize] = next;
                q.push_back(v);
            }
        }
    }
    levels
}

/// Serial BFS returning a parent array (`parent[source] == source`,
/// `UNVISITED` for unreachable vertices) — the Graph500 output format.
pub fn bfs_parents_serial(g: &Csr, source: VertexId) -> Vec<u32> {
    assert!((source as usize) < g.num_vertices(), "source out of range");
    let mut parents = vec![UNVISITED; g.num_vertices()];
    let mut q = VecDeque::new();
    parents[source as usize] = source;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if parents[v as usize] == UNVISITED {
                parents[v as usize] = u;
                q.push_back(v);
            }
        }
    }
    parents
}

/// Level-synchronous BFS on the calling thread: each step expands one
/// whole frontier into the next, the shape every device strategy has. It
/// is the tests' second reference — built unlike the queue walk of
/// [`bfs_levels_serial`], so the two agreeing is evidence, not tautology.
pub fn bfs_levels_frontier(g: &Csr, source: VertexId) -> Vec<u32> {
    assert!((source as usize) < g.num_vertices(), "source out of range");
    let mut levels = vec![UNVISITED; g.num_vertices()];
    levels[source as usize] = 0;
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if levels[v as usize] == UNVISITED {
                    levels[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    levels
}

/// Number of edges "traversed" by a BFS from `source` under the Graph500
/// TEPS convention: the sum of degrees of all reached vertices.
pub fn traversed_edges(g: &Csr, levels: &[u32]) -> u64 {
    levels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != UNVISITED)
        .map(|(v, _)| g.degree(v as VertexId) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;

    fn star() -> Csr {
        // 0 connected to 1..=4.
        Csr::from_parts(vec![0, 4, 5, 6, 7, 8], vec![1, 2, 3, 4, 0, 0, 0, 0]).unwrap()
    }

    #[test]
    fn star_levels() {
        let g = star();
        assert_eq!(bfs_levels_serial(&g, 0), vec![0, 1, 1, 1, 1]);
        assert_eq!(bfs_levels_serial(&g, 2), vec![1, 2, 0, 2, 2]);
    }

    #[test]
    fn parents_form_a_tree() {
        let g = star();
        let p = bfs_parents_serial(&g, 0);
        assert_eq!(p[0], 0);
        assert!(p[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn parallel_matches_serial() {
        for seed in 0..5 {
            let g = erdos_renyi(300, 900, seed);
            for src in [0u32, 37, 123] {
                assert_eq!(
                    bfs_levels_serial(&g, src),
                    bfs_levels_frontier(&g, src),
                    "seed {seed} src {src}"
                );
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_unvisited() {
        // Two components: 0-1, 2 isolated.
        let g = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let levels = bfs_levels_serial(&g, 0);
        assert_eq!(levels, vec![0, 1, UNVISITED]);
    }

    #[test]
    fn traversed_edges_counts_reached_degrees() {
        let g = star();
        let levels = bfs_levels_serial(&g, 0);
        assert_eq!(traversed_edges(&g, &levels), 8);
        let g2 = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let levels2 = bfs_levels_serial(&g2, 0);
        assert_eq!(traversed_edges(&g2, &levels2), 2);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn rejects_bad_source() {
        bfs_levels_serial(&star(), 99);
    }
}
