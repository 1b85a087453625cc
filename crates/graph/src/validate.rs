//! Graph500-style BFS output validation.
//!
//! The Graph500 specification validates a BFS run with five checks; we
//! implement the ones applicable to a shared-memory parent array:
//!
//! 1. the parent array spans exactly the component containing the source,
//! 2. the source is its own parent,
//! 3. every tree edge `(parent[v], v)` exists in the graph,
//! 4. levels implied by the tree differ by exactly one along tree edges, and
//! 5. every graph edge spans at most one level (no "level skipping").

use crate::csr::{Csr, VertexId};
use crate::UNVISITED;

/// Why a BFS tree failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The source index exceeds the vertex count.
    SourceOutOfRange,
    /// `parent[source] != source`.
    SourceNotRoot,
    /// A vertex is marked visited but its tree path does not reach the source.
    BrokenPath(VertexId),
    /// `(parent[v], v)` is not an edge of the graph.
    PhantomTreeEdge {
        /// The vertex whose parent pointer is invalid.
        child: VertexId,
        /// The claimed (non-adjacent) parent.
        parent: VertexId,
    },
    /// A graph edge connects levels more than 1 apart.
    LevelSkip {
        /// One endpoint of the offending edge.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Derived level of `u`.
        lu: u32,
        /// Derived level of `v`.
        lv: u32,
    },
    /// A vertex adjacent to a visited vertex was left unvisited.
    MissedVertex(VertexId),
    /// Wrong array length.
    LengthMismatch,
}

/// Validate a parent array against the graph.
///
/// Returns the per-vertex levels derived from the tree on success.
pub fn validate_bfs_tree(
    g: &Csr,
    source: VertexId,
    parents: &[u32],
) -> Result<Vec<u32>, ValidationError> {
    let n = g.num_vertices();
    if (source as usize) >= n {
        return Err(ValidationError::SourceOutOfRange);
    }
    if parents.len() != n {
        return Err(ValidationError::LengthMismatch);
    }
    if parents[source as usize] != source {
        return Err(ValidationError::SourceNotRoot);
    }

    // Derive levels by chasing parents with path memoization.
    let mut levels = vec![UNVISITED; n];
    levels[source as usize] = 0;
    let mut path: Vec<VertexId> = Vec::new();
    for v0 in 0..n as VertexId {
        if parents[v0 as usize] == UNVISITED || levels[v0 as usize] != UNVISITED {
            continue;
        }
        path.clear();
        let mut v = v0;
        loop {
            if levels[v as usize] != UNVISITED {
                break;
            }
            path.push(v);
            if path.len() > n {
                return Err(ValidationError::BrokenPath(v0));
            }
            let p = parents[v as usize];
            if p == UNVISITED {
                return Err(ValidationError::BrokenPath(v0));
            }
            // Tree edge must exist in the graph.
            if !g.neighbors(v).contains(&p) {
                return Err(ValidationError::PhantomTreeEdge {
                    child: v,
                    parent: p,
                });
            }
            v = p;
        }
        let mut level = levels[v as usize];
        for &u in path.iter().rev() {
            level += 1;
            levels[u as usize] = level;
        }
    }

    check_edges(g, &levels)?;
    Ok(levels)
}

/// Validate a per-vertex *level* array against the graph (the distributed
/// engine reports levels, not parents).
///
/// Graph500's checks restated for levels: the source is at level 0 and is
/// the only level-0 vertex, every graph edge spans at most one level, every
/// visited non-source vertex has a neighbor exactly one level closer to the
/// source (so a shortest path exists), and no vertex adjacent to a visited
/// vertex is left unvisited.
pub fn validate_bfs_levels(
    g: &Csr,
    source: VertexId,
    levels: &[u32],
) -> Result<(), ValidationError> {
    let n = g.num_vertices();
    if (source as usize) >= n {
        return Err(ValidationError::SourceOutOfRange);
    }
    if levels.len() != n {
        return Err(ValidationError::LengthMismatch);
    }
    if levels[source as usize] != 0 {
        return Err(ValidationError::SourceNotRoot);
    }
    for v in 0..n as VertexId {
        let lv = levels[v as usize];
        if lv == 0 && v != source {
            return Err(ValidationError::SourceNotRoot);
        }
        if lv == UNVISITED || v == source {
            continue;
        }
        // A visited vertex needs a neighbor one level up: the witness that a
        // BFS tree (and thus a shortest path to the source) exists.
        if !g.neighbors(v).iter().any(|&u| levels[u as usize] == lv - 1) {
            return Err(ValidationError::BrokenPath(v));
        }
    }
    check_edges(g, levels)
}

/// Every graph edge spans at most one level, and no visited vertex has an
/// unvisited neighbor (that neighbor was missed).
fn check_edges(g: &Csr, levels: &[u32]) -> Result<(), ValidationError> {
    for (u, nbrs) in g.iter_rows() {
        let lu = levels[u as usize];
        for &v in nbrs {
            let lv = levels[v as usize];
            match (lu, lv) {
                (UNVISITED, UNVISITED) => {}
                (UNVISITED, _) => return Err(ValidationError::MissedVertex(u)),
                (_, UNVISITED) => return Err(ValidationError::MissedVertex(v)),
                (lu, lv) => {
                    if lu.abs_diff(lv) > 1 {
                        return Err(ValidationError::LevelSkip { u, v, lu, lv });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi};
    use crate::reference::{bfs_levels_serial, bfs_parents_serial};

    #[test]
    fn accepts_reference_trees() {
        for seed in 0..4 {
            let g = erdos_renyi(200, 600, seed);
            let p = bfs_parents_serial(&g, 3);
            let levels = validate_bfs_tree(&g, 3, &p).expect("valid tree rejected");
            assert_eq!(levels, bfs_levels_serial(&g, 3));
        }
    }

    #[test]
    fn rejects_wrong_root() {
        let g = barabasi_albert(100, 2, 1);
        let mut p = bfs_parents_serial(&g, 0);
        p[0] = 5;
        assert_eq!(
            validate_bfs_tree(&g, 0, &p),
            Err(ValidationError::SourceNotRoot)
        );
    }

    #[test]
    fn rejects_phantom_edge() {
        let g = Csr::from_parts(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2]).unwrap();
        // Claim 2's parent is 0, but (0, 2) is not an edge.
        let p = vec![0, 0, 0, 2];
        assert!(matches!(
            validate_bfs_tree(&g, 0, &p),
            Err(ValidationError::PhantomTreeEdge { .. })
        ));
    }

    #[test]
    fn rejects_missed_vertex() {
        // Path 0-1-2; drop vertex 2 from the tree.
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        let p = vec![0, 0, UNVISITED];
        assert_eq!(
            validate_bfs_tree(&g, 0, &p),
            Err(ValidationError::MissedVertex(2))
        );
    }

    #[test]
    fn rejects_cycle_in_parents() {
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        // 1 and 2 point at each other: unreachable from source via parents.
        let p = vec![0, 2, 1];
        assert!(matches!(
            validate_bfs_tree(&g, 0, &p),
            Err(ValidationError::BrokenPath(_))
        ));
    }

    #[test]
    fn level_validator_accepts_reference_and_rejects_corruption() {
        for seed in 0..4 {
            let g = erdos_renyi(200, 600, seed);
            let mut levels = bfs_levels_serial(&g, 3);
            validate_bfs_levels(&g, 3, &levels).expect("valid levels rejected");
            // Corrupt one visited vertex: either a skip, a broken path, a
            // missed vertex, or a phantom root must be detected.
            if let Some(v) = (0..levels.len()).find(|&v| levels[v] != UNVISITED && v != 3) {
                let orig = levels[v];
                levels[v] = orig.saturating_add(5);
                assert!(validate_bfs_levels(&g, 3, &levels).is_err());
                levels[v] = orig;
            }
            levels[3] = 1;
            assert_eq!(
                validate_bfs_levels(&g, 3, &levels),
                Err(ValidationError::SourceNotRoot)
            );
        }
    }

    #[test]
    fn level_validator_rejects_missed_vertex_and_second_root() {
        // Path 0-1-2.
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(
            validate_bfs_levels(&g, 0, &[0, 1, UNVISITED]),
            Err(ValidationError::MissedVertex(2))
        );
        assert_eq!(
            validate_bfs_levels(&g, 0, &[0, 0, 1]),
            Err(ValidationError::SourceNotRoot)
        );
    }

    #[test]
    fn rejects_non_bfs_tree_with_level_skip() {
        // Triangle 0-1-2 plus pendant 3 off vertex 2.
        // A DFS tree 0->1->2->3 puts 2 at level 2, but edge (0,2) spans 2.
        let g = Csr::from_parts(vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2]).unwrap();
        let p = vec![0, 0, 1, 2];
        assert!(matches!(
            validate_bfs_tree(&g, 0, &p),
            Err(ValidationError::LevelSkip { .. })
        ));
    }
}
