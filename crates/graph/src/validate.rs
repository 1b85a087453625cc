//! The BFS certificate: one check that a level array is the breadth-first
//! answer from its source, for one source or a batch of them, and the
//! parent-tree check beside it.
//!
//! Graph500 validation (Buluç et al.) restated for levels: take a level
//! array with the source at level 0 and nothing else there. If no edge
//! leads from a visited vertex to an unvisited one, no edge skips a level
//! (`level[to] ≤ level[from] + 1`), and every other visited vertex has an
//! in-neighbour one level up, it is the BFS answer — so [`certify_levels`]
//! is the whole level check, for every engine.
//!
//! Formulation: sources are taken up to 64 at a time, a vertex's levels
//! in the block forming one row of byte lanes. One slot-major pass over
//! four sources' `u32` levels counts `visited`, `depth` and the
//! [`levels_digest`] from the true values and writes their lanes (`255`
//! is `UNVISITED`). One sweep over the edges then keeps `lowest[v]
//! = min(level[u])` over `v`'s in-neighbours `u` as a 64-byte row-wise
//! `min` (`UNVISITED` is the largest lane value, the identity), and one
//! pass over the vertices checks each non-source entry against it:
//! visited ⇒ `level ≠ 0 ∧ lowest = level − 1`, unvisited ⇒ `lowest =
//! UNVISITED`. That accepts exactly what the three edge checks accept —
//! with every visited in-neighbour at `lowest` or above, "none skips a
//! level" is `level ≤ lowest + 1`, and "one sits a level up" then forces
//! `lowest + 1 = level`; an unvisited vertex passes iff no in-neighbour is
//! visited. Only a failing entry is walked edge by edge, to name the
//! violation; which of several violations gets named is unspecified.
//!
//! A byte holds levels 0‥254 exactly, and those with `UNVISITED` keep
//! their order, so the byte check is the `u32` check. A block holding a
//! visited level ≥ 255 is checked one source at a time on `u32` lanes, the
//! same body one lane wide, as is a lone source.
//!
//! Cost for `S` sources: `2·|V|·S` level loads plus `|E|·⌈S/64⌉` row
//! operations, with `128·|V|` bytes of scratch (the lanes and `lowest`),
//! or `4·|V|` for a single source.

use crate::UNVISITED;
use gcd_sim::{fnv1a, fnv1a_mix};
use std::array::from_fn;
use std::fmt;
use std::ops::{Not, Sub};

/// Proof that a BFS answer passed the certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// Vertices the run visited.
    pub visited: u64,
    /// The deepest level reached (0 for a source that reaches nothing).
    pub depth: u32,
    /// [`levels_digest`] of the certified source and levels.
    pub levels_checksum: u64,
}

/// Why a run's output failed certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertViolation {
    /// Output array length does not match the graph.
    LengthMismatch {
        /// Expected entries (|V|).
        expected: usize,
        /// Entries found.
        actual: usize,
    },
    /// The source vertex is not at level 0.
    SourceNotLevelZero {
        /// The run's source.
        source: u32,
        /// Its recorded level.
        level: u32,
    },
    /// A visited vertex's level is at or beyond the run's depth.
    LevelOutOfRange {
        /// The offending vertex.
        vertex: u32,
        /// Its recorded level.
        level: u32,
        /// Levels the run reported.
        depth: usize,
    },
    /// A level holds more vertices than the runner's claims-based
    /// frontier counter for it — the counter over-counts benign duplicate
    /// claims but can never under-count, so this is always corruption.
    HistogramMismatch {
        /// The level.
        level: u32,
        /// Vertices the output places there.
        counted: u64,
        /// Claims the runner counted there.
        reported: u64,
    },
    /// An edge leads from a visited vertex to an unvisited one — a
    /// complete BFS cannot leave reachable vertices unreached.
    UnreachedNeighbor {
        /// Visited tail of the edge.
        vertex: u32,
        /// Unvisited head.
        neighbor: u32,
    },
    /// An edge spans more than one level (`level[to] > level[from] + 1`).
    LevelSkip {
        /// Tail of the edge.
        from: u32,
        /// Head of the edge.
        to: u32,
        /// Tail's level.
        from_level: u32,
        /// Head's level.
        to_level: u32,
    },
    /// A visited vertex at level ≥ 1 has no in-neighbor one level up.
    NoPredecessor {
        /// The orphaned vertex.
        vertex: u32,
        /// Its recorded level.
        level: u32,
    },
    /// An unvisited vertex carries a parent entry.
    ParentOfUnvisited {
        /// The offending vertex.
        vertex: u32,
    },
    /// The source's parent entry is not itself.
    SourceParent {
        /// The run's source.
        source: u32,
        /// Its recorded parent.
        parent: u32,
    },
    /// A parent entry does not name a vertex.
    ParentOutOfRange {
        /// The offending vertex.
        vertex: u32,
        /// Its recorded parent.
        parent: u32,
    },
    /// `level[v] != level[parent[v]] + 1`.
    ParentLevel {
        /// The offending vertex.
        vertex: u32,
        /// Its recorded parent.
        parent: u32,
        /// The vertex's level.
        vertex_level: u32,
        /// The parent's level.
        parent_level: u32,
    },
    /// The recorded parent has no edge to the vertex.
    ParentNotEdge {
        /// The offending vertex.
        vertex: u32,
        /// Its recorded parent.
        parent: u32,
    },
    /// Traversed-edge count recomputed from the output disagrees with the
    /// run's reported figure.
    TraversedEdgesMismatch {
        /// Recomputed count.
        counted: u64,
        /// Reported count.
        reported: u64,
    },
}

impl fmt::Display for CertViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { expected, actual } => {
                write!(f, "output has {actual} entries, graph has {expected}")
            }
            Self::SourceNotLevelZero { source, level } => {
                write!(f, "source {source} at level {level}, expected 0")
            }
            Self::LevelOutOfRange {
                vertex,
                level,
                depth,
            } => write!(f, "vertex {vertex} at level {level} beyond depth {depth}"),
            Self::HistogramMismatch {
                level,
                counted,
                reported,
            } => write!(
                f,
                "level {level} holds {counted} vertices, runner counted {reported}"
            ),
            Self::UnreachedNeighbor { vertex, neighbor } => write!(
                f,
                "visited vertex {vertex} has unvisited neighbor {neighbor}"
            ),
            Self::LevelSkip {
                from,
                to,
                from_level,
                to_level,
            } => write!(
                f,
                "edge {from}->{to} skips levels ({from_level} -> {to_level})"
            ),
            Self::NoPredecessor { vertex, level: 0 } => {
                write!(f, "vertex {vertex} at level 0 is not the source")
            }
            Self::NoPredecessor { vertex, level } => write!(
                f,
                "vertex {vertex} at level {level} has no predecessor at level {}",
                level - 1
            ),
            Self::ParentOfUnvisited { vertex } => {
                write!(f, "unvisited vertex {vertex} has a parent entry")
            }
            Self::SourceParent { source, parent } => {
                write!(f, "source {source} has parent {parent}, expected itself")
            }
            Self::ParentOutOfRange { vertex, parent } => {
                write!(f, "vertex {vertex} has out-of-range parent {parent}")
            }
            Self::ParentLevel {
                vertex,
                parent,
                vertex_level,
                parent_level,
            } => write!(
                f,
                "vertex {vertex} (level {vertex_level}) has parent {parent} \
                 (level {parent_level}), expected level {}",
                vertex_level.wrapping_sub(1)
            ),
            Self::ParentNotEdge { vertex, parent } => {
                write!(f, "parent {parent} of vertex {vertex} has no such edge")
            }
            Self::TraversedEdgesMismatch { counted, reported } => write!(
                f,
                "recomputed {counted} traversed edges, run reported {reported}"
            ),
        }
    }
}

/// FNV-1a digest over a source vertex and a per-vertex level array —
/// the backend-independent part of a BFS result. Two runs with equal
/// digests found the same levels from the same source, regardless of
/// which engine (single-GCD, pooled, or partitioned cluster) produced
/// them or how long it took; this is the value cross-backend
/// bit-identity checks compare.
pub fn levels_digest(source: u32, levels: &[u32]) -> u64 {
    certificate(source, levels).levels_checksum
}

/// Sources [`certify_levels`] checks per sweep of the edge list: one
/// byte lane each, so a vertex's row is one 64-byte line.
const LANES: usize = 64;

/// Certify that `rows[i]` is the BFS levels of the graph `(offsets,
/// adjacency)` from `sources[i]`, for every `i` (see the module docs).
/// Returns one [`Certificate`] per source: `visited`, `depth` (deepest
/// level) and, as `levels_checksum`, the source's [`levels_digest`] — the
/// fingerprint every engine answers with for the same levels. Of several
/// failing blocks of sources, the first names the violation.
pub fn certify_levels<L: AsRef<[u32]>>(
    offsets: &[u64],
    adjacency: &[u32],
    sources: &[u32],
    rows: &[L],
) -> Result<Vec<Certificate>, CertViolation> {
    let n = offsets.len().saturating_sub(1);
    if rows.len() != sources.len() {
        return Err(CertViolation::LengthMismatch {
            expected: sources.len(),
            actual: rows.len(),
        });
    }
    for (levels, &source) in rows.iter().zip(sources) {
        check_shape(n, source, levels.as_ref())?;
    }

    let mut certs = Vec::with_capacity(rows.len());
    let (mut lanes, mut lowest, mut lowest_u32) = (Vec::new(), Vec::new(), Vec::new());
    for (block, sources) in rows.chunks(LANES).zip(sources.chunks(LANES)) {
        let first = certs.len();
        if block.len() > 1 {
            lanes.clear();
            lanes.resize(n, [u8::MAX; LANES]);
            // Four rows per slot pass, so that their digest chains overlap.
            let quads = block.len() / TALLIED * TALLIED;
            for at in (0..quads).step_by(TALLIED) {
                let rows: [_; TALLIED] = from_fn(|k| block[at + k].as_ref());
                let lane = |v: usize, ls| narrow(&mut lanes[v][at..at + TALLIED], ls);
                certs.extend(tally(from_fn(|k| sources[at + k]), rows, lane));
            }
            for at in quads..block.len() {
                let lane = |v: usize, ls| narrow(&mut lanes[v][at..=at], ls);
                certs.extend(tally([sources[at]], [block[at].as_ref()], lane));
            }
            if certs[first..].iter().all(|c| c.depth < 255) {
                check_block(offsets, adjacency, &lanes, &mut lowest, block, sources)?;
                continue;
            }
        } else {
            certs.push(certificate(sources[0], block[0].as_ref()));
        }
        // One row, or a block too deep for its bytes: `u32` lanes.
        for i in 0..block.len() {
            let (one, source) = (&block[i..=i], &sources[i..=i]);
            let row = one[0].as_ref().as_chunks::<1>().0;
            check_block(offsets, adjacency, row, &mut lowest_u32, one, source)?;
        }
    }
    Ok(certs)
}

/// What every level check asks first: that `levels` has one entry per
/// vertex of an `n`-vertex graph and puts `source` at level 0.
pub fn check_shape(n: usize, source: u32, levels: &[u32]) -> Result<(), CertViolation> {
    if levels.len() != n {
        return Err(CertViolation::LengthMismatch {
            expected: n,
            actual: levels.len(),
        });
    }
    match levels.get(source as usize) {
        Some(0) => Ok(()),
        level => Err(CertViolation::SourceNotLevelZero {
            source,
            level: level.copied().unwrap_or(UNVISITED),
        }),
    }
}

/// The rows [`certify_levels`] takes through one slot pass.
const TALLIED: usize = 4;

/// One source's [`Certificate`] from its true levels: `visited`, `depth`
/// and [`levels_digest`] in one pass.
pub fn certificate(source: u32, levels: &[u32]) -> Certificate {
    tally([source], [levels], |_, _| ())[0]
}

/// Write `levels` to byte `lanes`, `UNVISITED` and any level past 254 as 255.
fn narrow<const K: usize>(lanes: &mut [u8], levels: [u32; K]) {
    for (lane, l) in lanes.iter_mut().zip(levels) {
        *lane = l.min(255) as u8;
    }
}

/// `K` sources' [`Certificate`]s from their true levels (rows of one
/// length), in one slot-major pass that hands each vertex's `K` levels to
/// `lane` on the way.
fn tally<const K: usize>(
    sources: [u32; K],
    rows: [&[u32]; K],
    mut lane: impl FnMut(usize, [u32; K]),
) -> [Certificate; K] {
    let n = rows[0].len();
    let rows = rows.map(|r| &r[..n]);
    // One array per field: an array of `Certificate`s timed slower.
    let (mut visited, mut depth) = ([0u64; K], [0u32; K]);
    let mut digest = sources.map(|s| fnv1a([u64::from(s)]));
    for v in 0..n {
        let ls = rows.map(|r| r[v]);
        for k in 0..K {
            let seen = ls[k] != UNVISITED;
            visited[k] += u64::from(seen);
            depth[k] = depth[k].max(if seen { ls[k] } else { 0 });
            digest[k] = fnv1a_mix(digest[k], u64::from(ls[k]));
        }
        lane(v, ls);
    }
    from_fn(|k| Certificate {
        visited: visited[k],
        depth: depth[k],
        levels_checksum: digest[k],
    })
}

/// A certificate lane, `u8` or `u32`: one source's level at one vertex,
/// all ones (`!0`, the largest value, so `min`'s identity) for `UNVISITED`.
trait Lane: Copy + Ord + From<u8> + Sub<Output = Self> + Not<Output = Self> {}
impl<T: Copy + Ord + From<u8> + Sub<Output = T> + Not<Output = T>> Lane for T {}

/// Check one block of sources (at most `W`) whose levels are `rows`, one
/// row per vertex, lane `i` holding `block[i]`'s level there (lanes past a
/// short block read `UNVISITED`: no level, no in-neighbour, nothing to
/// check). `lowest` is scratch, whatever an earlier block left there.
fn check_block<T: Lane, const W: usize, L: AsRef<[u32]>>(
    offsets: &[u64],
    adjacency: &[u32],
    rows: &[[T; W]],
    lowest: &mut Vec<[T; W]>,
    block: &[L],
    sources: &[u32],
) -> Result<(), CertViolation> {
    lowest.clear();
    lowest.resize(rows.len(), [!T::from(0); W]);
    for (u, from) in rows.iter().enumerate() {
        for &v in &adjacency[offsets[u] as usize..offsets[u + 1] as usize] {
            for (low, &l) in lowest[v as usize].iter_mut().zip(from) {
                *low = (*low).min(l);
            }
        }
    }

    for (v, (row, low)) in rows.iter().zip(lowest.iter()).enumerate() {
        let consistent = |lane: usize| entry_consistent(row[lane], low[lane]);
        // A source sits at level 0 by right; anything else the row
        // check flagged is a violation.
        if (0..W).fold(true, |all, lane| all & consistent(lane)) {
            continue;
        }
        for (lane, &source) in sources.iter().enumerate() {
            if v != source as usize && !consistent(lane) {
                return Err(name_violation(offsets, adjacency, block[lane].as_ref(), v));
            }
        }
    }
    Ok(())
}

/// Whether a non-source vertex's `level` agrees with `lowest`, the lowest
/// level among its in-neighbours (`UNVISITED` when none is visited).
#[inline]
fn entry_consistent<T: Lane>(level: T, lowest: T) -> bool {
    let unvisited = !T::from(0);
    if level == unvisited {
        lowest == unvisited
    } else {
        level != T::from(0) && lowest == level - T::from(1)
    }
}

/// Name the violation at `v`, an entry of one source's `levels` that
/// failed [`entry_consistent`]: walk the edges into `v` for a visited tail
/// that `v` is unreached from or skips a level past; with neither, `v` has
/// no predecessor one level up.
fn name_violation(offsets: &[u64], adjacency: &[u32], levels: &[u32], v: usize) -> CertViolation {
    let lv = levels[v];
    for (u, &lu) in levels.iter().enumerate() {
        let out = &adjacency[offsets[u] as usize..offsets[u + 1] as usize];
        if lu == UNVISITED || !out.contains(&(v as u32)) {
            continue;
        }
        if lv == UNVISITED {
            return CertViolation::UnreachedNeighbor {
                vertex: u as u32,
                neighbor: v as u32,
            };
        }
        if lv > lu + 1 {
            return CertViolation::LevelSkip {
                from: u as u32,
                to: v as u32,
                from_level: lu,
                to_level: lv,
            };
        }
    }
    CertViolation::NoPredecessor {
        vertex: v as u32,
        level: lv,
    }
}

/// Check a parent array against `levels` (one source's, already
/// certified) and the graph: unvisited vertices have no parent, the
/// source parents itself, and every other visited `v` has a parent `p`
/// one level up with an edge `p → v`.
pub fn certify_parents(
    offsets: &[u64],
    adjacency: &[u32],
    source: u32,
    levels: &[u32],
    parents: &[u32],
) -> Result<(), CertViolation> {
    let n = offsets.len().saturating_sub(1);
    for actual in [levels.len(), parents.len()] {
        if actual != n {
            return Err(CertViolation::LengthMismatch {
                expected: n,
                actual,
            });
        }
    }
    for (v, (&p, &lv)) in parents.iter().zip(levels).enumerate() {
        if lv == UNVISITED {
            if p != UNVISITED {
                return Err(CertViolation::ParentOfUnvisited { vertex: v as u32 });
            }
            continue;
        }
        if v == source as usize {
            if p != source {
                return Err(CertViolation::SourceParent { source, parent: p });
            }
            continue;
        }
        if p as usize >= n {
            return Err(CertViolation::ParentOutOfRange {
                vertex: v as u32,
                parent: p,
            });
        }
        let lp = levels[p as usize];
        if lp == UNVISITED || lp + 1 != lv {
            return Err(CertViolation::ParentLevel {
                vertex: v as u32,
                parent: p,
                vertex_level: lv,
                parent_level: lp,
            });
        }
        let beg = offsets[p as usize] as usize;
        let end = offsets[p as usize + 1] as usize;
        if !adjacency[beg..end].contains(&(v as u32)) {
            return Err(CertViolation::ParentNotEdge {
                vertex: v as u32,
                parent: p,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use crate::generators::{barabasi_albert, erdos_renyi};
    use crate::reference::{bfs_levels_serial, bfs_parents_serial};

    /// [`certify_levels`] on one source.
    fn certify(g: &Csr, source: u32, levels: &[u32]) -> Result<Certificate, CertViolation> {
        certify_levels(g.offsets(), g.adjacency(), &[source], &[levels]).map(|mut c| c.remove(0))
    }

    /// [`certify_parents`] on one source.
    fn parents_ok(g: &Csr, source: u32, levels: &[u32], p: &[u32]) -> Result<(), CertViolation> {
        certify_parents(g.offsets(), g.adjacency(), source, levels, p)
    }

    #[test]
    fn accepts_reference_trees() {
        for seed in 0..4 {
            let g = erdos_renyi(200, 600, seed);
            let p = bfs_parents_serial(&g, 3);
            let levels = bfs_levels_serial(&g, 3);
            parents_ok(&g, 3, &levels, &p).expect("valid tree rejected");
            let cert = certify(&g, 3, &levels).expect("valid levels rejected");
            assert_eq!(cert.levels_checksum, levels_digest(3, &levels));
        }
    }

    #[test]
    fn rejects_wrong_root() {
        let g = barabasi_albert(100, 2, 1);
        let mut p = bfs_parents_serial(&g, 0);
        p[0] = 5;
        assert_eq!(
            parents_ok(&g, 0, &bfs_levels_serial(&g, 0), &p),
            Err(CertViolation::SourceParent {
                source: 0,
                parent: 5
            })
        );
    }

    #[test]
    fn rejects_phantom_edge() {
        let g = Csr::from_parts(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2]).unwrap();
        // Claim 2's parent is 0, but (0, 2) is not an edge.
        let p = vec![0, 0, 0, 2];
        assert!(matches!(
            parents_ok(&g, 0, &[0, 1, 1, 2], &p),
            Err(CertViolation::ParentNotEdge { .. })
        ));
    }

    #[test]
    fn rejects_missed_vertex() {
        // Path 0-1-2; drop vertex 2 from the tree.
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(
            certify(&g, 0, &[0, 1, UNVISITED]),
            Err(CertViolation::UnreachedNeighbor {
                vertex: 1,
                neighbor: 2
            })
        );
    }

    #[test]
    fn rejects_cycle_in_parents() {
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        // 1 and 2 point at each other: unreachable from source via parents.
        let p = vec![0, 2, 1];
        assert!(matches!(
            parents_ok(&g, 0, &bfs_levels_serial(&g, 0), &p),
            Err(CertViolation::ParentLevel { .. })
        ));
    }

    #[test]
    fn level_validator_accepts_reference_and_rejects_corruption() {
        for seed in 0..4 {
            let g = erdos_renyi(200, 600, seed);
            let mut levels = bfs_levels_serial(&g, 3);
            certify(&g, 3, &levels).expect("valid levels rejected");
            // Corrupt one visited vertex: either a skip, a broken path, a
            // missed vertex, or a phantom root must be detected.
            if let Some(v) = (0..levels.len()).find(|&v| levels[v] != UNVISITED && v != 3) {
                let orig = levels[v];
                levels[v] = orig.saturating_add(5);
                assert!(certify(&g, 3, &levels).is_err());
                levels[v] = orig;
            }
            levels[3] = 1;
            assert_eq!(
                certify(&g, 3, &levels),
                Err(CertViolation::SourceNotLevelZero {
                    source: 3,
                    level: 1
                })
            );
        }
    }

    #[test]
    fn level_validator_rejects_missed_vertex_and_second_root() {
        // Path 0-1-2.
        let g = Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        assert_eq!(
            certify(&g, 0, &[0, 1, UNVISITED]),
            Err(CertViolation::UnreachedNeighbor {
                vertex: 1,
                neighbor: 2
            })
        );
        assert_eq!(
            certify(&g, 0, &[0, 0, 1]),
            Err(CertViolation::NoPredecessor {
                vertex: 1,
                level: 0
            })
        );
    }

    #[test]
    fn rejects_non_bfs_tree_with_level_skip() {
        // Triangle 0-1-2 plus pendant 3 off vertex 2.
        // A DFS tree 0->1->2->3 puts 2 at level 2, but edge (0,2) spans 2.
        let g = Csr::from_parts(vec![0, 2, 4, 7, 8], vec![1, 2, 0, 2, 0, 1, 3, 2]).unwrap();
        let p = vec![0, 0, 1, 2];
        let tree_levels = [0, 1, 2, 3];
        parents_ok(&g, 0, &tree_levels, &p).expect("the DFS tree is a tree");
        assert!(matches!(
            certify(&g, 0, &tree_levels),
            Err(CertViolation::LevelSkip { .. })
        ));
    }
}
