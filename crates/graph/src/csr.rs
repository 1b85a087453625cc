//! Compressed-sparse-row graph representation.
//!
//! Layout mirrors what the paper's traffic model assumes (§V-F): vertex ids
//! are 4 bytes (`u32`) and row offsets are 8 bytes (`u64`), so one full BFS
//! touches `16|V| + 4|M|` bytes of graph data in the ideal case.

use std::fmt;

/// Vertex identifier. 4 bytes, as in the paper's memory model.
pub type VertexId = u32;

/// An immutable CSR graph.
///
/// `offsets` has `num_vertices + 1` entries; the neighbors of vertex `v`
/// are `adjacency[offsets[v] as usize .. offsets[v + 1] as usize]`.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    adjacency: Vec<VertexId>,
}

impl Csr {
    /// Build a CSR directly from its raw parts, checking every structural
    /// invariant. Returns `None` if the parts do not describe a valid CSR.
    pub fn from_parts(offsets: Vec<u64>, adjacency: Vec<VertexId>) -> Option<Self> {
        if offsets.is_empty() {
            return None;
        }
        if offsets[0] != 0 || *offsets.last().unwrap() != adjacency.len() as u64 {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let n = (offsets.len() - 1) as u64;
        if adjacency.iter().any(|&v| u64::from(v) >= n) {
            return None;
        }
        Some(Self { offsets, adjacency })
    }

    /// Build a CSR whose adjacency targets live in an *external* id space of
    /// `target_space` vertices — the local-subgraph shape used by 1D graph
    /// partitioning, where a rank stores rows for its owned vertices but
    /// edges point anywhere in the global graph. Panics on malformed parts.
    pub fn from_parts_with_external_targets(
        offsets: Vec<u64>,
        adjacency: Vec<VertexId>,
        target_space: usize,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "first offset must be 0");
        assert_eq!(
            *offsets.last().unwrap(),
            adjacency.len() as u64,
            "last offset must equal adjacency length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert!(
            adjacency.iter().all(|&v| (v as usize) < target_space),
            "adjacency target out of external range"
        );
        Self { offsets, adjacency }
    }

    /// Build without validity checks. Intended for generators that construct
    /// offsets/adjacency by counting sort and uphold the invariants by
    /// construction; debug builds still assert them.
    pub(crate) fn from_parts_unchecked(offsets: Vec<u64>, adjacency: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap(), adjacency.len() as u64);
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets, adjacency }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (an undirected graph stores each edge twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The raw row-offset array (`num_vertices + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw adjacency array.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// Mutable adjacency access for in-place neighbor re-arrangement.
    /// Row boundaries must not move, so only the adjacency is exposed.
    #[inline]
    pub(crate) fn adjacency_mut(&mut self) -> &mut [VertexId] {
        &mut self.adjacency
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum out-degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Bytes the graph occupies in device memory under the paper's layout:
    /// `8 * (|V| + 1)` for offsets plus `4 * |M|` for adjacency.
    pub fn device_bytes(&self) -> u64 {
        8 * (self.num_vertices() as u64 + 1) + 4 * self.num_edges() as u64
    }

    /// Iterate `(vertex, neighbors)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.num_vertices() as VertexId).map(move |v| (v, self.neighbors(v)))
    }

    /// The transpose graph (every arc reversed). For symmetric graphs this
    /// is the identity; for directed graphs it is the backward-BFS input.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for &v in self.adjacency() {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut adjacency = vec![0 as VertexId; self.num_edges()];
        for (u, nbrs) in self.iter_rows() {
            for &v in nbrs {
                adjacency[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        Csr::from_parts_unchecked(offsets, adjacency)
    }

    /// True if every edge `(u, v)` has a matching `(v, u)`: each vertex's
    /// in-neighbours (its row of the transpose, sorted) are among its
    /// out-neighbours. O(|E|) when every row equals its transposed row, as
    /// a symmetric builder output's does; otherwise a row is sorted first.
    pub fn is_symmetric(&self) -> bool {
        let (t, mut row) = (self.transpose(), Vec::new());
        self.iter_rows().all(|(v, out)| {
            let into = t.neighbors(v);
            into == out || {
                row.clear();
                row.extend_from_slice(out);
                row.sort_unstable();
                into.iter().all(|u| row.binary_search(u).is_ok())
            }
        })
    }
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("avg_degree", &self.average_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Csr {
        // 0 - 1 - 2 (undirected)
        Csr::from_parts(vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_rejects_bad_offsets() {
        assert!(Csr::from_parts(vec![], vec![]).is_none());
        assert!(Csr::from_parts(vec![1, 2], vec![0, 0]).is_none());
        assert!(Csr::from_parts(vec![0, 2, 1], vec![0, 0]).is_none());
        assert!(Csr::from_parts(vec![0, 1], vec![5]).is_none()); // neighbor out of range
        assert!(Csr::from_parts(vec![0, 3], vec![0]).is_none()); // last offset != len
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Csr::from_parts(vec![0], vec![]).unwrap();
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.num_edges(), 0);
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.average_degree(), 0.0);

        let single = Csr::from_parts(vec![0, 0], vec![]).unwrap();
        assert_eq!(single.num_vertices(), 1);
        assert_eq!(single.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn symmetry_detection() {
        assert!(path3().is_symmetric());
        // Sorted rows, 0 -> {1, 2} and 1 -> {0}: the arc 0 -> 2 is unmatched.
        let asym = Csr::from_parts(vec![0, 2, 3, 3], vec![1, 2, 0]).unwrap();
        assert!(!asym.is_symmetric());
        // A hub row of 999 arcs, matched by all its leaves or all but one.
        let star = |back: u32| {
            let mut b = crate::CsrBuilder::new(1000);
            b.extend_edges((1..1000).map(|v| (0, v)).chain((1..back).map(|v| (v, 0))));
            b.build(crate::BuildOptions::raw())
        };
        assert!(star(1000).is_symmetric());
        assert!(!star(999).is_symmetric());
    }

    #[test]
    fn device_bytes_matches_paper_model() {
        let g = path3();
        assert_eq!(g.device_bytes(), 8 * 4 + 4 * 4);
    }

    #[test]
    fn transpose_reverses_arcs() {
        // Directed: 0->1, 0->2, 2->1.
        let g = Csr::from_parts(vec![0, 2, 2, 3], vec![1, 2, 1]).unwrap();
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbors(2), &[0]);
        // Transposing twice is the identity (rows re-sorted by construction).
        assert_eq!(t.transpose(), g);
        // Symmetric graphs are self-transpose.
        let s = path3();
        assert_eq!(s.transpose(), s);
    }

    #[test]
    fn external_target_csr_construction() {
        let g = Csr::from_parts_with_external_targets(vec![0, 2], vec![5, 9], 10);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.neighbors(0), &[5, 9]);
    }

    #[test]
    #[should_panic(expected = "out of external range")]
    fn external_target_csr_validates_range() {
        Csr::from_parts_with_external_targets(vec![0, 1], vec![10], 10);
    }
}
