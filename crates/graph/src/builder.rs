//! Edge-list → CSR construction.
//!
//! All generators and loaders funnel through [`CsrBuilder`], which performs
//! the same preprocessing the XBFS artifact applies to SNAP/Graph500 inputs:
//! optional symmetrization (BFS treats graphs as undirected), self-loop
//! removal and duplicate-edge removal, then a counting-sort CSR build.

use crate::csr::{Csr, VertexId};
use gcd_sim::{cores, for_each_job};

/// Options controlling edge-list preprocessing.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Insert the reverse of every edge (treat input as undirected).
    pub symmetrize: bool,
    /// Drop `(v, v)` edges.
    pub remove_self_loops: bool,
    /// Drop repeated `(u, v)` pairs.
    pub dedup: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            symmetrize: true,
            remove_self_loops: true,
            dedup: true,
        }
    }
}

impl BuildOptions {
    /// Keep the edge list exactly as given (directed, loops and duplicates
    /// retained).
    pub fn raw() -> Self {
        Self {
            symmetrize: false,
            remove_self_loops: false,
            dedup: false,
        }
    }
}

/// Accumulates edges and produces a [`Csr`].
#[derive(Debug, Default, Clone)]
pub struct CsrBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl CsrBuilder {
    /// A builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "vertex ids are u32; at most 2^32 - 1 vertices supported"
        );
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// A builder that takes `edges` as its edge list. Panics if an
    /// endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        let (mut b, n) = (Self::new(num_vertices), num_vertices);
        let bad = edges.iter().find(|&&(u, v)| u.max(v) as usize >= n);
        assert!(bad.is_none(), "edge {bad:?} out of range for {n} vertices");
        b.edges = edges;
        b
    }

    /// Reserve capacity for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Add a directed edge. Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((u, v));
    }

    /// Add many directed edges at once.
    pub fn extend_edges(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Build the CSR, consuming the builder.
    ///
    /// A counting sort by source, then a sort within each row: the result
    /// is the edge list in lexicographic `(u, v)` order (even without
    /// dedup — a stable row order is what makes generator output
    /// reproducible), without sorting the whole list.
    ///
    /// The row sort runs on scoped workers over runs of rows that hold
    /// about 65,536 arcs each. The bytes do not depend on the split: dedup
    /// looks only inside a row, and the compacted runs are closed up in
    /// row order afterwards.
    pub fn build(self, opts: BuildOptions) -> Csr {
        let n = self.num_vertices;
        let edges = self.edges;
        let kept = || {
            edges
                .iter()
                .copied()
                .filter(move |&(u, v)| !opts.remove_self_loops || u != v)
        };

        // offsets[u + 1] counts row u, then becomes its start after an
        // exclusive scan, then its end after the scatter uses it as the
        // row's cursor: no second O(n) array.
        let mut offsets = vec![0u64; n + 1];
        for (u, v) in kept() {
            offsets[u as usize + 1] += 1;
            if opts.symmetrize {
                offsets[v as usize + 1] += 1;
            }
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            start += std::mem::replace(slot, start);
        }
        let mut adjacency: Vec<VertexId> = vec![0; start as usize];
        let mut place = |u: VertexId, v: VertexId| {
            let cursor = &mut offsets[u as usize + 1];
            adjacency[*cursor as usize] = v;
            *cursor += 1;
        };
        for (u, v) in kept() {
            place(u, v);
            if opts.symmetrize {
                place(v, u);
            }
        }
        drop(edges);

        // Run k holds rows bounds[k]..bounds[k + 1]: from the first row
        // starting at or past k / runs of the arcs (a hub row stays whole)
        // to row n for the last. Its arcs start at arcs[k].
        let total = adjacency.len();
        let runs = total.div_ceil(ARCS_PER_RUN).max(1);
        let first_row = |k| offsets[..n].partition_point(|&s| (s as usize) < total * k / runs);
        let bounds: Vec<usize> = (0..runs).map(first_row).chain([n]).collect();
        let arcs: Vec<usize> = bounds.iter().map(|&r| offsets[r] as usize).collect();
        let (mut ends, mut rows) = (&mut offsets[1..], &mut adjacency[..]);
        let mut jobs = Vec::with_capacity(runs);
        for k in 0..runs {
            let (e, more_ends) = ends.split_at_mut(bounds[k + 1] - bounds[k]);
            let (r, more_rows) = rows.split_at_mut(arcs[k + 1] - arcs[k]);
            jobs.push((e, r, arcs[k]));
            (ends, rows) = (more_ends, more_rows);
        }
        for_each_job(cores(), jobs, |(e, r, b)| sort_rows(e, r, b, opts.dedup));

        // Close the gaps dedup left behind each run. A run's compacted end
        // is its last row's end; a run without rows ends at its base, above
        // the earlier row end offsets[hi] then holds.
        let mut write = 0;
        for k in 0..runs {
            let (lo, hi, gap) = (bounds[k], bounds[k + 1], arcs[k] - write);
            let end = (offsets[hi] as usize).max(arcs[k]);
            if gap > 0 {
                adjacency.copy_within(arcs[k]..end, write);
                for e in &mut offsets[lo + 1..=hi] {
                    *e -= gap as u64;
                }
            }
            write = end - gap;
        }
        adjacency.truncate(write);
        adjacency.shrink_to_fit();
        Csr::from_parts_unchecked(offsets, adjacency)
    }
}

/// Arcs in one run of rows the row sort hands a worker: a thread start
/// costs tens of microseconds, sorting a run about a millisecond.
const ARCS_PER_RUN: usize = 1 << 16;

/// Sort each row of a run whose rows end at `ends` and whose first arc
/// sits at `base` of the adjacency; with dedup, compact the run left and
/// move the ends.
fn sort_rows(ends: &mut [u64], adjacency: &mut [VertexId], base: usize, dedup: bool) {
    let (mut row_start, mut write) = (0, 0);
    for end in ends {
        let row_end = *end as usize - base;
        adjacency[row_start..row_end].sort_unstable();
        if dedup {
            for k in row_start..row_end {
                if k == row_start || adjacency[k] != adjacency[k - 1] {
                    adjacency[write] = adjacency[k];
                    write += 1;
                }
            }
            *end = (base + write) as u64;
        }
        row_start = row_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_symmetric_deduped() {
        let mut b = CsrBuilder::new(4);
        b.extend_edges([(0, 1), (1, 0), (1, 2), (2, 3), (2, 2)]);
        let g = b.build(BuildOptions::default());
        assert_eq!(g.num_vertices(), 4);
        // (0,1),(1,0),(1,2),(2,1),(2,3),(3,2) — self-loop dropped, dup merged.
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_symmetric());
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn raw_mode_keeps_everything() {
        let mut b = CsrBuilder::new(3);
        b.extend_edges([(0, 1), (0, 1), (1, 1)]);
        let g = b.build(BuildOptions::raw());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = CsrBuilder::new(5).build(BuildOptions::default());
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn adjacency_rows_are_sorted() {
        let mut b = CsrBuilder::new(5);
        b.extend_edges([(0, 4), (0, 2), (0, 3), (0, 1)]);
        let g = b.build(BuildOptions::default());
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }
}
