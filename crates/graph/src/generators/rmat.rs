//! Graph500-style Kronecker (R-MAT) generator.
//!
//! This is the generator behind the paper's `Rmat23` and `Rmat25` datasets.
//! Each edge is produced by `scale` recursive quadrant choices with
//! probabilities `(a, b, c, d)`; Graph500 uses `a = 0.57, b = 0.19,
//! c = 0.19, d = 0.05`, `edge_factor = 16`. Edges are generated in
//! fixed-size chunks, each from its own seeded RNG stream (the streams are
//! what pin the graph a seed names, so they stay). Scoped workers, one per
//! core, take the chunks in turn as they come free, so the bytes depend
//! neither on how many workers there are nor on which fills which chunk.

use crate::builder::{BuildOptions, CsrBuilder};
use crate::csr::{Csr, VertexId};
use gcd_sim::{cores, for_each_job};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities and size parameters.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Directed edges generated per vertex (Graph500 uses 16).
    pub edge_factor: u32,
    /// Quadrant probabilities; must be positive and sum to ~1.
    pub a: f64,
    /// Probability of the upper-left quadrant.
    pub b: f64,
    /// Probability of the upper-right quadrant (lower-left uses `c`).
    pub c: f64,
    /// Randomly permute vertex ids, as Graph500 requires, to destroy the
    /// correlation between vertex id and degree.
    pub shuffle_ids: bool,
}

impl RmatParams {
    /// Graph500 reference parameters at the given scale.
    pub fn graph500(scale: u32) -> Self {
        Self {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            shuffle_ids: true,
        }
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    fn validate(&self) {
        assert!(self.scale >= 1 && self.scale <= 31, "scale out of range");
        assert!(self.a > 0.0 && self.b > 0.0 && self.c > 0.0 && self.d() > 0.0);
    }
}

/// Generate one R-MAT edge with per-level probability noise, as in the
/// Graph500 reference code (noise prevents exact self-similarity artifacts).
///
/// The quadrant is two comparison bits, not often-mispredicted branches,
/// shifted into one word (`u` high, `v` low; `scale <= 31` keeps them
/// apart) so the compiler does not shuffle them through a vector register.
/// The float expressions and their order must stay as written, or an `r`
/// can change quadrant and every seed names a different graph
/// (`tests/golden.rs`).
fn gen_edge(rng: &mut StdRng, p: &RmatParams) -> (VertexId, VertexId) {
    let mut uv = 0u64;
    let d = p.d();
    for _ in 0..p.scale {
        // ±5% multiplicative noise on the dominant quadrant per level (the
        // Graph500 generator perturbs all four; one draw preserves the
        // anti-self-similarity effect at 40% of the RNG cost).
        let a = p.a * (0.95 + 0.10 * rng.gen::<f64>());
        let total = a + p.b + p.c + d;
        let r = rng.gen::<f64>() * total;
        let ab = a + p.b;
        let abc = ab + p.c;
        // [0, a) -> (0, 0), [a, ab) -> (0, 1), [ab, abc) -> (1, 0), else (1, 1).
        let u = u64::from(r >= ab);
        let v = u64::from(((r >= a) & (r < ab)) | (r >= abc));
        uv = (uv << 1) | (u << 32) | v;
    }
    ((uv >> 32) as VertexId, uv as VertexId)
}

/// Arcs per seeded RNG stream. The chunking is part of what a seed means,
/// so it must not change.
const CHUNK: usize = 1 << 16;

/// Generate an undirected R-MAT graph (self-loops and duplicates removed,
/// edges symmetrized), deterministic in `seed`.
pub fn rmat_graph(params: RmatParams, seed: u64) -> Csr {
    params.validate();
    let n = 1usize << params.scale;
    let m = n * params.edge_factor as usize;
    let perm = params
        .shuffle_ids
        .then(|| random_permutation(n, seed ^ 0xA5A5_5A5A_DEAD_BEEF));
    let mut edges = vec![(0, 0); m];
    fill_chunks(&mut edges, &params, seed, perm.as_deref(), cores());
    CsrBuilder::from_edges(n, edges).build(BuildOptions::default())
}

/// Fill `edges` chunk by chunk, each chunk from its own seeded stream and
/// its ids mapped through `perm`, on `workers` workers: the bytes do not
/// depend on `workers`.
fn fill_chunks(
    edges: &mut [(VertexId, VertexId)],
    p: &RmatParams,
    seed: u64,
    perm: Option<&[VertexId]>,
    workers: usize,
) {
    let fill = |(ci, chunk): (usize, &mut [(VertexId, VertexId)])| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ci as u64 + 1)));
        for e in chunk {
            let (u, v) = gen_edge(&mut rng, p);
            *e = match perm {
                Some(perm) => (perm[u as usize], perm[v as usize]),
                None => (u, v),
            };
        }
    };
    let chunks = edges.chunks_mut(CHUNK).enumerate().collect();
    for_each_job(workers, chunks, fill);
}

/// Fisher–Yates permutation of `0..n`, deterministic in `seed`.
fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let p = RmatParams::graph500(8);
        let g1 = rmat_graph(p, 42);
        let g2 = rmat_graph(p, 42);
        assert_eq!(g1, g2);
        let g3 = rmat_graph(p, 43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn size_is_plausible() {
        let p = RmatParams::graph500(10);
        let g = rmat_graph(p, 1);
        assert_eq!(g.num_vertices(), 1024);
        // 16K directed raw edges, symmetrized then deduped: somewhere well
        // above n and below 2 * 16 * n.
        assert!(g.num_edges() > g.num_vertices());
        assert!(g.num_edges() <= 2 * 16 * g.num_vertices());
        assert!(g.is_symmetric());
    }

    #[test]
    fn skewed_degree_distribution() {
        let g = rmat_graph(RmatParams::graph500(12), 7);
        let max = g.max_degree() as f64;
        let avg = g.average_degree();
        // R-MAT is heavily skewed: hub degree far above average.
        assert!(max > 8.0 * avg, "expected skew, got max {max} avg {avg}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = random_permutation(1000, 3);
        let mut seen = vec![false; 1000];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }

    #[test]
    fn chunk_filler_ignores_the_worker_count() {
        // Two and a half chunks: a short last chunk, and more workers than
        // chunks.
        let p = RmatParams::graph500(12);
        let perm = random_permutation(1 << 12, 9);
        let fill = |workers| {
            let mut edges = vec![(0, 0); 2 * CHUNK + CHUNK / 2];
            fill_chunks(&mut edges, &p, 0xB5, Some(&perm), workers);
            edges
        };
        let one = fill(1);
        assert!([2, 3, 7].into_iter().all(|workers| fill(workers) == one));
    }

    #[test]
    #[should_panic]
    fn rejects_zero_scale() {
        rmat_graph(RmatParams::graph500(0), 1);
    }
}
