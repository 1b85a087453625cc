//! Erdős–Rényi G(n, m) random graphs — used by tests and property-based
//! checks as an "unstructured" counterpoint to the skewed generators.

use crate::builder::{BuildOptions, CsrBuilder};
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Undirected G(n, m): `num_edges` edges drawn uniformly (before
/// dedup/self-loop removal), deterministic in `seed`.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Csr {
    assert!(num_vertices > 0, "need at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vertex = || rng.gen_range(0..num_vertices) as VertexId;
    let edges = (0..num_edges).map(|_| (vertex(), vertex())).collect();
    CsrBuilder::from_edges(num_vertices, edges).build(BuildOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 9), erdos_renyi(100, 300, 9));
    }

    #[test]
    fn respects_bounds() {
        let g = erdos_renyi(50, 200, 1);
        assert_eq!(g.num_vertices(), 50);
        assert!(g.num_edges() <= 400);
        assert!(g.is_symmetric());
    }

    #[test]
    fn zero_edges_ok() {
        let g = erdos_renyi(10, 0, 1);
        assert_eq!(g.num_edges(), 0);
    }
}
