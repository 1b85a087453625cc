//! `CsrBuilder::build` against the plainest possible construction: sort
//! the whole arc list, then drop repeats. The inputs are big enough that
//! the builder splits its rows over every available core, and shaped so
//! the split meets a hub row, empty runs and a single row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbfs_graph::{BuildOptions, Csr, CsrBuilder, VertexId};

type Edge = (VertexId, VertexId);

/// Every `BuildOptions` combination.
fn all_options() -> impl Iterator<Item = BuildOptions> {
    (0..8).map(|bits| BuildOptions {
        symmetrize: bits & 1 != 0,
        remove_self_loops: bits & 2 != 0,
        dedup: bits & 4 != 0,
    })
}

fn reference(n: usize, edges: &[Edge], opts: BuildOptions) -> Csr {
    let mut arcs: Vec<Edge> = Vec::new();
    for &(u, v) in edges {
        if opts.remove_self_loops && u == v {
            continue;
        }
        arcs.push((u, v));
        if opts.symmetrize {
            arcs.push((v, u));
        }
    }
    arcs.sort_unstable();
    if opts.dedup {
        arcs.dedup();
    }
    let mut offsets = vec![0u64; n + 1];
    for &(u, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let adjacency = arcs.into_iter().map(|(_, v)| v).collect();
    Csr::from_parts(offsets, adjacency).expect("reference CSR is well formed")
}

fn check(name: &str, n: usize, edges: &[Edge]) {
    for opts in all_options() {
        let built = CsrBuilder::from_edges(n, edges.to_vec()).build(opts);
        assert!(built == reference(n, edges, opts), "{name} under {opts:?}");
    }
}

fn random_edges(rng: &mut StdRng, n: u32, count: usize) -> Vec<Edge> {
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn hub_row_holding_most_arcs() {
    // Vertex 500 sends 100 K of the 130 K edges: more than half of every
    // directed build's arcs, and about half once symmetrized, so the row
    // split lands on it.
    let mut rng = StdRng::seed_from_u64(1);
    let mut edges = random_edges(&mut rng, 1000, 30_000);
    edges.extend((0..100_000).map(|_| (500, rng.gen_range(0..1000))));
    check("hub", 1000, &edges);
}

#[test]
fn every_row_empty() {
    check("no edges", 100_000, &[]);
}

#[test]
fn one_vertex() {
    check("one vertex, no edges", 1, &[]);
    check("one vertex, 100 K self-loops", 1, &vec![(0, 0); 100_000]);
}

#[test]
fn self_loops_and_repeated_arcs() {
    // 100 K edges over 6 vertices: every arc repeated thousands of times,
    // one edge in six a self-loop.
    let mut rng = StdRng::seed_from_u64(3);
    let edges = random_edges(&mut rng, 6, 100_000);
    check("repeats", 6, &edges);
}

#[test]
fn random_edge_list() {
    let mut rng = StdRng::seed_from_u64(7);
    let edges = random_edges(&mut rng, 5000, 100_000);
    check("random", 5000, &edges);
}
