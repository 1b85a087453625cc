//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::io::{read_binary, read_edge_list, write_binary, write_edge_list};
use xbfs_graph::rearrange::{rearrange_by_degree, visit_probability, RearrangeOrder};
use xbfs_graph::reference::{bfs_levels_frontier, bfs_levels_serial, bfs_parents_serial};
use xbfs_graph::validate::{certify_parents, CertViolation};
use xbfs_graph::{Csr, UNVISITED};

/// Arbitrary small undirected graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = Csr> {
    (2usize..60).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..200),
        )
            .prop_map(|(n, edges)| {
                let mut b = CsrBuilder::new(n);
                b.extend_edges(edges);
                b.build(BuildOptions::default())
            })
    })
}

proptest! {
    #[test]
    fn csr_invariants(g in arb_graph()) {
        prop_assert_eq!(*g.offsets().last().unwrap(), g.num_edges() as u64);
        prop_assert!(g.is_symmetric());
        // Rebuilding from parts round-trips.
        let rebuilt = Csr::from_parts(g.offsets().to_vec(), g.adjacency().to_vec()).unwrap();
        prop_assert_eq!(&rebuilt, &g);
        // No self loops, rows sorted and deduped.
        for (u, nbrs) in g.iter_rows() {
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1], "row {} not strictly sorted", u);
            }
            prop_assert!(!nbrs.contains(&u), "self loop at {}", u);
        }
    }

    #[test]
    fn symmetry_check_matches_its_definition(
        n in 1usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 0..120),
    ) {
        // Raw: duplicates and loops kept, rows sorted. Symmetric means
        // every arc (u, v) has some arc (v, u).
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n as u32, v % n as u32)).collect();
        let mut b = CsrBuilder::new(n);
        b.extend_edges(edges.iter().copied());
        let g = b.build(BuildOptions::raw());
        let expect = edges.iter().all(|&(u, v)| edges.contains(&(v, u)));
        prop_assert_eq!(g.is_symmetric(), expect);
        // The same arcs with every row reversed (unsorted) answer alike.
        let mut adjacency = g.adjacency().to_vec();
        for w in g.offsets().windows(2) {
            adjacency[w[0] as usize..w[1] as usize].reverse();
        }
        let reversed = Csr::from_parts(g.offsets().to_vec(), adjacency).unwrap();
        prop_assert_eq!(reversed.is_symmetric(), expect);
    }

    #[test]
    fn parallel_bfs_matches_serial(g in arb_graph(), src_sel in 0usize..60) {
        let src = (src_sel % g.num_vertices()) as u32;
        prop_assert_eq!(bfs_levels_serial(&g, src), bfs_levels_frontier(&g, src));
    }

    #[test]
    fn reference_parents_always_validate(g in arb_graph(), src_sel in 0usize..60) {
        let src = (src_sel % g.num_vertices()) as u32;
        let parents = bfs_parents_serial(&g, src);
        let levels = bfs_levels_serial(&g, src);
        certify_parents(g.offsets(), g.adjacency(), src, &levels, &parents).expect("reference tree rejected");
    }

    #[test]
    fn corrupted_parents_are_rejected(g in arb_graph(), src_sel in 0usize..60, victim in 0usize..60) {
        let src = (src_sel % g.num_vertices()) as u32;
        let mut parents = bfs_parents_serial(&g, src);
        let v = victim % g.num_vertices();
        // Corrupt one entry to a non-neighbor, non-self value.
        let bogus = (0..g.num_vertices() as u32)
            .find(|&c| c != parents[v] && c != v as u32 && !g.neighbors(v as u32).contains(&c));
        prop_assume!(parents[v] != UNVISITED);
        prop_assume!(bogus.is_some());
        parents[v] = bogus.unwrap();
        let levels = bfs_levels_serial(&g, src);
        prop_assert!(certify_parents(g.offsets(), g.adjacency(), src, &levels, &parents).is_err());
    }

    #[test]
    fn rearrangement_preserves_structure(g in arb_graph()) {
        for order in [
            RearrangeOrder::DegreeDescending,
            RearrangeOrder::DegreeAscending,
            RearrangeOrder::VertexId,
        ] {
            let r = rearrange_by_degree(&g, order);
            prop_assert_eq!(g.offsets(), r.offsets());
            for v in 0..g.num_vertices() as u32 {
                let mut a = g.neighbors(v).to_vec();
                let mut b = r.neighbors(v).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
            }
            // BFS levels are order-independent.
            prop_assert_eq!(bfs_levels_serial(&g, 0), bfs_levels_serial(&r, 0));
        }
    }

    #[test]
    fn binary_io_round_trips(g in arb_graph()) {
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn edge_list_io_round_trips(g in arb_graph()) {
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(&buf), BuildOptions::raw()).unwrap();
        // Raw rebuild of an already-canonical graph is identical — except
        // trailing isolated vertices, which an edge list cannot encode.
        prop_assume!(g.num_vertices() == 0 || g.degree(g.num_vertices() as u32 - 1) > 0);
        prop_assume!(g.num_edges() > 0);
        prop_assert_eq!(g2, g);
    }

    #[test]
    fn visit_probability_is_a_probability(m in 1u64..10_000, mk in 0u64..10_000, d in 0u64..100) {
        let mk = mk.min(m);
        let p = visit_probability(m, mk, d);
        prop_assert!((0.0..=1.0).contains(&p), "p = {}", p);
    }
}

/// The builder's contract, written the obvious way: symmetrize, filter
/// loops, sort, dedup, count rows.
fn reference_build(n: usize, edges: &[(u32, u32)], opts: BuildOptions) -> (Vec<u64>, Vec<u32>) {
    let mut e = edges.to_vec();
    if opts.symmetrize {
        e.extend(edges.iter().map(|&(u, v)| (v, u)));
    }
    if opts.remove_self_loops {
        e.retain(|&(u, v)| u != v);
    }
    e.sort_unstable();
    if opts.dedup {
        e.dedup();
    }
    let mut offsets = vec![0u64; n + 1];
    for &(u, _) in &e {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    (offsets, e.iter().map(|&(_, v)| v).collect())
}

/// Random edge lists on 0..=64 vertices — a tail of isolated vertices,
/// self-loops and repeated edges — under all eight `BuildOptions`. The
/// harness does not shrink, so a failure names its seed.
#[test]
fn builder_matches_naive_reference() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..=64usize);
        // Ids come from 0..used, so used..n are isolated.
        let used = rng.gen_range(0..=n);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..rng.gen_range(0..=4 * used) {
            let u = rng.gen_range(0..used) as u32;
            let edge = match rng.gen_range(0..8u32) {
                0 => (u, u),
                1 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
                _ => (u, rng.gen_range(0..used) as u32),
            };
            edges.push(edge);
        }
        for bits in 0..8 {
            let opts = BuildOptions {
                symmetrize: bits & 1 != 0,
                remove_self_loops: bits & 2 != 0,
                dedup: bits & 4 != 0,
            };
            let mut b = CsrBuilder::new(n);
            b.extend_edges(edges.iter().copied());
            let g = b.build(opts);
            let (offsets, adjacency) = reference_build(n, &edges, opts);
            assert_eq!(g.offsets(), offsets, "seed {seed}, {opts:?}");
            assert_eq!(g.adjacency(), adjacency, "seed {seed}, {opts:?}");
        }
    }
}

#[test]
fn validator_rejects_length_mismatch() {
    let g = erdos_renyi(10, 20, 1);
    let levels = bfs_levels_serial(&g, 0);
    assert_eq!(
        certify_parents(g.offsets(), g.adjacency(), 0, &levels, &[0; 5]),
        Err(CertViolation::LengthMismatch {
            expected: 10,
            actual: 5
        })
    );
}

/// An honest 50-vertex file cut to `keep` bytes, its header then
/// overwritten to claim `n` vertices and/or `m` edges.
fn tampered(n: Option<u64>, m: Option<u64>, keep: Option<usize>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(&erdos_renyi(50, 100, 3), &mut buf).unwrap();
    buf.truncate(keep.unwrap_or(buf.len()));
    if let Some(n) = n {
        buf[8..16].copy_from_slice(&n.to_le_bytes());
    }
    if let Some(m) = m {
        buf[16..24].copy_from_slice(&m.to_le_bytes());
    }
    buf
}

/// A header is a claim, not a fact: reading must end in a typed error
/// with memory bounded by the bytes present — not an abort on a
/// terabyte allocation, not an overflow panic.
fn assert_invalid(buf: &[u8]) {
    let got = std::panic::catch_unwind(|| read_binary(Cursor::new(buf)));
    let err = got.expect("no panic").expect_err("must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn binary_header_lying_about_vertices_is_a_typed_error() {
    assert_invalid(&tampered(Some(1 << 40), None, Some(24)));
    assert_invalid(&tampered(Some(1 << 40), None, None));
    assert_invalid(&tampered(Some(49), None, None));
}

#[test]
fn binary_header_lying_about_edges_is_a_typed_error() {
    assert_invalid(&tampered(None, Some(1 << 40), None));
    let honest = u64::from_le_bytes(tampered(None, None, None)[16..24].try_into().unwrap());
    assert_invalid(&tampered(None, Some(honest - 1), None));
}

#[test]
fn binary_header_counts_that_overflow_are_a_typed_error() {
    assert_invalid(&tampered(Some(u64::MAX), None, None)); // n + 1
    assert_invalid(&tampered(Some(u64::MAX / 4), None, None)); // 8 (n + 1)
    assert_invalid(&tampered(None, Some(u64::MAX / 2), None)); // 4 m
}

#[test]
fn binary_file_cut_short_or_padded_is_a_typed_error() {
    let all = tampered(None, None, None).len();
    assert_invalid(&tampered(None, None, Some(24 + 8 * 20))); // mid-offsets
    assert_invalid(&tampered(None, None, Some(all - 5))); // mid-adjacency
    let mut padded = tampered(None, None, None);
    padded.push(0);
    assert_invalid(&padded);
}
