//! Byte-identity pins for graph construction.
//!
//! Every digest below was recorded before `gen_edge` lost its branch chain
//! and `CsrBuilder::build` its comparison sort. The modeled numbers the
//! rest of the workspace pins are functions of these bytes, so a change to
//! a generator or to the builder must leave this file unmodified: a
//! mismatch means a seed now names a different graph.
//!
//! Digest: FNV-1a 64 over every offset, then every adjacency entry, each
//! folded as one `u64`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbfs_graph::generators::{
    barabasi_albert, community_graph, erdos_renyi, layered_citation_graph, rmat_graph, RmatParams,
};
use xbfs_graph::{BuildOptions, Csr, CsrBuilder};

fn digest(g: &Csr) -> u64 {
    let words = g.offsets().iter().copied();
    let words = words.chain(g.adjacency().iter().map(|&v| u64::from(v)));
    words.fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare every `(name, graph, digest)` and report all mismatches at once.
fn check(cases: Vec<(String, Csr, u64)>) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, g, want)| digest(g) != *want)
        .map(|(name, g, want)| format!("{name}: want {want:016x}, got {:016x}", digest(g)))
        .collect();
    assert!(bad.is_empty(), "graph bytes moved:\n{}", bad.join("\n"));
}

#[test]
fn rmat_graphs_match_parent_bytes() {
    #[rustfmt::skip]
    const WANT: [(u32, u64, u64); 21] = [
        (1, 0xB5, 0x3372_13d0_c529_1291), (1, 1, 0x3372_13d0_c529_1291), (1, 42, 0x3372_13d0_c529_1291),
        (2, 0xB5, 0x4979_a867_3af8_3aed), (2, 1, 0xfcf1_3eba_9e92_5117), (2, 42, 0xfcf1_3eba_9e92_5117),
        (5, 0xB5, 0x55d5_610a_c7e6_4449), (5, 1, 0xb980_11bf_9261_8b51), (5, 42, 0xee2e_e0f1_e41d_8f85),
        (8, 0xB5, 0x62d1_3531_ba71_2bd9), (8, 1, 0xce14_397b_0938_def7), (8, 42, 0x12f8_e246_8089_8965),
        (10, 0xB5, 0x3c00_4495_52a1_0b2f), (10, 1, 0x600f_400b_f939_8e53), (10, 42, 0x869d_a067_a1b9_57b1),
        (12, 0xB5, 0x50e7_ac07_8792_65fd), (12, 1, 0xb6a7_b641_bbcf_6951), (12, 42, 0xeaff_3402_8741_d917),
        (14, 0xB5, 0x4e2e_0185_a37e_8f19), (14, 1, 0xf83a_3180_e1cd_77d3), (14, 42, 0x9f33_ff2d_877d_38ff),
    ];
    let mut cases: Vec<_> = WANT
        .iter()
        .map(|&(scale, seed, want)| {
            let g = rmat_graph(RmatParams::graph500(scale), seed);
            (format!("rmat s{scale} seed {seed:#x}"), g, want)
        })
        .collect();
    let unshuffled = RmatParams {
        shuffle_ids: false,
        ..RmatParams::graph500(10)
    };
    let g = rmat_graph(unshuffled, 7);
    cases.push(("rmat s10 unshuffled".into(), g, 0xfb6e_327b_18bf_5ea3));
    check(cases);
}

/// s16 is the benchmark's `direct-solo-s16` graph; too slow for a debug
/// test run. `cargo test --release -p xbfs-graph --test golden -- --ignored`.
#[test]
#[ignore]
fn rmat_s16_matches_parent_bytes() {
    let g = rmat_graph(RmatParams::graph500(16), 0xB5);
    assert_eq!(digest(&g), 0xf942_ec93_ddf2_fe21);
}

#[test]
fn other_generators_match_parent_bytes() {
    check(vec![
        (
            "erdos_renyi".into(),
            erdos_renyi(3000, 20_000, 5),
            0xa5f2_e573_c4e3_a7c1,
        ),
        (
            "barabasi_albert".into(),
            barabasi_albert(3000, 6, 5),
            0xde1c_026d_cfdf_9339,
        ),
        (
            "layered_citation".into(),
            layered_citation_graph(3000, 30, 3, 4, 5),
            0x1b04_2dcc_70a9_41f5,
        ),
        (
            "community".into(),
            community_graph(3000, 900, 6, 0.1, 5),
            0x007a_9313_240a_40ed,
        ),
    ]);
}

/// 50 K edges over ids `0..1000` of 1,200 vertices: repeats, self-loops
/// and 200 trailing isolated vertices, under every `BuildOptions`.
#[test]
fn edge_list_matches_parent_bytes_under_every_option() {
    const WANT: [u64; 8] = [
        0xf3ae_c42f_0f7e_95bb,
        0xbe47_ff61_115b_ad17,
        0xe93c_3e8d_4ec3_ba09,
        0x5fa7_86ef_509d_e233,
        0xbb8d_3711_454f_74ca,
        0xa33a_ea59_5f3c_fcf9,
        0xdabb_6c54_b4ce_d9d0,
        0xe7ca_ba25_02e7_f607,
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let edges: Vec<(u32, u32)> = (0..50_000)
        .map(|i| {
            let u = rng.gen_range(0..1000u32);
            let v = rng.gen_range(0..1000u32);
            (u, if i % 97 == 0 { u } else { v })
        })
        .collect();
    let mut cases = Vec::new();
    for (bits, want) in WANT.into_iter().enumerate() {
        let opts = BuildOptions {
            symmetrize: bits & 1 != 0,
            remove_self_loops: bits & 2 != 0,
            dedup: bits & 4 != 0,
        };
        let mut b = CsrBuilder::new(1200);
        b.extend_edges(edges.iter().copied());
        cases.push((format!("edge list {opts:?}"), b.build(opts), want));
    }
    check(cases);
}

/// Chunk shapes the Graph500 sizes never produce: one and a half chunks
/// (98,304 arcs, a short last chunk) and three chunks (196,608 arcs, an
/// odd count), so a split of the chunks over workers meets both.
#[test]
fn rmat_odd_and_short_chunks_match_parent_bytes() {
    #[rustfmt::skip]
    const WANT: [(u32, u32, u64, u64); 4] = [
        (15, 3, 0xB5, 0x5493_04c5_78e1_ca4b), (15, 3, 1, 0x5474_f565_45a0_5dbb),
        (13, 24, 0xB5, 0x252e_de55_68fe_1b65), (13, 24, 1, 0xb9ec_ca98_9354_8d97),
    ];
    let cases = WANT
        .iter()
        .map(|&(scale, edge_factor, seed, want)| {
            let p = RmatParams {
                edge_factor,
                ..RmatParams::graph500(scale)
            };
            let name = format!("rmat s{scale} ef{edge_factor} seed {seed:#x}");
            (name, rmat_graph(p, seed), want)
        })
        .collect();
    check(cases);
}
