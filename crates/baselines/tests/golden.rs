//! Pins what every baseline models. The digests were recorded before the
//! baselines became `impl Engine`, so a change to the engine plumbing must
//! leave this file unmodified: a mismatch means a kernel, an allocation or
//! its order now charges a different modeled number.
//!
//! Digest: FNV-1a 64 over, for each of two sources run back to back on one
//! engine, every level, then `total_ms.to_bits()`, then the traversed edges.

use gcd_sim::{fnv1a, Device};
use xbfs_baselines::{Algo, Baseline};
use xbfs_core::{Engine, RunRequest};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::reference::traversed_edges;
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{Csr, Dataset};

fn digest(algo: Algo, g: &Csr) -> u64 {
    let mut engine = Baseline::new(algo, Device::mi250x(), g);
    let mut words = Vec::new();
    for s in pick_sources(g, 2, 7) {
        let out = engine.run(&RunRequest::plain(&[s])).unwrap();
        let levels = &out.levels[0];
        words.extend(levels.iter().map(|&l| u64::from(l)));
        words.push(out.total_ms.to_bits());
        words.push(traversed_edges(g, levels));
    }
    fnv1a(words)
}

#[test]
fn baselines_match_parent_digests() {
    // Columns in `Algo::ALL` order.
    #[rustfmt::skip]
    const WANT: [(&str, [u64; 6]); 2] = [
        ("rmat s10 seed 3", [
            0x3e6e_9f57_0d4f_3b42, 0x477e_1720_4545_9c16, 0x4b97_c68c_0385_8926,
            0x606f_33e2_aea8_0c85, 0x4289_fd5c_2f1f_60e5, 0xa2c8_355d_326f_18e9,
        ]),
        ("orkut shift 11 seed 42", [
            0x4003_0ce9_c93c_4ad0, 0x2b60_7c28_44c0_50d2, 0x09c1_1b0f_8d45_674b,
            0x8276_dee6_3f1a_6b7c, 0x8e80_8b92_562f_b3dc, 0x8f52_3268_44a1_30ef,
        ]),
    ];
    let graphs = [
        rmat_graph(RmatParams::graph500(10), 3),
        Dataset::Orkut.generate(11, 42),
    ];
    let mut bad = Vec::new();
    for ((name, want), g) in WANT.iter().zip(&graphs) {
        for (algo, &want) in Algo::ALL.into_iter().zip(want) {
            let got = digest(algo, g);
            if got != want {
                bad.push(format!(
                    "{name} {}: want {want:#018x}, got {got:#018x}",
                    algo.name()
                ));
            }
        }
    }
    assert!(bad.is_empty(), "modeled numbers moved:\n{}", bad.join("\n"));
}
