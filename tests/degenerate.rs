//! Degenerate-input hardening: edge-list loading and engine construction
//! must answer empty graphs, isolated sources, self-loops, duplicate
//! edges, and out-of-range sources with typed errors or correct results —
//! never a panic.

use gcd_sim::Device;
use proptest::prelude::*;
use xbfs_core::{Xbfs, XbfsConfig, XbfsError};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::{io, Csr};

fn verified_levels(g: &Csr, src: u32) -> Vec<u32> {
    let dev = Device::mi250x();
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let xbfs = Xbfs::new(&dev, g, cfg).unwrap();
    // Certify degenerate runs too: the validator must accept them.
    let (run, cert, _) = xbfs.run_with(src, None, None, true).unwrap();
    assert!(cert.is_some());
    run.levels
}

/// Edge-list text with self-loops, duplicate edges (both orders), comment
/// noise and blank lines. Loading must never panic and the loaded graph
/// must produce reference-identical certified BFS results.
fn arb_messy_edge_list() -> impl Strategy<Value = (String, usize, u32)> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..120),
            0..n as u32,
        )
            .prop_map(move |(edges, src)| {
                let mut text = String::from("# comment line\n\n");
                for (u, v) in &edges {
                    text.push_str(&format!("{u} {v}\n"));
                    if (u + v) % 3 == 0 {
                        text.push_str(&format!("{u} {v}\n")); // duplicate
                    }
                }
                // Self-loops on a few vertices, plus one on the source.
                for v in (0..n as u32).step_by(5) {
                    text.push_str(&format!("{v} {v}\n"));
                }
                text.push_str(&format!("{src} {src}\n"));
                (text, n, src)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn messy_edge_lists_load_and_certify((text, _n, src) in arb_messy_edge_list()) {
        let g = io::read_edge_list(text.as_bytes(), BuildOptions::default())
            .expect("edge-list text must parse");
        if g.num_vertices() == 0 {
            // Nothing to traverse; construction must say so, typed.
            let dev = Device::mi250x();
            let err = Xbfs::new(&dev, &g, XbfsConfig::default()).err();
            prop_assert_eq!(err, Some(XbfsError::EmptyGraph));
        } else {
            let src = src.min(g.num_vertices() as u32 - 1);
            let expect = bfs_levels_serial(&g, src);
            prop_assert_eq!(verified_levels(&g, src), expect);
        }
    }

    #[test]
    fn out_of_range_sources_are_typed_errors(
        n in 1usize..50,
        beyond in 0u32..1000,
    ) {
        let mut b = CsrBuilder::new(n);
        b.add_edge(0, n as u32 - 1);
        let g = b.build(BuildOptions::default());
        let dev = Device::mi250x();
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        let bad = n as u32 + beyond;
        let err = xbfs.run(bad).unwrap_err();
        prop_assert_eq!(err, XbfsError::SourceOutOfRange {
            source: bad,
            num_vertices: n,
        });
    }
}

/// The empty graph is a construction-time typed error, not a crash.
#[test]
fn empty_graph_is_a_typed_error() {
    let g = CsrBuilder::new(0).build(BuildOptions::default());
    let dev = Device::mi250x();
    let err = Xbfs::new(&dev, &g, XbfsConfig::default()).err();
    assert_eq!(err, Some(XbfsError::EmptyGraph));
}

/// A source with no edges (or only a self-loop) is a valid one-vertex
/// traversal: level 0 at the source, everything else unreached — and it
/// certifies.
#[test]
fn isolated_and_self_loop_sources_traverse_correctly() {
    let mut b = CsrBuilder::new(8);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    b.add_edge(5, 5); // self-loop island
    let g = b.build(BuildOptions::default());
    for src in [0u32, 5] {
        let levels = verified_levels(&g, src);
        assert_eq!(levels, bfs_levels_serial(&g, src), "source {src}");
        assert_eq!(levels[src as usize], 0);
        assert_eq!(
            levels
                .iter()
                .filter(|&&l| l != xbfs_core::UNVISITED)
                .count(),
            1,
            "source {src} reaches only itself"
        );
    }
}
