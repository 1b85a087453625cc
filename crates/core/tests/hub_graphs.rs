//! Runner-level coverage of the degree-binned kernels: graphs with mega-
//! hubs must route vertices through all three bins (thread / wave / block)
//! and still produce exact BFS, in both execution modes.

use gcd_sim::{ArchProfile, Device, ExecMode};
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::Csr;

/// A hub of degree `hub_deg` (large bin), a ring of mid-degree vertices
/// (medium bin), and pendant leaves (small bin).
fn three_bin_graph(hub_deg: usize) -> Csr {
    let mid = 200usize; // vertices 1..=200 form a chain with extra edges
    let n = 1 + hub_deg.max(mid);
    let mut b = CsrBuilder::new(n + mid);
    // Hub (vertex 0) connects to hub_deg distinct vertices.
    for v in 1..=hub_deg {
        b.add_edge(0, v as u32);
    }
    // Give vertices 1..=mid moderate degree (connect each to ~80 others).
    for v in 1..=mid {
        for j in 1..80 {
            let w = 1 + ((v + j * 7) % (n - 1));
            if w != v {
                b.add_edge(v as u32, w as u32);
            }
        }
    }
    b.build(BuildOptions::default())
}

#[test]
fn mega_hub_routes_through_the_block_kernel() {
    let g = three_bin_graph(6000);
    let dev = Device::mi250x();
    // Keep the run top-down (the adaptive default would switch to
    // bottom-up right at the hub level and bypass the bins).
    let cfg = XbfsConfig {
        alpha: 10.0,
        ..XbfsConfig::default()
    };
    let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
    // Start at a leaf so the hub is *claimed* (and binned) during level 0,
    // then *expanded* by the block kernel at level 1.
    let src = 6000u32;
    let run = xbfs.run(src).unwrap();
    assert_eq!(run.levels, bfs_levels_serial(&g, src));
    let kernels: Vec<&str> = run
        .level_stats
        .iter()
        .flat_map(|l| &l.kernels)
        .map(|k| k.name.as_str())
        .collect();
    assert!(
        kernels.contains(&"fq_expand_block"),
        "block kernel never ran: {kernels:?}"
    );
    assert!(kernels.contains(&"fq_expand_wave"), "{kernels:?}");
    assert!(kernels.contains(&"fq_expand_thread"), "{kernels:?}");
}

#[test]
fn mega_hub_exact_in_timing_mode() {
    let g = three_bin_graph(5000);
    let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
    let run = Xbfs::new(&dev, &g, XbfsConfig::default())
        .unwrap()
        .run(5000)
        .unwrap();
    assert_eq!(run.levels, bfs_levels_serial(&g, 5000));
}

#[test]
fn mega_hub_exact_on_warp32_and_with_parents() {
    let g = three_bin_graph(5000);
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::cuda_original()
    };
    let dev = Device::new(
        ArchProfile::p6000(),
        ExecMode::Functional,
        cfg.required_streams(),
    );
    let run = Xbfs::new(&dev, &g, cfg).unwrap().run(17).unwrap();
    assert_eq!(run.levels, bfs_levels_serial(&g, 17));
    assert!(run.parents.is_some());
    xbfs_core::certify_run(g.offsets(), g.adjacency(), &run).expect("invalid tree");
}

#[test]
fn source_in_the_large_bin() {
    // BFS starting *at* the hub: the seed queue puts it in bin 0 (thread
    // kernel walks its whole adjacency) — correctness must not depend on
    // binning the source.
    let g = three_bin_graph(6000);
    let dev = Device::mi250x();
    let run = Xbfs::new(&dev, &g, XbfsConfig::default())
        .unwrap()
        .run(0)
        .unwrap();
    assert_eq!(run.levels, bfs_levels_serial(&g, 0));
}
