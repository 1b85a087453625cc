//! Workspace-level property test: on arbitrary graphs, XBFS (all configs)
//! and all six baseline engines agree with each other and the CPU
//! reference — the strongest cross-implementation oracle in the repo.

use gcd_sim::Device;
use proptest::prelude::*;
use xbfs_baselines::{Algo, Baseline};
use xbfs_core::{Engine, RunRequest, Xbfs, XbfsConfig};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::reference::{bfs_levels_serial, traversed_edges};
use xbfs_graph::{rearrange_by_degree, Csr, RearrangeOrder};

fn arb_graph_and_source() -> impl Strategy<Value = (Csr, u32)> {
    (2usize..70).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..220),
            0..n as u32,
        )
            .prop_map(move |(edges, src)| {
                let mut b = CsrBuilder::new(n);
                b.extend_edges(edges);
                (b.build(BuildOptions::default()), src)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_engine_agrees_with_reference((g, src) in arb_graph_and_source()) {
        let expect = bfs_levels_serial(&g, src);

        let dev = Device::mi250x();
        let x = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap().run(src).unwrap();
        prop_assert_eq!(&x.levels, &expect, "xbfs adaptive");
        prop_assert_eq!(x.traversed_edges, traversed_edges(&g, &expect));

        for algo in Algo::ALL {
            let mut engine = Baseline::new(algo, Device::mi250x(), &g);
            let run = engine.run(&RunRequest::plain(&[src])).unwrap();
            prop_assert_eq!(&run.levels[0], &expect, "engine {}", algo.name());
            prop_assert!(run.total_ms > 0.0, "engine {}", algo.name());
        }
    }

    #[test]
    fn rearrangement_never_changes_results((g, src) in arb_graph_and_source()) {
        let expect = bfs_levels_serial(&g, src);
        for order in [RearrangeOrder::DegreeDescending, RearrangeOrder::DegreeAscending] {
            let rg = rearrange_by_degree(&g, order);
            let dev = Device::mi250x();
            let run = Xbfs::new(&dev, &rg, XbfsConfig::default()).unwrap().run(src).unwrap();
            prop_assert_eq!(&run.levels, &expect, "order {:?}", order);
        }
    }

    #[test]
    fn alpha_never_changes_results((g, src) in arb_graph_and_source(), alpha_pct in 1u32..100) {
        let alpha = f64::from(alpha_pct) / 100.0;
        let cfg = XbfsConfig {
            alpha,
            scan_free_max_ratio: (1e-3f64).min(alpha),
            ..XbfsConfig::default()
        };
        let dev = Device::mi250x();
        let run = Xbfs::new(&dev, &g, cfg).unwrap().run(src).unwrap();
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }
}
