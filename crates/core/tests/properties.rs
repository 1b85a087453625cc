//! Property-based correctness of XBFS: every strategy, every configuration,
//! both architectures, arbitrary graphs — always the exact BFS levels.

use gcd_sim::{ArchProfile, Device, ExecMode};
use proptest::prelude::*;
use xbfs_core::{MsBfs, Strategy as BfsStrategy, Xbfs, XbfsConfig, MAX_CONCURRENT};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::Csr;

fn arb_graph_and_source() -> impl Strategy<Value = (Csr, u32)> {
    (2usize..80).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..250),
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adaptive_is_exact_bfs((g, src) in arb_graph_and_source()) {
        let dev = Device::mi250x();
        let run = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap().run(src).unwrap();
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }

    #[test]
    fn every_forced_strategy_is_exact_bfs((g, src) in arb_graph_and_source()) {
        for strat in [BfsStrategy::ScanFree, BfsStrategy::SingleScan, BfsStrategy::BottomUp] {
            let dev = Device::mi250x();
            let run = Xbfs::new(&dev, &g, XbfsConfig::forced(strat)).unwrap().run(src).unwrap();
            prop_assert_eq!(run.levels, bfs_levels_serial(&g, src), "strategy {}", strat);
        }
    }

    #[test]
    fn warp32_arch_is_exact_bfs((g, src) in arb_graph_and_source()) {
        // The NVIDIA profile exercises 32-wide ballot/queue paths.
        let cfg = XbfsConfig::cuda_original();
        let dev = Device::new(ArchProfile::p6000(), ExecMode::Functional, cfg.required_streams());
        let run = Xbfs::new(&dev, &g, cfg).unwrap().run(src).unwrap();
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }

    #[test]
    fn timing_mode_is_exact_bfs((g, src) in arb_graph_and_source()) {
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
        let run = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap().run(src).unwrap();
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }

    #[test]
    fn parents_validate_on_arbitrary_graphs((g, src) in arb_graph_and_source()) {
        let cfg = XbfsConfig { record_parents: true, ..XbfsConfig::default() };
        let dev = Device::mi250x();
        let run = Xbfs::new(&dev, &g, cfg).unwrap().run(src).unwrap();
        prop_assert!(run.parents.is_some());
        xbfs_core::certify_run(g.offsets(), g.adjacency(), &run).expect("invalid tree");
    }

    #[test]
    fn toggles_never_change_results((g, src) in arb_graph_and_source(), bits in 0u32..32) {
        let cfg = XbfsConfig {
            balancing_top_down: bits & 1 != 0,
            balancing_bottom_up: bits & 2 != 0,
            multi_stream: bits & 4 != 0,
            nfg: bits & 8 != 0,
            proactive: bits & 16 != 0,
            ..XbfsConfig::default()
        };
        let dev = Device::new(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            cfg.required_streams(),
        );
        let run = Xbfs::new(&dev, &g, cfg).unwrap().run(src).unwrap();
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }

    #[test]
    fn directed_preset_is_exact_on_asymmetric_graphs(
        n in 2usize..60,
        raw_edges in proptest::collection::vec((0u32..60, 0u32..60), 1..200),
        src_sel in 0usize..60,
    ) {
        // Directed build: no symmetrization. The `directed()` preset must
        // still be exact BFS (it pins α = ∞, so pull never engages).
        let edges: Vec<(u32, u32)> = raw_edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let mut b = CsrBuilder::new(n);
        b.extend_edges(edges);
        let g = b.build(BuildOptions {
            symmetrize: false,
            remove_self_loops: true,
            dedup: true,
        });
        let src = (src_sel % n) as u32;
        let dev = Device::mi250x();
        let run = Xbfs::new(&dev, &g, XbfsConfig::directed()).unwrap().run(src).unwrap();
        prop_assert!(!run.strategy_trace().contains(&BfsStrategy::BottomUp));
        prop_assert_eq!(run.levels, bfs_levels_serial(&g, src));
    }

    #[test]
    fn batched_multi_source_equals_sequential_levels(
        (g, _src) in arb_graph_and_source(),
        raw_sources in proptest::collection::vec(0u32..80, 1..MAX_CONCURRENT + 1),
    ) {
        // One 64-wide bit-parallel wave over up to MAX_CONCURRENT random
        // sources (duplicates included) must produce, slot for slot, the
        // exact levels a sequential solo run finds for that source. The
        // graph is symmetric, so the engine may pull: push only, the
        // default switch, and a threshold that pulls at every level must
        // all agree with the serial reference.
        prop_assert!(g.is_symmetric());
        let n = g.num_vertices() as u32;
        let sources: Vec<u32> = raw_sources.into_iter().map(|s| s % n).collect();
        let always = XbfsConfig { alpha: 1e-12, ..XbfsConfig::default() };
        for cfg in [XbfsConfig::directed(), XbfsConfig::default(), always] {
            let dev = Device::mi250x();
            let run = MsBfs::with_config(&dev, &g, cfg).unwrap().run_batch(&sources);
            prop_assert_eq!(run.width(), sources.len());
            for (slot, &src) in sources.iter().enumerate() {
                prop_assert_eq!(
                    &run.levels[slot],
                    &bfs_levels_serial(&g, src),
                    "alpha {} slot {} (source {})", cfg.alpha, slot, src
                );
            }
        }
    }

    #[test]
    fn level_stats_are_consistent((g, src) in arb_graph_and_source()) {
        let dev = Device::mi250x();
        let run = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap().run(src).unwrap();
        // Frontier counts across levels sum to the visited set — except
        // that single-scan's CAS-free claims may double-count a vertex two
        // racing waves both saw unvisited (benign, §III-B), so the sum can
        // only overshoot, and only when single-scan levels exist.
        let visited = run.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
        let total: u64 = run.level_stats.iter().map(|l| l.frontier_count).sum();
        if run.strategy_trace().contains(&BfsStrategy::SingleScan) {
            prop_assert!(total >= visited, "total {} < visited {}", total, visited);
        } else {
            prop_assert_eq!(total, visited);
        }
        // Ratios are degree sums over |E|.
        for ls in &run.level_stats {
            let expect = ls.frontier_edges as f64 / g.num_edges().max(1) as f64;
            prop_assert!((ls.ratio - expect).abs() < 1e-9);
            prop_assert!(ls.time_ms >= 0.0);
        }
        // Levels in stats are consecutive from 0.
        for (i, ls) in run.level_stats.iter().enumerate() {
            prop_assert_eq!(ls.level as usize, i);
        }
    }
}
