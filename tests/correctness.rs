//! Cross-crate correctness: XBFS and every baseline engine produce exact
//! BFS levels on every dataset analog, from many sources, on both
//! architecture profiles — and every engine behind the `Engine` contract
//! answers every kind of request like the serial reference.

use gcd_sim::{ArchProfile, Device, ExecMode};
use xbfs_baselines::{Algo, Baseline};
use xbfs_core::{
    levels_digest, Engine, EngineError, MsBfs, RunRequest, Strategy, Xbfs, XbfsConfig,
};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};
use xbfs_graph::reference::{bfs_levels_frontier, bfs_levels_serial};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{rearrange_by_degree, Csr, Dataset, RearrangeOrder};
use xbfs_multi_gcd::{ClusterConfig, GcdCluster, LinkModel};

const SHIFT: u32 = 11; // tiny analogs: keep the full matrix fast

/// Runs the engines `make` builds for each dataset analog from three
/// sources and checks every answer against the frontier reference.
fn assert_match_reference_on_all_datasets<F>(make: F)
where
    F: for<'g> Fn(&'g Csr) -> Vec<(&'static str, Box<dyn Engine + 'g>)>,
{
    for d in Dataset::ALL {
        let g = d.generate(SHIFT, 42);
        let sources = pick_sources(&g, 3, 7);
        let expect: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| bfs_levels_frontier(&g, s))
            .collect();
        for (name, mut engine) in make(&g) {
            for (&s, expect) in sources.iter().zip(&expect) {
                let run = engine.run(&RunRequest::plain(&[s])).unwrap();
                assert_eq!(&run.levels[0], expect, "dataset {d}, {name}, source {s}");
            }
        }
    }
}

#[test]
fn xbfs_matches_reference_on_all_datasets() {
    assert_match_reference_on_all_datasets(|g| {
        let xbfs = Xbfs::new(Device::mi250x(), g, XbfsConfig::default()).unwrap();
        vec![("xbfs", Box::new(xbfs) as Box<dyn Engine + '_>)]
    });
}

#[test]
fn all_baselines_match_reference_on_all_datasets() {
    assert_match_reference_on_all_datasets(|g| {
        Algo::ALL
            .map(|algo| {
                let engine = Baseline::new(algo, Device::mi250x(), g);
                (algo.name(), Box::new(engine) as Box<dyn Engine + '_>)
            })
            .into()
    });
}

#[test]
fn rearranged_graphs_give_identical_levels() {
    for d in [Dataset::Rmat25, Dataset::Orkut] {
        let g = d.generate(SHIFT, 5);
        let s = pick_sources(&g, 1, 3)[0];
        let expect = bfs_levels_frontier(&g, s);
        for order in [
            RearrangeOrder::DegreeDescending,
            RearrangeOrder::DegreeAscending,
            RearrangeOrder::VertexId,
        ] {
            let rg = rearrange_by_degree(&g, order);
            let dev = Device::mi250x();
            let run = Xbfs::new(&dev, &rg, XbfsConfig::default())
                .unwrap()
                .run(s)
                .unwrap();
            assert_eq!(run.levels, expect, "dataset {d}, order {order:?}");
        }
    }
}

#[test]
fn forced_strategies_agree_across_architectures() {
    let g = Dataset::Rmat23.generate(SHIFT, 9);
    let s = pick_sources(&g, 1, 1)[0];
    let expect = bfs_levels_frontier(&g, s);
    for arch in [ArchProfile::mi250x_gcd(), ArchProfile::p6000()] {
        for strat in [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp] {
            let cfg = XbfsConfig::forced(strat);
            let dev = Device::new(arch.clone(), ExecMode::Functional, cfg.required_streams());
            let run = Xbfs::new(&dev, &g, cfg).unwrap().run(s).unwrap();
            assert_eq!(run.levels, expect, "{} forced {strat}", arch.name);
        }
    }
}

#[test]
fn timing_and_functional_modes_agree() {
    let g = Dataset::LiveJournal.generate(SHIFT, 4);
    let s = pick_sources(&g, 1, 2)[0];
    let run_f = {
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Functional, 1);
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        xbfs.run(s).unwrap()
    };
    let run_t = {
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
        let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
        xbfs.run(s).unwrap()
    };
    assert_eq!(run_f.levels, run_t.levels);
    assert_eq!(run_f.strategy_trace(), run_t.strategy_trace());
    // Timing mode filters fetches through the L2, so it can only observe
    // less HBM traffic than the coalescer-only functional estimate.
    assert!(run_t.total_fetch_kb() <= run_f.total_fetch_kb() + 1.0);
}

/// Every engine the contract covers, each on its own device(s): `Xbfs`
/// adaptive and with each strategy forced, in both execution modes; the
/// 64-wide `MsBfs`, direction-optimizing and push only; the partitioned cluster on 1, 2 and 4 GCDs; the six
/// baselines.
fn every_engine(g: &Csr) -> Vec<(String, Box<dyn Engine + '_>)> {
    let mut engines: Vec<(String, Box<dyn Engine + '_>)> = Vec::new();
    for mode in [ExecMode::Functional, ExecMode::Timing] {
        let forced =
            [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp].map(XbfsConfig::forced);
        for cfg in std::iter::once(XbfsConfig::default()).chain(forced) {
            let dev = Device::new(ArchProfile::mi250x_gcd(), mode, cfg.required_streams());
            let name = format!("xbfs {mode:?} forced={:?}", cfg.forced);
            engines.push((name, Box::new(Xbfs::new(dev, g, cfg).unwrap())));
        }
    }
    let msbfs = MsBfs::new(Device::mi250x(), g).unwrap();
    engines.push(("msbfs".into(), Box::new(msbfs)));
    let push = MsBfs::with_config(Device::mi250x(), g, XbfsConfig::directed()).unwrap();
    engines.push(("msbfs-push".into(), Box::new(push)));
    for num_gcds in [1, 2, 4] {
        let cfg = ClusterConfig {
            num_gcds,
            ..ClusterConfig::node_of_8()
        };
        let cluster = GcdCluster::new(g, cfg, LinkModel::frontier()).unwrap();
        engines.push((format!("cluster x{num_gcds}"), Box::new(cluster)));
    }
    for algo in Algo::ALL {
        let baseline = Baseline::new(algo, Device::mi250x(), g);
        engines.push((algo.name().into(), Box::new(baseline)));
    }
    engines
}

fn undirected(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Csr {
    let mut b = CsrBuilder::new(n);
    b.extend_edges(edges);
    b.build(BuildOptions::default())
}

/// The differential harness in its smallest form: one loop over
/// `dyn Engine`. Every engine × input shape × request kind must answer
/// each slot with the serial reference's levels, report `certified`
/// exactly when asked to verify, abort a 1 µs budget with a typed
/// `Deadline` — and still be reference-equal on its very next run.
#[test]
fn every_engine_answers_every_request_like_the_reference() {
    let rmat = rmat_graph(RmatParams::graph500(10), 3);
    let er = erdos_renyi(600, 2_400, 5);
    let inputs: Vec<(&str, Vec<u32>, Csr)> = vec![
        ("rmat-s10", pick_sources(&rmat, 3, 7), rmat),
        ("erdos-renyi", pick_sources(&er, 3, 7), er),
        (
            "two triangles",
            vec![0, 2, 4],
            undirected(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        ),
        (
            "path",
            vec![0, 20, 39],
            undirected(40, (0..39).map(|v| (v, v + 1))),
        ),
        (
            "star",
            vec![0, 1, 49],
            undirected(50, (1..50).map(|v| (0, v))),
        ),
        // Vertices 0 and 7 touch no edge at all.
        (
            "isolated source",
            vec![0, 7, 2],
            undirected(8, [(1, 2), (2, 3), (3, 1)]),
        ),
    ];
    for (input, sources, g) in &inputs {
        let reference: Vec<Vec<u32>> = sources.iter().map(|&s| bfs_levels_serial(g, s)).collect();
        for (name, mut engine) in every_engine(g) {
            let width = engine.width();
            for (chunk, expect) in sources.chunks(width).zip(reference.chunks(width)) {
                let what = format!("{name} on {input}, sources {chunk:?}");
                let check = |engine: &mut dyn Engine, req: RunRequest<'_>| {
                    let out = engine.run(&req).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(out.certified, req.verify, "{what}");
                    assert_eq!(out.slots.len(), chunk.len(), "{what}");
                    for (slot, &source) in chunk.iter().enumerate() {
                        assert_eq!(out.slots[slot].source, source, "{what}");
                        assert_eq!(
                            levels_digest(source, &out.levels[slot]),
                            levels_digest(source, &expect[slot]),
                            "{what}: slot {slot} diverged from the serial reference"
                        );
                    }
                };
                let plain = RunRequest::plain(chunk);
                check(&mut *engine, plain);
                check(
                    &mut *engine,
                    RunRequest {
                        verify: true,
                        ..plain
                    },
                );
                check(
                    &mut *engine,
                    RunRequest {
                        deadline_ms: Some(1e9),
                        ..plain
                    },
                );
                // A budget is only checked between levels, so a run that
                // finishes on its first level is never a timeout.
                let tight = RunRequest {
                    deadline_ms: Some(1e-3),
                    ..plain
                };
                if expect.iter().flatten().any(|&l| l == 1) {
                    let err = engine.run(&tight).expect_err(&what);
                    assert!(matches!(err, EngineError::Deadline { .. }), "{what}: {err}");
                } else {
                    check(&mut *engine, tight);
                }
                check(&mut *engine, plain);
            }
        }
    }
}

/// Pulling through out-edges is exact only on symmetric adjacency: on a
/// directed graph (two arcs into vertex 1, then a path out of it) the
/// default-config batched engine must never pull, and must still find
/// every slot's serial levels. The same arcs made symmetric do pull.
#[test]
fn batched_engine_never_pulls_on_asymmetric_adjacency() {
    let arcs = [(0, 1), (2, 1), (1, 3), (3, 4)];
    let sources: Vec<u32> = (0..5).collect();
    for opts in [BuildOptions::raw(), BuildOptions::default()] {
        let mut b = CsrBuilder::new(5);
        b.extend_edges(arcs);
        let g = b.build(opts);
        let dev = Device::mi250x();
        let engine = MsBfs::new(&dev, &g).unwrap();
        let run = engine.run_batch(&sources);
        let pulled = !engine.pulled_levels().is_empty();
        assert_eq!(pulled, g.is_symmetric(), "symmetrize: {}", opts.symmetrize);
        for (slot, &s) in sources.iter().enumerate() {
            assert_eq!(run.levels[slot], bfs_levels_serial(&g, s), "source {s}");
        }
    }
}

/// The batched engine's direction rule is the solo one applied to the
/// union frontier it walks: the step out of level L pulls
/// ([`MsBfs::pulled_levels`]) exactly when the vertices some slot reached
/// at L have more than α · |E| edges, whatever the batch width.
#[test]
fn batched_engine_pulls_on_the_union_frontier_edges() {
    let g = rmat_graph(RmatParams::graph500(12), 0xB5);
    assert!(g.is_symmetric());
    let alpha = XbfsConfig::default().alpha;
    let edges = g.num_edges() as f64;
    for width in [1, 8, 64] {
        let sources = pick_sources(&g, width, 11);
        let engine = MsBfs::new(Device::mi250x(), &g).unwrap();
        let run = engine.run_batch(&sources);
        let pulled_levels = engine.pulled_levels();
        let mut pulls = Vec::new();
        for level in 0.. {
            let union = (0..g.num_vertices() as u32)
                .filter(|&v| run.levels.iter().any(|l| l[v as usize] == level));
            let frontier_edges: u64 = union.map(|v| u64::from(g.degree(v))).sum();
            if frontier_edges == 0 {
                break;
            }
            let pulled = pulled_levels.contains(&level);
            let expected = frontier_edges as f64 / edges > alpha;
            assert_eq!(
                pulled, expected,
                "width {width}, level {level}: {frontier_edges}"
            );
            pulls.push(pulled);
        }
        if width == 64 {
            assert!(pulls[1], "a 64-wide batch pulls out of level 1");
        }
    }
}
