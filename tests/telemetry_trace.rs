//! End-to-end telemetry: traced single-GCD and cluster runs produce
//! well-formed span trees that cover every BFS level, and instrumentation
//! never changes the modeled results — a traced run, an untraced run and a
//! run with a disabled recorder are bit-identical.

use gcd_sim::Device;
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_multi_gcd::{ClusterConfig, FaultConfig, FaultPlan, GcdCluster, LinkModel};
use xbfs_telemetry::{names, AttrValue, Recorder};

fn small_rmat() -> xbfs_graph::Csr {
    rmat_graph(RmatParams::graph500(12), 7)
}

#[test]
fn traced_single_gcd_run_covers_every_level_and_matches_untraced() {
    let g = small_rmat();
    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();

    let plain = xbfs.run(0).unwrap();

    let dev2 = Device::mi250x();
    let xbfs2 = Xbfs::new(&dev2, &g, XbfsConfig::default()).unwrap();
    let rec = Recorder::new();
    let (traced, _) = xbfs2.run_with(0, &rec, None, None, false).unwrap();

    // Instrumentation must not perturb the modeled run.
    assert_eq!(plain.levels, traced.levels);
    assert_eq!(plain.traversed_edges, traced.traversed_edges);
    assert!((plain.total_ms - traced.total_ms).abs() < 1e-12);
    assert!((plain.gteps - traced.gteps).abs() < 1e-12);

    let trace = rec.finish();
    trace.well_formed().expect("trace must be well-formed");

    // Exactly one run root, one level span per BFS level, nested kernels.
    let roots: Vec<_> = trace.roots().collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].name, names::span::RUN);
    match roots[0].attr("depth") {
        Some(AttrValue::U64(d)) => assert_eq!(*d as usize, traced.depth()),
        other => panic!("run span missing depth attr: {other:?}"),
    }
    assert!(roots[0].attr("gteps").is_some());

    let levels: Vec<_> = trace.spans_named(names::span::LEVEL).collect();
    assert_eq!(levels.len(), traced.depth());
    for (i, lvl) in levels.iter().enumerate() {
        assert_eq!(lvl.parent, roots[0].id, "level {i} must nest under run");
        assert_eq!(
            lvl.attr("strategy").map(ToString::to_string),
            Some(traced.level_stats[i].strategy.to_string()),
            "level {i} strategy attr"
        );
    }
    assert!(
        trace.spans_named(names::span::KERNEL).count() > 0,
        "per-dispatch kernel spans expected"
    );
    assert_eq!(
        trace.events_named(names::event::STRATEGY_CHOICE).count(),
        traced.depth()
    );
}

#[test]
fn disabled_recorder_records_nothing_and_changes_nothing() {
    let g = small_rmat();
    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
    let plain = xbfs.run(3).unwrap();

    let dev2 = Device::mi250x();
    let xbfs2 = Xbfs::new(&dev2, &g, XbfsConfig::default()).unwrap();
    let off = Recorder::disabled();
    let (run, _) = xbfs2.run_with(3, &off, None, None, false).unwrap();

    assert_eq!(plain.levels, run.levels);
    assert!((plain.total_ms - run.total_ms).abs() < 1e-12);
    let trace = off.finish();
    assert_eq!(trace.spans.len(), 0);
    assert_eq!(trace.events.len(), 0);
    assert_eq!(trace.counters.len(), 0);
}

#[test]
fn traced_faulted_cluster_run_records_recovery_and_matches_untraced() {
    let g = small_rmat();
    let cfg = ClusterConfig {
        num_gcds: 4,
        alpha: 0.1,
        push_only: false,
    };
    let faults = FaultConfig {
        plan: FaultPlan::parse("crash@1:rank1").unwrap(),
        checkpoint_every: 1,
        ..FaultConfig::default()
    };

    let mut plain_cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
    let plain = plain_cluster
        .run_with(0, &faults, &Recorder::disabled(), None)
        .unwrap();

    let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
    let rec = Recorder::new();
    let run = cluster.run_with(0, &faults, &rec, None).unwrap();

    assert_eq!(plain.levels, run.levels);
    assert!((plain.total_ms - run.total_ms).abs() < 1e-12);

    let trace = rec.finish();
    trace
        .well_formed()
        .expect("cluster trace must be well-formed");

    // One level span per executed level-attempt (recovery re-executes some).
    assert_eq!(
        trace.spans_named(names::span::LEVEL).count(),
        run.level_stats.len()
    );
    assert_eq!(
        trace.spans_named(names::span::RECOVERY).count(),
        run.recoveries.len()
    );
    assert!(
        !run.recoveries.is_empty(),
        "crash plan must trigger recovery"
    );
    assert!(trace.spans_named(names::span::CHECKPOINT).count() > 0);
    assert!(trace.spans_named(names::span::COLLECTIVE).count() > 0);
    assert_eq!(trace.events_named(names::event::FAULT_CRASH).count(), 1);
    assert_eq!(
        trace.events_named(names::event::RECOVERY_RESTORE).count(),
        1
    );

    // Root carries the cluster summary.
    let root = trace.roots().next().expect("run root span");
    assert_eq!(root.name, names::span::RUN);
    match root.attr("recoveries") {
        Some(AttrValue::U64(n)) => assert_eq!(*n as usize, run.recoveries.len()),
        other => panic!("run span missing recoveries attr: {other:?}"),
    }
}
