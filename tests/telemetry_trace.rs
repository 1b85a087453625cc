//! End-to-end telemetry: a trace is a rendering of the run record. The
//! engines record nothing while they run; `Xbfs::trace_of` and
//! `GcdCluster::trace_of` turn a finished record into a well-formed span
//! tree that covers every BFS level, deterministically, and the bytes the
//! sinks render from it are pinned against the build that still narrated
//! runs live into a `Recorder`.

use gcd_sim::{fnv1a, ArchProfile, Device, ExecMode};
use xbfs_core::{Strategy, Xbfs, XbfsConfig};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_multi_gcd::{
    ClusterConfig, FaultConfig, FaultPlan, GcdCluster, LinkModel, RecoveryPolicy,
};
use xbfs_telemetry::{names, AttrValue, Trace, TraceFormat};

fn small_rmat() -> xbfs_graph::Csr {
    rmat_graph(RmatParams::graph500(12), 7)
}

const FOUR_RANKS: ClusterConfig = ClusterConfig {
    num_gcds: 4,
    alpha: 0.1,
    push_only: false,
};

/// `spec` as a fault schedule checkpointing every level (fault-free and
/// no checkpoints when empty).
fn faults(spec: &str) -> FaultConfig {
    if spec.is_empty() {
        return FaultConfig::none();
    }
    FaultConfig {
        plan: FaultPlan::parse(spec).unwrap(),
        checkpoint_every: 1,
        ..FaultConfig::default()
    }
}

#[test]
fn traced_single_gcd_run_covers_every_level_and_matches_untraced() {
    let g = small_rmat();
    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();

    let plain = xbfs.run(0).unwrap();

    let dev2 = Device::mi250x();
    let xbfs2 = Xbfs::new(&dev2, &g, XbfsConfig::default()).unwrap();
    let (traced, ..) = xbfs2.run_with(0, None, None, false).unwrap();
    let trace = xbfs2.trace_of(&traced);

    // The run a trace is rendered from is the run everyone else gets.
    assert_eq!(plain.levels, traced.levels);
    assert_eq!(plain.traversed_edges, traced.traversed_edges);
    assert!((plain.total_ms - traced.total_ms).abs() < 1e-12);
    assert!((plain.gteps - traced.gteps).abs() < 1e-12);

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
fn traced_faulted_cluster_run_records_recovery_and_matches_untraced() {
    let g = small_rmat();
    let faults = faults("crash@1:rank1");

    let mut plain_cluster = GcdCluster::new(&g, FOUR_RANKS, LinkModel::frontier()).unwrap();
    let plain = plain_cluster.run_with(0, &faults, None).unwrap();

    let mut cluster = GcdCluster::new(&g, FOUR_RANKS, LinkModel::frontier()).unwrap();
    let run = cluster.run_with(0, &faults, None).unwrap();
    let trace = cluster.trace_of(&run);

    assert_eq!(plain.levels, run.levels);
    assert!((plain.total_ms - run.total_ms).abs() < 1e-12);

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

/// FNV-1a digests of the `json:` and `chrome:` renderings.
fn rendered(trace: &Trace) -> [u64; 2] {
    [TraceFormat::Json, TraceFormat::Chrome]
        .map(|fmt| fnv1a(fmt.render(trace).bytes().map(u64::from)))
}

#[test]
fn trace_bytes_match_golden() {
    // Captured at the parent of the change that introduced `trace_of`,
    // where the engines wrote these spans into a live `Recorder` as they
    // ran. Span ids, attribute order, events and counter series are all in
    // the bytes: a digest that moves means `trace_of` replays differently.
    // Do not re-record to make it pass.
    let g = small_rmat();

    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
    let adaptive = xbfs.trace_of(&xbfs.run(0).unwrap());
    assert_eq!(
        rendered(&adaptive),
        [0x99375b2524e154db, 0xab14a53b1a329d94],
        "adaptive, functional"
    );

    let cfg = XbfsConfig::forced(Strategy::BottomUp);
    let dev = Device::new(
        ArchProfile::mi250x_gcd(),
        ExecMode::Timing,
        cfg.required_streams(),
    );
    let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
    let bottom_up = xbfs.trace_of(&xbfs.run(0).unwrap());
    assert_eq!(
        rendered(&bottom_up),
        [0xcc2241c7f5510b86, 0xeca60eb2f3726d25],
        "forced bottom-up, timing"
    );

    for (spec, golden) in [
        ("", [0xc22426ae4e0ba45a, 0x8d4297961283b7f1]),
        (
            "crash@1:rank1,drop@0:0-1x2",
            [0xad1d24f417712365, 0xb38653a74c82b14a],
        ),
    ] {
        let mut cluster = GcdCluster::new(&g, FOUR_RANKS, LinkModel::frontier()).unwrap();
        let run = cluster.run_with(0, &faults(spec), None).unwrap();
        assert_eq!(
            rendered(&cluster.trace_of(&run)),
            golden,
            "4 ranks, {spec:?}"
        );
    }
}

#[test]
fn trace_of_is_a_pure_function_of_the_record() {
    let g = small_rmat();
    let count = |t: &Trace, name: &str| t.spans_named(name).count();

    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
    let run = xbfs.run(0).unwrap();
    let trace = xbfs.trace_of(&run);
    trace.well_formed().expect("well-formed");
    assert_eq!(count(&trace, names::span::LEVEL), run.level_stats.len());
    // The engine has moved on to another run; the record has not.
    xbfs.run(5).unwrap();
    assert_eq!(xbfs.trace_of(&run), trace);

    // A crash late enough that levels are re-executed: the recovery has
    // to land between the right two level rows.
    let late_crash = FaultConfig {
        checkpoint_every: 3,
        ..faults("crash@2:rank1,drop@0:0-1x2")
    };
    let mut cluster = GcdCluster::new(&g, FOUR_RANKS, LinkModel::frontier()).unwrap();
    let run = cluster.run_with(0, &late_crash, None).unwrap();
    let trace = cluster.trace_of(&run);
    trace.well_formed().expect("well-formed");
    let rows = &run.level_stats;
    assert!(rows.iter().any(|l| l.attempt > 0), "levels re-executed");
    assert_eq!(count(&trace, names::span::LEVEL), rows.len());
    assert_eq!(count(&trace, names::span::COLLECTIVE), 2 * rows.len());
    assert_eq!(
        count(&trace, names::span::CHECKPOINT),
        rows.iter().filter(|l| l.checkpointed()).count()
    );
    assert_eq!(count(&trace, names::span::RECOVERY), run.recoveries.len());
    let recovery = trace.spans_named(names::span::RECOVERY).next().unwrap();
    let resumed = &rows[run.recoveries[0].before_row];
    assert_eq!((resumed.level, resumed.attempt), (0, 1));
    assert_eq!(recovery.end_us, Some(resumed.start_us));
    cluster.run(5).unwrap();
    assert_eq!(cluster.trace_of(&run), trace);
}

/// FNV-1a digests of a cluster run's `json:` trace and the rank health
/// it left behind.
fn cluster_digests(cfg: ClusterConfig, faults: &FaultConfig) -> [u64; 2] {
    let g = small_rmat();
    let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier()).unwrap();
    let run = cluster.run_with(0, faults, None).unwrap();
    let trace = TraceFormat::Json.render(&cluster.trace_of(&run));
    let health = format!("{:?}", cluster.take_health());
    [trace, health].map(|s| fnv1a(s.bytes().map(u64::from)))
}

#[test]
fn cluster_record_trace_and_health_match_golden() {
    // Recorded at the parent of the change that split a rank's local step
    // from the exchange (`rank.rs`), on the cluster paths the pins above
    // leave open. Do not re-record to make it pass.
    let with = |num_gcds, push_only| ClusterConfig {
        num_gcds,
        push_only,
        ..FOUR_RANKS
    };
    let degrade = FaultConfig {
        recovery: RecoveryPolicy::Degrade,
        ..faults("crash@2:rank1")
    };
    // Levels 2 and 3 of this run pull, so the drop hits the allgather.
    let pull_drop = faults("drop@2:0-1x2");
    let cases = [
        ("push only", with(4, true), FaultConfig::none()),
        ("degrade crash", FOUR_RANKS, degrade),
        ("pull drop", FOUR_RANKS, pull_drop),
        ("bandwidth window", FOUR_RANKS, faults("degrade@1-3:0.5")),
        ("2 ranks", with(2, false), FaultConfig::none()),
        ("8 ranks", with(8, false), FaultConfig::none()),
    ];
    let golden = [
        [0x4a345acd14fb0ec3, 0xdbad961f540065a9],
        [0xd5504ab1de4db2ea, 0x2016c66c986dbcdf],
        [0x2923d84339992f19, 0x984cc15a50caecf9],
        [0xc406fcf74fd12458, 0xdbad961f540065a9],
        [0x64a0cbb1c37c314e, 0xd7db42bb6e776b65],
        [0x987e58403edeb6cf, 0x6f6a53e967787571],
    ];
    for ((name, cfg, faults), golden) in cases.into_iter().zip(golden) {
        assert_eq!(cluster_digests(cfg, &faults), golden, "{name}");
    }
}
