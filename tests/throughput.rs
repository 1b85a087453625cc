//! Throughput-engine guarantees: pooled, epoch-reset run state must be
//! bit-identical to freshly allocated state; every modeled counter must
//! match the digests recorded before the simulator's host path was
//! rewritten; and the steady state must not grow host scratch.

use gcd_sim::{fnv1a, ArchProfile, Device, ExecMode, GroupCfg, KernelReport};
use xbfs_core::strategy::topdown::expand_block;
use xbfs_core::strategy::{TopDownOpts, GROUP_WAVES};
use xbfs_core::{
    BfsRun, BfsState, BinThresholds, DeviceGraph, MsBfs, Strategy, Xbfs, XbfsConfig, UNVISITED,
};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{BuildOptions, CsrBuilder, Dataset};
use xbfs_multi_gcd::{ClusterConfig, GcdCluster, LinkModel};

const SHIFT: u32 = 11;

/// Everything a run reports, with float fields pinned bit-for-bit.
fn fingerprint(run: &BfsRun) -> impl PartialEq + std::fmt::Debug {
    (
        run.levels.clone(),
        run.parents.clone(),
        run.total_ms.to_bits(),
        run.traversed_edges,
        run.level_stats
            .iter()
            .map(|l| {
                (
                    l.strategy.to_string(),
                    l.frontier_count,
                    l.time_ms.to_bits(),
                    l.kernels
                        .iter()
                        .map(|k| (k.name.clone(), k.runtime_ms.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn timing_device(cfg: &XbfsConfig) -> Device {
    Device::new(
        ArchProfile::mi250x_gcd(),
        ExecMode::Timing,
        cfg.required_streams(),
    )
}

/// 64 random sources through one pooled engine vs a fresh device + engine
/// per source: levels, parents, modeled time and per-kernel stats must all
/// agree bit for bit (the O(frontier) epoch reset is unobservable).
#[test]
fn pooled_epoch_runs_match_fresh_state_runs() {
    let g = Dataset::Rmat23.generate(SHIFT, 3);
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let dev = timing_device(&cfg);
    let pooled = Xbfs::new(&dev, &g, cfg).unwrap();
    for &s in &pick_sources(&g, 64, 17) {
        let recycled = pooled.run(s).unwrap();
        let fresh_dev = timing_device(&cfg);
        let fresh = Xbfs::new(&fresh_dev, &g, cfg).unwrap();
        let reference = fresh.run(s).unwrap();
        assert_eq!(
            fingerprint(&recycled),
            fingerprint(&reference),
            "source {s}"
        );
    }
}

/// FNV-1a over the modeled side of a run: every kernel report's name, all
/// nine raw counters and the three derived floats bit for bit, then `tail`
/// (result digests, modeled totals).
fn counters_digest<'a>(
    reports: impl IntoIterator<Item = &'a KernelReport>,
    tail: impl IntoIterator<Item = u64>,
) -> u64 {
    let mut words = Vec::new();
    for k in reports {
        let s = &k.stats;
        words.extend(k.name.bytes().map(u64::from));
        words.extend([
            s.instructions,
            s.accesses,
            s.l1_hits,
            s.l2_accesses,
            s.l2_hits,
            s.hbm_lines,
            s.atomics,
            s.atomic_conflicts,
            s.bytes_written,
            k.runtime_ms.to_bits(),
            k.fetch_kb.to_bits(),
            k.l2_hit_pct.to_bits(),
        ]);
    }
    words.extend(tail);
    fnv1a(words)
}

/// One digest per cell of the fidelity matrix, on R-MAT scale 12 (the
/// benchmark's generator seed) from 4 fixed sources.
fn golden_cells() -> Vec<(String, u64)> {
    const SEED: u64 = 0xB5;
    let g = rmat_graph(RmatParams::graph500(12), SEED);
    let sources = pick_sources(&g, 4, SEED);
    let mut cells = Vec::new();
    let modes = [ExecMode::Functional, ExecMode::Timing];

    for mode in modes {
        let strategies = [
            None,
            Some(Strategy::ScanFree),
            Some(Strategy::SingleScan),
            Some(Strategy::BottomUp),
        ];
        for forced in strategies {
            let cfg = XbfsConfig {
                forced,
                ..XbfsConfig::default()
            };
            let dev = Device::new(ArchProfile::mi250x_gcd(), mode, cfg.required_streams());
            let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
            let per_source: Vec<u64> = sources
                .iter()
                .map(|&s| {
                    let run = xbfs.run(s).unwrap();
                    counters_digest(
                        run.level_stats.iter().flat_map(|l| &l.kernels),
                        [run.total_ms.to_bits(), run.result_digest()],
                    )
                })
                .collect();
            cells.push((format!("xbfs/{mode:?}/{forced:?}"), fnv1a(per_source)));
        }
    }

    // Push only (`α = ∞`), then direction-optimizing: the push cells are
    // the recorded ones, the adaptive cells were added beside them.
    let batch = pick_sources(&g, 64, SEED);
    for (name, cfg) in [
        ("msbfs-64", XbfsConfig::directed()),
        ("msbfs-64-adaptive", XbfsConfig::default()),
    ] {
        for mode in modes {
            let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
            let run = MsBfs::with_config(&dev, &g, cfg).unwrap().run_batch(&batch);
            let tail: Vec<u64> = (0..run.width())
                .map(|slot| run.result_digest(slot))
                .chain([run.total_ms.to_bits()])
                .collect();
            let digest = counters_digest(&dev.take_reports(), tail);
            cells.push((format!("{name}/{mode:?}"), digest));
        }
    }

    // The cluster keeps its rank devices private: its per-level modeled
    // times are what the kernel counters feed.
    let ccfg = ClusterConfig {
        num_gcds: 4,
        ..ClusterConfig::node_of_8()
    };
    let run = GcdCluster::new(&g, ccfg, LinkModel::frontier())
        .unwrap()
        .run(sources[0])
        .unwrap();
    let tail: Vec<u64> = run
        .level_stats
        .iter()
        .flat_map(|l| {
            [
                l.frontier_count,
                l.exchanged_bytes,
                l.expand_ms.to_bits(),
                l.time_ms.to_bits(),
            ]
        })
        .chain([run.total_ms.to_bits(), run.result_digest()])
        .collect();
    cells.push(("cluster-4".into(), counters_digest([], tail)));

    // One workgroup launch: a 9000-leaf hub through `expand_block`, with
    // more claims than the LDS stage holds (the overflow commits too).
    let n = 9001usize;
    let mut b = CsrBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(0, v);
        b.add_edge(v, 1 + (v * 7) % (n as u32 - 1));
    }
    let hub = b.build(BuildOptions::default());
    for mode in modes {
        let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
        let dg = DeviceGraph::upload(&dev, &hub);
        let st = BfsState::new(&dev, n, true, 64);
        st.status.host_fill(UNVISITED);
        st.status.store(0, 0);
        st.queues[0].store(0, 0);
        let opts = TopDownOpts {
            level: 0,
            atomic_claim: true,
            enqueue: true,
            filter: true,
            balancing: true,
            thresholds: BinThresholds::for_width(64),
        };
        let report = dev.launch_groups(
            0,
            GroupCfg::new("fq_expand_block", 1).with_waves(GROUP_WAVES),
            |grp| expand_block(grp, &dg, &st, &st.queues[0], 1, &opts),
        );
        let status = st.status.to_host().into_iter().map(u64::from);
        let digest = counters_digest([&report], status);
        cells.push((format!("expand_block/{mode:?}"), digest));
    }
    cells
}

/// Digests captured on the commit before the capture/replay fork was
/// deleted (PR 15) and carried over unchanged: every modeled counter and
/// every modeled time is what it was. The two `msbfs-64-adaptive` cells
/// were recorded when `MsBfs` gained its pull step and again when its pull
/// rule moved to the union frontier's edges.
const GOLDEN: [(&str, u64); 15] = [
    ("xbfs/Functional/None", 0xc6b8_a16e_42f1_1f10),
    ("xbfs/Functional/Some(ScanFree)", 0x3a54_80ae_9c13_266b),
    ("xbfs/Functional/Some(SingleScan)", 0x6630_b161_996d_96d5),
    ("xbfs/Functional/Some(BottomUp)", 0xfba1_12bd_034b_2d90),
    ("xbfs/Timing/None", 0x92ea_0490_5be7_095b),
    ("xbfs/Timing/Some(ScanFree)", 0x04f5_0f42_4635_d77a),
    ("xbfs/Timing/Some(SingleScan)", 0x19ff_230d_6ba6_a5c0),
    ("xbfs/Timing/Some(BottomUp)", 0x5603_21ac_c125_4168),
    ("msbfs-64/Functional", 0x53f8_e7cb_ba58_2a43),
    ("msbfs-64/Timing", 0x8f2c_4c5a_f55a_f56b),
    ("msbfs-64-adaptive/Functional", 0xf046_f367_591b_e9ba),
    ("msbfs-64-adaptive/Timing", 0xad7a_0882_3a9a_8137),
    ("cluster-4", 0x28d0_c917_f16f_1139),
    ("expand_block/Functional", 0x8997_f176_a2c1_fa4c),
    ("expand_block/Timing", 0x15ba_c905_cf4d_fa45),
];

/// The simulator's host code may get faster; its modeled numbers may not
/// move. Every cell of the matrix must reproduce the digest recorded
/// before `gcd-sim` was reduced to one memory-trace path.
#[test]
fn timing_counters_match_golden() {
    let cells = golden_cells();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert!(
        cells == expected,
        "modeled counters moved; actual cells:\n{}",
        cells
            .iter()
            .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
            .collect::<String>()
    );
}

/// Steady-state behavior: a same-source rerun is deterministic, a second
/// pass over the same sources grows no kernel working vector, and dropping
/// the engine parks its buffers in the device pool so the next engine
/// rebuilds entirely from pool hits with results still bit-identical.
#[test]
fn steady_state_reuses_scratch_and_pooled_buffers() {
    let g = Dataset::LiveJournal.generate(SHIFT, 7);
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let dev = Device::mi250x();
    let s = pick_sources(&g, 1, 2)[0];
    let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
    let first = xbfs.run(s).unwrap();
    let second = xbfs.run(s).unwrap();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "same-source reruns are deterministic"
    );
    let sources = pick_sources(&g, 4, 2);
    let pass = || sources.iter().for_each(|&s| drop(xbfs.run(s).unwrap()));
    pass();
    let warmed = xbfs.kernel_scratch_capacity();
    assert!(warmed > 0, "the kernels work in the engine's scratch");
    pass();
    assert_eq!(
        xbfs.kernel_scratch_capacity(),
        warmed,
        "a repeat pass must not grow the kernels' working vectors"
    );

    let (hits_before, misses_before) = dev.pool_stats();
    drop(xbfs);
    let warm = Xbfs::new(&dev, &g, cfg).unwrap();
    let (hits_after, misses_after) = dev.pool_stats();
    assert_eq!(
        misses_after, misses_before,
        "rebuilding on a warm pool must not allocate"
    );
    assert!(hits_after > hits_before, "rebuild must draw from the pool");
    let third = warm.run(s).unwrap();
    assert_eq!(
        fingerprint(&first),
        fingerprint(&third),
        "pool-recycled state is bit-identical"
    );
}
