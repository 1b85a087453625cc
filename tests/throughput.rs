//! Throughput-engine guarantees: pooled, epoch-reset run state must be
//! bit-identical to freshly allocated state; every modeled counter must
//! match the digests recorded before the simulator's host path was
//! rewritten; and the steady state must not grow host scratch.

use std::collections::BTreeSet;

use gcd_sim::{fnv1a, ArchProfile, Device, ExecMode, GroupCfg, KernelReport};
use xbfs_core::strategy::topdown::expand_block;
use xbfs_core::strategy::{TopDownOpts, GROUP_WAVES};
use xbfs_core::{
    BfsRun, BfsState, BinThresholds, DeviceGraph, MsBfs, MsBfsRun, Strategy, Xbfs, XbfsConfig,
    UNVISITED,
};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{BuildOptions, Csr, CsrBuilder, Dataset};
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
        let st = BfsState::new(&dev, n, true);
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
/// rule moved to the union frontier's edges. All four `msbfs-64*` cells
/// were recorded again when its level loop went sync-light: one step
/// kernel per level choosing its direction on the device, counters zeroed
/// by the step instead of a fill, counts read back one level late (one
/// trailing empty level) and one sync per batch; and again when it came
/// to read back once per two levels (both parity words after every even
/// fold, so a batch whose first empty level is even runs one more empty
/// pair). No kernel's counters moved with that change: only the
/// readbacks' modeled time and that extra pair. They were recorded once
/// more when its epoch stamp went: two gathers per edge instead of three,
/// and the step of an empty level zeroing `seen`.
const GOLDEN: [(&str, u64); 15] = [
    ("xbfs/Functional/None", 0xc6b8_a16e_42f1_1f10),
    ("xbfs/Functional/Some(ScanFree)", 0x3a54_80ae_9c13_266b),
    ("xbfs/Functional/Some(SingleScan)", 0x6630_b161_996d_96d5),
    ("xbfs/Functional/Some(BottomUp)", 0xfba1_12bd_034b_2d90),
    ("xbfs/Timing/None", 0x92ea_0490_5be7_095b),
    ("xbfs/Timing/Some(ScanFree)", 0x04f5_0f42_4635_d77a),
    ("xbfs/Timing/Some(SingleScan)", 0x19ff_230d_6ba6_a5c0),
    ("xbfs/Timing/Some(BottomUp)", 0x5603_21ac_c125_4168),
    ("msbfs-64/Functional", 0x4651_2319_aa22_f8ae),
    ("msbfs-64/Timing", 0xf1c9_2a02_6b5e_0a7d),
    ("msbfs-64-adaptive/Functional", 0xf450_fe88_1af4_3e6a),
    ("msbfs-64-adaptive/Timing", 0x68ea_c779_8de2_9c36),
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

/// The batched level loop pays the per-level floor once per batch and
/// reads back once per two levels. After the fold of every even level one
/// copy carries both parity words (the count, and the edge word on an
/// engine that may pull), and the host reads it one level late. So a
/// batch of depth d, whose first empty level is d + 1, launches d + 2
/// step/fold pairs when d + 1 is odd and d + 3 when it is even, and no
/// fill. Every empty step loads the scalar count (and edge) words and
/// zeroes `seen`, 8·|V| bytes, so the next batch starts clean; every empty
/// fold loads only the count word. Its modeled time is its kernels, the
/// seed upload, one readback per two pairs and a single sync.
#[test]
fn batched_level_loop_reads_back_every_other_level_and_syncs_once() {
    let g = rmat_graph(RmatParams::graph500(12), 0xB5);
    let n = g.num_vertices() as u64;
    let waves = n.div_ceil(ArchProfile::mi250x_gcd().wavefront_size as u64);
    let depth = |s: &u32| {
        let levels = xbfs_graph::bfs_levels_serial(&g, *s);
        levels
            .into_iter()
            .filter(|&l| l != UNVISITED)
            .max()
            .unwrap()
    };
    // Two batches: every source's depth even (first empty level odd) or
    // every one odd (first empty level even).
    let candidates = pick_sources(&g, 64, 11);
    let batches: Vec<Vec<u32>> = [0, 1]
        .map(|parity| {
            (candidates.iter().copied())
                .filter(|s| depth(s) % 2 == parity)
                .collect()
        })
        .into();
    // The words one empty step loads and writes, and one readback's bytes:
    // count and edge word (24 bytes for two levels) or the count alone.
    for (cfg, words, written, bytes) in [
        (XbfsConfig::default(), 2, 12, 24),
        (XbfsConfig::directed(), 1, 4, 8),
    ] {
        for sources in &batches {
            let d = sources.iter().map(depth).max().unwrap() as usize;
            let empty = d + 1;
            let pairs = if empty % 2 == 1 { empty + 1 } else { empty + 2 };
            let dev = Device::mi250x();
            let engine = MsBfs::with_config(&dev, &g, cfg).unwrap();
            let run = engine.run_batch(sources);
            let (reports, pulled) = (dev.take_reports(), engine.pulled_levels());
            assert_eq!(
                pulled.is_empty(),
                words == 1,
                "depth {d}: only the default pulls"
            );
            let names: Vec<&str> = reports.iter().map(|k| k.name.as_str()).collect();
            assert_eq!(
                names,
                ["msbfs_step", "msbfs_fold"].repeat(pairs),
                "depth {d}, {words} words"
            );
            // Each trailing pair: every step wave loads its scalar words and
            // zeroes `seen` over its vertices; wave 0 of the step zeroes the
            // other parity's words. The fold's waves load only the count.
            for pair in reports[2 * empty..].chunks(2) {
                let (step, fold) = (&pair[0].stats, &pair[1].stats);
                assert_eq!(
                    (step.accesses, step.bytes_written),
                    (words * (waves + 1) + n, written + 8 * n)
                );
                assert_eq!((fold.accesses, fold.bytes_written), (waves, 0));
            }
            one_sync(&run, &reports, seeds(sources), pairs, bytes);
            finishes_in_its_last_level(&g, cfg, sources, bytes);
        }
    }
    // A batch whose last level pulls: the host reads that level's words
    // live after the early sync, and still records the pull.
    let mut b = CsrBuilder::new(65);
    b.extend_edges((1..65).map(|v| (0, v)));
    let star = b.build(BuildOptions::default());
    let (depth, pulled) = finishes_in_its_last_level(&star, XbfsConfig::default(), &[1], 24);
    assert_eq!((depth, pulled), (2, vec![1, 2]));

    // A batch done at level 0 past its deadline is answered, not a
    // timeout, after one pair, its one readback and still a single sync.
    let isolated = (0..g.num_vertices() as u32).find(|&v| g.degree(v) == 0);
    let dev = Device::mi250x();
    let (run, ..) = MsBfs::new(&dev, &g)
        .unwrap()
        .run_with(
            &[isolated.expect("R-MAT isolates vertices")],
            Some(1e-3),
            false,
        )
        .expect("a batch that completes on its last level is never a timeout");
    one_sync(&run, &dev.take_reports(), 1, 1, 24);
}

/// Distinct sources in a batch: the seeds it uploads.
fn seeds(sources: &[u32]) -> u64 {
    sources.iter().collect::<BTreeSet<_>>().len() as u64
}

/// A budget that runs out during the last level d of a batch: the host
/// syncs early, reads the words it had not read yet, and answers after
/// d + 1 pairs with the levels and pulled levels of an unbounded run.
/// Returns d and those pulled levels.
fn finishes_in_its_last_level(
    g: &Csr,
    cfg: XbfsConfig,
    sources: &[u32],
    bytes: u64,
) -> (usize, Vec<u32>) {
    let dev = Device::mi250x();
    let engine = MsBfs::with_config(&dev, g, cfg).unwrap();
    let full = engine.run_batch(sources);
    let (reports, pulled) = (dev.take_reports(), engine.pulled_levels());
    let d = *full
        .levels
        .iter()
        .flatten()
        .filter(|&&l| l != UNVISITED)
        .max()
        .unwrap() as usize;
    let arch = ArchProfile::mi250x_gcd();
    let transfer = |b: u64| arch.h2d_latency_us + b as f64 / (arch.h2d_bw_gbps * 1e3);
    let checked_at = |level: usize| {
        let kernels: f64 = (reports[..2 * level + 2].iter())
            .map(|k| k.runtime_ms * 1e3)
            .sum();
        let seed_upload = transfer(12 * (seeds(sources) + 1));
        seed_upload + kernels + (level / 2 + 1) as f64 * transfer(bytes)
    };
    let budget_us = (checked_at(d - 1) + checked_at(d)) / 2.0;
    let (early, ..) = engine
        .run_with(sources, Some(budget_us * 1e-3), false)
        .expect("a batch that completes on its last level is never a timeout");
    one_sync(&early, &dev.take_reports(), seeds(sources), d + 1, bytes);
    assert_eq!(early.levels, full.levels);
    assert_eq!(engine.pulled_levels(), pulled, "depth {d}");
    (d, pulled)
}

/// `run`'s modeled time is its kernels, the upload of `seeds` seeds, one
/// `bytes` readback per two step/fold pairs (rounded up) and one sync.
fn one_sync(run: &MsBfsRun, reports: &[KernelReport], seeds: u64, pairs: usize, bytes: u64) {
    let arch = ArchProfile::mi250x_gcd();
    let transfer = |bytes: u64| arch.h2d_latency_us + bytes as f64 / (arch.h2d_bw_gbps * 1e3);
    assert_eq!(reports.len(), 2 * pairs);
    let kernels_us: f64 = reports.iter().map(|k| k.runtime_ms * 1e3).sum();
    let readbacks = pairs.div_ceil(2) as f64;
    let expect_us =
        kernels_us + transfer(12 * (seeds + 1)) + readbacks * transfer(bytes) + arch.sync_us;
    let total_us = run.total_ms * 1e3;
    assert!(
        (total_us - expect_us).abs() < 1e-9 * expect_us,
        "{pairs} pairs: {total_us} µs modeled, {expect_us} µs expected"
    );
}

/// A reused batched engine keeps nothing between batches: batches whose
/// depths alternate in parity, with a deadline abort between them, each
/// report the levels, kernel counters and modeled time of a fresh engine —
/// in timing mode too, where buffer addresses reach the shared L2.
#[test]
fn reused_batched_engine_matches_fresh_across_depth_parities() {
    let g = rmat_graph(RmatParams::graph500(10), 6);
    let depth = |s: u32| {
        let levels = xbfs_graph::bfs_levels_serial(&g, s);
        levels
            .into_iter()
            .filter(|&l| l != UNVISITED)
            .max()
            .unwrap()
    };
    let candidates = pick_sources(&g, 64, 3);
    let odd = *candidates.iter().find(|&&s| depth(s) % 2 == 1).unwrap();
    let even = *candidates.iter().find(|&&s| depth(s) % 2 == 0).unwrap();
    let observe = |engine: &MsBfs<&Device>, sources: &[u32]| {
        let run = engine.run_batch(sources);
        let kernels: Vec<_> = (engine.device().take_reports().into_iter())
            .map(|k| (k.name, k.stats, k.runtime_ms.to_bits()))
            .collect();
        (
            run.levels,
            kernels,
            run.total_ms.to_bits(),
            engine.pulled_levels(),
        )
    };
    for mode in [ExecMode::Functional, ExecMode::Timing] {
        let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
        let reused = MsBfs::new(&dev, &g).unwrap();
        for (i, source) in [odd, even, odd, even, even, odd].into_iter().enumerate() {
            if i == 3 {
                let err = reused.run_with(&[odd], Some(1e-3), false).unwrap_err();
                assert!(matches!(err, xbfs_core::XbfsError::DeadlineExceeded { .. }));
                dev.take_reports();
            }
            let fresh_dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
            let fresh = MsBfs::new(&fresh_dev, &g).unwrap();
            let (warm, cold) = (observe(&reused, &[source]), observe(&fresh, &[source]));
            assert!(
                warm == cold,
                "{mode:?} batch {i} (source {source}) diverged"
            );
            assert!(!warm.3.is_empty(), "{mode:?}: one source pulls at s10");
        }
    }
}
