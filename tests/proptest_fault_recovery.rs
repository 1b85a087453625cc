//! Workspace-level property tests for the fault-tolerant distributed
//! engine: any recoverable fault schedule — random crashes, link drops
//! and bandwidth degradations across arbitrary graphs, both recovery
//! policies, any checkpoint cadence — must leave the BFS output exactly
//! equal to the CPU reference, and malformed inputs must come back as
//! typed errors, never panics.

use proptest::prelude::*;
use xbfs_core::engine::validate_levels;
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::Csr;
use xbfs_multi_gcd::{
    ClusterConfig, FaultConfig, FaultPlan, GcdCluster, LinkModel, RecoveryPolicy,
};

fn arb_graph_and_source() -> impl Strategy<Value = (Csr, u32)> {
    (2usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 1..200),
            0..n as u32,
        )
            .prop_map(move |(edges, src)| {
                let mut b = CsrBuilder::new(n);
                b.extend_edges(edges);
                (b.build(BuildOptions::default()), src)
            })
    })
}

fn cluster_for(g: &Csr, num_gcds: usize) -> GcdCluster<'_> {
    let cfg = ClusterConfig {
        num_gcds,
        alpha: 0.1,
        push_only: false,
    };
    GcdCluster::new(g, cfg, LinkModel::frontier()).expect("non-empty graph, >=1 GCD")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline guarantee: a run that crashes, drops packets and
    /// loses bandwidth still produces levels identical to the serial CPU
    /// reference and passes Graph500-style level validation.
    #[test]
    fn recovered_bfs_matches_reference(
        (g, src) in arb_graph_and_source(),
        seed in any::<u64>(),
        num_gcds in 2usize..5,
        degrade in any::<bool>(),
        checkpoint_every in 0u32..4,
    ) {
        let expect = bfs_levels_serial(&g, src);
        let faults = FaultConfig {
            plan: FaultPlan::random(seed, num_gcds, 8),
            recovery: if degrade {
                RecoveryPolicy::Degrade
            } else {
                RecoveryPolicy::PromoteSpare
            },
            checkpoint_every,
        };
        let mut cluster = cluster_for(&g, num_gcds);
        let run = cluster
            .run_with(src, &faults, None)
            .expect("random plans are recoverable");
        prop_assert_eq!(&run.levels, &expect, "seed {} plan {}", seed, faults.plan.to_spec());
        prop_assert!(validate_levels(&g, src, &run.levels, true).is_ok());
    }

    /// Checkpoint round-trip: snapshotting and restoring state at any
    /// cadence is invisible in the result — a crashed-and-recovered run
    /// matches a fault-free run level for level, and the recovery is
    /// recorded.
    #[test]
    fn checkpoint_cadence_is_invisible_in_results(
        (g, src) in arb_graph_and_source(),
        crash_level in 1u32..4,
        crash_rank in 0usize..3,
        checkpoint_every in 0u32..4,
    ) {
        let clean = cluster_for(&g, 3).run(src).expect("fault-free run");
        let plan = FaultPlan::parse(&format!("crash@{crash_level}:rank{crash_rank}"))
            .expect("well-formed spec");
        let faults = FaultConfig {
            plan,
            checkpoint_every,
            ..FaultConfig::default()
        };
        let mut cluster = cluster_for(&g, 3);
        let run = cluster
            .run_with(src, &faults, None)
            .expect("spare rank makes every crash recoverable");
        prop_assert_eq!(&run.levels, &clean.levels);
        let crash_fires = clean.level_stats.iter().any(|s| s.level >= crash_level);
        prop_assert_eq!(
            run.recoveries.len(),
            usize::from(crash_fires),
            "crash at level {} inside a {}-level run must be recorded exactly once",
            crash_level,
            clean.level_stats.len()
        );
    }

    /// Reproducibility: the recorded (seed, plan) pair fully determines
    /// the run — replaying the exported spec gives bit-identical levels
    /// and timing.
    #[test]
    fn exported_plan_replays_identically(
        (g, src) in arb_graph_and_source(),
        seed in any::<u64>(),
    ) {
        let faults = FaultConfig {
            plan: FaultPlan::random(seed, 3, 8),
            ..FaultConfig::default()
        };
        let a = cluster_for(&g, 3).run_with(src, &faults, None).expect("recoverable");
        let replayed = FaultConfig {
            plan: FaultPlan::parse(&a.fault_plan.to_spec()).expect("exported spec parses"),
            ..FaultConfig::default()
        };
        let b = cluster_for(&g, 3).run_with(src, &replayed, None).expect("recoverable");
        prop_assert_eq!(&a.levels, &b.levels);
        prop_assert_eq!(a.total_ms, b.total_ms);
    }

    /// Malformed fault specs must produce `Err`, never a panic, whatever
    /// bytes arrive on the CLI.
    #[test]
    fn malformed_fault_specs_never_panic(
        chars in proptest::collection::vec(0usize..16, 0..40),
    ) {
        const ALPHABET: &[u8; 16] = b"crash@0:,x.-19 d";
        let spec: String = chars
            .iter()
            .map(|&i| ALPHABET[i] as char)
            .collect();
        let _ = FaultPlan::parse(&spec);
    }
}
