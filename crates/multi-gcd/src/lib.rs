#![warn(missing_docs)]

//! `xbfs-multi-gcd` — distributed, direction-optimizing BFS across a
//! cluster of simulated MI250X GCDs.
//!
//! The paper frames its single-GCD port as "a solid basis for distributed
//! BFS on AMD GPUs": Frontier's June-2024 Graph500 submission is CPU-based
//! at ≈ 0.4 GTEPS per GCD-equivalent, while the XBFS port reaches ≈ 43 on
//! one GCD. This crate builds that next step on the same substrate:
//!
//! * [`partition`] — Graph500-style 1D block partitioning,
//! * [`interconnect`] — a Frontier-like fabric model (Infinity Fabric
//!   intra-node, Slingshot-class inter-node) with alltoall / allgather /
//!   allreduce costs, and
//! * [`bfs`] — the level-synchronous engine: top-down *push* with
//!   per-owner candidate buckets, or XBFS-style bottom-up *pull* against an
//!   allgathered frontier bitmap, switched per level by the same
//!   edge-ratio-vs-α rule as single-GCD XBFS,
//! * [`faults`] — deterministic fault injection (GCD crashes, link drops,
//!   bandwidth degradation), retry/backoff collectives, and the recovery
//!   policies backing checkpoint/restart.
//!
//! Every fallible operation fails with [`xbfs_core::XbfsError`], the
//! vocabulary of the single-GCD engines, instead of panicking; a
//! malformed fault spec is an [`xbfs_spec::SpecError`].

pub mod bfs;
pub mod faults;
pub mod interconnect;
pub mod partition;
mod rank;

pub use bfs::{
    CheckpointStats, ClusterConfig, ClusterLevelStats, ClusterRun, CollectiveStats, GcdCluster,
    RankHealth, RecoveryReport,
};
pub use faults::{FaultConfig, FaultEvent, FaultPlan, RecoveryPolicy};
pub use interconnect::LinkModel;
pub use partition::{Part, Partition};
