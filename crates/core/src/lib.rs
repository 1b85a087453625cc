#![warn(missing_docs)]

//! `xbfs-core` — the paper's primary contribution: XBFS, the adaptive
//! frontier-queue BFS, ported to (simulated) AMD MI250X GCDs with the
//! Frontier-specific optimizations of §IV.
//!
//! The crate implements, on top of the [`gcd_sim`] substrate:
//!
//! * the three frontier-queue-generation strategies — scan-free,
//!   single-scan (with the No-Frontier-Generation shortcut) and bottom-up
//!   double-scan with early termination and proactive claims
//!   ([`strategy`]),
//! * warp-centric dynamic workload balancing with degree-binned
//!   thread/wave/group kernels ([`strategy::topdown`]),
//! * the adaptive `α`-controller ([`controller`]),
//! * the host-side runner with per-level sync, counter readback and the
//!   single-stream consolidation of §IV-B ([`runner`]),
//! * the one contract every engine answers to ([`engine`]), and
//! * the §V-F bandwidth-efficiency analysis ([`efficiency`]).
//!
//! # Quick start
//!
//! ```
//! use gcd_sim::Device;
//! use xbfs_core::{Xbfs, XbfsConfig};
//! use xbfs_graph::generators::{rmat_graph, RmatParams};
//!
//! let graph = rmat_graph(RmatParams::graph500(10), 42);
//! let device = Device::mi250x();
//! let xbfs = Xbfs::new(&device, &graph, XbfsConfig::default()).unwrap();
//! let run = xbfs.run(0).unwrap();
//! println!("depth {} in {:.3} ms → {:.2} GTEPS",
//!          run.depth(), run.total_ms, run.gteps);
//! assert_eq!(run.levels[0], 0);
//! ```

pub mod concurrent;
pub mod config;
pub mod controller;
pub mod device_graph;
pub mod efficiency;
pub mod engine;
pub mod error;
pub mod integrity;
pub mod runner;
pub mod state;
pub mod stats;
pub mod strategy;
pub mod tuner;

pub use concurrent::{MsBfs, MsBfsRun, MAX_CONCURRENT};
pub use config::XbfsConfig;
pub use controller::Controller;
pub use device_graph::DeviceGraph;
pub use efficiency::{bandwidth_efficiency, Efficiency};
pub use engine::{Engine, EngineError, Inject, RunOutcome, RunRequest, SlotAnswer};
pub use error::XbfsError;
pub use integrity::{apply_sabotage, certify_run, BitflipPlan, IntegrityError, Sabotage};
pub use runner::Xbfs;
pub use state::{decode_level, is_unvisited, BfsState, BinThresholds, QueueState, UNVISITED};
pub use stats::{BfsRun, LevelStats};
pub use strategy::Strategy;
pub use tuner::{tune_alpha, TuneResult};
pub use xbfs_graph::validate::{levels_digest, CertViolation, Certificate};

/// Lock an engine's run context, taking it back from a poisoned mutex: a
/// quarantined engine's `Drop` must still park its buffers after a panic
/// mid-launch, and every run starts by resetting the state it finds.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
