#![warn(missing_docs)]

//! Baseline GPU BFS implementations on the same simulated GCD substrate.
//!
//! The paper's Fig. 8 compares XBFS against Gunrock; its related-work
//! section (§II) additionally characterizes the hierarchical-queue method,
//! the scan approach (Enterprise), and SSSP-based asynchronous BFS. Each is
//! one [`Algo`], and a [`Baseline`] runs it behind the same
//! [`xbfs_core::Engine`] contract as XBFS, so every comparison runs on
//! identical "hardware" assumptions and every caller drives XBFS and the
//! baselines through one `&mut dyn Engine`.

mod beamer;
mod engines;

use gcd_sim::Device;
use xbfs_core::engine::{reached, validate_levels};
use xbfs_core::{
    levels_digest, DeviceGraph, Engine, EngineError, Inject, RunOutcome, RunRequest, SlotAnswer,
    XbfsError, UNVISITED,
};
use xbfs_graph::reference::traversed_edges;
use xbfs_graph::Csr;

/// One algorithm of the §II comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Gunrock-style edge-frontier filtering (advance + filter per level):
    /// expansion enqueues every unvisited neighbor *without claiming*, so
    /// the frontier contains duplicates that a later filter pass removes —
    /// the "excessive space consumption and duplicated frontiers at
    /// high-frontier levels" of §II.
    Gunrock,
    /// Enterprise-style scan-based queue generation with degree-binned,
    /// CAS-claiming expansion every level: strong at big frontiers, pays
    /// the `O(|V|)` scan at small ones.
    Enterprise,
    /// Hierarchical queues: claims land in per-wave private sub-queues that
    /// a second kernel compacts into the global frontier — cheap for tiny
    /// frontiers, strided and space-hungry for large ones.
    HierQueue,
    /// Conventional status-array BFS: one kernel per level rescans the
    /// whole status array and expands matching vertices thread-per-vertex,
    /// no queues at all.
    StatusArray,
    /// BFS as unit-weight SSSP: atomic-min relaxations iterated to a
    /// fixpoint without level synchronization, revisiting redundantly.
    Sssp,
    /// Classical direction-optimizing BFS (push/pull with Beamer's α/β
    /// switch), the strongest non-adaptive competitor.
    Beamer,
}

impl Algo {
    /// Every baseline, in the column order of `xbfs compare` and
    /// `repro baselines`.
    pub const ALL: [Algo; 6] = [
        Self::Gunrock,
        Self::Enterprise,
        Self::HierQueue,
        Self::StatusArray,
        Self::Sssp,
        Self::Beamer,
    ];

    /// The name benchmark output prints.
    pub fn name(self) -> &'static str {
        match self {
            Self::Gunrock => "gunrock-like",
            Self::Enterprise => "enterprise-like",
            Self::HierQueue => "hierarchical-queue",
            Self::StatusArray => "status-array",
            Self::Sssp => "sssp-async",
            Self::Beamer => "beamer-like",
        }
    }
}

/// One [`Algo`] bound to a device and the graph uploaded to it once. Every
/// run allocates its own device buffers, so nothing carries over from one
/// run to the next — not even from a run aborted at its deadline.
pub struct Baseline<'g> {
    algo: Algo,
    device: Device,
    graph: DeviceGraph,
    csr: &'g Csr,
}

impl<'g> Baseline<'g> {
    /// Upload `csr` to `device` for every run of `algo`.
    pub fn new(algo: Algo, device: Device, csr: &'g Csr) -> Self {
        let graph = DeviceGraph::upload(&device, csr);
        Self {
            algo,
            device,
            graph,
            csr,
        }
    }

    /// The between-levels deadline gate: once the modeled clock is past
    /// the budget, the run ends here.
    fn check_deadline(&self, deadline_ms: Option<f64>) -> Result<(), EngineError> {
        let elapsed_us = self.device.elapsed_us();
        match deadline_ms.map(|ms| ms * 1000.0) {
            Some(deadline_us) if elapsed_us > deadline_us => Err(EngineError::Deadline {
                elapsed_us: elapsed_us as u64,
                deadline_us: deadline_us as u64,
            }),
            _ => Ok(()),
        }
    }
}

impl Engine for Baseline<'_> {
    fn width(&self) -> usize {
        1
    }

    /// No injection is honoured; `verify` is the Graph500 level check.
    fn run(&mut self, req: &RunRequest<'_>) -> Result<RunOutcome, EngineError> {
        let source = req.slots(1)?[0];
        match req.inject {
            Inject::None => {}
            Inject::Bitflips(_) => {
                return Err(EngineError::unsupported(
                    "bitflip chaos requires an XBFS engine",
                ))
            }
            Inject::RankCrash { .. } => {
                return Err(EngineError::unsupported(
                    "crash chaos requires a cluster engine",
                ))
            }
        }
        let num_vertices = self.graph.num_vertices();
        if source as usize >= num_vertices {
            return Err(XbfsError::SourceOutOfRange {
                source,
                num_vertices,
            }
            .into());
        }
        let deadline_ms = req.deadline_ms;
        let levels = match self.algo {
            Algo::Gunrock => self.gunrock(source, deadline_ms),
            Algo::Enterprise => self.enterprise(source, deadline_ms),
            Algo::HierQueue => self.hier_queue(source, deadline_ms),
            Algo::StatusArray => self.status_array(source, deadline_ms),
            Algo::Sssp => self.sssp(source, deadline_ms),
            Algo::Beamer => self.beamer(source, deadline_ms),
        }?;
        let total_us = self.device.elapsed_us();
        let certify_wall_ms = validate_levels(self.csr, source, &levels, req.verify)?;
        let gteps = if total_us > 0.0 {
            traversed_edges(self.csr, &levels) as f64 / (total_us * 1e-6) / 1e9
        } else {
            0.0
        };
        let deepest = levels.iter().filter(|&&l| l != UNVISITED).max();
        Ok(RunOutcome {
            slots: vec![SlotAnswer {
                source,
                depth: deepest.map_or(0, |&l| l + 1),
                reached: reached(&levels),
                gteps,
                digest: levels_digest(source, &levels),
            }],
            levels: vec![levels],
            total_ms: total_us / 1000.0,
            certified: req.verify,
            certify_wall_ms,
            recoveries: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_core::{BitflipPlan, Sabotage};
    use xbfs_graph::generators::erdos_renyi;

    /// One plain run of `algo` from `source` on a fresh MI250X.
    pub(crate) fn run_once(algo: Algo, g: &Csr, source: u32) -> RunOutcome {
        let mut engine = Baseline::new(algo, Device::mi250x(), g);
        engine.run(&RunRequest::plain(&[source])).unwrap()
    }

    #[test]
    fn injections_and_bad_sources_are_rejected_before_any_work() {
        let g = erdos_renyi(100, 400, 3);
        let plan = BitflipPlan::parse("status").unwrap();
        let sabotage = Sabotage {
            plan: &plan,
            salt: 0,
        };
        let injects = [
            Inject::Bitflips(&sabotage),
            Inject::RankCrash { level: 1, rank: 0 },
        ];
        let rejected = |e| match e {
            EngineError::Rejected { kind, .. } => kind,
            other => panic!("{other}"),
        };
        for algo in Algo::ALL {
            let mut engine = Baseline::new(algo, Device::mi250x(), &g);
            for inject in injects {
                let req = RunRequest {
                    inject,
                    ..RunRequest::plain(&[0])
                };
                assert_eq!(rejected(engine.run(&req).unwrap_err()), "usage");
            }
            let err = engine.run(&RunRequest::plain(&[100])).unwrap_err();
            assert_eq!(rejected(err), "invalid");
            assert_eq!(engine.device.elapsed_us(), 0.0, "{}", algo.name());
        }
    }
}
