//! The engine contract: one way to ask any BFS engine for a traversal.
//!
//! The paper's host side is one level loop, and every engine that runs it
//! answers here: the adaptive single-GCD [`crate::Xbfs`], the 64-wide
//! bit-parallel [`crate::MsBfs`], the partitioned `GcdCluster` of
//! `xbfs-multi-gcd` and the six §II baselines of `xbfs-baselines`. A
//! caller (the serving worker, `xbfs compare`, the figures, a differential
//! test) should not care which one it holds: it hands over a
//! [`RunRequest`], gets one answer per source slot back in a
//! [`RunOutcome`], and on failure only needs to know which of three
//! things to do next — that is all [`EngineError`] says.
//!
//! XBFS, `MsBfs` and the cluster keep two inherent entry points next to
//! this trait: a one-line convenience (`run` / `run_batch`) and a full
//! form (`run_with`) returning its rich run type, which the trait impl
//! calls. The baselines have the trait only.

use crate::error::XbfsError;
use crate::integrity::Sabotage;
use crate::state::UNVISITED;
use xbfs_graph::Csr;

/// A fault to inject into one run (chaos and detection drills).
#[derive(Debug, Clone, Copy, Default)]
pub enum Inject<'a> {
    /// A clean run.
    #[default]
    None,
    /// Seeded bit flips in live device state (single-device engine).
    Bitflips(&'a Sabotage<'a>),
    /// GCD `rank` dies at the start of `level` (cluster engine).
    RankCrash {
        /// Level at which the crash is detected.
        level: u32,
        /// Rank that crashes.
        rank: usize,
    },
}

/// Everything one engine run is asked to do.
#[derive(Clone, Copy)]
pub struct RunRequest<'a> {
    /// One BFS source per slot; at most [`Engine::width`] of them.
    pub sources: &'a [u32],
    /// Modeled-time budget, checked between levels (`None` = unbounded).
    pub deadline_ms: Option<f64>,
    /// Validate the result before answering. What that means is the
    /// engine's business: the device engines run the pool-sweep and
    /// certificate pipeline, the cluster validates levels against the
    /// graph. A failure is an [`EngineError::Suspect`].
    pub verify: bool,
    /// Fault to inject; an engine that cannot honour it answers
    /// [`EngineError::Rejected`] before doing any work.
    pub inject: Inject<'a>,
}

impl<'a> RunRequest<'a> {
    /// A plain request: no deadline, no verification, no injection.
    pub fn plain(sources: &'a [u32]) -> Self {
        Self {
            sources,
            deadline_ms: None,
            verify: false,
            inject: Inject::None,
        }
    }

    /// The request's sources, refused unless an engine `width` wide can
    /// take them in one run.
    pub fn slots(&self, width: usize) -> Result<&'a [u32], EngineError> {
        if self.sources.is_empty() || self.sources.len() > width {
            return Err(EngineError::Rejected {
                kind: "invalid",
                msg: format!("{} sources for an engine {width} wide", self.sources.len()),
            });
        }
        Ok(self.sources)
    }
}

/// What one slot's `ok` line reports. Engines differ in what they call
/// `depth` and which digest they put on the wire (the solo engine counts
/// levels and folds modeled time into its digest; the batched and cluster
/// engines report the deepest level / level count over a levels-only
/// digest), so each fills these in exactly as it always has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotAnswer {
    /// The slot's BFS source.
    pub source: u32,
    /// The engine's depth figure for this slot.
    pub depth: u32,
    /// Vertices reached, the source included.
    pub reached: u64,
    /// The slot's GTEPS over the run's modeled time.
    pub gteps: f64,
    /// The digest this engine answers with.
    pub digest: u64,
}

/// Vertices a level array reached.
pub fn reached(levels: &[u32]) -> u64 {
    levels.iter().filter(|&&l| l != UNVISITED).count() as u64
}

/// What `verify` means to an engine with no certificate machinery: the
/// Graph500 level check of a finished single-source run (Buluç et al.).
/// Returns the wall ms it took (0 when `verify` is off), or a `Suspect`
/// when `levels` is not a BFS of `graph` from `source`.
pub fn validate_levels(
    graph: &Csr,
    source: u32,
    levels: &[u32],
    verify: bool,
) -> Result<f64, EngineError> {
    if !verify {
        return Ok(0.0);
    }
    let started = std::time::Instant::now();
    xbfs_graph::validate_bfs_levels(graph, source, levels).map_err(|e| EngineError::Suspect {
        kind: "integrity",
        msg: format!("result failed Graph500 level validation: {e:?}"),
    })?;
    Ok(started.elapsed().as_secs_f64() * 1000.0)
}

/// The result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One answer per requested source, in slot order.
    pub slots: Vec<SlotAnswer>,
    /// `levels[i][v]` = BFS level of `v` from `slots[i].source`.
    pub levels: Vec<Vec<u32>>,
    /// Modeled end-to-end time of the whole run, ms.
    pub total_ms: f64,
    /// Whether the result was validated (`RunRequest::verify`).
    pub certified: bool,
    /// Host wall time validation added after the traversal, ms (0 when
    /// not certified).
    pub certify_wall_ms: f64,
    /// Mid-run crash recoveries; `None` for an engine with no recovery
    /// machinery.
    pub recoveries: Option<u64>,
}

/// Why a run produced no outcome. It only classifies — what a supervisor
/// does next depends on nothing else.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The modeled clock crossed the budget between levels. The engine is
    /// healthy and reusable.
    Deadline {
        /// Modeled time when the check fired, µs.
        elapsed_us: u64,
        /// The budget the run was given, µs.
        deadline_us: u64,
    },
    /// The engine's state can no longer be trusted (`integrity`: a
    /// checksum, pool guard, certificate or validation failed;
    /// `unrecoverable`: a cluster fault outran checkpoint/restart).
    /// Discard the engine and replay on a fresh one.
    Suspect {
        /// Failure class, as reported on the wire.
        kind: &'static str,
        /// Human-readable detail.
        msg: String,
    },
    /// The request itself is at fault (`invalid` input, or `usage` for an
    /// injection this engine cannot honour). Answer it; the engine is
    /// fine and a retry would fail the same way.
    Rejected {
        /// Failure class, as reported on the wire.
        kind: &'static str,
        /// Human-readable detail.
        msg: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadline {
                elapsed_us,
                deadline_us,
            } => write!(
                f,
                "deadline exceeded: {elapsed_us}us modeled, budget {deadline_us}us"
            ),
            Self::Suspect { kind, msg } | Self::Rejected { kind, msg } => {
                write!(f, "{kind}: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// A `usage` rejection: the engine cannot honour this injection.
    pub fn unsupported(why: &str) -> Self {
        Self::Rejected {
            kind: "usage",
            msg: why.into(),
        }
    }
}

impl From<XbfsError> for EngineError {
    fn from(e: XbfsError) -> Self {
        match e {
            XbfsError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            } => Self::Deadline {
                elapsed_us,
                deadline_us,
            },
            XbfsError::Integrity(e) => Self::Suspect {
                kind: "integrity",
                msg: e.to_string(),
            },
            // Client-input errors (bad source, …): the substrate is fine.
            other => Self::Rejected {
                kind: "invalid",
                msg: other.to_string(),
            },
        }
    }
}

/// A BFS engine behind the one contract.
pub trait Engine {
    /// Sources one run can take (1 for the single-source engines).
    fn width(&self) -> usize;

    /// Run one traversal per requested source. After any error the
    /// engine's own state is reusable — whether it should be *trusted*
    /// is what [`EngineError`] classifies.
    fn run(&mut self, req: &RunRequest<'_>) -> Result<RunOutcome, EngineError>;
}
