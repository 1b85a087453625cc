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
//!
//! Whatever the engine, `verify` means one level certificate,
//! [`xbfs_graph::certify_levels`]: `MsBfs` calls it on the whole batch,
//! [`crate::certify_run`] on the solo engine's one row, and
//! [`validate_levels`] for the cluster and the baselines.

use crate::error::XbfsError;
use crate::integrity::Sabotage;
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
    /// Certify the result before answering: every engine checks its
    /// levels with [`xbfs_graph::certify_levels`]; the device engines wrap
    /// that in pool sweeps and a CSR re-check, and the solo engine adds
    /// its frontier counters and parent tree ([`crate::certify_run`]). A
    /// failure is an [`EngineError::Suspect`].
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

/// Giga traversed edges per second: `edges` over `secs` of modeled time
/// (0 for a run that took none).
pub fn gteps(edges: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        edges as f64 / secs / 1e9
    } else {
        0.0
    }
}

/// The between-levels deadline gate of every engine, and the only code
/// that builds [`XbfsError::DeadlineExceeded`]: an error once the modeled
/// clock is strictly past a budget of `deadline_ms` (never without one).
/// `level` is the first level the run did not finish. Elapsed rounds up
/// to whole µs and the budget down, so an abort always reads late.
#[inline]
pub fn check_deadline(
    deadline_ms: Option<f64>,
    elapsed_us: f64,
    level: u32,
) -> Result<(), XbfsError> {
    let Some(deadline_ms) = deadline_ms else {
        return Ok(());
    };
    let deadline_us = deadline_ms * 1000.0;
    if elapsed_us <= deadline_us {
        return Ok(());
    }
    Err(XbfsError::DeadlineExceeded {
        level,
        elapsed_us: elapsed_us.ceil() as u64,
        deadline_us: deadline_us.floor() as u64,
    })
}

/// The source gate of every engine: an error unless `source` is one of
/// a graph's `num_vertices` vertices.
pub fn check_source(source: u32, num_vertices: usize) -> Result<(), XbfsError> {
    if (source as usize) < num_vertices {
        return Ok(());
    }
    Err(XbfsError::SourceOutOfRange {
        source,
        num_vertices,
    })
}

/// What `verify` means to an engine with no device to sweep: the level
/// certificate ([`xbfs_graph::certify_levels`]) of a finished
/// single-source run. Returns the wall ms it took (0 when `verify` is
/// off), or a `Suspect` when `levels` is not a BFS of `graph` from
/// `source`.
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
    xbfs_graph::certify_levels(graph.offsets(), graph.adjacency(), &[source], &[levels]).map_err(
        |e| EngineError::Suspect {
            kind: "integrity",
            msg: format!("certificate violation: {e}"),
        },
    )?;
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
            // Checkpoint/restart could not save the run: the whole
            // cluster is suspect.
            XbfsError::LinkFailed { .. } | XbfsError::Unrecoverable { .. } => Self::Suspect {
                kind: "unrecoverable",
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

/// The one quarantine-and-retry loop, shared by every self-healing caller
/// (the sweep and the server worker). Runs attempts `attempts.start..
/// attempts.end` on the generation in `held` — an engine and whatever must
/// die with it, such as its device — minting one first when none is held.
/// `attempt` is told whether it is attempt 0, the only one a fault may be
/// injected into: a retry runs clean and reproduces the fault-free result
/// bit for bit. An [`EngineError::Suspect`] sends the whole generation to
/// `quarantine` with the suspect's kind (a corrupted CSR or parked buffer
/// must not outlive detection), and the next attempt mints a fresh one,
/// with no backoff: there is nothing to wait for. Anything else — an
/// answer, another error, a mint that fails — ends the loop and keeps the
/// generation. Runs at least one attempt. Returns that result, or the
/// last `Suspect` once the range is spent, and the attempts used so far,
/// those before `attempts.start` and a failed mint included.
pub fn supervise<G, R>(
    held: &mut Option<G>,
    attempts: std::ops::Range<u32>,
    mut mint: impl FnMut() -> Result<G, EngineError>,
    mut attempt: impl FnMut(&mut G, bool) -> Result<R, EngineError>,
    mut quarantine: impl FnMut(G, &'static str),
) -> (Result<R, EngineError>, u32) {
    let mut n = attempts.start;
    loop {
        let generation = match held {
            Some(g) => g,
            None => match mint() {
                Ok(g) => held.insert(g),
                Err(e) => return (Err(e), n + 1),
            },
        };
        let result = attempt(generation, n == 0);
        n += 1;
        let Err(EngineError::Suspect { kind, .. }) = result else {
            return (result, n);
        };
        quarantine(held.take().expect("held above"), kind);
        if n >= attempts.end {
            return (result, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::{cell::Cell, ops::Range, rc::Rc};

    #[test]
    fn a_late_run_reads_late_in_whole_microseconds() {
        let late = XbfsError::DeadlineExceeded {
            level: 3,
            elapsed_us: 51,
            deadline_us: 50,
        };
        assert_eq!(check_deadline(Some(0.05), 50.4, 3), Err(late));
        assert_eq!(check_deadline(Some(0.05), 50.0, 3), Ok(()));
        assert_eq!(check_deadline(None, 1e9, 3), Ok(()));
    }

    /// An engine answering `Suspect` on the runs numbered in `.1`, counted
    /// across every generation in `.2`; it models its generation, `.0`, as
    /// its run time.
    struct Fake(u32, &'static [u32], Rc<Cell<u32>>);

    impl Engine for Fake {
        fn width(&self) -> usize {
            1
        }

        fn run(&mut self, _: &RunRequest<'_>) -> Result<RunOutcome, EngineError> {
            let run = self.2.replace(self.2.get() + 1);
            if self.1.contains(&run) {
                let msg = format!("run {run}");
                return Err(EngineError::Suspect { kind: "sdc", msg });
            }
            Ok(RunOutcome {
                slots: Vec::new(),
                levels: Vec::new(),
                total_ms: f64::from(self.0),
                certified: true,
                certify_wall_ms: 0.0,
                recoveries: None,
            })
        }
    }

    /// The answering generation or the error, attempts used, generations
    /// minted, each attempt's injection flag and the generations
    /// quarantined.
    type Trial = (Result<f64, EngineError>, u32, u32, Vec<bool>, Vec<u32>);

    /// Supervise one request over fakes failing on runs `suspect`, from a
    /// `held` generation (or none) through `attempts`.
    fn trial(suspect: &'static [u32], held: bool, attempts: Range<u32>) -> Trial {
        let runs = Rc::default();
        let mut held = held.then(|| Fake(0, suspect, Rc::clone(&runs)));
        let (mut minted, mut injected, mut quarantined) = (0, Vec::new(), Vec::new());
        let (out, used) = supervise(
            &mut held,
            attempts,
            || {
                minted += 1;
                Ok(Fake(minted, suspect, Rc::clone(&runs)))
            },
            |engine, first| {
                injected.push(first);
                engine.run(&RunRequest::plain(&[0])).map(|run| run.total_ms)
            },
            |engine, _| quarantined.push(engine.0),
        );
        (out, used, minted, injected, quarantined)
    }

    #[test]
    fn a_suspect_replays_clean_on_a_fresh_generation_up_to_the_bound() {
        // A clean first attempt mints once and quarantines nothing.
        assert_eq!(trial(&[], false, 0..3), (Ok(1.0), 1, 1, vec![true], vec![]));
        // A suspect attempt 0 is replayed on a fresh generation, and only
        // attempt 0 is asked to inject.
        let healed = (Ok(2.0), 2, 2, vec![true, false], vec![1]);
        assert_eq!(trial(&[0], false, 0..3), healed);
        // The loop gives up after exactly the bound and says so.
        let (out, used, minted, injected, quarantined) = trial(&[0, 1, 2, 3], false, 0..3);
        assert_eq!(out.unwrap_err().to_string(), "sdc: run 2");
        assert_eq!((used, minted, quarantined), (3, 3, vec![1, 2, 3]));
        assert_eq!(injected, [true, false, false]);
        // A held generation is used as is, and a pre-charged range never
        // counts as attempt 0.
        assert_eq!(trial(&[], true, 2..3), (Ok(0.0), 3, 0, vec![false], vec![]));
    }

    #[test]
    fn a_failed_mint_ends_the_loop() {
        let unsupported = || Err(EngineError::unsupported("no device"));
        let (out, used) = supervise(
            &mut None::<u32>,
            1..4,
            unsupported,
            |_, _| Ok(()),
            |_, _| {},
        );
        assert_eq!((out, used), (Err(EngineError::unsupported("no device")), 2));
    }
}
