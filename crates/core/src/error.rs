//! The one failure vocabulary of every engine.
//!
//! The solo and batched engines, the partitioned cluster of
//! `xbfs-multi-gcd` and the baselines all fail with an [`XbfsError`]
//! instead of panicking. [`crate::EngineError`] classifies it for a
//! supervisor and the CLI maps it to an exit code; a malformed plan spec
//! is an [`xbfs_spec::SpecError`] and never reaches an engine.

use crate::integrity::IntegrityError;
use std::fmt;

/// Why an engine operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XbfsError {
    /// The device exposes fewer streams than the configuration needs.
    InsufficientStreams {
        /// Streams the configuration requires.
        required: usize,
        /// Streams the device has.
        available: usize,
    },
    /// The cluster configuration is unusable (e.g. zero GCDs).
    InvalidConfig(String),
    /// The graph has no vertices.
    EmptyGraph,
    /// The BFS source does not exist in the graph.
    SourceOutOfRange {
        /// Requested source vertex.
        source: u32,
        /// Vertices in the graph.
        num_vertices: usize,
    },
    /// A fault plan references ranks or levels the cluster cannot host.
    InvalidFaultPlan(String),
    /// Silent data corruption was detected by a checksum, a pool guard,
    /// or the result certificate (see [`IntegrityError`]).
    Integrity(IntegrityError),
    /// The run's modeled clock crossed its deadline budget between levels
    /// (a cluster's crash recovery included). Built only by
    /// [`crate::engine::check_deadline`]; times are whole microseconds so
    /// the error stays `Eq`-comparable.
    DeadlineExceeded {
        /// The first level the run did not finish.
        level: u32,
        /// Modeled time when the check fired, µs (rounded up).
        elapsed_us: u64,
        /// The budget the run was given, µs (rounded down).
        deadline_us: u64,
    },
    /// A cluster link dropped a message more times than the retry policy
    /// allows.
    LinkFailed {
        /// Level at which the collective ran.
        level: u32,
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Transmission attempts made (1 + retries).
        attempts: u32,
    },
    /// A GCD crash could not be recovered from.
    Unrecoverable {
        /// Rank that died.
        rank: usize,
        /// Level at which the crash was detected.
        level: u32,
        /// Why recovery was impossible.
        reason: String,
    },
}

impl fmt::Display for XbfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InsufficientStreams {
                required,
                available,
            } => write!(
                f,
                "config requires {required} streams, device has {available}"
            ),
            Self::InvalidConfig(why) => write!(f, "invalid cluster config: {why}"),
            Self::EmptyGraph => write!(f, "graph has no vertices"),
            Self::SourceOutOfRange {
                source,
                num_vertices,
            } => write!(
                f,
                "source vertex {source} out of range (graph has {num_vertices} vertices)"
            ),
            Self::InvalidFaultPlan(why) => write!(f, "fault plan not applicable: {why}"),
            Self::Integrity(e) => write!(f, "integrity violation: {e}"),
            Self::DeadlineExceeded {
                level,
                elapsed_us,
                deadline_us,
            } => write!(
                f,
                "deadline exceeded before level {level}: {elapsed_us}us modeled \
                 (budget {deadline_us}us)"
            ),
            Self::LinkFailed {
                level,
                src,
                dst,
                attempts,
            } => write!(
                f,
                "link {src}->{dst} failed at level {level} after {attempts} attempts"
            ),
            Self::Unrecoverable {
                rank,
                level,
                reason,
            } => write!(
                f,
                "GCD {rank} crash at level {level} is unrecoverable: {reason}"
            ),
        }
    }
}

impl std::error::Error for XbfsError {}

impl From<IntegrityError> for XbfsError {
    fn from(e: IntegrityError) -> Self {
        Self::Integrity(e)
    }
}
