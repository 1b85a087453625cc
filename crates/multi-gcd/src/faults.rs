//! Deterministic fault injection for the multi-GCD engine.
//!
//! Frontier-scale systems treat faults as routine: the Graph500 runs the
//! paper positions itself against checkpoint around node failures, and the
//! fabric retransmits around transient link errors. This module models the
//! three fault classes that dominate at that scale, each scheduled ahead of
//! time by a seedable [`FaultPlan`] so every faulty run is reproducible:
//!
//! * **GCD crashes** — a rank dies at the start of a level and the cluster
//!   recovers via checkpoint/restart ([`RecoveryPolicy`]),
//! * **transient link drops** — a message between two ranks fails `k`
//!   times before getting through; the collectives retry with exponential
//!   backoff ([`backoff_us`]) and the retransmitted bytes plus the backoff
//!   waits are charged to the cost model, and
//! * **bandwidth degradation windows** — levels during which every link
//!   runs at a fraction of nominal bandwidth (a congested or faulty fabric).

use crate::interconnect::LinkModel;
use std::fmt;
use xbfs_core::XbfsError;
use xbfs_spec::SpecError;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Rank `rank` dies at the start of level `level`.
    GcdCrash {
        /// Rank that crashes.
        rank: usize,
        /// Level at which the crash is detected.
        level: u32,
    },
    /// Messages from `src` to `dst` at `level` fail `drops` times before
    /// succeeding.
    LinkDrop {
        /// Level the drops apply to.
        level: u32,
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Consecutive failed transmissions before success.
        drops: u32,
    },
    /// All links run at `factor` of nominal bandwidth for levels in
    /// `[from_level, to_level]` (inclusive).
    Degrade {
        /// First degraded level.
        from_level: u32,
        /// Last degraded level.
        to_level: u32,
        /// Bandwidth multiplier in (0, 1].
        factor: f64,
    },
}

/// A deterministic, seedable schedule of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed recorded with the plan (drives [`FaultPlan::random`] and is
    /// exported with every run for reproducibility).
    pub seed: u64,
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse a comma-separated spec, e.g.
    /// `crash@2:rank1,drop@1:0-2x3,degrade@1-3:0.5,seed=42`.
    ///
    /// Tokens:
    /// * `crash@<level>:rank<r>` — GCD `r` dies at level `<level>`,
    /// * `drop@<level>:<src>-<dst>x<n>` — the `src`→`dst` message at that
    ///   level fails `n` times before succeeding,
    /// * `degrade@<from>-<to>:<factor>` — bandwidth × `factor` over the
    ///   inclusive level window,
    /// * `seed=<n>` — recorded seed.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        // One shared tokenizer (`xbfs_spec`) across fault, bitflip and
        // chaos plans; only the fault vocabulary lives here.
        let mut plan = Self::none();
        for tok in xbfs_spec::tokenize(spec) {
            match tok {
                xbfs_spec::Token::Assign {
                    key: "seed", value, ..
                } => {
                    plan.seed = tok.num("seed", value)?;
                }
                xbfs_spec::Token::Assign { .. } => {
                    return Err(tok.err("unknown assignment (expected seed=<n>)"));
                }
                xbfs_spec::Token::Item { kind, at, arg, .. } => {
                    let at = |what: &str| at.ok_or_else(|| tok.err(format!("expected {what}")));
                    let arg = |what: &str| arg.ok_or_else(|| tok.err(format!("expected {what}")));
                    match kind {
                        "crash" => {
                            let level = tok.num("level", at("crash@<level>:rank<r>")?)?;
                            let rank = arg("crash@<level>:rank<r>")?
                                .strip_prefix("rank")
                                .ok_or_else(|| tok.err("expected crash@<level>:rank<r>"))?;
                            let rank = tok.num("rank", rank)?;
                            plan.events.push(FaultEvent::GcdCrash { rank, level });
                        }
                        "drop" => {
                            let level = tok.num("level", at("drop@<level>:<src>-<dst>x<n>")?)?;
                            let route = arg("drop@<level>:<src>-<dst>x<n>")?;
                            let (pair, drops) = route
                                .split_once('x')
                                .ok_or_else(|| tok.err("expected drop@<level>:<src>-<dst>x<n>"))?;
                            let (src, dst) = pair
                                .split_once('-')
                                .ok_or_else(|| tok.err("expected drop@<level>:<src>-<dst>x<n>"))?;
                            plan.events.push(FaultEvent::LinkDrop {
                                level,
                                src: tok.num("src rank", src)?,
                                dst: tok.num("dst rank", dst)?,
                                drops: tok.num("drop count", drops)?,
                            });
                        }
                        "degrade" => {
                            let window = at("degrade@<from>-<to>:<factor>")?;
                            let (from, to) = window
                                .split_once('-')
                                .ok_or_else(|| tok.err("expected degrade@<from>-<to>:<factor>"))?;
                            let from_level: u32 = tok.num("from level", from)?;
                            let to_level: u32 = tok.num("to level", to)?;
                            let factor: f64 =
                                tok.num("factor", arg("degrade@<from>-<to>:<factor>")?)?;
                            if !(factor > 0.0 && factor <= 1.0) {
                                return Err(tok.err("factor must be in (0, 1]"));
                            }
                            if from_level > to_level {
                                return Err(tok.err("window start exceeds end"));
                            }
                            plan.events.push(FaultEvent::Degrade {
                                from_level,
                                to_level,
                                factor,
                            });
                        }
                        _ => {
                            return Err(tok.err("unknown fault kind (crash@/drop@/degrade@/seed=)"))
                        }
                    }
                }
            }
        }
        Ok(plan)
    }

    /// Render the plan back to the spec syntax [`FaultPlan::parse`] accepts
    /// (round-trips; a cluster trace's run span carries it as `fault_plan`).
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.events.len() + 1);
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        for ev in &self.events {
            parts.push(match *ev {
                FaultEvent::GcdCrash { rank, level } => format!("crash@{level}:rank{rank}"),
                FaultEvent::LinkDrop {
                    level,
                    src,
                    dst,
                    drops,
                } => {
                    format!("drop@{level}:{src}-{dst}x{drops}")
                }
                FaultEvent::Degrade {
                    from_level,
                    to_level,
                    factor,
                } => {
                    format!("degrade@{from_level}-{to_level}:{factor}")
                }
            });
        }
        parts.join(",")
    }

    /// A randomized-but-deterministic plan: one crash, a couple of link
    /// drops and one degradation window, all drawn from `seed`.
    pub fn random(seed: u64, num_gcds: usize, expected_levels: u32) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let levels = expected_levels.max(2) as u64;
        let p = num_gcds.max(1) as u64;
        let mut events = Vec::new();
        // Crash somewhere in the middle of the run, never the only rank.
        if num_gcds > 1 {
            events.push(FaultEvent::GcdCrash {
                rank: (next() % p) as usize,
                level: 1 + (next() % (levels - 1)) as u32,
            });
        }
        for _ in 0..2 {
            let src = (next() % p) as usize;
            let mut dst = (next() % p) as usize;
            if dst == src {
                dst = (dst + 1) % p as usize;
            }
            if src != dst {
                events.push(FaultEvent::LinkDrop {
                    level: (next() % levels) as u32,
                    src,
                    dst,
                    drops: 1 + (next() % 2) as u32,
                });
            }
        }
        let from = (next() % levels) as u32;
        events.push(FaultEvent::Degrade {
            from_level: from,
            to_level: from + (next() % 2) as u32,
            factor: 0.25 + (next() % 50) as f64 / 100.0,
        });
        Self { seed, events }
    }

    /// Check the plan fits a cluster of `num_gcds` ranks.
    pub fn validate(&self, num_gcds: usize) -> Result<(), XbfsError> {
        for ev in &self.events {
            match *ev {
                FaultEvent::GcdCrash { rank, .. } if rank >= num_gcds => {
                    return Err(XbfsError::InvalidFaultPlan(format!(
                        "crash rank {rank} >= {num_gcds} GCDs"
                    )));
                }
                FaultEvent::LinkDrop { src, dst, .. } if src >= num_gcds || dst >= num_gcds => {
                    return Err(XbfsError::InvalidFaultPlan(format!(
                        "drop route {src}-{dst} outside {num_gcds} GCDs"
                    )));
                }
                FaultEvent::LinkDrop { src, dst, .. } if src == dst => {
                    return Err(XbfsError::InvalidFaultPlan(format!(
                        "drop route {src}-{dst} is a self-loop"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The crash scheduled at `level`, if any (first match wins).
    pub fn crash_at(&self, level: u32) -> Option<usize> {
        self.events.iter().find_map(|ev| match *ev {
            FaultEvent::GcdCrash { rank, level: l } if l == level => Some(rank),
            _ => None,
        })
    }

    /// Failed-transmission count scheduled for `src`→`dst` at `level`.
    pub fn drops_for(&self, level: u32, src: usize, dst: usize) -> u32 {
        self.events
            .iter()
            .map(|ev| match *ev {
                FaultEvent::LinkDrop {
                    level: l,
                    src: s,
                    dst: d,
                    drops,
                } if l == level && s == src && d == dst => drops,
                _ => 0,
            })
            .sum()
    }

    /// Combined bandwidth factor active at `level` (product of windows).
    pub fn bandwidth_factor(&self, level: u32) -> f64 {
        self.events
            .iter()
            .map(|ev| match *ev {
                FaultEvent::Degrade {
                    from_level,
                    to_level,
                    factor,
                } if (from_level..=to_level).contains(&level) => factor,
                _ => 1.0,
            })
            .product::<f64>()
            .max(0.01)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "(no faults)")
        } else {
            write!(f, "{}", self.to_spec())
        }
    }
}

/// Retransmissions a collective attempts after the first failure.
pub const MAX_RETRIES: u32 = 3;
/// Timeout before the first retransmission, microseconds.
pub const BASE_TIMEOUT_US: f64 = 50.0;
/// Multiplier applied to the timeout per further attempt.
pub const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Backoff wait before retry `attempt` (0-based), microseconds.
pub fn backoff_us(attempt: u32) -> f64 {
    BASE_TIMEOUT_US * BACKOFF_MULTIPLIER.powi(attempt as i32)
}

/// Total wait charged when `failures` transmissions time out in a row.
pub fn penalty_us(failures: u32) -> f64 {
    (0..failures).map(backoff_us).sum()
}

/// Wait before a silent rank is declared dead: the full backoff ladder.
pub fn detection_us() -> f64 {
    penalty_us(MAX_RETRIES + 1)
}

/// How the cluster recovers from a GCD crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Repartition the dead rank's block across the survivors and continue
    /// with one GCD fewer (graceful degradation).
    Degrade,
    /// Promote a spare GCD into the dead rank's slot (same partition).
    PromoteSpare,
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Degrade => write!(f, "degrade"),
            Self::PromoteSpare => write!(f, "spare"),
        }
    }
}

/// Everything the engine needs to run under faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Crash recovery strategy.
    pub recovery: RecoveryPolicy,
    /// Take a checkpoint every this many levels; 0 disables periodic
    /// checkpoints (the initial state still always counts as one, so a
    /// crash then restarts the run from the source).
    pub checkpoint_every: u32,
}

impl Default for FaultConfig {
    /// No fault planned, yet a checkpoint every level.
    fn default() -> Self {
        Self {
            checkpoint_every: 1,
            ..Self::none()
        }
    }
}

impl FaultConfig {
    /// `plan` under `recovery`, with the cadence the plan calls for: a
    /// checkpoint every level when a fault is planned, none otherwise
    /// (only a crash can restore one, and a fault-free run pays nothing).
    pub fn new(plan: FaultPlan, recovery: RecoveryPolicy) -> Self {
        let checkpoint_every = u32::from(!plan.is_empty());
        Self {
            plan,
            recovery,
            checkpoint_every,
        }
    }

    /// A fault-free config (what [`crate::GcdCluster::run`] uses): zero
    /// overhead over the plain engine.
    pub fn none() -> Self {
        Self::new(FaultPlan::none(), RecoveryPolicy::PromoteSpare)
    }
}

/// What one faulty collective cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectiveCost {
    /// Wall time of the collective including retries, microseconds.
    pub time_us: f64,
    /// Bytes sent more than once.
    pub retransmitted_bytes: u64,
    /// Time spent waiting on timeouts/backoff, microseconds.
    pub retry_us: f64,
}

/// Transfer time with the level's bandwidth-degradation factor applied.
fn transfer_scaled(link: &LinkModel, from: usize, to: usize, bytes: u64, bw_factor: f64) -> f64 {
    if from == to {
        return 0.0;
    }
    let base = link.transfer_us(from, to, bytes);
    let lat = if link.same_node(from, to) {
        link.intra_latency_us
    } else {
        link.inter_latency_us
    };
    lat + (base - lat) / bw_factor
}

impl CollectiveCost {
    fn add(&mut self, c: Self) {
        self.time_us += c.time_us;
        self.retransmitted_bytes += c.retransmitted_bytes;
        self.retry_us += c.retry_us;
    }
}

/// One `src`→`dst` block of `bytes` under the plan: every dropped attempt
/// still occupies the link for the transfer before its timeout fires,
/// then backs off. `sends` counts the attempts that are not drops (1 for
/// a message, 0 for a collective whose clean time is charged apart). An
/// error once the drops exceed the retry budget.
fn resent(
    link: &LinkModel,
    plan: &FaultPlan,
    level: u32,
    (src, dst): (usize, usize),
    bytes: u64,
    bw_factor: f64,
    sends: u32,
) -> Result<CollectiveCost, XbfsError> {
    let drops = plan.drops_for(level, src, dst);
    if drops > MAX_RETRIES {
        let attempts = MAX_RETRIES + 1;
        return Err(XbfsError::LinkFailed {
            level,
            src,
            dst,
            attempts,
        });
    }
    let retry_us = penalty_us(drops);
    let one = transfer_scaled(link, src, dst, bytes, bw_factor);
    Ok(CollectiveCost {
        time_us: one * f64::from(drops + sends) + retry_us,
        retransmitted_bytes: bytes * u64::from(drops),
        retry_us,
    })
}

/// Fault-aware personalized all-to-all for one rank: per-destination sends
/// serialize on the injection port, receives overlap (duplex max), and each
/// message retries independently under the plan.
pub fn faulty_alltoall(
    link: &LinkModel,
    plan: &FaultPlan,
    level: u32,
    rank: usize,
    send: &[u64],
    recv: &[u64],
) -> Result<CollectiveCost, XbfsError> {
    let bw = plan.bandwidth_factor(level);
    let mut tx = CollectiveCost::default();
    let mut rx = CollectiveCost::default();
    for (d, &bytes) in send.iter().enumerate() {
        if bytes != 0 && d != rank {
            tx.add(resent(link, plan, level, (rank, d), bytes, bw, 1)?);
        }
    }
    for (s, &bytes) in recv.iter().enumerate() {
        if bytes != 0 && s != rank {
            rx.add(resent(link, plan, level, (s, rank), bytes, bw, 1)?);
        }
    }
    // Duplex: the slower direction bounds wall time; retransmitted bytes on
    // the receive side are counted by the sender's call, not here.
    Ok(CollectiveCost {
        time_us: tx.time_us.max(rx.time_us),
        retransmitted_bytes: tx.retransmitted_bytes,
        retry_us: tx.retry_us.max(rx.retry_us),
    })
}

/// Fault-aware ring allgather: P−1 steps, each moving one `bytes` block
/// along every ring edge; a dropped edge stalls the whole step.
pub fn faulty_allgather(
    link: &LinkModel,
    plan: &FaultPlan,
    level: u32,
    num_ranks: usize,
    bytes: u64,
) -> Result<CollectiveCost, XbfsError> {
    if num_ranks <= 1 {
        return Ok(CollectiveCost::default());
    }
    let bw = plan.bandwidth_factor(level);
    // Worst ring edge per step (the fault-free model's assumption).
    let worst_step = (0..num_ranks)
        .map(|i| transfer_scaled(link, i, (i + 1) % num_ranks, bytes, bw))
        .fold(0.0f64, f64::max);
    let mut cost = CollectiveCost {
        time_us: (num_ranks - 1) as f64 * worst_step,
        ..CollectiveCost::default()
    };
    // Drops on any ring edge: each failed pass of a block over that edge
    // stalls the ring for a retransmission + its backoff.
    for i in 0..num_ranks {
        let edge = (i, (i + 1) % num_ranks);
        cost.add(resent(link, plan, level, edge, bytes, bw, 0)?);
    }
    Ok(cost)
}

/// Fault-aware recursive-doubling allreduce: log₂(P) rounds over the worst
/// link; drops on any route at this level stall a round each.
pub fn faulty_allreduce(
    link: &LinkModel,
    plan: &FaultPlan,
    level: u32,
    num_ranks: usize,
    bytes: u64,
) -> Result<CollectiveCost, XbfsError> {
    if num_ranks <= 1 {
        return Ok(CollectiveCost::default());
    }
    let bw = plan.bandwidth_factor(level);
    let base = link.allreduce_us(num_ranks, bytes);
    let mut cost = CollectiveCost {
        // Degradation scales the whole collective (latency-dominated at
        // 16-byte payloads, so the factor barely moves it — as it should).
        time_us: base / bw.min(1.0),
        ..CollectiveCost::default()
    };
    for src in 0..num_ranks {
        for dst in (0..num_ranks).filter(|&dst| dst != src) {
            cost.add(resent(link, plan, level, (src, dst), bytes, bw, 0)?);
        }
    }
    Ok(cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = "seed=42,crash@2:rank1,drop@1:0-2x3,degrade@1-3:0.5";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.to_spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn bad_specs_are_errors_not_panics() {
        for spec in [
            "crash@2",
            "crash@x:rank1",
            "drop@1:0-2",
            "drop@1:0x2",
            "degrade@3-1:0.5",
            "degrade@1-2:1.5",
            "degrade@1-2:0",
            "meteor@3",
            "seed=abc",
        ] {
            assert!(
                FaultPlan::parse(spec).is_err(),
                "spec `{spec}` should fail to parse"
            );
        }
    }

    #[test]
    fn validate_rejects_out_of_range_ranks() {
        let plan = FaultPlan::parse("crash@1:rank7").unwrap();
        assert!(plan.validate(8).is_ok());
        assert!(matches!(
            plan.validate(4),
            Err(XbfsError::InvalidFaultPlan(_))
        ));
        let drop = FaultPlan::parse("drop@0:1-1x1").unwrap();
        assert!(matches!(
            drop.validate(4),
            Err(XbfsError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn backoff_is_exponential_and_summable() {
        assert_eq!(
            (MAX_RETRIES, BASE_TIMEOUT_US, BACKOFF_MULTIPLIER),
            (3, 50.0, 2.0)
        );
        assert_eq!(backoff_us(0), 50.0);
        assert_eq!(backoff_us(1), 100.0);
        assert_eq!(backoff_us(2), 200.0);
        assert_eq!(penalty_us(0), 0.0);
        assert_eq!(penalty_us(3), 350.0);
        assert_eq!(detection_us(), 750.0);
    }

    #[test]
    fn queries_are_level_scoped() {
        let plan = FaultPlan::parse("crash@2:rank1,drop@1:0-2x3,degrade@1-3:0.5").unwrap();
        assert_eq!(plan.crash_at(2), Some(1));
        assert_eq!(plan.crash_at(1), None);
        assert_eq!(plan.drops_for(1, 0, 2), 3);
        assert_eq!(plan.drops_for(2, 0, 2), 0);
        assert_eq!(plan.drops_for(1, 2, 0), 0);
        assert_eq!(plan.bandwidth_factor(0), 1.0);
        assert_eq!(plan.bandwidth_factor(2), 0.5);
        assert_eq!(plan.bandwidth_factor(4), 1.0);
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let a = FaultPlan::random(7, 8, 6);
        let b = FaultPlan::random(7, 8, 6);
        assert_eq!(a, b);
        a.validate(8).unwrap();
        assert!(!a.is_empty());
        let c = FaultPlan::random(8, 8, 6);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn retries_are_charged_and_bounded() {
        let link = LinkModel::frontier();
        let plan = FaultPlan::parse("drop@0:0-1x2").unwrap();
        let clean =
            faulty_alltoall(&link, &FaultPlan::none(), 0, 0, &[0, 1 << 20], &[0, 0]).unwrap();
        let faulty = faulty_alltoall(&link, &plan, 0, 0, &[0, 1 << 20], &[0, 0]).unwrap();
        assert_eq!(clean.retransmitted_bytes, 0);
        assert_eq!(faulty.retransmitted_bytes, 2 << 20);
        assert!(faulty.retry_us >= penalty_us(2));
        assert!(faulty.time_us > clean.time_us);
        // Exceeding the retry budget is an error.
        let dead = FaultPlan::parse("drop@0:0-1x9").unwrap();
        assert!(matches!(
            faulty_alltoall(&link, &dead, 0, 0, &[0, 1], &[0, 0]),
            Err(XbfsError::LinkFailed { .. })
        ));
    }

    #[test]
    fn degradation_slows_transfers_but_not_latency() {
        let link = LinkModel::frontier();
        let plan = FaultPlan::parse("degrade@0-0:0.5").unwrap();
        let big = 64u64 << 20;
        let clean = faulty_allgather(&link, &FaultPlan::none(), 0, 4, big).unwrap();
        let slow = faulty_allgather(&link, &plan, 0, 4, big).unwrap();
        // Bandwidth halves → the bandwidth term doubles.
        assert!(
            slow.time_us > 1.8 * clean.time_us,
            "{} vs {}",
            slow.time_us,
            clean.time_us
        );
        // Off-window levels are unaffected.
        let off = faulty_allgather(&link, &plan, 5, 4, big).unwrap();
        assert_eq!(off.time_us, clean.time_us);
    }

    #[test]
    fn allreduce_matches_fault_free_model_without_faults() {
        let link = LinkModel::frontier();
        let c = faulty_allreduce(&link, &FaultPlan::none(), 3, 8, 16).unwrap();
        assert_eq!(c.time_us, link.allreduce_us(8, 16));
        assert_eq!(c.retransmitted_bytes, 0);
    }
}
