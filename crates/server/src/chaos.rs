//! Chaos injection plans for the serving layer.
//!
//! The **load generator** owns the plan: `--chaos` takes a spec in the
//! shared [`xbfs_spec`] grammar (the same tokenizer behind
//! `--inject-faults` and `--inject-bitflips`), decides deterministically
//! which requests carry which action, and stamps a single action token
//! into the request's `chaos` field. The **server** only ever sees that
//! per-request token, and honors it solely when started with
//! `--allow-chaos` — a production server ignores (and counts) stamped
//! chaos instead of executing it.
//!
//! Spec grammar (comma-separated):
//!
//! - `panic[:N]`   — every Nth selected request panics inside the worker
//! - `bitflip[:N]` — every Nth selected request runs under seeded bit
//!   flips in device status words (exercises certify-and-retry)
//! - `slow[@MS][:N]` — every Nth selected request sleeps `MS` wall ms
//!   server-side before running (default 50)
//! - `crash[@L][:N]` — every Nth selected request carries a rank-crash
//!   injection for a `--cluster` server: the victim rank (default 0,
//!   set with `rank=R`) dies at level `L` (default 1) and is recovered
//!   by checkpoint/restart mid-request. The stamped wire token is the
//!   shared fault-plan grammar's `crash@<level>:rank<r>`.
//! - `rank=R`      — victim rank for `crash` injections
//! - `seed=S`      — phase-shifts the selection so repeated runs vary
//!
//! Periods are per-kind over the request index; precedence when several
//! kinds fire on the same index is crash > panic > bitflip > slow, so a
//! single request carries exactly one action.

use xbfs_multi_gcd::{FaultEvent, FaultPlan};
use xbfs_spec::{tokenize, SpecError, Token};

/// What one request is asked to suffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// No injection.
    None,
    /// Deliberate panic inside the worker's run closure.
    Panic,
    /// Seeded bit flips in device state (detected by certification).
    Bitflip,
    /// Wall-clock sleep before the run, ms.
    Slow(u64),
    /// A GCD rank crash injected into the cluster engine's fault plan
    /// (cluster servers only): the rank dies at the given level and is
    /// recovered by level-synchronous checkpoint/restart mid-request.
    Crash {
        /// Level at which the rank dies.
        level: u32,
        /// Victim rank.
        rank: usize,
    },
}

impl ChaosAction {
    /// Wire encoding for the request's `chaos` field.
    pub fn token(self) -> Option<String> {
        match self {
            Self::None => None,
            Self::Panic => Some("panic".into()),
            Self::Bitflip => Some("bitflip".into()),
            Self::Slow(ms) => Some(format!("slow@{ms}")),
            Self::Crash { level, rank } => Some(format!("crash@{level}:rank{rank}")),
        }
    }

    /// Decode a request's `chaos` field. Unknown tokens are an error so
    /// a typo'd injection cannot silently become a no-op in a chaos test.
    pub fn from_token(tok: &str) -> Result<Self, String> {
        match tok {
            "panic" => Ok(Self::Panic),
            "bitflip" => Ok(Self::Bitflip),
            "slow" => Ok(Self::Slow(50)),
            other => match other.strip_prefix("slow@") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(Self::Slow)
                    .map_err(|_| format!("bad slow duration in chaos token `{other}`")),
                // Anything else must be a fault plan of exactly one crash
                // and no seed: `crash@<level>:rank<r>`.
                None => {
                    let plan = FaultPlan::parse(other)
                        .map_err(|e| format!("unknown chaos token `{other}`: {e}"))?;
                    match (plan.seed, &plan.events[..]) {
                        (0, &[FaultEvent::GcdCrash { rank, level }]) => {
                            Ok(Self::Crash { level, rank })
                        }
                        _ => Err(format!("chaos token `{other}` is not a single crash")),
                    }
                }
            },
        }
    }
}

/// A parsed `--chaos` spec: per-kind periods plus a selection seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Fire a panic every this-many requests (None = never).
    pub panic_every: Option<u64>,
    /// Fire bit flips every this-many requests.
    pub bitflip_every: Option<u64>,
    /// Fire a slowdown every this-many requests.
    pub slow_every: Option<u64>,
    /// Sleep duration for slowdowns, wall ms.
    pub slow_ms: u64,
    /// Fire a cluster rank crash every this-many requests.
    pub crash_every: Option<u64>,
    /// Level at which injected crashes fire.
    pub crash_level: u32,
    /// Victim rank for injected crashes.
    pub crash_rank: usize,
    /// Phase shift for the periodic selection.
    pub seed: u64,
}

impl ChaosPlan {
    /// Parse the comma-separated spec (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        let mut plan = Self {
            slow_ms: 50,
            crash_level: 1,
            ..Self::default()
        };
        let mut any = false;
        for tok in tokenize(spec) {
            any = true;
            match tok {
                Token::Assign {
                    key: "seed", value, ..
                } => {
                    plan.seed = tok.num("seed", value)?;
                }
                Token::Assign {
                    key: "rank", value, ..
                } => {
                    plan.crash_rank = tok.num("rank", value)?;
                }
                Token::Assign { key, .. } => {
                    return Err(tok.err(format!("unknown key `{key}` (expected seed=, rank=)")));
                }
                Token::Item { kind: "panic", .. } => {
                    plan.panic_every = Some(u64::from(tok.arg_count(1)?.max(1)));
                }
                Token::Item {
                    kind: "bitflip", ..
                } => {
                    plan.bitflip_every = Some(u64::from(tok.arg_count(1)?.max(1)));
                }
                Token::Item {
                    kind: "slow",
                    at,
                    arg,
                    ..
                } => {
                    if let Some(ms) = at {
                        plan.slow_ms = tok.num("slow duration (ms)", ms)?;
                    }
                    let every: u64 = match arg {
                        Some(n) => tok.num("slow period", n)?,
                        None => 1,
                    };
                    plan.slow_every = Some(every.max(1));
                }
                Token::Item {
                    kind: "crash",
                    at,
                    arg,
                    ..
                } => {
                    if let Some(level) = at {
                        plan.crash_level = tok.num("crash level", level)?;
                    }
                    let every: u64 = match arg {
                        Some(n) => tok.num("crash period", n)?,
                        None => 1,
                    };
                    plan.crash_every = Some(every.max(1));
                }
                Token::Item { kind, .. } => {
                    return Err(tok.err(format!(
                        "unknown chaos kind `{kind}` (expected panic, bitflip, slow, crash)"
                    )));
                }
            }
        }
        if !any {
            return Err(SpecError {
                token: spec.trim().to_string(),
                why: "empty chaos spec".into(),
            });
        }
        Ok(plan)
    }

    /// Deterministic per-request selection: request `index` under this
    /// plan suffers exactly one action (or none). Periods are phase
    /// shifted by the seed so `seed=` varies which requests are hit
    /// without changing the hit *rate*.
    pub fn action(&self, index: u64) -> ChaosAction {
        let hit = |period: Option<u64>, salt: u64| {
            period.is_some_and(|p| (index + self.seed + salt).is_multiple_of(p))
        };
        if hit(self.crash_every, 3) {
            ChaosAction::Crash {
                level: self.crash_level,
                rank: self.crash_rank,
            }
        } else if hit(self.panic_every, 0) {
            ChaosAction::Panic
        } else if hit(self.bitflip_every, 1) {
            ChaosAction::Bitflip
        } else if hit(self.slow_every, 2) {
            ChaosAction::Slow(self.slow_ms)
        } else {
            ChaosAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let p = ChaosPlan::parse("panic:10,bitflip:7,slow@120:3,seed=42").unwrap();
        assert_eq!(p.panic_every, Some(10));
        assert_eq!(p.bitflip_every, Some(7));
        assert_eq!(p.slow_every, Some(3));
        assert_eq!(p.slow_ms, 120);
        assert_eq!(p.seed, 42);
    }

    #[test]
    fn defaults_and_bare_kinds() {
        let p = ChaosPlan::parse("slow").unwrap();
        assert_eq!(p.slow_every, Some(1));
        assert_eq!(p.slow_ms, 50);
        assert_eq!(p.action(0), ChaosAction::Slow(50));
    }

    #[test]
    fn rejects_unknown_kind_and_key() {
        assert!(ChaosPlan::parse("meltdown:3").is_err());
        assert!(ChaosPlan::parse("salt=9").is_err());
        assert!(ChaosPlan::parse("").is_err());
        assert!(ChaosPlan::parse("panic:x").is_err());
        assert!(ChaosPlan::parse("crash@x:3").is_err());
        assert!(ChaosPlan::parse("rank=y").is_err());
    }

    #[test]
    fn crash_plan_parses_and_takes_precedence() {
        let p = ChaosPlan::parse("crash@2:5,rank=1,panic:1").unwrap();
        assert_eq!(p.crash_every, Some(5));
        assert_eq!(p.crash_level, 2);
        assert_eq!(p.crash_rank, 1);
        // Index 0 is hit by both (salt 3 shifts crash to indices ≡ 2 mod 5);
        // find a crash index and check it wins over the always-on panic.
        let crash_idx = (0..5)
            .find(|&i| matches!(p.action(i), ChaosAction::Crash { .. }))
            .unwrap();
        assert_eq!(
            p.action(crash_idx),
            ChaosAction::Crash { level: 2, rank: 1 }
        );
        let hits = (0..100)
            .filter(|&i| matches!(p.action(i), ChaosAction::Crash { .. }))
            .count();
        assert_eq!(hits, 20);
        // Bare crash defaults: level 1, rank 0, every request.
        let bare = ChaosPlan::parse("crash").unwrap();
        assert_eq!(bare.action(0), ChaosAction::Crash { level: 1, rank: 0 });
    }

    #[test]
    fn panic_takes_precedence_and_rate_is_periodic() {
        let p = ChaosPlan::parse("panic:4,slow:1").unwrap();
        let hits = (0..100)
            .filter(|&i| p.action(i) == ChaosAction::Panic)
            .count();
        assert_eq!(hits, 25);
        // Every non-panic request still slows: slow:1 fires always.
        assert!((0..100).all(|i| p.action(i) != ChaosAction::None));
    }

    #[test]
    fn action_tokens_round_trip() {
        for a in [
            ChaosAction::Panic,
            ChaosAction::Bitflip,
            ChaosAction::Slow(75),
            ChaosAction::Crash { level: 3, rank: 2 },
        ] {
            let tok = a.token().unwrap();
            assert_eq!(ChaosAction::from_token(&tok).unwrap(), a);
        }
        assert!(ChaosAction::from_token("meltdown").is_err());
        // A crash token is the fault-plan grammar's single crash, nothing more.
        for refused in [
            "drop@0:0-1x1",
            "degrade@1-2:0.5",
            "crash@1:rank0,seed=3",
            "crash@1:rank0,crash@2:rank1",
            "crash@x:rank1",
        ] {
            assert!(ChaosAction::from_token(refused).is_err(), "{refused}");
        }
        assert_eq!(ChaosAction::None.token(), None);
    }
}
