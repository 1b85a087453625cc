//! Circuit breaker for the serving layer.
//!
//! Consecutive *uncorrected* failures (a request that exhausted its
//! quarantine-and-replay retries) trip the breaker. While open, BFS
//! requests are rejected immediately with a backoff hint — burning a
//! worker rebuild per request on a substrate that keeps failing helps
//! nobody. After a cooldown the breaker goes half-open: one probe request
//! is admitted; success closes the breaker, failure re-opens it for
//! another cooldown.

use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { since: Instant },
    HalfOpen { probe_out: bool },
}

struct Inner {
    state: State,
    consecutive_failures: u32,
    trips: u64,
    /// State-kind changes (closed/open/half-open), any direction.
    transitions: u64,
}

impl Inner {
    /// Change state, counting it as a transition when the state *kind*
    /// changes (probe_out toggles within half-open don't count).
    fn set_state(&mut self, next: State) {
        let changed = !matches!(
            (self.state, next),
            (State::Closed, State::Closed)
                | (State::Open { .. }, State::Open { .. })
                | (State::HalfOpen { .. }, State::HalfOpen { .. })
        );
        if changed {
            self.transitions += 1;
        }
        self.state = next;
    }
}

/// Trip-after-N-consecutive-failures breaker with cooldown + half-open
/// probing. All methods are O(1) under one small mutex.
pub struct CircuitBreaker {
    inner: Mutex<Inner>,
    threshold: u32,
    cooldown: Duration,
}

impl CircuitBreaker {
    /// Trips after `threshold` consecutive failures; stays open for
    /// `cooldown_ms` before letting a probe through.
    pub fn new(threshold: u32, cooldown_ms: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                state: State::Closed,
                consecutive_failures: 0,
                trips: 0,
                transitions: 0,
            }),
            threshold: threshold.max(1),
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// May this request proceed? `Err(retry_after_ms)` means reject fast.
    pub fn admit(&self) -> Result<(), u64> {
        let mut g = self.lock();
        match g.state {
            State::Closed => Ok(()),
            State::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cooldown {
                    g.set_state(State::HalfOpen { probe_out: true });
                    Ok(()) // this caller is the probe
                } else {
                    let left = self.cooldown - elapsed;
                    Err((left.as_millis() as u64).max(1))
                }
            }
            State::HalfOpen { probe_out: false } => {
                g.set_state(State::HalfOpen { probe_out: true });
                Ok(())
            }
            State::HalfOpen { probe_out: true } => Err((self.cooldown.as_millis() as u64).max(1)),
        }
    }

    /// Report a request that ended well (certified, or cleanly typed).
    pub fn record_success(&self) {
        let mut g = self.lock();
        g.consecutive_failures = 0;
        g.set_state(State::Closed);
    }

    /// Report a request that exhausted its retries. Returns `true` when
    /// this failure tripped the breaker open.
    pub fn record_failure(&self) -> bool {
        let mut g = self.lock();
        g.consecutive_failures += 1;
        let should_trip = match g.state {
            State::Closed => g.consecutive_failures >= self.threshold,
            // A failed half-open probe re-opens immediately.
            State::HalfOpen { .. } => true,
            State::Open { .. } => false,
        };
        if should_trip {
            g.set_state(State::Open {
                since: Instant::now(),
            });
            g.trips += 1;
        }
        should_trip
    }

    /// `(state, transitions, trips)` read under one lock, so a scrape never
    /// shows an open breaker without the trip that opened it. `state` is a
    /// stable gauge code (0 = closed, 1 = half-open, 2 = open);
    /// `transitions` counts state-kind changes in any direction.
    pub fn sample(&self) -> (u8, u64, u64) {
        let g = self.lock();
        let state = match g.state {
            State::Closed => 0,
            State::HalfOpen { .. } => 1,
            State::Open { .. } => 2,
        };
        (state, g.transitions, g.trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_and_rejects_fast() {
        let b = CircuitBreaker::new(3, 10_000);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure());
        assert_eq!(b.sample(), (2, 1, 1));
        assert!(b.admit().is_err());
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(2, 10_000);
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak must restart after success");
        assert!(b.admit().is_ok());
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = CircuitBreaker::new(1, 0); // cooldown elapses immediately
        assert!(b.record_failure());
        assert!(b.admit().is_ok(), "post-cooldown admit is the probe");
        b.record_success();
        assert!(b.admit().is_ok());
        assert_eq!(b.sample(), (0, 3, 1));
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(1, 0);
        b.record_failure();
        assert!(b.admit().is_ok());
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.sample(), (2, 3, 2));
    }

    #[test]
    fn state_codes_and_transitions_track_the_lifecycle() {
        let b = CircuitBreaker::new(1, 0);
        assert_eq!(b.sample(), (0, 0, 0));
        assert!(b.record_failure()); // closed -> open
        assert_eq!(b.sample(), (2, 1, 1));
        assert!(b.admit().is_ok()); // open -> half-open (probe)
        assert_eq!(b.sample(), (1, 2, 1));
        b.record_success(); // half-open -> closed
        assert_eq!(b.sample(), (0, 3, 1));
        // Redundant success: no state-kind change, no transition.
        b.record_success();
        assert_eq!(b.sample(), (0, 3, 1));
    }

    #[test]
    fn a_sample_is_never_torn() {
        // Threshold 1 and no admits: every failure is closed -> open (a
        // trip and a transition), every success open -> closed, so at any
        // instant `transitions == 2 * trips - [open]`. A sample pieced
        // together from separate lock acquisitions breaks that (trips from
        // after a failure, state and transitions from before it).
        let b = CircuitBreaker::new(1, 10_000);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let flipper = scope.spawn(|| {
                start.wait();
                for _ in 0..20_000 {
                    b.record_failure();
                    b.record_success();
                }
            });
            start.wait();
            while !flipper.is_finished() {
                let sample @ (state, transitions, trips) = b.sample();
                let open = u64::from(state == 2);
                assert!(trips >= open && transitions >= open, "{sample:?}");
                assert_eq!(transitions, 2 * trips - open, "{sample:?}");
            }
        });
        assert_eq!(b.sample(), (0, 40_000, 20_000));
    }
}
