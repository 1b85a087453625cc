//! Bounded admission queue with explicit load shedding.
//!
//! The queue is the server's only buffer: when it is full the request is
//! *shed* — the client gets `overloaded` with a `retry_after_ms` hint —
//! rather than waiting on an unbounded backlog. Every accepted item gets
//! a monotonically increasing **ticket** under the queue lock, and
//! [`AdmissionQueue::pop`] hands items out in strict ticket order, so
//! admission is FIFO among accepted requests no matter how many worker
//! threads consume the queue.
//!
//! Lifecycle: `Open` (admit until full) → `Draining` (reject new, serve
//! what is queued) → empty, at which point blocked `pop`s return `None`
//! and workers exit. `close` is the abort hatch: queued items are dropped
//! and returned to the caller so no request vanishes silently.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Queue lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueState {
    /// Admitting requests (until the bound is hit).
    Open,
    /// Rejecting new requests; queued ones still get served.
    Draining,
    /// Terminal: nothing is admitted and `pop` returns `None` at once.
    Closed,
}

/// Outcome of one [`AdmissionQueue::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; the ticket fixes this request's FIFO position.
    Accepted {
        /// Monotonic sequence number assigned under the queue lock.
        ticket: u64,
    },
    /// Queue full: shed, with a backoff hint for the client.
    Shed {
        /// How long the client should wait before retrying, ms.
        retry_after_ms: u64,
    },
    /// The server is draining (or closed) and admits nothing new.
    Draining,
}

/// Counters the queue maintains under its own lock: its own invariants
/// (and the shed hint's spreading). Of these the server's books sample
/// only `depth` and `max_depth`, in one reading; admission outcomes are
/// counted once, at the decision sites, in the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests admitted (tickets issued).
    pub accepted: u64,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Requests rejected because the queue was draining/closed.
    pub rejected_draining: u64,
    /// Deepest backlog ever observed.
    pub max_depth: usize,
    /// Backlog depth at the moment of the snapshot.
    pub depth: usize,
}

struct Inner<T> {
    q: VecDeque<(u64, T)>,
    next_ticket: u64,
    state: QueueState,
    stats: QueueStats,
}

/// Bounded MPMC queue: any thread may submit, any worker may pop.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
    retry_after_ms: u64,
}

impl<T> AdmissionQueue<T> {
    /// A queue holding at most `cap` pending requests; shed responses
    /// carry `retry_after_ms` as the client backoff hint.
    pub fn new(cap: usize, retry_after_ms: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                next_ticket: 0,
                state: QueueState::Open,
                stats: QueueStats::default(),
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
            retry_after_ms,
        }
    }

    /// Locks are only ever held for O(1) bookkeeping, so a poisoned mutex
    /// can only mean a panic inside this module's own tiny critical
    /// sections; the data is still consistent and the serving layer must
    /// never abort, so we take the guard either way.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to admit one request. O(1); never blocks on capacity.
    pub fn submit(&self, item: T) -> Admission {
        let mut g = self.lock();
        match g.state {
            QueueState::Open => {}
            QueueState::Draining | QueueState::Closed => {
                g.stats.rejected_draining += 1;
                return Admission::Draining;
            }
        }
        if g.q.len() >= self.cap {
            g.stats.shed += 1;
            // Scale the hint with how oversubscribed we are so retries
            // spread out instead of synchronizing into a thundering herd.
            let factor = 1 + g.stats.shed % 4;
            return Admission::Shed {
                retry_after_ms: self.retry_after_ms * factor,
            };
        }
        let ticket = g.next_ticket;
        g.next_ticket += 1;
        g.q.push_back((ticket, item));
        g.stats.accepted += 1;
        g.stats.max_depth = g.stats.max_depth.max(g.q.len());
        drop(g);
        self.not_empty.notify_one();
        Admission::Accepted { ticket }
    }

    /// Block until an item is available, the queue drains empty, or it is
    /// closed. Returns items in strictly increasing ticket order.
    pub fn pop(&self) -> Option<(u64, T)> {
        let mut g = self.lock();
        loop {
            if let Some(pair) = g.q.pop_front() {
                return Some(pair);
            }
            match g.state {
                QueueState::Closed => return None,
                QueueState::Draining => return None, // empty + draining = done
                QueueState::Open => {
                    g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Block for the first item exactly like [`AdmissionQueue::pop`],
    /// then **linger** up to `linger` collecting more — the batching
    /// stage's coalescing primitive. Returns at most `max` items, in
    /// strictly increasing ticket order.
    ///
    /// The linger window is bounded and only ever applies once company
    /// already exists to wait for: if the queue holds `max` items they
    /// are returned immediately, and a drain/close ends the linger early
    /// so shutdown never waits out the window. A lone request therefore
    /// waits at most `linger` — never indefinitely — before running solo.
    pub fn pop_batch(&self, max: usize, linger: std::time::Duration) -> Option<Vec<(u64, T)>> {
        let first = self.pop()?;
        let mut out = vec![first];
        let max = max.max(1);
        if max == 1 {
            return Some(out);
        }
        let deadline = std::time::Instant::now() + linger;
        let mut g = self.lock();
        loop {
            while out.len() < max {
                match g.q.pop_front() {
                    Some(pair) => out.push(pair),
                    None => break,
                }
            }
            if out.len() >= max || g.state != QueueState::Open {
                return Some(out);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Some(out);
            }
            let (guard, _timed_out) = self
                .not_empty
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    /// Stop admitting; queued requests will still be served. Wakes every
    /// blocked `pop` so idle workers can observe the transition.
    pub fn drain(&self) {
        let mut g = self.lock();
        if g.state == QueueState::Open {
            g.state = QueueState::Draining;
        }
        drop(g);
        self.not_empty.notify_all();
    }

    /// Terminal close: stop admitting *and* return everything still
    /// queued, so the caller can answer (not lose) those requests.
    pub fn close(&self) -> Vec<(u64, T)> {
        let mut g = self.lock();
        g.state = QueueState::Closed;
        let left = g.q.drain(..).collect();
        drop(g);
        self.not_empty.notify_all();
        left
    }

    /// Current backlog depth.
    pub fn depth(&self) -> usize {
        self.lock().q.len()
    }

    /// Snapshot of the admission counters and the current depth.
    pub fn stats(&self) -> QueueStats {
        let g = self.lock();
        QueueStats {
            depth: g.q.len(),
            ..g.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_full_then_sheds() {
        let q = AdmissionQueue::new(2, 10);
        assert!(matches!(q.submit(1), Admission::Accepted { ticket: 0 }));
        assert!(matches!(q.submit(2), Admission::Accepted { ticket: 1 }));
        assert!(matches!(q.submit(3), Admission::Shed { .. }));
        let s = q.stats();
        assert_eq!((s.accepted, s.shed, s.max_depth), (2, 1, 2));
    }

    #[test]
    fn pop_is_fifo_by_ticket() {
        let q = AdmissionQueue::new(8, 10);
        for v in 0..5 {
            q.submit(v);
        }
        let mut last = None;
        while let Some((t, _)) = {
            q.drain();
            q.pop()
        } {
            if let Some(prev) = last {
                assert!(t > prev, "tickets must be strictly increasing");
            }
            last = Some(t);
        }
        assert_eq!(last, Some(4));
    }

    #[test]
    fn draining_rejects_new_but_serves_queued() {
        let q = AdmissionQueue::new(8, 10);
        q.submit("queued");
        q.drain();
        assert_eq!(q.submit("late"), Admission::Draining);
        assert_eq!(q.pop().map(|(_, v)| v), Some("queued"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().rejected_draining, 1);
    }

    #[test]
    fn close_returns_unserved_items() {
        let q = AdmissionQueue::new(8, 10);
        q.submit(7);
        q.submit(8);
        let left = q.close();
        assert_eq!(left.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [7, 8]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_batch_collects_available_up_to_max() {
        let q = AdmissionQueue::new(8, 10);
        for v in 0..5 {
            q.submit(v);
        }
        // A full batch returns immediately — no linger when already full.
        let t0 = std::time::Instant::now();
        let b = q
            .pop_batch(3, std::time::Duration::from_secs(5))
            .expect("items queued");
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(b.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [0, 1, 2]);
        // Remaining two come out in order even with a generous max.
        q.drain();
        let b2 = q
            .pop_batch(64, std::time::Duration::from_millis(1))
            .unwrap();
        assert_eq!(b2.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(q.pop_batch(64, std::time::Duration::from_millis(1)), None);
    }

    #[test]
    fn pop_batch_lingers_for_late_company() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::<u32>::new(8, 10));
        q.submit(1);
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            q2.submit(2);
        });
        let b = q
            .pop_batch(4, std::time::Duration::from_millis(500))
            .unwrap();
        h.join().unwrap();
        // The late arrival landed inside the linger window.
        assert_eq!(b.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn pop_batch_lone_request_bounded_by_window() {
        let q = AdmissionQueue::new(8, 10);
        q.submit(9);
        let t0 = std::time::Instant::now();
        let b = q
            .pop_batch(64, std::time::Duration::from_millis(25))
            .unwrap();
        let waited = t0.elapsed();
        assert_eq!(b.len(), 1);
        assert!(
            waited < std::time::Duration::from_secs(2),
            "lone request must not park: waited {waited:?}"
        );
    }

    #[test]
    fn pop_batch_width_one_skips_linger() {
        let q = AdmissionQueue::new(8, 10);
        q.submit(1);
        q.submit(2);
        let t0 = std::time::Instant::now();
        let b = q.pop_batch(1, std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(b.len(), 1);
        assert!(t0.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn blocked_pop_wakes_on_drain() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::<u32>::new(4, 10));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.drain();
        assert_eq!(h.join().unwrap(), None);
    }
}
