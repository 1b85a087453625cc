//! Crash-forensics flight recorder: a fixed-size ring of recent events
//! per lane (one lane per worker plus a control lane), cheap enough to
//! leave on and dumped to text only when something goes wrong — a
//! worker panic, an engine quarantine, or a breaker trip.
//!
//! This deliberately is *not* the span recorder: spans trace one run on
//! the modeled clock; the flight recorder remembers the last N things
//! each worker did on the wall clock, so a post-mortem can see what led
//! up to a failure without having had tracing enabled. Recording is one
//! short mutex hold on the lane's own ring (lanes never contend with
//! each other), and the ring overwrites oldest-first so memory is fixed
//! regardless of uptime. `serve --trace` is a rendering of these rings:
//! at drain the server replays [`FlightRecorder::events`] into a
//! `Recorder` as one instant per event, on its lane's track.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One remembered event: wall-clock offset, lane, kind tag, free text.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Milliseconds since the recorder was created.
    pub at_ms: f64,
    /// Lane the event was recorded on.
    pub lane: usize,
    /// Short machine-readable kind (e.g. `request.start`, `panic`).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

struct Lane {
    ring: Mutex<VecDeque<FlightEvent>>,
}

/// Fixed-memory multi-lane event ring. Lane `0..lanes-1` are workers;
/// by convention the last lane is the control plane (accept loop,
/// breaker, drain). Use [`FlightRecorder::control_lane`] to address it.
pub struct FlightRecorder {
    started: Instant,
    cap_per_lane: usize,
    lanes: Vec<Lane>,
    sequence: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("lanes", &self.lanes.len())
            .field("cap_per_lane", &self.cap_per_lane)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `worker_lanes + 1` lanes (the extra one is the
    /// control lane) remembering up to `cap_per_lane` events each.
    pub fn new(worker_lanes: usize, cap_per_lane: usize) -> Self {
        let cap = cap_per_lane.max(1);
        Self {
            started: Instant::now(),
            cap_per_lane: cap,
            lanes: (0..worker_lanes + 1)
                .map(|_| Lane {
                    ring: Mutex::new(VecDeque::with_capacity(cap)),
                })
                .collect(),
            sequence: AtomicU64::new(0),
        }
    }

    /// Index of the control lane.
    pub fn control_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Record one event on `lane` (out-of-range lanes fold into the
    /// control lane rather than being lost). The ring drops its oldest
    /// entry once full.
    pub fn note(&self, lane: usize, kind: &str, detail: impl Into<String>) {
        let lane = lane.min(self.control_lane());
        let ev = FlightEvent {
            at_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            lane,
            kind: kind.to_string(),
            detail: detail.into(),
        };
        let mut ring = self.lanes[lane]
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap_per_lane {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// All remembered events, merged across lanes in time order.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = self
            .lanes
            .iter()
            .flat_map(|l| {
                l.ring
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        all
    }

    /// Monotone dump sequence number (distinguishes dump files created
    /// within the same millisecond).
    pub fn next_dump_seq(&self) -> u64 {
        self.sequence.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Render the merged rings as a text post-mortem. `reason` heads
    /// the dump; lanes render as `w0..wN` and `ctl`.
    pub fn render(&self, reason: &str) -> String {
        let ctl = self.control_lane();
        let mut out = format!(
            "xbfs flight recorder dump\nreason: {reason}\nuptime_ms: {:.1}\nlanes: {} workers + control\n\n",
            self.started.elapsed().as_secs_f64() * 1000.0,
            ctl,
        );
        let events = self.events();
        if events.is_empty() {
            out.push_str("(no events recorded)\n");
            return out;
        }
        out.push_str(&format!(
            "{:>12}  {:>4}  {:<24}  detail\n",
            "at_ms", "lane", "kind"
        ));
        for ev in events {
            let lane = if ev.lane == ctl {
                "ctl".to_string()
            } else {
                format!("w{}", ev.lane)
            };
            out.push_str(&format!(
                "{:>12.3}  {:>4}  {:<24}  {}\n",
                ev.at_ms, lane, ev.kind, ev.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_caps_per_lane_and_keeps_newest() {
        let fr = FlightRecorder::new(2, 3);
        for i in 0..10 {
            fr.note(0, "tick", format!("n{i}"));
        }
        fr.note(1, "other", "x");
        let evs = fr.events();
        // Lane 0 capped at 3 (newest survive), lane 1 has 1.
        assert_eq!(evs.len(), 4);
        let lane0: Vec<&str> = evs
            .iter()
            .filter(|e| e.lane == 0)
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(lane0, ["n7", "n8", "n9"]);
    }

    #[test]
    fn out_of_range_lane_folds_into_control() {
        let fr = FlightRecorder::new(2, 8);
        fr.note(99, "breaker.open", "trip");
        let evs = fr.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].lane, fr.control_lane());
    }

    #[test]
    fn render_is_chronological_and_headed() {
        let fr = FlightRecorder::new(1, 8);
        fr.note(0, "request.start", "id=a");
        fr.note(fr.control_lane(), "breaker.trip", "3 consecutive failures");
        fr.note(0, "panic", "worker panicked: boom");
        let text = fr.render("worker-panic");
        assert!(text.starts_with("xbfs flight recorder dump\nreason: worker-panic\n"));
        let start = text.find("request.start").unwrap();
        let trip = text.find("breaker.trip").unwrap();
        let panic = text
            .find("panic  ")
            .unwrap_or_else(|| text.rfind("panic").unwrap());
        assert!(start < trip && trip < panic);
        assert!(text.contains("  ctl  "));
        assert!(text.contains("  w0  "));
    }

    #[test]
    fn dump_sequence_is_monotone() {
        let fr = FlightRecorder::new(1, 4);
        assert_eq!(fr.next_dump_seq(), 1);
        assert_eq!(fr.next_dump_seq(), 2);
    }
}
