//! In-memory spans recorded by the harness around its calls into each
//! layer, written out once when the run ends.
//!
//! Every query gets a root `query` span (id = the request id) whose
//! children are `client.write`, then `server.roundtrip` or
//! `core.xbfs.run`, then `oracle.bfs`. Times are microseconds of the host
//! clock since the traced phase began. A span's self time is its
//! duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Request id shared by every span of one query.
    pub id: u64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// Pre-rendered JSON object of attributes (modeled per-level rows).
    pub attrs: Option<String>,
}

/// Span sink for one traced phase. When disabled every call is a no-op,
/// so the measured loops carry one branch per span, not two code paths.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
            attrs: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Attach attributes to a recorded span.
    pub fn set_attrs(&mut self, span: Option<usize>, attrs: impl FnOnce() -> String) {
        if let Some(i) = span {
            self.spans[i].attrs = Some(attrs());
        }
    }

    /// Self time per span: duration minus the children's durations.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// `(sum of root durations, sum of all self times)`, µs. Equal when
    /// no child outlives or overlaps its siblings' share of the parent.
    pub fn coverage(&self) -> (f64, f64) {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_us - s.start_us)
            .sum();
        (roots, self.self_times().iter().sum())
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_us - s.start_us;
            e.2 += self_us;
        }
        let (root_us, self_us) = self.coverage();
        let mut out = format!(
            "{{\"format\":\"xbfs-perf-trace-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"clock\":\"host_us_since_phase_start\",\"root_total_us\":{root_us:.3},\
             \"self_total_us\":{self_us:.3},\"by_name\":{{"
        );
        for (i, (name, (count, total, own))) in by_name.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_us\":{total:.3},\"self_us\":{own:.3}}}"
            );
        }
        out.push_str("},\"spans\":[\n");
        for (i, (s, self_us)) in self.spans.iter().zip(&own).enumerate() {
            let sep = if i > 0 { ",\n" } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"self_us\":{self_us:.3}",
                s.name, s.id, s.start_us, s.end_us
            );
            if let Some(a) = &s.attrs {
                let _ = write!(out, ",\"attrs\":{a}");
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::enabled();
        let t0 = t.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = t.span("query", 7, None, at(0), at(100));
        t.span("core.xbfs.run", 7, root, at(5), at(65));
        let o = t.span("oracle.bfs", 7, root, at(65), at(95));
        t.set_attrs(o, || "{\"k\":1}".into());
        assert_eq!(t.self_times(), vec![10.0, 60.0, 30.0]);
        let (roots, own) = t.coverage();
        assert_eq!((roots, own), (100.0, 100.0));
        let json = t.to_json("w", 1);
        let v = xbfs_telemetry::JsonValue::parse(&json).expect("trace is valid JSON");
        assert_eq!(v.get("spans").and_then(|s| s.as_arr()).unwrap().len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let now = Instant::now();
        assert_eq!(t.span("query", 1, None, now, now), None);
        t.set_attrs(None, || unreachable!());
        assert_eq!(t.coverage(), (0.0, 0.0));
    }
}
