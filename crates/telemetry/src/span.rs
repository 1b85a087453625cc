//! Hierarchical spans, instant events and counter samples, recorded by a
//! thread-safe [`Recorder`] on the *modeled* device timeline.
//!
//! Timestamps are caller-supplied microseconds (the simulated GCD clock,
//! `Device::elapsed_us`), not wall-clock, so traces are deterministic and
//! byte-identical across runs — which is what makes golden-file testing
//! and cross-run diffing possible. A span is always modeled time; the one
//! wall-clock rendering, `serve --trace`, holds only instants (the flight
//! recorder's events, replayed at drain).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Opaque handle to an open (or closed) span.
///
/// Handles from a disabled recorder are [`SpanId::NONE`]; passing them back
/// into any recorder method is a cheap no-op, so instrumentation sites never
/// need to branch on whether tracing is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The null span: returned by disabled recorders, never recorded.
    pub const NONE: SpanId = SpanId(0);

    /// True for the null span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (counts, sizes, levels).
    U64(u64),
    /// Floating point (times, ratios, percentages).
    F64(f64),
    /// Short string (strategy names, policies).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl AttrValue {
    /// Write as a JSON value (a non-finite float as `null`).
    pub fn write_json(&self, slot: crate::json::Val<'_>) {
        match self {
            AttrValue::U64(v) => slot.int(*v),
            AttrValue::F64(v) => slot.f64(*v),
            AttrValue::Str(s) => slot.str(s),
            AttrValue::Bool(b) => slot.bool(*b),
        }
    }

    /// The value as a number (0 for a string or a flag).
    pub fn as_f64(&self) -> f64 {
        match self {
            AttrValue::U64(v) => *v as f64,
            AttrValue::F64(v) => *v,
            _ => 0.0,
        }
    }
}

macro_rules! attr_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for AttrValue {
            fn from(v: $t) -> Self {
                AttrValue::$variant(v.into())
            }
        }
    )*};
}
attr_from!(u64 => U64, u32 => U64, f64 => F64, bool => Bool, String => Str, &str => Str);

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

/// An [`Attrs`] list written as a table: `attrs!["level" => 3u32,
/// "mode" => "pull"]`. Values go through `AttrValue::from`.
#[macro_export]
macro_rules! attrs {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key.to_string(), $crate::AttrValue::from($value))),*]
    };
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Attribute list (insertion-ordered).
pub type Attrs = Vec<(String, AttrValue)>;

/// One recorded span: a named, timed region on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Id (1-based; index into [`Trace::spans`] is `id - 1`).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (see [`crate::names::span`]).
    pub name: String,
    /// Track the span runs on (GCD rank for multi-GCD, 0 otherwise).
    pub track: usize,
    /// Start, modeled microseconds.
    pub start_us: f64,
    /// End, modeled microseconds (`None` while still open).
    pub end_us: Option<f64>,
    /// Typed attributes in insertion order.
    pub attrs: Attrs,
}

impl SpanRecord {
    /// Duration in microseconds (0 while open).
    pub fn dur_us(&self) -> f64 {
        self.end_us.map_or(0.0, |e| e - self.start_us)
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One instant event (zero duration) on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Enclosing span id (0 = none).
    pub span: u64,
    /// Event name (see [`crate::names::event`]).
    pub name: String,
    /// Track the event belongs to.
    pub track: usize,
    /// Timestamp, modeled microseconds.
    pub ts_us: f64,
    /// Typed attributes.
    pub attrs: Attrs,
}

impl EventRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One counter sample: a named time series point.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterRecord {
    /// Metric name (see [`crate::names::metric`]).
    pub name: String,
    /// Track the sample belongs to.
    pub track: usize,
    /// Timestamp, modeled microseconds.
    pub ts_us: f64,
    /// Sampled value.
    pub value: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    counters: Vec<CounterRecord>,
}

/// Thread-safe telemetry recorder.
///
/// A `Recorder` is either *enabled* (every call appends to the trace) or
/// *disabled* (every call returns after one relaxed atomic load — the
/// "no-op sink" a server started without `--trace` renders into).
/// Methods take `&self`, so one recorder can be shared across threads.
pub struct Recorder {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An enabled recorder.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A disabled recorder: all recording calls are no-ops.
    pub fn disabled() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether this recorder is collecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned recorder (panicking test thread) still yields its
        // partial trace rather than cascading the panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a span. `parent = None` makes a root span.
    pub fn begin_span(
        &self,
        parent: Option<SpanId>,
        name: &str,
        track: usize,
        start_us: f64,
    ) -> SpanId {
        if !self.is_enabled() {
            return SpanId::NONE;
        }
        let mut inner = self.lock();
        let id = inner.spans.len() as u64 + 1;
        inner.spans.push(SpanRecord {
            id,
            parent: parent.map_or(0, |p| p.0),
            name: name.to_string(),
            track,
            start_us,
            end_us: None,
            attrs: Vec::new(),
        });
        SpanId(id)
    }

    /// Attach an attribute to an open or closed span.
    pub fn span_attr(&self, id: SpanId, key: &str, value: AttrValue) {
        if !self.is_enabled() || id.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(s) = inner.spans.get_mut(id.0 as usize - 1) {
            s.attrs.push((key.to_string(), value));
        }
    }

    /// Attach a list of attributes, in order.
    pub fn span_attrs(&self, id: SpanId, attrs: Attrs) {
        if !self.is_enabled() || id.is_none() {
            return;
        }
        if let Some(s) = self.lock().spans.get_mut(id.0 as usize - 1) {
            s.attrs.extend(attrs);
        }
    }

    /// Close a span at `end_us`.
    pub fn end_span(&self, id: SpanId, end_us: f64) {
        if !self.is_enabled() || id.is_none() {
            return;
        }
        let mut inner = self.lock();
        if let Some(s) = inner.spans.get_mut(id.0 as usize - 1) {
            s.end_us = Some(end_us.max(s.start_us));
        }
    }

    /// Record an instant event.
    pub fn event(&self, span: Option<SpanId>, name: &str, track: usize, ts_us: f64, attrs: Attrs) {
        if !self.is_enabled() {
            return;
        }
        self.lock().events.push(EventRecord {
            span: span.map_or(0, |s| s.0),
            name: name.to_string(),
            track,
            ts_us,
            attrs,
        });
    }

    /// Record a counter sample.
    pub fn counter(&self, name: &str, track: usize, ts_us: f64, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().counters.push(CounterRecord {
            name: name.to_string(),
            track,
            ts_us,
            value,
        });
    }

    /// Snapshot the recorded trace (open spans stay open in the snapshot).
    pub fn finish(&self) -> Trace {
        let inner = self.lock();
        Trace {
            spans: inner.spans.clone(),
            events: inner.events.clone(),
            counters: inner.counters.clone(),
        }
    }
}

/// An immutable snapshot of everything a [`Recorder`] collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Spans in id order (id = index + 1).
    pub spans: Vec<SpanRecord>,
    /// Instant events in recording order.
    pub events: Vec<EventRecord>,
    /// Counter samples in recording order.
    pub counters: Vec<CounterRecord>,
}

impl Trace {
    /// Root spans (no parent), in id order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.parent == 0)
    }

    /// Direct children of `id`, in id order.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// Spans with the given name, in id order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Events with the given name, in recording order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// End-to-end extent of the trace, microseconds.
    pub fn duration_us(&self) -> f64 {
        let start = self
            .spans
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let end = self
            .spans
            .iter()
            .filter_map(|s| s.end_us)
            .fold(0.0f64, f64::max);
        if start.is_finite() {
            (end - start).max(0.0)
        } else {
            0.0
        }
    }

    /// Structural validation: every span closed with `end >= start`,
    /// every parent exists, children are temporally enclosed by their
    /// parent (within `eps` microseconds), and ids are dense and ordered.
    pub fn well_formed(&self) -> Result<(), String> {
        let eps = 1e-9;
        for (i, s) in self.spans.iter().enumerate() {
            if s.id != i as u64 + 1 {
                return Err(format!("span #{i} has id {} (expected {})", s.id, i + 1));
            }
            let Some(end) = s.end_us else {
                return Err(format!("span {} ({:?}) never ended", s.id, s.name));
            };
            if end + eps < s.start_us {
                return Err(format!(
                    "span {} ({:?}) ends before it starts: [{}, {end}]",
                    s.id, s.name, s.start_us
                ));
            }
            if s.parent != 0 {
                let Some(p) = self.spans.get(s.parent as usize - 1) else {
                    return Err(format!("span {} has unknown parent {}", s.id, s.parent));
                };
                if p.id >= s.id {
                    return Err(format!(
                        "span {} opened before its parent {} (ids must nest)",
                        s.id, p.id
                    ));
                }
                if s.start_us + eps < p.start_us || p.end_us.is_some_and(|pe| end > pe + eps) {
                    return Err(format!(
                        "span {} ({:?}) [{}, {end}] escapes parent {} ({:?}) [{}, {:?}]",
                        s.id, s.name, s.start_us, p.id, p.name, p.start_us, p.end_us
                    ));
                }
            }
        }
        for e in &self.events {
            if e.span != 0 && self.spans.get(e.span as usize - 1).is_none() {
                return Err(format!("event {:?} has unknown span {}", e.name, e.span));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nested_spans_events_and_counters() {
        let rec = Recorder::new();
        let run = rec.begin_span(None, "run", 0, 0.0);
        rec.span_attr(run, "source", AttrValue::U64(7));
        let lvl = rec.begin_span(Some(run), "level", 0, 1.0);
        rec.event(
            Some(lvl),
            "strategy.choice",
            0,
            1.0,
            vec![("strategy".into(), AttrValue::Str("scan-free".into()))],
        );
        rec.counter("frontier.size", 0, 1.0, 42.0);
        rec.end_span(lvl, 5.0);
        rec.end_span(run, 6.0);
        let t = rec.finish();
        t.well_formed().expect("well-formed");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.roots().count(), 1);
        assert_eq!(t.children(run.0).count(), 1);
        assert_eq!(t.spans[0].attr("source"), Some(&AttrValue::U64(7)));
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.counters[0].value, 42.0);
        assert!((t.duration_us() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let rec = Recorder::disabled();
        let id = rec.begin_span(None, "run", 0, 0.0);
        assert!(id.is_none());
        rec.span_attr(id, "k", AttrValue::Bool(true));
        rec.event(Some(id), "e", 0, 0.0, Vec::new());
        rec.counter("c", 0, 0.0, 1.0);
        rec.end_span(id, 1.0);
        let t = rec.finish();
        assert!(t.spans.is_empty() && t.events.is_empty() && t.counters.is_empty());
    }

    #[test]
    fn well_formed_rejects_open_and_escaping_spans() {
        let rec = Recorder::new();
        let run = rec.begin_span(None, "run", 0, 0.0);
        assert!(rec.finish().well_formed().is_err(), "open span");
        rec.end_span(run, 1.0);
        let child = rec.begin_span(Some(run), "level", 0, 0.5);
        rec.end_span(child, 2.0); // escapes parent [0, 1]
        assert!(rec.finish().well_formed().is_err(), "escaping child");
    }

    #[test]
    fn end_clamps_to_start() {
        let rec = Recorder::new();
        let s = rec.begin_span(None, "x", 0, 5.0);
        rec.end_span(s, 3.0);
        assert_eq!(rec.finish().spans[0].end_us, Some(5.0));
    }

    #[test]
    fn shared_across_threads() {
        let rec = std::sync::Arc::new(Recorder::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let s = rec.begin_span(None, "worker", t, t as f64);
                    rec.counter("c", t, t as f64, 1.0);
                    rec.end_span(s, t as f64 + 1.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = rec.finish();
        t.well_formed().expect("well-formed");
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.counters.len(), 4);
    }
}
