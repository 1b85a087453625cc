//! The live metrics plane: an always-on, lock-light [`MetricsRegistry`]
//! of named counters, gauges and log-linear histograms.
//!
//! This is the *serving-time* complement of the [`crate::span`] recorder:
//! where spans are an opt-in, per-run trace on the modeled clock, the
//! registry is on from the first request and cheap enough to leave on —
//! every update is a relaxed atomic on a handle the caller got back at
//! registration (a histogram observation is two: its bucket and its
//! fixed-point sum). Nothing in the hot path takes a lock; the only
//! mutex guards registration and [`MetricsRegistry::snapshot`], both of
//! which are rare.
//!
//! Series are keyed by **name + labels** (`serve.requests_total` with
//! `status="ok"` and `status="error"` are distinct series of one family)
//! and carry a [`MetricUnit`] so exposition can name them honestly.
//! Snapshots are torn-read-free by construction: a counter is one 64-bit
//! atomic load, and a histogram's `count` is *derived* from its bucket
//! reads rather than kept in a second cell that could disagree with
//! them. Snapshots of the same histogram are mergeable — merging two
//! snapshots equals the snapshot of the concatenated sample stream —
//! which is what lets per-worker histograms roll up into one view.
//!
//! Exposition formats: Prometheus-style text ([`MetricsSnapshot::
//! to_prometheus`]) and a single-line `xbfs-metrics-v1` JSON object
//! ([`MetricsSnapshot::to_json`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, JsonValue};

/// The unit a metric is denominated in, carried alongside the value so
/// exposition (Prometheus text, `xbfs-metrics-v1` JSON, dashboards) can
/// label series honestly instead of guessing from the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricUnit {
    /// A dimensionless count (requests, events, items).
    #[default]
    Count,
    /// Bytes.
    Bytes,
    /// Milliseconds.
    Millis,
    /// Microseconds (the modeled device clock's native unit).
    Micros,
    /// An enumerated state code (e.g. worker 0=idle/1=running/2=quarantined).
    State,
}

impl MetricUnit {
    /// Stable lowercase token used in both exposition formats.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricUnit::Count => "count",
            MetricUnit::Bytes => "bytes",
            MetricUnit::Millis => "ms",
            MetricUnit::Micros => "us",
            MetricUnit::State => "state",
        }
    }

    /// Inverse of [`Self::as_str`].
    fn parse(token: &str) -> Option<Self> {
        use MetricUnit::*;
        [Count, Bytes, Millis, Micros, State]
            .into_iter()
            .find(|u| u.as_str() == token)
    }
}

/// A monotonic counter (adds only).
///
/// The value is a single `AtomicU64`, so a scrape observes it with one
/// 64-bit load — there is no paired cell (no separate count/sum, no unit
/// stored behind a lock) that could tear against it mid-update. The unit
/// is immutable metadata fixed at construction.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
    unit: MetricUnit,
}

impl Counter {
    /// A zeroed, dimensionless counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed counter denominated in `unit`.
    pub fn with_unit(unit: MetricUnit) -> Self {
        Self {
            value: AtomicU64::new(0),
            unit,
        }
    }

    /// The unit this counter was created with.
    pub fn unit(&self) -> MetricUnit {
        self.unit
    }

    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the counter to `total`, a monotone total some other
    /// component owns and this counter only samples. One `fetch_max`:
    /// idempotent, and racing samplers can never double-count or move it
    /// backwards. A series is either sampled or `add`ed to, never both.
    pub fn raise_to(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value: one atomic load, torn-read-free by construction.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (stores an `f64` via its bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge initialized to 0.0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raise a high-water gauge to `value` if that is higher. One
    /// `fetch_max` on the bit pattern, which orders like the number for
    /// the non-negative values a high-water mark takes.
    pub fn raise_to(&self, value: f64) {
        debug_assert!(value.is_sign_positive(), "negative bits order backwards");
        self.0.fetch_max(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^3 = 8 log-linear sub-buckets per octave,
/// bounding the relative bucket width (and hence any percentile error)
/// to 1/8 = 12.5% of the value.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Smallest resolved exponent: values below 2^-10 (≈ 0.001) share the
/// underflow bucket — finer than anything the serving plane measures.
const MIN_EXP: i32 = -10;
/// Largest resolved exponent: values at or above 2^34 (≈ 1.7e10) share
/// the overflow bucket.
const MAX_EXP: i32 = 34;
/// Resolved octaves between the two clamps.
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
/// Total buckets: underflow + resolved + overflow.
const BUCKETS: usize = OCTAVES * SUB + 2;
/// Fixed-point scale for the running sum (2^10 ≈ 3 decimal digits).
const SUM_SCALE: f64 = 1024.0;

/// Bucket index for one observation. Exact log-linear bucketing straight
/// from the IEEE-754 bit pattern: the exponent selects the octave, the
/// top [`SUB_BITS`] mantissa bits the sub-bucket — no float log, no
/// boundary rounding to reason about.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0; // zero, negative, NaN: underflow bucket
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUB + sub
}

/// `[lower, upper)` value bounds of bucket `i`. The underflow bucket is
/// `[0, 2^MIN_EXP)`; the overflow bucket's upper bound is infinite.
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (0.0, (MIN_EXP as f64).exp2());
    }
    if i >= BUCKETS - 1 {
        return ((MAX_EXP as f64).exp2(), f64::INFINITY);
    }
    let oct = (i - 1) / SUB;
    let sub = (i - 1) % SUB;
    let base = ((MIN_EXP + oct as i32) as f64).exp2();
    let lo = base * (1.0 + sub as f64 / SUB as f64);
    let hi = if sub + 1 == SUB {
        base * 2.0
    } else {
        base * (1.0 + (sub + 1) as f64 / SUB as f64)
    };
    (lo, hi)
}

/// Lock-free log-linear histogram: fixed bucket layout, one relaxed
/// bucket increment (plus a fixed-point sum increment) per observation.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    /// Running sum in fixed point (`value * 1024`), for means.
    sum_fp: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_fp: AtomicU64::new(0),
        }
    }

    /// Record one observation. Non-finite values are dropped; negatives
    /// and zeros land in the underflow bucket.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let clamped = v.clamp(0.0, (MAX_EXP as f64).exp2());
        self.sum_fp
            .fetch_add((clamped * SUM_SCALE) as u64, Ordering::Relaxed);
    }

    /// A mergeable, torn-read-free snapshot of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum_fp.load(Ordering::Relaxed) as f64 / SUM_SCALE,
        }
    }
}

/// Immutable bucket-count snapshot of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            sum: 0.0,
        }
    }

    /// Total observations — derived from the buckets, so it can never
    /// disagree with them.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations (fixed-point precision, see module docs).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }

    /// `[lower, upper)` bounds of the bucket holding the nearest-rank
    /// `q`-th percentile (`q` in 0..=100). The exact nearest-rank
    /// percentile of the recorded stream is guaranteed to lie inside.
    pub fn percentile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bounds(i));
            }
        }
        None
    }

    /// Conservative (upper-bound) percentile estimate for display.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.percentile_bounds(q).map(|(lo, hi)| {
            if hi.is_finite() {
                hi
            } else {
                lo // overflow bucket: report its lower bound
            }
        })
    }

    /// Elementwise merge: `a.merge(&b)` equals the snapshot of the
    /// concatenated stream (the property test holds this to account).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Non-empty buckets as `(index, count)` pairs (sparse form).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// `[lower, upper)` value bounds of bucket `i` (for exposition).
    pub fn bounds_of(i: usize) -> (f64, f64) {
        bucket_bounds(i)
    }
}

/// One series' identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

/// The three instrument kinds a series can be.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LogHistogram>),
}

/// Always-on, lock-light registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create under a
/// mutex and returns a shared handle; updates go through the handle and
/// never touch the registry again. Registering the same name+labels
/// twice returns the same handle — and panics if the kinds disagree,
/// since that is a naming bug worth failing loudly on.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    series: Mutex<BTreeMap<SeriesKey, (MetricUnit, Instrument)>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry; uptime counts from here.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            series: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<SeriesKey, (MetricUnit, Instrument)>> {
        self.series.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get-or-register a monotonic counter series.
    pub fn counter(&self, name: &str, unit: MetricUnit, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut g = self.lock();
        let entry = g
            .entry(key(name, labels))
            .or_insert_with(|| {
                (
                    unit,
                    Instrument::Counter(Arc::new(Counter::with_unit(unit))),
                )
            })
            .clone();
        drop(g);
        match entry.1 {
            Instrument::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Get-or-register a last-value gauge series.
    pub fn gauge(&self, name: &str, unit: MetricUnit, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut g = self.lock();
        let entry = g
            .entry(key(name, labels))
            .or_insert_with(|| (unit, Instrument::Gauge(Arc::new(Gauge::new()))))
            .clone();
        drop(g);
        match entry.1 {
            Instrument::Gauge(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Get-or-register a log-linear histogram series.
    pub fn histogram(
        &self,
        name: &str,
        unit: MetricUnit,
        labels: &[(&str, &str)],
    ) -> Arc<LogHistogram> {
        let mut g = self.lock();
        let entry = g
            .entry(key(name, labels))
            .or_insert_with(|| (unit, Instrument::Histogram(Arc::new(LogHistogram::new()))))
            .clone();
        drop(g);
        match entry.1 {
            Instrument::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// One consistent snapshot of every registered series. The registry
    /// lock is held only to clone the handle list; the atomic reads
    /// happen outside it and each value is one 64-bit load.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries: Vec<(SeriesKey, MetricUnit, Instrument)> = self
            .lock()
            .iter()
            .map(|(k, (u, i))| (k.clone(), *u, i.clone()))
            .collect();
        let series = entries
            .into_iter()
            .map(|(k, unit, inst)| SeriesSnapshot {
                name: k.name,
                labels: k.labels,
                unit,
                value: match inst {
                    Instrument::Counter(c) => SeriesValue::Counter(c.get()),
                    Instrument::Gauge(g) => SeriesValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot {
            uptime_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            series,
        }
    }
}

/// One series, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Canonical dotted series name (e.g. `serve.requests_total`).
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The unit the series was registered with.
    pub unit: MetricUnit,
    /// The frozen value.
    pub value: SeriesValue,
}

impl SeriesSnapshot {
    /// The value of one label, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        let (_, v) = self.labels.iter().find(|(k, _)| k == key)?;
        Some(v)
    }
}

/// The frozen value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Last-set gauge value.
    Gauge(f64),
    /// Bucketed histogram state.
    Histogram(HistogramSnapshot),
}

/// Everything a scrape returns: uptime plus one entry per series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Milliseconds since the registry was created.
    pub uptime_ms: f64,
    /// All series, sorted by (name, labels).
    pub series: Vec<SeriesSnapshot>,
}

/// `a.b.c{x="y"}` → `xbfs_a_b_c` with Prometheus-safe characters.
fn prom_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 5);
    s.push_str("xbfs_");
    for ch in name.chars() {
        s.push(if ch.is_ascii_alphanumeric() { ch } else { '_' });
    }
    s
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "'")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

impl MetricsSnapshot {
    /// Look one series up by name and labels (test/tooling helper).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels.iter().all(|&(k, v)| s.label(k) == Some(v))
        })
    }

    /// Every series of one family (across labels).
    pub fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SeriesSnapshot> {
        self.series.iter().filter(move |s| s.name == name)
    }

    /// Sum every counter series of one family (across labels).
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.family(name)
            .filter_map(|s| match s.value {
                SeriesValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// One counter's value; 0 when the series is absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels).map(|s| &s.value) {
            Some(&SeriesValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// One gauge's value; `None` when the series is absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels).map(|s| &s.value) {
            Some(&SeriesValue::Gauge(v)) => Some(v),
            _ => None,
        }
    }

    /// One histogram's buckets; `None` when the series is absent.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.find(name, labels).map(|s| &s.value) {
            Some(SeriesValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Rebuild a snapshot from a decoded `xbfs-metrics-v1` object (the
    /// value under `"metrics"` in a `metrics` reply, or a `/metrics.json`
    /// body): the inverse of [`Self::to_json`]. `uptime_ms` and histogram
    /// sums come back to the three decimals that format prints, counters
    /// exactly up to 2^53, and histograms from their sparse buckets — so
    /// `quantile` over the result reproduces the emitted `p50`/`p99`.
    /// `None` when the format marker, a unit or a kind is not one
    /// `to_json` writes, or a bucket index is out of range.
    pub fn from_json(v: &JsonValue) -> Option<Self> {
        if v.get("format")?.as_str()? != "xbfs-metrics-v1" {
            return None;
        }
        let series = v.get("series")?.as_arr()?.iter().map(|s| {
            let num = |k: &str| s.get(k)?.as_f64();
            let value = match s.get("kind")?.as_str()? {
                "counter" => SeriesValue::Counter(num("value")? as u64),
                "gauge" => SeriesValue::Gauge(num("value")?),
                "histogram" => {
                    let mut h = HistogramSnapshot::empty();
                    h.sum = num("sum")?;
                    for pair in s.get("buckets")?.as_arr()? {
                        let [idx, count] = pair.as_arr()? else {
                            return None;
                        };
                        *h.counts.get_mut(idx.as_f64()? as usize)? = count.as_f64()? as u64;
                    }
                    SeriesValue::Histogram(h)
                }
                _ => return None,
            };
            Some(SeriesSnapshot {
                name: s.get("name")?.as_str()?.to_string(),
                labels: (s.get("labels")?.as_obj()?.iter())
                    .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect::<Option<_>>()?,
                unit: MetricUnit::parse(s.get("unit")?.as_str()?)?,
                value,
            })
        });
        Some(Self {
            uptime_ms: v.get("uptime_ms")?.as_f64()?,
            series: series.collect::<Option<_>>()?,
        })
    }

    /// Prometheus-style text exposition.
    ///
    /// Counters keep their registered name (the canonical names already
    /// end in `_total`), histograms expand to `_bucket{le=…}` / `_sum` /
    /// `_count`, gauges are plain samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for s in &self.series {
            let base = prom_name(&s.name);
            if base != last_family {
                let kind = match s.value {
                    SeriesValue::Counter(_) => "counter",
                    SeriesValue::Gauge(_) => "gauge",
                    SeriesValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                out.push_str(&format!("# UNIT {base} {}\n", s.unit.as_str()));
                last_family = base.clone();
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    out.push_str(&format!("{base}{} {v}\n", prom_labels(&s.labels, None)));
                }
                SeriesValue::Gauge(v) => {
                    out.push_str(&format!("{base}{} {v}\n", prom_labels(&s.labels, None)));
                }
                SeriesValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, c) in h.nonzero_buckets() {
                        cum += c;
                        let (_, hi) = HistogramSnapshot::bounds_of(i);
                        let le = if hi.is_finite() {
                            format!("{hi:.6}")
                        } else {
                            "+Inf".into()
                        };
                        out.push_str(&format!(
                            "{base}_bucket{} {cum}\n",
                            prom_labels(&s.labels, Some(("le", le)))
                        ));
                    }
                    out.push_str(&format!(
                        "{base}_sum{} {:.3}\n",
                        prom_labels(&s.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{base}_count{} {}\n",
                        prom_labels(&s.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// The `xbfs-metrics-v1` JSON object (single line, no trailing
    /// newline). Histograms carry sparse buckets plus derived
    /// count/sum/p50/p99 so dashboards need no bucket math.
    pub fn to_json(&self) -> String {
        json::object(|doc| {
            doc.key("format").str("xbfs-metrics-v1");
            doc.key("uptime_ms").fixed(self.uptime_ms, 3);
            doc.key("series").arr(|series| {
                for sr in &self.series {
                    series.item().obj(|o| sr.write_json(o));
                }
            });
        })
    }
}

impl SeriesSnapshot {
    fn write_json(&self, o: &mut json::Obj<'_>) {
        o.key("name").str(&self.name);
        o.key("labels").obj(|l| {
            for (k, v) in &self.labels {
                l.key(k).str(v);
            }
        });
        o.key("unit").str(self.unit.as_str());
        match &self.value {
            SeriesValue::Counter(v) => {
                o.key("kind").str("counter");
                o.key("value").int(*v);
            }
            SeriesValue::Gauge(v) => {
                o.key("kind").str("gauge");
                // `from_json` (and `xbfs top` behind it) reads a number
                // here, so a non-finite gauge is reported as 0, not `null`.
                o.key("value").f64(if v.is_finite() { *v } else { 0.0 });
            }
            SeriesValue::Histogram(h) => {
                o.key("kind").str("histogram");
                o.key("count").int(h.count());
                o.key("sum").fixed(h.sum(), 3);
                o.key("p50").fixed(h.quantile(50.0).unwrap_or(0.0), 6);
                o.key("p99").fixed(h.quantile(99.0).unwrap_or(0.0), 6);
                o.key("buckets").arr(|buckets| {
                    for (idx, c) in h.nonzero_buckets() {
                        buckets.item().arr(|pair| {
                            pair.item().int(idx);
                            pair.item().int(c);
                        });
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert_eq!(c.unit(), MetricUnit::Count);
        let b = Counter::with_unit(MetricUnit::Bytes);
        b.add(1024);
        assert_eq!(b.get(), 1024);
        assert_eq!(b.unit(), MetricUnit::Bytes);
        let g = Gauge::new();
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn raise_to_samples_an_owners_total_once_and_never_backwards() {
        let c = Counter::new();
        c.raise_to(10);
        c.raise_to(10); // a racing sampler read the same total
        c.raise_to(7); // a stale sampler read an older one
        c.raise_to(15);
        assert_eq!(c.get(), 15);
        let g = Gauge::new();
        g.raise_to(3.0);
        g.raise_to(2.5);
        g.raise_to(64.0);
        assert_eq!(g.get(), 64.0);
    }

    /// Regression test for scrape consistency: concurrent scrapes of a
    /// counter under heavy write load must only ever observe monotone,
    /// exact intermediate values — a torn read (e.g. a 32-bit half
    /// update, or a value/unit pair read across an update) would show
    /// up as a regression or an impossible value.
    #[test]
    fn counter_scrapes_are_monotone_under_concurrent_writes() {
        use std::sync::Arc;

        const WRITERS: usize = 4;
        const ADDS_PER_WRITER: u64 = 50_000;
        const DELTA: u64 = 0x1_0000_0001; // straddles the 32-bit boundary

        let c = Arc::new(Counter::with_unit(MetricUnit::Bytes));
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..ADDS_PER_WRITER {
                        c.add(DELTA);
                    }
                })
            })
            .collect();

        // Scrape continuously while the writers run.
        let mut last = 0u64;
        loop {
            let v = c.get();
            assert!(v >= last, "scrape went backwards: {last} -> {v}");
            assert_eq!(
                v % DELTA,
                0,
                "torn read: {v} is not a multiple of the delta"
            );
            assert_eq!(c.unit(), MetricUnit::Bytes);
            last = v;
            if v == WRITERS as u64 * ADDS_PER_WRITER * DELTA {
                break;
            }
            std::thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), WRITERS as u64 * ADDS_PER_WRITER * DELTA);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let values = [
            0.0, 1e-9, 0.0009, 0.001, 0.01, 0.5, 1.0, 1.1, 1.9, 2.0, 3.0, 1000.0, 1e9, 1e12,
        ];
        let mut last = 0;
        for &v in &values {
            let i = bucket_index(v);
            assert!(i >= last, "index must be monotone in value ({v})");
            assert!(i < BUCKETS);
            last = i;
            if v > 0.0 {
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v < hi, "{v} outside [{lo},{hi}) of bucket {i}");
            }
        }
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_percentile_bounds_contain_exact_value() {
        let h = LogHistogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        for q in [0.0f64, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((q / 100.0 * 1000.0).ceil() as usize).clamp(1, 1000);
            let exact = samples[rank - 1];
            let (lo, hi) = snap.percentile_bounds(q).unwrap();
            assert!(
                lo <= exact && exact < hi,
                "p{q}: exact {exact} outside [{lo},{hi})"
            );
            // Bucket error bound: width ≤ 1/SUB of the lower bound.
            assert!(hi - lo <= lo / SUB as f64 + 1e-9);
        }
    }

    #[test]
    fn snapshots_merge_like_concatenation() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let all = LogHistogram::new();
        for i in 0..500 {
            let v = (i as f64 * 0.73).exp().min(1e8) % 997.0 + 0.01;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter(
            "serve.requests_total",
            MetricUnit::Count,
            &[("status", "ok")],
        );
        let c2 = reg.counter(
            "serve.requests_total",
            MetricUnit::Count,
            &[("status", "ok")],
        );
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.get(), 7);
        let snap = reg.snapshot();
        let s = snap
            .find("serve.requests_total", &[("status", "ok")])
            .unwrap();
        assert_eq!(s.value, SeriesValue::Counter(7));
        assert_eq!(s.unit, MetricUnit::Count);
        // A different label set is a different series.
        reg.counter(
            "serve.requests_total",
            MetricUnit::Count,
            &[("status", "error")],
        )
        .add(1);
        assert_eq!(
            reg.snapshot().counter_family_total("serve.requests_total"),
            8
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", MetricUnit::Count, &[]);
        reg.gauge("x", MetricUnit::Count, &[]);
    }

    #[test]
    fn prometheus_exposition_has_families_and_buckets() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "serve.requests_total",
            MetricUnit::Count,
            &[("status", "ok")],
        )
        .add(5);
        reg.gauge("serve.queue_depth", MetricUnit::Count, &[])
            .set(3.0);
        let h = reg.histogram("serve.latency_ms", MetricUnit::Millis, &[]);
        h.record(1.5);
        h.record(200.0);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE xbfs_serve_requests_total counter"));
        assert!(text.contains("xbfs_serve_requests_total{status=\"ok\"} 5"));
        assert!(text.contains("xbfs_serve_queue_depth 3"));
        assert!(text.contains("xbfs_serve_latency_ms_bucket"));
        assert!(text.contains("xbfs_serve_latency_ms_count 2"));
    }

    #[test]
    fn json_exposition_is_parseable_and_tagged() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b_total", MetricUnit::Bytes, &[("k", "v")])
            .add(9);
        reg.histogram("h.ms", MetricUnit::Millis, &[]).record(4.0);
        let json = reg.snapshot().to_json();
        let v = crate::json::JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("format").and_then(|f| f.as_str()),
            Some("xbfs-metrics-v1")
        );
        let arr = v.get("series").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("kind").and_then(|k| k.as_str()), Some("counter"));
        assert_eq!(arr[0].get("value").and_then(|x| x.as_f64()), Some(9.0));
        assert_eq!(
            arr[1].get("kind").and_then(|k| k.as_str()),
            Some("histogram")
        );
        assert_eq!(arr[1].get("count").and_then(|x| x.as_f64()), Some(1.0));
    }
}
