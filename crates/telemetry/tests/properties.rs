//! Property tests for span nesting/ordering, the percentiles of the
//! live plane's bucketed [`LogHistogram`], and the `xbfs-metrics-v1`
//! wire round trip.

use proptest::prelude::*;
use xbfs_telemetry::{
    AttrValue, JsonValue, LogHistogram, MetricUnit, MetricsRegistry, MetricsSnapshot, Recorder,
    SeriesValue,
};

/// A random well-nested span program: at each step either open a child of
/// the current span, close the current span, or emit an event/counter.
/// Timestamps are strictly increasing, so the recorded trace must always
/// validate.
fn arb_program() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_well_nested_programs_validate(ops in arb_program(), tracks in 1usize..4) {
        let rec = Recorder::new();
        let mut clock = 0.0f64;
        let mut stack = vec![rec.begin_span(None, "run", 0, clock)];
        for (i, op) in ops.iter().enumerate() {
            clock += 1.0 + (i % 3) as f64;
            let track = i % tracks;
            match op {
                0 => {
                    let parent = stack.last().copied();
                    let id = rec.begin_span(parent, "span", track, clock);
                    rec.span_attr(id, "i", AttrValue::U64(i as u64));
                    stack.push(id);
                }
                1 => {
                    // Close the innermost span, but never the root.
                    if stack.len() > 1 {
                        rec.end_span(stack.pop().unwrap(), clock);
                    }
                }
                2 => rec.event(stack.last().copied(), "event", track, clock, Vec::new()),
                _ => rec.counter("metric", track, clock, i as f64),
            }
        }
        // Unwind whatever is still open, innermost first.
        while let Some(id) = stack.pop() {
            clock += 1.0;
            rec.end_span(id, clock);
        }
        let trace = rec.finish();
        trace.well_formed().expect("well-nested program must validate");

        // Ordering: ids are assigned in open order, so start times are
        // non-decreasing in id order.
        for w in trace.spans.windows(2) {
            prop_assert!(w[0].start_us <= w[1].start_us);
        }
        // Every child is temporally enclosed by its parent.
        for s in &trace.spans {
            if s.parent != 0 {
                let p = &trace.spans[s.parent as usize - 1];
                prop_assert!(s.start_us >= p.start_us);
                prop_assert!(s.end_us.unwrap() <= p.end_us.unwrap());
            }
        }
    }

    /// Log-linear bucket percentiles bracket the exact nearest-rank
    /// percentile of the recorded stream, and the bracket is never wider
    /// than one bucket (≤ 12.5% relative width in the resolved range).
    #[test]
    fn log_histogram_percentile_bounds_bracket_exact(
        raw in proptest::collection::vec(1u64..20_000_000, 1..300),
        pq in 0u32..10_001,
    ) {
        // Spread samples over ~9 orders of magnitude: 1e-4 .. 2e4.
        let mut samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 1e3 / 1e1).collect();
        let q = pq as f64 / 100.0; // 0.00..=100.00
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);

        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len();
        // Exact nearest-rank percentile of the stream.
        let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        let exact = samples[rank - 1];

        let (lo, hi) = snap.percentile_bounds(q).unwrap();
        prop_assert!(lo <= exact && exact < hi,
                     "p{}: exact {} outside bucket [{}, {})", q, exact, lo, hi);
        // Bucket error bound: width ≤ lo/8 once past the underflow bucket.
        if lo > 0.0 && hi.is_finite() {
            prop_assert!(hi - lo <= lo / 8.0 + 1e-12,
                         "bucket [{}, {}) wider than 12.5%", lo, hi);
        }
        // The displayed quantile is within one bucket of exact too.
        let shown = snap.quantile(q).unwrap();
        prop_assert!(shown >= exact && shown <= exact * (1.0 + 1.0 / 8.0) + 1e-12);
    }

    /// Merging snapshots is exactly concatenation: recording one stream
    /// split across two histograms and merging their snapshots yields
    /// the snapshot of the whole stream (counts, sum, and therefore
    /// every percentile).
    #[test]
    fn log_histogram_merge_equals_concatenated_stream(
        raw in proptest::collection::vec(0u64..2_000_000_000, 0..300),
        split in 0u32..=100,
    ) {
        let samples: Vec<f64> = raw.iter().map(|&v| v as f64 / 1e4).collect();
        let cut = samples.len() * split as usize / 100;
        let (left, right) = samples.split_at(cut);

        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let whole = LogHistogram::new();
        for &s in left {
            a.record(s);
        }
        for &s in right {
            b.record(s);
        }
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }

    /// A snapshot survives the wire: `from_json` over `to_json` gives
    /// back every series with its name, labels, unit and value — counters
    /// and gauges exactly, histograms bucket for bucket, so the
    /// percentiles a remote reader computes are the server's own;
    /// `uptime_ms` and histogram sums to the three decimals the format
    /// prints.
    #[test]
    fn metrics_snapshot_survives_the_wire(
        counters in proptest::collection::vec(0u64..(1 << 53), 0..6),
        gauges in proptest::collection::vec(0u64..4_000_000_000, 0..6),
        streams in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000_000_000, 0..40), 0..4),
    ) {
        let reg = MetricsRegistry::new();
        for (i, &v) in counters.iter().enumerate() {
            reg.counter("c.events_total", MetricUnit::Bytes, &[("k", &i.to_string())]).add(v);
        }
        for (i, &v) in gauges.iter().enumerate() {
            // Fractional, and negative about half the time.
            reg.gauge("g.level", MetricUnit::State, &[("k", &i.to_string())])
                .set(v as f64 / 1e3 - 2e6);
        }
        for (i, stream) in streams.iter().enumerate() {
            let labels = [("k", i.to_string()), ("status", "ok".to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let h = reg.histogram("h.wait_ms", MetricUnit::Millis, &labels);
            for &v in stream {
                h.record(v as f64 / 1e4);
            }
        }
        let sent = reg.snapshot();
        let wire = JsonValue::parse(&sent.to_json()).expect("to_json emits valid JSON");
        let got = MetricsSnapshot::from_json(&wire).expect("from_json reads what to_json wrote");

        prop_assert!((got.uptime_ms - sent.uptime_ms).abs() <= 0.000_501);
        prop_assert_eq!(got.series.len(), sent.series.len());
        for (a, b) in sent.series.iter().zip(&got.series) {
            prop_assert_eq!((&a.name, &a.labels, a.unit), (&b.name, &b.labels, b.unit));
            match (&a.value, &b.value) {
                (SeriesValue::Histogram(x), SeriesValue::Histogram(y)) => {
                    prop_assert_eq!(
                        x.nonzero_buckets().collect::<Vec<_>>(),
                        y.nonzero_buckets().collect::<Vec<_>>()
                    );
                    prop_assert!((x.sum() - y.sum()).abs() <= 0.000_501);
                    for q in [50.0, 99.0] {
                        prop_assert_eq!(x.quantile(q), y.quantile(q));
                    }
                }
                (x, y) => prop_assert_eq!(x, y),
            }
        }
    }
}
