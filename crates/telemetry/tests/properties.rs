//! Property tests for span nesting/ordering, the percentiles of the
//! live plane's bucketed [`LogHistogram`], the `xbfs-metrics-v1` wire
//! round trip, and the JSON writer against the JSON reader — then each
//! document this crate writes, on its worst input.

use proptest::prelude::*;
use xbfs_telemetry::export::TraceFormat;
use xbfs_telemetry::json::{self, Val};
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

/// Strings built to hurt: quotes, backslashes, every control character,
/// DEL, non-BMP scalars, and anything else below the surrogates.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..7, any::<u32>()), 0..24).prop_map(|picks| {
        let ch = |(kind, r): (u8, u32)| match kind {
            0 => '"',
            1 => '\\',
            2 => char::from_u32(r % 0x20).unwrap(),
            3 => '\u{7f}',
            4 => char::from_u32(0x1_0000 + r % 0x10_0000).unwrap(),
            _ => char::from_u32(r % 0xD800).unwrap(),
        };
        picks.into_iter().map(ch).collect()
    })
}

/// Floats that are not JSON or sit at the edges of what is, then any bit
/// pattern at all.
fn arb_f64() -> impl Strategy<Value = f64> {
    const EDGES: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        2e-308,
        1e308,
        f64::MAX,
        0.1 + 0.2,
    ];
    (0usize..12, any::<u64>()).prop_map(|(pick, bits)| match EDGES.get(pick) {
        Some(&edge) => edge,
        None => f64::from_bits(bits),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever goes through the writer comes back through the reader:
    /// strings (as values and as keys) exactly, finite floats exactly in
    /// the shortest form and to the stated precision in the fixed one,
    /// non-finite floats as `null` — nested arrays of objects, empty
    /// containers, skipped and spliced fields included. And the document
    /// is one line: no raw control byte survives, so a hostile string
    /// cannot break a line-delimited protocol.
    #[test]
    fn written_documents_read_back(
        strings in proptest::collection::vec(arb_string(), 0..5),
        floats in proptest::collection::vec(arb_f64(), 0..8),
    ) {
        const PLACES: [usize; 3] = [1, 3, 6];
        let doc = json::object(|o| {
            o.key("strings").arr(|a| strings.iter().for_each(|s| a.item().str(s)));
            o.key("keyed").obj(|k| {
                for (i, s) in strings.iter().enumerate() {
                    k.key(s).int(i);
                }
            });
            o.key("floats").arr(|a| {
                for &x in &floats {
                    a.item().obj(|f| {
                        f.key("shortest").f64(x);
                        f.key("fixed").arr(|p| PLACES.iter().for_each(|&n| p.item().fixed(x, n)));
                    });
                }
            });
            o.key("no_fields").obj(|_| {});
            o.key("no_items").arr(|_| {});
            o.opt("absent", None::<u64>, Val::int);
            o.opt("present", Some(true), Val::bool);
            o.key("spliced").raw("[1,{}]");
        });
        prop_assert!(doc.bytes().all(|b| b >= 0x20), "{doc:?}");
        let v = JsonValue::parse(&doc).expect("the writer emits valid JSON");

        let read: Vec<&str> = (v.get("strings").unwrap().as_arr().unwrap().iter())
            .map(|s| s.as_str().unwrap())
            .collect();
        prop_assert_eq!(&read, &strings);
        let keyed = v.get("keyed").unwrap().as_obj().unwrap();
        prop_assert_eq!(keyed.len(), strings.len());
        for (i, (key, n)) in keyed.iter().enumerate() {
            prop_assert_eq!((key, n.as_f64()), (&strings[i], Some(i as f64)));
        }

        let read = v.get("floats").unwrap().as_arr().unwrap();
        prop_assert_eq!(read.len(), floats.len());
        for (&x, got) in floats.iter().zip(read) {
            let shortest = got.get("shortest").unwrap();
            let fixed = got.get("fixed").unwrap().as_arr().unwrap();
            if !x.is_finite() {
                prop_assert_eq!(shortest, &JsonValue::Null);
                prop_assert!(fixed.iter().all(|f| *f == JsonValue::Null));
                continue;
            }
            prop_assert_eq!(shortest.as_f64().map(f64::to_bits), Some(x.to_bits()));
            for (&n, f) in PLACES.iter().zip(fixed) {
                let slack = 0.5 * 10f64.powi(-(n as i32)) + x.abs() * f64::EPSILON;
                prop_assert!((f.as_f64().unwrap() - x).abs() <= slack, "{x} at .{n}: {f:?}");
            }
        }

        prop_assert_eq!(v.get("no_fields"), Some(&JsonValue::Obj(vec![])));
        prop_assert_eq!(v.get("no_items"), Some(&JsonValue::Arr(vec![])));
        prop_assert_eq!(v.get("absent"), None);
        prop_assert_eq!(v.get("present"), Some(&JsonValue::Bool(true)));
        prop_assert_eq!(v.get("spliced").unwrap().as_arr().unwrap().len(), 2);
    }

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

/// Neither JSON sink can be talked out of emitting JSON: hostile
/// names and keys are escaped, a non-finite attr or sample is `null`
/// (and 0 where chrome plots it).
#[test]
fn json_sinks_survive_hostile_names_and_non_finite_values() {
    let rec = Recorder::new();
    let run = rec.begin_span(None, "run \"q\"\n\u{1}", 0, 0.0);
    rec.span_attr(run, "ratio\\", AttrValue::F64(f64::NAN));
    rec.span_attr(run, "note", AttrValue::Str("tab\t del\u{7f}".into()));
    let inf = vec![("x".into(), AttrValue::F64(f64::INFINITY))];
    rec.event(Some(run), "e", 0, 1.0, inf);
    rec.counter("c", 0, 1.0, f64::NEG_INFINITY);
    rec.end_span(run, 2.0);
    let t = rec.finish();

    let doc = JsonValue::parse(&TraceFormat::Json.render(&t)).expect("xbfs-trace-v1 stays JSON");
    let span = &doc.get("spans").and_then(JsonValue::as_arr).unwrap()[0];
    assert_eq!(
        span.get("name").and_then(JsonValue::as_str),
        Some("run \"q\"\n\u{1}")
    );
    let attrs = span.get("attrs").unwrap();
    assert_eq!(attrs.get("ratio\\"), Some(&JsonValue::Null));
    assert_eq!(
        attrs.get("note").and_then(JsonValue::as_str),
        Some("tab\t del\u{7f}")
    );
    let counter = &doc.get("counters").and_then(JsonValue::as_arr).unwrap()[0];
    assert_eq!(counter.get("value"), Some(&JsonValue::Null));

    let doc = JsonValue::parse(&TraceFormat::Chrome.render(&t)).expect("trace.json stays JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let ph = |p: &str| {
        let is = |e: &&JsonValue| e.get("ph").and_then(JsonValue::as_str) == Some(p);
        events.iter().find(is).unwrap().get("args").unwrap()
    };
    assert_eq!(ph("i").get("x"), Some(&JsonValue::Null));
    assert_eq!(ph("C").get("value").and_then(JsonValue::as_f64), Some(0.0));
}

/// The snapshot stays JSON — and stays readable by its own reader —
/// on its worst input: a label no one escaped by hand, a gauge that is
/// not a number, an uptime that is not one either.
#[test]
fn json_exposition_survives_hostile_labels_and_values() {
    let reg = MetricsRegistry::new();
    let label = "q\"uote \\ \n \u{1} \u{7f}";
    reg.gauge("g", MetricUnit::State, &[(label, label)])
        .set(f64::NAN);
    let mut snap = reg.snapshot();
    let back = |snap: &MetricsSnapshot| {
        let v = JsonValue::parse(&snap.to_json()).expect("valid JSON");
        (MetricsSnapshot::from_json(&v), v)
    };
    let (read, _) = back(&snap);
    let read = read.expect("a non-finite gauge still reads back");
    assert_eq!(read.series[0].labels, [(label.into(), label.into())]);
    assert_eq!(read.series[0].value, SeriesValue::Gauge(0.0));
    snap.uptime_ms = f64::INFINITY;
    assert_eq!(back(&snap).1.get("uptime_ms"), Some(&JsonValue::Null));
}
