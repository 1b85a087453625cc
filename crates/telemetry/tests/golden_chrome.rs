//! Golden-file test: the chrome-trace exporter's output is deterministic,
//! byte-stable, and valid Trace Event Format JSON.
//!
//! "Parse it back" uses the crate's own `JsonValue` reader. Regenerate the golden file with
//! `BLESS=1 cargo test -p xbfs-telemetry --test golden_chrome`.

use xbfs_telemetry::export::TraceFormat;
use xbfs_telemetry::{names, AttrValue, JsonValue, Recorder, Trace};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_trace.json"
);

/// A miniature two-level BFS trace with one recovery, fixed timestamps.
fn reference_trace() -> Trace {
    let rec = Recorder::new();
    let run = rec.begin_span(None, names::span::RUN, 0, 0.0);
    rec.span_attr(run, "source", AttrValue::U64(1));
    rec.span_attr(run, "vertices", AttrValue::U64(16));

    let init = rec.begin_span(Some(run), names::span::INIT, 0, 0.0);
    rec.end_span(init, 2.0);

    for (i, (strategy, count)) in [("scan-free", 1u64), ("bottom-up", 9u64)]
        .iter()
        .enumerate()
    {
        let t0 = 2.0 + 10.0 * i as f64;
        let lvl = rec.begin_span(Some(run), names::span::LEVEL, 0, t0);
        rec.span_attr(lvl, "level", AttrValue::U64(i as u64));
        rec.span_attr(lvl, "strategy", AttrValue::Str((*strategy).into()));
        rec.span_attr(lvl, "frontier_count", AttrValue::U64(*count));
        rec.event(
            Some(lvl),
            names::event::STRATEGY_CHOICE,
            0,
            t0,
            vec![("ratio".into(), AttrValue::F64(0.05 * (i + 1) as f64))],
        );
        rec.counter(names::metric::FRONTIER_SIZE, 0, t0, *count as f64);
        let expand = rec.begin_span(Some(lvl), names::span::EXPAND, 0, t0);
        let k = rec.begin_span(Some(expand), names::span::KERNEL, 0, t0);
        rec.span_attr(k, "phase", AttrValue::Str(format!("level {i}")));
        rec.span_attr(k, "kernel", AttrValue::Str("fq_expand_thread".into()));
        rec.span_attr(k, "fetch_kb", AttrValue::F64(3.5));
        rec.end_span(k, t0 + 6.0);
        rec.end_span(expand, t0 + 7.0);
        rec.end_span(lvl, t0 + 9.0);
    }

    let recv = rec.begin_span(Some(run), names::span::RECOVERY, 0, 21.0);
    rec.span_attr(recv, "dead_rank", AttrValue::U64(1));
    rec.span_attr(recv, "policy", AttrValue::Str("spare".into()));
    rec.event(
        Some(recv),
        names::event::RECOVERY_RESTORE,
        0,
        22.0,
        vec![("restored_level".into(), AttrValue::U64(1))],
    );
    rec.end_span(recv, 23.0);
    rec.end_span(run, 24.0);
    rec.finish()
}

#[test]
fn chrome_export_matches_golden_file_and_parses_back() {
    let trace = reference_trace();
    trace.well_formed().expect("reference trace is well-formed");
    let exported = TraceFormat::Chrome.render(&trace);

    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &exported).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with BLESS=1 to create it");
    assert_eq!(
        exported, golden,
        "chrome-trace output drifted from the golden file (BLESS=1 to re-bless)"
    );

    // Parse back and validate Trace Event Format structure.
    let doc = JsonValue::parse(&exported).expect("exporter must emit valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph field");
        assert!(e.get("pid").and_then(JsonValue::as_f64).is_some(), "pid");
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
                assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
                assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            }
            "i" | "C" => {
                assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Every level span made it through with its strategy annotation.
    let levels: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(names::span::LEVEL))
        .collect();
    assert_eq!(levels.len(), 2);
    for l in levels {
        let args = l.get("args").expect("args");
        assert!(args.get("strategy").and_then(JsonValue::as_str).is_some());
        assert!(args
            .get("frontier_count")
            .and_then(JsonValue::as_f64)
            .is_some());
    }
    // The recovery span and restore event survive export.
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(names::span::RECOVERY)));
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str)
                == Some(names::event::RECOVERY_RESTORE))
    );
}
