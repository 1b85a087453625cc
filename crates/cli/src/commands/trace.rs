//! `xbfs trace summarize`: read back a recorded trace document.

use super::{exit_code, CliError};
use crate::args::Args;
use xbfs_telemetry::{names, JsonValue};

pub(super) fn trace_cmd(args: &Args) -> Result<String, CliError> {
    match args.positional.first().map(String::as_str) {
        Some("summarize") => {
            let path = args
                .positional
                .get(1)
                .ok_or("usage: xbfs trace summarize FILE")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
            summarize_trace(&text)
                .map_err(|e| CliError::new(format!("{path}: {e}"), exit_code::INVALID_INPUT))
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown trace subcommand {other:?} (expected `summarize`)"
        ))),
        None => Err("usage: xbfs trace summarize FILE".into()),
    }
}

/// Summarize a recorded trace document (either `xbfs-trace-v1` JSON from
/// `--trace json:` or a chrome trace.json from `--trace chrome:`).
fn summarize_trace(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("not valid JSON ({e})"))?;
    if doc.get("schema").and_then(JsonValue::as_str) == Some("xbfs-trace-v1") {
        summarize_xbfs_trace(&doc)
    } else if doc.get("traceEvents").is_some() {
        summarize_chrome_trace(&doc)
    } else {
        Err("unrecognized document (expected xbfs-trace-v1 or Trace Event Format)".into())
    }
}

fn json_attr(v: &JsonValue, key: &str) -> String {
    match v.get(key) {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Num(n)) => format!("{n}"),
        Some(JsonValue::Bool(b)) => b.to_string(),
        _ => String::new(),
    }
}

/// Header of the per-level table both summaries print.
fn level_header() -> String {
    format!(
        "{:>5} {:>3} {:>12} {:>12} {:>10}\n",
        "level", "try", "mode", "frontier", "time ms"
    )
}

/// One row of that table, from a level span's attributes and duration.
fn level_row(attrs: &JsonValue, time_ms: f64) -> String {
    let or = |key: &str, fallback: String| match json_attr(attrs, key) {
        s if s.is_empty() => fallback,
        s => s,
    };
    format!(
        "{:>5} {:>3} {:>12} {:>12} {:>10.4}\n",
        json_attr(attrs, "level"),
        or("attempt", "0".into()),
        or("strategy", json_attr(attrs, "mode")),
        json_attr(attrs, "frontier_count"),
        time_ms,
    )
}

fn summarize_xbfs_trace(doc: &JsonValue) -> Result<String, String> {
    let mut out = String::from("xbfs-trace-v1\n");
    if let Some(summary) = doc.get("summary") {
        let engine = json_attr(summary, "engine");
        if !engine.is_empty() {
            out.push_str(&format!("engine: {engine}"));
            for key in ["num_gcds", "vertices", "edges", "gteps"] {
                let v = json_attr(summary, key);
                if !v.is_empty() {
                    out.push_str(&format!("  {key} {v}"));
                }
            }
            out.push('\n');
        }
    }
    let levels = doc
        .get("levels")
        .and_then(JsonValue::as_arr)
        .ok_or("missing levels array")?;
    out.push_str(&level_header());
    for l in levels {
        let time_ms = l.get("time_ms").and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.push_str(&level_row(l, time_ms));
    }
    let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]);
    let count_named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
            .count()
    };
    let events = doc.get("events").and_then(JsonValue::as_arr).unwrap_or(&[]);
    out.push_str(&format!(
        "{} spans ({} levels, {} kernels, {} collectives, {} checkpoints, \
         {} recoveries), {} events, {} counter samples\n",
        spans.len(),
        count_named(names::span::LEVEL),
        count_named(names::span::KERNEL),
        count_named(names::span::COLLECTIVE),
        count_named(names::span::CHECKPOINT),
        count_named(names::span::RECOVERY),
        events.len(),
        doc.get("counters")
            .and_then(JsonValue::as_arr)
            .map_or(0, |c| c.len()),
    ));
    out.push_str(&format!(
        "total {:.4} ms\n",
        doc.get("total_ms")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    ));
    Ok(out)
}

fn summarize_chrome_trace(doc: &JsonValue) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("traceEvents is not an array")?;
    let mut out = String::from("chrome trace.json (Trace Event Format)\n");
    let with_ph = |ph: &'static str| {
        events
            .iter()
            .filter(move |e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
    };
    let named = |name: &'static str| {
        with_ph("X").filter(move |e| e.get("name").and_then(JsonValue::as_str) == Some(name))
    };
    let mut end_us = 0.0f64;
    for e in with_ph("X") {
        let ts = e.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let dur = e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        end_us = end_us.max(ts + dur);
    }
    out.push_str(&format!(
        "{} span events ({} levels, {} kernels, {} collectives, {} recoveries), \
         {} instants, {} counter samples\n",
        with_ph("X").count(),
        named(names::span::LEVEL).count(),
        named(names::span::KERNEL).count(),
        named(names::span::COLLECTIVE).count(),
        named(names::span::RECOVERY).count(),
        with_ph("i").count(),
        with_ph("C").count(),
    ));
    out.push_str(&level_header());
    for l in named(names::span::LEVEL) {
        let args = l.get("args").cloned().unwrap_or(JsonValue::Obj(Vec::new()));
        let dur_us = l.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.push_str(&level_row(&args, dur_us / 1000.0));
    }
    out.push_str(&format!("total {:.4} ms\n", end_us / 1000.0));
    Ok(out)
}
