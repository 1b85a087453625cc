//! `xbfs trace summarize`: read back a recorded trace document.

use super::{exit_code, CliError};
use crate::args::Args;
use xbfs_telemetry::export::level_table;
use xbfs_telemetry::span::Attrs;
use xbfs_telemetry::{names, AttrValue, JsonValue};

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

/// A JSON object's scalar members as attributes (a whole number as `U64`).
fn attrs_of(obj: Option<&JsonValue>) -> Attrs {
    let value = |v: &JsonValue| match v {
        JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(AttrValue::U64(*n as u64)),
        JsonValue::Num(n) => Some(AttrValue::F64(*n)),
        JsonValue::Str(s) => Some(AttrValue::Str(s.clone())),
        JsonValue::Bool(b) => Some(AttrValue::Bool(*b)),
        _ => None,
    };
    let members = obj.and_then(JsonValue::as_obj).unwrap_or_default();
    let attrs = members
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), value(v)?)));
    attrs.collect()
}

/// The per-level table of a document's `level` span records: each
/// record's attributes (`attrs_key`), then its duration (`dur_key`, µs).
fn levels_of<'a>(
    records: impl Iterator<Item = &'a JsonValue>,
    attrs_key: &str,
    dur_key: &str,
) -> String {
    let rows: Vec<Attrs> = records
        .filter(|r| r.get("name").and_then(JsonValue::as_str) == Some(names::span::LEVEL))
        .map(|r| {
            let mut row = attrs_of(r.get(attrs_key));
            let dur_us = r.get(dur_key).and_then(JsonValue::as_f64).unwrap_or(0.0);
            row.push(("time_ms".into(), AttrValue::F64(dur_us / 1000.0)));
            row
        })
        .collect();
    level_table(&rows)
}

fn summarize_xbfs_trace(doc: &JsonValue) -> Result<String, String> {
    let mut out = String::from("xbfs-trace-v1\n");
    let summary = attrs_of(doc.get("summary"));
    let get = |key: &str| summary.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    if let Some(engine) = get("engine") {
        out.push_str(&format!("engine: {engine}"));
        for key in ["num_gcds", "vertices", "edges", "gteps"] {
            if let Some(v) = get(key) {
                out.push_str(&format!("  {key} {v}"));
            }
        }
        out.push('\n');
    }
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_arr)
        .ok_or("missing spans array")?;
    out.push_str(&levels_of(spans.iter(), "attrs", "dur_us"));
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
    out.push_str(&levels_of(with_ph("X"), "args", "dur"));
    out.push_str(&format!("total {:.4} ms\n", end_us / 1000.0));
    Ok(out)
}
