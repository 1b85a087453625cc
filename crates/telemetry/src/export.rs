//! Trace exporters: one [`TraceSink`] trait, four formats.
//!
//! * [`TableSink`] — the human-readable per-level breakdown printed by the
//!   CLI (the paper's Tables III–V shape).
//! * [`JsonSink`] — machine-readable `xbfs-trace-v1` JSON; this is the
//!   format the `BENCH_*.json` perf snapshots and `xbfs trace summarize`
//!   consume.
//! * [`ChromeTraceSink`] — chrome://tracing / Perfetto `trace.json`
//!   (Trace Event Format): spans become `"ph":"X"` complete events, instant
//!   events `"ph":"i"`, counters `"ph":"C"`, with one process per track.
//! * [`RocprofCsvSink`] — rocprofiler-style kernel CSV (one row per
//!   dispatch, RFC-4180 comma escaping); what `bfs --trace csv:PATH` writes.

use crate::json::{self, Obj};
use crate::names;
use crate::span::{AttrValue, SpanRecord, Trace};

/// A trace output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable per-level table.
    Table,
    /// `xbfs-trace-v1` JSON.
    Json,
    /// chrome://tracing `trace.json`.
    Chrome,
    /// rocprofiler-style kernel CSV.
    RocprofCsv,
}

impl TraceFormat {
    /// Parse a `--trace` spec of the form `<fmt>:<path>` where `<fmt>` is
    /// `table`, `json`, `chrome` or `csv` (alias `rocprof`) and `<path>`
    /// is a file path or `-` for stdout. Returns the format and the path.
    pub fn parse(spec: &str) -> Result<(TraceFormat, String), String> {
        let Some((fmt, path)) = spec.split_once(':') else {
            return Err(format!(
                "bad trace spec {spec:?}: expected <fmt>:<path> with fmt one of \
                 table|json|chrome|csv (path `-` = stdout)"
            ));
        };
        if path.is_empty() {
            return Err(format!("bad trace spec {spec:?}: empty path"));
        }
        let fmt = match fmt {
            "table" => TraceFormat::Table,
            "json" => TraceFormat::Json,
            "chrome" => TraceFormat::Chrome,
            "csv" | "rocprof" => TraceFormat::RocprofCsv,
            other => return Err(format!("unknown trace format {other:?}")),
        };
        Ok((fmt, path.to_string()))
    }

    /// The sink implementing this format.
    pub fn sink(&self) -> Box<dyn TraceSink> {
        match self {
            TraceFormat::Table => Box::new(TableSink),
            TraceFormat::Json => Box::new(JsonSink),
            TraceFormat::Chrome => Box::new(ChromeTraceSink),
            TraceFormat::RocprofCsv => Box::new(RocprofCsvSink),
        }
    }
}

/// Renders a finished [`Trace`] to text in one format.
pub trait TraceSink {
    /// Short format name (matches the `--trace` spec keyword).
    fn name(&self) -> &'static str;
    /// Render the trace.
    fn export(&self, trace: &Trace) -> String;
}

fn write_attrs(o: &mut Obj<'_>, attrs: &[(String, AttrValue)]) {
    for (k, v) in attrs {
        v.write_json(o.key(k));
    }
}

/// Quote a CSV field per RFC 4180 when it contains a comma, quote or
/// newline.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Machine-readable `xbfs-trace-v1` JSON.
pub struct JsonSink;

impl TraceSink for JsonSink {
    fn name(&self) -> &'static str {
        "json"
    }

    fn export(&self, trace: &Trace) -> String {
        json::object(|doc| {
            doc.key("schema").str("xbfs-trace-v1");
            doc.key("total_ms").f64(trace.duration_us() / 1000.0);
            // Summary: the root `run` span's attributes, flattened.
            doc.key("summary").obj(|o| {
                if let Some(run) = trace.spans_named(names::span::RUN).next() {
                    write_attrs(o, &run.attrs);
                }
            });
            // Per-level convenience rows (level spans, flattened).
            doc.key("levels").arr(|levels| {
                for s in trace.spans_named(names::span::LEVEL) {
                    levels.item().obj(|o| {
                        o.key("start_ms").f64(s.start_us / 1000.0);
                        o.key("time_ms").f64(s.dur_us() / 1000.0);
                        o.key("track").int(s.track);
                        write_attrs(o, &s.attrs);
                    });
                }
            });
            // Full-fidelity records.
            doc.key("spans").arr(|spans| {
                for s in &trace.spans {
                    spans.item().obj(|o| {
                        o.key("id").int(s.id);
                        o.key("parent").int(s.parent);
                        o.key("name").str(&s.name);
                        o.key("track").int(s.track);
                        o.key("start_us").f64(s.start_us);
                        o.key("dur_us").f64(s.dur_us());
                        o.key("attrs").obj(|a| write_attrs(a, &s.attrs));
                    });
                }
            });
            doc.key("events").arr(|events| {
                for e in &trace.events {
                    events.item().obj(|o| {
                        o.key("name").str(&e.name);
                        o.key("span").int(e.span);
                        o.key("track").int(e.track);
                        o.key("ts_us").f64(e.ts_us);
                        o.key("attrs").obj(|a| write_attrs(a, &e.attrs));
                    });
                }
            });
            doc.key("counters").arr(|counters| {
                for c in &trace.counters {
                    counters.item().obj(|o| {
                        o.key("name").str(&c.name);
                        o.key("track").int(c.track);
                        o.key("ts_us").f64(c.ts_us);
                        o.key("value").f64(c.value);
                    });
                }
            });
        })
    }
}

/// chrome://tracing Trace Event Format.
pub struct ChromeTraceSink;

impl TraceSink for ChromeTraceSink {
    fn name(&self) -> &'static str {
        "chrome"
    }

    fn export(&self, trace: &Trace) -> String {
        let mut events: Vec<String> = Vec::new();
        // One "process" per track, named for readability in Perfetto.
        let mut tracks: Vec<usize> = trace
            .spans
            .iter()
            .map(|s| s.track)
            .chain(trace.events.iter().map(|e| e.track))
            .chain(trace.counters.iter().map(|c| c.track))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            events.push(json::object(|o| {
                o.key("ph").str("M");
                o.key("pid").int(*t);
                o.key("name").str("process_name");
                o.key("args")
                    .obj(|a| a.key("name").str(format_args!("GCD {t}")));
            }));
        }
        for s in &trace.spans {
            events.push(json::object(|o| {
                o.key("ph").str("X");
                o.key("name").str(&s.name);
                o.key("cat").str("span");
                o.key("pid").int(s.track);
                o.key("tid").int(0u32);
                o.key("ts").f64(s.start_us);
                o.key("dur").f64(s.dur_us());
                o.key("args").obj(|a| write_attrs(a, &s.attrs));
            }));
        }
        for e in &trace.events {
            events.push(json::object(|o| {
                o.key("ph").str("i");
                o.key("s").str("t");
                o.key("name").str(&e.name);
                o.key("cat").str("event");
                o.key("pid").int(e.track);
                o.key("tid").int(0u32);
                o.key("ts").f64(e.ts_us);
                o.key("args").obj(|a| write_attrs(a, &e.attrs));
            }));
        }
        for c in &trace.counters {
            // A counter track needs a number to plot: a non-finite sample
            // is drawn at 0 rather than written as `null`.
            let value = if c.value.is_finite() { c.value } else { 0.0 };
            events.push(json::object(|o| {
                o.key("ph").str("C");
                o.key("name").str(&c.name);
                o.key("pid").int(c.track);
                o.key("ts").f64(c.ts_us);
                o.key("args").obj(|a| a.key("value").f64(value));
            }));
        }
        // One event per line — the layout the golden file pins — is the one
        // thing here the compact writer does not do, so the array is joined
        // by hand and spliced in whole.
        json::object(|o| {
            o.key("displayTimeUnit").str("ms");
            o.key("traceEvents")
                .raw(&format!("[{}]", events.join(",\n")));
        })
    }
}

fn attr_str(s: &SpanRecord, key: &str) -> String {
    s.attr(key).map(|v| v.to_string()).unwrap_or_default()
}

/// Human-readable per-level table.
pub struct TableSink;

impl TraceSink for TableSink {
    fn name(&self) -> &'static str {
        "table"
    }

    fn export(&self, trace: &Trace) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>5} {:>12} {:>12} {:>14} {:>12} {:>10} {:>10}  {}\n",
            "level", "mode", "frontier", "front-edges", "ratio", "time ms", "fetch KB", "notes"
        ));
        for s in trace.spans_named(names::span::LEVEL) {
            let mode = {
                let m = attr_str(s, "strategy");
                if m.is_empty() {
                    attr_str(s, "mode")
                } else {
                    m
                }
            };
            let mut notes: Vec<String> = Vec::new();
            if s.attr("used_nfg") == Some(&AttrValue::Bool(false)) {
                notes.push("gen-scan".into());
            }
            if s.attr("checkpointed") == Some(&AttrValue::Bool(true)) {
                notes.push("ckpt".into());
            }
            if let Some(AttrValue::U64(a)) = s.attr("attempt") {
                if *a > 0 {
                    notes.push(format!("retry#{a}"));
                }
            }
            let fetch = trace
                .children(s.id)
                .filter(|c| c.name == names::span::KERNEL)
                .filter_map(|c| match c.attr("fetch_kb") {
                    Some(AttrValue::F64(v)) => Some(*v),
                    _ => None,
                })
                // Not `.sum()`: an empty f64 sum is -0.0, and a cluster
                // level has no kernel spans.
                .fold(0.0, |acc, v| acc + v);
            // The cluster engine puts the ratio on the level's
            // strategy-choice event, not on the span.
            let ratio = s.attr("ratio").or_else(|| {
                trace
                    .events_named(names::event::STRATEGY_CHOICE)
                    .find(|e| e.span == s.id)
                    .and_then(|e| e.attr("ratio"))
            });
            out.push_str(&format!(
                "{:>5} {:>12} {:>12} {:>14} {:>12} {:>10.4} {:>10.1}  {}\n",
                attr_str(s, "level"),
                mode,
                attr_str(s, "frontier_count"),
                attr_str(s, "frontier_edges"),
                match ratio {
                    Some(AttrValue::F64(r)) => format!("{r:.3e}"),
                    _ => String::new(),
                },
                s.dur_us() / 1000.0,
                fetch,
                notes.join(" ")
            ));
        }
        let n_recoveries = trace.spans_named(names::span::RECOVERY).count();
        if n_recoveries > 0 {
            out.push_str(&format!("recoveries: {n_recoveries}\n"));
        }
        out.push_str(&format!("total {:.4} ms\n", trace.duration_us() / 1000.0));
        out
    }
}

/// rocprofiler-style kernel CSV (one row per `kernel` span).
pub struct RocprofCsvSink;

/// One column per `gcd_sim::KernelReport` field the paper's tables use.
const CSV_HEADER: &str =
    "phase,kernel,runtime_ms,l2_hit_pct,mem_busy_pct,fetch_kb,instructions,atomics,hbm_lines,occupancy";

impl TraceSink for RocprofCsvSink {
    fn name(&self) -> &'static str {
        "csv"
    }

    fn export(&self, trace: &Trace) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        let num = |s: &SpanRecord, key: &str| -> f64 {
            match s.attr(key) {
                Some(AttrValue::F64(v)) => *v,
                Some(AttrValue::U64(v)) => *v as f64,
                _ => 0.0,
            }
        };
        for s in trace.spans_named(names::span::KERNEL) {
            out.push_str(&format!(
                "{},{},{:.6},{:.3},{:.3},{:.3},{},{},{},{:.3}\n",
                csv_field(&attr_str(s, "phase")),
                csv_field(&attr_str(s, "kernel")),
                s.dur_us() / 1000.0,
                num(s, "l2_hit_pct"),
                num(s, "mem_busy_pct"),
                num(s, "fetch_kb"),
                num(s, "instructions") as u64,
                num(s, "atomics") as u64,
                num(s, "hbm_lines") as u64,
                num(s, "occupancy"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use crate::span::Recorder;

    fn sample_trace() -> Trace {
        let rec = Recorder::new();
        let run = rec.begin_span(None, names::span::RUN, 0, 0.0);
        rec.span_attr(run, "source", AttrValue::U64(3));
        let lvl = rec.begin_span(Some(run), names::span::LEVEL, 0, 1.0);
        rec.span_attr(lvl, "level", AttrValue::U64(0));
        rec.span_attr(lvl, "strategy", AttrValue::Str("scan-free".into()));
        rec.span_attr(lvl, "frontier_count", AttrValue::U64(1));
        let k = rec.begin_span(Some(lvl), names::span::KERNEL, 0, 1.0);
        rec.span_attr(k, "phase", AttrValue::Str("level 0, attempt 1".into()));
        rec.span_attr(k, "kernel", AttrValue::Str("fq_expand_thread".into()));
        rec.span_attr(k, "fetch_kb", AttrValue::F64(12.5));
        rec.end_span(k, 2.0);
        rec.end_span(lvl, 4.0);
        rec.event(
            Some(lvl),
            names::event::STRATEGY_CHOICE,
            0,
            1.0,
            vec![("ratio".into(), AttrValue::F64(0.001))],
        );
        rec.counter(names::metric::FRONTIER_SIZE, 0, 1.0, 1.0);
        rec.end_span(run, 5.0);
        rec.finish()
    }

    #[test]
    fn parse_specs() {
        assert_eq!(
            TraceFormat::parse("chrome:trace.json").unwrap(),
            (TraceFormat::Chrome, "trace.json".into())
        );
        assert_eq!(
            TraceFormat::parse("json:-").unwrap(),
            (TraceFormat::Json, "-".into())
        );
        assert_eq!(
            TraceFormat::parse("rocprof:k.csv").unwrap().0,
            TraceFormat::RocprofCsv
        );
        assert!(TraceFormat::parse("chrome").is_err());
        assert!(TraceFormat::parse("chrome:").is_err());
        assert!(TraceFormat::parse("bogus:x").is_err());
    }

    #[test]
    fn json_sink_is_parseable_and_complete() {
        let t = sample_trace();
        let doc = JsonValue::parse(&JsonSink.export(&t)).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("xbfs-trace-v1")
        );
        assert_eq!(
            doc.get("levels").and_then(JsonValue::as_arr).unwrap().len(),
            1
        );
        assert_eq!(
            doc.get("spans").and_then(JsonValue::as_arr).unwrap().len(),
            3
        );
        assert_eq!(
            doc.get("events").and_then(JsonValue::as_arr).unwrap().len(),
            1
        );
        let lvl = &doc.get("levels").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            lvl.get("strategy").and_then(JsonValue::as_str),
            Some("scan-free")
        );
    }

    #[test]
    fn chrome_sink_is_parseable_trace_event_format() {
        let t = sample_trace();
        let doc = JsonValue::parse(&ChromeTraceSink.export(&t)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        // 1 process-name meta + 3 spans + 1 instant + 1 counter.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(JsonValue::as_str))
            .collect();
        assert!(phases.contains(&"X") && phases.contains(&"i") && phases.contains(&"C"));
        // Complete events carry microsecond ts + dur.
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert!(x.get("ts").and_then(JsonValue::as_f64).is_some());
        assert!(x.get("dur").and_then(JsonValue::as_f64).is_some());
    }

    #[test]
    fn table_sink_renders_levels() {
        let t = sample_trace();
        let table = TableSink.export(&t);
        assert!(table.contains("scan-free"), "{table}");
        assert!(table.contains("total"), "{table}");

        // A cluster level: no kernel children, ratio on the event only.
        let rec = Recorder::new();
        let run = rec.begin_span(None, names::span::RUN, 0, 0.0);
        let lvl = rec.begin_span(Some(run), names::span::LEVEL, 0, 0.0);
        rec.event(
            Some(lvl),
            names::event::STRATEGY_CHOICE,
            0,
            0.0,
            vec![("ratio".into(), AttrValue::F64(0.25))],
        );
        rec.span_attr(lvl, "level", AttrValue::U64(0));
        rec.span_attr(lvl, "mode", AttrValue::Str("pull".into()));
        rec.end_span(lvl, 44.0);
        rec.end_span(run, 44.0);
        let table = TableSink.export(&rec.finish());
        let row = table.lines().nth(1).expect("one level row");
        assert!(row.contains("pull") && row.contains("2.500e-1"), "{row}");
        assert!(row.trim_end().ends_with(" 0.0"), "{row}");
        assert!(!table.contains("-0.0"), "{table}");
    }

    #[test]
    fn csv_sink_escapes_commas() {
        let t = sample_trace();
        let csv = RocprofCsvSink.export(&t);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(
            row.starts_with("\"level 0, attempt 1\",fq_expand_thread,"),
            "{row}"
        );
    }

    #[test]
    fn csv_field_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
