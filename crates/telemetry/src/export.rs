//! Trace exporters: one [`TraceFormat`] per format, each rendered by
//! [`TraceFormat::render`].
//!
//! * [`TraceFormat::Table`] — the per-level table ([`level_rows`] through
//!   [`level_table`]) that `bfs`, `cluster` and `trace summarize` print too;
//!   [`render_table`] lays it out, and every `repro` table.
//! * [`TraceFormat::Json`] — machine-readable `xbfs-trace-v1` JSON; this is
//!   the format the `BENCH_*.json` perf snapshots and `xbfs trace summarize`
//!   consume.
//! * [`TraceFormat::Chrome`] — chrome://tracing / Perfetto `trace.json`
//!   (Trace Event Format): spans become `"ph":"X"` complete events, instant
//!   events `"ph":"i"`, counters `"ph":"C"`, with one process per track.
//! * [`TraceFormat::RocprofCsv`] — rocprofiler-style kernel CSV (one row per
//!   dispatch, RFC-4180 comma escaping); what `bfs --trace csv:PATH` writes.

use crate::json::{self, Obj};
use crate::names;
use crate::span::{AttrValue, Attrs, SpanRecord, Trace};

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
        let keyword = if fmt == "rocprof" { "csv" } else { fmt };
        let all = [Self::Table, Self::Json, Self::Chrome, Self::RocprofCsv];
        let Some(fmt) = all.into_iter().find(|f| f.name() == keyword) else {
            return Err(format!("unknown trace format {fmt:?}"));
        };
        Ok((fmt, path.to_string()))
    }

    /// Short format name (matches the `--trace` spec keyword).
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Table => "table",
            TraceFormat::Json => "json",
            TraceFormat::Chrome => "chrome",
            TraceFormat::RocprofCsv => "csv",
        }
    }

    /// Render a finished trace in this format.
    pub fn render(self, trace: &Trace) -> String {
        match self {
            TraceFormat::Table => table(trace),
            TraceFormat::Json => json_doc(trace),
            TraceFormat::Chrome => chrome(trace),
            TraceFormat::RocprofCsv => rocprof_csv(trace),
        }
    }
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

fn json_doc(trace: &Trace) -> String {
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

fn chrome(trace: &Trace) -> String {
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

fn attr_str(s: &SpanRecord, key: &str) -> String {
    s.attr(key).map(|v| v.to_string()).unwrap_or_default()
}

/// Render a table: header + rows of equal arity, columns padded.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let line = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Scientific notation like the paper's ratio column: `0`, `places`
/// decimals from 0.01 up, else a mantissa of `places - 1` decimals.
pub fn sci(x: f64, places: usize) -> String {
    if x == 0.0 {
        "0".into()
    } else if x >= 1e-2 {
        format!("{x:.places$}")
    } else {
        format!("{x:.mantissa$e}", mantissa = places - 1)
    }
}

/// The rows of the per-level table, one per `level` span: the span's
/// attributes, then those of the events recorded on it that it does not
/// carry itself, then its kernels' summed `fetch_kb` (when it has any
/// kernels) and its `time_ms`.
pub fn level_rows(trace: &Trace) -> Vec<Attrs> {
    let rows = trace.spans_named(names::span::LEVEL).map(|s| {
        let mut row = s.attrs.clone();
        for (k, v) in trace
            .events
            .iter()
            .filter(|e| e.span == s.id)
            .flat_map(|e| &e.attrs)
        {
            if !row.iter().any(|(have, _)| have == k) {
                row.push((k.clone(), v.clone()));
            }
        }
        let fetch = trace
            .children(s.id)
            .filter(|c| c.name == names::span::KERNEL)
            .map(|k| k.attr("fetch_kb").map_or(0.0, AttrValue::as_f64))
            .reduce(|a, b| a + b);
        if let Some(kb) = fetch {
            row.push(("fetch_kb".into(), AttrValue::F64(kb)));
        }
        row.push(("time_ms".into(), AttrValue::F64(s.dur_us() / 1000.0)));
        row
    });
    rows.collect()
}

/// The per-level table: one line per row, a column per key in the order
/// keys are first seen (blank where a row lacks the key), floats to five
/// places ([`sci`]). Empty when there are no rows.
pub fn level_table(rows: &[Attrs]) -> String {
    let mut header: Vec<&str> = Vec::new();
    for (k, _) in rows.iter().flatten() {
        if !header.contains(&k.as_str()) {
            header.push(k);
        }
    }
    if header.is_empty() {
        return String::new();
    }
    let cell = |v: &AttrValue| match v {
        AttrValue::F64(x) => sci(*x, 5),
        v => v.to_string(),
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let get = |h: &&str| row.iter().find(|(k, _)| k == h).map(|(_, v)| cell(v));
            header.iter().map(|h| get(h).unwrap_or_default()).collect()
        })
        .collect();
    render_table("levels", &header, &cells)
}

/// Human-readable per-level table ([`level_table`] of [`level_rows`]),
/// then the recovery count when there were recoveries, then the total.
fn table(trace: &Trace) -> String {
    let mut out = level_table(&level_rows(trace));
    let n_recoveries = trace.spans_named(names::span::RECOVERY).count();
    if n_recoveries > 0 {
        out.push_str(&format!("recoveries: {n_recoveries}\n"));
    }
    out.push_str(&format!("total {:.4} ms\n", trace.duration_us() / 1000.0));
    out
}

/// One column per `gcd_sim::KernelReport` field the paper's tables use.
const CSV_HEADER: &str =
    "phase,kernel,runtime_ms,l2_hit_pct,mem_busy_pct,fetch_kb,instructions,atomics,hbm_lines,occupancy";

fn rocprof_csv(trace: &Trace) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    let num = |s: &SpanRecord, key: &str| s.attr(key).map_or(0.0, AttrValue::as_f64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;
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
        let doc = JsonValue::parse(&TraceFormat::Json.render(&t)).expect("valid JSON");
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
        let doc = JsonValue::parse(&TraceFormat::Chrome.render(&t)).expect("valid JSON");
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
        // Span attributes, then the event's that the span lacks, then the
        // kernels' fetch and the duration.
        let table = TraceFormat::Table.render(&sample_trace());
        let want = "levels
level   strategy  frontier_count      ratio  fetch_kb    time_ms
----------------------------------------------------------------
    0  scan-free               1  1.0000e-3  12.50000  3.0000e-3
total 0.0050 ms
";
        assert_eq!(table, want);

        // Cluster-shaped levels: no kernel children, so no fetch column; the
        // event's ratio joins the row, its copy of `mode` does not, and a
        // key first seen on the second row opens the last column.
        let rec = Recorder::new();
        let run = rec.begin_span(None, names::span::RUN, 0, 0.0);
        let lvl = rec.begin_span(Some(run), names::span::LEVEL, 0, 0.0);
        let choice = attrs!["mode" => "push", "ratio" => 0.25];
        rec.event(Some(lvl), names::event::STRATEGY_CHOICE, 0, 0.0, choice);
        rec.span_attrs(lvl, attrs!["level" => 0u32, "mode" => "pull"]);
        rec.end_span(lvl, 44.0);
        let later = rec.begin_span(Some(run), names::span::LEVEL, 0, 44.0);
        rec.span_attrs(later, attrs!["level" => 1u32, "checkpointed" => true]);
        rec.end_span(later, 50.0);
        rec.end_span(run, 50.0);
        let table = TraceFormat::Table.render(&rec.finish());
        let rows = [
            "levels",
            "level  mode    ratio    time_ms  checkpointed",
            "---------------------------------------------",
            "    0  pull  0.25000    0.04400              ",
            "    1                 6.0000e-3          true",
            "total 0.0500 ms\n",
        ];
        assert_eq!(table, rows.join("\n"));
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["a", "bb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "200".into()],
            ],
        );
        assert!(t.contains("a"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0, 3), "0");
        assert_eq!(sci(-0.0, 4), "0");
        assert_eq!(sci(0.725, 3), "0.725");
        assert_eq!(sci(1.86e-9, 3), "1.86e-9");
        assert_eq!(sci(0.25, 4), "0.2500");
        assert_eq!(sci(1.86e-9, 4), "1.860e-9");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_checks_arity() {
        render_table("T", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn csv_sink_escapes_commas() {
        let t = sample_trace();
        let csv = TraceFormat::RocprofCsv.render(&t);
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
