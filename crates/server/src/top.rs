//! `xbfs top` — a live terminal dashboard over the metrics plane.
//!
//! Polls a running server with the wire `metrics` op, parses the
//! `xbfs-metrics-v1` snapshot it returns, and renders one frame per poll:
//! queue / worker / breaker / pool / rank state, with per-second rates
//! computed from *successive* snapshots (so the dashboard shows current
//! throughput, not lifetime averages). Parsing and rendering are pure
//! functions over [`TopSnapshot`] — the socket loop in [`run_top`] is the
//! only I/O — so frames are unit-testable without a server.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;

/// One scrape, reduced to flat lookup tables keyed by
/// `name{label=value,…}` (labels in snapshot order, which the registry
/// keeps sorted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopSnapshot {
    /// Milliseconds since the server's registry was created — the time
    /// base for rate computation between successive snapshots.
    pub uptime_ms: f64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// `(count, sum, p50, p99)` per histogram series.
    hists: BTreeMap<String, (u64, f64, f64, f64)>,
}

fn series_key(name: &str, labels: &JsonValue) -> String {
    let mut key = String::from(name);
    key.push('{');
    if let Some(obj) = labels.as_obj() {
        for (i, (k, v)) in obj.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(v.as_str().unwrap_or(""));
        }
    }
    key.push('}');
    key
}

impl TopSnapshot {
    /// Parse a decoded `xbfs-metrics-v1` object (the value under
    /// `"metrics"` in a `metrics` response, or a whole `/metrics.json`
    /// body). Returns `None` when the format marker is wrong.
    pub fn parse(v: &JsonValue) -> Option<TopSnapshot> {
        if v.get("format").and_then(|f| f.as_str()) != Some("xbfs-metrics-v1") {
            return None;
        }
        let mut snap = TopSnapshot {
            uptime_ms: v.get("uptime_ms").and_then(|u| u.as_f64()).unwrap_or(0.0),
            ..TopSnapshot::default()
        };
        let empty = JsonValue::parse("{}").ok()?;
        for s in v.get("series").and_then(|s| s.as_arr()).unwrap_or(&[]) {
            let name = s.get("name").and_then(|n| n.as_str()).unwrap_or("");
            let key = series_key(name, s.get("labels").unwrap_or(&empty));
            match s.get("kind").and_then(|k| k.as_str()) {
                Some("counter") => {
                    let v = s.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                    snap.counters.insert(key, v as u64);
                }
                Some("gauge") => {
                    let v = s.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                    snap.gauges.insert(key, v);
                }
                Some("histogram") => {
                    let f = |k: &str| s.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
                    snap.hists
                        .insert(key, (f("count") as u64, f("sum"), f("p50"), f("p99")));
                }
                _ => {}
            }
        }
        Some(snap)
    }

    /// Counter value for exact labels (sorted order), 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let mut key = String::from(name);
        key.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key.push('}');
        self.counters.get(&key).copied().unwrap_or(0)
    }

    /// Sum of a counter family across all label sets.
    pub fn counter_family(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.counters
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Gauge value for exact labels, `None` when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut key = String::from(name);
        key.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key.push('}');
        self.gauges.get(&key).copied()
    }

    /// `(count, sum, p50, p99)` for a histogram series, `None` if absent.
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<(u64, f64, f64, f64)> {
        let mut key = String::from(name);
        key.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key.push('}');
        self.hists.get(&key).copied()
    }

    /// `(worker_index, state_code)` for every worker-state gauge.
    pub fn worker_states(&self) -> Vec<(usize, f64)> {
        let prefix = format!("{}{{worker=", live::WORKER_STATE);
        let mut out: Vec<(usize, f64)> = self
            .gauges
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, v)| {
                let idx: usize = k[prefix.len()..].trim_end_matches('}').parse().ok()?;
                Some((idx, *v))
            })
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

/// Per-second rate of a counter between two snapshots ("" when no
/// previous snapshot or no time elapsed).
fn rate(prev: Option<&TopSnapshot>, curr: &TopSnapshot, now_v: u64, prev_v: u64) -> String {
    let Some(p) = prev else {
        return String::new();
    };
    let dt = (curr.uptime_ms - p.uptime_ms) / 1000.0;
    if dt <= 0.0 {
        return String::new();
    }
    format!(" (+{:.1}/s)", (now_v.saturating_sub(prev_v)) as f64 / dt)
}

fn state_name(code: f64) -> &'static str {
    match code as i64 {
        0 => "idle",
        1 => "running",
        2 => "quarantined",
        _ => "?",
    }
}

fn breaker_name(code: f64) -> &'static str {
    match code as i64 {
        0 => "closed",
        1 => "half-open",
        2 => "open",
        _ => "?",
    }
}

/// Render one dashboard frame. `prev` (the previous poll) turns lifetime
/// counters into current rates; the first frame shows totals only.
pub fn render(prev: Option<&TopSnapshot>, curr: &TopSnapshot, addr: &str) -> String {
    let c = |name: &str, labels: &[(&str, &str)]| curr.counter(name, labels);
    let pc = |name: &str, labels: &[(&str, &str)]| prev.map_or(0, |p| p.counter(name, labels));
    let mut out = String::new();

    out.push_str(&format!(
        "xbfs top — {addr}   uptime {:.1}s\n",
        curr.uptime_ms / 1000.0
    ));

    let ok = c(live::REQUESTS_TOTAL, &[("status", "ok")]);
    let to = c(live::REQUESTS_TOTAL, &[("status", "timeout")]);
    let er = c(live::REQUESTS_TOTAL, &[("status", "error")]);
    let (_, _, p50, p99) = curr
        .hist(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .unwrap_or((0, 0.0, 0.0, 0.0));
    let (_, _, write_p50, _) = curr.hist(live::WRITE_MS, &[]).unwrap_or((0, 0.0, 0.0, 0.0));
    out.push_str(&format!(
        "requests   ok {ok}{}  timeout {to}  error {er}   p50 {p50:.2}ms  p99 {p99:.2}ms  \
         write p50 {write_p50:.2}ms\n",
        rate(
            prev,
            curr,
            ok,
            pc(live::REQUESTS_TOTAL, &[("status", "ok")])
        )
    ));

    let depth = curr.gauge(live::QUEUE_DEPTH, &[]).unwrap_or(0.0);
    let adm = c(live::ADMITTED_TOTAL, &[]);
    let shed_q = c(live::SHED_TOTAL, &[("reason", "queue")]);
    let shed_b = c(live::SHED_TOTAL, &[("reason", "breaker")]);
    out.push_str(&format!(
        "admission  depth {depth:.0}  admitted {adm}{}  shed queue={shed_q} breaker={shed_b}  \
         draining {}  deduped {}\n",
        rate(prev, curr, adm, pc(live::ADMITTED_TOTAL, &[])),
        c(live::REJECTED_DRAINING_TOTAL, &[]),
        c(live::DEDUPED_TOTAL, &[]),
    ));

    let bstate = curr.gauge(live::BREAKER_STATE, &[]).unwrap_or(0.0);
    out.push_str(&format!(
        "breaker    {}  transitions {}  trips {}\n",
        breaker_name(bstate),
        c(live::BREAKER_TRANSITIONS_TOTAL, &[]),
        c(live::BREAKER_TRIPS_TOTAL, &[]),
    ));

    out.push_str("workers   ");
    for (idx, code) in curr.worker_states() {
        out.push_str(&format!(" w{idx}={}", state_name(code)));
    }
    out.push_str(&format!(
        "  panics {}  rebuilds {}\n",
        curr.counter_family(live::WORKER_PANICS_TOTAL),
        curr.counter_family(live::WORKER_REBUILDS_TOTAL),
    ));

    let pool_bytes: f64 = {
        let prefix = format!("{}{{", live::POOL_BYTES);
        curr.gauges
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    };
    out.push_str(&format!(
        "pool       bytes {}  hits {}  misses {}  pressure {}\n",
        fmt_bytes(pool_bytes),
        curr.counter_family(live::POOL_HITS_TOTAL),
        curr.counter_family(live::POOL_MISSES_TOTAL),
        curr.counter_family(live::POOL_PRESSURE_TOTAL),
    ));

    // Batching stage: only rendered once a batch has actually launched,
    // so solo (--batch-width 1) servers keep the familiar frame layout.
    let batches = c(live::BATCHES_TOTAL, &[]);
    if batches > 0 {
        let (_, bsum, bp50, _) = curr
            .hist(live::BATCH_SIZE, &[])
            .unwrap_or((0, 0.0, 0.0, 0.0));
        let occ = curr.gauge(live::BATCH_OCCUPANCY_PCT, &[]).unwrap_or(0.0);
        let (_, _, lp50, lp99) = curr
            .hist(live::LINGER_WAIT_MS, &[])
            .unwrap_or((0, 0.0, 0.0, 0.0));
        out.push_str(&format!(
            "batching   batches {batches}{}  mean size {:.1} (p50 {bp50:.0})  \
             occupancy {occ:.0}%  linger p50 {lp50:.2}ms p99 {lp99:.2}ms\n",
            rate(prev, curr, batches, pc(live::BATCHES_TOTAL, &[])),
            bsum / batches.max(1) as f64,
        ));
    }

    let crashes = curr.counter_family(live::RANK_CRASHES_TOTAL);
    let restores = curr.counter_family(live::RANK_RESTORES_TOTAL);
    let retx = curr.counter_family(live::RANK_RETRANSMITTED_BYTES_TOTAL);
    let exp = c(live::CLUSTER_EXPAND_US_TOTAL, &[]);
    let exch = c(live::CLUSTER_EXCHANGE_US_TOTAL, &[]);
    if crashes + restores + retx + exp + exch > 0 {
        let total = (exp + exch).max(1) as f64;
        out.push_str(&format!(
            "cluster    crashes {crashes}  restores {restores}  retx {}  \
             expand {:.0}% exchange {:.0}%\n",
            fmt_bytes(retx as f64),
            exp as f64 / total * 100.0,
            exch as f64 / total * 100.0,
        ));
    }

    // Durability stage: only rendered when a journal is in play (an
    // append this life, or a replay from a previous one), so unjournaled
    // servers keep the familiar frame layout.
    let j_appends = c(live::JOURNAL_APPENDS_TOTAL, &[]);
    let replayed = c(live::REPLAYED_REQUESTS_TOTAL, &[]);
    if j_appends + replayed > 0 {
        out.push_str(&format!(
            "journal    appends {j_appends}{}  fsyncs {}  bytes {}  \
             replayed {replayed}  recovery {:.1}ms\n",
            rate(prev, curr, j_appends, pc(live::JOURNAL_APPENDS_TOTAL, &[])),
            c(live::JOURNAL_FSYNCS_TOTAL, &[]),
            fmt_bytes(c(live::JOURNAL_BYTES_TOTAL, &[]) as f64),
            curr.gauge(live::RECOVERY_MS, &[]).unwrap_or(0.0),
        ));
    }

    out.push_str(&format!(
        "flight     dumps {}\n",
        c(live::FLIGHT_DUMPS_TOTAL, &[])
    ));
    out
}

/// Poll `addr` every `interval` and print one frame per poll to `out`
/// (at most `frames` frames; `None` = until the connection closes).
/// Returns the number of frames rendered.
pub fn run_top(
    addr: &str,
    interval: Duration,
    frames: Option<u64>,
    out: &mut dyn Write,
) -> std::io::Result<u64> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut prev: Option<TopSnapshot> = None;
    let mut rendered = 0u64;
    let mut line = String::new();
    loop {
        if frames.is_some_and(|f| rendered >= f) {
            return Ok(rendered);
        }
        writeln!(
            writer,
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"metrics\",\"id\":{rendered}}}"
        )?;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(rendered); // server drained away
        }
        let snap = JsonValue::parse(line.trim())
            .ok()
            .and_then(|v| v.get("metrics").and_then(TopSnapshot::parse));
        let Some(snap) = snap else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "response did not carry an xbfs-metrics-v1 snapshot",
            ));
        };
        rendered += 1;
        write!(out, "{}", render(prev.as_ref(), &snap, addr))?;
        out.flush()?;
        prev = Some(snap);
        if frames.is_some_and(|f| rendered >= f) {
            return Ok(rendered);
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(uptime_ms: f64, ok: u64) -> TopSnapshot {
        let json = format!(
            "{{\"format\":\"xbfs-metrics-v1\",\"uptime_ms\":{uptime_ms},\"series\":[\
             {{\"name\":\"serve.requests_total\",\"labels\":{{\"status\":\"ok\"}},\
              \"unit\":\"count\",\"kind\":\"counter\",\"value\":{ok}}},\
             {{\"name\":\"serve.queue_depth\",\"labels\":{{}},\
              \"unit\":\"count\",\"kind\":\"gauge\",\"value\":3}},\
             {{\"name\":\"worker.state\",\"labels\":{{\"worker\":\"0\"}},\
              \"unit\":\"state\",\"kind\":\"gauge\",\"value\":1}},\
             {{\"name\":\"worker.state\",\"labels\":{{\"worker\":\"1\"}},\
              \"unit\":\"state\",\"kind\":\"gauge\",\"value\":2}},\
             {{\"name\":\"serve.request_latency_ms\",\"labels\":{{\"status\":\"ok\"}},\
              \"unit\":\"ms\",\"kind\":\"histogram\",\"count\":{ok},\"sum\":12.0,\
              \"p50\":1.5,\"p99\":9.75,\"buckets\":[[100,{ok}]]}},\
             {{\"name\":\"serve.write_ms\",\"labels\":{{}},\
              \"unit\":\"ms\",\"kind\":\"histogram\",\"count\":{ok},\"sum\":2.0,\
              \"p50\":0.25,\"p99\":0.5,\"buckets\":[[60,{ok}]]}}]}}"
        );
        TopSnapshot::parse(&JsonValue::parse(&json).unwrap()).unwrap()
    }

    #[test]
    fn parse_reduces_series_to_lookups() {
        let s = snap(2000.0, 40);
        assert_eq!(s.counter("serve.requests_total", &[("status", "ok")]), 40);
        assert_eq!(s.counter_family("serve.requests_total"), 40);
        assert_eq!(s.gauge("serve.queue_depth", &[]), Some(3.0));
        assert_eq!(s.worker_states(), vec![(0, 1.0), (1, 2.0)]);
        let (count, sum, p50, p99) = s
            .hist("serve.request_latency_ms", &[("status", "ok")])
            .unwrap();
        assert_eq!(count, 40);
        assert!((sum - 12.0).abs() < 1e-9);
        assert!((p50 - 1.5).abs() < 1e-9 && (p99 - 9.75).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_wrong_format() {
        let v = JsonValue::parse("{\"format\":\"nope\",\"series\":[]}").unwrap();
        assert!(TopSnapshot::parse(&v).is_none());
    }

    #[test]
    fn render_computes_rates_from_successive_snapshots() {
        let a = snap(1000.0, 10);
        let b = snap(3000.0, 50);
        let frame = render(Some(&a), &b, "test:0");
        // 40 more oks over 2 s = +20.0/s.
        assert!(frame.contains("ok 50 (+20.0/s)"), "frame:\n{frame}");
        assert!(frame.contains("w0=running"), "frame:\n{frame}");
        assert!(frame.contains("w1=quarantined"), "frame:\n{frame}");
        assert!(
            frame.contains("p99 9.75ms  write p50 0.25ms"),
            "frame:\n{frame}"
        );
    }

    #[test]
    fn first_frame_has_totals_but_no_rates() {
        let b = snap(3000.0, 50);
        let frame = render(None, &b, "test:0");
        assert!(frame.contains("ok 50 "), "frame:\n{frame}");
        assert!(!frame.contains("/s)"), "frame:\n{frame}");
        // Solo servers never launch a batch, so the batching row is absent.
        assert!(!frame.contains("batching"), "frame:\n{frame}");
    }

    #[test]
    fn journal_row_appears_once_journaling_is_live() {
        let json = "{\"format\":\"xbfs-metrics-v1\",\"uptime_ms\":1000,\"series\":[\
             {\"name\":\"serve.journal_appends_total\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"counter\",\"value\":12},\
             {\"name\":\"serve.journal_fsyncs_total\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"counter\",\"value\":2},\
             {\"name\":\"serve.journal_bytes_total\",\"labels\":{},\
              \"unit\":\"bytes\",\"kind\":\"counter\",\"value\":2048},\
             {\"name\":\"serve.replayed_requests_total\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"counter\",\"value\":3},\
             {\"name\":\"serve.recovery_ms\",\"labels\":{},\
              \"unit\":\"ms\",\"kind\":\"gauge\",\"value\":7.5}]}";
        let s = TopSnapshot::parse(&JsonValue::parse(json).unwrap()).unwrap();
        let frame = render(None, &s, "test:0");
        assert!(frame.contains("journal    appends 12"), "frame:\n{frame}");
        assert!(frame.contains("fsyncs 2"), "frame:\n{frame}");
        assert!(frame.contains("bytes 2.0KB"), "frame:\n{frame}");
        assert!(frame.contains("replayed 3"), "frame:\n{frame}");
        assert!(frame.contains("recovery 7.5ms"), "frame:\n{frame}");
        // Unjournaled frames keep the familiar layout.
        let bare = render(None, &snap(1000.0, 1), "test:0");
        assert!(!bare.contains("journal"), "frame:\n{bare}");
    }

    #[test]
    fn batching_row_appears_once_batches_launch() {
        let json = "{\"format\":\"xbfs-metrics-v1\",\"uptime_ms\":1000,\"series\":[\
             {\"name\":\"serve.batches_total\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"counter\",\"value\":4},\
             {\"name\":\"serve.batch_size\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"histogram\",\"count\":4,\"sum\":20.0,\
              \"p50\":5.0,\"p99\":8.0,\"buckets\":[[8,4]]},\
             {\"name\":\"serve.batch_occupancy_pct\",\"labels\":{},\
              \"unit\":\"count\",\"kind\":\"gauge\",\"value\":75},\
             {\"name\":\"serve.linger_wait_ms\",\"labels\":{},\
              \"unit\":\"ms\",\"kind\":\"histogram\",\"count\":4,\"sum\":4.0,\
              \"p50\":0.5,\"p99\":1.75,\"buckets\":[[2,4]]}]}";
        let s = TopSnapshot::parse(&JsonValue::parse(json).unwrap()).unwrap();
        let frame = render(None, &s, "test:0");
        assert!(frame.contains("batching   batches 4"), "frame:\n{frame}");
        assert!(frame.contains("mean size 5.0"), "frame:\n{frame}");
        assert!(frame.contains("occupancy 75%"), "frame:\n{frame}");
        assert!(
            frame.contains("linger p50 0.50ms p99 1.75ms"),
            "frame:\n{frame}"
        );
    }
}
