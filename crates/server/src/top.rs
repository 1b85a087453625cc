//! `xbfs top` — a live terminal dashboard over the metrics plane.
//!
//! Polls a running server with the wire `metrics` op, parses the
//! `xbfs-metrics-v1` snapshot it returns, and renders one frame per poll:
//! queue / worker / breaker / pool / rank state, with per-second rates
//! computed from *successive* snapshots (so the dashboard shows current
//! throughput, not lifetime averages). It renders from the same
//! [`MetricsSnapshot`] type the server froze ([`MetricsSnapshot::
//! from_json`] rebuilds it from the wire), so a frame's percentiles are
//! the server's own arithmetic over the server's own buckets. Rendering
//! is a pure function — the socket loop in [`run_top`] is the only I/O —
//! so frames are unit-testable without a server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;
use xbfs_telemetry::{MetricsSnapshot, SeriesSnapshot, SeriesValue};

use crate::protocol::control_line;

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
fn rate(prev: Option<&MetricsSnapshot>, curr: &MetricsSnapshot, now_v: u64, prev_v: u64) -> String {
    let Some(p) = prev else {
        return String::new();
    };
    let dt = (curr.uptime_ms - p.uptime_ms) / 1000.0;
    if dt <= 0.0 {
        return String::new();
    }
    format!(" (+{:.1}/s)", (now_v.saturating_sub(prev_v)) as f64 / dt)
}

fn gauge_value(s: &SeriesSnapshot) -> Option<f64> {
    match s.value {
        SeriesValue::Gauge(v) => Some(v),
        _ => None,
    }
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
pub fn render(prev: Option<&MetricsSnapshot>, curr: &MetricsSnapshot, addr: &str) -> String {
    let c = |name: &str, labels: &[(&str, &str)]| curr.counter(name, labels);
    let pc = |name: &str, labels: &[(&str, &str)]| prev.map_or(0, |p| p.counter(name, labels));
    let family = |name: &str| curr.counter_family_total(name);
    // A histogram's `pct`-th percentile as the server displays it; 0
    // while the series is absent or empty.
    let quantile = |name: &str, labels: &[(&str, &str)], pct: f64| {
        curr.histogram(name, labels)
            .and_then(|h| h.quantile(pct))
            .unwrap_or(0.0)
    };
    let mut out = String::new();

    out.push_str(&format!(
        "xbfs top — {addr}   uptime {:.1}s\n",
        curr.uptime_ms / 1000.0
    ));

    let ok = c(live::REQUESTS_TOTAL, &[("status", "ok")]);
    let to = c(live::REQUESTS_TOTAL, &[("status", "timeout")]);
    let er = c(live::REQUESTS_TOTAL, &[("status", "error")]);
    let p50 = quantile(live::REQUEST_LATENCY_MS, &[("status", "ok")], 50.0);
    let p99 = quantile(live::REQUEST_LATENCY_MS, &[("status", "ok")], 99.0);
    let engine_p50 = quantile(live::ENGINE_MS, &[], 50.0);
    let certify_p50 = quantile(live::CERTIFY_MS, &[], 50.0);
    let write_p50 = quantile(live::WRITE_MS, &[], 50.0);
    out.push_str(&format!(
        "requests   ok {ok}{}  timeout {to}  error {er}   p50 {p50:.2}ms  p99 {p99:.2}ms  \
         engine p50 {engine_p50:.2}ms  certify p50 {certify_p50:.2}ms  write p50 {write_p50:.2}ms\n",
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

    // Series sort by label *string*; workers show in numeric order.
    let mut states: Vec<(usize, f64)> = curr
        .family(live::WORKER_STATE)
        .filter_map(|s| Some((s.label("worker")?.parse().ok()?, gauge_value(s)?)))
        .collect();
    states.sort_unstable_by_key(|e| e.0);
    out.push_str("workers   ");
    for (idx, code) in states {
        out.push_str(&format!(" w{idx}={}", state_name(code)));
    }
    out.push_str(&format!(
        "  panics {}  rebuilds {}\n",
        family(live::WORKER_PANICS_TOTAL),
        family(live::WORKER_REBUILDS_TOTAL),
    ));

    let pool_bytes: f64 = curr.family(live::POOL_BYTES).filter_map(gauge_value).sum();
    out.push_str(&format!(
        "pool       bytes {}  hits {}  misses {}  pressure {}\n",
        fmt_bytes(pool_bytes),
        family(live::POOL_HITS_TOTAL),
        family(live::POOL_MISSES_TOTAL),
        family(live::POOL_PRESSURE_TOTAL),
    ));

    // Batching stage: only rendered once a batch has actually launched,
    // so solo (--batch-width 1) servers keep the familiar frame layout.
    let batches = c(live::BATCHES_TOTAL, &[]);
    if batches > 0 {
        let bsum = curr
            .histogram(live::BATCH_SIZE, &[])
            .map_or(0.0, |h| h.sum());
        let bp50 = quantile(live::BATCH_SIZE, &[], 50.0);
        let occ = curr.gauge(live::BATCH_OCCUPANCY_PCT, &[]).unwrap_or(0.0);
        let lp50 = quantile(live::LINGER_WAIT_MS, &[], 50.0);
        let lp99 = quantile(live::LINGER_WAIT_MS, &[], 99.0);
        out.push_str(&format!(
            "batching   batches {batches}{}  mean size {:.1} (p50 {bp50:.0})  \
             occupancy {occ:.0}%  linger p50 {lp50:.2}ms p99 {lp99:.2}ms\n",
            rate(prev, curr, batches, pc(live::BATCHES_TOTAL, &[])),
            bsum / batches.max(1) as f64,
        ));
    }

    let crashes = family(live::RANK_CRASHES_TOTAL);
    let restores = family(live::RANK_RESTORES_TOTAL);
    let retx = family(live::RANK_RETRANSMITTED_BYTES_TOTAL);
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
    let mut prev: Option<MetricsSnapshot> = None;
    let mut rendered = 0u64;
    let mut line = String::new();
    loop {
        if frames.is_some_and(|f| rendered >= f) {
            return Ok(rendered);
        }
        writeln!(writer, "{}", control_line("metrics", rendered))?;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(rendered); // server drained away
        }
        let snap = JsonValue::parse(line.trim())
            .ok()
            .and_then(|v| v.get("metrics").and_then(MetricsSnapshot::from_json));
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
    use xbfs_telemetry::{MetricUnit, MetricsRegistry};

    /// A registry as `run_top` receives it: frozen, serialized, and
    /// parsed back off the wire.
    fn over_the_wire(reg: &MetricsRegistry, uptime_ms: f64) -> MetricsSnapshot {
        let mut snap = reg.snapshot();
        snap.uptime_ms = uptime_ms;
        MetricsSnapshot::from_json(&JsonValue::parse(&snap.to_json()).unwrap()).unwrap()
    }

    /// Two workers (running, quarantined), a queue 3 deep, and `ok`
    /// answered requests: one took 9.6 ms, the rest 1.4 ms, and every
    /// one spent 1.1 ms in the engine (0.3 of it certifying) and 0.24 ms
    /// being written.
    fn snap(uptime_ms: f64, ok: u64) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        let status: &[(&str, &str)] = &[("status", "ok")];
        reg.counter(live::REQUESTS_TOTAL, MetricUnit::Count, status)
            .add(ok);
        reg.gauge(live::QUEUE_DEPTH, MetricUnit::Count, &[])
            .set(3.0);
        for (worker, code) in [("0", 1.0), ("1", 2.0)] {
            reg.gauge(live::WORKER_STATE, MetricUnit::State, &[("worker", worker)])
                .set(code);
        }
        let latency = reg.histogram(live::REQUEST_LATENCY_MS, MetricUnit::Millis, status);
        let engine = reg.histogram(live::ENGINE_MS, MetricUnit::Millis, &[]);
        let certify = reg.histogram(live::CERTIFY_MS, MetricUnit::Millis, &[]);
        let write = reg.histogram(live::WRITE_MS, MetricUnit::Millis, &[]);
        for i in 0..ok {
            latency.record(if i == 0 { 9.6 } else { 1.4 });
            engine.record(1.1);
            certify.record(0.3);
            write.record(0.24);
        }
        over_the_wire(&reg, uptime_ms)
    }

    #[test]
    fn a_snapshot_off_the_wire_answers_every_lookup() {
        let s = snap(2000.0, 40);
        assert_eq!(s.uptime_ms, 2000.0);
        assert_eq!(s.counter("serve.requests_total", &[("status", "ok")]), 40);
        assert_eq!(s.counter_family_total("serve.requests_total"), 40);
        assert_eq!(s.gauge("serve.queue_depth", &[]), Some(3.0));
        let h = s
            .histogram("serve.request_latency_ms", &[("status", "ok")])
            .unwrap();
        assert_eq!(h.count(), 40);
        // Fixed-point sum, to the three decimals the wire carries.
        assert!((h.sum() - (9.6 + 39.0 * 1.4)).abs() < 0.05, "{}", h.sum());
        // Upper bounds of the buckets holding 1.4 and 9.6.
        assert_eq!(
            (h.quantile(50.0), h.quantile(99.0)),
            (Some(1.5), Some(10.0))
        );
    }

    #[test]
    fn a_reply_without_a_metrics_snapshot_is_rejected() {
        let v = JsonValue::parse("{\"format\":\"nope\",\"series\":[]}").unwrap();
        assert!(MetricsSnapshot::from_json(&v).is_none());
    }

    #[test]
    fn render_computes_rates_from_successive_snapshots() {
        let a = snap(1000.0, 10);
        let b = snap(3000.0, 50);
        let frame = render(Some(&a), &b, "test:0");
        // 40 more oks over 2 s = +20.0/s.
        assert!(frame.contains("ok 50 (+20.0/s)"), "frame:\n{frame}");
        assert!(frame.contains("depth 3 "), "frame:\n{frame}");
        assert!(frame.contains("w0=running"), "frame:\n{frame}");
        assert!(frame.contains("w1=quarantined"), "frame:\n{frame}");
        assert!(
            frame.contains(
                "p50 1.50ms  p99 10.00ms  engine p50 1.12ms  certify p50 0.31ms  write p50 0.25ms"
            ),
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
        let reg = MetricsRegistry::new();
        let count = |name, unit, v| reg.counter(name, unit, &[]).add(v);
        count(live::JOURNAL_APPENDS_TOTAL, MetricUnit::Count, 12);
        count(live::JOURNAL_FSYNCS_TOTAL, MetricUnit::Count, 2);
        count(live::JOURNAL_BYTES_TOTAL, MetricUnit::Bytes, 2048);
        count(live::REPLAYED_REQUESTS_TOTAL, MetricUnit::Count, 3);
        reg.gauge(live::RECOVERY_MS, MetricUnit::Millis, &[])
            .set(7.5);
        let frame = render(None, &over_the_wire(&reg, 1000.0), "test:0");
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
        let reg = MetricsRegistry::new();
        reg.counter(live::BATCHES_TOTAL, MetricUnit::Count, &[])
            .add(4);
        reg.gauge(live::BATCH_OCCUPANCY_PCT, MetricUnit::Count, &[])
            .set(75.0);
        let size = reg.histogram(live::BATCH_SIZE, MetricUnit::Count, &[]);
        let linger = reg.histogram(live::LINGER_WAIT_MS, MetricUnit::Millis, &[]);
        for wait_ms in [0.49, 0.49, 0.49, 1.7] {
            size.record(5.0);
            linger.record(wait_ms);
        }
        let frame = render(None, &over_the_wire(&reg, 1000.0), "test:0");
        assert!(frame.contains("batching   batches 4"), "frame:\n{frame}");
        assert!(frame.contains("mean size 5.0"), "frame:\n{frame}");
        assert!(frame.contains("occupancy 75%"), "frame:\n{frame}");
        // Upper bounds of the buckets holding 0.49 and 1.7.
        assert!(
            frame.contains("linger p50 0.50ms p99 1.75ms"),
            "frame:\n{frame}"
        );
    }
}
