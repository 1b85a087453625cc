//! Live metrics plane, end to end over real sockets: the wire `metrics`
//! op returns a consistent `xbfs-metrics-v1` snapshot that reconciles
//! with the final serve report, the `--metrics-addr` HTTP listener
//! serves Prometheus text and JSON mid-load without perturbing workers,
//! the registry's latency clock stops where the client's wait does,
//! worker panics leave a flight-recorder dump referenced by the report,
//! and `xbfs top` renders frames from successive snapshots.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::Csr;
use xbfs_multi_gcd::RankHealth;
use xbfs_server::top::run_top;
use xbfs_server::{ServeConfig, ServeReport, Server, ServerHandle};
use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;
use xbfs_telemetry::{MetricsSnapshot, Recorder};

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(2000, 8_000, 11))
}

fn start(cfg: ServeConfig, g: Arc<Csr>) -> ServerHandle {
    Server::start(
        cfg,
        g,
        XbfsConfig::default(),
        Arc::new(Device::mi250x),
        Arc::new(Recorder::disabled()),
    )
    .expect("server binds")
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { writer, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        // One write per line, so the client's own Nagle never stalls it.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim().to_string()
    }

    /// Scrape via the wire `metrics` op, returning the parsed snapshot.
    fn scrape(&mut self, id: u64) -> MetricsSnapshot {
        let resp = self.roundtrip(&format!("{{\"op\":\"metrics\",\"id\":{id}}}"));
        let v = JsonValue::parse(&resp).expect("metrics response parses");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        MetricsSnapshot::from_json(v.get("metrics").expect("metrics payload"))
            .expect("payload is xbfs-metrics-v1")
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("xbfs-me2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The serve report is a function of the snapshot, and the snapshot
/// survives the wire: a scrape taken once the scripted session is over,
/// parsed back with `from_json`, yields field for field the report that
/// `join` builds from its own last snapshot.
#[test]
fn metrics_op_snapshot_reconciles_with_final_report() {
    let g = test_graph();
    let cfg = ServeConfig::default();
    let handle = start(cfg.clone(), g);
    let mut c = Client::connect(handle.addr());

    // Three ok; the third carries a chaos token this server never opted
    // into, so it is counted, ignored, and served like the others.
    for (id, src, extra) in [
        (1u64, 0u32, ""),
        (2, 5, ""),
        (3, 1999, ",\"chaos\":\"panic\""),
    ] {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{src}{extra}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }
    // One typed timeout (deadline already spent before the run starts).
    let r = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":4,\"source\":1,\"deadline_ms\":0.000001}",
    );
    assert!(r.contains("\"status\":\"timeout\""), "{r}");
    // One line that is not a request, and one replay of a finished id.
    let r = c.roundtrip("this is not json");
    assert!(r.contains("\"status\":\"error\""), "{r}");
    let r = c.roundtrip("{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":1,\"source\":0}");
    assert!(r.contains("\"deduped\":true"), "{r}");

    // Everything above completed before this scrape, and nothing in the
    // script changes during the drain.
    let snap = c.scrape(90);
    assert_eq!(snap.counter(live::REQUESTS_TOTAL, &[("status", "ok")]), 3);
    assert_eq!(
        snap.counter(live::REQUESTS_TOTAL, &[("status", "timeout")]),
        1
    );
    assert_eq!(snap.counter(live::ADMITTED_TOTAL, &[]), 4);
    assert_eq!(snap.counter(live::CHAOS_IGNORED_TOTAL, &[]), 1);
    let latency = snap
        .histogram(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .expect("ok latency histogram present");
    assert_eq!(latency.count(), 3);
    let (p50, p99) = (latency.quantile(50.0), latency.quantile(99.0));
    assert!(p50 > Some(0.0) && p99 >= p50, "p50 {p50:?} p99 {p99:?}");
    // What only the drain-time report used to know is a live series now.
    for name in [
        live::RETRIED_OK_TOTAL,
        live::CHAOS_IGNORED_TOTAL,
        live::UNDELIVERED_TOTAL,
        live::DROPPED_CONNECTIONS_TOTAL,
        live::BATCHED_REQUESTS_TOTAL,
        live::MAX_BATCH_SIZE,
        live::MAX_QUEUE_DEPTH,
    ] {
        assert!(snap.find(name, &[]).is_some(), "{name} missing mid-load");
    }

    // The `stats` line is a view of the same books, byte for byte.
    assert_eq!(
        c.roundtrip("{\"op\":\"stats\",\"id\":7}"),
        "{\"v\":\"xbfs-serve-v1\",\"id\":7,\"status\":\"ok\",\"accepted\":4,\"shed\":0,\
         \"ok\":3,\"timeouts\":1,\"errors\":0,\"depth\":0,\"breaker_open\":false}"
    );

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean);
    assert_eq!(
        (report.ok, report.timeouts, report.bad_lines, report.deduped),
        (3, 1, 1, 1),
        "{report:?}"
    );
    assert_eq!(report.max_queue_depth, 1, "{report:?}");
    assert_eq!(
        ServeReport::from_snapshot(&snap, &cfg, report.flight_dumps.clone(), 0),
        report,
        "the wire scrape and the final report are one set of books"
    );
}

/// `xbfs-serve-report-v1` byte for byte, captured before the report
/// became a view of the snapshot (`scripts/ci.sh` greps fields out of it).
#[test]
fn serve_report_json_bytes_are_pinned() {
    let report = ServeReport {
        accepted: 101,
        shed: 2,
        rejected_draining: 3,
        ok: 94,
        timeouts: 5,
        errors: 2,
        replayed: 7,
        panics_recovered: 8,
        rebuilds: 9,
        chaos_ignored: 10,
        breaker_trips: 11,
        breaker_fast_rejects: 12,
        connections: 13,
        dropped_connections: 0,
        bad_lines: 15,
        max_queue_depth: 16,
        deduped: 17,
        batches: 18,
        batched_requests: 19,
        max_batch_size: 20,
        batch_width: 64,
        journal_appends: 22,
        journal_fsyncs: 23,
        journal_bytes: 24,
        replayed_requests: 25,
        recovery_ms: 26.5,
        long_lines: 27,
        idle_disconnects: 28,
        flight_dumps: vec!["/tmp/a \"b\".log".into(), "c.log".into()],
        cluster: 2,
        rank_health: vec![
            RankHealth {
                crashes: 1,
                checkpoints_restored: 2,
                retransmitted_bytes: 3,
            },
            RankHealth::default(),
        ],
        drain_clean: true,
    };
    assert_eq!(
        report.to_json(),
        r#"{"format":"xbfs-serve-report-v1","accepted":101,"shed":2,"rejected_draining":3,"ok":94,"timeouts":5,"errors":2,"replayed":7,"panics_recovered":8,"rebuilds":9,"chaos_ignored":10,"breaker_trips":11,"breaker_fast_rejects":12,"connections":13,"dropped_connections":0,"bad_lines":15,"max_queue_depth":16,"deduped":17,"batches":18,"batched_requests":19,"max_batch_size":20,"batch_width":64,"journal_appends":22,"journal_fsyncs":23,"journal_bytes":24,"replayed_requests":25,"recovery_ms":26.5,"long_lines":27,"idle_disconnects":28,"cluster":2,"rank_health":[{"rank":0,"crashes":1,"checkpoints_restored":2,"retransmitted_bytes":3},{"rank":1,"crashes":0,"checkpoints_restored":0,"retransmitted_bytes":0}],"flight_dumps":["/tmp/a \"b\".log","c.log"],"drain_clean":true}"#
    );
}

/// ... and on its worst input — a dump path full of quotes and control
/// characters, a recovery time that is not a number — it is still JSON.
#[test]
fn serve_report_json_survives_hostile_values() {
    let path = "/tmp/a \"b\" \\ \n \u{1} \u{7f}.log";
    let report = ServeReport {
        flight_dumps: vec![path.into()],
        recovery_ms: f64::INFINITY,
        ..ServeReport::default()
    };
    let doc = JsonValue::parse(&report.to_json()).expect("valid JSON");
    let dumps = doc.get("flight_dumps").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(dumps[0].as_str(), Some(path));
    assert_eq!(doc.get("recovery_ms"), Some(&JsonValue::Null));
}

/// The registry's latency series is the wait a client sees: it starts at
/// admission, stops once the reply is on the socket, and so sits between
/// the engine's own wall time and the client's round trip.
#[test]
fn registry_latency_clock_stops_at_the_socket() {
    let g = test_graph();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1000.0;
    let dev = Device::mi250x();
    let engine = Xbfs::new(&dev, &g, XbfsConfig::default()).unwrap();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    // Each round trip is followed by a direct run of the same source, so
    // a slow moment on the host slows both; the best direct run is the
    // engine's wall time.
    let mut engine_ms = f64::INFINITY;
    let mut client_ms: Vec<f64> = (0..15u64)
        .map(|id| {
            let t = Instant::now();
            let r = c.roundtrip(&format!(
                "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":7}}"
            ));
            let waited = ms(t);
            assert!(r.contains("\"status\":\"ok\""), "{r}");
            let t = Instant::now();
            engine.run(7).unwrap();
            engine_ms = engine_ms.min(ms(t));
            waited
        })
        .collect();
    client_ms.sort_by(f64::total_cmp);
    let client_p50 = client_ms[client_ms.len() / 2];

    let snap = c.scrape(90);
    let latency = snap
        .histogram(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .expect("ok latency histogram present");
    let write = snap
        .histogram(live::WRITE_MS, &[])
        .expect("write-stage histogram present");
    assert_eq!(
        (latency.count(), write.count()),
        (15, 15),
        "one sample per reply written"
    );
    let p50 = latency.quantile(50.0).unwrap();
    let write_p50 = write.quantile(50.0).unwrap();
    assert!(
        p50 >= engine_ms,
        "registry p50 {p50} ms cannot undercut the engine's {engine_ms} ms"
    );
    // Within a few ms either way: the registry reports its bucket's
    // upper bound (up to an eighth above the sample), and on a busy host
    // the writer can be descheduled between the write and the clock read.
    assert!(
        client_p50 - p50 < 10.0 && p50 - client_p50 * 1.125 < 10.0,
        "registry p50 {p50} ms must track the client's {client_p50} ms"
    );
    assert!(write_p50 < p50, "write stage {write_p50} ms of {p50} ms");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
}

/// The engine and certificate stages nest inside the request's latency:
/// one verified request on a batching server leaves one sample in each,
/// `certify ≤ engine ≤ request_latency`.
#[test]
fn engine_and_certify_stages_nest_inside_the_request_latency() {
    let cfg = ServeConfig {
        batch_width: 64,
        verify: true,
        ..ServeConfig::default()
    };
    let handle = start(cfg, test_graph());
    let mut c = Client::connect(handle.addr());
    let r = c.roundtrip("{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":1,\"source\":7}");
    assert!(
        r.contains("\"status\":\"ok\"") && r.contains("\"certified\":true"),
        "{r}"
    );
    let snap = c.scrape(2);
    // One sample each, so a histogram's sum is that sample.
    let [certify, engine, latency] = [
        (live::CERTIFY_MS, &[][..]),
        (live::ENGINE_MS, &[][..]),
        (live::REQUEST_LATENCY_MS, &[("status", "ok")][..]),
    ]
    .map(|(name, labels)| {
        let h = snap.histogram(name, labels).expect(name);
        assert_eq!(h.count(), 1, "{name}");
        h.sum()
    });
    assert!(
        0.0 < certify && certify <= engine && engine <= latency,
        "certify {certify} ms, engine {engine} ms, latency {latency} ms"
    );
    handle.initiate_drain();
    assert!(handle.join().drain_clean);
}

#[test]
fn http_listener_serves_prometheus_and_json_mid_load() {
    let g = test_graph();
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = start(cfg, g);
    let maddr = handle.metrics_addr().expect("metrics listener bound");
    let mut c = Client::connect(handle.addr());
    for id in 0..3u64 {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{id}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }

    let http_get = |path: &str| -> String {
        let mut s = TcpStream::connect(maddr).expect("connect scrape");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).expect("read scrape");
        body
    };

    let prom = http_get("/metrics");
    assert!(prom.starts_with("HTTP/1.0 200 OK"), "{prom}");
    assert!(prom.contains("# TYPE xbfs_serve_requests_total counter"));
    assert!(prom.contains("xbfs_serve_requests_total{status=\"ok\"} 3"));
    assert!(prom.contains("xbfs_serve_queue_depth"));
    assert!(prom.contains("xbfs_serve_request_latency_ms_bucket"));

    let json = http_get("/metrics.json");
    let body = json.split("\r\n\r\n").nth(1).expect("has body");
    let snap = MetricsSnapshot::from_json(&JsonValue::parse(body).expect("json body parses"))
        .expect("body is xbfs-metrics-v1");
    assert_eq!(snap.counter(live::REQUESTS_TOTAL, &[("status", "ok")]), 3);

    assert!(http_get("/nope").starts_with("HTTP/1.0 404"));

    // Scraping perturbed nothing: requests still serve afterwards.
    let r = c.roundtrip("{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":9,\"source\":7}");
    assert!(r.contains("\"status\":\"ok\""), "{r}");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 4);
}

#[test]
fn worker_panic_dumps_flight_recorder_and_report_references_it() {
    let g = test_graph();
    let dir = tmpdir("panic");
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        flight_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let handle = start(cfg, g);
    let mut c = Client::connect(handle.addr());

    let r = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":1,\"source\":3,\"chaos\":\"panic\"}",
    );
    assert!(r.contains("\"status\":\"ok\""), "replay succeeds: {r}");

    let snap = c.scrape(50);
    assert!(snap.counter(live::FLIGHT_DUMPS_TOTAL, &[]) >= 1);
    assert_eq!(
        snap.counter(live::WORKER_PANICS_TOTAL, &[("worker", "0")]),
        1
    );
    assert_eq!(
        snap.counter(live::WORKER_REBUILDS_TOTAL, &[("worker", "0")]),
        1
    );

    handle.initiate_drain();
    let report = handle.join();
    assert!(
        !report.flight_dumps.is_empty(),
        "panic must leave a dump: {report:?}"
    );
    let dump = std::fs::read_to_string(&report.flight_dumps[0]).expect("dump file exists");
    assert!(dump.contains("reason: worker-panic"), "{dump}");
    assert!(dump.contains("request.start"), "{dump}");
    assert!(dump.contains("injected worker panic"), "{dump}");
    assert!(
        report.to_json().contains("\"flight_dumps\":["),
        "report JSON references dumps"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn top_renders_frames_from_a_live_server() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), g);
    let mut c = Client::connect(handle.addr());
    for id in 0..2u64 {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{id}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }

    let addr = handle.addr().to_string();
    let mut out = Vec::new();
    let frames = run_top(&addr, Duration::from_millis(20), Some(2), &mut out).expect("top runs");
    assert_eq!(frames, 2);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("xbfs top"), "{text}");
    assert!(text.contains("ok 2"), "{text}");
    assert!(text.contains("breaker    closed"), "{text}");
    assert!(text.contains("w0="), "{text}");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
}
