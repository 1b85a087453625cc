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
use xbfs_server::top::{run_top, TopSnapshot};
use xbfs_server::{ServeConfig, Server, ServerHandle};
use xbfs_telemetry::json::JsonValue;
use xbfs_telemetry::names::live;
use xbfs_telemetry::Recorder;

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
    fn scrape(&mut self, id: u64) -> TopSnapshot {
        let resp = self.roundtrip(&format!("{{\"op\":\"metrics\",\"id\":{id}}}"));
        let v = JsonValue::parse(&resp).expect("metrics response parses");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        TopSnapshot::parse(v.get("metrics").expect("metrics payload"))
            .expect("payload is xbfs-metrics-v1")
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("xbfs-me2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn metrics_op_snapshot_reconciles_with_final_report() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), g);
    let mut c = Client::connect(handle.addr());

    for (id, src) in [(1u64, 0u32), (2, 5), (3, 1999)] {
        let r = c.roundtrip(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{src}}}"
        ));
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }
    // One typed timeout (deadline already spent before the run starts).
    let r = c.roundtrip(
        "{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":4,\"source\":1,\"deadline_ms\":0.000001}",
    );
    assert!(r.contains("\"status\":\"timeout\""), "{r}");

    // Everything above completed before this scrape, so the snapshot
    // must agree exactly with what the final report will say.
    let snap = c.scrape(90);
    assert_eq!(snap.counter(live::REQUESTS_TOTAL, &[("status", "ok")]), 3);
    assert_eq!(
        snap.counter(live::REQUESTS_TOTAL, &[("status", "timeout")]),
        1
    );
    assert_eq!(snap.counter(live::ADMITTED_TOTAL, &[]), 4);
    assert!(snap.counter(live::CONNECTIONS_TOTAL, &[]) >= 1);
    let (count, _, p50, p99) = snap
        .hist(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .expect("ok latency histogram present");
    assert_eq!(count, 3);
    assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} p99 {p99}");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean);
    assert_eq!(report.ok, 3);
    assert_eq!(report.timeouts, 1);
    assert_eq!(
        report.accepted,
        snap.counter(live::ADMITTED_TOTAL, &[]),
        "scrape reconciles with the report: nothing lost"
    );
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
    let (count, _, p50, _) = snap
        .hist(live::REQUEST_LATENCY_MS, &[("status", "ok")])
        .expect("ok latency histogram present");
    let (written, _, write_p50, _) = snap
        .hist(live::WRITE_MS, &[])
        .expect("write-stage histogram present");
    assert_eq!((count, written), (15, 15), "one sample per reply written");
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
    let snap = TopSnapshot::parse(&JsonValue::parse(body).expect("json body parses"))
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
