//! End-to-end serving-layer tests over a real socket: panic isolation
//! (an injected worker panic never kills the listener, and the replayed
//! result is bit-identical to a single-shot run), deadline timeouts,
//! load shedding, chaos gating, graceful drain, cluster serving with
//! mid-request checkpoint/restart, idempotent replay, client-side shed
//! retries, and the completion-driven reply path (no reply waits on a
//! timer, pipelined lines never interleave, a client that never reads
//! stalls nobody else), and a serve trace rendered from the flight rings.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::generators::erdos_renyi;
use xbfs_graph::Csr;
use xbfs_server::{
    protocol, run_loadgen, ChaosPlan, LoadgenConfig, ServeConfig, Server, ServerHandle,
};
use xbfs_telemetry::Recorder;

fn test_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(3000, 12_000, 7))
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

/// A client connection with line-level send/recv helpers.
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

    /// One line, one segment: a `writeln!` would send the newline as a
    /// second write and let Nagle hold it behind the server's delayed ACK.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> protocol::ResponseSummary {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        protocol::parse_response(line.trim()).expect("parse response")
    }

    fn bfs(&mut self, id: u64, source: u32, extra: &str) -> protocol::ResponseSummary {
        self.send(&bfs_line(id, source, extra));
        self.recv()
    }
}

fn bfs_line(id: u64, source: u32, extra: &str) -> String {
    format!("{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":{source}{extra}}}")
}

/// The digest a plain single-shot engine computes for this source — the
/// bit-identity reference every served result must match.
fn reference_digest(g: &Csr, source: u32) -> String {
    let dev = Device::mi250x();
    let eng = Xbfs::new(&dev, g, XbfsConfig::default()).unwrap();
    format!("{:#018x}", eng.run(source).unwrap().digest())
}

/// The backend-independent levels-only digest of a fault-free
/// single-device run — what a `--cluster` server's responses must match
/// bit for bit, crashes or not.
fn reference_levels_digest(g: &Csr, source: u32) -> String {
    let dev = Device::mi250x();
    let eng = Xbfs::new(&dev, g, XbfsConfig::default()).unwrap();
    format!("{:#018x}", eng.run(source).unwrap().result_digest())
}

#[test]
fn serves_bfs_and_drains_cleanly() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // ping / info answer inline.
    c.send("{\"op\":\"ping\",\"id\":1}");
    assert_eq!(c.recv().status, "ok");
    c.send("{\"op\":\"info\",\"id\":2}");
    assert_eq!(c.recv().status, "ok");

    // Served results match the single-shot reference bit for bit.
    for (id, src) in [(10u64, 0u32), (11, 42), (12, 2999)] {
        let r = c.bfs(id, src, "");
        assert_eq!(r.status, "ok", "source {src}");
        assert_eq!(r.id, id);
        assert_eq!(
            r.digest.as_deref(),
            Some(reference_digest(&g, src).as_str()),
            "served result must be bit-identical to a fresh engine"
        );
    }

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "clean drain: {report:?}");
    assert_eq!(report.ok, 3);
    assert_eq!(report.dropped_connections, 0);
}

#[test]
fn worker_panic_is_contained_and_replay_is_bit_identical() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // A chaos panic fires inside the worker on attempt 0; the
    // supervisor quarantines the engine, rebuilds, and replays clean.
    let r = c.bfs(1, 17, ",\"chaos\":\"panic\"");
    assert_eq!(r.status, "ok", "replay after panic must succeed: {r:?}");
    assert_eq!(r.attempts, Some(2), "one panic, one clean replay");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 17).as_str()),
        "replayed result must be bit-identical to a single-shot run"
    );

    // The listener survived: the same connection keeps working, and so
    // does a brand-new one.
    let r = c.bfs(2, 17, "");
    assert_eq!(r.status, "ok");
    assert_eq!(r.attempts, Some(1));
    let mut c2 = Client::connect(handle.addr());
    c2.send("{\"op\":\"ping\",\"id\":3}");
    assert_eq!(c2.recv().status, "ok");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.panics_recovered, 1);
    assert_eq!(report.rebuilds, 1);
    assert_eq!(report.replayed, 1);
}

#[test]
fn chaos_is_ignored_without_opt_in() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g)); // allow_chaos: false
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 5, ",\"chaos\":\"panic\"");
    assert_eq!(r.status, "ok", "production servers ignore stamped chaos");
    assert_eq!(r.attempts, Some(1));
    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.chaos_ignored, 1);
    assert_eq!(report.panics_recovered, 0);
}

#[test]
fn bitflip_chaos_is_detected_and_replayed() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 99, ",\"chaos\":\"bitflip\"");
    assert_eq!(r.status, "ok", "{r:?}");
    assert!(
        r.attempts.unwrap_or(0) >= 2,
        "certification must catch the flip and force a replay"
    );
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 99).as_str()),
        "corrected result must be bit-identical"
    );
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.rebuilds >= 1);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn impossible_deadline_times_out_typed() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    // A nanosecond-scale budget cannot cover a multi-level run.
    let r = c.bfs(1, 0, ",\"deadline_ms\":0.000001");
    assert_eq!(r.status, "timeout");
    // The engine survives a timeout: the next request is clean.
    let r = c.bfs(2, 0, "");
    assert_eq!(r.status, "ok");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_digest(&g, 0).as_str()),
        "state must be fully reusable after a deadline abort"
    );
    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.timeouts, 1);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn bad_source_is_a_typed_error_not_a_crash() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 1_000_000, "");
    assert_eq!(r.status, "error");
    assert_eq!(r.kind.as_deref(), Some("invalid"));
    // A source that is not an exact vertex id is refused at the parser
    // (never coerced into a different vertex), with the request's id.
    c.send("{\"op\":\"bfs\",\"id\":5,\"source\":-1}");
    let r = c.recv();
    assert_eq!((r.id, r.status.as_str()), (5, "error"), "{r:?}");
    assert_eq!(r.kind.as_deref(), Some("usage"));
    let r = c.bfs(2, 1, "");
    assert_eq!(r.status, "ok", "server keeps serving after a bad request");
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.bad_lines, 1, "{report:?}");
}

#[test]
fn overload_sheds_explicitly_and_nothing_is_lost() {
    let g = test_graph();
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // Pipeline a burst far past capacity without reading.
    let burst = 30u64;
    for id in 0..burst {
        c.send(&format!(
            "{{\"v\":\"xbfs-serve-v1\",\"op\":\"bfs\",\"id\":{id},\"source\":0}}"
        ));
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..burst {
        let r = c.recv();
        match r.status.as_str() {
            "ok" => ok += 1,
            "overloaded" => {
                assert!(r.retry_after_ms.unwrap_or(0) > 0, "hint required");
                shed += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok + shed, burst, "every request answered exactly once");
    assert!(shed > 0, "a 2-deep queue must shed under a 30-burst");
    assert!(ok > 0, "accepted requests still complete");

    handle.initiate_drain();
    let report = handle.join();
    assert_eq!(report.ok, ok);
    assert_eq!(report.shed, shed);
    assert_eq!(report.dropped_connections, 0);
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn cluster_recovers_rank_crash_within_request_and_digest_matches_single_device() {
    let g = test_graph();
    let cfg = ServeConfig {
        cluster: Some(4),
        allow_chaos: true,
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    // Rank 1 dies at level 1 mid-request; checkpoint/restart recovers it
    // inside the request — the response is ok on attempt 1 (no replay)
    // with ≥1 recovery, and the digest is bit-identical to a fault-free
    // single-device run.
    let r = c.bfs(1, 42, ",\"chaos\":\"crash@1:rank1\",\"deadline_ms\":60000");
    assert_eq!(r.status, "ok", "{r:?}");
    assert_eq!(
        r.attempts,
        Some(1),
        "recovered within the request, not replayed"
    );
    assert!(
        r.recoveries.unwrap_or(0) >= 1,
        "a mid-request checkpoint restore must be reported: {r:?}"
    );
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 42).as_str()),
        "recovered levels must be bit-identical to fault-free"
    );

    // A clean request on the same warm cluster matches too.
    let r = c.bfs(2, 42, "");
    assert_eq!(r.status, "ok");
    assert_eq!(r.recoveries, Some(0));
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 42).as_str())
    );

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.cluster, 4);
    assert_eq!(
        report.rank_health.len(),
        4,
        "per-rank health for all 4 GCDs"
    );
    assert_eq!(report.rank_health[1].crashes, 1, "{:?}", report.rank_health);
    let restores: u64 = report
        .rank_health
        .iter()
        .map(|h| h.checkpoints_restored)
        .sum();
    assert!(restores >= 1, "{:?}", report.rank_health);
}

#[test]
fn crash_chaos_on_single_device_server_is_a_usage_error() {
    let g = test_graph();
    let cfg = ServeConfig {
        allow_chaos: true,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 0, ",\"chaos\":\"crash@1:rank0\"");
    assert_eq!(r.status, "error");
    assert_eq!(r.kind.as_deref(), Some("usage"));
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
}

#[test]
fn replayed_completed_id_is_answered_from_cache_not_reexecuted() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());

    let first = c.bfs(7, 19, "");
    assert_eq!(first.status, "ok");
    assert_eq!(first.deduped, None);

    // A reconnect-after-timeout replays the same id: the cached response
    // comes back (marked), and the server does not execute it again.
    let mut c2 = Client::connect(handle.addr());
    let replay = c2.bfs(7, 19, "");
    assert_eq!(replay.status, "ok");
    assert_eq!(replay.deduped, Some(true), "{replay:?}");
    assert_eq!(replay.digest, first.digest);

    // Same id with a different source is a different request, not a
    // replay — it must execute.
    let other = c.bfs(7, 20, "");
    assert_eq!(other.status, "ok");
    assert_eq!(other.deduped, None);

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 2, "only two executions for three requests");
    assert_eq!(report.deduped, 1);
}

#[test]
fn loadgen_retries_shed_requests_until_they_land() {
    let g = test_graph();
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));

    // A burst far past a 1-deep queue: without retries much of it is
    // shed; with retries everything eventually lands.
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 30,
        rps: 3000.0,
        connections: 2,
        source_max: 4,
        retries: 10,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(
        report.retried_ok >= 1,
        "retries must rescue sheds: {report:?}"
    );
    assert!(report.retries_sent >= report.retried_ok);
    assert!(report.digests_consistent, "{report:?}");
    assert_eq!(
        report.ok + report.shed + report.timeouts + report.errors,
        report.sent,
        "{report:?}"
    );

    handle.initiate_drain();
    let sreport = handle.join();
    assert!(sreport.drain_clean, "{sreport:?}");
}

#[test]
fn chaos_soak_on_cluster_loses_nothing_and_recovers_ranks() {
    let g = test_graph();
    let cfg = ServeConfig {
        cluster: Some(4),
        allow_chaos: true,
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    };
    let handle = start(cfg, Arc::clone(&g));

    // Every third request carries a rank-1 crash at level 1; retries
    // absorb any sheds so nothing is lost.
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 24,
        rps: 500.0,
        connections: 2,
        source_max: 1, // one source → digests_consistent compares
        // crash-recovered responses against clean ones
        chaos: Some(ChaosPlan::parse("crash@1:3,rank=1").expect("chaos spec")),
        retries: 10,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");

    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.ok > 0, "{report:?}");
    assert!(
        report.digests_consistent,
        "crash-recovered results must match clean ones: {report:?}"
    );

    // And the shared single source matches the fault-free single-device
    // reference bit for bit.
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1_000_000, 0, "");
    assert_eq!(
        r.digest.as_deref(),
        Some(reference_levels_digest(&g, 0).as_str())
    );

    handle.initiate_drain();
    let sreport = handle.join();
    assert!(sreport.drain_clean, "{sreport:?}");
    let crashes: u64 = sreport.rank_health.iter().map(|h| h.crashes).sum();
    let restores: u64 = sreport
        .rank_health
        .iter()
        .map(|h| h.checkpoints_restored)
        .sum();
    assert!(crashes >= 1, "{:?}", sreport.rank_health);
    assert!(restores >= 1, "{:?}", sreport.rank_health);
}

#[test]
fn shutdown_op_drains_and_rejects_late_requests() {
    let g = test_graph();
    let handle = start(ServeConfig::default(), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let r = c.bfs(1, 3, "");
    assert_eq!(r.status, "ok");
    c.send("{\"op\":\"shutdown\",\"id\":2}");
    assert_eq!(c.recv().status, "ok");
    // join() returning at all is the drain assertion: accept loop,
    // handlers, and workers all exited on the wire-initiated shutdown.
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 1);
}

/// `--trace` on a server renders what the flight recorder kept, once, at
/// drain: instants on the lanes' tracks, never a live wall-clock span.
#[test]
fn serve_trace_renders_the_flight_rings() {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let rec = Arc::new(Recorder::new());
    let handle = Server::start(
        cfg,
        tiny_graph(),
        XbfsConfig::default(),
        Arc::new(Device::mi250x),
        Arc::clone(&rec),
    )
    .expect("server binds");
    let mut c = Client::connect(handle.addr());
    for id in 1..=3u64 {
        assert_eq!(c.bfs(id, id as u32, "").status, "ok");
    }
    handle.initiate_drain();
    assert!(handle.join().drain_clean);

    let trace = rec.finish();
    trace.well_formed().expect("well-formed");
    assert!(trace.spans.is_empty(), "{:?}", trace.spans);
    let on = |name: &str, track: usize| {
        let named = trace.events_named(name);
        named.filter(|e| e.track == track).count()
    };
    assert_eq!((on("request.start", 0), on("request.finish", 0)), (3, 3));
    assert_eq!(on("drain", 1), 1, "{:?}", trace.events);
    assert!(trace.events.iter().all(|e| e.attr("detail").is_some()));
}

/// A `bfs` refused because the server is draining never reaches the
/// queue, and is still on the books: the client is told `draining` and
/// the report counts it. A slow request in flight keeps the connection
/// open across the drain, so the late one is certain to be read.
#[test]
fn draining_refusal_is_counted_in_the_report() {
    let cfg = ServeConfig {
        allow_chaos: true,
        ..ServeConfig::default()
    };
    let handle = start(cfg, test_graph());
    let mut c = Client::connect(handle.addr());
    c.send(&bfs_line(1, 3, ",\"chaos\":\"slow@400\""));
    // Lines are read in order: the pong says request 1 is admitted.
    c.send("{\"op\":\"ping\",\"id\":9}");
    assert_eq!(c.recv().id, 9);

    handle.initiate_drain();
    c.send(&bfs_line(2, 4, ""));
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("recv refusal");
    assert!(line.contains("\"status\":\"overloaded\""), "{line}");
    assert!(line.contains("\"reason\":\"draining\""), "{line}");
    let r = c.recv();
    assert_eq!((r.id, r.status.as_str()), (1, "ok"));

    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.rejected_draining, 1, "{report:?}");
    assert_eq!((report.accepted, report.ok), (1, 1), "{report:?}");
}

// ---------------------------------------------------------------------
// Completion-driven replies: reader/writer split per connection.
// ---------------------------------------------------------------------

/// Small enough that one BFS is well under a millisecond, so what a
/// round trip costs is the serving shell.
fn tiny_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(64, 256, 5))
}

/// A lone synchronous client gets each answer when the worker produces
/// it, not when a poll timer next fires: 20 round trips on a tiny graph
/// fit in half a second with room to spare (a 50 ms flush poll alone
/// would make them take a full second).
#[test]
fn sequential_round_trips_never_wait_on_a_timer() {
    let handle = start(ServeConfig::default(), tiny_graph());
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.bfs(0, 1, "").status, "ok"); // engine build is not the shell
    let started = Instant::now();
    for id in 1..=20u64 {
        let r = c.bfs(id, (id % 64) as u32, "");
        assert_eq!((r.id, r.status.as_str()), (id, "ok"));
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "20 round trips took {took:?}"
    );

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 21);
}

/// The reader (inline `ping`/`stats` replies) and the writer (`bfs`
/// completions) share one socket: under a deep pipeline every reply is
/// still one whole JSON line and every id is answered exactly once.
#[test]
fn pipelined_replies_from_both_threads_never_interleave() {
    let cfg = ServeConfig {
        queue_cap: 512,
        ..ServeConfig::default()
    };
    let handle = start(cfg, tiny_graph());
    let c = Client::connect(handle.addr());
    let mut expected: HashSet<u64> = HashSet::new();
    let mut lines = String::new();
    for id in 0..256u64 {
        lines.push_str(&bfs_line(id, (id % 64) as u32, ""));
        lines.push('\n');
        expected.insert(id);
        if id % 4 == 0 {
            let op = if id % 8 == 0 { "ping" } else { "stats" };
            lines.push_str(&format!("{{\"op\":\"{op}\",\"id\":{}}}\n", 1000 + id));
            expected.insert(1000 + id);
        }
    }
    // Written from a second thread so neither side can block the other
    // on a full socket buffer.
    let mut writer = c.writer.try_clone().unwrap();
    let sender = std::thread::spawn(move || writer.write_all(lines.as_bytes()).expect("send"));
    let mut reader = c.reader;
    let mut seen: HashSet<u64> = HashSet::new();
    for _ in 0..expected.len() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "torn line {line:?}");
        let r = protocol::parse_response(line.trim())
            .unwrap_or_else(|e| panic!("reply is not one whole JSON line ({e}): {line:?}"));
        assert_eq!(r.status, "ok", "{line}");
        assert!(seen.insert(r.id), "id {} answered twice", r.id);
    }
    sender.join().unwrap();
    assert_eq!(seen, expected);

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.ok, 256);
    assert_eq!(report.dropped_connections, 0);
}

/// A client that pipelines requests and never reads wedges its own
/// connection once the socket buffers fill — and nothing else: the
/// worker keeps finishing that client's jobs (delivery never blocks), a
/// second connection is served meanwhile, and the wedged connection is
/// given up on after the idle budget — the client never has to close —
/// with its undeliverable replies counted, once.
#[test]
fn client_that_never_reads_stalls_only_its_own_connection() {
    let cfg = ServeConfig {
        workers: 1,
        idle_timeout_ms: 1_000,
        ..ServeConfig::default()
    };
    let handle = start(cfg, tiny_graph());

    // Flood until our own write blocks: the server stopped reading this
    // connection, which it only does when its replies have nowhere to go.
    let stuck = TcpStream::connect(handle.addr()).unwrap();
    stuck
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut flood = stuck.try_clone().unwrap();
    let flooder = std::thread::spawn(move || {
        // Fresh ids throughout: a repeated id would be answered from the
        // idempotency cache instead of reaching the queue.
        let mut ids = 1_000_000u64..;
        let mut chunk = || -> String {
            ids.by_ref()
                .take(64)
                .map(|id| bfs_line(id, 1, "") + "\n")
                .collect()
        };
        // Bounded, so a server that buffered without limit fails the
        // test instead of hanging it.
        (0..20_000).any(|_| flood.write_all(chunk().as_bytes()).is_err())
    });
    assert!(flooder.join().unwrap(), "flooding connection never wedged");

    // The flood left the queue full; once the worker has emptied it into
    // the wedged connection's channel, the other connection is served at
    // full speed.
    let mut c = Client::connect(handle.addr());
    loop {
        c.send("{\"op\":\"stats\",\"id\":1}");
        let mut line = String::new();
        c.reader.read_line(&mut line).expect("recv stats");
        if line.contains("\"depth\":0,") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for id in 10..20u64 {
        let r = c.bfs(id, (id % 64) as u32, "");
        assert_eq!((r.id, r.status.as_str()), (id, "ok"));
    }

    // The wedged client neither reads nor closes. A write blocked for
    // the whole idle budget fails, so its threads let go and the drain
    // completes; what its writer still held can never be delivered.
    drop(c);
    handle.initiate_drain();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    let report = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("drain must not wait on a client that never reads and never closes");
    drop(stuck);
    assert_eq!(report.dropped_connections, 1, "{report:?}");
    assert_eq!(report.connections, 2, "{report:?}");
    assert!(report.shed > 0, "the flood overran a 32-deep queue");
    assert_eq!(
        report.accepted,
        report.ok + report.timeouts + report.errors,
        "the worker finished everything admitted: {report:?}"
    );
}

// ---------------------------------------------------------------------
// Durability: write-ahead journal, crash-consistent restart.
// ---------------------------------------------------------------------

fn journal_cfg(path: &std::path::Path) -> ServeConfig {
    ServeConfig {
        journal: Some(path.to_string_lossy().into_owned()),
        journal_fsync: xbfs_server::FsyncPolicy::Always,
        ..ServeConfig::default()
    }
}

fn tmp_journal(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("xbfs-e2e-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A restart on the same journal warm-starts the dedup cache: a client
/// that resends a completed id gets the cached response (`deduped`)
/// with the identical digest, without recomputation.
#[test]
fn restart_on_same_journal_dedupes_completed_ids() {
    let g = test_graph();
    let path = tmp_journal("dedup");

    let handle = start(journal_cfg(&path), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let first = c.bfs(77, 5, "");
    assert_eq!(first.status, "ok");
    let digest = first.digest.clone().expect("ok carries a digest");
    drop(c);
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert!(report.journal_appends >= 2, "admit + done: {report:?}");

    // Process 2 on the same journal: the resent id must be answered from
    // the warmed cache, bit-identical, and marked deduped.
    let handle = start(journal_cfg(&path), Arc::clone(&g));
    let mut c = Client::connect(handle.addr());
    let replayed = c.bfs(77, 5, "");
    assert_eq!(replayed.status, "ok");
    assert_eq!(replayed.deduped, Some(true), "warm cache must answer");
    assert_eq!(replayed.digest.as_deref(), Some(digest.as_str()));
    assert_eq!(digest, reference_digest(&g, 5));
    // A fresh id still executes normally.
    let fresh = c.bfs(78, 6, "");
    assert_eq!(fresh.status, "ok");
    assert_ne!(fresh.deduped, Some(true));
    drop(c);
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert!(report.deduped >= 1, "{report:?}");
    assert_eq!(report.replayed_requests, 0, "nothing was incomplete");
    let _ = std::fs::remove_file(&path);
}

/// Admits journaled by a process that died before answering are
/// re-enqueued on restart and finish with digests bit-identical to a
/// fresh run — even when the dead process also tore the journal tail.
#[test]
fn restart_replays_incomplete_admits_bit_identically() {
    let g = test_graph();
    let path = tmp_journal("replay");
    let lost: &[(u64, u32)] = &[(1, 0), (2, 42), (3, 2999)];
    {
        // Simulate the dead process: admits with no completions, then a
        // torn half-record where the SIGKILL landed.
        let (j, _) = xbfs_server::Journal::open(&path, xbfs_server::FsyncPolicy::Always).unwrap();
        for &(id, source) in lost {
            j.append_admit(&xbfs_server::BfsRequest {
                id,
                source,
                deadline_ms: None,
                verify: None,
                chaos: None,
            })
            .unwrap();
        }
    }
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0x42, 0x00, 0x13]); // torn tail
    std::fs::write(&path, &bytes).unwrap();

    let handle = start(journal_cfg(&path), Arc::clone(&g));
    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.replayed_requests, lost.len() as u64, "{report:?}");
    assert_eq!(report.ok, lost.len() as u64, "{report:?}");
    assert!(report.recovery_ms >= 0.0, "{report:?}");

    // The journal now closes the loop: no incomplete admits remain, and
    // every recovered completion carries the fresh-run reference digest.
    let healed = xbfs_server::replay_bytes(&std::fs::read(&path).unwrap());
    assert!(healed.incomplete.is_empty(), "{healed:?}");
    for &(id, source) in lost {
        let d = healed
            .completed
            .iter()
            .find(|d| d.id == id && d.source == source)
            .unwrap_or_else(|| panic!("no completion journaled for id {id}"));
        assert_eq!(d.status, "ok");
        assert_eq!(
            d.digest.as_deref(),
            Some(reference_digest(&g, source).as_str()),
            "recovered result must be bit-identical to a fresh run"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Read hygiene: a request line over the 64 KiB bound is shed with a
/// typed `overlong` error instead of growing the buffer without limit,
/// and an idle connection with nothing in flight is closed after the
/// idle budget.
#[test]
fn overlong_lines_shed_and_idle_connections_close() {
    let g = test_graph();
    let handle = start(
        ServeConfig {
            idle_timeout_ms: 300,
            ..ServeConfig::default()
        },
        Arc::clone(&g),
    );

    // Overlong: a newline-less firehose one byte past the cap.
    let mut c = Client::connect(handle.addr());
    let blob = vec![b'x'; xbfs_server::server::MAX_REQUEST_LINE + 2];
    c.writer.write_all(&blob).unwrap();
    c.writer.flush().unwrap();
    let r = c.recv();
    assert_eq!(r.status, "error");
    drop(c);

    // Idle: no traffic at all → server closes within the idle budget.
    let idle = TcpStream::connect(handle.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    let n = BufReader::new(idle).read_line(&mut line).unwrap();
    assert_eq!(n, 0, "idle connection must be closed, got {line:?}");

    handle.initiate_drain();
    let report = handle.join();
    assert!(report.drain_clean, "{report:?}");
    assert_eq!(report.long_lines, 1, "{report:?}");
    assert!(report.idle_disconnects >= 1, "{report:?}");
}
