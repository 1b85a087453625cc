//! Open-loop load generator for `xbfs serve`.
//!
//! Open-loop means the send schedule is fixed up front from the target
//! RPS: request `i` is *due* at `start + i/rps`, and latency is measured
//! from that scheduled instant — not from when the socket write finally
//! happened. A closed-loop client slows down when the server does, which
//! silently hides queueing delay (coordinated omission); an open-loop
//! one keeps the pressure on and charges the server for every
//! millisecond a response was late relative to the schedule.
//!
//! The generator drives `connections` sockets round-robin, stamps chaos
//! actions from a [`ChaosPlan`] (server-side injection, honored only
//! under `--allow-chaos`), and reports accepted/shed/timeout counts,
//! p50/p99/p999 latency, and whether every `ok` digest was consistent
//! per source — a cheap cross-request determinism check on the server.
//!
//! Shed responses carry `retry_after_ms`; with `retries > 0` the
//! generator honors it: the request is resent after the hinted backoff
//! (doubled per attempt, plus deterministic jitter so retries from many
//! clients don't re-synchronize into the same burst), up to the cap.
//! Latency for a retried-then-ok request still counts from the original
//! scheduled send — retrying does not hide the wait. Only requests shed
//! on their final attempt count as `shed`; `retried_ok` reports how many
//! succeeded only thanks to a retry.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gcd_sim::splitmix64;
use xbfs_telemetry::{json, LogHistogram};

use crate::chaos::ChaosPlan;
use crate::protocol::{self, control_line, BfsRequest};

/// How long a connection waits for stragglers (and redials a dropped
/// server) after it opens; what is unanswered then counts as lost.
const STRAGGLER_CUTOFF: Duration = Duration::from_secs(30);

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Total requests to send.
    pub requests: u64,
    /// Target offered load, requests per second.
    pub rps: f64,
    /// Concurrent connections (requests round-robin across them).
    pub connections: usize,
    /// Sources are drawn uniformly from `0..source_max`.
    pub source_max: u32,
    /// RNG seed for the source mix.
    pub seed: u64,
    /// Per-request deadline to stamp, ms.
    pub deadline_ms: Option<f64>,
    /// Per-request verify override to stamp.
    pub verify: Option<bool>,
    /// Chaos plan; selected requests carry an action token.
    pub chaos: Option<ChaosPlan>,
    /// Send a `shutdown` after the last response (graceful drain).
    pub shutdown_after: bool,
    /// Resend a shed request up to this many times, honoring the
    /// server's `retry_after_ms` hint with jittered backoff (0 = never).
    pub retries: u32,
    /// Print a one-line progress report (sent / ok / shed / p99-so-far)
    /// to stderr this often, ms (0 = silent).
    pub progress_every_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:4000".into(),
            requests: 100,
            rps: 200.0,
            connections: 4,
            source_max: 1,
            seed: 1,
            deadline_ms: None,
            verify: None,
            chaos: None,
            shutdown_after: false,
            retries: 0,
            progress_every_ms: 0,
        }
    }
}

/// What happened, from the client's side of the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadgenReport {
    /// Requests written to a socket.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Requests shed on their final attempt (retries, if any, exhausted).
    pub shed: u64,
    /// `timeout` responses.
    pub timeouts: u64,
    /// `error` responses.
    pub errors: u64,
    /// Requests with no response (connection died / straggler cutoff).
    pub lost: u64,
    /// `ok` responses that took more than one attempt (replayed after a
    /// quarantine server-side).
    pub replayed: u64,
    /// Requests that were shed at least once and then succeeded on a
    /// client-side retry.
    pub retried_ok: u64,
    /// Retry sends performed (beyond the original request writes).
    pub retries_sent: u64,
    /// Connections re-established after a drop (server restart, EOF).
    pub reconnects: u64,
    /// Median latency from scheduled send, ms.
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th percentile latency, ms.
    pub p999_ms: f64,
    /// Worst observed latency, ms.
    pub max_ms: f64,
    /// Every `ok` digest agreed per source (server determinism held).
    pub digests_consistent: bool,
    /// Wall time of the whole drive, ms.
    pub elapsed_ms: f64,
    /// Offered load actually achieved, requests/second.
    pub achieved_rps: f64,
    /// `ok` responses per wall second — the throughput a batching server
    /// is judged on (shed and failed requests don't count as served).
    pub served_qps: f64,
}

impl LoadgenReport {
    /// Shed fraction of everything that got an answer or was sent.
    pub fn shed_pct(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 * 100.0 / self.sent as f64
        }
    }

    /// `xbfs-loadgen-v1` JSON object (single line).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.key("format").str("xbfs-loadgen-v1");
            o.key("sent").int(self.sent);
            o.key("ok").int(self.ok);
            o.key("shed").int(self.shed);
            o.key("timeouts").int(self.timeouts);
            o.key("errors").int(self.errors);
            o.key("lost").int(self.lost);
            o.key("replayed").int(self.replayed);
            o.key("retried_ok").int(self.retried_ok);
            o.key("retries_sent").int(self.retries_sent);
            o.key("reconnects").int(self.reconnects);
            o.key("p50_ms").fixed(self.p50_ms, 3);
            o.key("p99_ms").fixed(self.p99_ms, 3);
            o.key("p999_ms").fixed(self.p999_ms, 3);
            o.key("max_ms").fixed(self.max_ms, 3);
            o.key("shed_pct").fixed(self.shed_pct(), 2);
            o.key("digests_consistent").bool(self.digests_consistent);
            o.key("elapsed_ms").fixed(self.elapsed_ms, 1);
            o.key("achieved_rps").fixed(self.achieved_rps, 1);
            o.key("served_qps").fixed(self.served_qps, 1);
        })
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the distribution at or below it.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Sample {
    status: String,
    latency_ms: f64,
    source: u32,
    digest: Option<String>,
    attempts: u32,
    /// The request was resent at least once after a shed.
    retried: bool,
    /// Retry sends this request consumed.
    retries_used: u32,
}

/// Live counters behind the periodic progress line: updated by the
/// sender threads (`sent`) and the aggregator (`ok`/`shed`/latency),
/// read by the printer. The histogram makes p99-so-far O(1) to read.
struct Progress {
    sent: AtomicU64,
    ok: AtomicU64,
    shed: AtomicU64,
    latency_ms: LogHistogram,
}

impl Progress {
    fn new() -> Self {
        Self {
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            latency_ms: LogHistogram::new(),
        }
    }

    fn note(&self, s: &Sample) {
        match s.status.as_str() {
            "ok" => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                self.latency_ms.record(s.latency_ms);
            }
            "overloaded" => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn line(&self) -> String {
        format!(
            "loadgen: sent {} ok {} shed {} p99-so-far {:.1}ms",
            self.sent.load(Ordering::Relaxed),
            self.ok.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.latency_ms.snapshot().quantile(99.0).unwrap_or(0.0)
        )
    }
}

/// Drive one server. Blocks until all responses arrived (or the
/// straggler cutoff) and optionally drains the server afterwards.
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let n_conns = cfg.connections.max(1);
    let start = Instant::now();
    let (agg_tx, agg_rx) = mpsc::channel::<Sample>();
    let progress = Arc::new(Progress::new());

    // The aggregator consumes samples *live* (not after the fact) so the
    // progress printer always has current ok/shed/p99 numbers.
    let collector = {
        let prog = Arc::clone(&progress);
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while let Ok(s) = agg_rx.recv() {
                prog.note(&s);
                samples.push(s);
            }
            samples
        })
    };
    let stop_printer = Arc::new(AtomicBool::new(false));
    let printer = (cfg.progress_every_ms > 0).then(|| {
        let prog = Arc::clone(&progress);
        let stop = Arc::clone(&stop_printer);
        let every = Duration::from_millis(cfg.progress_every_ms.max(1));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                eprintln!("{}", prog.line());
            }
        })
    });

    let reconnects = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for c in 0..n_conns {
        // Connection c owns requests c, c+n, c+2n, … of the schedule.
        let stream = TcpStream::connect(&cfg.addr)?;
        stream.set_nodelay(true).ok();
        let cfg = cfg.clone();
        let agg = agg_tx.clone();
        let prog = Arc::clone(&progress);
        let recon = Arc::clone(&reconnects);
        threads.push(std::thread::spawn(move || {
            drive_connection(&cfg, c, n_conns, stream, start, &agg, &prog, &recon)
        }));
    }
    drop(agg_tx);

    let mut sent = 0u64;
    for t in threads {
        sent += t.join().unwrap_or(0);
    }

    // Every sender is gone, so the collector's channel closes and it
    // returns the full sample set.
    let samples = collector.join().unwrap_or_default();
    // The run ends when the last response lands — clock it before the
    // printer teardown, whose sleep granularity would otherwise round
    // elapsed (and every rate derived from it) up to a whole tick.
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    stop_printer.store(true, Ordering::Relaxed);
    if let Some(p) = printer {
        let _ = p.join();
        eprintln!("{} (final)", progress.line());
    }

    let mut latencies = Vec::new();
    let mut report = LoadgenReport {
        sent,
        ..Default::default()
    };
    let mut digests: HashMap<u32, String> = HashMap::new();
    report.digests_consistent = true;
    report.reconnects = reconnects.load(Ordering::Relaxed);
    let mut answered = 0u64;
    for s in samples {
        answered += 1;
        report.retries_sent += u64::from(s.retries_used);
        match s.status.as_str() {
            "ok" => {
                report.ok += 1;
                if s.attempts > 1 {
                    report.replayed += 1;
                }
                if s.retried {
                    report.retried_ok += 1;
                }
                latencies.push(s.latency_ms);
                if let Some(d) = s.digest {
                    match digests.get(&s.source) {
                        Some(prev) if *prev != d => report.digests_consistent = false,
                        Some(_) => {}
                        None => {
                            digests.insert(s.source, d);
                        }
                    }
                }
            }
            "overloaded" => report.shed += 1,
            "timeout" => report.timeouts += 1,
            _ => report.errors += 1,
        }
    }
    report.lost = sent.saturating_sub(answered);
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report.p50_ms = percentile(&latencies, 0.50);
    report.p99_ms = percentile(&latencies, 0.99);
    report.p999_ms = percentile(&latencies, 0.999);
    report.max_ms = latencies.last().copied().unwrap_or(0.0);
    report.elapsed_ms = elapsed_ms;
    report.achieved_rps = if report.elapsed_ms > 0.0 {
        sent as f64 * 1000.0 / report.elapsed_ms
    } else {
        0.0
    };
    report.served_qps = if report.elapsed_ms > 0.0 {
        report.ok as f64 * 1000.0 / report.elapsed_ms
    } else {
        0.0
    };

    if cfg.shutdown_after {
        let _ = send_shutdown(&cfg.addr);
    }
    Ok(report)
}

/// Ask a server to drain (fire-and-confirm).
pub fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(2000)))
        .ok();
    writeln!(stream, "{}", control_line("shutdown", 0))?;
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
    Ok(())
}

/// The shared write side of one loadgen connection. The paced sender and
/// the reader's retry path both write whole lines through the mutex; the
/// reader owns redialing, and swaps a fresh stream in here when the old
/// one drops. `None` means "down, redial in progress"; `dead` means the
/// redial budget is exhausted and writers should give up.
struct Wire {
    stream: std::sync::Mutex<Option<TcpStream>>,
    dead: AtomicBool,
}

impl Wire {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: std::sync::Mutex::new(Some(stream)),
            dead: AtomicBool::new(false),
        }
    }

    /// Write one request line. On failure the stream is torn down so the
    /// reader's next EOF kicks off the redial; callers retry or give up.
    fn write_line(&self, s: &str) -> bool {
        let mut g = self.stream.lock().unwrap();
        match g.as_mut() {
            Some(st) => {
                if writeln!(st, "{s}").is_ok() {
                    true
                } else {
                    *g = None;
                    false
                }
            }
            None => false,
        }
    }
}

/// Everything the reader needs about one in-flight request.
struct Pending {
    scheduled_ms: f64,
    source: u32,
    /// Full request line, kept so a shed can be resent verbatim.
    req: String,
    retries_left: u32,
    retries_used: u32,
}

/// One connection: a reader thread collects responses (and resends shed
/// requests after their hinted backoff) while this thread paces sends on
/// the global schedule. The reader also owns *redialing*: when the
/// connection drops (EOF, reset — e.g. the server was killed), it
/// reconnects with jittered backoff and resends every outstanding id
/// verbatim, so a restarted server can answer them — from its warm dedup
/// cache or by journal replay. Latency still counts from the original
/// schedule. Returns how many were sent.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    cfg: &LoadgenConfig,
    conn_idx: usize,
    n_conns: usize,
    stream: TcpStream,
    start: Instant,
    agg: &mpsc::Sender<Sample>,
    progress: &Progress,
    reconnects: &Arc<AtomicU64>,
) -> u64 {
    let rps = if cfg.rps > 0.0 { cfg.rps } else { 1000.0 };
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return 0,
    };
    reader_stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    // Writer and reader both send on the socket (paced requests here,
    // retries + reconnect resends there); whole-line writes are
    // serialized by the wire's mutex.
    let wire = Arc::new(Wire::new(stream));

    let (meta_tx, meta_rx) = mpsc::channel::<(u64, Pending)>();
    let agg = agg.clone();
    let reader_wire = Arc::clone(&wire);
    let reconnects = Arc::clone(reconnects);
    let addr = cfg.addr.clone();
    let mut retry_rng = cfg.seed ^ 0xdead_beef ^ (conn_idx as u64).wrapping_mul(0x85eb_ca6b);
    let max_retries = cfg.retries;
    let reader = std::thread::spawn(move || {
        let wire = reader_wire;
        let mut meta: HashMap<u64, Pending> = HashMap::new();
        let mut expected: Option<u64> = None; // set when writer finishes
        let mut resolved = 0u64;
        // Shed ids waiting out their backoff before a resend.
        let mut backlog: Vec<(Instant, u64)> = Vec::new();
        let mut reader = BufReader::new(reader_stream);
        let mut line = String::new();
        let deadline = Instant::now() + STRAGGLER_CUTOFF;
        loop {
            // Absorb any new send metadata (non-blocking).
            loop {
                match meta_rx.try_recv() {
                    Ok((id, p)) => {
                        meta.insert(id, p);
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        // Unresolved ids (including those awaiting a
                        // retry) are still in `meta`.
                        expected.get_or_insert(meta.len() as u64 + resolved);
                        break;
                    }
                }
            }
            if expected.is_some_and(|e| resolved >= e) || Instant::now() > deadline {
                break;
            }
            // Fire retries whose backoff elapsed.
            let now = Instant::now();
            let mut k = 0;
            while k < backlog.len() {
                if backlog[k].0 <= now {
                    let (_, id) = backlog.swap_remove(k);
                    if let Some(p) = meta.get_mut(&id) {
                        p.retries_used += 1;
                        let _ = wire.write_line(&p.req);
                    }
                } else {
                    k += 1;
                }
            }
            let mut conn_down = false;
            match reader.read_line(&mut line) {
                Ok(0) => conn_down = true, // server closed
                Ok(_) if line.ends_with('\n') => {
                    let raw = std::mem::take(&mut line);
                    if let Ok(resp) = protocol::parse_response(raw.trim()) {
                        // The writer registers metadata on a channel, and a
                        // fast server's response can outrun the absorb at
                        // the loop top (we were already blocked in
                        // `read_line`). Drain again before deciding whether
                        // this id is known, or the stale entry both dodges
                        // retry/latency accounting and inflates `expected`.
                        while let Ok((id, p)) = meta_rx.try_recv() {
                            meta.insert(id, p);
                        }
                        // A shed with retry budget left is not resolved:
                        // honor the server's backoff hint (doubled per
                        // attempt, jittered) and resend.
                        let retriable = resp.status == "overloaded"
                            && meta.get(&resp.id).is_some_and(|p| p.retries_left > 0);
                        if retriable {
                            let p = meta.get_mut(&resp.id).expect("checked above");
                            p.retries_left -= 1;
                            let attempt = max_retries - p.retries_left; // 1-based
                            let base = resp.retry_after_ms.unwrap_or(25).max(1);
                            let backoff = base << (attempt - 1).min(6);
                            let jitter = splitmix64(&mut retry_rng) % (base / 2 + 1);
                            backlog.push((
                                Instant::now() + Duration::from_millis(backoff + jitter),
                                resp.id,
                            ));
                        } else if let Some(p) = meta.remove(&resp.id) {
                            resolved += 1;
                            let now_ms = start.elapsed().as_secs_f64() * 1000.0;
                            let _ = agg.send(Sample {
                                status: resp.status,
                                latency_ms: (now_ms - p.scheduled_ms).max(0.0),
                                source: p.source,
                                digest: resp.digest,
                                attempts: resp.attempts.unwrap_or(1),
                                retried: p.retries_used > 0,
                                retries_used: p.retries_used,
                            });
                        }
                        // Unknown id: a duplicate answer to an id already
                        // resolved (a reconnect resend raced the original
                        // response) — drop it, never double-count.
                    }
                }
                Ok(_) => conn_down = true, // partial line: peer went away
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => conn_down = true,
            }
            if conn_down {
                // Redial with jittered backoff until the straggler
                // cutoff and resend every outstanding id (latency still
                // counts from the original schedule), so a load survives
                // a server restart; ECONNREFUSED while the server
                // restarts is expected, not fatal.
                let mut dialed = None;
                let mut attempt = 0u32;
                while Instant::now() < deadline {
                    if let Ok(s) = TcpStream::connect(&addr) {
                        dialed = Some(s);
                        break;
                    }
                    attempt += 1;
                    let backoff = (25u64 << attempt.min(4)).min(400);
                    let jitter = splitmix64(&mut retry_rng) % (backoff / 2 + 1);
                    std::thread::sleep(Duration::from_millis(backoff + jitter));
                }
                let fresh = dialed.and_then(|s| {
                    s.set_nodelay(true).ok();
                    s.set_read_timeout(Some(Duration::from_millis(100))).ok();
                    s.try_clone().ok().map(|write_half| (s, write_half))
                });
                let Some((read_half, write_half)) = fresh else {
                    wire.dead.store(true, Ordering::Relaxed);
                    break;
                };
                *wire.stream.lock().unwrap() = Some(write_half);
                reader = BufReader::new(read_half);
                line.clear();
                // Backlogged shed retries are covered by the full resend
                // below; stale entries would only double-send.
                backlog.clear();
                while let Ok((id, p)) = meta_rx.try_recv() {
                    meta.insert(id, p);
                }
                // Resend every outstanding id verbatim. The server
                // answers completed ones from its (journal-warmed) dedup
                // cache and re-executes the rest; latency still counts
                // from the original schedule.
                for p in meta.values() {
                    let _ = wire.write_line(&p.req);
                }
                reconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
    });

    let mut rng = cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9e37_79b9);
    let mut sent = 0u64;
    let mut i = conn_idx as u64;
    while i < cfg.requests {
        // Open loop: request i is due at start + i/rps, regardless of
        // how the server is doing.
        let due = Duration::from_secs_f64(i as f64 / rps);
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
        let scheduled_ms = due.as_secs_f64() * 1000.0;
        let source = (splitmix64(&mut rng) % u64::from(cfg.source_max.max(1))) as u32;
        let req = BfsRequest {
            id: i,
            source,
            deadline_ms: cfg.deadline_ms,
            verify: cfg.verify,
            chaos: cfg.chaos.and_then(|p| p.action(i).token()),
        }
        .to_line();
        // Register metadata before the write so the reader can never see
        // a response to an unknown id.
        let _ = meta_tx.send((
            i,
            Pending {
                scheduled_ms,
                source,
                req: req.clone(),
                retries_left: cfg.retries,
                retries_used: 0,
            },
        ));
        // A failed write waits for the reader to re-establish the wire
        // (it is redialing the moment the drop surfaces on its side)
        // instead of abandoning the rest of the schedule.
        let mut write_ok = wire.write_line(&req);
        if !write_ok {
            let give_up = Instant::now() + STRAGGLER_CUTOFF;
            while !write_ok && !wire.dead.load(Ordering::Relaxed) && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(10));
                write_ok = wire.write_line(&req);
            }
        }
        if !write_ok {
            break;
        }
        sent += 1;
        progress.sent.fetch_add(1, Ordering::Relaxed);
        i += n_conns as u64;
    }
    drop(meta_tx); // reader learns the final expected count
    let _ = reader.join();
    // Reader is done (everything resolved or cutoff hit) — now it is
    // safe to close the write side; dropping the stream does it.
    sent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let mut v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(percentile(&v, 0.50), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b).wrapping_add(1));
    }

    #[test]
    fn report_json_has_format_tag() {
        let r = LoadgenReport {
            sent: 10,
            ok: 8,
            shed: 2,
            ..Default::default()
        };
        let j = r.to_json();
        assert!(j.contains("\"format\":\"xbfs-loadgen-v1\""));
        assert!(j.contains("\"shed_pct\":20.00"));
    }
}
