//! The four workloads: set-up, the measured closed loop, and the
//! end-to-end numbers derived from it.
//!
//! Every input (graph, sources, draws) comes from the seed through
//! [`Rng`]; the program under test only ever sees the generated inputs.
//! Every answer is checked against the [`Oracle`], and the oracle's own
//! wall time for the same source is the unit of host time.

use crate::catalogue::{Kind, Workload};
use crate::clock::{process_cpu_s, thread_cpu_s};
use crate::oracle::{Answer, Oracle};
use crate::stats::{median, paired_ratios, percentile, sorted};
use crate::trace::Tracer;
use gcd_sim::{ArchProfile, Device, ExecMode};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xbfs_core::{BfsRun, MsBfs, Strategy, Xbfs, XbfsConfig};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::Csr;
use xbfs_server::{DeviceFactory, FsyncPolicy, ServeConfig, ServeReport, Server, ServerHandle};
use xbfs_telemetry::{JsonValue, Recorder};

/// Generator seed of the pinned R-MAT graphs. The graph is a fixed data
/// set, one per scale; `--seed` picks the sources and the draws. (With a
/// graph per seed, modeled GTEPS spread 4-5 % between seeds at scale 14
/// however many sources were averaged; on a pinned graph the spread
/// falls with the source count, 1.6 % at 64.)
const GRAPH_SEED: u64 = 0xB5;
/// Distinct sources the direct and lone workloads cycle through.
const SOURCES: usize = 64;
/// Candidate sources the batched workload draws from, Zipf(1.0).
const BATCH_CANDIDATES: usize = 256;
/// Requests the batched workload keeps outstanding on its connection.
pub const BATCH_OUTSTANDING: usize = 128;
/// The batched client times the yardstick on every this-many-th response.
const BATCH_YARDSTICK_EVERY: u64 = 4;
/// Queries issued (and checked) before anything is timed.
const WARMUP_QUERIES: usize = 8;
const BATCH_WIDTH: usize = 64;
const BATCH_QUEUE_CAP: usize = 256;
const JOURNAL_FSYNC_EVERY: u32 = 8;
/// A server that has not answered for this long has failed the run.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// splitmix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(1.0) weights over `n` ranks, normalised to end at 1.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Rank drawn from a cumulative distribution.
fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Where journal and trace files go: `out/` beside this package's
/// manifest, inside the checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn journal_path(workload: &str) -> PathBuf {
    out_dir().join(format!("journal-{workload}.bin"))
}

/// What set-up measured about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupFacts {
    /// Set-up wall time as the clock read it.
    pub setup_wall_s: f64,
    /// Median oracle wall time while picking this set-up's sources.
    pub setup_yardstick_s: f64,
    pub rmat_gen_s: f64,
    pub edges: u64,
    /// `Xbfs::new` wall (direct engine, or the lone workload's reference).
    pub xbfs_new_ms: Option<f64>,
    /// `Server::start` until the first answered request.
    pub startup_ms: Option<f64>,
}

/// One line-oriented client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    next_id: u64,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            next_id: 1,
        })
    }

    /// Write one request line; returns the id it carries.
    fn send(&mut self, op: &str, source: Option<u32>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let mut req = format!("{{\"v\":\"xbfs-serve-v1\",\"id\":{id},\"op\":\"{op}\"");
        if let Some(s) = source {
            let _ = write!(req, ",\"source\":{s}");
        }
        req.push_str("}\n");
        self.writer
            .write_all(req.as_bytes())
            .expect("server closed the connection mid-run");
        id
    }

    /// Block for the next response line.
    fn recv(&mut self) -> &str {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("no response within the client read timeout");
        assert!(n > 0, "server closed the connection mid-run");
        self.line.trim_end()
    }
}

/// Raw text of a top-level scalar field of a flat response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn field_num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.parse().ok()
}

/// What the lone workload compares the wire against: the full digest
/// (which folds in modeled time) of a direct `Xbfs::run` per source, and
/// that run's host wall time (for `server.shell_ms`).
struct Reference {
    wire_digest: Vec<u64>,
    run_wall_s: Vec<f64>,
}

// One engine exists per set-up and none is ever moved in bulk, so the
// size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Direct(Xbfs<Device>),
    Server {
        handle: ServerHandle,
        conn: Conn,
        reference: Option<Reference>,
        journal: Option<PathBuf>,
    },
}

/// A set-up workload, ready to be measured.
pub struct Instance {
    pub workload: &'static Workload,
    pub graph: Arc<Csr>,
    pub oracle: Oracle,
    /// Sources (32) or Zipf candidates (256), all in the giant component.
    pub sources: Vec<u32>,
    /// The oracle's answer for each of `sources`.
    pub answers: Vec<Answer>,
    pub facts: SetupFacts,
    rng: Rng,
    engine: Engine,
}

/// Per-query exact counts read off the public `BfsRun` (direct kinds).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectCounts {
    pub queries: u64,
    pub wall_s: f64,
    pub levels: u64,
    pub kernels: u64,
    pub fetch_kb: f64,
    pub modeled_ms: f64,
    pub edges: u64,
    /// Levels run as scan-free, single-scan, bottom-up.
    pub strategy_levels: [u64; 3],
    /// Fresh device allocations (pool misses) during the phase.
    pub pool_allocs: u64,
}

/// Everything one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Answers that arrived inside the measured window.
    pub answered: u64,
    /// Wall seconds from issuing a query to holding its answer.
    pub latency_s: Vec<f64>,
    pub yardstick_s: Vec<f64>,
    /// Query wall over yardstick wall, pair by pair (direct and lone).
    pub ratios: Vec<f64>,
    /// Query CPU over yardstick wall, pair by pair (direct only).
    pub cpu_ratios: Vec<f64>,
    /// Process CPU over the window minus the client's yardstick CPU.
    pub cpu_query_s: f64,
    /// Modeled GTEPS of each distinct source, first occurrence.
    pub gteps: Vec<f64>,
    pub direct: DirectCounts,
    /// `wait_ms` of every ok line (serve kinds).
    pub wait_ms: Vec<f64>,
    /// Latency − `wait_ms` − direct run wall of the same source (lone).
    pub shell_ms: Vec<f64>,
}

/// The end-to-end metrics a phase yields (`setup_s`, `peak_rss_mb` and
/// the batched workload's `modeled_gteps` come from elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct EndToEndValues {
    pub host_overhead_x: f64,
    pub host_overhead_p90_x: f64,
    pub cpu_overhead_x: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
}

impl Phase {
    pub fn end_to_end(&self, kind: Kind) -> EndToEndValues {
        let yard = median(&self.yardstick_s);
        let latency = sorted(&self.latency_s);
        let per_query = |total: f64| total / self.answered.max(1) as f64 / yard;
        let (host, host_p90) = match kind {
            // Throughput, not a per-request wait: 128 requests overlap.
            Kind::ServeBatch => (per_query(self.wall_s), percentile(&latency, 90.0) / yard),
            _ => (
                median(&self.ratios),
                percentile(&sorted(&self.ratios), 90.0),
            ),
        };
        let cpu = if kind.is_direct() {
            median(&self.cpu_ratios)
        } else {
            per_query(self.cpu_query_s)
        };
        EndToEndValues {
            host_overhead_x: host,
            host_overhead_p90_x: host_p90,
            cpu_overhead_x: cpu,
            latency_p50_ms: percentile(&latency, 50.0) * 1e3,
            latency_p90_ms: percentile(&latency, 90.0) * 1e3,
        }
    }
}

fn device(kind: Kind) -> Device {
    let mode = match kind {
        Kind::DirectTiming => ExecMode::Timing,
        _ => ExecMode::Functional,
    };
    Device::new(ArchProfile::mi250x_gcd(), mode, 1)
}

/// Yardstick wall time that counts as reference host speed, seconds:
/// what this sandbox shows in its faster minutes.
fn reference_yardstick_s(scale: u32) -> f64 {
    match scale {
        16 => 5.0e-3,
        _ => 0.9e-3,
    }
}

/// `setup_s` of a run: the median set-up wall time, scaled to reference
/// host speed by the yardstick as timed inside those same set-ups. It
/// stays a time in seconds, yet follows the host through its slow and
/// fast phases: between phases ten minutes apart set-up wall time swung
/// 30 %, set-up wall over yardstick wall 8 %.
pub fn setup_s(setups: &[SetupFacts], scale: u32) -> f64 {
    let of = |f: fn(&SetupFacts) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    of(|s| s.setup_wall_s) * reference_yardstick_s(scale) / of(|s| s.setup_yardstick_s)
}

/// The sources a set-up picked.
struct Picked {
    sources: Vec<u32>,
    /// The oracle's answer for each source.
    answers: Vec<Answer>,
    /// Median oracle wall time over the picked sources, seconds.
    yardstick_s: f64,
}

/// The first `count` distinct vertices of `candidates` that lie inside
/// the giant component.
fn pick_sources(
    oracle: &mut Oracle,
    candidates: impl Iterator<Item = u32>,
    count: usize,
) -> Picked {
    let n = oracle.num_vertices();
    let (mut sources, mut answers, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    for v in candidates {
        if sources.len() == count {
            break;
        }
        if oracle.degree(v) == 0 || sources.contains(&v) {
            continue;
        }
        let (wall, a) = oracle.timed(v);
        if a.reached as usize > n / 4 {
            sources.push(v);
            answers.push(a);
            walls.push(wall);
        }
    }
    assert_eq!(sources.len(), count, "too few giant-component vertices");
    Picked {
        sources,
        answers,
        yardstick_s: median(&walls),
    }
}

impl Instance {
    /// Generate the graph, build the engine or start the server, copy
    /// the graph for the oracle, and run the warm-up queries.
    pub fn set_up(workload: &'static Workload, seed: u64) -> Self {
        let started = Instant::now();
        let kind = workload.kind;
        let mut facts = SetupFacts::default();

        let graph = Arc::new(rmat_graph(RmatParams::graph500(workload.scale), GRAPH_SEED));
        facts.rmat_gen_s = started.elapsed().as_secs_f64();
        facts.edges = graph.num_edges() as u64;

        let mut oracle = Oracle::new(graph.offsets(), graph.adjacency());
        let mut rng = Rng::new(seed ^ 0x5eed_50c5);
        let count = match kind {
            Kind::ServeBatch => BATCH_CANDIDATES,
            _ => SOURCES,
        };
        let n = graph.num_vertices() as u64;
        let random = std::iter::repeat_with(|| (rng.next_u64() % n) as u32);
        let Picked {
            sources,
            answers,
            yardstick_s,
        } = pick_sources(&mut oracle, random, count);

        let engine = match kind {
            Kind::DirectSolo | Kind::DirectTiming => {
                let t = Instant::now();
                let xbfs = Xbfs::new(device(kind), &graph, XbfsConfig::default())
                    .expect("R-MAT graphs are never empty");
                facts.xbfs_new_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                Engine::Direct(xbfs)
            }
            Kind::ServeLone | Kind::ServeBatch => {
                let reference = (kind == Kind::ServeLone).then(|| {
                    let t = Instant::now();
                    let xbfs = Xbfs::new(device(kind), &graph, XbfsConfig::default())
                        .expect("R-MAT graphs are never empty");
                    facts.xbfs_new_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                    let mut r = Reference {
                        wire_digest: Vec::new(),
                        run_wall_s: Vec::new(),
                    };
                    for &s in &sources {
                        let t = Instant::now();
                        let run = xbfs.run(s).expect("source is in range");
                        r.run_wall_s.push(t.elapsed().as_secs_f64());
                        r.wire_digest.push(run.digest());
                    }
                    r
                });
                let journal = (kind == Kind::ServeBatch).then(|| {
                    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
                    let path = journal_path(workload.name);
                    // A journal left by a killed run would be replayed.
                    let _ = std::fs::remove_file(&path);
                    path
                });
                let mut cfg = ServeConfig {
                    workers: 1,
                    flight_dir: Some(out_dir().join("flight").to_string_lossy().into_owned()),
                    ..ServeConfig::default()
                };
                if let Some(path) = &journal {
                    cfg.batch_width = BATCH_WIDTH;
                    cfg.verify = true;
                    cfg.queue_cap = BATCH_QUEUE_CAP;
                    cfg.journal = Some(path.to_string_lossy().into_owned());
                    cfg.journal_fsync = FsyncPolicy::Batch(JOURNAL_FSYNC_EVERY);
                }
                let factory: DeviceFactory = Arc::new(move || device(kind));
                let t = Instant::now();
                let handle = Server::start(
                    cfg,
                    Arc::clone(&graph),
                    XbfsConfig::default(),
                    factory,
                    Arc::new(Recorder::disabled()),
                )
                .expect("bind 127.0.0.1:0");
                let mut conn = Conn::open(handle.addr()).expect("connect to own server");
                conn.send("bfs", Some(sources[0]));
                assert_eq!(field(conn.recv(), "status"), Some("ok"), "first request");
                facts.startup_ms = Some(t.elapsed().as_secs_f64() * 1e3);
                Engine::Server {
                    handle,
                    conn,
                    reference,
                    journal,
                }
            }
        };

        let mut inst = Self {
            workload,
            graph,
            oracle,
            sources,
            answers,
            facts,
            rng,
            engine,
        };
        let warm = inst.warm_up();
        assert_eq!(warm, 0, "{warm} warm-up answers were wrong");
        inst.facts.setup_yardstick_s = yardstick_s;
        inst.facts.setup_wall_s = started.elapsed().as_secs_f64();
        inst
    }

    /// Issue the warm-up queries; returns how many answers were wrong.
    /// Against a server they are pipelined: one at a time, each would
    /// wait out the connection handler's 50 ms poll, and `setup_s` would
    /// mostly count timer ticks.
    fn warm_up(&mut self) -> u64 {
        let kind = self.workload.kind;
        let warm = self.sources.iter().zip(&self.answers).take(WARMUP_QUERIES);
        match &mut self.engine {
            Engine::Direct(xbfs) => warm
                .filter(|(&src, want)| {
                    let run = xbfs.run(src).expect("source is in range");
                    run.result_digest() != want.digest
                })
                .count() as u64,
            Engine::Server {
                conn, reference, ..
            } => {
                let sent: Vec<(u64, Answer)> = warm
                    .map(|(&src, &want)| (conn.send("bfs", Some(src)), want))
                    .collect();
                let mut failed = 0;
                for _ in &sent {
                    let line = conn.recv();
                    let id = field_num::<u64>(line, "id");
                    let ok = sent
                        .iter()
                        .position(|&(i, _)| Some(i) == id)
                        .is_some_and(|i| {
                            let wire = reference.as_ref().map(|r| r.wire_digest[i]);
                            answer_matches(line, kind, sent[i].1, wire)
                        });
                    failed += u64::from(!ok);
                }
                failed
            }
        }
    }

    /// Run the workload's closed loop for `seconds`.
    pub fn measure(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        match self.workload.kind {
            Kind::DirectSolo | Kind::DirectTiming => self.measure_direct(seconds, tracer),
            Kind::ServeLone => self.measure_lone(seconds, tracer),
            Kind::ServeBatch => self.measure_batch(seconds, tracer),
        }
    }

    fn measure_direct(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let Engine::Direct(xbfs) = &self.engine else {
            unreachable!("direct workloads own an engine")
        };
        let mut p = Phase::default();
        let mut first_total_ms: Vec<Option<u64>> = vec![None; self.sources.len()];
        let mut query_s = Vec::new();
        let mut cpu_s = Vec::new();
        let pool_before = xbfs.device().pool_stats().1;
        let window = Instant::now();
        let mut i = 0usize;
        while window.elapsed().as_secs_f64() < seconds {
            let slot = i % self.sources.len();
            let (src, want) = (self.sources[slot], self.answers[slot]);
            let c0 = process_cpu_s();
            let t0 = Instant::now();
            let run = xbfs.run(std::hint::black_box(src));
            let t1 = Instant::now();
            let c1 = process_cpu_s();
            let (yard, got) = self.oracle.timed(src);
            let t2 = Instant::now();

            p.attempted += 1;
            let mut ok = got == want;
            match &run {
                Ok(run) => {
                    ok &= run.result_digest() == got.digest;
                    // The modeled clock must not depend on what ran before.
                    let bits = run.total_ms.to_bits();
                    match first_total_ms[slot] {
                        None => {
                            first_total_ms[slot] = Some(bits);
                            p.gteps.push(run.gteps);
                        }
                        Some(first) => ok &= first == bits,
                    }
                    count_run(&mut p.direct, run);
                }
                Err(_) => ok = false,
            }
            p.failed += u64::from(!ok);
            query_s.push((t1 - t0).as_secs_f64());
            cpu_s.push(c1 - c0);
            p.yardstick_s.push(yard);

            if tracer.is_enabled() {
                let id = i as u64 + 1;
                let root = tracer.span("query", id, None, t0, Instant::now());
                let core = tracer.span("core.xbfs.run", id, root, t0, t1);
                tracer.span("oracle.bfs", id, root, t1, t2);
                if let Ok(run) = &run {
                    tracer.set_attrs(core, || level_rows(run));
                }
            }
            i += 1;
        }
        p.wall_s = window.elapsed().as_secs_f64();
        p.answered = p.attempted;
        p.direct.pool_allocs = xbfs.device().pool_stats().1 - pool_before;
        p.direct.wall_s = query_s.iter().sum();
        p.ratios = paired_ratios(&query_s, &p.yardstick_s);
        p.cpu_ratios = paired_ratios(&cpu_s, &p.yardstick_s);
        p.cpu_query_s = cpu_s.iter().sum();
        p.latency_s = query_s;
        p
    }

    fn measure_lone(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let Engine::Server {
            conn, reference, ..
        } = &mut self.engine
        else {
            unreachable!("serve workloads own a server")
        };
        let reference = reference.as_ref().expect("lone set-up builds a reference");
        let mut p = Phase::default();
        let mut first_total_ms: Vec<Option<String>> = vec![None; self.sources.len()];
        let mut yard_cpu = 0.0;
        let cpu_before = process_cpu_s();
        let window = Instant::now();
        let mut i = 0usize;
        while window.elapsed().as_secs_f64() < seconds {
            let slot = i % self.sources.len();
            let (src, want) = (self.sources[slot], self.answers[slot]);
            let t0 = Instant::now();
            let id = conn.send("bfs", Some(src));
            let t1 = Instant::now();
            let line = conn.recv();
            let t2 = Instant::now();

            p.attempted += 1;
            let mut ok = field_num::<u64>(line, "id") == Some(id)
                && answer_matches(
                    line,
                    Kind::ServeLone,
                    want,
                    Some(reference.wire_digest[slot]),
                );
            let total_ms = field(line, "total_ms").unwrap_or_default();
            match &first_total_ms[slot] {
                None => {
                    first_total_ms[slot] = Some(total_ms.to_string());
                    p.gteps.push(field_num(line, "gteps").unwrap_or(0.0));
                }
                Some(first) => ok &= first == total_ms,
            }
            let wait_ms = field_num::<f64>(line, "wait_ms").unwrap_or(0.0);
            let latency = (t2 - t0).as_secs_f64();

            // This thread slept through the round trip; an untimed pass
            // first, so the yardstick does not time the wake-up instead.
            let y0 = thread_cpu_s();
            self.oracle.bfs(src);
            let t3 = Instant::now();
            let (yard, got) = self.oracle.timed(src);
            let t4 = Instant::now();
            yard_cpu += thread_cpu_s() - y0;
            ok &= got == want;

            p.failed += u64::from(!ok);
            p.latency_s.push(latency);
            p.yardstick_s.push(yard);
            p.wait_ms.push(wait_ms);
            p.shell_ms
                .push(latency * 1e3 - wait_ms - reference.run_wall_s[slot] * 1e3);
            if tracer.is_enabled() {
                let root = tracer.span("query", id, None, t0, Instant::now());
                tracer.span("client.write", id, root, t0, t1);
                tracer.span("server.roundtrip", id, root, t1, t2);
                tracer.span("oracle.bfs", id, root, t3, t4);
            }
            i += 1;
        }
        p.wall_s = window.elapsed().as_secs_f64();
        p.answered = p.attempted;
        p.cpu_query_s = process_cpu_s() - cpu_before - yard_cpu;
        p.ratios = paired_ratios(&p.latency_s, &p.yardstick_s);
        p
    }

    fn measure_batch(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let Engine::Server { conn, .. } = &mut self.engine else {
            unreachable!("serve workloads own a server")
        };
        struct Sent {
            slot: usize,
            write_start: Instant,
            write_end: Instant,
        }
        let cdf = zipf_cdf(self.sources.len());
        let mut p = Phase::default();
        let mut outstanding: HashMap<u64, Sent> = HashMap::new();
        let mut yard_cpu = 0.0;
        let mut cpu_at_close = None;
        let cpu_before = process_cpu_s();
        let window = Instant::now();

        let issue = |conn: &mut Conn, outstanding: &mut HashMap<u64, Sent>, rng: &mut Rng| {
            let slot = draw(&cdf, rng);
            let write_start = Instant::now();
            let id = conn.send("bfs", Some(self.sources[slot]));
            let sent = Sent {
                slot,
                write_start,
                write_end: Instant::now(),
            };
            outstanding.insert(id, sent);
        };
        for _ in 0..BATCH_OUTSTANDING {
            issue(conn, &mut outstanding, &mut self.rng);
        }
        while !outstanding.is_empty() {
            let line = conn.recv();
            let arrived = Instant::now();
            let open = cpu_at_close.is_none();
            p.attempted += 1;
            let id = field_num::<u64>(line, "id").unwrap_or(0);
            let Some(sent) = outstanding.remove(&id) else {
                p.failed += 1; // an answer to a question nobody asked
                continue;
            };
            let want = self.answers[sent.slot];
            let mut ok = answer_matches(line, Kind::ServeBatch, want, None);
            if open {
                p.answered += 1;
                p.latency_s.push((arrived - sent.write_start).as_secs_f64());
                p.wait_ms.push(field_num(line, "wait_ms").unwrap_or(0.0));
            }
            let mut yard_span = None;
            if open && p.answered % BATCH_YARDSTICK_EVERY == 0 {
                let (y0, t3) = (thread_cpu_s(), Instant::now());
                let (yard, got) = self.oracle.timed(self.sources[sent.slot]);
                yard_span = Some((t3, Instant::now()));
                yard_cpu += thread_cpu_s() - y0;
                ok &= got == want;
                p.yardstick_s.push(yard);
            }
            p.failed += u64::from(!ok);
            if open && tracer.is_enabled() {
                let root = tracer.span("query", id, None, sent.write_start, Instant::now());
                tracer.span("client.write", id, root, sent.write_start, sent.write_end);
                tracer.span("server.roundtrip", id, root, sent.write_end, arrived);
                if let Some((t3, t4)) = yard_span {
                    tracer.span("oracle.bfs", id, root, t3, t4);
                }
            }
            if window.elapsed().as_secs_f64() < seconds {
                issue(conn, &mut outstanding, &mut self.rng);
            } else if open {
                // Window closed: what is still outstanding is drained and
                // checked, but no longer timed.
                p.wall_s = window.elapsed().as_secs_f64();
                cpu_at_close = Some(process_cpu_s());
            }
        }
        p.cpu_query_s =
            cpu_at_close.expect("the window closes before the drain") - cpu_before - yard_cpu;
        p
    }

    /// Aggregate modeled GTEPS of one 64-wide `MsBfs` batch over the 64
    /// lowest-numbered giant-component vertices, every slot checked
    /// against the oracle. This is the batched workload's
    /// `modeled_gteps`. It takes no input from the seed on purpose: a
    /// batch's modeled time hangs on its deepest member, so seeded source
    /// sets spread 4-9 %, and the served batches' composition depends on
    /// arrival timing. Returns the GTEPS, the slots checked and the slots
    /// found wrong.
    pub fn batch_reference(&mut self) -> (f64, u64, u64) {
        let all = 0..self.graph.num_vertices() as u32;
        let picked = pick_sources(&mut self.oracle, all, BATCH_WIDTH);
        let engine = MsBfs::new(Device::mi250x(), &self.graph).expect("graph is not empty");
        let run = engine.run_batch(&picked.sources);
        let wrong = (0..BATCH_WIDTH)
            .filter(|&slot| run.result_digest(slot) != picked.answers[slot].digest)
            .count();
        (run.gteps, BATCH_WIDTH as u64, wrong as u64)
    }

    /// One `metrics` wire op: the registry's own p50 of ok latency, ms.
    pub fn registry_latency_p50_ms(&mut self) -> Option<f64> {
        let Engine::Server { conn, .. } = &mut self.engine else {
            return None;
        };
        conn.send("metrics", None);
        let v = JsonValue::parse(conn.recv()).ok()?;
        let series = v.get("metrics")?.get("series")?.as_arr()?;
        series
            .iter()
            .find(|s| {
                s.get("name").and_then(|n| n.as_str())
                    == Some(xbfs_telemetry::names::live::REQUEST_LATENCY_MS)
                    && s.get("labels")
                        .and_then(|l| l.get("status"))
                        .and_then(|l| l.as_str())
                        == Some("ok")
            })?
            .get("p50")?
            .as_f64()
    }

    /// Drain and join the server (if any) and remove the journal.
    pub fn shut_down(self) -> Option<ServeReport> {
        match self.engine {
            Engine::Direct(_) => None,
            Engine::Server {
                handle,
                conn,
                journal,
                ..
            } => {
                handle.initiate_drain();
                drop(conn);
                let report = handle.join();
                if let Some(path) = journal {
                    let _ = std::fs::remove_file(path);
                }
                Some(report)
            }
        }
    }
}

/// Does an `ok` line carry the oracle's answer? The lone server's digest
/// folds in modeled time, so it is compared with a direct run's; the
/// batched server's is the levels-only digest the oracle computes.
/// The solo engine reports depth as a level count, the batched engine as
/// the deepest level.
fn answer_matches(line: &str, kind: Kind, want: Answer, wire_digest: Option<u64>) -> bool {
    let digest = field(line, "digest")
        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok());
    let depth = match kind {
        Kind::ServeBatch => u64::from(want.max_level),
        _ => u64::from(want.max_level) + 1,
    };
    field(line, "status") == Some("ok")
        && digest == Some(wire_digest.unwrap_or(want.digest))
        && field_num::<u64>(line, "depth") == Some(depth)
        && field_num::<u64>(line, "reached") == Some(want.reached)
}

fn count_run(c: &mut DirectCounts, run: &BfsRun) {
    c.queries += 1;
    c.levels += run.level_stats.len() as u64;
    c.modeled_ms += run.total_ms;
    c.edges += run.traversed_edges;
    for l in &run.level_stats {
        c.kernels += l.kernels.len() as u64;
        c.fetch_kb += l.fetch_kb();
        c.strategy_levels[match l.strategy {
            Strategy::ScanFree => 0,
            Strategy::SingleScan => 1,
            Strategy::BottomUp => 2,
        }] += 1;
    }
}

/// The modeled per-level rows of a run, as a span attribute.
fn level_rows(run: &BfsRun) -> String {
    let mut s = format!(
        "{{\"source\":{},\"modeled_total_ms\":{:.6},\"levels\":[",
        run.source, run.total_ms
    );
    for (i, l) in run.level_stats.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}{{\"level\":{},\"strategy\":\"{}\",\"frontier\":{},\"edges\":{},\
             \"modeled_ms\":{:.6},\"kernels\":{},\"fetch_kb\":{:.3}}}",
            l.level,
            l.strategy,
            l.frontier_count,
            l.frontier_edges,
            l.time_ms,
            l.kernels.len(),
            l.fetch_kb()
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let cdf = zipf_cdf(256);
        assert!((cdf[255] - 1.0).abs() < 1e-12);
        let (mut a, mut b) = (Rng::new(9), Rng::new(9));
        let da: Vec<usize> = (0..1000).map(|_| draw(&cdf, &mut a)).collect();
        let db: Vec<usize> = (0..1000).map(|_| draw(&cdf, &mut b)).collect();
        assert_eq!(da, db);
        // Zipf(1.0) over 256 ranks puts ~16 % of the mass on rank 1.
        let first = da.iter().filter(|&&r| r == 0).count();
        assert!((100..250).contains(&first), "rank-1 draws: {first}");
        assert!(da.iter().all(|&r| r < 256));
    }

    #[test]
    fn flat_field_extraction() {
        let line = "{\"v\":\"xbfs-serve-v1\",\"id\":12,\"status\":\"ok\",\"depth\":7,\
                    \"total_ms\":0.123456,\"digest\":\"0x00ff\",\"wait_ms\":0.250}";
        assert_eq!(field(line, "status"), Some("ok"));
        assert_eq!(field_num::<u64>(line, "id"), Some(12));
        assert_eq!(field(line, "total_ms"), Some("0.123456"));
        assert_eq!(field(line, "digest"), Some("0x00ff"));
        assert_eq!(field_num::<f64>(line, "wait_ms"), Some(0.25));
        assert_eq!(field(line, "missing"), None);
    }
}
