//! Per-layer probes: each times a handful of public calls into one
//! layer, so that a change to that layer has a number of its own to move
//! before (and whether or not) an end-to-end metric follows.
//!
//! All probes run on an R-MAT scale-14 graph with sources from the seed.
//! Results that can be wrong (cluster and batched BFS levels, journal
//! replay) are checked and counted like any other answer.

use crate::oracle::{Answer, Oracle};
use crate::stats::median;
use crate::workloads::out_dir;
use gcd_sim::{ArchProfile, Device, ExecMode, LaunchCfg};
use std::hint::black_box;
use std::time::Instant;
use xbfs_core::{certify_run, MsBfs, Xbfs, XbfsConfig};
use xbfs_graph::Csr;
use xbfs_multi_gcd::{ClusterConfig, GcdCluster, LinkModel};
use xbfs_server::protocol::{ok_line, parse_request, BfsRequest};
use xbfs_server::{replay_bytes, AdmissionQueue, DedupCache, FsyncPolicy, Journal};
use xbfs_telemetry::{JsonValue, MetricUnit, MetricsRegistry};

/// Lanes of the load/store kernel behind the `*_ns_per_lane` probes.
const LANES: usize = 1 << 20;
const CLUSTER_RANKS: usize = 4;

/// Named values plus the outcome of the checks made on the way.
#[derive(Default)]
pub struct Probed {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Probed {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Mean seconds per call of `f` over `iters` calls.
fn per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_secs_f64() / f64::from(iters)
}

/// Median seconds of `reps` timed calls of `f`.
fn median_call(reps: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// One `LANES`-wide kernel: every lane loads a word and stores it back
/// incremented, through `Device::launch` in the given mode.
fn ns_per_lane(mode: ExecMode, reps: u32) -> f64 {
    let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
    let (src, dst) = (dev.alloc_u32(LANES), dev.alloc_u32(LANES));
    let launch = || {
        dev.launch(0, LaunchCfg::new("probe_copy", LANES), |w| {
            let idxs: Vec<usize> = w.lanes().collect();
            let mut vals = Vec::new();
            w.vload32(&src, &idxs, &mut vals);
            let writes: Vec<(usize, u32)> =
                idxs.iter().zip(&vals).map(|(&i, &v)| (i, v + 1)).collect();
            w.vstore32(&dst, &writes);
        });
        dev.take_reports();
    };
    launch(); // first touch of both buffers
    median_call(reps, launch) / LANES as f64 * 1e9
}

fn gcd_sim(out: &mut Probed, graph: &Csr, sources: &[u32]) {
    out.set(
        "gcd-sim.functional_ns_per_lane",
        ns_per_lane(ExecMode::Functional, 5),
    );
    out.set(
        "gcd-sim.timing_ns_per_lane",
        ns_per_lane(ExecMode::Timing, 3),
    );

    let dev = Device::mi250x();
    let empty = per_call(20_000, |_| {
        black_box(dev.launch(0, LaunchCfg::new("probe_empty", 64), |_| {}));
    });
    dev.take_reports();
    out.set("gcd-sim.launch_fixed_us", empty * 1e6);

    // L2 hit rate only exists in timing mode: a few timing runs, whatever
    // mode the workload itself uses.
    let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
    let xbfs = Xbfs::new(&dev, graph, XbfsConfig::default()).expect("graph is not empty");
    let (mut hits, mut accesses) = (0u64, 0u64);
    for &s in &sources[..8] {
        let run = xbfs.run(s).expect("source is in range");
        for k in run.level_stats.iter().flat_map(|l| &l.kernels) {
            hits += k.stats.l2_hits;
            accesses += k.stats.l2_accesses;
        }
    }
    out.set(
        "gcd-sim.l2_hit_pct",
        100.0 * hits as f64 / accesses.max(1) as f64,
    );
}

fn core(out: &mut Probed, graph: &Csr, sources: &[u32], answers: &[Answer]) {
    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, graph, XbfsConfig::default()).expect("graph is not empty");
    let run = xbfs.run(sources[0]).expect("source is in range");
    let mut certified = true;
    let certify = median_call(9, || {
        certified &= certify_run(graph.offsets(), graph.adjacency(), black_box(&run)).is_ok();
    });
    out.check(certified);
    out.set("core.certify_ms", certify * 1e3);

    let engine = MsBfs::new(Device::mi250x(), graph).expect("graph is not empty");
    let wide = &sources[..64];
    let mut last = None;
    let w64 = median_call(3, || last = Some(engine.run_batch(black_box(wide))));
    let batch = last.expect("ran three times");
    for (slot, want) in answers[..64].iter().enumerate() {
        out.check(batch.result_digest(slot) == want.digest);
    }
    out.set("core.msbfs_w64_ms", w64 * 1e3);
    out.set("core.msbfs_modeled_gteps_w64", batch.gteps);
    let w1 = median_call(5, || {
        black_box(engine.run_batch(black_box(&sources[..1])));
    });
    out.set("core.msbfs_w1_ms", w1 * 1e3);
}

fn multi_gcd(out: &mut Probed, graph: &Csr, oracle: &mut Oracle, sources: &[u32]) {
    let cfg = ClusterConfig {
        num_gcds: CLUSTER_RANKS,
        alpha: 0.1,
        push_only: false,
    };
    let t = Instant::now();
    let mut cluster =
        GcdCluster::new(graph, cfg, LinkModel::frontier()).expect("4 ranks over a non-empty graph");
    out.set("multi-gcd.partition_ms", t.elapsed().as_secs_f64() * 1e3);

    let (mut ratios, mut bytes) = (Vec::new(), 0u64);
    for &s in &sources[..8] {
        let t = Instant::now();
        let run = cluster.run(s);
        let wall = t.elapsed().as_secs_f64();
        let (yard, want) = oracle.timed(s);
        ratios.push(wall / yard);
        match run {
            Ok(run) => {
                out.check(run.result_digest() == want.digest);
                bytes += run
                    .level_stats
                    .iter()
                    .map(|l| l.exchanged_bytes)
                    .sum::<u64>();
            }
            Err(_) => out.check(false),
        }
    }
    out.set("multi-gcd.run_overhead_x", median(&ratios));
    out.set(
        "multi-gcd.exchanged_bytes_per_query",
        bytes as f64 / ratios.len() as f64,
    );
}

fn server(out: &mut Probed, graph: &Csr, sources: &[u32]) {
    let request = format!(
        "{{\"v\":\"xbfs-serve-v1\",\"id\":77,\"op\":\"bfs\",\"source\":{}}}",
        sources[0]
    );
    let parse = per_call(50_000, |_| {
        black_box(parse_request(black_box(&request)).is_ok());
    });
    out.set("server.protocol.parse_ns", parse * 1e9);

    let dev = Device::mi250x();
    let xbfs = Xbfs::new(&dev, graph, XbfsConfig::default()).expect("graph is not empty");
    let run = xbfs.run(sources[0]).expect("source is in range");
    let render = per_call(2_000, |i| {
        black_box(ok_line(u64::from(i), black_box(&run), false, 0.25, 1));
    });
    out.set("server.protocol.ok_line_ns", render * 1e9);
    let line = ok_line(77, &run, false, 0.25, 1);

    let queue: AdmissionQueue<u64> = AdmissionQueue::new(256, 25);
    let submit_pop = per_call(200_000, |i| {
        black_box(queue.submit(u64::from(i)));
        black_box(queue.pop());
    });
    out.set("server.queue.submit_pop_ns", submit_pop * 1e9);

    let dedup = DedupCache::new(128);
    let record_lookup = per_call(50_000, |i| {
        dedup.record(u64::from(i), sources[0], &line);
        black_box(dedup.lookup(u64::from(i), sources[0]));
    });
    out.set("server.dedup.record_lookup_ns", record_lookup * 1e9);

    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    let path = out_dir().join("journal-probe.bin");
    let _ = std::fs::remove_file(&path);
    let (journal, _) = Journal::open(&path, FsyncPolicy::Batch(8)).expect("open probe journal");
    const PAIRS: u32 = 2_000;
    let mut io_ok = true;
    let pair = per_call(PAIRS, |i| {
        let req = BfsRequest {
            id: u64::from(i),
            source: sources[0],
            deadline_ms: None,
            verify: None,
            chaos: None,
        };
        io_ok &= journal.append_admit(&req).is_ok();
        io_ok &= journal
            .append_done(req.id, req.source, "ok", Some("0x0"), Some(&line))
            .is_ok();
    });
    out.check(io_ok);
    out.set("server.journal.append_us", pair / 2.0 * 1e6);
    drop(journal);
    let bytes = std::fs::read(&path).expect("read probe journal back");
    let _ = std::fs::remove_file(&path);
    let mut replayed = None;
    let replay = median_call(5, || replayed = Some(replay_bytes(black_box(&bytes))));
    let replayed = replayed.expect("replayed five times");
    out.check(replayed.records == u64::from(2 * PAIRS) && replayed.torn_bytes == 0);
    out.set(
        "server.journal.replay_mb_s",
        bytes.len() as f64 / 1e6 / replay,
    );

    let registry = MetricsRegistry::new();
    let hist = registry.histogram("probe.latency_ms", MetricUnit::Millis, &[("status", "ok")]);
    let counter = registry.counter("probe.requests", MetricUnit::Count, &[]);
    let update = per_call(1_000_000, |i| {
        hist.record(f64::from(i % 997) * 0.37);
        counter.add(1);
    });
    black_box(registry.snapshot());
    out.set("telemetry.registry_update_ns", update * 1e9);

    let json = per_call(50_000, |_| {
        black_box(JsonValue::parse(black_box(&line)).is_ok());
    });
    out.set("telemetry.json_parse_ns", json * 1e9);
}

/// Run every probe.
pub fn run_all(graph: &Csr, oracle: &mut Oracle, sources: &[u32], answers: &[Answer]) -> Probed {
    assert!(sources.len() >= 64, "probes need 64 distinct sources");
    let mut out = Probed::default();
    gcd_sim(&mut out, graph, sources);
    core(&mut out, graph, sources, answers);
    multi_gcd(&mut out, graph, oracle, sources);
    server(&mut out, graph, sources);
    out
}
