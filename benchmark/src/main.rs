//! `xbfs-perf`: the repository's benchmark. See `README.md` beside the
//! manifest for what is measured and why.
//!
//! With `--workload` it measures that one workload in this process and
//! ends with one JSON line (`correct`, `attempted`, `failed`, `metrics`).
//! Without, it runs every workload in a child process each (so peak
//! memory is per workload), `--runs` times, and writes one result file;
//! `--compare` judges two such files against the bounds.

mod catalogue;
mod clock;
mod oracle;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use catalogue::{Kind, Workload, END_TO_END, PER_LAYER, SHORT_SESSIONS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Instance, Phase, SetupFacts};
use xbfs_server::ServeReport;

/// Length of the measured phase `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Set-ups per run; `setup_s` comes from their median and the first one
/// is measured.
const SETUP_REPEATS: usize = 5;
/// Share of `--seconds` a traced run gives each of its two phases; the
/// rest pays for the other kinds' short sessions and the probes.
const TRACED_PHASE_SHARE: f64 = 0.3;
const SHORT_SESSION_SECONDS: f64 = 1.5;

const USAGE: &str = "usage: xbfs-perf [--workload NAME] [--seed N] [--seconds N] [--runs K] \
[--trace [0|1]] [--smoke] [--out FILE] | --compare A.json B.json";

pub struct Args {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub trace: bool,
    pub out: Option<String>,
    pub compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        runs: 1,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                args.workload = Some(
                    catalogue::workload(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--runs" => {
                args.runs = value(&mut it, flag)?
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("--runs needs a whole number >= 1")?;
            }
            // Bare `--trace` means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbfs-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        report::compare(a, b)
    } else if let Some(workload) = args.workload {
        run_workload(workload, &args)
    } else {
        report::run_all(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xbfs-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// Checks a finished server must pass: everything admitted was answered
/// ok, nothing was shed, replayed or lost.
fn serve_failures(report: &ServeReport) -> u64 {
    u64::from(!report.drain_clean)
        + report.shed
        + report.timeouts
        + report.errors
        + report.replayed
        + report.dropped_connections
}

/// Measure one workload in this process and print the contract's line.
fn run_workload(workload: &'static Workload, args: &Args) -> Result<bool, String> {
    let (metrics, attempted, failed) = if args.trace {
        traced_run(workload, args)?
    } else {
        untraced_run(workload, args)
    };
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        println!("{name:<40} {value:>16.6} {unit}");
        let sep = if i > 0 { "," } else { "" };
        line.push_str(&format!(
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    println!("{line}");
    Ok(failed == 0)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn untraced_run(workload: &'static Workload, args: &Args) -> (Metrics, u64, u64) {
    // The first set-up is the one measured; peak memory is read before
    // the repeats, so it is that of one set-up and its measured phase.
    let mut inst = Instance::set_up(workload, args.seed);
    let mut setups = vec![inst.facts];
    let phase = inst.measure(args.seconds, &mut Tracer::disabled());
    let peak_rss_mb = clock::peak_rss_mb();
    let e2e = phase.end_to_end(workload.kind);
    let (mut attempted, mut failed) = (phase.attempted, phase.failed);
    let modeled_gteps = if workload.kind == Kind::ServeBatch {
        let (gteps, checked, wrong) = inst.batch_reference();
        attempted += checked;
        failed += wrong;
        gteps
    } else {
        phase.gteps.iter().sum::<f64>() / phase.gteps.len() as f64
    };
    for _ in 1..SETUP_REPEATS {
        if let Some(report) = inst.shut_down() {
            failed += serve_failures(&report);
        }
        inst = Instance::set_up(workload, args.seed);
        setups.push(inst.facts);
    }
    report::print_facts(&inst, args, &phase, &setups);
    if let Some(report) = inst.shut_down() {
        failed += serve_failures(&report);
    }

    let value = |name: &str| match name {
        "setup_s" => workloads::setup_s(&setups, workload.scale),
        "host_overhead_x" => e2e.host_overhead_x,
        "host_overhead_p90_x" => e2e.host_overhead_p90_x,
        "cpu_overhead_x" => e2e.cpu_overhead_x,
        "modeled_gteps" => modeled_gteps,
        "peak_rss_mb" => peak_rss_mb,
        other => unreachable!("end-to-end metric `{other}` has no source"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect();
    (metrics, attempted, failed)
}

/// Per-layer values by name; the first writer of a name wins, so the
/// workload's own phase takes precedence over the short sessions.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert(value);
    }

    /// What one session (a set-up instance and a phase measured on it)
    /// says about the layers.
    fn absorb(
        &mut self,
        kind: Kind,
        facts: &SetupFacts,
        phase: &Phase,
        registry_p50_ms: Option<f64>,
        report: Option<&ServeReport>,
    ) {
        self.put("graph.rmat_gen_s", facts.rmat_gen_s);
        self.put("graph.edges", facts.edges as f64);
        self.put(
            "oracle.yardstick_ms",
            stats::median(&phase.yardstick_s) * 1e3,
        );
        if let Some(ms) = facts.xbfs_new_ms {
            self.put("core.xbfs_new_ms", ms);
        }
        if let Some(ms) = facts.startup_ms {
            self.put("server.startup_ms", ms);
        }
        if kind.is_direct() {
            let d = &phase.direct;
            let q = d.queries.max(1) as f64;
            let levels = d.levels.max(1) as f64;
            self.put("gcd-sim.kernel_launches_per_query", d.kernels as f64 / q);
            self.put(
                "gcd-sim.modeled_fetch_mb_per_query",
                d.fetch_kb / 1024.0 / q,
            );
            self.put("gcd-sim.pool_allocs_per_query", d.pool_allocs as f64 / q);
            self.put("core.run_wall_ms", stats::median(&phase.latency_s) * 1e3);
            self.put(
                "core.host_ns_per_edge",
                d.wall_s * 1e9 / d.edges.max(1) as f64,
            );
            self.put("core.levels_per_query", d.levels as f64 / q);
            self.put("core.modeled_ms_per_query", d.modeled_ms / q);
            let share = |i: usize| 100.0 * d.strategy_levels[i] as f64 / levels;
            self.put("core.strategy_share.scan_free", share(0));
            self.put("core.strategy_share.single_scan", share(1));
            self.put("core.strategy_share.bottom_up", share(2));
        } else {
            self.put("server.queue_wait_ms", stats::median(&phase.wait_ms));
        }
        if kind == Kind::ServeLone {
            self.put("server.shell_ms", stats::median(&phase.shell_ms));
            if let Some(p50) = registry_p50_ms {
                self.put("server.registry_latency_p50_ms", p50);
            }
        }
        if let (Kind::ServeBatch, Some(r)) = (kind, report) {
            let slots = (r.batches * r.batch_width as u64).max(1) as f64;
            self.put(
                "server.batch_fill",
                100.0 * r.batched_requests as f64 / slots,
            );
            self.put(
                "server.journal_fsyncs_per_request",
                r.journal_fsyncs as f64 / r.ok.max(1) as f64,
            );
            self.put(
                "server.served_qps_raw",
                phase.answered as f64 / phase.wall_s,
            );
        }
    }
}

/// Running totals of a traced run.
#[derive(Default)]
struct Traced {
    layers: Layers,
    attempted: u64,
    failed: u64,
}

impl Traced {
    /// Fold one finished session in and tear it down. The batched
    /// session also hosts the probes: it is the one with 64 distinct
    /// checked sources on a scale-14 graph.
    fn finish(&mut self, mut inst: Instance, phase: Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        let (kind, facts) = (inst.workload.kind, inst.facts);
        let registry_p50 = inst.registry_latency_p50_ms();
        let probed = (kind == Kind::ServeBatch)
            .then(|| probes::run_all(&inst.graph, &mut inst.oracle, &inst.sources, &inst.answers));
        let report = inst.shut_down();
        if let Some(r) = &report {
            self.failed += serve_failures(r);
        }
        self.layers
            .absorb(kind, &facts, &phase, registry_p50, report.as_ref());
        if let Some(p) = probed {
            self.attempted += p.attempted;
            self.failed += p.failed;
            for (name, value) in p.values {
                self.layers.put(name, value);
            }
        }
    }
}

fn traced_run(workload: &'static Workload, args: &Args) -> Result<(Metrics, u64, u64), String> {
    let mut run = Traced::default();

    // The workload itself: an untraced and a traced phase on one set-up.
    let mut inst = Instance::set_up(workload, args.seed);
    let share = args.seconds * TRACED_PHASE_SHARE;
    let plain = inst.measure(share, &mut Tracer::disabled());
    let mut tracer = Tracer::enabled();
    let traced = inst.measure(share, &mut tracer);
    let own = traced.end_to_end(workload.kind);
    let (x0, x1) = (
        plain.end_to_end(workload.kind).host_overhead_x,
        own.host_overhead_x,
    );
    run.layers
        .put("benchmark.trace_overhead_pct", 100.0 * (x1 - x0) / x0);
    run.layers.put("benchmark.samples", traced.answered as f64);
    run.layers
        .put("benchmark.setup_wall_s", inst.facts.setup_wall_s);
    run.layers.put("client.latency_p50_ms", own.latency_p50_ms);
    run.layers.put("client.latency_p90_ms", own.latency_p90_ms);
    run.attempted += plain.attempted;
    run.failed += plain.failed;
    run.finish(inst, traced);

    // Every layer reports on every traced run: each kind of session this
    // workload is not gets a short one on scale 14.
    for mini in &SHORT_SESSIONS {
        let same_kind =
            mini.kind == workload.kind || (mini.kind.is_direct() && workload.kind.is_direct());
        if !same_kind {
            let mut inst = Instance::set_up(mini, args.seed);
            let phase = inst.measure(SHORT_SESSION_SECONDS, &mut Tracer::disabled());
            run.finish(inst, phase);
        }
    }

    let (roots_us, self_us) = tracer.coverage();
    let path = workloads::out_dir().join(format!("trace-{}.json", workload.name));
    std::fs::create_dir_all(workloads::out_dir())
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload.name, args.seed)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "trace: {} (self times cover {:.2} % of root spans)",
        path.display(),
        100.0 * self_us / roots_us
    );

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = run
                .layers
                .0
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric `{}` was not measured", m.name));
            (m.name, m.unit, *value)
        })
        .collect();
    Ok((metrics, run.attempted, run.failed))
}
