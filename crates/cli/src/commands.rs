//! The `xbfs` subcommands, factored as library functions so they are unit-
//! testable without spawning processes.

use crate::args::Args;
use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use std::path::Path;
use xbfs_core::{BitflipPlan, MsBfs, Sabotage, Strategy, Xbfs, XbfsConfig, XbfsError};
use xbfs_graph::builder::BuildOptions;
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::{level_profile, pick_sources, summarize};
use xbfs_graph::{io, rearrange_by_degree, Csr, Dataset, RearrangeOrder};
use xbfs_multi_gcd::{
    ClusterConfig, ClusterError, FaultConfig, FaultEvent, FaultPlan, GcdCluster, LinkModel,
    RecoveryPolicy,
};
use xbfs_server::{
    run_loadgen, ChaosPlan, DeviceFactory, FsyncPolicy, LoadgenConfig, ServeConfig, Server,
};
use xbfs_telemetry::json::{self, Val};
use xbfs_telemetry::{names, AttrValue, JsonValue, Recorder, Trace, TraceFormat};

/// Exit codes the `xbfs` binary maps failures to.
pub mod exit_code {
    /// Catch-all failure (internal invariant broken, worker panic).
    pub const GENERIC: i32 = 1;
    /// Bad command line (unknown command/option, unparsable value).
    pub const USAGE: i32 = 2;
    /// Filesystem problem (unreadable input, unwritable output).
    pub const IO: i32 = 3;
    /// Input rejected by the engine (bad source, bad config, bad spec).
    pub const INVALID_INPUT: i32 = 4;
    /// An injected fault the cluster could not recover from.
    pub const UNRECOVERED_FAULT: i32 = 5;
    /// BFS output failed Graph500 validation.
    pub const VALIDATION: i32 = 6;
    /// Silent data corruption detected (checksum, pool guard, or result
    /// certificate) and not corrected.
    pub const INTEGRITY: i32 = 7;
    /// A deadline budget expired before the run finished.
    pub const TIMEOUT: i32 = 8;
    /// Load generation shed more than the allowed fraction of requests.
    pub const OVERLOADED: i32 = 9;
}

/// A CLI failure: a user-facing message plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What went wrong, printed to stderr.
    pub message: String,
    /// Process exit code (see [`exit_code`]).
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>, code: i32) -> Self {
        Self {
            message: message.into(),
            code,
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        Self::new(message, exit_code::USAGE)
    }

    fn io(message: impl Into<String>) -> Self {
        Self::new(message, exit_code::IO)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl From<String> for CliError {
    // Bare-string errors in this module are option/usage complaints.
    fn from(message: String) -> Self {
        Self::usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::usage(message.to_string())
    }
}

impl From<XbfsError> for CliError {
    fn from(e: XbfsError) -> Self {
        match e {
            // Stable "IntegrityError:" prefix — CI greps for it.
            XbfsError::Integrity(i) => {
                Self::new(format!("IntegrityError: {i}"), exit_code::INTEGRITY)
            }
            XbfsError::DeadlineExceeded { .. } => Self::new(e.to_string(), exit_code::TIMEOUT),
            other => Self::new(other.to_string(), exit_code::INVALID_INPUT),
        }
    }
}

impl From<ClusterError> for CliError {
    fn from(e: ClusterError) -> Self {
        let code = match &e {
            ClusterError::LinkFailed { .. } | ClusterError::Unrecoverable { .. } => {
                exit_code::UNRECOVERED_FAULT
            }
            ClusterError::DeadlineExceeded { .. } => exit_code::TIMEOUT,
            _ => exit_code::INVALID_INPUT,
        };
        Self::new(e.to_string(), code)
    }
}

/// The options each subcommand accepts, one word each; a trailing `!`
/// marks a bare flag, which takes no value (every other option takes
/// one). Anything not listed is a usage error rather than being silently
/// ignored. `None` for an unknown command.
fn options(command: &str) -> Option<impl Iterator<Item = &'static str>> {
    let own = match command {
        "generate" => "out kind seed scale shift",
        "convert" | "info" | "analyze" | "trace" | "help" | "" => "",
        "bfs" | "run" => {
            "source alpha auto-alpha! forced rearrange! validate! verify! inject-bitflips \
             deadline-ms csv trace"
        }
        "serve" => {
            "addr workers queue-cap retry-after-ms verify! allow-chaos! max-retries \
             breaker-threshold breaker-cooldown-ms deadline-ms cluster checkpoint-every alpha \
             metrics-addr flight-dir flight-ring batch-width batch-window-ms journal \
             journal-fsync idle-timeout-ms json trace"
        }
        "loadgen" => {
            "addr requests rps connections sources seed deadline-ms verify! chaos retries \
             shutdown! max-shed-pct progress-every-ms no-reconnect! json"
        }
        "top" => "interval-ms frames",
        "cluster" => {
            "gcds source alpha push-only! inject-faults checkpoint-every recovery validate! \
             json csv trace"
        }
        "msbfs" => "sources",
        "compare" => "source",
        "sweep" => {
            "sources threads seed alpha json verify! inject-bitflips max-pool-bytes \
             deadline-factor retries multi-source! trace"
        }
        _ => return None,
    };
    let device = match command {
        "bfs" | "run" | "msbfs" | "compare" | "sweep" | "serve" => "arch compiler timing!",
        _ => "",
    };
    Some(own.split_whitespace().chain(device.split_whitespace()))
}

/// Whether `command` declares `--key` a bare flag (for [`Args::parse`]).
pub fn is_flag(command: &str, key: &str) -> bool {
    options(command).is_some_and(|mut o| o.any(|w| w.strip_suffix('!') == Some(key)))
}

fn reject_unknown_options(args: &Args) -> Result<(), CliError> {
    let Some(allowed) = options(&args.command).map(Vec::from_iter) else {
        return Ok(()); // unknown command: reported by dispatch itself
    };
    for key in args.options.keys() {
        if !allowed.iter().any(|w| w.trim_end_matches('!') == key) {
            return Err(CliError::usage(format!(
                "unknown option --{key} for `{}` (see `xbfs help`)",
                args.command
            )));
        }
    }
    Ok(())
}

/// Run one subcommand; returns the text to print.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    reject_unknown_options(args)?;
    match args.command.as_str() {
        "generate" => generate(args),
        "convert" => convert(args),
        "info" => info(args),
        "bfs" | "run" => bfs(args),
        "cluster" => cluster(args),
        "msbfs" => msbfs(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "serve" => serve(args),
        "loadgen" => loadgen(args),
        "top" => top_cmd(args),
        "analyze" => analyze(args),
        "trace" => trace_cmd(args),
        "help" | "" => Ok(HELP.to_string()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n{HELP}"
        ))),
    }
}

const HELP: &str = "\
xbfs — XBFS-on-simulated-MI250X toolbox

USAGE: xbfs <command> [options]

COMMANDS
  generate  --out FILE [--kind rmat|lj|up|or|db] [--scale N | --shift N] [--seed N]
            write a graph in the binary cache format
  convert   IN OUT        convert between .txt (edge list), .mtx and .bin
  info      FILE          print graph statistics and a level profile
  bfs       FILE [--source N] [--alpha F | --auto-alpha] [--forced scan-free|single-scan|bottom-up]
            [--rearrange] [--validate] [--verify] [--inject-bitflips SPEC]
            [--deadline-ms MS] [--arch mi250x|mi100|p6000]
            [--compiler clang|hipcc|clang-O0] [--timing] [--csv FILE]
            [--trace FMT:PATH]
            run one BFS and report per-level stats (`run` is an alias);
            --verify certifies the result (CSR + pool checksums, O(V+E)
            certificate) and --inject-bitflips flips seeded bits in device
            state: comma-separated status[:N], parents[:N], csr[:N],
            pool[:N], seed=N; --deadline-ms aborts with exit 8 when the
            modeled run time exceeds the budget
  cluster   FILE [--gcds N] [--source N] [--alpha F] [--push-only]
            [--inject-faults SPEC|random[:SEED]] [--checkpoint-every N]
            [--recovery spare|degrade] [--validate] [--json FILE] [--csv FILE]
            [--trace FMT:PATH]
            distributed BFS across simulated GCDs, optionally under faults;
            SPEC is comma-separated: crash@LVL:rankR, drop@LVL:SRC-DSTxN,
            degrade@FROM-TO:FACTOR, seed=N
  msbfs     FILE [--sources N]      concurrent multi-source BFS (iBFS-style)
  compare   FILE [--source N]       XBFS vs every baseline engine
  sweep     FILE [--sources N] [--threads T] [--seed N] [--alpha F] [--json FILE]
            [--verify] [--inject-bitflips SPEC] [--max-pool-bytes B]
            [--deadline-factor F] [--retries N] [--multi-source]
            [--trace FMT:PATH]
            batched multi-source sweep: one pooled engine per OS thread runs
            N sources back-to-back, then the same sources are re-run with a
            per-source in-process rebuild (the bit-identity reference);
            reports host runs/sec, aggregate modeled GTEPS and the speedup,
            and verifies the two passes produce bit-identical results.
            --verify turns the sweep into a self-healing supervisor: every
            run is certified, runs failing certification are quarantined
            and re-executed on a fresh engine (non-pooled state) with
            bounded retries (--retries, default 2) and backoff, runs
            exceeding --deadline-factor (default 25) x the first run's
            modeled time are flagged, and a health section lands in the
            report and JSON. --inject-bitflips (implies --verify) corrupts
            device state per run; --max-pool-bytes caps parked pool memory
            with LRU trimming (pressure events counted in health).
            --multi-source adds a third pass: one persistent 64-wide
            bit-parallel engine sweeps the same sources in batches of up
            to 64, every slot checked bit-for-bit (levels digest) against
            the rebuild reference; its throughput and speedup vs the
            pooled single-source pass land in the report and JSON
  serve     FILE [--addr HOST:PORT] [--workers N] [--queue-cap N]
            [--retry-after-ms MS] [--verify] [--allow-chaos] [--max-retries N]
            [--breaker-threshold N] [--breaker-cooldown-ms MS]
            [--deadline-ms MS] [--cluster N] [--checkpoint-every N]
            [--alpha F] [--metrics-addr HOST:PORT] [--flight-dir DIR]
            [--flight-ring N] [--batch-width W] [--batch-window-ms MS]
            [--journal PATH] [--journal-fsync always|batch=N|off]
            [--idle-timeout-ms MS] [--json FILE] [--trace FMT:PATH]
            long-running BFS daemon: loads the graph once, keeps one warm
            pooled engine per worker, and serves `xbfs-serve-v1` (JSON
            lines over TCP). A bounded admission queue sheds overload with
            explicit `overloaded` + retry-after-ms responses, deadlines
            propagate into the run loop as typed timeouts, worker panics
            are contained (engine + device quarantined, request replayed
            bit-identically), and repeated uncorrected failures trip a
            circuit breaker. Drains gracefully on a wire `shutdown` op:
            in-flight requests complete, new ones are rejected, and the
            merged serve report is printed (and written with --json).
            --cluster N serves each request on a partitioned N-GCD engine
            instead of a single device: rank crashes injected via chaos
            are recovered mid-request by level-synchronous checkpoint/
            restart (snapshot cadence --checkpoint-every, default 1) and
            per-rank health lands in the serve report. Completed request
            ids are remembered in a small LRU, so a client that resends
            an id after a timeout gets the cached response (marked
            deduped:true) instead of double-executing.
            --allow-chaos honors client chaos tokens (test servers only).
            Every stage feeds an always-on metrics registry: a wire
            `metrics` op returns an xbfs-metrics-v1 snapshot, and
            --metrics-addr binds an HTTP listener serving /metrics
            (Prometheus text) and /metrics.json, scrapeable mid-load
            without perturbing workers. A per-worker flight recorder
            keeps the last --flight-ring events (default 64); on a
            worker panic, engine quarantine or breaker trip the ring is
            dumped to --flight-dir (default under the system temp dir)
            and the dump paths land in the serve report.
            --batch-width W (default 1, max 64) coalesces up to W queued
            requests per worker into one 64-wide bit-parallel wave on a
            shared engine; --batch-window-ms (default 2) bounds how long
            a partially filled batch lingers for company. Every batched
            response carries the same timing-independent levels digest a
            solo run would report, each member keeps its own deadline
            (a batch member never times out because of coalescing — the
            batch runs under the tightest member budget and splits back
            to solo runs on expiry), and a panic or failed certificate
            quarantines the batch engine and replays members one by one
            on a rebuilt engine. Does not compose with --cluster.
            --journal PATH arms a CRC-framed write-ahead journal: every
            admitted request and every terminal response is appended, so
            a process killed mid-load (even SIGKILL) can be restarted on
            the same path and will replay the journal torn-tail-
            tolerantly — completed ids warm the dedup cache (resends get
            the cached response), incomplete requests are re-enqueued
            ahead of new traffic, and recovered results are bit-identical
            to a fresh run. --journal-fsync picks the durability/latency
            trade: always (fsync per record), batch=N (fsync every Nth
            record, default batch=8), off (OS page cache only — still
            survives SIGKILL, not power loss). Connections are kept
            honest: request lines over 64 KiB are shed with a typed
            `overlong` error and idle connections with nothing in flight
            are closed after --idle-timeout-ms (default 30000; 0 = never)
  loadgen   --addr HOST:PORT [--requests N] [--rps F] [--connections N]
            [--sources N] [--seed N] [--deadline-ms MS] [--verify]
            [--chaos SPEC] [--retries N] [--shutdown] [--max-shed-pct F]
            [--progress-every-ms MS] [--no-reconnect] [--json FILE]
            open-loop load generator for `xbfs serve`: paces N requests at
            a target RPS over pipelined connections, measures latency from
            each request's scheduled time (no coordinated omission), and
            reports accepted/shed plus p50/p99/p999. --chaos stamps fault
            tokens server-side: comma-separated panic[:N], bitflip[:N],
            slow[@MS][:N], crash[@LVL][:N], rank=R, seed=N (every Nth
            request; crash targets cluster servers and injects a rank-R
            crash at level LVL). --retries N re-sends shed requests after
            the server's retry-after hint with jittered exponential
            backoff (latency still measured from the original schedule);
            --shutdown drains the server afterwards; --max-shed-pct fails
            with exit 9 when shedding exceeds the bound; --json writes
            xbfs-loadgen-v1. A one-line progress report (sent / ok /
            shed / p99-so-far) goes to stderr every --progress-every-ms
            (default 1000; 0 silences it). A dropped connection (server
            crash, restart) is redialed automatically with jittered
            backoff and every outstanding request is resent — latency
            still counts from the original schedule, and the `reconnects`
            count lands in the report (--no-reconnect disables this, so
            a dead connection marks its outstanding requests lost)
  top       HOST:PORT [--interval-ms MS] [--frames N]
            live dashboard over a running server's metrics plane: polls
            the wire `metrics` op at the serve address and renders
            queue / worker / breaker / pool / rank state with rates
            from successive snapshots; runs until the server drains,
            or for exactly N frames with --frames
  analyze   FILE                    connected components, diameter estimate
  trace     summarize FILE          summarize a recorded trace (xbfs-trace-v1
                                    JSON or chrome trace.json)

TRACING
  --trace FMT:PATH records structured telemetry (spans, per-level metrics)
  during bfs/run and cluster. FMT is table, json, chrome (load the file in
  chrome://tracing or https://ui.perfetto.dev) or csv (rocprofiler-style
  kernel rows). PATH `-` writes the trace to stdout instead of the normal
  report, so `xbfs run g.bin --trace json:- > out.json` emits pure JSON.

EXIT CODES
  0 ok, 1 generic, 2 usage, 3 I/O, 4 invalid input, 5 unrecovered fault,
  6 validation failure, 7 integrity violation (silent data corruption
  detected and not corrected), 8 deadline exceeded, 9 overloaded
  (loadgen shed more than --max-shed-pct)
";

/// Load a graph by extension (.bin, .mtx, anything else = edge list).
pub fn load_graph(path: &str) -> Result<Csr, CliError> {
    let p = Path::new(path);
    let err = |e: std::io::Error| CliError::io(format!("cannot read {path}: {e}"));
    match p.extension().and_then(|e| e.to_str()) {
        Some("bin") => io::read_binary_file(p).map_err(err),
        Some("mtx") => {
            let f = std::fs::File::open(p).map_err(err)?;
            io::read_matrix_market(std::io::BufReader::new(f), BuildOptions::default()).map_err(err)
        }
        _ => io::read_edge_list_file(p, BuildOptions::default()).map_err(err),
    }
}

fn save_graph(g: &Csr, path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    let err = |e: std::io::Error| CliError::io(format!("cannot write {path}: {e}"));
    match p.extension().and_then(|e| e.to_str()) {
        Some("bin") => io::write_binary_file(g, p).map_err(err),
        _ => {
            let f = std::fs::File::create(p).map_err(err)?;
            io::write_edge_list(g, std::io::BufWriter::new(f)).map_err(err)
        }
    }
}

fn generate(args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?.to_string();
    let kind = args.get::<String>("kind", "rmat".into())?;
    let seed = args.get::<u64>("seed", 42)?;
    let g = match kind.as_str() {
        "rmat" => {
            let scale = args.get::<u32>("scale", 16)?;
            rmat_graph(RmatParams::graph500(scale), seed)
        }
        other => {
            let shift = args.get::<u32>("shift", 8)?;
            let d = dataset_by_name(other)?;
            d.generate(shift, seed)
        }
    };
    save_graph(&g, &out)?;
    Ok(format!(
        "wrote {} (|V| = {}, |E| = {})\n",
        out,
        g.num_vertices(),
        g.num_edges()
    ))
}

fn dataset_by_name(name: &str) -> Result<Dataset, CliError> {
    Ok(match name {
        "lj" => Dataset::LiveJournal,
        "up" => Dataset::USpatent,
        "or" => Dataset::Orkut,
        "db" => Dataset::Dblp,
        "r23" => Dataset::Rmat23,
        "r25" => Dataset::Rmat25,
        _ => return Err(CliError::usage(format!("unknown dataset kind {name:?}"))),
    })
}

fn convert(args: &Args) -> Result<String, CliError> {
    let [input, output] = args.positional.as_slice() else {
        return Err("usage: xbfs convert IN OUT".into());
    };
    let g = load_graph(input)?;
    save_graph(&g, output)?;
    Ok(format!(
        "converted {input} -> {output} (|V| = {}, |E| = {})\n",
        g.num_vertices(),
        g.num_edges()
    ))
}

fn info(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs info FILE")?;
    let g = load_graph(path)?;
    let s = summarize(&g);
    let mut out = format!(
        "{path}\n|V| = {}  |E| = {}  avg degree {:.2}  max degree {}  isolated {}\n\
         device footprint {:.1} MB\n",
        s.num_vertices,
        s.num_edges,
        s.avg_degree,
        s.max_degree,
        s.isolated_vertices,
        s.device_bytes as f64 / 1e6
    );
    if s.num_edges > 0 {
        let src = pick_sources(&g, 1, 1)[0];
        let p = level_profile(&g, src);
        out.push_str(&format!(
            "BFS from {src}: {} levels; per-level edge ratios: {}\n",
            p.num_levels(),
            p.edge_ratios
                .iter()
                .map(|r| format!("{r:.2e}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    Ok(out)
}

/// `--arch`, `--timing` and `--compiler`, parsed: the one place the
/// profile and compiler names are written down.
type DeviceSpec = (ArchProfile, ExecMode, Compiler);

fn parse_device(args: &Args) -> Result<DeviceSpec, CliError> {
    let arch = match args.get::<String>("arch", "mi250x".into())?.as_str() {
        "mi250x" => ArchProfile::mi250x_gcd(),
        "mi100" => ArchProfile::mi100(),
        "p6000" => ArchProfile::p6000(),
        other => return Err(CliError::usage(format!("unknown arch {other:?}"))),
    };
    let mode = if args.flag("timing") {
        ExecMode::Timing
    } else {
        ExecMode::Functional
    };
    let compiler = match args.get::<String>("compiler", "clang".into())?.as_str() {
        "clang" => Compiler::ClangO3,
        "hipcc" => Compiler::HipccO3,
        "clang-O0" => Compiler::ClangO0,
        other => return Err(CliError::usage(format!("unknown compiler {other:?}"))),
    };
    Ok((arch, mode, compiler))
}

fn build_device((arch, mode, compiler): DeviceSpec, streams: usize) -> Device {
    let mut dev = Device::new(arch, mode, streams);
    dev.set_compiler(compiler);
    dev
}

fn mk_device(args: &Args, streams: usize) -> Result<Device, CliError> {
    Ok(build_device(parse_device(args)?, streams))
}

/// Parse `--trace FMT:PATH`, if given.
fn trace_target(args: &Args) -> Result<Option<(TraceFormat, String)>, CliError> {
    args.options
        .get("trace")
        .map(|spec| TraceFormat::parse(spec).map_err(CliError::usage))
        .transpose()
}

/// `--trace` for the commands that record on the wall clock as they go
/// (`sweep`, `serve`): the target plus a recorder that is enabled only
/// when tracing was requested.
fn trace_setup(args: &Args) -> Result<(Option<(TraceFormat, String)>, Recorder), CliError> {
    let target = trace_target(args)?;
    let recorder = if target.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    Ok((target, recorder))
}

/// Parse an optional float option; absent is `None`, unparsable is a
/// usage error.
fn opt_f64(args: &Args, key: &str) -> Result<Option<f64>, CliError> {
    args.options
        .get(key)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError::usage(format!("bad --{key} {v:?}")))
        })
        .transpose()
}

/// Parse `--inject-bitflips` into a plan. `None` when the option is
/// absent; an unparsable spec is the user's fault, not corruption.
fn parse_bitflip_plan(args: &Args) -> Result<Option<BitflipPlan>, CliError> {
    match args.options.get("inject-bitflips") {
        Some(spec) => BitflipPlan::parse(spec)
            .map(Some)
            .map_err(|e| CliError::new(e, exit_code::INVALID_INPUT)),
        None => Ok(None),
    }
}

/// Deliver a rendered trace. Path `-` replaces the whole command output
/// with the rendered trace (pure JSON/CSV on stdout, pipeable); any other
/// path writes the file and appends a note to `out`. Never fails: the
/// trace is an exporter of an already-finished run, and a full disk or a
/// bad path must not turn a successful run into a nonzero exit.
fn emit_trace(out: &mut String, fmt: TraceFormat, path: &str, trace: &Trace) -> Option<String> {
    let sink = fmt.sink();
    let rendered = sink.export(trace);
    if path == "-" {
        return Some(rendered);
    }
    match std::fs::write(path, &rendered) {
        Ok(()) => out.push_str(&format!("{} trace written to {path}\n", sink.name())),
        Err(e) => {
            eprintln!("warning: cannot write trace {path}: {e}; run results unaffected");
            out.push_str(&format!(
                "{} trace NOT written ({path}: {e})\n",
                sink.name()
            ));
        }
    }
    None
}

fn bfs(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs bfs FILE")?;
    let mut g = load_graph(path)?;
    if args.flag("rearrange") {
        g = rearrange_by_degree(&g, RearrangeOrder::DegreeDescending);
    }
    // The certificate's parent-tree checks need recorded parents, so
    // --verify implies them just like --validate does.
    let mut cfg = XbfsConfig {
        alpha: args.get("alpha", 0.1)?,
        record_parents: args.flag("validate") || args.flag("verify"),
        ..XbfsConfig::default()
    };
    if let Some(f) = args.options.get("forced") {
        cfg.forced = Some(match f.as_str() {
            "scan-free" => Strategy::ScanFree,
            "single-scan" => Strategy::SingleScan,
            "bottom-up" => Strategy::BottomUp,
            other => return Err(CliError::usage(format!("unknown strategy {other:?}"))),
        });
    }
    let dev = mk_device(args, cfg.required_streams())?;
    let source = args.get::<u32>("source", pick_sources(&g, 1, 1)[0])?;
    let mut tuned_note = String::new();
    if args.flag("auto-alpha") {
        let samples = pick_sources(&g, 3, 9);
        let (tuned, result) = xbfs_core::tune_alpha(&dev, &g, &samples, cfg, None);
        cfg = tuned;
        tuned_note = format!(
            "auto-tuned alpha = {} (paper's method, §V-D)\n",
            result.best_alpha
        );
    }
    let trace_opt = trace_target(args)?;
    let plan = parse_bitflip_plan(args)?;
    let deadline_ms = opt_f64(args, "deadline-ms")?;
    let xbfs = Xbfs::new(&dev, &g, cfg)?;

    let verify = args.flag("verify");
    if let (Some(plan), false) = (&plan, verify) {
        // The "what does corruption do when nothing checks" baseline.
        eprintln!(
            "warning: --inject-bitflips without --verify: corrupting \
             device state ({}) with no detection",
            plan.to_spec()
        );
    }
    let sab = plan.as_ref().map(|plan| Sabotage { plan, salt: 0 });
    // Sabotage, deadline budget and certification compose; a blown
    // budget maps to exit code 8.
    let (run, cert) = xbfs.run_with(source, sab.as_ref(), deadline_ms, verify)?;
    let mut cert_note = String::new();
    if let Some(cert) = &cert {
        cert_note = format!(
            "certified: {} vertices reached, depth {}, levels checksum {:#018x}\n",
            cert.visited, cert.depth, cert.levels_checksum
        );
    }

    let mut out = tuned_note;
    out.push_str(&cert_note);
    out.push_str(&format!(
        "source {source}: {} levels, {:.4} ms, {:.2} GTEPS\n",
        run.depth(),
        run.total_ms,
        run.gteps
    ));
    for l in &run.level_stats {
        out.push_str(&format!(
            "  L{:<3} {:>12} frontier {:>10} ratio {:>10.3e} {:>9.4} ms {:>10.1} KB{}\n",
            l.level,
            l.strategy.to_string(),
            l.frontier_count,
            l.ratio,
            l.time_ms,
            l.fetch_kb(),
            if l.used_nfg { "" } else { "  [gen scan]" },
        ));
    }
    if args.flag("validate") {
        // cfg.record_parents is set above whenever --validate is; a run
        // without parents here is an engine invariant break, not a crash.
        let Some(parents) = run.parents.as_ref() else {
            return Err(CliError::new(
                "internal: --validate needs recorded parents but the run kept none",
                exit_code::GENERIC,
            ));
        };
        match xbfs_graph::validate_bfs_tree(&g, source, parents) {
            Ok(_) => out.push_str("BFS tree: VALID (Graph500-style checks passed)\n"),
            Err(e) => {
                return Err(CliError::new(
                    format!("BFS tree INVALID: {e:?}"),
                    exit_code::VALIDATION,
                ))
            }
        }
    }
    if let Some(csv_path) = args.options.get("csv") {
        let reports: Vec<gcd_sim::KernelReport> = run
            .level_stats
            .iter()
            .flat_map(|l| l.kernels.iter().cloned())
            .collect();
        // Exporters never abort a finished run: the BFS result above is
        // valid whether or not the side file lands.
        match std::fs::write(csv_path, gcd_sim::profiler::to_csv(&reports)) {
            Ok(()) => out.push_str(&format!("kernel counters written to {csv_path}\n")),
            Err(e) => {
                eprintln!("warning: cannot write {csv_path}: {e}; run results unaffected");
                out.push_str(&format!("kernel counters NOT written ({csv_path}: {e})\n"));
            }
        }
    }
    if let Some((fmt, trace_path)) = trace_opt {
        if let Some(direct) = emit_trace(&mut out, fmt, &trace_path, &xbfs.trace_of(&run)) {
            return Ok(direct);
        }
    }
    Ok(out)
}

/// Parse `--inject-faults`: either an explicit spec, or `random[:SEED]`
/// for a generated plan.
fn parse_fault_plan(spec: &str, num_gcds: usize) -> Result<FaultPlan, ClusterError> {
    if let Some(rest) = spec.strip_prefix("random") {
        let seed = match rest.strip_prefix(':') {
            Some(s) => s
                .parse::<u64>()
                .map_err(|_| ClusterError::FaultSpec(format!("bad random seed {s:?}")))?,
            None if rest.is_empty() => 42,
            _ => return Err(ClusterError::FaultSpec(format!("bad fault spec {spec:?}"))),
        };
        // A mid-run horizon of ~8 levels places crashes where checkpoints
        // matter on typical scale-free diameters.
        Ok(FaultPlan::random(seed, num_gcds, 8))
    } else {
        FaultPlan::parse(spec)
    }
}

fn cluster(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs cluster FILE")?;
    let g = load_graph(path)?;
    let cfg = ClusterConfig {
        num_gcds: args.get::<usize>("gcds", 8)?,
        alpha: args.get("alpha", 0.1)?,
        push_only: args.flag("push-only"),
    };
    let source = args.get::<u32>("source", pick_sources(&g, 1, 1)[0])?;
    let recovery = match args.get::<String>("recovery", "spare".into())?.as_str() {
        "spare" => RecoveryPolicy::PromoteSpare,
        "degrade" => RecoveryPolicy::Degrade,
        other => {
            return Err(CliError::usage(format!(
                "unknown recovery policy {other:?}"
            )))
        }
    };
    let plan = match args.options.get("inject-faults") {
        Some(spec) => parse_fault_plan(spec, cfg.num_gcds)?,
        None => FaultPlan::none(),
    };
    // Checkpointing defaults on (every level) when faults are injected.
    let checkpoint_every = args.get::<u32>("checkpoint-every", u32::from(!plan.is_empty()))?;
    let faults = FaultConfig {
        plan,
        recovery,
        checkpoint_every,
        ..FaultConfig::default()
    };

    let trace_opt = trace_target(args)?;
    let crash_planned = faults
        .plan
        .events
        .iter()
        .any(|e| matches!(e, FaultEvent::GcdCrash { .. }));
    let mut trace_warning = String::new();
    if trace_opt.is_some() && crash_planned {
        // Crash recovery rewinds the cluster clock to the last checkpoint,
        // so the trace contains overlapping re-executed level spans. Say so
        // rather than silently emitting a confusing timeline.
        trace_warning = format!(
            "warning: tracing a run with planned GCD crashes ({}) — recovery \
             rewinds execution to the last checkpoint, so the trace contains \
             re-executed level spans (attempt > 0) alongside recovery spans\n",
            faults.plan.to_spec()
        );
        eprint!("{trace_warning}");
    }
    let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier())?;
    let run = cluster.run_with(source, &faults, None)?;

    let mut out = trace_warning;
    out.push_str(&format!(
        "{} GCDs, source {source}, faults: {}\n",
        cfg.num_gcds, run.fault_plan
    ));
    out.push_str(&format!(
        "{:>5} {:>3} {:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
        "level",
        "try",
        "mode",
        "frontier",
        "exchanged",
        "retrans",
        "retry ms",
        "recov ms",
        "time ms"
    ));
    for l in &run.level_stats {
        out.push_str(&format!(
            "{:>5} {:>3} {:>6} {:>12} {:>11.1}K {:>9.1}K {:>10.4} {:>10.4} {:>10.4}{}\n",
            l.level,
            l.attempt,
            if l.bottom_up { "pull" } else { "push" },
            l.frontier_count,
            l.exchanged_bytes as f64 / 1024.0,
            l.retransmitted_bytes as f64 / 1024.0,
            l.retry_ms,
            l.recovery_ms,
            l.time_ms,
            if l.checkpointed() { "  [ckpt]" } else { "" },
        ));
    }
    for r in &run.recoveries {
        out.push_str(&format!(
            "recovery: rank {} died at level {}, policy {}, resumed from level {} \
             with {} GCDs ({:.4} ms overhead)\n",
            r.dead_rank, r.detected_level, r.policy, r.restored_level, r.gcds_after, r.overhead_ms
        ));
    }
    out.push_str(&format!(
        "total {:.4} ms -> {:.2} GTEPS aggregate, {:.2} GTEPS per GCD\n",
        run.total_ms, run.gteps, run.gteps_per_gcd
    ));
    if args.flag("validate") {
        match xbfs_graph::validate_bfs_levels(&g, source, &run.levels) {
            Ok(()) => out.push_str("BFS levels: VALID (Graph500-style checks passed)\n"),
            Err(e) => {
                return Err(CliError::new(
                    format!("BFS levels INVALID: {e:?}"),
                    exit_code::VALIDATION,
                ))
            }
        }
    }
    if let Some(json_path) = args.options.get("json") {
        std::fs::write(json_path, run.to_json())
            .map_err(|e| CliError::io(format!("cannot write {json_path}: {e}")))?;
        out.push_str(&format!("run record written to {json_path}\n"));
    }
    if let Some(csv_path) = args.options.get("csv") {
        std::fs::write(csv_path, run.to_csv())
            .map_err(|e| CliError::io(format!("cannot write {csv_path}: {e}")))?;
        out.push_str(&format!("per-level stats written to {csv_path}\n"));
    }
    if let Some((fmt, trace_path)) = trace_opt {
        if let Some(direct) = emit_trace(&mut out, fmt, &trace_path, &cluster.trace_of(&run)) {
            return Ok(direct);
        }
    }
    Ok(out)
}

fn msbfs(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs msbfs FILE")?;
    let g = load_graph(path)?;
    let k = args
        .get::<usize>("sources", 8)?
        .clamp(1, xbfs_core::MAX_CONCURRENT);
    let sources = pick_sources(&g, k, 7);
    let dev = mk_device(args, 1)?;
    let run = MsBfs::new(&dev, &g)?.run_batch(&sources);
    // Compare with sequential runs for the sharing factor.
    let xbfs = Xbfs::new(&dev, &g, XbfsConfig::default())?;
    let mut seq_ms = 0.0f64;
    for &s in &sources {
        seq_ms += xbfs.run(s)?.total_ms;
    }
    Ok(format!(
        "{} concurrent sources: {:.4} ms shared ({:.4} ms sequential, {:.1}x sharing gain), {:.2} GTEPS aggregate\n",
        sources.len(),
        run.total_ms,
        seq_ms,
        seq_ms / run.total_ms.max(1e-12),
        run.gteps
    ))
}

fn compare(args: &Args) -> Result<String, CliError> {
    use xbfs_baselines::{
        BeamerLike, EnterpriseLike, GpuBfs, GunrockLike, HierarchicalQueue, SimpleTopDown,
        SsspAsync,
    };
    let path = args.positional.first().ok_or("usage: xbfs compare FILE")?;
    let g = load_graph(path)?;
    let source = args.get::<u32>("source", pick_sources(&g, 1, 1)[0])?;
    let spec = parse_device(args)?;
    let xbfs_run =
        Xbfs::new(&build_device(spec.clone(), 1), &g, XbfsConfig::default())?.run(source)?;
    let mut out = format!(
        "{:<20} {:>10} {:>8}\n{:<20} {:>10.4} {:>8.2}\n",
        "engine", "ms", "GTEPS", "xbfs (adaptive)", xbfs_run.total_ms, xbfs_run.gteps
    );
    let engines: Vec<Box<dyn GpuBfs>> = vec![
        Box::new(GunrockLike),
        Box::new(EnterpriseLike),
        Box::new(HierarchicalQueue),
        Box::new(SimpleTopDown),
        Box::new(SsspAsync),
        Box::new(BeamerLike::default()),
    ];
    for e in engines {
        let run = e.run(&build_device(spec.clone(), 1), &g, source);
        if run.levels != xbfs_run.levels {
            return Err(CliError::new(
                format!("engine {} disagrees with XBFS levels!", e.name()),
                exit_code::VALIDATION,
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10.4} {:>8.2}\n",
            e.name(),
            run.total_ms,
            run.gteps
        ));
    }
    Ok(out)
}

/// One run's digest inside a sweep: the aggregates plus a hash that pins
/// the full per-run result (levels and modeled time, bit for bit).
struct SweepRec {
    ms: f64,
    edges: u64,
    digest: u64,
}

/// Aggregated supervisor health for one sweep: every detection,
/// quarantine, re-execution and resource-pressure event, summed across
/// workers. Lands in the report text and the `xbfs-sweep-v1` JSON.
#[derive(Default)]
struct SweepHealth {
    certified: u64,
    sdc_detected: u64,
    quarantined: u64,
    reexecuted: u64,
    corrected: u64,
    // An exhausted-retries abort fails the whole sweep (exit 7), so any
    // report that gets emitted shows 0 here; the field documents the
    // schema for consumers.
    aborted: u64,
    deadline_exceeded: u64,
    pool_pressure_events: u64,
    engine_rebuilds: u64,
}

impl SweepHealth {
    fn add(&mut self, o: &SweepHealth) {
        self.certified += o.certified;
        self.sdc_detected += o.sdc_detected;
        self.quarantined += o.quarantined;
        self.reexecuted += o.reexecuted;
        self.corrected += o.corrected;
        self.aborted += o.aborted;
        self.deadline_exceeded += o.deadline_exceeded;
        self.pool_pressure_events += o.pool_pressure_events;
        self.engine_rebuilds += o.engine_rebuilds;
    }
}

/// Why a sweep worker ended an engine generation early: the run that
/// failed certification, and the retry budget that applies to it.
struct IntegrityFailure {
    source: u32,
    retries: u32,
    error: xbfs_core::IntegrityError,
}

/// One sweep worker: its chunk of sources on a pooled engine. With
/// supervision (`sup`) every run is certified; a run failing certification
/// is quarantined, the engine *and its device* are discarded (a corrupted
/// CSR or parked buffer must not outlive detection — re-parking it would
/// checksum the corrupted contents), and the run re-executes on a rebuilt
/// engine with fresh, non-pooled state under bounded exponential backoff.
/// Bit flips, when injected, hit only attempt 0 — retries and the rebuilt
/// reference pass stay clean, which is what keeps the sweep's bit-identity
/// check meaningful under fault injection.
#[allow(clippy::too_many_arguments)]
fn sweep_worker(
    args: &Args,
    g: &Csr,
    cfg: XbfsConfig,
    part: &[u32],
    plan: Option<&BitflipPlan>,
    sup: Option<(f64, u32)>,
    max_pool_bytes: Option<u64>,
    rec: &Recorder,
    track: usize,
    t0: &std::time::Instant,
) -> Result<(Vec<SweepRec>, SweepHealth), CliError> {
    let now_us = || t0.elapsed().as_secs_f64() * 1e6;
    let mut health = SweepHealth::default();
    let mk = || -> Result<Device, CliError> {
        let dev = mk_device(args, cfg.required_streams())?;
        dev.set_pool_limit(max_pool_bytes);
        Ok(dev)
    };
    let span = rec.begin_span(None, names::span::SWEEP, track, now_us());
    rec.span_attr(span, "worker", AttrValue::U64(track as u64));
    rec.span_attr(span, "runs", AttrValue::U64(part.len() as u64));

    let mut recs = Vec::with_capacity(part.len());
    let mut deadline_ms: Option<f64> = None;
    let mut idx = 0usize; // next source in `part`
    let mut attempt: u32 = 0; // retry attempt for part[idx]
                              // Each iteration is one engine *generation*: a fresh device and a
                              // fresh engine. A generation ends when the chunk completes, or when a
                              // run fails certification — then the engine AND its device are
                              // discarded, because a corrupted CSR or parked buffer must not
                              // survive into the next generation (re-parking it would checksum the
                              // corrupted contents). Pool pressure is read after the engine drops:
                              // the drop parks its BFS state, which is where a byte cap trims.
    while idx < part.len() {
        let dev = mk()?;
        let quarantined = {
            let engine = Xbfs::new(&dev, g, cfg)?;
            loop {
                if idx >= part.len() {
                    break None;
                }
                let s = part[idx];
                let Some((deadline_factor, retries)) = sup else {
                    let run = engine.run(s)?;
                    recs.push(SweepRec {
                        ms: run.total_ms,
                        edges: run.traversed_edges,
                        digest: run.digest(),
                    });
                    idx += 1;
                    continue;
                };
                // Injection targets attempt 0 only: retries run clean, so
                // a corrected run is bit-identical to the rebuilt
                // reference.
                let sab = (attempt == 0)
                    .then(|| {
                        plan.map(|p| Sabotage {
                            plan: p,
                            salt: u64::from(s),
                        })
                    })
                    .flatten();
                match engine.run_with(s, sab.as_ref(), None, true) {
                    Ok((run, _cert)) => {
                        health.certified += 1;
                        if attempt > 0 {
                            health.corrected += 1;
                        }
                        // The first certified run calibrates the worker's
                        // modeled-time deadline; exceedances are flagged
                        // in health (and the trace), not failures.
                        let dl = *deadline_ms.get_or_insert(run.total_ms * deadline_factor);
                        if run.total_ms > dl {
                            health.deadline_exceeded += 1;
                            rec.event(
                                Some(span),
                                names::event::DEADLINE_EXCEEDED,
                                track,
                                now_us(),
                                vec![
                                    ("source".into(), AttrValue::U64(u64::from(s))),
                                    ("modeled_ms".into(), AttrValue::F64(run.total_ms)),
                                    ("deadline_ms".into(), AttrValue::F64(dl)),
                                ],
                            );
                        }
                        recs.push(SweepRec {
                            ms: run.total_ms,
                            edges: run.traversed_edges,
                            digest: run.digest(),
                        });
                        idx += 1;
                        attempt = 0;
                    }
                    Err(XbfsError::Integrity(e)) => {
                        health.sdc_detected += 1;
                        rec.event(
                            Some(span),
                            names::event::SDC_DETECTED,
                            track,
                            now_us(),
                            vec![
                                ("source".into(), AttrValue::U64(u64::from(s))),
                                ("attempt".into(), AttrValue::U64(u64::from(attempt))),
                                ("error".into(), AttrValue::Str(e.to_string())),
                            ],
                        );
                        if attempt == 0 {
                            health.quarantined += 1;
                            rec.event(
                                Some(span),
                                names::event::QUARANTINED,
                                track,
                                now_us(),
                                vec![("source".into(), AttrValue::U64(u64::from(s)))],
                            );
                        }
                        break Some(IntegrityFailure {
                            source: s,
                            retries,
                            error: e,
                        });
                    }
                    Err(other) => return Err(other.into()),
                }
            }
        }; // engine dropped here; its state parks into the pool
        health.pool_pressure_events += dev.pool_pressure_events();
        let Some(fail) = quarantined else { break };
        health.engine_rebuilds += 1;
        if attempt >= fail.retries {
            return Err(CliError::new(
                format!(
                    "IntegrityError: source {} failed certification after {} \
                     attempt(s): {}",
                    fail.source,
                    attempt + 1,
                    fail.error
                ),
                exit_code::INTEGRITY,
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(6)));
        attempt += 1;
        health.reexecuted += 1;
        rec.event(
            Some(span),
            names::event::REEXECUTED,
            track,
            now_us(),
            vec![
                ("source".into(), AttrValue::U64(u64::from(fail.source))),
                ("attempt".into(), AttrValue::U64(u64::from(attempt))),
            ],
        );
    }
    rec.counter(
        names::metric::POOL_PRESSURE_EVENTS,
        track,
        now_us(),
        health.pool_pressure_events as f64,
    );
    rec.counter(
        names::metric::CERTIFIED_RUNS,
        track,
        now_us(),
        health.certified as f64,
    );
    rec.end_span(span, now_us());
    Ok((recs, health))
}

fn sweep(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs sweep FILE")?;
    let g = load_graph(path)?;
    let n = args.get::<usize>("sources", 64)?.max(1);
    let seed = args.get::<u64>("seed", 13)?;
    let default_threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(8);
    let threads = args.get::<usize>("threads", default_threads)?.clamp(1, n);
    let plan = parse_bitflip_plan(args)?;
    // Injection without verification would just trip the bit-identity
    // check with an unexplained exit 6 — in a sweep, injection implies
    // the supervisor.
    let verify = args.flag("verify") || plan.is_some();
    let deadline_factor = args.get::<f64>("deadline-factor", 25.0)?;
    if deadline_factor < 1.0 {
        return Err(CliError::usage("--deadline-factor must be >= 1"));
    }
    let retries = args.get::<u32>("retries", 2)?;
    let multi_source = args.flag("multi-source");
    let max_pool_bytes = match args.options.get("max-pool-bytes") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| CliError::usage(format!("bad --max-pool-bytes {v:?}")))?,
        ),
        None => None,
    };
    // Both passes share the config (the certificate's parent-tree checks
    // need recorded parents), so the bit-identity digests stay comparable.
    let cfg = XbfsConfig {
        alpha: args.get("alpha", 0.1)?,
        record_parents: verify,
        ..XbfsConfig::default()
    };
    let sources = pick_sources(&g, n, seed);
    let n = sources.len(); // graphs smaller than --sources yield fewer
    let sup = verify.then_some((deadline_factor, retries));
    let (trace_opt, recorder) = trace_setup(args)?;

    // Pooled pass: one engine per OS thread. Each engine owns its device,
    // uploads the graph once, and recycles its BFS state across its whole
    // chunk of sources via the epoch-based O(frontier) reset.
    let chunk = n.div_ceil(threads);
    let t0 = std::time::Instant::now();
    let mut pooled: Vec<SweepRec> = Vec::with_capacity(n);
    let mut health = SweepHealth::default();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut handles = Vec::new();
        for (track, part) in sources.chunks(chunk).enumerate() {
            let (g, rec, t0, plan) = (&g, &recorder, &t0, plan.as_ref());
            handles.push(scope.spawn(move || {
                sweep_worker(
                    args,
                    g,
                    cfg,
                    part,
                    plan,
                    sup,
                    max_pool_bytes,
                    rec,
                    track,
                    t0,
                )
            }));
        }
        for h in handles {
            // A panicking worker thread must not take the whole sweep's
            // process down with an opaque abort: surface it typed.
            let (recs, wh) = h.join().map_err(|_| {
                CliError::new(
                    "sweep worker thread panicked; partial results discarded",
                    exit_code::GENERIC,
                )
            })??;
            pooled.extend(recs);
            health.add(&wh);
        }
        Ok(())
    })?;
    let pooled_wall = t0.elapsed().as_secs_f64();

    // Rebuild pass: the unpooled in-process path — a fresh device, a fresh
    // graph upload, freshly allocated BFS state per source. This is the
    // bit-identity reference; a shell loop over `xbfs bfs` additionally
    // pays process spawn + graph load per run (CI measures that baseline).
    let t1 = std::time::Instant::now();
    let mut rebuilt: Vec<SweepRec> = Vec::with_capacity(n);
    let mut ref_levels: Vec<u64> = Vec::with_capacity(n);
    for &s in &sources {
        let dev = mk_device(args, cfg.required_streams())?;
        let xbfs = Xbfs::new(dev, &g, cfg)?;
        // Under --verify the pooled pass certifies every run; the rebuild
        // reference must pay the same certification cost or the
        // pooled-vs-unpooled ratio compares different amounts of work.
        let (run, _cert) = xbfs.run_with(s, None, None, verify)?;
        ref_levels.push(run.result_digest());
        rebuilt.push(SweepRec {
            ms: run.total_ms,
            edges: run.traversed_edges,
            digest: run.digest(),
        });
    }
    let rebuilt_wall = t1.elapsed().as_secs_f64();

    let checksum = |recs: &[SweepRec]| recs.iter().fold(0u64, |a, r| a ^ r.digest);
    let (ck_pooled, ck_rebuilt) = (checksum(&pooled), checksum(&rebuilt));
    if ck_pooled != ck_rebuilt {
        return Err(CliError::new(
            format!(
                "pooled sweep diverged from per-run rebuild \
                 (checksum {ck_pooled:#018x} vs {ck_rebuilt:#018x})"
            ),
            exit_code::VALIDATION,
        ));
    }

    let edges: u64 = pooled.iter().map(|r| r.edges).sum();
    let model_ms: f64 = pooled.iter().map(|r| r.ms).sum();
    let agg_gteps = edges as f64 / (model_ms * 1e-3).max(1e-12) / 1e9;
    let pooled_rps = n as f64 / pooled_wall.max(1e-9);
    let rebuilt_rps = n as f64 / rebuilt_wall.max(1e-9);
    let speedup = pooled_rps / rebuilt_rps.max(1e-9);

    // Multi-source pass (--multi-source): one persistent 64-wide
    // bit-parallel engine sweeps the whole source set in
    // <= MAX_CONCURRENT-wide batches. Every slot's levels digest must
    // match the per-run rebuild reference above bit-for-bit.
    let mut multi_txt = String::new();
    let mut multi_json = None;
    if multi_source {
        let dev = mk_device(args, cfg.required_streams())?;
        let eng = MsBfs::new(dev, &g)?;
        let t2 = std::time::Instant::now();
        let mut ms_model_ms = 0.0f64;
        let mut ms_edges = 0u64;
        let mut batches = 0usize;
        let mut slot_digests: Vec<u64> = Vec::with_capacity(n);
        for part in sources.chunks(xbfs_core::MAX_CONCURRENT) {
            let (run, _certs) = eng.run_with(part, None, verify).map_err(|e| {
                let code = match e {
                    XbfsError::Integrity(_) => exit_code::INTEGRITY,
                    _ => exit_code::GENERIC,
                };
                CliError::new(format!("multi-source sweep: {e}"), code)
            })?;
            ms_model_ms += run.total_ms;
            ms_edges += run.traversed_edges;
            batches += 1;
            for slot in 0..run.width() {
                slot_digests.push(run.result_digest(slot));
            }
        }
        let ms_wall = t2.elapsed().as_secs_f64();
        if let Some(bad) = (0..n).find(|&i| slot_digests[i] != ref_levels[i]) {
            return Err(CliError::new(
                format!(
                    "multi-source sweep diverged from per-run rebuild at source {} \
                     (levels digest {:#018x} vs {:#018x})",
                    sources[bad], slot_digests[bad], ref_levels[bad]
                ),
                exit_code::VALIDATION,
            ));
        }
        let ms_ck = slot_digests.iter().fold(0u64, |a, d| a ^ d);
        let ms_gteps = ms_edges as f64 / (ms_model_ms * 1e-3).max(1e-12) / 1e9;
        let ms_rps = n as f64 / ms_wall.max(1e-9);
        let ms_speedup = ms_rps / pooled_rps.max(1e-9);
        multi_txt = format!(
            "multi-source:       {ms_rps:>9.1} runs/sec ({ms_wall:.3} s wall, \
             {batches} batch(es) of <= {}, {ms_gteps:.2} GTEPS aggregate modeled)\n\
             speedup vs pooled single-source: {ms_speedup:.2}x runs/sec; \
             slot levels bit-identical to rebuild (checksum {ms_ck:#018x})\n",
            xbfs_core::MAX_CONCURRENT,
        );
        multi_json = Some(json::object(|o| {
            o.key("wall_ms").fixed(ms_wall * 1000.0, 3);
            o.key("runs_per_sec").fixed(ms_rps, 3);
            o.key("batches").int(batches);
            o.key("width").int(xbfs_core::MAX_CONCURRENT);
            o.key("aggregate_gteps").fixed(ms_gteps, 4);
            o.key("speedup_vs_pooled").fixed(ms_speedup, 3);
            o.key("checksum").str(format_args!("{ms_ck:#018x}"));
        }));
    }

    let mut out = format!(
        "sweep: {n} sources on {threads} thread(s), |V| = {}, |E| = {}\n",
        g.num_vertices(),
        g.num_edges()
    );
    out.push_str(&format!(
        "pooled engine:      {pooled_rps:>9.1} runs/sec ({pooled_wall:.3} s wall, \
         {agg_gteps:.2} GTEPS aggregate modeled)\n"
    ));
    out.push_str(&format!(
        "in-process rebuild: {rebuilt_rps:>9.1} runs/sec ({rebuilt_wall:.3} s wall; \
         fresh device + upload + alloc, no process spawn)\n"
    ));
    out.push_str(&format!(
        "speedup vs in-process rebuild: {speedup:.2}x runs/sec; \
         results bit-identical (checksum {ck_pooled:#018x})\n"
    ));
    out.push_str(&multi_txt);
    if verify {
        out.push_str(&format!(
            "supervisor: {}/{n} certified, {} SDC detected, {} quarantined, \
             {} re-executed, {} corrected, {} aborted\n",
            health.certified,
            health.sdc_detected,
            health.quarantined,
            health.reexecuted,
            health.corrected,
            health.aborted,
        ));
        out.push_str(&format!(
            "            {} deadline exceedance(s), {} pool pressure event(s), \
             {} engine rebuild(s)\n",
            health.deadline_exceeded, health.pool_pressure_events, health.engine_rebuilds,
        ));
    } else if let Some(cap) = max_pool_bytes {
        out.push_str(&format!(
            "pool pressure: {} event(s) under the {cap}-byte cap\n",
            health.pool_pressure_events
        ));
    }
    if let Some(json_path) = args.options.get("json") {
        let json = json::object(|o| {
            o.key("schema").str("xbfs-sweep-v1");
            o.key("graph").obj(|gr| {
                gr.key("path").str(path);
                gr.key("vertices").int(g.num_vertices());
                gr.key("edges").int(g.num_edges());
            });
            o.key("sources").int(n);
            o.key("threads").int(threads);
            o.key("seed").int(seed);
            o.key("pooled").obj(|p| {
                p.key("wall_ms").fixed(pooled_wall * 1000.0, 3);
                p.key("runs_per_sec").fixed(pooled_rps, 3);
                p.key("aggregate_gteps").fixed(agg_gteps, 4);
            });
            o.key("unpooled").obj(|u| {
                u.key("wall_ms").fixed(rebuilt_wall * 1000.0, 3);
                u.key("runs_per_sec").fixed(rebuilt_rps, 3);
            });
            o.key("speedup").fixed(speedup, 3);
            o.key("verified").bool(verify);
            o.key("health").obj(|h| {
                h.key("certified").int(health.certified);
                h.key("sdc_detected").int(health.sdc_detected);
                h.key("quarantined").int(health.quarantined);
                h.key("reexecuted").int(health.reexecuted);
                h.key("corrected").int(health.corrected);
                h.key("aborted").int(health.aborted);
                h.key("deadline_exceeded").int(health.deadline_exceeded);
                h.key("pool_pressure_events")
                    .int(health.pool_pressure_events);
                h.key("engine_rebuilds").int(health.engine_rebuilds);
            });
            o.opt("multi_source", multi_json.as_deref(), Val::raw);
            o.key("checksum").str(format_args!("{ck_pooled:#018x}"));
        });
        std::fs::write(json_path, json + "\n")
            .map_err(|e| CliError::io(format!("cannot write {json_path}: {e}")))?;
        out.push_str(&format!("sweep record written to {json_path}\n"));
    }
    if let Some((fmt, trace_path)) = trace_opt {
        if let Some(direct) = emit_trace(&mut out, fmt, &trace_path, &recorder.finish()) {
            return Ok(direct);
        }
    }
    Ok(out)
}

/// `xbfs serve`: the resilient BFS daemon. Loads the graph once, keeps
/// one warm pooled engine per worker, and serves `xbfs-serve-v1` until a
/// wire `shutdown` drains it; the merged serve report is the output.
fn serve(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or("usage: xbfs serve FILE [--addr HOST:PORT] (see `xbfs help`)")?;
    let g = std::sync::Arc::new(load_graph(path)?);
    let verify = args.flag("verify");
    // The certificate's parent-tree checks need recorded parents, same
    // as `bfs --verify`.
    let xcfg = XbfsConfig {
        alpha: args.get("alpha", 0.1)?,
        record_parents: verify,
        ..XbfsConfig::default()
    };
    let cluster = match args.options.get("cluster") {
        Some(_) => {
            let n: usize = args.get("cluster", 4)?;
            if n < 2 {
                return Err(CliError::usage("--cluster needs at least 2 GCDs"));
            }
            Some(n)
        }
        None => None,
    };
    // Batched serving: coalesce up to --batch-width admitted single-source
    // requests into one 64-wide bit-parallel wave. Width is capped by the
    // visited-mask word (MAX_CONCURRENT = 64); the cluster engine has its
    // own scheduling and does not compose with coalescing.
    let batch_width = args.get::<usize>("batch-width", 1)?;
    if batch_width == 0 {
        return Err(CliError::usage("--batch-width must be >= 1"));
    }
    if batch_width > xbfs_core::MAX_CONCURRENT {
        return Err(CliError::usage(format!(
            "--batch-width {batch_width} exceeds the {}-wide visited mask",
            xbfs_core::MAX_CONCURRENT
        )));
    }
    if batch_width > 1 && cluster.is_some() {
        return Err(CliError::usage(
            "--batch-width > 1 does not compose with --cluster \
             (the multi-GCD engine schedules one source at a time)",
        ));
    }
    let batch_window_ms = args.get::<f64>("batch-window-ms", 2.0)?;
    if !batch_window_ms.is_finite() || batch_window_ms < 0.0 {
        return Err(CliError::usage("--batch-window-ms must be >= 0"));
    }
    // Durability: --journal PATH arms the write-ahead journal; the fsync
    // policy grammar is parsed up front so a typo fails before the graph
    // loads. --journal-fsync without --journal is a usage error (it would
    // silently do nothing).
    let journal = args.options.get("journal").cloned();
    let journal_fsync = match args.options.get("journal-fsync") {
        Some(spec) => {
            if journal.is_none() {
                return Err(CliError::usage("--journal-fsync requires --journal PATH"));
            }
            FsyncPolicy::parse(spec).map_err(|e| CliError::usage(e.to_string()))?
        }
        None => FsyncPolicy::Batch(8),
    };
    let scfg = ServeConfig {
        addr: args.get("addr", "127.0.0.1:0".to_string())?,
        workers: args.get("workers", 2)?,
        queue_cap: args.get("queue-cap", 32)?,
        retry_after_ms: args.get("retry-after-ms", 25)?,
        verify,
        allow_chaos: args.flag("allow-chaos"),
        max_retries: args.get("max-retries", 2)?,
        breaker_threshold: args.get("breaker-threshold", 3)?,
        breaker_cooldown_ms: args.get("breaker-cooldown-ms", 250)?,
        default_deadline_ms: opt_f64(args, "deadline-ms")?,
        cluster,
        checkpoint_every: args.get("checkpoint-every", 1)?,
        metrics_addr: args.options.get("metrics-addr").cloned(),
        flight_dir: args.options.get("flight-dir").cloned(),
        flight_ring: args.get("flight-ring", 64)?,
        batch_width,
        batch_window_ms,
        journal,
        journal_fsync,
        idle_timeout_ms: args.get("idle-timeout-ms", 30_000)?,
        ..ServeConfig::default()
    };
    let (workers, queue_cap) = (scfg.workers, scfg.queue_cap);

    // Parse --arch/--compiler once up front; the factory clones the parsed
    // values so quarantine rebuilds can mint fresh devices long after
    // `args` is gone.
    let streams = xcfg.required_streams();
    let spec = parse_device(args)?;
    let factory: DeviceFactory = std::sync::Arc::new(move || build_device(spec.clone(), streams));

    let (trace_opt, recorder) = trace_setup(args)?;
    let rec = std::sync::Arc::new(recorder);
    let handle = Server::start(scfg, g, xcfg, factory, std::sync::Arc::clone(&rec))
        .map_err(|e| CliError::io(format!("cannot start server: {e}")))?;
    // The banner goes to stderr immediately (stdout is the end-of-life
    // report) so scripts can scrape the bound port before sending load.
    let backend = match cluster {
        Some(n) => format!("{n}-GCD cluster engine per worker"),
        None if batch_width > 1 => format!(
            "{batch_width}-wide batch engine per worker, \
             {batch_window_ms} ms linger"
        ),
        None => "single-device engine per worker".into(),
    };
    eprintln!(
        "xbfs serve: listening on {} ({workers} worker(s), queue cap {queue_cap}, {backend}); \
         drain with the wire `shutdown` op or `xbfs loadgen --shutdown`",
        handle.addr()
    );
    if let Some(maddr) = handle.metrics_addr() {
        eprintln!(
            "xbfs serve: metrics on http://{maddr}/metrics (Prometheus) and \
             /metrics.json (xbfs-metrics-v1); watch live with `xbfs top {}`",
            handle.addr()
        );
    }
    if let Some(jpath) = args.options.get("journal") {
        eprintln!(
            "xbfs serve: journaling to {jpath} (fsync {journal_fsync}); \
             a restart on the same path replays incomplete requests"
        );
    }

    let report = handle.join();
    let mut out = format!(
        "serve report: accepted {} (ok {} timeout {} error {}), shed {}, \
         rejected while draining {}\n\
         recovery: replayed {} panics-recovered {} engine-rebuilds {} \
         breaker-trips {} breaker-fast-rejects {}\n\
         wire: connections {} dropped {} bad-lines {} chaos-ignored {}; \
         max queue depth {}\n\
         drain: {}\n",
        report.accepted,
        report.ok,
        report.timeouts,
        report.errors,
        report.shed,
        report.rejected_draining,
        report.replayed,
        report.panics_recovered,
        report.rebuilds,
        report.breaker_trips,
        report.breaker_fast_rejects,
        report.connections,
        report.dropped_connections,
        report.bad_lines,
        report.chaos_ignored,
        report.max_queue_depth,
        if report.drain_clean {
            "clean"
        } else {
            "NOT CLEAN"
        },
    );
    if report.deduped > 0 {
        out.push_str(&format!(
            "idempotent replays answered from cache: {}\n",
            report.deduped
        ));
    }
    if report.journal_appends > 0 || report.replayed_requests > 0 {
        out.push_str(&format!(
            "journal: {} append(s) {} fsync(s) {} B written\n",
            report.journal_appends, report.journal_fsyncs, report.journal_bytes
        ));
    }
    if report.replayed_requests > 0 {
        out.push_str(&format!(
            "crash recovery: re-enqueued {} incomplete request(s) from the \
             journal in {:.1} ms\n",
            report.replayed_requests, report.recovery_ms
        ));
    }
    if report.long_lines > 0 || report.idle_disconnects > 0 {
        out.push_str(&format!(
            "read hygiene: overlong lines shed {} idle connections closed {}\n",
            report.long_lines, report.idle_disconnects
        ));
    }
    if report.batch_width > 1 {
        out.push_str(&format!(
            "batching: width {} — {} batch(es) served {} request(s), \
             largest batch {}\n",
            report.batch_width, report.batches, report.batched_requests, report.max_batch_size
        ));
    }
    if !report.flight_dumps.is_empty() {
        out.push_str(&format!(
            "flight recorder: {} dump(s)\n",
            report.flight_dumps.len()
        ));
        for p in &report.flight_dumps {
            out.push_str(&format!("  {p}\n"));
        }
    }
    if report.cluster > 0 {
        out.push_str(&format!("cluster: {} rank(s)\n", report.cluster));
        for (rank, h) in report.rank_health.iter().enumerate() {
            out.push_str(&format!(
                "  rank {rank}: crashes {} checkpoints-restored {} \
                 retransmitted {} B\n",
                h.crashes, h.checkpoints_restored, h.retransmitted_bytes
            ));
        }
    }
    if let Some(json_path) = args.options.get("json") {
        std::fs::write(json_path, report.to_json() + "\n")
            .map_err(|e| CliError::io(format!("cannot write {json_path}: {e}")))?;
        out.push_str(&format!("serve report written to {json_path}\n"));
    }
    if let Some((fmt, trace_path)) = trace_opt {
        if let Some(direct) = emit_trace(&mut out, fmt, &trace_path, &rec.finish()) {
            return Ok(direct);
        }
    }
    if !report.drain_clean {
        return Err(CliError::new(
            format!("serve: drain was not clean (work lost or dropped)\n{out}"),
            exit_code::GENERIC,
        ));
    }
    Ok(out)
}

/// `xbfs loadgen`: open-loop load generator for `xbfs serve`.
fn loadgen(args: &Args) -> Result<String, CliError> {
    let addr = args
        .options
        .get("addr")
        .cloned()
        .ok_or("usage: xbfs loadgen --addr HOST:PORT (see `xbfs help`)")?;
    // The chaos grammar is the shared xbfs-spec one (same tokenizer as
    // --inject-bitflips and --inject-faults), parsed client-side so a bad
    // spec fails before any load is sent.
    let chaos = match args.options.get("chaos") {
        Some(spec) => Some(
            ChaosPlan::parse(spec)
                .map_err(|e| CliError::new(e.to_string(), exit_code::INVALID_INPUT))?,
        ),
        None => None,
    };
    let cfg = LoadgenConfig {
        addr,
        requests: args.get("requests", 100)?,
        rps: args.get("rps", 200.0)?,
        connections: args.get("connections", 4)?,
        source_max: args.get("sources", 1)?,
        seed: args.get("seed", 1)?,
        deadline_ms: opt_f64(args, "deadline-ms")?,
        verify: args.flag("verify").then_some(true),
        chaos,
        retries: args.get("retries", 0)?,
        shutdown_after: args.flag("shutdown"),
        progress_every_ms: args.get("progress-every-ms", 1000)?,
        reconnect: !args.flag("no-reconnect"),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg)
        .map_err(|e| CliError::io(format!("loadgen against {}: {e}", cfg.addr)))?;

    let mut out = format!(
        "loadgen: {} requests at target {:.0} rps over {} connection(s); \
         achieved {:.0} rps in {:.0} ms\n\
         ok {} shed {} ({:.1}%) timeouts {} errors {} lost {}; replayed {}\n\
         retries: sent {} retried-then-ok {}; reconnects {}\n\
         latency ms from scheduled send: p50 {:.3} p99 {:.3} p999 {:.3} max {:.3}\n\
         digests consistent per source: {}\n",
        report.sent,
        cfg.rps,
        cfg.connections,
        report.achieved_rps,
        report.elapsed_ms,
        report.ok,
        report.shed,
        report.shed_pct(),
        report.timeouts,
        report.errors,
        report.lost,
        report.replayed,
        report.retries_sent,
        report.retried_ok,
        report.reconnects,
        report.p50_ms,
        report.p99_ms,
        report.p999_ms,
        report.max_ms,
        report.digests_consistent,
    );
    if let Some(json_path) = args.options.get("json") {
        std::fs::write(json_path, report.to_json() + "\n")
            .map_err(|e| CliError::io(format!("cannot write {json_path}: {e}")))?;
        out.push_str(&format!("loadgen record written to {json_path}\n"));
    }
    if report.lost > 0 {
        return Err(CliError::new(
            format!(
                "loadgen: {} request(s) lost (connection died before an answer)\n{out}",
                report.lost
            ),
            exit_code::GENERIC,
        ));
    }
    if !report.digests_consistent {
        return Err(CliError::new(
            format!("IntegrityError: served digests diverged across repeats of a source\n{out}"),
            exit_code::INTEGRITY,
        ));
    }
    if let Some(limit) = opt_f64(args, "max-shed-pct")? {
        if report.shed_pct() > limit {
            return Err(CliError::new(
                format!(
                    "loadgen: shed {:.1}% of requests, over --max-shed-pct {limit}\n{out}",
                    report.shed_pct()
                ),
                exit_code::OVERLOADED,
            ));
        }
    }
    Ok(out)
}

/// `xbfs top`: a live terminal dashboard over a running server's
/// metrics plane. Connects to the *serve* address (wire protocol) and
/// polls the `metrics` op, rendering one frame per snapshot with rates
/// computed from successive scrapes. Runs until the server drains (or
/// for --frames N when scripted).
fn top_cmd(args: &Args) -> Result<String, CliError> {
    let addr = args
        .positional
        .first()
        .ok_or("usage: xbfs top HOST:PORT [--interval-ms MS] [--frames N]")?;
    let interval = std::time::Duration::from_millis(args.get("interval-ms", 1000)?);
    let frames = match args.get::<u64>("frames", 0)? {
        0 => None,
        n => Some(n),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let rendered = xbfs_server::top::run_top(addr, interval, frames, &mut out)
        .map_err(|e| CliError::io(format!("top against {addr}: {e}")))?;
    Ok(format!("top: rendered {rendered} frame(s)\n"))
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs analyze FILE")?;
    let g = load_graph(path)?;
    let labels = xbfs_apps::connected_components(&g);
    let n_comp = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let (_, giant) = xbfs_apps::largest_component(&g);
    let src = pick_sources(&g, 1, 1)[0];
    let diameter = xbfs_apps::estimate_diameter(&g, src);
    Ok(format!(
        "components: {n_comp} (largest {giant} of {} vertices, {:.1}%)\n\
         diameter (double-sweep lower bound): {diameter}\n",
        g.num_vertices(),
        100.0 * giant as f64 / g.num_vertices().max(1) as f64
    ))
}

fn trace_cmd(args: &Args) -> Result<String, CliError> {
    match args.positional.first().map(String::as_str) {
        Some("summarize") => {
            let path = args
                .positional
                .get(1)
                .ok_or("usage: xbfs trace summarize FILE")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
            summarize_trace(&text)
                .map_err(|e| CliError::new(format!("{path}: {e}"), exit_code::INVALID_INPUT))
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown trace subcommand {other:?} (expected `summarize`)"
        ))),
        None => Err("usage: xbfs trace summarize FILE".into()),
    }
}

/// Summarize a recorded trace document (either `xbfs-trace-v1` JSON from
/// `--trace json:` or a chrome trace.json from `--trace chrome:`).
fn summarize_trace(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("not valid JSON ({e})"))?;
    if doc.get("schema").and_then(JsonValue::as_str) == Some("xbfs-trace-v1") {
        summarize_xbfs_trace(&doc)
    } else if doc.get("traceEvents").is_some() {
        summarize_chrome_trace(&doc)
    } else {
        Err("unrecognized document (expected xbfs-trace-v1 or Trace Event Format)".into())
    }
}

fn json_attr(v: &JsonValue, key: &str) -> String {
    match v.get(key) {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(JsonValue::Num(n)) => format!("{n}"),
        Some(JsonValue::Bool(b)) => b.to_string(),
        _ => String::new(),
    }
}

/// Header of the per-level table both summaries print.
fn level_header() -> String {
    format!(
        "{:>5} {:>3} {:>12} {:>12} {:>10}\n",
        "level", "try", "mode", "frontier", "time ms"
    )
}

/// One row of that table, from a level span's attributes and duration.
fn level_row(attrs: &JsonValue, time_ms: f64) -> String {
    let or = |key: &str, fallback: String| match json_attr(attrs, key) {
        s if s.is_empty() => fallback,
        s => s,
    };
    format!(
        "{:>5} {:>3} {:>12} {:>12} {:>10.4}\n",
        json_attr(attrs, "level"),
        or("attempt", "0".into()),
        or("strategy", json_attr(attrs, "mode")),
        json_attr(attrs, "frontier_count"),
        time_ms,
    )
}

fn summarize_xbfs_trace(doc: &JsonValue) -> Result<String, String> {
    let mut out = String::from("xbfs-trace-v1\n");
    if let Some(summary) = doc.get("summary") {
        let engine = json_attr(summary, "engine");
        if !engine.is_empty() {
            out.push_str(&format!("engine: {engine}"));
            for key in ["num_gcds", "vertices", "edges", "gteps"] {
                let v = json_attr(summary, key);
                if !v.is_empty() {
                    out.push_str(&format!("  {key} {v}"));
                }
            }
            out.push('\n');
        }
    }
    let levels = doc
        .get("levels")
        .and_then(JsonValue::as_arr)
        .ok_or("missing levels array")?;
    out.push_str(&level_header());
    for l in levels {
        let time_ms = l.get("time_ms").and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.push_str(&level_row(l, time_ms));
    }
    let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]);
    let count_named = |name: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
            .count()
    };
    let events = doc.get("events").and_then(JsonValue::as_arr).unwrap_or(&[]);
    out.push_str(&format!(
        "{} spans ({} levels, {} kernels, {} collectives, {} checkpoints, \
         {} recoveries), {} events, {} counter samples\n",
        spans.len(),
        count_named(names::span::LEVEL),
        count_named(names::span::KERNEL),
        count_named(names::span::COLLECTIVE),
        count_named(names::span::CHECKPOINT),
        count_named(names::span::RECOVERY),
        events.len(),
        doc.get("counters")
            .and_then(JsonValue::as_arr)
            .map_or(0, |c| c.len()),
    ));
    out.push_str(&format!(
        "total {:.4} ms\n",
        doc.get("total_ms")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    ));
    Ok(out)
}

fn summarize_chrome_trace(doc: &JsonValue) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("traceEvents is not an array")?;
    let mut out = String::from("chrome trace.json (Trace Event Format)\n");
    let with_ph = |ph: &'static str| {
        events
            .iter()
            .filter(move |e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
    };
    let named = |name: &'static str| {
        with_ph("X").filter(move |e| e.get("name").and_then(JsonValue::as_str) == Some(name))
    };
    let mut end_us = 0.0f64;
    for e in with_ph("X") {
        let ts = e.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let dur = e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        end_us = end_us.max(ts + dur);
    }
    out.push_str(&format!(
        "{} span events ({} levels, {} kernels, {} collectives, {} recoveries), \
         {} instants, {} counter samples\n",
        with_ph("X").count(),
        named(names::span::LEVEL).count(),
        named(names::span::KERNEL).count(),
        named(names::span::COLLECTIVE).count(),
        named(names::span::RECOVERY).count(),
        with_ph("i").count(),
        with_ph("C").count(),
    ));
    out.push_str(&level_header());
    for l in named(names::span::LEVEL) {
        let args = l.get("args").cloned().unwrap_or(JsonValue::Obj(Vec::new()));
        let dur_us = l.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.push_str(&level_row(&args, dur_us / 1000.0));
    }
    out.push_str(&format!("total {:.4} ms\n", end_us / 1000.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(parts: &[&str]) -> Result<String, CliError> {
        dispatch(
            &Args::parse(parts.iter().map(|s| s.to_string()), is_flag).map_err(CliError::usage)?,
        )
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("xbfs-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_bfs_round_trip() {
        let path = tmp("g1.bin");
        let msg = run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
        assert!(msg.contains("|V| = 1024"), "{msg}");
        let info = run(&["info", &path]).unwrap();
        assert!(info.contains("avg degree"));
        let bfs = run(&["bfs", &path, "--validate"]).unwrap();
        assert!(bfs.contains("GTEPS"));
        assert!(bfs.contains("VALID"), "{bfs}");
    }

    #[test]
    fn forced_strategy_and_csv() {
        let path = tmp("g2.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let csv = tmp("g2.csv");
        let out = run(&["bfs", &path, "--forced", "bottom-up", "--csv", &csv]).unwrap();
        assert!(out.contains("bottom-up"));
        let body = std::fs::read_to_string(&csv).unwrap();
        assert!(body.contains("bu_expand"), "{body}");
    }

    #[test]
    fn convert_between_formats() {
        let bin = tmp("g3.bin");
        run(&["generate", "--out", &bin, "--kind", "db", "--shift", "6"]).unwrap();
        let txt = tmp("g3.txt");
        let msg = run(&["convert", &bin, &txt]).unwrap();
        assert!(msg.contains("converted"));
        let back = tmp("g3b.bin");
        run(&["convert", &txt, &back]).unwrap();
        let a = load_graph(&bin).unwrap();
        let b = load_graph(&back).unwrap();
        // Conversion through a symmetrized edge list preserves edges.
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn compare_and_msbfs_and_analyze() {
        let path = tmp("g4.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let cmp = run(&["compare", &path]).unwrap();
        assert!(
            cmp.contains("gunrock-like") && cmp.contains("beamer-like"),
            "{cmp}"
        );
        let ms = run(&["msbfs", &path, "--sources", "4"]).unwrap();
        assert!(ms.contains("sharing gain"), "{ms}");
        let an = run(&["analyze", &path]).unwrap();
        assert!(an.contains("components"), "{an}");
    }

    /// `--arch` must move every row of the table, not only XBFS's: each
    /// baseline runs on a fresh device of the requested profile.
    #[test]
    fn compare_builds_every_engine_on_the_requested_arch() {
        let path = tmp("g4_arch.bin");
        run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
        let mi250x = run(&["compare", &path]).unwrap();
        let p6000 = run(&["compare", &path, "--arch", "p6000"]).unwrap();
        assert_eq!(mi250x.lines().count(), 8, "{mi250x}");
        for (a, b) in mi250x.lines().zip(p6000.lines()).skip(1) {
            assert_ne!(a, b, "this engine ignored --arch");
        }
    }

    /// A flag before the file must not eat the file, and a flag does not
    /// take `=value` (`--verify=false` used to certify anyway).
    #[test]
    fn flags_never_consume_the_next_word() {
        let path = tmp("g4_flags.bin");
        run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
        let out = run(&["bfs", "--validate", &path]).unwrap();
        assert!(out.contains("BFS tree: VALID"), "{out}");
        let err = run(&["bfs", &path, "--verify=false"]).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
    }

    /// The two records the CLI writes itself stay JSON on their worst
    /// input: a non-finite `--alpha`, and a path no `{:?}` escapes right.
    #[test]
    fn json_records_survive_hostile_values() {
        let path = tmp("g4 \"quoted\" \u{7f}.bin");
        run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
        let json = tmp("g4_hostile.json");
        run(&["cluster", &path, "--alpha", "inf", "--json", &json]).unwrap();
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("config").and_then(|c| c.get("alpha")),
            Some(&JsonValue::Null)
        );
        run(&["sweep", &path, "--sources", "2", "--json", &json]).unwrap();
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let written = doc.get("graph").and_then(|g| g.get("path"));
        assert_eq!(written.and_then(JsonValue::as_str), Some(path.as_str()));
    }

    #[test]
    fn sweep_reports_throughput_and_writes_json() {
        let path = tmp("g10.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let json = tmp("g10_sweep.json");
        let out = run(&[
            "sweep",
            &path,
            "--sources",
            "8",
            "--threads",
            "2",
            "--json",
            &json,
        ])
        .unwrap();
        assert!(out.contains("runs/sec"), "{out}");
        assert!(out.contains("GTEPS aggregate"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("xbfs-sweep-v1")
        );
        assert_eq!(doc.get("sources").and_then(JsonValue::as_f64), Some(8.0));
        assert!(doc.get("speedup").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(
            doc.get("pooled")
                .and_then(|p| p.get("runs_per_sec"))
                .and_then(JsonValue::as_f64)
                .unwrap()
                > 0.0
        );
        // Unknown options stay usage errors.
        assert_eq!(
            run(&["sweep", &path, "--frobnicate"]).unwrap_err().code,
            exit_code::USAGE
        );
    }

    #[test]
    fn bfs_verify_certifies_clean_runs() {
        let path = tmp("g20.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let out = run(&["bfs", &path, "--verify"]).unwrap();
        assert!(out.contains("certified:"), "{out}");
        assert!(out.contains("levels checksum"), "{out}");
        // An unparsable bit-flip spec is the user's fault, not corruption.
        let err = run(&["bfs", &path, "--verify", "--inject-bitflips", "bogus"]).unwrap_err();
        assert_eq!(err.code, exit_code::INVALID_INPUT, "{err}");
    }

    #[test]
    fn bfs_verify_detects_injected_bitflips() {
        let path = tmp("g21.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        for spec in ["status,seed=7", "parents,seed=3", "csr,seed=9"] {
            let err = run(&["bfs", &path, "--verify", "--inject-bitflips", spec]).unwrap_err();
            assert_eq!(err.code, exit_code::INTEGRITY, "{spec}: {err}");
            assert!(err.message.starts_with("IntegrityError:"), "{spec}: {err}");
        }
    }

    #[test]
    fn sweep_supervisor_self_heals_under_injection() {
        let path = tmp("g22.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let json = tmp("g22_sweep.json");
        let out = run(&[
            "sweep",
            &path,
            "--sources",
            "6",
            "--threads",
            "2",
            "--inject-bitflips",
            "status,seed=5",
            "--json",
            &json,
        ])
        .unwrap();
        // Every injected run is detected, quarantined, re-executed, and
        // corrected; the corrected results stay bit-identical to the
        // clean rebuilt reference.
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("6/6 certified"), "{out}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let health = doc.get("health").expect("health section");
        let get = |k: &str| health.get(k).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(get("sdc_detected"), 6.0);
        assert_eq!(get("quarantined"), 6.0);
        assert_eq!(get("reexecuted"), 6.0);
        assert_eq!(get("corrected"), 6.0);
        assert_eq!(get("aborted"), 0.0);
        assert!(get("engine_rebuilds") >= 6.0);
        assert_eq!(doc.get("verified").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn sweep_retries_exhausted_aborts_with_integrity_exit() {
        let path = tmp("g23.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let err = run(&[
            "sweep",
            &path,
            "--sources",
            "4",
            "--threads",
            "1",
            "--inject-bitflips",
            "csr,seed=11",
            "--retries",
            "0",
        ])
        .unwrap_err();
        assert_eq!(err.code, exit_code::INTEGRITY, "{err}");
        assert!(err.message.starts_with("IntegrityError:"), "{err}");
        assert!(err.message.contains("failed certification"), "{err}");
    }

    #[test]
    fn sweep_pool_cap_reports_pressure_and_stays_bit_identical() {
        let path = tmp("g24.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let json = tmp("g24_sweep.json");
        let out = run(&[
            "sweep",
            &path,
            "--sources",
            "8",
            "--threads",
            "2",
            "--max-pool-bytes",
            "2048",
            "--json",
            &json,
        ])
        .unwrap();
        // The byte cap degrades pooling to fresh allocation, never
        // correctness: results remain bit-identical, pressure is counted.
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("pool pressure"), "{out}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let pressure = doc
            .get("health")
            .and_then(|h| h.get("pool_pressure_events"))
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(pressure > 0.0, "cap of 2 KB must trim state parks");
        // A bad cap value is a usage error.
        assert_eq!(
            run(&["sweep", &path, "--max-pool-bytes", "lots"])
                .unwrap_err()
                .code,
            exit_code::USAGE
        );
    }

    #[test]
    fn errors_are_reported_with_distinct_exit_codes() {
        assert_eq!(run(&["nope"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(run(&["bfs"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["bfs", "/does/not/exist.bin"]).unwrap_err().code,
            exit_code::IO
        );
        assert_eq!(run(&["generate"]).unwrap_err().code, exit_code::USAGE);
        let typo = run(&["cluster", "g.bin", "--frobnicate"]).unwrap_err();
        assert_eq!(typo.code, exit_code::USAGE);
        assert!(typo.message.contains("--frobnicate"), "{}", typo.message);
        let help = run(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
        assert!(help.contains("cluster"));
    }

    #[test]
    fn cluster_runs_fault_free_and_validates() {
        let path = tmp("g5.bin");
        run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
        let out = run(&["cluster", &path, "--gcds", "4", "--validate"]).unwrap();
        assert!(out.contains("VALID"), "{out}");
        assert!(out.contains("GTEPS per GCD"), "{out}");
        assert!(out.contains("(no faults)"), "{out}");
    }

    #[test]
    fn cluster_crash_demo_recovers_and_exports() {
        let path = tmp("g6.bin");
        run(&["generate", "--out", &path, "--scale", "11"]).unwrap();
        let json = tmp("g6.json");
        let csv = tmp("g6.csv");
        let out = run(&[
            "cluster",
            &path,
            "--gcds",
            "4",
            "--source",
            "1",
            "--inject-faults",
            "crash@2:rank1",
            "--checkpoint-every",
            "1",
            "--recovery",
            "spare",
            "--validate",
            "--json",
            &json,
            "--csv",
            &csv,
        ])
        .unwrap();
        assert!(out.contains("recovery: rank 1 died at level 2"), "{out}");
        assert!(out.contains("VALID"), "{out}");
        let record = std::fs::read_to_string(&json).unwrap();
        assert!(record.contains("crash@2:rank1"), "{record}");
        let stats = std::fs::read_to_string(&csv).unwrap();
        assert!(stats.starts_with("level,attempt,"), "{stats}");
    }

    #[test]
    fn run_alias_and_trace_exports_every_format() {
        let path = tmp("g8.bin");
        run(&["generate", "--out", &path, "--scale", "10"]).unwrap();

        // `run` is an alias of `bfs`.
        let plain = run(&["run", &path, "--source", "0"]).unwrap();
        assert!(plain.contains("GTEPS"), "{plain}");

        // chrome trace to a file, then summarize it.
        let chrome = tmp("g8_trace.json");
        let out = run(&[
            "run",
            &path,
            "--source",
            "0",
            "--trace",
            &format!("chrome:{chrome}"),
        ])
        .unwrap();
        assert!(out.contains("chrome trace written"), "{out}");
        let body = std::fs::read_to_string(&chrome).unwrap();
        let doc = JsonValue::parse(&body).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let n_levels = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("level"))
            .count();
        // Every BFS level appears as a span: compare against the run report.
        let depth = plain
            .lines()
            .filter(|l| l.trim_start().starts_with('L'))
            .count();
        assert_eq!(n_levels, depth, "one level span per BFS level");
        let summary = run(&["trace", "summarize", &chrome]).unwrap();
        assert!(summary.contains("Trace Event Format"), "{summary}");
        assert!(summary.contains("level"), "{summary}");

        // json:- replaces the report with pure machine-readable JSON.
        let json = run(&["run", &path, "--source", "0", "--trace", "json:-"]).unwrap();
        let doc = JsonValue::parse(&json).expect("stdout must be pure JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("xbfs-trace-v1")
        );
        assert_eq!(
            doc.get("levels").and_then(JsonValue::as_arr).unwrap().len(),
            depth
        );
        // Summarize the v1 schema from a file, too.
        let v1 = tmp("g8_v1.json");
        std::fs::write(&v1, &json).unwrap();
        let summary = run(&["trace", "summarize", &v1]).unwrap();
        assert!(summary.contains("xbfs-trace-v1"), "{summary}");
        assert!(summary.contains("engine: xbfs"), "{summary}");

        // table and rocprof CSV render too.
        let table = run(&["run", &path, "--source", "0", "--trace", "table:-"]).unwrap();
        assert!(
            table.contains("level") && table.contains("total"),
            "{table}"
        );
        let csv = run(&["run", &path, "--source", "0", "--trace", "csv:-"]).unwrap();
        assert!(csv.starts_with("phase,kernel,runtime_ms"), "{csv}");

        // Bad specs are usage errors.
        assert_eq!(
            run(&["run", &path, "--trace", "bogus:x"]).unwrap_err().code,
            exit_code::USAGE
        );
        assert_eq!(
            run(&["run", &path, "--trace", "json"]).unwrap_err().code,
            exit_code::USAGE
        );
    }

    #[test]
    fn cluster_trace_covers_levels_and_recovery_with_warning() {
        let path = tmp("g9.bin");
        run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
        let out = run(&[
            "cluster",
            &path,
            "--gcds",
            "4",
            "--source",
            "1",
            "--inject-faults",
            "crash@1:rank1",
            "--trace",
            "json:-",
        ])
        .unwrap();
        // `json:-` output is the pure trace; the crash warning goes to stderr only.
        let doc = JsonValue::parse(&out).expect("stdout must be pure JSON");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("xbfs-trace-v1")
        );
        let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap();
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(n))
                .count()
        };
        assert!(named("level") > 0);
        assert!(named("collective") > 0);
        assert_eq!(named("recovery"), 1, "crash must produce a recovery span");
        assert!(
            named("checkpoint") > 0,
            "fault mode defaults to checkpointing"
        );
        let events = doc.get("events").and_then(JsonValue::as_arr).unwrap();
        let evt = |n: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(n))
        };
        assert!(evt("fault.crash") && evt("recovery.restore"), "{out}");

        // With a file path, the warning lands in the report.
        let trace_path = tmp("g9_trace.json");
        let report = run(&[
            "cluster",
            &path,
            "--gcds",
            "4",
            "--source",
            "1",
            "--inject-faults",
            "crash@1:rank1",
            "--trace",
            &format!("json:{trace_path}"),
        ])
        .unwrap();
        assert!(
            report.contains("warning: tracing a run with planned GCD crashes"),
            "{report}"
        );
        assert!(report.contains("json trace written"), "{report}");
        let summary = run(&["trace", "summarize", &trace_path]).unwrap();
        assert!(summary.contains("1 recoveries"), "{summary}");
    }

    #[test]
    fn trace_summarize_rejects_garbage() {
        assert_eq!(
            run(&["trace", "summarize", "/does/not/exist.json"])
                .unwrap_err()
                .code,
            exit_code::IO
        );
        let bad = tmp("bad_trace.json");
        std::fs::write(&bad, "not json").unwrap();
        assert_eq!(
            run(&["trace", "summarize", &bad]).unwrap_err().code,
            exit_code::INVALID_INPUT
        );
        std::fs::write(&bad, "{\"someting\":\"else\"}").unwrap();
        assert_eq!(
            run(&["trace", "summarize", &bad]).unwrap_err().code,
            exit_code::INVALID_INPUT
        );
        assert_eq!(run(&["trace"]).unwrap_err().code, exit_code::USAGE);
        assert_eq!(
            run(&["trace", "frobnicate"]).unwrap_err().code,
            exit_code::USAGE
        );
    }

    #[test]
    fn cluster_fault_errors_map_to_exit_codes() {
        let path = tmp("g7.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        // Malformed spec -> invalid input.
        let e = run(&["cluster", &path, "--inject-faults", "crash@x"]).unwrap_err();
        assert_eq!(e.code, exit_code::INVALID_INPUT);
        // More drops than the retry budget -> unrecovered fault.
        let e = run(&[
            "cluster",
            &path,
            "--gcds",
            "2",
            "--inject-faults",
            "drop@0:0-1x9",
        ])
        .unwrap_err();
        assert_eq!(e.code, exit_code::UNRECOVERED_FAULT, "{}", e.message);
        // Random plans parse and run (crash recovery on by default).
        let out = run(&[
            "cluster",
            &path,
            "--gcds",
            "2",
            "--inject-faults",
            "random:7",
            "--validate",
        ])
        .unwrap();
        assert!(out.contains("VALID"), "{out}");
    }

    #[test]
    fn bfs_deadline_maps_to_timeout_exit_code() {
        let path = tmp("deadline.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        // A sub-microsecond modeled budget cannot cover any level.
        let e = run(&["bfs", &path, "--deadline-ms", "0.000001"]).unwrap_err();
        assert_eq!(e.code, exit_code::TIMEOUT, "{}", e.message);
        assert!(e.message.contains("deadline"), "{}", e.message);
        // A generous budget changes nothing about a normal run.
        let out = run(&["bfs", &path, "--deadline-ms", "100000"]).unwrap();
        assert!(out.contains("GTEPS"), "{out}");
        // The combination with --verify still certifies.
        let out = run(&["bfs", &path, "--deadline-ms", "100000", "--verify"]).unwrap();
        assert!(out.contains("certified:"), "{out}");
    }

    #[test]
    fn exporters_never_abort_a_finished_run() {
        let path = tmp("softfail.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        // Unwritable side-file paths demote to warnings: the run's own
        // report still lands and the exit code stays 0.
        let out = run(&[
            "bfs",
            &path,
            "--csv",
            "/nonexistent-dir/k.csv",
            "--trace",
            "json:/nonexistent-dir/t.json",
        ])
        .unwrap();
        assert!(out.contains("GTEPS"), "{out}");
        assert!(out.contains("kernel counters NOT written"), "{out}");
        assert!(out.contains("trace NOT written"), "{out}");
    }

    #[test]
    fn serve_and_loadgen_round_trip() {
        let path = tmp("serve.bin");
        run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
        let json = tmp("loadgen.json");
        // Grab a free port, release it, and hand it to the server (the
        // dispatch API has no way to report an OS-assigned port back).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let mport = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let maddr = format!("127.0.0.1:{mport}");
        let srv = std::thread::spawn({
            let (path, addr, maddr) = (path.clone(), addr.clone(), maddr.clone());
            move || {
                run(&[
                    "serve",
                    &path,
                    "--addr",
                    &addr,
                    "--workers",
                    "2",
                    "--queue-cap",
                    "64",
                    "--metrics-addr",
                    &maddr,
                ])
            }
        });
        // Wait until the listener is up before generating load.
        for _ in 0..200 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // The metrics plane is up alongside the serve listener: one
        // Prometheus scrape and one rendered `top` frame.
        {
            use std::io::{Read as _, Write as _};
            let mut s = std::net::TcpStream::connect(&maddr).unwrap();
            write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut prom = String::new();
            s.read_to_string(&mut prom).unwrap();
            assert!(prom.contains("xbfs_serve_queue_depth"), "{prom}");
        }
        let top_out = run(&["top", &addr, "--frames", "1", "--interval-ms", "10"]).unwrap();
        assert!(top_out.contains("top: rendered 1 frame(s)"), "{top_out}");
        let out = run(&[
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "24",
            "--rps",
            "400",
            "--connections",
            "3",
            "--sources",
            "8",
            "--max-shed-pct",
            "0",
            "--shutdown",
            "--json",
            &json,
        ])
        .unwrap();
        assert!(out.contains("lost 0"), "{out}");
        assert!(out.contains("digests consistent per source: true"), "{out}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(
            doc.get("format").and_then(|f| f.as_str()),
            Some("xbfs-loadgen-v1")
        );
        assert_eq!(doc.get("ok").and_then(JsonValue::as_f64), Some(24.0));
        // --shutdown drained the server; its report must be clean.
        let srv_out = srv.join().unwrap().unwrap();
        assert!(srv_out.contains("drain: clean"), "{srv_out}");
    }
}
