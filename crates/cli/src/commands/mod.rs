//! The `xbfs` subcommands, factored as library functions so they are unit-
//! testable without spawning processes. This module holds what every
//! command shares (the error type, the option table, dispatch, the help
//! text, device and trace plumbing) and the small commands; `sweep`, the
//! serving commands and `trace` each have a file.

mod serve;
mod sweep;
#[cfg(test)]
mod tests;
mod trace;

use crate::args::Args;
use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use std::path::Path;
use xbfs_core::{
    BitflipPlan, Engine, EngineError, MsBfs, RunRequest, Sabotage, Strategy, Xbfs, XbfsConfig,
    XbfsError,
};
use xbfs_graph::builder::BuildOptions;
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::{level_profile, pick_sources, summarize};
use xbfs_graph::{io, rearrange_by_degree, Csr, Dataset, RearrangeOrder};
use xbfs_multi_gcd::{
    ClusterConfig, ClusterError, FaultConfig, FaultEvent, FaultPlan, GcdCluster, LinkModel,
    RecoveryPolicy,
};
use xbfs_telemetry::{Trace, TraceFormat};

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
            // Keeps the level the budget ran out at in the message.
            XbfsError::DeadlineExceeded { .. } => Self::new(e.to_string(), exit_code::TIMEOUT),
            other => EngineError::from(other).into(),
        }
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            // Stable "IntegrityError:" prefix — CI greps for it.
            EngineError::Suspect { msg, .. } => {
                Self::new(format!("IntegrityError: {msg}"), exit_code::INTEGRITY)
            }
            EngineError::Deadline { .. } => Self::new(e.to_string(), exit_code::TIMEOUT),
            EngineError::Rejected { msg, .. } => Self::new(msg, exit_code::INVALID_INPUT),
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
             deadline-ms trace"
        }
        "serve" => {
            "addr workers queue-cap verify! allow-chaos! max-retries deadline-ms cluster \
             checkpoint-every alpha metrics-addr flight-dir batch-width batch-window-ms \
             journal journal-fsync idle-timeout-ms json trace"
        }
        "loadgen" => {
            "addr requests rps connections sources seed deadline-ms verify! chaos retries \
             shutdown! max-shed-pct progress-every-ms no-reconnect! json"
        }
        "top" => "interval-ms frames",
        "cluster" => {
            "gcds source alpha push-only! inject-faults checkpoint-every recovery validate! \
             json trace"
        }
        "msbfs" => "sources",
        "compare" => "source",
        "sweep" => {
            "sources threads seed alpha json verify! inject-bitflips max-pool-bytes \
             deadline-factor retries multi-source!"
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
        "sweep" => sweep::sweep(args),
        "serve" => serve::serve(args),
        "loadgen" => serve::loadgen(args),
        "top" => serve::top_cmd(args),
        "analyze" => analyze(args),
        "trace" => trace::trace_cmd(args),
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
            [--compiler clang|hipcc|clang-O0] [--timing] [--trace FMT:PATH]
            run one BFS and report per-level stats (`run` is an alias);
            --verify certifies the result (CSR + pool checksums, O(V+E)
            certificate) and --inject-bitflips flips seeded bits in device
            state: comma-separated status[:N], parents[:N], csr[:N],
            pool[:N], seed=N; --deadline-ms aborts with exit 8 when the
            modeled run time exceeds the budget
  cluster   FILE [--gcds N] [--source N] [--alpha F] [--push-only]
            [--inject-faults SPEC|random[:SEED]] [--checkpoint-every N]
            [--recovery spare|degrade] [--validate] [--json FILE] [--trace FMT:PATH]
            distributed BFS across simulated GCDs, optionally under faults;
            SPEC is comma-separated: crash@LVL:rankR, drop@LVL:SRC-DSTxN,
            degrade@FROM-TO:FACTOR, seed=N
  msbfs     FILE [--sources N]      concurrent multi-source BFS (iBFS-style)
  compare   FILE [--source N]       XBFS vs every baseline engine
  sweep     FILE [--sources N] [--threads T] [--seed N] [--alpha F] [--json FILE]
            [--verify] [--inject-bitflips SPEC] [--max-pool-bytes B]
            [--deadline-factor F] [--retries N] [--multi-source]
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
            [--verify] [--allow-chaos] [--max-retries N]
            [--deadline-ms MS] [--cluster N] [--checkpoint-every N]
            [--alpha F] [--metrics-addr HOST:PORT] [--flight-dir DIR]
            [--batch-width W] [--batch-window-ms MS] [--journal PATH]
            [--journal-fsync always|batch=N|off] [--idle-timeout-ms MS]
            [--json FILE] [--trace FMT:PATH]
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
            keeps the last 64 events; on a worker panic, engine
            quarantine or breaker trip the rings are dumped to
            --flight-dir (default under the system temp dir) and the
            dump paths land in the serve report; --trace renders the
            rings at drain, one instant per event.
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
  --trace FMT:PATH renders a finished run (spans, per-level metrics) for
  bfs/run and cluster, or a server's flight rings at drain for serve. FMT
  is table, json, chrome (load the file in chrome://tracing or
  https://ui.perfetto.dev) or csv (rocprofiler-style kernel rows). PATH `-`
  writes the trace to stdout instead of the normal report, so
  `xbfs run g.bin --trace json:- > out.json` emits pure JSON.

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

/// `count` seeded sources with an edge to leave by (fewer on a small
/// graph), or a typed refusal when the graph has none. Called only where
/// a source must be picked: an explicit `--source` needs none.
fn picked(g: &Csr, count: usize, seed: u64) -> Result<Vec<u32>, CliError> {
    let sources = pick_sources(g, count, seed);
    let none = || CliError::new("graph has no edges", exit_code::INVALID_INPUT);
    (!sources.is_empty()).then_some(sources).ok_or_else(none)
}

/// `--source`, or a picked one when it is not given.
fn source_arg(args: &Args, g: &Csr) -> Result<u32, CliError> {
    match args.options.contains_key("source") {
        true => Ok(args.get("source", 0)?),
        false => Ok(picked(g, 1, 1)?[0]),
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
            if !(1..=31).contains(&scale) {
                let msg = format!("--scale {scale} is outside 1..=31");
                return Err(CliError::usage(msg));
            }
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

/// Write an exporter's side file (`what` names it) and append a note to
/// `out`. Never fails: the file is a rendering of an already-finished run,
/// and a full disk or a bad path must not turn a successful run into a
/// nonzero exit.
fn write_export(out: &mut String, what: &str, path: &str, rendered: &str) {
    match std::fs::write(path, rendered) {
        Ok(()) => out.push_str(&format!("{what} written to {path}\n")),
        Err(e) => {
            eprintln!("warning: cannot write {what} {path}: {e}; run results unaffected");
            out.push_str(&format!("{what} NOT written ({path}: {e})\n"));
        }
    }
}

/// Deliver a rendered trace. Path `-` replaces the whole command output
/// with the rendered trace (pure JSON/CSV on stdout, pipeable); any other
/// path is a side file ([`write_export`]).
fn emit_trace(out: &mut String, fmt: TraceFormat, path: &str, trace: &Trace) -> Option<String> {
    let sink = fmt.sink();
    let rendered = sink.export(trace);
    if path == "-" {
        return Some(rendered);
    }
    write_export(out, &format!("{} trace", sink.name()), path, &rendered);
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
    let source = source_arg(args, &g)?;
    let mut tuned_note = String::new();
    if args.flag("auto-alpha") {
        let samples = picked(&g, 3, 9)?;
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
        if run.parents.is_none() {
            return Err(CliError::new(
                "internal: --validate needs recorded parents but the run kept none",
                exit_code::GENERIC,
            ));
        }
        match xbfs_core::certify_run(g.offsets(), g.adjacency(), &run) {
            Ok(_) => out.push_str("BFS tree: VALID (Graph500-style checks passed)\n"),
            Err(e) => {
                return Err(CliError::new(
                    format!("BFS tree INVALID: {e}"),
                    exit_code::VALIDATION,
                ))
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
    let source = source_arg(args, &g)?;
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
        match xbfs_graph::certify_levels(g.offsets(), g.adjacency(), &[source], &[&run.levels]) {
            Ok(_) => out.push_str("BFS levels: VALID (Graph500-style checks passed)\n"),
            Err(e) => {
                return Err(CliError::new(
                    format!("BFS levels INVALID: {e}"),
                    exit_code::VALIDATION,
                ))
            }
        }
    }
    if let Some(json_path) = args.options.get("json") {
        write_export(&mut out, "run record", json_path, &run.to_json());
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
    let sources = picked(&g, k, 7)?;
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

/// XBFS, then every baseline, each on a fresh device of the requested
/// profile; every baseline must find XBFS's levels.
fn compare(args: &Args) -> Result<String, CliError> {
    use xbfs_baselines::{Algo, Baseline};
    let path = args.positional.first().ok_or("usage: xbfs compare FILE")?;
    let g = load_graph(path)?;
    let source = source_arg(args, &g)?;
    let spec = parse_device(args)?;
    let xbfs = Xbfs::new(build_device(spec.clone(), 1), &g, XbfsConfig::default())?;
    let baselines = Algo::ALL.into_iter().map(|algo| {
        let engine = Baseline::new(algo, build_device(spec.clone(), 1), &g);
        (algo.name(), Box::new(engine) as Box<dyn Engine + '_>)
    });
    let engines = std::iter::once(("xbfs (adaptive)", Box::new(xbfs) as Box<dyn Engine + '_>));
    let mut out = format!("{:<20} {:>10} {:>8}\n", "engine", "ms", "GTEPS");
    let mut xbfs_levels = None;
    for (name, mut engine) in engines.chain(baselines) {
        let run = engine.run(&RunRequest::plain(&[source]))?;
        let levels = xbfs_levels.get_or_insert_with(|| run.levels[0].clone());
        if run.levels[0] != *levels {
            return Err(CliError::new(
                format!("engine {name} disagrees with XBFS levels!"),
                exit_code::VALIDATION,
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>10.4} {:>8.2}\n",
            name, run.total_ms, run.slots[0].gteps
        ));
    }
    Ok(out)
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs analyze FILE")?;
    let g = load_graph(path)?;
    let labels = xbfs_apps::connected_components(&g);
    let n_comp = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let (_, giant) = xbfs_apps::largest_component(&labels);
    let src = picked(&g, 1, 1)?[0];
    let diameter = xbfs_apps::estimate_diameter(&g, src);
    Ok(format!(
        "components: {n_comp} (largest {giant} of {} vertices, {:.1}%)\n\
         diameter (double-sweep lower bound): {diameter}\n",
        g.num_vertices(),
        100.0 * giant as f64 / g.num_vertices().max(1) as f64
    ))
}
