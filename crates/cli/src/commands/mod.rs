//! The `xbfs` subcommands, factored as library functions so they are unit-
//! testable without spawning processes. This module holds what every
//! command shares (the error type, the command table, dispatch, the help
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
use xbfs_core::engine::validate_levels;
use xbfs_core::{
    BitflipPlan, Engine, EngineError, RunRequest, Sabotage, Strategy, Xbfs, XbfsConfig, XbfsError,
};
use xbfs_graph::builder::BuildOptions;
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::{level_profile, pick_sources, summarize};
use xbfs_graph::{io, rearrange_by_degree, Certificate, Csr, Dataset, RearrangeOrder};
use xbfs_multi_gcd::{
    ClusterConfig, FaultConfig, FaultPlan, GcdCluster, LinkModel, RecoveryPolicy,
};
use xbfs_telemetry::export::{level_rows, level_table};
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
    /// Two answers that must agree did not (sweep passes, compare).
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

/// The one exit-code map of an engine failure. Integrity failures keep
/// the stable "IntegrityError:" prefix CI greps for.
impl From<XbfsError> for CliError {
    fn from(e: XbfsError) -> Self {
        let code = match &e {
            XbfsError::DeadlineExceeded { .. } => exit_code::TIMEOUT,
            XbfsError::LinkFailed { .. } | XbfsError::Unrecoverable { .. } => {
                exit_code::UNRECOVERED_FAULT
            }
            XbfsError::Integrity(e) => {
                return Self::new(format!("IntegrityError: {e}"), exit_code::INTEGRITY)
            }
            _ => exit_code::INVALID_INPUT,
        };
        Self::new(e.to_string(), code)
    }
}

/// A failure seen through the [`Engine`] contract (the sweep), where only
/// the classification is left: either `Suspect` kind exits 7.
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Suspect { msg, .. } => {
                Self::new(format!("IntegrityError: {msg}"), exit_code::INTEGRITY)
            }
            EngineError::Deadline { .. } => Self::new(e.to_string(), exit_code::TIMEOUT),
            EngineError::Rejected { msg, .. } => Self::new(msg, exit_code::INVALID_INPUT),
        }
    }
}

/// One subcommand as `xbfs help` prints it. The synopsis is also the
/// command's option grammar: `[--x]` is a bare flag, any other `--x`
/// takes the value written after it, and an option the synopsis does not
/// name is a usage error. The about text is prose and is never parsed.
/// Both are laid out as printed, continuation lines indented 12.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    about: &'static str,
}

/// The options of every command that builds a device.
macro_rules! device_options {
    () => {
        "[--arch mi250x|mi100|p6000] [--compiler clang|hipcc|clang-O0] [--timing]"
    };
}

/// Every subcommand, in the order `xbfs help` lists them.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        synopsis: "--out FILE [--kind rmat|lj|up|or|db] [--scale N | --shift N] [--seed N]",
        about: "write a graph in the binary cache format",
    },
    Command {
        name: "convert",
        synopsis: "IN OUT",
        about: "convert between .txt (edge list), .mtx and .bin",
    },
    Command {
        name: "info",
        synopsis: "FILE",
        about: "print graph statistics and a level profile",
    },
    Command {
        name: "bfs",
        synopsis: concat!(
            "FILE [--source N] [--alpha F] [--forced scan-free|single-scan|bottom-up]
            [--rearrange] [--verify] [--inject-bitflips SPEC]
            [--deadline-ms MS] [--trace FMT:PATH]
            ",
            device_options!()
        ),
        about: "run one BFS and report per-level stats (`run` is an alias);
            --verify certifies the result (CSR + pool checksums, O(V+E)
            certificate) and --inject-bitflips flips seeded bits in device
            state: comma-separated status[:N], parents[:N], csr[:N],
            pool[:N], seed=N; --deadline-ms aborts with exit 8 when the
            modeled run time exceeds the budget",
    },
    Command {
        name: "cluster",
        synopsis: "FILE [--gcds N] [--source N] [--alpha F] [--push-only]
            [--inject-faults SPEC|random[:SEED]] [--checkpoint-every N]
            [--recovery spare|degrade] [--verify] [--trace FMT:PATH]",
        about: "distributed BFS across simulated GCDs, optionally under faults;
            SPEC is comma-separated: crash@LVL:rankR, drop@LVL:SRC-DSTxN,
            degrade@FROM-TO:FACTOR, seed=N; a planned fault checkpoints
            every level (--checkpoint-every N overrides; 0 = off)",
    },
    Command {
        name: "compare",
        synopsis: concat!("FILE [--source N]\n            ", device_options!()),
        about: "XBFS vs every baseline engine",
    },
    Command {
        name: "sweep",
        synopsis: concat!(
            "FILE [--sources N] [--threads T] [--seed N] [--alpha F] [--json FILE]
            [--verify] [--inject-bitflips SPEC] [--max-pool-bytes B]
            [--retries N] [--multi-source]
            ",
            device_options!()
        ),
        about: "batched multi-source sweep: one pooled engine per OS thread runs
            N sources back-to-back, then re-runs them with a fresh engine per
            source and checks that the two passes are bit-identical; reports
            runs/sec, aggregate modeled GTEPS and the speedup. --verify
            certifies every run and re-executes a failing one on a fresh
            engine (up to --retries, default 2), with a health section in the
            report and JSON; --inject-bitflips (implies --verify) corrupts
            device state per run; --max-pool-bytes caps parked pool memory.
            --multi-source adds a pass on one 64-wide bit-parallel engine,
            every slot checked against the rebuild reference",
    },
    Command {
        name: "serve",
        synopsis: concat!(
            "FILE [--addr HOST:PORT] [--workers N] [--queue-cap N]
            [--verify] [--allow-chaos] [--deadline-ms MS] [--cluster N]
            [--alpha F] [--metrics-addr HOST:PORT]
            [--flight-dir DIR] [--batch-width W] [--batch-window-ms MS]
            [--journal PATH] [--journal-fsync always|batch=N|off]
            [--idle-timeout-ms MS] [--json FILE] [--trace FMT:PATH]
            ",
            device_options!()
        ),
        about: "long-running BFS daemon serving `xbfs-serve-v1` (JSON lines over
            TCP) from one warm engine per worker. Overload is shed with
            `overloaded` + retry-after-ms, deadlines become typed timeouts, a
            panicking or corrupted engine is quarantined and its request
            replayed bit-identically (at most twice), and repeated failures
            trip a circuit breaker. A resent id gets the cached response
            (deduped:true). A wire `shutdown` drains: in-flight requests
            complete and the serve report is printed (and written with
            --json). --cluster N serves on a partitioned N-GCD engine whose
            chaos rank crashes are healed by checkpoint/restart (only a
            crash request checkpoints). --batch-width W (default 1, max
            64; not with --cluster) runs up to W queued requests as one
            64-wide wave, lingering up to --batch-window-ms (default 2) for
            company. --journal PATH arms a write-ahead journal: a restart on
            the same path replays unfinished requests (--journal-fsync,
            default batch=8). --allow-chaos honors client chaos tokens (test
            servers only). --metrics-addr serves /metrics (Prometheus) and
            /metrics.json; panics, quarantines and breaker trips dump the
            flight rings to --flight-dir (default under the temp dir), and
            --trace renders them at drain. Request lines over 64 KiB are
            refused, and connections idle for --idle-timeout-ms (default
            30000; 0 = never) are closed",
    },
    Command {
        name: "loadgen",
        synopsis: "--addr HOST:PORT [--requests N] [--rps F] [--connections N]
            [--sources N] [--seed N] [--deadline-ms MS] [--verify]
            [--chaos SPEC] [--retries N] [--shutdown] [--max-shed-pct F]
            [--progress-every-ms MS] [--json FILE]",
        about: "open-loop load generator for `xbfs serve`: paces N requests at a
            target RPS over pipelined connections and reports ok/shed and
            p50/p99/p999 latency from each request's scheduled send (no
            coordinated omission). --chaos stamps fault tokens on every Nth
            request: comma-separated panic[:N], bitflip[:N], slow[@MS][:N],
            crash[@LVL][:N], rank=R, seed=N; --retries N resends shed
            requests after the server's retry-after hint with jittered
            backoff; --shutdown drains the server afterwards; --max-shed-pct
            fails with exit 9 above the bound; --json writes xbfs-loadgen-v1;
            progress goes to stderr every --progress-every-ms (default 1000;
            0 silences it). A dropped connection is redialed and its
            outstanding requests resent, latency still counted from the
            original schedule",
    },
    Command {
        name: "top",
        synopsis: "HOST:PORT [--interval-ms MS] [--frames N]",
        about: "live dashboard over a running server's metrics plane: polls
            the wire `metrics` op at the serve address and renders
            queue / worker / breaker / pool / rank state with rates
            from successive snapshots; runs until the server drains,
            or for exactly N frames with --frames",
    },
    Command {
        name: "trace",
        synopsis: "summarize FILE",
        about: "summarize a recorded trace (xbfs-trace-v1 JSON or chrome trace.json)",
    },
    Command {
        name: "help",
        synopsis: "",
        about: "print this text",
    },
];

/// What `xbfs help` prints after the command table.
const HELP_TAIL: &str = "
TRACING
  --trace FMT:PATH renders a finished run (spans, per-level metrics) for
  bfs/run and cluster, or a server's flight rings at drain for serve. FMT
  is table, json, chrome (load the file in chrome://tracing or
  https://ui.perfetto.dev) or csv (rocprofiler-style kernel rows). PATH `-`
  writes the trace to stdout instead of the normal report, so
  `xbfs run g.bin --trace json:- > out.json` emits pure JSON.

EXIT CODES
  0 ok, 1 generic, 2 usage, 3 I/O, 4 invalid input, 5 unrecovered fault,
  6 disagreement (sweep passes, compare engines), 7 integrity violation
  (failed --verify certificate or uncorrected corruption), 8 deadline
  exceeded, 9 overloaded (loadgen shed more than --max-shed-pct)
";

/// The options `command`'s synopsis names (`run` is `bfs`, no command is
/// `help`), each with whether it is a bare flag; `None` for an unknown
/// command.
fn options(command: &str) -> Option<impl Iterator<Item = (&'static str, bool)>> {
    let name = match command {
        "run" => "bfs",
        "" => "help",
        other => other,
    };
    let entry = COMMANDS.iter().find(|c| c.name == name)?;
    Some(entry.synopsis.split_whitespace().filter_map(|word| {
        let option = word.trim_start_matches('[').strip_prefix("--")?;
        Some(match option.strip_suffix(']') {
            Some(flag) => (flag, true),
            None => (option, false),
        })
    }))
}

/// Whether `command` declares `--key` a bare flag (for [`Args::parse`]).
pub fn is_flag(command: &str, key: &str) -> bool {
    options(command).is_some_and(|mut o| o.any(|(name, flag)| flag && name == key))
}

fn reject_unknown_options(args: &Args) -> Result<(), CliError> {
    let Some(allowed) = options(&args.command).map(Vec::from_iter) else {
        return Ok(()); // unknown command: reported by dispatch itself
    };
    for key in args.options.keys() {
        if !allowed.iter().any(|(name, _)| name == key) {
            return Err(CliError::usage(format!(
                "unknown option --{key} for `{}` (see `xbfs help`)",
                args.command
            )));
        }
    }
    Ok(())
}

/// `xbfs help`: the command table, then what every command shares.
fn help() -> String {
    let mut out = "xbfs — XBFS-on-simulated-MI250X toolbox\n\n\
                   USAGE: xbfs <command> [options]\n\nCOMMANDS\n"
        .to_string();
    for c in COMMANDS {
        let head = format!("  {:<10}{}", c.name, c.synopsis);
        out += &format!("{}\n            {}\n", head.trim_end(), c.about);
    }
    out + HELP_TAIL
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
        "compare" => compare(args),
        "sweep" => sweep::sweep(args),
        "serve" => serve::serve(args),
        "loadgen" => serve::loadgen(args),
        "top" => serve::top_cmd(args),
        "trace" => trace::trace_cmd(args),
        "help" | "" => Ok(help()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n{}",
            help()
        ))),
    }
}

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
            p.frontier_sizes.len(),
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
            .map_err(|e| CliError::new(e.to_string(), exit_code::INVALID_INPUT)),
        None => Ok(None),
    }
}

/// Deliver a rendered trace to `--trace`'s target, if one was given. Path
/// `-` replaces the whole command output with the rendered trace (pure
/// JSON/CSV on stdout, pipeable); any other path is a side file whose
/// write never fails the command: the trace renders an already-finished
/// run, and a full disk or a bad path must not turn a successful run into
/// a nonzero exit.
fn emit_trace(
    out: &mut String,
    target: Option<(TraceFormat, String)>,
    trace: &Trace,
) -> Option<String> {
    let (fmt, path) = target?;
    let rendered = fmt.render(trace);
    if path == "-" {
        return Some(rendered);
    }
    let what = format!("{} trace", fmt.name());
    match std::fs::write(&path, rendered) {
        Ok(()) => out.push_str(&format!("{what} written to {path}\n")),
        Err(e) => {
            eprintln!("warning: cannot write {what} {path}: {e}; run results unaffected");
            out.push_str(&format!("{what} NOT written ({path}: {e})\n"));
        }
    }
    None
}

/// The `--verify` line every command prints for a certified result.
fn certified_line(cert: &Certificate) -> String {
    format!(
        "certified: {} vertices reached, depth {}, levels checksum {:#018x}\n",
        cert.visited, cert.depth, cert.levels_checksum
    )
}

fn bfs(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs bfs FILE")?;
    let mut g = load_graph(path)?;
    if args.flag("rearrange") {
        g = rearrange_by_degree(&g, RearrangeOrder::DegreeDescending);
    }
    // The certificate's parent-tree checks need recorded parents.
    let mut cfg = XbfsConfig {
        alpha: args.get("alpha", 0.1)?,
        record_parents: args.flag("verify"),
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
    let (run, cert, _) = xbfs.run_with(source, sab.as_ref(), deadline_ms, verify)?;
    let mut out = cert.as_ref().map_or(String::new(), certified_line);
    out.push_str(&format!(
        "source {source}: {} levels, {:.4} ms, {:.2} GTEPS\n",
        run.depth(),
        run.total_ms,
        run.gteps
    ));
    let trace = xbfs.trace_of(&run);
    out.push_str(&level_table(&level_rows(&trace)));
    Ok(emit_trace(&mut out, trace_opt, &trace).unwrap_or(out))
}

/// Parse `--inject-faults`: either an explicit spec, or `random[:SEED]`
/// for a generated plan.
fn parse_fault_plan(spec: &str, num_gcds: usize) -> Result<FaultPlan, CliError> {
    let bad =
        |why: String| CliError::new(format!("bad fault spec: {why}"), exit_code::INVALID_INPUT);
    if let Some(rest) = spec.strip_prefix("random") {
        let seed = match rest.strip_prefix(':') {
            Some(s) => (s.parse::<u64>()).map_err(|_| bad(format!("bad random seed {s:?}")))?,
            None if rest.is_empty() => 42,
            _ => return Err(bad(format!("bad fault spec {spec:?}"))),
        };
        // A mid-run horizon of ~8 levels places crashes where checkpoints
        // matter on typical scale-free diameters.
        Ok(FaultPlan::random(seed, num_gcds, 8))
    } else {
        FaultPlan::parse(spec).map_err(|e| bad(e.to_string()))
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
    let mut faults = FaultConfig::new(plan, recovery);
    faults.checkpoint_every = args.get("checkpoint-every", faults.checkpoint_every)?;

    let trace_opt = trace_target(args)?;
    let mut cluster = GcdCluster::new(&g, cfg, LinkModel::frontier())?;
    let run = cluster.run_with(source, &faults, None)?;
    let mut out = String::new();
    // Crash recovery that rewinds past the crash re-runs levels, and the
    // trace then holds one span per attempt. Say so once: on stderr when
    // stdout is the trace itself.
    let rerun: std::collections::BTreeSet<u32> = (run.level_stats.iter())
        .filter(|ls| ls.attempt > 0)
        .map(|ls| ls.level)
        .collect();
    match &trace_opt {
        Some((_, path)) if !rerun.is_empty() => {
            let levels: Vec<String> = rerun.iter().map(u32::to_string).collect();
            let warning = format!(
                "warning: crash recovery re-ran level(s) {}; the trace holds a level \
                 span per attempt (attempt > 0) alongside the recovery spans\n",
                levels.join(", ")
            );
            if path == "-" {
                eprint!("{warning}");
            } else {
                out = warning;
            }
        }
        _ => {}
    }
    out.push_str(&format!(
        "{} GCDs, source {source}, faults: {}\n",
        cfg.num_gcds, run.fault_plan
    ));
    let trace = cluster.trace_of(&run);
    out.push_str(&level_table(&level_rows(&trace)));
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
    if args.flag("verify") {
        // The cluster server's level certificate; the line is its tally.
        validate_levels(&g, source, &run.levels, true)?;
        out += &certified_line(&xbfs_graph::certificate(source, &run.levels));
    }
    Ok(emit_trace(&mut out, trace_opt, &trace).unwrap_or(out))
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
