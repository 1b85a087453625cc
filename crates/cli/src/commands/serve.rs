//! The serving commands: `serve` (the daemon), `loadgen` (its open-loop
//! client) and `top` (its live dashboard).

use super::{
    build_device, emit_trace, exit_code, load_graph, opt_f64, parse_device, trace_target, CliError,
};
use crate::args::Args;
use std::sync::Arc;
use xbfs_core::XbfsConfig;
use xbfs_server::{
    run_loadgen, ChaosPlan, DeviceFactory, FsyncPolicy, LoadgenConfig, ServeConfig, Server,
};
use xbfs_telemetry::Recorder;

/// `xbfs serve`: the resilient BFS daemon. Loads the graph once, keeps
/// one warm pooled engine per worker, and serves `xbfs-serve-v1` until a
/// wire `shutdown` drains it; the merged serve report is the output.
pub(super) fn serve(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional
        .first()
        .ok_or("usage: xbfs serve FILE [--addr HOST:PORT] (see `xbfs help`)")?;
    let g = Arc::new(load_graph(path)?);
    // Every default below is `ServeConfig::default()`'s, written once.
    let d = ServeConfig::default();
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
    let batch_width = args.get("batch-width", d.batch_width)?;
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
    let batch_window_ms = args.get("batch-window-ms", d.batch_window_ms)?;
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
        None => d.journal_fsync,
    };
    let scfg = ServeConfig {
        addr: args.get("addr", d.addr)?,
        workers: args.get("workers", d.workers)?,
        queue_cap: args.get("queue-cap", d.queue_cap)?,
        verify,
        allow_chaos: args.flag("allow-chaos"),
        default_deadline_ms: opt_f64(args, "deadline-ms")?,
        cluster,
        metrics_addr: args.options.get("metrics-addr").cloned(),
        flight_dir: args.options.get("flight-dir").cloned(),
        batch_width,
        batch_window_ms,
        journal,
        journal_fsync,
        idle_timeout_ms: args.get("idle-timeout-ms", d.idle_timeout_ms)?,
    };
    let (workers, queue_cap) = (scfg.workers, scfg.queue_cap);

    // Parse --arch/--compiler once up front; the factory clones the parsed
    // values so quarantine rebuilds can mint fresh devices long after
    // `args` is gone.
    let streams = xcfg.required_streams();
    let spec = parse_device(args)?;
    let factory: DeviceFactory = Arc::new(move || build_device(spec.clone(), streams));

    // `--trace` renders the flight rings at drain; nothing records live.
    let trace_opt = trace_target(args)?;
    let rec = Arc::new(match trace_opt {
        Some(_) => Recorder::new(),
        None => Recorder::disabled(),
    });
    let handle = Server::start(scfg, g, xcfg, factory, Arc::clone(&rec))
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
    // A side-file trace is written either way; the exit status is the
    // drain's, and only a clean drain hands stdout to a `-` trace.
    let direct = emit_trace(&mut out, trace_opt, &rec.finish());
    if !report.drain_clean {
        return Err(CliError::new(
            format!("serve: drain was not clean (work lost or dropped)\n{out}"),
            exit_code::GENERIC,
        ));
    }
    Ok(direct.unwrap_or(out))
}

/// `xbfs loadgen`'s progress line interval, ms: a person watches the
/// command, while `LoadgenConfig::default()` is silent (0) for library use.
pub(super) const PROGRESS_EVERY_MS: u64 = 1000;

/// The load `xbfs loadgen` offers: `LoadgenConfig::default()` with each
/// given option applied, and the CLI's own progress interval.
pub(super) fn loadgen_config(args: &Args) -> Result<LoadgenConfig, CliError> {
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
    let d = LoadgenConfig::default();
    Ok(LoadgenConfig {
        addr,
        requests: args.get("requests", d.requests)?,
        rps: args.get("rps", d.rps)?,
        connections: args.get("connections", d.connections)?,
        source_max: args.get("sources", d.source_max)?,
        seed: args.get("seed", d.seed)?,
        deadline_ms: opt_f64(args, "deadline-ms")?,
        verify: args.flag("verify").then_some(true),
        chaos,
        retries: args.get("retries", d.retries)?,
        shutdown_after: args.flag("shutdown"),
        progress_every_ms: args.get("progress-every-ms", PROGRESS_EVERY_MS)?,
    })
}

/// `xbfs loadgen`: open-loop load generator for `xbfs serve`.
pub(super) fn loadgen(args: &Args) -> Result<String, CliError> {
    let cfg = loadgen_config(args)?;
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
pub(super) fn top_cmd(args: &Args) -> Result<String, CliError> {
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
