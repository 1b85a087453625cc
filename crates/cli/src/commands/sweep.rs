//! `xbfs sweep`: N searches from random keys, each checked against a
//! reference — the Graph500 harness. One pass function drives the job
//! through whatever [`Engine`] it is handed; the command calls it three
//! times (pooled, per-source rebuild, `--multi-source`).

use super::{
    build_device, exit_code, load_graph, parse_bitflip_plan, parse_device, picked, CliError,
};
use crate::args::Args;
use gcd_sim::Device;
use std::rc::Rc;
use std::time::Instant;
use xbfs_core::{
    levels_digest, supervise, BitflipPlan, Engine, EngineError, Inject, MsBfs, RunRequest,
    Sabotage, Xbfs, XbfsConfig,
};
use xbfs_graph::reference::traversed_edges;
use xbfs_graph::Csr;
use xbfs_telemetry::json::{self, Val};

/// One engine generation, discarded as a unit: the engine and, beside
/// it, the device it runs on. The device is held here because pool
/// pressure is read *after* the engine drops — the drop parks its BFS
/// state, which is where a byte cap trims.
type Generation = (Rc<Device>, Box<dyn Engine>);

/// End a generation and return its device's pool pressure count. Engine
/// first: its drop parks the BFS state into the pool, and only then is
/// the count final.
fn retire((dev, engine): Generation) -> u64 {
    drop(engine);
    dev.pool_pressure_events()
}

/// A run a worker flagged past this many times its first certified run's
/// modeled time counts as a deadline exceedance in health (never a
/// failure).
const DEADLINE_FACTOR: f64 = 25.0;

/// What the passes of one sweep share.
struct SweepJob<'a> {
    g: &'a Csr,
    sources: &'a [u32],
    /// Certify every run; a run that fails is healed (see [`sweep_pass`]).
    verify: bool,
    retries: u32,
}

/// What one pass reports, all of it read off [`xbfs_core::RunOutcome`].
#[derive(Default)]
struct PassOut {
    wall_s: f64,
    /// Modeled ms of each engine run, in run order.
    ms: Vec<f64>,
    /// Attempts each run took: every one past the first was a detection,
    /// a quarantined and rebuilt generation and a re-execution, and a run
    /// that took more than one was corrected.
    attempts: Vec<u32>,
    edges: u64,
    /// Each source's `SlotAnswer::digest`: what pins a pass bit for bit.
    digests: Vec<u64>,
    /// Each source's backend-independent `levels_digest`.
    level_digests: Vec<u64>,
    /// Slots certified.
    certified: u64,
    deadline_exceeded: u64,
    pool_pressure_events: u64,
}

impl PassOut {
    fn checksum(&self) -> u64 {
        self.digests.iter().fold(0, |a, d| a ^ d)
    }

    fn model_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// One pass over the job's sources: `threads` workers, each taking a
/// contiguous share through engines it gets from `mint` — kept across the
/// share when `pooled`, fresh per run when not — in chunks of the
/// engine's `width()`. Under `verify` this is a self-healing supervisor:
/// each run goes through [`supervise`], so an [`EngineError::Suspect`] run
/// is quarantined with its engine *and device* and re-executed on a fresh
/// generation, up to `retries` times. Bit flips from `plan` hit only
/// attempt 0 — retries and the reference passes stay clean, which is what
/// keeps the sweep's bit-identity check meaningful under fault injection.
fn sweep_pass(
    job: &SweepJob<'_>,
    threads: usize,
    pooled: bool,
    plan: Option<&BitflipPlan>,
    mint: &(dyn Fn() -> Result<Generation, EngineError> + Sync),
) -> Result<PassOut, CliError> {
    // One worker's share of the pass.
    let share = |part: &[u32]| -> Result<PassOut, CliError> {
        let mut out = PassOut::default();
        let mut deadline_ms: Option<f64> = None;
        let mut idx = 0usize; // next source in `part`
        let mut generation: Option<Generation> = None;
        while idx < part.len() {
            let source = u64::from(part[idx]);
            let (verdict, attempts) = supervise(
                &mut generation,
                0..job.retries + 1,
                mint,
                |(_, engine), first| {
                    let sab = plan
                        .filter(|_| first)
                        .map(|plan| Sabotage { plan, salt: source });
                    engine.run(&RunRequest {
                        sources: &part[idx..part.len().min(idx + engine.width())],
                        deadline_ms: None,
                        verify: job.verify,
                        inject: sab.as_ref().map_or(Inject::None, Inject::Bitflips),
                    })
                },
                |generation, _| out.pool_pressure_events += retire(generation),
            );
            let run = verdict.map_err(|e| match e {
                EngineError::Suspect { msg, .. } => CliError::new(
                    format!(
                        "IntegrityError: source {source} failed certification after \
                         {attempts} attempt(s): {msg}"
                    ),
                    exit_code::INTEGRITY,
                ),
                other => other.into(),
            })?;
            let width = run.slots.len();
            if run.certified {
                out.certified += width as u64;
                // The first certified run calibrates the worker's
                // modeled-time deadline; exceedances are flagged in
                // health, not failures.
                let dl = *deadline_ms.get_or_insert(run.total_ms * DEADLINE_FACTOR);
                if run.total_ms > dl {
                    out.deadline_exceeded += 1;
                }
            }
            out.ms.push(run.total_ms);
            out.attempts.push(attempts);
            for (slot, levels) in run.slots.iter().zip(&run.levels) {
                out.edges += traversed_edges(job.g, levels);
                out.digests.push(slot.digest);
                out.level_digests.push(levels_digest(slot.source, levels));
            }
            idx += width;
            if !pooled || idx == part.len() {
                out.pool_pressure_events += generation.take().map_or(0, retire);
            }
        }
        Ok(out)
    };

    let started = Instant::now();
    let per_thread = job.sources.len().div_ceil(threads);
    let mut out = PassOut::default();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let share = &share;
        let handles: Vec<_> = (job.sources.chunks(per_thread))
            .map(|part| scope.spawn(move || share(part)))
            .collect();
        for h in handles {
            // A panicking worker thread must not take the whole sweep's
            // process down with an opaque abort: surface it typed.
            let part = h.join().map_err(|_| {
                CliError::new(
                    "sweep worker thread panicked; partial results discarded",
                    exit_code::GENERIC,
                )
            })??;
            out.ms.extend(part.ms);
            out.attempts.extend(part.attempts);
            out.edges += part.edges;
            out.digests.extend(part.digests);
            out.level_digests.extend(part.level_digests);
            out.certified += part.certified;
            out.deadline_exceeded += part.deadline_exceeded;
            out.pool_pressure_events += part.pool_pressure_events;
        }
        Ok(())
    })?;
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

pub(super) fn sweep(args: &Args) -> Result<String, CliError> {
    let path = args.positional.first().ok_or("usage: xbfs sweep FILE")?;
    let g = load_graph(path)?;
    let n = args.get::<usize>("sources", 64)?.max(1);
    let seed = args.get::<u64>("seed", 13)?;
    let default_threads = gcd_sim::cores().min(8);
    let threads = args.get::<usize>("threads", default_threads)?.clamp(1, n);
    let plan = parse_bitflip_plan(args)?;
    // Injection without verification would just trip the bit-identity
    // check with an unexplained exit 6 — in a sweep, injection implies
    // the supervisor.
    let verify = args.flag("verify") || plan.is_some();
    let retries = args.get::<u32>("retries", 2)?;
    let max_pool_bytes = (args.options.get("max-pool-bytes"))
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("bad --max-pool-bytes {v:?}"))
        })
        .transpose()?;
    // Every pass shares the config (the certificate's parent-tree checks
    // need recorded parents), so the bit-identity digests stay comparable.
    let cfg = XbfsConfig {
        alpha: args.get("alpha", 0.1)?,
        record_parents: verify,
        ..XbfsConfig::default()
    };
    let sources = picked(&g, n, seed)?;
    let n = sources.len(); // graphs smaller than --sources yield fewer
    let job = SweepJob {
        g: &g,
        sources: &sources,
        verify,
        retries,
    };
    let spec = parse_device(args)?;
    let device = |pool_limit: Option<u64>| {
        let dev = Rc::new(build_device(spec.clone(), cfg.required_streams()));
        dev.set_pool_limit(pool_limit);
        dev
    };
    let solo = |pool_limit: Option<u64>| -> Result<Generation, EngineError> {
        let dev = device(pool_limit);
        let engine = Xbfs::new(Rc::clone(&dev), &g, cfg)?;
        Ok((dev, Box::new(engine)))
    };

    // Pooled pass: one engine per OS thread. Each engine owns its device,
    // uploads the graph once, and recycles its BFS state across its whole
    // share of sources via the epoch-based O(frontier) reset.
    let pooled = sweep_pass(&job, threads, true, plan.as_ref(), &|| solo(max_pool_bytes))?;
    // The pooled pass runs the solo engine, so a corrected run is one
    // corrected source.
    let detected: u64 = pooled.attempts.iter().map(|&a| u64::from(a - 1)).sum();
    let corrected = pooled.attempts.iter().filter(|&&a| a > 1).count();

    // Rebuild pass: the unpooled in-process path — a fresh device, a fresh
    // graph upload, freshly allocated BFS state per source, certified like
    // the pooled pass so the ratio compares equal work. This is the
    // bit-identity reference; a shell loop over `xbfs bfs` additionally
    // pays process spawn + graph load per run (CI measures that baseline).
    let rebuilt = sweep_pass(&job, 1, false, None, &|| solo(None))?;

    let (ck_pooled, ck_rebuilt) = (pooled.checksum(), rebuilt.checksum());
    if ck_pooled != ck_rebuilt {
        return Err(CliError::new(
            format!(
                "pooled sweep diverged from per-run rebuild \
                 (checksum {ck_pooled:#018x} vs {ck_rebuilt:#018x})"
            ),
            exit_code::VALIDATION,
        ));
    }

    let (pooled_wall, rebuilt_wall) = (pooled.wall_s, rebuilt.wall_s);
    let agg_gteps = pooled.edges as f64 / (pooled.model_ms() * 1e-3).max(1e-12) / 1e9;
    let pooled_rps = n as f64 / pooled_wall.max(1e-9);
    let rebuilt_rps = n as f64 / rebuilt_wall.max(1e-9);
    let speedup = pooled_rps / rebuilt_rps.max(1e-9);

    // Multi-source pass (--multi-source): one persistent 64-wide
    // bit-parallel engine sweeps the whole source set in
    // <= MAX_CONCURRENT-wide batches. Every slot's levels digest must
    // match the per-run rebuild reference above bit-for-bit.
    let mut multi_txt = String::new();
    let mut multi_json = None;
    if args.flag("multi-source") {
        let multi = sweep_pass(&job, 1, true, None, &|| {
            let dev = device(None);
            let engine = MsBfs::with_config(Rc::clone(&dev), &g, cfg)?;
            Ok((dev, Box::new(engine)))
        })?;
        let (slot_digests, ref_levels) = (&multi.digests, &rebuilt.level_digests);
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
        let (ms_wall, batches, ms_ck) = (multi.wall_s, multi.ms.len(), multi.checksum());
        let ms_gteps = multi.edges as f64 / (multi.model_ms() * 1e-3).max(1e-12) / 1e9;
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
        "sweep: {n} sources on {threads} thread(s), |V| = {}, |E| = {}\n\
         pooled engine:      {pooled_rps:>9.1} runs/sec ({pooled_wall:.3} s wall, \
         {agg_gteps:.2} GTEPS aggregate modeled)\n\
         in-process rebuild: {rebuilt_rps:>9.1} runs/sec ({rebuilt_wall:.3} s wall; \
         fresh device + upload + alloc, no process spawn)\n\
         speedup vs in-process rebuild: {speedup:.2}x runs/sec; \
         results bit-identical (checksum {ck_pooled:#018x})\n{multi_txt}",
        g.num_vertices(),
        g.num_edges()
    );
    let (certified, late) = (pooled.certified, pooled.deadline_exceeded);
    let pressure = pooled.pool_pressure_events;
    if verify {
        out.push_str(&format!(
            "supervisor: {certified}/{n} certified, {detected} SDC detected, \
             {corrected} corrected\n            {late} deadline exceedance(s), \
             {pressure} pool pressure event(s)\n"
        ));
    } else if let Some(cap) = max_pool_bytes {
        out.push_str(&format!(
            "pool pressure: {pressure} event(s) under the {cap}-byte cap\n"
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
                h.key("certified").int(certified);
                // Each detection quarantined and re-ran one run; an
                // exhausted run fails the sweep (exit 7) before any report.
                h.key("sdc_detected").int(detected);
                h.key("corrected").int(corrected);
                h.key("deadline_exceeded").int(late);
                h.key("pool_pressure_events").int(pressure);
            });
            o.opt("multi_source", multi_json.as_deref(), Val::raw);
            o.key("checksum").str(format_args!("{ck_pooled:#018x}"));
        });
        std::fs::write(json_path, json + "\n")
            .map_err(|e| CliError::io(format!("cannot write {json_path}: {e}")))?;
        out.push_str(&format!("sweep record written to {json_path}\n"));
    }
    Ok(out)
}
