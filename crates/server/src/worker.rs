//! Panic-isolated worker execution: one serving path over any engine.
//!
//! Each worker thread owns one warm engine behind the [`Engine`] contract
//! — a pooled single-device [`Xbfs`], the 64-wide bit-parallel [`MsBfs`]
//! of a `--batch-width` server, or, for `--cluster N`, a partitioned
//! [`GcdCluster`] spanning N modeled GCDs — and pops batches as wide as
//! that engine off the admission queue until it drains. A width-1 engine
//! simply pops 1-member batches. Every batch takes the same path:
//!
//! ```text
//! triage each member ─► dedup sources into slots ─► catch_unwind(engine.run)
//!   (queue-blown deadline,                               │
//!    chaos parse / ignore,        ┌──────────────────────┴───────────────┐
//!    source range: answered       Ok        Deadline       Suspect/panic  Rejected
//!    individually)                │            │                │           │
//!                           render every   >1: split into   quarantine,   error
//!                             member       solo re-runs;    replay solo,
//!                                          1: timeout       give up after
//!                                                           max_retries
//!                                 └────────────┴───────┬────────┴───────────┘
//!                                               finish_member
//! ```
//!
//! A panicking engine, a run failing verification, or a cluster rank
//! crash that checkpoint/restart could not recover is **quarantined**:
//! the engine (and, for the device engines, its device) is discarded, a
//! fresh one is built, and the members are replayed solo with injection
//! stripped — by [`supervise`], the one retry loop `xbfs sweep` uses too.
//! Because a fresh engine reproduces the exact result of a single-shot
//! run, a replayed response carries the same digest as a fault-free
//! execution — the e2e tests assert this through the socket.
//! A blown *batch* deadline is not a fault: the batch ran under its
//! tightest member's budget, so the members are split and re-run solo,
//! each under its own budget — nobody times out because of coalescing.
//!
//! Deadline accounting: the request's wall budget is charged for queue
//! wait first; whatever remains is granted to the run as a modeled-time
//! budget (see DESIGN.md §15 for why the two clocks are fungible).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gcd_sim::Device;
use xbfs_core::{
    supervise, BitflipPlan, Engine, EngineError, Inject, MsBfs, RunRequest, Sabotage, Xbfs,
    XbfsError,
};
use xbfs_graph::Csr;
use xbfs_multi_gcd::{ClusterConfig, GcdCluster, LinkModel};

use crate::chaos::ChaosAction;
use crate::metrics::{status_idx, WORKER_IDLE, WORKER_QUARANTINED, WORKER_RUNNING};
use crate::protocol::{self, BfsRequest};
use crate::server::Shared;

/// One admitted request in flight: the parsed request, when it was
/// admitted, and the channel that delivers its completion back to the
/// connection that owns it.
pub(crate) struct Job {
    pub(crate) req: BfsRequest,
    pub(crate) enqueued: Instant,
    pub(crate) resp: mpsc::Sender<Completion>,
}

/// A finished request on its way to its connection's writer, carrying
/// the two instants the writer needs to stop the latency clocks once the
/// line is on the socket.
pub(crate) struct Completion {
    pub(crate) line: String,
    /// [`status_idx`] of the terminal status.
    pub(crate) status: usize,
    pub(crate) enqueued: Instant,
    pub(crate) finished: Instant,
}

/// What a worker needs from its engine beyond the [`Engine`] contract:
/// per-backend side reporting into the server's metrics. Called after
/// every attempt and before any quarantine discards the engine, so a
/// quarantined generation loses no history.
trait Backend: Engine {
    fn report(&mut self, shared: &Shared, worker: usize);
}

impl Backend for Xbfs<Device> {
    fn report(&mut self, shared: &Shared, worker: usize) {
        shared
            .metrics
            .sample_pool(worker, self.device().pool_gauges());
    }
}

impl Backend for MsBfs<Device> {
    fn report(&mut self, shared: &Shared, worker: usize) {
        shared
            .metrics
            .sample_pool(worker, self.device().pool_gauges());
    }
}

impl Backend for GcdCluster<'_> {
    /// Per-rank health (crashes, restores, retransmitted bytes) and how
    /// the served modeled time split between expanding frontiers and
    /// exchanging them across links. The cluster has no device pool.
    fn report(&mut self, shared: &Shared, _worker: usize) {
        shared.metrics.merge_rank_health(&self.take_health());
        let (expand_us, exchange_us) = self.take_phase_us();
        shared.metrics.cluster_expand_us.add(expand_us as u64);
        shared.metrics.cluster_exchange_us.add(exchange_us as u64);
    }
}

/// An engine generation, discarded and rebuilt as a unit on quarantine.
/// The cluster engine borrows the server's graph.
type Generation<'g> = Box<dyn Backend + 'g>;

/// Build a generation. The cluster partitions the graph **once** here;
/// per-request runs reuse the partitioning and only re-upload status
/// arrays.
fn build<'g>(shared: &Shared, graph: &'g Csr) -> Result<Generation<'g>, String> {
    Ok(match shared.cfg.cluster {
        Some(n) => {
            let cfg = ClusterConfig {
                num_gcds: n,
                ..ClusterConfig::node_of_8()
            };
            let mut cluster =
                GcdCluster::new(graph, cfg, LinkModel::frontier()).map_err(|e| e.to_string())?;
            cluster.set_checkpoint_every(shared.cfg.checkpoint_every);
            Box::new(cluster)
        }
        None if shared.cfg.batch_width > 1 => Box::new(
            MsBfs::with_config((shared.factory)(), graph, shared.xcfg)
                .map_err(|e| e.to_string())?,
        ),
        None => {
            Box::new(Xbfs::new((shared.factory)(), graph, shared.xcfg).map_err(|e| e.to_string())?)
        }
    })
}

/// Hand a response line to the owning connection's writer, which blocks
/// on this channel — the send is the wake-up, and it never blocks the
/// worker. A connection whose writer is gone (write error, dead client)
/// makes this an answered-but-lost request: the one "dropped" case the
/// smoke test asserts never happens under clean shutdown.
fn deliver(shared: &Shared, job: &Job, status: &str, line: String) {
    let done = Completion {
        line,
        status: status_idx(status),
        enqueued: job.enqueued,
        finished: Instant::now(),
    };
    if job.resp.send(done).is_err() {
        shared.metrics.undelivered.add(1);
    }
}

/// The worker thread body: pop engine-wide batches until the queue
/// drains, serve each with quarantine-and-replay, then park the final
/// engine generation.
pub(crate) fn worker_loop(shared: Arc<Shared>, worker: usize) {
    // The cluster engine borrows the graph; holding our own Arc clone
    // (declared before `engine`, so dropped after it) pins it.
    let graph = Arc::clone(&shared.graph);
    let mut engine: Option<Generation<'_>> = None;
    let linger = Duration::from_secs_f64(shared.cfg.batch_window_ms.max(0.0) / 1000.0);
    loop {
        // A batch is as wide as the engine takes (and the operator
        // allows), so build before popping. A failed build pops singly
        // and `run_members` answers each request with the build error.
        if engine.is_none() {
            engine = build(&shared, &graph).ok();
        }
        let width = (engine.as_ref()).map_or(1, |e| e.width().min(shared.cfg.batch_width.max(1)));
        let Some(batch) = shared.queue.pop_batch(width, linger) else {
            break;
        };
        serve_batch(&shared, &graph, &mut engine, batch, width, worker);
    }
    // Normal teardown: the engine is healthy, let Drop park its buffers.
    drop(engine);
}

/// One triaged batch member: an admitted job plus everything an attempt
/// needs to demultiplex it again.
struct Member {
    ticket: u64,
    job: Job,
    /// Queue wait, charged against the budget first.
    wait_ms: f64,
    /// What is left of the wall budget, granted to the run as modeled
    /// time.
    run_budget_ms: Option<f64>,
    verify: bool,
    /// The chaos this request carries and the server honours.
    act: ChaosAction,
    /// Index into the attempt's deduplicated source list.
    slot: usize,
}

impl Member {
    /// Whether the chaos is an engine-level injection, which applies to a
    /// whole run and therefore never rides a shared traversal.
    fn injects(&self) -> bool {
        matches!(self.act, ChaosAction::Bitflip | ChaosAction::Crash { .. })
    }
}

/// Shed, reject, or admit one popped job. Members are always triaged
/// (and answered) individually — a blown budget, a bad source or a
/// malformed chaos token never takes its batch down with it.
fn triage(shared: &Shared, ticket: u64, job: Job, worker: usize) -> Option<Member> {
    let id = job.req.id;
    let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    shared.metrics.queue_wait_ms.record(wait_ms);
    shared.metrics.flight.note(
        worker,
        "request.start",
        format!("id={id} source={} wait_ms={wait_ms:.1}", job.req.source),
    );
    let mut mb = Member {
        ticket,
        job,
        wait_ms,
        run_budget_ms: None,
        verify: false,
        act: ChaosAction::None,
        slot: 0,
    };
    let reject = |mb: &Member, status: &'static str, line: String| {
        finish_member(shared, worker, mb, status, line, 0);
        None
    };

    // Wall budget: queue wait spends it first.
    if let Some(d) = mb.job.req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        if wait_ms >= d {
            let line = protocol::timeout_line(id, "queue", wait_ms, d);
            return reject(&mb, "timeout", line);
        }
        mb.run_budget_ms = Some(d - wait_ms);
    }
    // Validate the source up front: an engine rejects a whole run for one
    // bad source, and that member's error is not its neighbours'.
    let n = shared.graph.num_vertices();
    if mb.job.req.source as usize >= n {
        let msg = XbfsError::SourceOutOfRange {
            source: mb.job.req.source,
            num_vertices: n,
        }
        .to_string();
        return reject(&mb, "error", protocol::error_line(id, "invalid", &msg));
    }
    // Chaos is honored only when the server opted in; a production
    // server counts and ignores stamped chaos instead of executing it.
    match &mb.job.req.chaos {
        Some(tok) if shared.cfg.allow_chaos => match ChaosAction::from_token(tok) {
            Ok(act) => mb.act = act,
            Err(e) => return reject(&mb, "error", protocol::error_line(id, "usage", &e)),
        },
        Some(_) => shared.metrics.chaos_ignored.add(1),
        None => {}
    }
    // Undetected bit flips would silently corrupt the response; chaos
    // flips therefore imply verification so they are caught + replayed.
    mb.verify = mb.job.req.verify.unwrap_or(shared.cfg.verify) || mb.act == ChaosAction::Bitflip;
    Some(mb)
}

/// The one request epilogue: terminal counters, status and headroom
/// series, the idempotency cache, the journal completion record — and
/// only then delivery.
fn finish_member(
    shared: &Shared,
    worker: usize,
    mb: &Member,
    status: &'static str,
    line: String,
    attempts: u32,
) {
    let req = &mb.job.req;
    let m = &shared.metrics;
    let total_ms = mb.job.enqueued.elapsed().as_secs_f64() * 1000.0;
    m.finish_request(worker, status);
    if status == "ok" && attempts > 1 {
        m.retried_ok.add(1);
    }
    if let Some(d) = req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        m.deadline_headroom_ms.record((d - total_ms).max(0.0));
    }
    m.flight.note(
        worker,
        "request.finish",
        format!(
            "id={} status={status} attempts={attempts} total_ms={total_ms:.1}",
            req.id
        ),
    );
    // Completed requests become idempotent: a replay of this id is
    // answered from cache instead of re-executing. Chaos-carrying
    // requests are never cached (soaks must exercise the real path).
    let cacheable = status == "ok" && req.chaos.is_none();
    if cacheable {
        shared.dedup.record(req.id, req.source, &line);
    }
    // The completion record lands before delivery: a crash after this
    // point replays the id from the warm cache, not by re-execution —
    // and a terminal rejection is never re-enqueued by a restart.
    shared.journal_done(req.id, req.source, status, &line, cacheable);
    deliver(shared, &mb.job, status, line);
}

/// Serve one popped batch: triage members individually, then run the
/// survivors. Members carrying an engine-level injection run alone; the
/// rest share one traversal.
fn serve_batch<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Generation<'g>>,
    batch: Vec<(u64, Job)>,
    width: usize,
    worker: usize,
) {
    let m = &shared.metrics;
    // The batching stage's accounting exists only on a batching server.
    if width > 1 {
        let size = batch.len() as u64;
        m.batches_total.add(1);
        m.batched_requests.add(size);
        m.max_batch_size.raise_to(size as f64);
        m.batch_size.record(size as f64);
        m.batch_occupancy_pct
            .set(size as f64 * 100.0 / width as f64);
        if let Some((_, youngest)) = batch.last() {
            // ~0 when the youngest arrival filled the batch; up to the
            // linger window (plus queue wait) for a lone request that
            // outwaited the clock.
            m.linger_wait_ms
                .record(youngest.enqueued.elapsed().as_secs_f64() * 1000.0);
        }
        let ticket0 = batch.first().map_or(0, |&(t, _)| t);
        m.flight.note(
            worker,
            "batch.start",
            format!("size={size} ticket0={ticket0}"),
        );
    }
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING);
    }
    let (injected, shared_run): (Vec<Member>, Vec<Member>) = batch
        .into_iter()
        .filter_map(|(t, j)| triage(shared, t, j, worker))
        .partition(Member::injects);
    if !shared_run.is_empty() {
        run_members(shared, graph, engine, shared_run, worker, 0);
    }
    for mb in injected {
        run_members(shared, graph, engine, vec![mb], worker, 0);
    }
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_IDLE);
    }
}

/// Run `members` as one engine attempt through [`supervise`] and classify
/// the result; replay solo whatever the classification says to replay.
/// `prior_attempts` pre-charges attempts already spent on these members (a
/// failed batch attempt counts as one), so replayed members report honest
/// attempt counts and burn their retry budget accordingly.
fn run_members<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Generation<'g>>,
    mut members: Vec<Member>,
    worker: usize,
    prior_attempts: u32,
) {
    let ticket = members[0].ticket;
    // Duplicate sources share one slot: answered once, demuxed many.
    let mut sources: Vec<u32> = Vec::new();
    for mb in &mut members {
        let source = mb.job.req.source;
        mb.slot = sources
            .iter()
            .position(|&s| s == source)
            .unwrap_or_else(|| {
                sources.push(source);
                sources.len() - 1
            });
    }
    // The run gets the *tightest* member's remaining budget; a blown
    // batch is split below, so a generous member is never timed out by a
    // stingy neighbour.
    let deadline_ms = members
        .iter()
        .filter_map(|mb| mb.run_budget_ms)
        .reduce(f64::min);
    let verify = members.iter().any(|mb| mb.verify);
    let flip_plan = BitflipPlan {
        status: 1,
        ..BitflipPlan::none()
    };
    let sabotage = Sabotage {
        plan: &flip_plan,
        salt: ticket,
    };
    let every = |status: &'static str, attempts: u32, line: &dyn Fn(&Member) -> String| {
        for mb in &members {
            finish_member(shared, worker, mb, status, line(mb), attempts);
        }
    };

    // A batch gets one shared attempt. A lone member gets the retry
    // budget, and a pre-charged attempt never eats all of it: a replayed
    // member always gets at least one solo attempt.
    let end = match members.len() {
        1 => (shared.cfg.max_retries + 1).max(prior_attempts + 1),
        _ => prior_attempts + 1,
    };
    let (verdict, attempts) = supervise(
        engine,
        prior_attempts..end,
        || {
            build(shared, graph).map_err(|msg| {
                shared.breaker.record_failure();
                EngineError::Rejected {
                    kind: "engine",
                    msg,
                }
            })
        },
        |eng, first| {
            // Injection targets attempt 0 only, so a replay after
            // quarantine runs clean and reproduces the fault-free result
            // bit for bit.
            let chaos = |mb: &Member| first.then_some(mb.act);
            if let Some(ms) = members
                .iter()
                .filter_map(|mb| match chaos(mb) {
                    Some(ChaosAction::Slow(ms)) => Some(ms),
                    _ => None,
                })
                .max()
            {
                std::thread::sleep(Duration::from_millis(ms));
            }
            let panic_injected = members
                .iter()
                .any(|mb| chaos(mb) == Some(ChaosAction::Panic));
            let inject = match members.as_slice() {
                [mb] => match chaos(mb) {
                    Some(ChaosAction::Bitflip) => Inject::Bitflips(&sabotage),
                    Some(ChaosAction::Crash { level, rank }) => Inject::RankCrash { level, rank },
                    _ => Inject::None,
                },
                _ => Inject::None,
            };
            let req = RunRequest {
                sources: &sources,
                deadline_ms,
                verify,
                inject,
            };
            // Batch-width servers stamp how many shared the run on every
            // `ok`, coalesced or solo.
            let batch = (eng.width() > 1).then_some(members.len());
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if panic_injected {
                    panic!("chaos: injected worker panic (ticket {ticket})");
                }
                eng.run(&req)
            }));
            shared
                .metrics
                .engine_ms
                .record(started.elapsed().as_secs_f64() * 1000.0);
            eng.report(shared, worker);
            // A contained panic is one more reason to distrust the engine.
            let result = result.unwrap_or_else(|payload| {
                Err(EngineError::Suspect {
                    kind: "panic",
                    msg: record_panic(shared, worker, ticket, payload.as_ref()),
                })
            });
            result.map(|out| (out, batch))
        },
        |eng, why| quarantine(shared, eng, why, ticket, worker),
    );

    match verdict {
        Ok((out, batch)) => {
            shared.breaker.record_success();
            if out.certified {
                shared.metrics.certify_ms.record(out.certify_wall_ms);
            }
            return every("ok", attempts, &|mb| {
                protocol::slot_ok_line(
                    mb.job.req.id,
                    &out.slots[mb.slot],
                    out.total_ms,
                    out.certified && mb.verify,
                    mb.wait_ms,
                    attempts,
                    batch,
                    out.recoveries,
                )
            });
        }
        // Typed mid-run timeout: the engine is healthy, and a timeout is
        // never a breaker penalty.
        Err(EngineError::Deadline {
            elapsed_us,
            deadline_us,
        }) if members.len() == 1 => {
            return every("timeout", attempts, &|mb| {
                protocol::timeout_line(
                    mb.job.req.id,
                    "run",
                    mb.wait_ms + elapsed_us as f64 / 1000.0,
                    mb.wait_ms + deadline_us as f64 / 1000.0,
                )
            });
        }
        Err(EngineError::Deadline { .. }) => {
            let why = format!("size={} why=deadline", members.len());
            shared.metrics.flight.note(worker, "batch.split", why);
        }
        // Client-input errors and a failed build (whose breaker penalty
        // the mint above paid): typed, no retry.
        Err(EngineError::Rejected { kind, msg }) => {
            return every("error", attempts, &|mb| {
                protocol::error_line(mb.job.req.id, kind, &msg)
            });
        }
        // The retry budget is spent: feed the breaker, answer typed.
        Err(EngineError::Suspect { kind, msg }) if members.len() == 1 => {
            let id = members[0].job.req.id;
            if shared.breaker.record_failure() {
                let why = format!("id={id} kind={kind} after {attempts} attempts");
                shared.metrics.flight.note(worker, "breaker.trip", why);
                shared.metrics.dump_flight("breaker-open");
            }
            let msg = format!("uncorrected after {attempts} attempts: {msg}");
            return every("error", attempts, &|mb| {
                protocol::error_line(mb.job.req.id, kind, &msg)
            });
        }
        Err(EngineError::Suspect { .. }) => {}
    }
    // The shared attempt is spent: every member runs again alone, with
    // that attempt pre-charged.
    for mb in members {
        run_members(shared, graph, engine, vec![mb], worker, attempts);
    }
}

/// Count + record a contained panic, returning its message. Dumps the
/// flight recorder: a panic is exactly the moment the recent per-worker
/// event rings earn their keep.
fn record_panic(
    shared: &Shared,
    worker: usize,
    ticket: u64,
    payload: &(dyn std::any::Any + Send),
) -> String {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    };
    if let Some(w) = shared.metrics.workers.get(worker) {
        w.panics.add(1);
    }
    shared
        .metrics
        .flight
        .note(worker, "panic", format!("ticket={ticket} {msg}"));
    shared.metrics.dump_flight("worker-panic");
    msg
}

/// Discard a suspect generation. Its drop is contained: after a panic
/// mid-run the pool bookkeeping may be arbitrarily wrong, and `Drop` parks
/// buffers back into it.
fn quarantine(shared: &Shared, engine: Generation<'_>, why: &str, ticket: u64, worker: usize) {
    let m = &shared.metrics;
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_QUARANTINED);
        w.rebuilds.add(1);
    }
    m.flight
        .note(worker, "quarantine", format!("ticket={ticket} why={why}"));
    m.dump_flight(&format!("quarantine-{why}"));
    let _ = catch_unwind(AssertUnwindSafe(move || drop(engine)));
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING); // rebuilding + replaying next
    }
}
