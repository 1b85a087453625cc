//! Panic-isolated worker execution over either engine backend.
//!
//! Each worker thread owns one warm engine — a pooled single-device
//! [`Xbfs`] or, for `--cluster N` servers, a partitioned [`GcdCluster`]
//! spanning N modeled GCDs — and pops jobs off the admission queue until
//! it drains. Execution runs under `catch_unwind`: a panicking engine, a
//! run failing certification, or a cluster rank crash that checkpoint/
//! restart could not recover is **quarantined**: the engine (and, for the
//! single-device backend, its device) is discarded, a fresh one is built,
//! and the request is replayed with injection stripped. Because a fresh
//! engine reproduces the exact result of a single-shot run, a replayed
//! response carries the same digest as a fault-free execution — the e2e
//! tests assert this through the socket.
//!
//! The cluster backend partitions the graph **once** at engine build;
//! per-request runs reuse the partitioning (and the engine's level
//! scratch) and only re-upload status arrays. An injected rank crash
//! (chaos `crash@L`, wire token `crash@<level>:rank<r>`) becomes a
//! [`FaultPlan`] for that one run: the rank dies mid-request and is
//! restored from the latest level-synchronous checkpoint *within the
//! request's remaining deadline budget* — recovery overhead counts
//! against it. Per-rank health (crashes, restores, retransmitted bytes)
//! is drained after every run into the server-wide accumulator, so a
//! quarantined cluster loses no history.
//!
//! Deadline accounting: the request's wall budget is charged for queue
//! wait first; whatever remains is granted to the run as a modeled-time
//! budget (see DESIGN.md §10 for why the two clocks are fungible).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use gcd_sim::Device;
use xbfs_core::{BitflipPlan, MsBfs, Sabotage, Xbfs, XbfsError, MAX_CONCURRENT};
use xbfs_graph::Csr;
use xbfs_multi_gcd::{ClusterConfig, ClusterError, FaultConfig, FaultPlan, GcdCluster, LinkModel};
use xbfs_telemetry::{names, AttrValue};

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

/// Engine generation, discarded and rebuilt as a unit on quarantine.
enum Engine<'g> {
    /// Warm pooled single-device engine (device + state together).
    Single(Box<Xbfs<Device>>),
    /// Warm pooled bit-parallel multi-source engine: one traversal
    /// serves up to [`MAX_CONCURRENT`] coalesced requests.
    Batch(Box<MsBfs<Device>>),
    /// Partitioned multi-GCD engine borrowing the server's graph.
    Cluster(Box<GcdCluster<'g>>),
}

fn build_engine<'g>(shared: &Shared, graph: &'g Csr) -> Result<Engine<'g>, String> {
    match shared.cfg.cluster {
        Some(n) => {
            let cfg = ClusterConfig {
                num_gcds: n,
                ..ClusterConfig::node_of_8()
            };
            GcdCluster::new(graph, cfg, LinkModel::frontier())
                .map(|c| Engine::Cluster(Box::new(c)))
                .map_err(|e| e.to_string())
        }
        None if shared.cfg.batch_width > 1 => MsBfs::new((shared.factory)(), graph)
            .map(|e| Engine::Batch(Box::new(e)))
            .map_err(|e| e.to_string()),
        None => Xbfs::new((shared.factory)(), graph, shared.xcfg)
            .map(|e| Engine::Single(Box::new(e)))
            .map_err(|e| e.to_string()),
    }
}

/// Drop a possibly-poisoned engine without letting its destructor take
/// the worker down: after a panic mid-run the pool bookkeeping may be
/// arbitrarily wrong, and `Drop` parks buffers back into it.
fn discard(engine: &mut Option<Engine<'_>>) {
    if let Some(e) = engine.take() {
        let _ = catch_unwind(AssertUnwindSafe(move || drop(e)));
    }
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
        shared.stats.undelivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// The worker thread body: pop until the queue drains, serve each job
/// with quarantine-and-replay, then park the final engine generation.
pub(crate) fn worker_loop(shared: Arc<Shared>, worker_idx: usize) {
    // The cluster engine borrows the graph; holding our own Arc clone
    // (declared before `engine`, so dropped after it) pins it.
    let graph = Arc::clone(&shared.graph);
    let mut engine: Option<Engine<'_>> = None;
    let width = shared.cfg.batch_width.clamp(1, MAX_CONCURRENT);
    if width > 1 && shared.cfg.cluster.is_none() {
        let linger =
            std::time::Duration::from_secs_f64(shared.cfg.batch_window_ms.max(0.0) / 1000.0);
        while let Some(batch) = shared.queue.pop_batch(width, linger) {
            serve_batch(&shared, &graph, &mut engine, batch, worker_idx);
        }
    } else {
        while let Some((ticket, job)) = shared.queue.pop() {
            serve_one(&shared, &graph, &mut engine, ticket, job, worker_idx);
        }
    }
    // Normal teardown: the engine is healthy, let Drop park its buffers.
    drop(engine);
}

fn serve_one<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Engine<'g>>,
    ticket: u64,
    job: Job,
    worker_idx: usize,
) {
    let id = job.req.id;
    let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    let now = shared.now_us();
    let rec = &shared.rec;
    let span = rec.begin_span(None, names::span::REQUEST, worker_idx, now);
    rec.span_attr(span, "id", AttrValue::U64(id));
    rec.span_attr(span, "ticket", AttrValue::U64(ticket));
    rec.span_attr(span, "source", AttrValue::U64(u64::from(job.req.source)));
    rec.counter(names::metric::WAIT_MS, worker_idx, now, wait_ms);
    let m = &shared.metrics;
    if let Some(w) = m.workers.get(worker_idx) {
        w.state.set(WORKER_RUNNING);
    }
    m.queue_wait_ms.record(wait_ms);
    m.flight.note(
        worker_idx,
        "request.start",
        format!("id={id} source={} wait_ms={wait_ms:.1}", job.req.source),
    );

    let outcome = execute(shared, graph, engine, ticket, &job, wait_ms, worker_idx, 0);
    rec.span_attr(span, "status", AttrValue::Str(outcome.status.into()));
    rec.span_attr(
        span,
        "attempts",
        AttrValue::U64(u64::from(outcome.attempts)),
    );
    rec.end_span(span, shared.now_us());

    let total_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    m.finish_request(worker_idx, outcome.status);
    if let Some(d) = job.req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        m.deadline_headroom_ms.record((d - total_ms).max(0.0));
    }
    // The device's pool totals only move while this worker runs, so
    // sampling once per request keeps the series current without
    // touching the hot path inside the run.
    sample_engine_pool(shared, worker_idx, engine);
    m.flight.note(
        worker_idx,
        "request.finish",
        format!(
            "id={id} status={} attempts={} total_ms={total_ms:.1}",
            outcome.status, outcome.attempts
        ),
    );
    if let Some(w) = m.workers.get(worker_idx) {
        w.state.set(WORKER_IDLE);
    }
    // Completed requests become idempotent: a replay of this id is
    // answered from cache instead of re-executing. Chaos-carrying
    // requests are never cached (soaks must exercise the real path).
    let cacheable = outcome.status == "ok" && job.req.chaos.is_none();
    if cacheable {
        shared.dedup.record(id, job.req.source, &outcome.line);
    }
    // The completion record lands before delivery: a crash after this
    // point replays the id from the warm cache, not by re-execution.
    shared.journal_done(id, job.req.source, outcome.status, &outcome.line, cacheable);
    deliver(shared, &job, outcome.status, outcome.line);
}

struct Outcome {
    line: String,
    status: &'static str,
    attempts: u32,
}

/// What one engine attempt decided.
enum Step {
    /// Terminal: answer the client with this outcome.
    Finish(Outcome),
    /// Quarantine the engine and replay (injection stripped).
    Retry { kind: &'static str, msg: String },
}

/// Everything one attempt needs, bundled so the per-backend runners stay
/// readable.
struct Attempt<'a> {
    shared: &'a Shared,
    job: &'a Job,
    act: ChaosAction,
    verify: bool,
    ticket: u64,
    run_budget_ms: Option<f64>,
    wait_ms: f64,
    attempt: u32,
    worker: usize,
}

/// Serve one request through the attempt/quarantine loop. `prior_attempts`
/// pre-charges attempts already spent elsewhere (a failed batch attempt
/// counts as one), so replayed batch members report honest attempt counts
/// and burn their retry budget accordingly.
#[allow(clippy::too_many_arguments)]
fn execute<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Engine<'g>>,
    ticket: u64,
    job: &Job,
    wait_ms: f64,
    worker: usize,
    prior_attempts: u32,
) -> Outcome {
    let id = job.req.id;
    let stats = &shared.stats;

    // Wall budget: queue wait spends it first. What is left is granted
    // to the run as a modeled-time budget (see DESIGN.md §10 for why the
    // two clocks are fungible here).
    let deadline_ms = job.req.deadline_ms.or(shared.cfg.default_deadline_ms);
    let run_budget_ms = match deadline_ms {
        Some(d) if wait_ms >= d => {
            stats.timeouts.fetch_add(1, Ordering::Relaxed);
            return Outcome {
                line: protocol::timeout_line(id, "queue", wait_ms, d),
                status: "timeout",
                attempts: 0,
            };
        }
        Some(d) => Some(d - wait_ms),
        None => None,
    };

    // Chaos is honored only when the server opted in; a production
    // server counts and ignores stamped chaos instead of executing it.
    let chaos = match &job.req.chaos {
        Some(tok) if shared.cfg.allow_chaos => match ChaosAction::from_token(tok) {
            Ok(a) => a,
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                return Outcome {
                    line: protocol::error_line(id, "usage", &e),
                    status: "error",
                    attempts: 0,
                };
            }
        },
        Some(_) => {
            stats.chaos_ignored.fetch_add(1, Ordering::Relaxed);
            ChaosAction::None
        }
        None => ChaosAction::None,
    };
    // Backend-specific injections: rank crashes need a partitioned
    // cluster to kill a rank of; bitflips target the single-device pool.
    let mismatch = match (chaos, shared.cfg.cluster) {
        (ChaosAction::Crash { .. }, None) => Some("crash chaos requires a --cluster server"),
        (ChaosAction::Bitflip, Some(_)) => Some("bitflip chaos requires a single-device server"),
        (ChaosAction::Bitflip, None) if shared.cfg.batch_width > 1 => {
            Some("bitflip chaos requires a batch-width 1 server")
        }
        _ => None,
    };
    if let Some(why) = mismatch {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        return Outcome {
            line: protocol::error_line(id, "usage", why),
            status: "error",
            attempts: 0,
        };
    }
    // Undetected bit flips would silently corrupt the response; chaos
    // flips therefore imply certification so they are caught + replayed.
    let verify = job.req.verify.unwrap_or(shared.cfg.verify) || chaos == ChaosAction::Bitflip;
    let flip_plan = (chaos == ChaosAction::Bitflip)
        .then(|| BitflipPlan::parse("status:1").expect("static chaos bitflip spec parses"));

    // A pre-charged attempt never eats the whole budget: a replayed
    // batch member always gets at least one solo attempt.
    let max_attempts = (shared.cfg.max_retries + 1).max(prior_attempts + 1);
    let mut attempt = prior_attempts;
    loop {
        if engine.is_none() {
            match build_engine(shared, graph) {
                Ok(e) => *engine = Some(e),
                Err(err) => {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    shared.breaker.record_failure();
                    return Outcome {
                        line: protocol::error_line(id, "engine", &err),
                        status: "error",
                        attempts: attempt + 1,
                    };
                }
            }
        }

        // Injection targets attempt 0 only, so a replay after quarantine
        // runs clean and reproduces the fault-free result bit for bit.
        let act = if attempt == 0 {
            chaos
        } else {
            ChaosAction::None
        };
        if let ChaosAction::Slow(ms) = act {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let ctx = Attempt {
            shared,
            job,
            act,
            verify,
            ticket,
            run_budget_ms,
            wait_ms,
            attempt,
            worker,
        };
        let step = match engine.as_mut().expect("just built") {
            Engine::Single(eng) => ctx.run_single(eng, flip_plan.as_ref()),
            Engine::Batch(eng) => ctx.run_batch_solo(eng),
            Engine::Cluster(cluster) => {
                let step = ctx.run_cluster(cluster, graph);
                // Drain per-rank health every attempt — before any
                // quarantine discards the engine — so crashes, restores
                // and retransmits survive into the serve report.
                let health = cluster.take_health();
                shared.merge_rank_health(&health);
                step
            }
        };
        match step {
            Step::Finish(outcome) => return outcome,
            Step::Retry { kind, msg } => {
                quarantine(shared, engine, kind, ticket, worker);
                attempt += 1;
                if attempt >= max_attempts {
                    return give_up(shared, id, attempt, kind, &msg, worker);
                }
            }
        }
    }
}

impl Attempt<'_> {
    /// One attempt on the warm pooled single-device engine.
    fn run_single(&self, eng: &Xbfs<Device>, flip_plan: Option<&BitflipPlan>) -> Step {
        let shared = self.shared;
        let stats = &shared.stats;
        let id = self.job.req.id;
        let ticket = self.ticket;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.act == ChaosAction::Panic {
                panic!("chaos: injected worker panic (ticket {ticket})");
            }
            let sab = (self.act == ChaosAction::Bitflip)
                .then(|| flip_plan.map(|plan| Sabotage { plan, salt: ticket }))
                .flatten();
            eng.run_governed(
                self.job.req.source,
                &xbfs_telemetry::Recorder::disabled(),
                sab.as_ref(),
                self.run_budget_ms,
                self.verify,
            )
        }));

        match result {
            Ok(Ok((run, cert))) => {
                shared.breaker.record_success();
                stats.ok.fetch_add(1, Ordering::Relaxed);
                if self.attempt > 0 {
                    stats.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Step::Finish(Outcome {
                    line: protocol::ok_line(
                        id,
                        &run,
                        cert.is_some(),
                        self.wait_ms,
                        self.attempt + 1,
                    ),
                    status: "ok",
                    attempts: self.attempt + 1,
                })
            }
            Ok(Err(XbfsError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            })) => Step::Finish(self.timeout(elapsed_us, deadline_us)),
            Ok(Err(XbfsError::Integrity(e))) => Step::Retry {
                kind: "integrity",
                msg: e.to_string(),
            },
            Ok(Err(other)) => {
                // Client-input errors (bad source, …): typed, no retry,
                // and no breaker penalty — the substrate is fine.
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Step::Finish(Outcome {
                    line: protocol::error_line(id, "invalid", &other.to_string()),
                    status: "error",
                    attempts: self.attempt + 1,
                })
            }
            Err(payload) => Step::Retry {
                kind: "panic",
                msg: self.note_panic(payload.as_ref()),
            },
        }
    }

    /// One attempt on the bit-parallel multi-source engine, run 1-wide:
    /// the solo fallback of a batch-width server (lone members, and the
    /// replay path after a batch quarantine or deadline split). Responses
    /// carry the slot's levels-only digest, so every `ok` a batch-width
    /// server emits — coalesced or solo — is digest-comparable.
    fn run_batch_solo(&self, eng: &MsBfs<Device>) -> Step {
        let shared = self.shared;
        let stats = &shared.stats;
        let id = self.job.req.id;
        let ticket = self.ticket;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.act == ChaosAction::Panic {
                panic!("chaos: injected worker panic (ticket {ticket})");
            }
            eng.run_governed(&[self.job.req.source], self.run_budget_ms, self.verify)
        }));

        match result {
            Ok(Ok((run, certs))) => {
                shared.breaker.record_success();
                stats.ok.fetch_add(1, Ordering::Relaxed);
                if self.attempt > 0 {
                    stats.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Step::Finish(Outcome {
                    line: protocol::batched_ok_line(
                        id,
                        &run,
                        0,
                        certs.is_some(),
                        self.wait_ms,
                        self.attempt + 1,
                        1,
                    ),
                    status: "ok",
                    attempts: self.attempt + 1,
                })
            }
            Ok(Err(XbfsError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            })) => Step::Finish(self.timeout(elapsed_us, deadline_us)),
            Ok(Err(XbfsError::Integrity(e))) => Step::Retry {
                kind: "integrity",
                msg: e.to_string(),
            },
            Ok(Err(other)) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Step::Finish(Outcome {
                    line: protocol::error_line(id, "invalid", &other.to_string()),
                    status: "error",
                    attempts: self.attempt + 1,
                })
            }
            Err(payload) => Step::Retry {
                kind: "panic",
                msg: self.note_panic(payload.as_ref()),
            },
        }
    }

    /// One attempt on the partitioned cluster engine. A `Crash` action
    /// becomes a one-run [`FaultPlan`]; the engine recovers it from the
    /// latest checkpoint within the remaining deadline budget.
    fn run_cluster(&self, cluster: &mut GcdCluster<'_>, graph: &Csr) -> Step {
        let shared = self.shared;
        let stats = &shared.stats;
        let id = self.job.req.id;
        let ticket = self.ticket;
        let fault_cfg = match self.act {
            ChaosAction::Crash { level, rank } => {
                match FaultPlan::parse(&format!("crash@{level}:rank{rank}")) {
                    Ok(plan) => FaultConfig {
                        plan,
                        checkpoint_every: shared.cfg.checkpoint_every,
                        ..FaultConfig::default()
                    },
                    Err(e) => {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                        return Step::Finish(Outcome {
                            line: protocol::error_line(id, "usage", &e.to_string()),
                            status: "error",
                            attempts: self.attempt + 1,
                        });
                    }
                }
            }
            _ => FaultConfig {
                checkpoint_every: shared.cfg.checkpoint_every,
                ..FaultConfig::default()
            },
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.act == ChaosAction::Panic {
                panic!("chaos: injected worker panic (ticket {ticket})");
            }
            cluster.run_governed(
                self.job.req.source,
                &fault_cfg,
                &xbfs_telemetry::Recorder::disabled(),
                self.run_budget_ms,
            )
        }));

        match result {
            Ok(Ok(run)) => {
                // The cluster engine has no certificate machinery; its
                // certification is a host-side validation of the level
                // array against the graph. A failure is treated exactly
                // like a single-device integrity fault: quarantine the
                // engine and replay clean.
                if self.verify {
                    if let Err(e) =
                        xbfs_graph::validate_bfs_levels(graph, self.job.req.source, &run.levels)
                    {
                        return Step::Retry {
                            kind: "integrity",
                            msg: format!("cluster result failed validation: {e:?}"),
                        };
                    }
                }
                // Per-level modeled-time split: how much of this run went
                // to expanding frontiers vs exchanging them across links.
                let (mut expand_us, mut exchange_us) = (0.0f64, 0.0f64);
                for ls in &run.level_stats {
                    expand_us += ls.expand_ms * 1000.0;
                    exchange_us += ls.exchange_ms * 1000.0;
                }
                shared.metrics.cluster_expand_us.add(expand_us as u64);
                shared.metrics.cluster_exchange_us.add(exchange_us as u64);
                let recoveries = run.recoveries.len() as u64;
                if recoveries > 0 {
                    shared.rec.event(
                        None,
                        names::event::RANK_RECOVERED,
                        0,
                        shared.now_us(),
                        vec![
                            ("ticket".into(), AttrValue::U64(ticket)),
                            ("recoveries".into(), AttrValue::U64(recoveries)),
                        ],
                    );
                }
                shared.breaker.record_success();
                stats.ok.fetch_add(1, Ordering::Relaxed);
                if self.attempt > 0 {
                    stats.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Step::Finish(Outcome {
                    line: protocol::cluster_ok_line(
                        id,
                        &run,
                        self.verify,
                        self.wait_ms,
                        self.attempt + 1,
                        recoveries,
                    ),
                    status: "ok",
                    attempts: self.attempt + 1,
                })
            }
            Ok(Err(ClusterError::DeadlineExceeded {
                elapsed_us,
                deadline_us,
                ..
            })) => Step::Finish(self.timeout(elapsed_us, deadline_us)),
            Ok(Err(e @ (ClusterError::Unrecoverable { .. } | ClusterError::LinkFailed { .. }))) => {
                // Checkpoint/restart could not save this run — the whole
                // cluster engine is suspect. Quarantine it and replay the
                // victim request on a rebuilt cluster.
                Step::Retry {
                    kind: "unrecoverable",
                    msg: e.to_string(),
                }
            }
            Ok(Err(other)) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Step::Finish(Outcome {
                    line: protocol::error_line(id, "invalid", &other.to_string()),
                    status: "error",
                    attempts: self.attempt + 1,
                })
            }
            Err(payload) => Step::Retry {
                kind: "panic",
                msg: self.note_panic(payload.as_ref()),
            },
        }
    }

    /// Typed mid-run timeout: counted, never a breaker penalty.
    fn timeout(&self, elapsed_us: u64, deadline_us: u64) -> Outcome {
        self.shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        Outcome {
            line: protocol::timeout_line(
                self.job.req.id,
                "run",
                self.wait_ms + elapsed_us as f64 / 1000.0,
                self.wait_ms + deadline_us as f64 / 1000.0,
            ),
            status: "timeout",
            attempts: self.attempt + 1,
        }
    }

    /// Count + record a contained panic, returning its message.
    fn note_panic(&self, payload: &(dyn std::any::Any + Send)) -> String {
        record_panic(self.shared, self.worker, self.ticket, payload)
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
    let msg = panic_message(payload);
    shared
        .stats
        .panics_recovered
        .fetch_add(1, Ordering::Relaxed);
    if let Some(w) = shared.metrics.workers.get(worker) {
        w.panics.add(1);
    }
    shared
        .metrics
        .flight
        .note(worker, "panic", format!("ticket={ticket} {msg}"));
    shared.metrics.dump_flight("worker-panic");
    shared.rec.event(
        None,
        names::event::PANIC_RECOVERED,
        0,
        shared.now_us(),
        vec![
            ("ticket".into(), AttrValue::U64(ticket)),
            ("message".into(), AttrValue::Str(msg.clone())),
        ],
    );
    msg
}

fn quarantine(
    shared: &Shared,
    engine: &mut Option<Engine<'_>>,
    why: &str,
    ticket: u64,
    worker: usize,
) {
    let m = &shared.metrics;
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_QUARANTINED);
        w.rebuilds.add(1);
    }
    m.flight
        .note(worker, "quarantine", format!("ticket={ticket} why={why}"));
    m.dump_flight(&format!("quarantine-{why}"));
    discard(engine);
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING); // rebuilding + replaying next
    }
    shared.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
    shared.rec.event(
        None,
        names::event::QUARANTINED,
        0,
        shared.now_us(),
        vec![
            ("ticket".into(), AttrValue::U64(ticket)),
            ("why".into(), AttrValue::Str(why.into())),
        ],
    );
}

fn give_up(
    shared: &Shared,
    id: u64,
    attempts: u32,
    kind: &str,
    msg: &str,
    worker: usize,
) -> Outcome {
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    if shared.breaker.record_failure() {
        shared
            .stats
            .breaker_trips_seen
            .fetch_add(1, Ordering::Relaxed);
        shared.metrics.flight.note(
            worker,
            "breaker.trip",
            format!("id={id} kind={kind} after {attempts} attempts"),
        );
        shared.metrics.dump_flight("breaker-open");
        shared.rec.event(
            None,
            names::event::BREAKER_TRIP,
            0,
            shared.now_us(),
            vec![("kind".into(), AttrValue::Str(kind.into()))],
        );
    }
    Outcome {
        line: protocol::error_line(
            id,
            kind,
            &format!("uncorrected after {attempts} attempts: {msg}"),
        ),
        status: "error",
        attempts,
    }
}

/// Sample the single-device pool gauges of whichever warm engine this
/// worker holds (the cluster backend has no device pool).
fn sample_engine_pool(shared: &Shared, worker: usize, engine: &Option<Engine<'_>>) {
    match engine.as_ref() {
        Some(Engine::Single(e)) => shared.metrics.sample_pool(worker, e.device().pool_gauges()),
        Some(Engine::Batch(e)) => shared.metrics.sample_pool(worker, e.device().pool_gauges()),
        _ => {}
    }
}

/// One triaged batch member: an admitted job plus everything the batch
/// attempt needs to demultiplex it again (its slot, its own remaining
/// budget, its effective verify, the chaos it carried).
struct Member {
    ticket: u64,
    job: Job,
    wait_ms: f64,
    run_budget_ms: Option<f64>,
    verify: bool,
    panic_chaos: bool,
    slow_ms: Option<u64>,
    had_chaos: bool,
    slot: usize,
}

/// Shed, reject, or admit one popped job into the batch. Members are
/// always triaged (and answered) individually — a blown budget or a bad
/// source never takes the batch down with it.
fn triage(shared: &Shared, ticket: u64, job: Job, worker: usize) -> Option<Member> {
    let id = job.req.id;
    let wait_ms = job.enqueued.elapsed().as_secs_f64() * 1000.0;
    shared.metrics.queue_wait_ms.record(wait_ms);
    shared
        .rec
        .counter(names::metric::WAIT_MS, worker, shared.now_us(), wait_ms);
    let reject = |status: &'static str, line: String| {
        if status == "timeout" {
            shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        shared.metrics.finish_request(worker, status);
        // Triage rejections are terminal too — without a completion
        // record a restart would re-enqueue (and re-reject) them forever.
        shared.journal_done(id, job.req.source, status, &line, false);
        deliver(shared, &job, status, line);
    };
    // Queue wait spends the wall budget first, exactly like the solo path.
    let deadline_ms = job.req.deadline_ms.or(shared.cfg.default_deadline_ms);
    let run_budget_ms = match deadline_ms {
        Some(d) if wait_ms >= d => {
            reject("timeout", protocol::timeout_line(id, "queue", wait_ms, d));
            return None;
        }
        Some(d) => Some(d - wait_ms),
        None => None,
    };
    // Validate the source up front: `run_governed` rejects a whole batch
    // for one bad member, and that member's error is not its neighbors'.
    let n = shared.graph.num_vertices();
    if job.req.source as usize >= n {
        let msg = XbfsError::SourceOutOfRange {
            source: job.req.source,
            num_vertices: n,
        }
        .to_string();
        reject("error", protocol::error_line(id, "invalid", &msg));
        return None;
    }
    let had_chaos = job.req.chaos.is_some();
    let mut panic_chaos = false;
    let mut slow_ms = None;
    if let Some(tok) = &job.req.chaos {
        if !shared.cfg.allow_chaos {
            shared.stats.chaos_ignored.fetch_add(1, Ordering::Relaxed);
        } else {
            match ChaosAction::from_token(tok) {
                Ok(ChaosAction::Panic) => panic_chaos = true,
                Ok(ChaosAction::Slow(ms)) => slow_ms = Some(ms),
                Ok(ChaosAction::None) => {}
                Ok(ChaosAction::Bitflip) => {
                    reject(
                        "error",
                        protocol::error_line(
                            id,
                            "usage",
                            "bitflip chaos requires a batch-width 1 server",
                        ),
                    );
                    return None;
                }
                Ok(ChaosAction::Crash { .. }) => {
                    reject(
                        "error",
                        protocol::error_line(
                            id,
                            "usage",
                            "crash chaos requires a --cluster server",
                        ),
                    );
                    return None;
                }
                Err(e) => {
                    reject("error", protocol::error_line(id, "usage", &e));
                    return None;
                }
            }
        }
    }
    let verify = job.req.verify.unwrap_or(shared.cfg.verify);
    Some(Member {
        ticket,
        job,
        wait_ms,
        run_budget_ms,
        verify,
        panic_chaos,
        slow_ms,
        had_chaos,
        slot: 0,
    })
}

/// Epilogue shared by every batch-member outcome: status + headroom
/// series, idempotency cache, and delivery.
fn finish_member(shared: &Shared, worker: usize, mb: &Member, status: &str, line: String) {
    let total_ms = mb.job.enqueued.elapsed().as_secs_f64() * 1000.0;
    shared.metrics.finish_request(worker, status);
    if let Some(d) = mb.job.req.deadline_ms.or(shared.cfg.default_deadline_ms) {
        shared
            .metrics
            .deadline_headroom_ms
            .record((d - total_ms).max(0.0));
    }
    let cacheable = status == "ok" && !mb.had_chaos;
    if cacheable {
        shared.dedup.record(mb.job.req.id, mb.job.req.source, &line);
    }
    shared.journal_done(mb.job.req.id, mb.job.req.source, status, &line, cacheable);
    deliver(shared, &mb.job, status, line);
}

/// Re-run one batch member solo (1-wide) on the — possibly just
/// rebuilt — batch engine, under its own remaining budget and the full
/// quarantine-and-replay machinery. The failed batch attempt is
/// pre-charged as attempt 1, so responses report honest attempt counts.
fn replay_member<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Engine<'g>>,
    mut mb: Member,
    worker: usize,
) {
    // Injection fired (or was stripped) on the batch attempt already.
    mb.job.req.chaos = None;
    let wait_ms = mb.job.enqueued.elapsed().as_secs_f64() * 1000.0;
    let outcome = execute(
        shared, graph, engine, mb.ticket, &mb.job, wait_ms, worker, 1,
    );
    finish_member(shared, worker, &mb, outcome.status, outcome.line);
}

/// Serve one coalesced batch: triage members individually, dedup
/// duplicate sources into shared slots, run one bit-parallel traversal
/// under the tightest member budget, and demultiplex per-slot results
/// back to every member. A deadline blow splits the batch (healthy
/// engine, solo re-runs under each member's own budget); a panic or
/// integrity fault quarantines the engine and replays members solo on a
/// rebuilt one — so batching never weakens any robustness guarantee.
fn serve_batch<'g>(
    shared: &Shared,
    graph: &'g Csr,
    engine: &mut Option<Engine<'g>>,
    batch: Vec<(u64, Job)>,
    worker: usize,
) {
    let m = &shared.metrics;
    let width = shared.cfg.batch_width.clamp(1, MAX_CONCURRENT);
    let size = batch.len();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .batched_requests
        .fetch_add(size as u64, Ordering::Relaxed);
    shared
        .stats
        .max_batch
        .fetch_max(size as u64, Ordering::Relaxed);
    m.batches_total.add(1);
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
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_RUNNING);
    }
    let first_ticket = batch.first().map(|&(t, _)| t).unwrap_or(0);
    m.flight.note(
        worker,
        "batch.start",
        format!("size={size} ticket0={first_ticket}"),
    );

    let mut members: Vec<Member> = batch
        .into_iter()
        .filter_map(|(t, j)| triage(shared, t, j, worker))
        .collect();
    'run: {
        if members.is_empty() {
            break 'run;
        }
        // Duplicate sources share one slot: answered once, demuxed many.
        let mut sources: Vec<u32> = Vec::new();
        for mb in &mut members {
            mb.slot = sources
                .iter()
                .position(|&s| s == mb.job.req.source)
                .unwrap_or_else(|| {
                    sources.push(mb.job.req.source);
                    sources.len() - 1
                });
        }
        // The batch runs under the *tightest* member's remaining budget;
        // a blown batch is split below, so a generous member is never
        // timed out by a stingy neighbor.
        let budget = members
            .iter()
            .filter_map(|mb| mb.run_budget_ms)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a: f64| a.min(b)))
            });
        let verify = members.iter().any(|mb| mb.verify);
        let panic_injected = members.iter().any(|mb| mb.panic_chaos);
        if let Some(ms) = members.iter().filter_map(|mb| mb.slow_ms).max() {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if engine.is_none() {
            match build_engine(shared, graph) {
                Ok(e) => *engine = Some(e),
                Err(err) => {
                    shared.breaker.record_failure();
                    for mb in members {
                        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                        let line = protocol::error_line(mb.job.req.id, "engine", &err);
                        finish_member(shared, worker, &mb, "error", line);
                    }
                    break 'run;
                }
            }
        }
        let result = {
            let Some(Engine::Batch(eng)) = engine.as_ref() else {
                unreachable!("batch workers always build the batch engine")
            };
            catch_unwind(AssertUnwindSafe(|| {
                if panic_injected {
                    panic!("chaos: injected worker panic (batch ticket0 {first_ticket})");
                }
                eng.run_governed(&sources, budget, verify)
            }))
        };
        match result {
            Ok(Ok((run, certs))) => {
                shared.breaker.record_success();
                let served = members.len();
                for mb in members {
                    shared.stats.ok.fetch_add(1, Ordering::Relaxed);
                    let certified = certs.is_some() && mb.verify;
                    let line = protocol::batched_ok_line(
                        mb.job.req.id,
                        &run,
                        mb.slot,
                        certified,
                        mb.wait_ms,
                        1,
                        served,
                    );
                    finish_member(shared, worker, &mb, "ok", line);
                }
            }
            Ok(Err(XbfsError::DeadlineExceeded { .. })) => {
                // The tightest budget bound everyone; the engine is
                // healthy. Split: re-run each member solo under its own
                // budget, so nobody times out *because* of coalescing.
                m.flight.note(
                    worker,
                    "batch.split",
                    format!("size={} why=deadline", members.len()),
                );
                for mb in members {
                    replay_member(shared, graph, engine, mb, worker);
                }
            }
            Ok(Err(XbfsError::Integrity(e))) => {
                m.flight.note(worker, "batch.integrity", format!("{e}"));
                quarantine(shared, engine, "integrity", first_ticket, worker);
                for mb in members {
                    replay_member(shared, graph, engine, mb, worker);
                }
            }
            Ok(Err(other)) => {
                // Sources were validated at triage, so no member input
                // explains this; treat the engine as poisoned.
                m.flight.note(worker, "batch.error", format!("{other}"));
                quarantine(shared, engine, "engine-error", first_ticket, worker);
                for mb in members {
                    replay_member(shared, graph, engine, mb, worker);
                }
            }
            Err(payload) => {
                record_panic(shared, worker, first_ticket, payload.as_ref());
                quarantine(shared, engine, "panic", first_ticket, worker);
                for mb in members {
                    replay_member(shared, graph, engine, mb, worker);
                }
            }
        }
    }
    sample_engine_pool(shared, worker, engine);
    m.flight
        .note(worker, "batch.finish", format!("ticket0={first_ticket}"));
    if let Some(w) = m.workers.get(worker) {
        w.state.set(WORKER_IDLE);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
