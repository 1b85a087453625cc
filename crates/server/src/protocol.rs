//! `xbfs-serve-v1`: JSON lines over TCP.
//!
//! One request per line, one response line per request. Requests carry a
//! client-chosen `id` that the matching response echoes, so clients may
//! pipeline and match out-of-order completions (a FIFO queue consumed by
//! several workers completes out of order across connections).
//!
//! Ops: `ping`, `info`, `stats`, `metrics`, `shutdown`, and `bfs`. A
//! `bfs` response has one of four statuses:
//!
//! - `ok` — levels computed; carries depth/total_ms/gteps, the FNV-1a
//!   result digest ([`xbfs_core::BfsRun::digest`], hex), queue wait,
//!   attempt count, and whether the result was certified.
//! - `overloaded` — shed by admission control, breaker, or drain;
//!   carries `retry_after_ms`.
//! - `timeout` — the deadline budget expired (in queue, or mid-run as a
//!   typed [`xbfs_core::XbfsError::DeadlineExceeded`]).
//! - `error` — a typed failure (bad source, uncorrected integrity, …).
//!
//! Every line, request or response, is written and read in this module
//! through the telemetry crate's std-only JSON reader and writer
//! (DESIGN.md, "JSON documents").

use xbfs_core::{BfsRun, SlotAnswer};
use xbfs_telemetry::json::{self, JsonValue, Obj, Val};

use crate::server::ServeReport;

/// Protocol identifier, echoed in every request and response.
pub const PROTOCOL: &str = "xbfs-serve-v1";

/// A parsed `bfs` request.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// BFS source vertex.
    pub source: u32,
    /// Wall-clock budget for queue wait + run, ms. `None` uses the
    /// server default (possibly unlimited).
    pub deadline_ms: Option<f64>,
    /// Override the server's verify default for this request.
    pub verify: Option<bool>,
    /// Chaos action token (see [`crate::chaos::ChaosAction`]); honored
    /// only by servers started with `--allow-chaos`.
    pub chaos: Option<String>,
}

/// Any request the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered inline.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Graph and capacity description; answered inline.
    Info {
        /// Correlation id.
        id: u64,
    },
    /// Current serving counters; answered inline.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Initiate graceful drain.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
    /// One `xbfs-metrics-v1` snapshot of the live metrics plane;
    /// answered inline without touching the workers.
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Run one BFS (queued through admission control).
    Bfs(BfsRequest),
}

/// Largest `id` the protocol carries: ids travel as JSON numbers, which
/// the reader holds as `f64`, and 2^53 is where distinct integers start
/// to share one `f64` (2^53 + 1 reads back as 2^53). Every integer below
/// it is exact, so an accepted id is always echoed as sent.
pub const MAX_ID: u64 = (1 << 53) - 1;

/// `{"v":PROTOCOL,"op":op,` + `rest` + `}`: how every request line opens.
fn request_line(op: &str, rest: impl FnOnce(&mut Obj<'_>)) -> String {
    json::object(|o| {
        o.key("v").str(PROTOCOL);
        o.key("op").str(op);
        rest(o);
    })
}

/// The request line of a field-less op (`ping`, `info`, `stats`,
/// `metrics`, `shutdown`).
pub fn control_line(op: &str, id: u64) -> String {
    request_line(op, |o| o.key("id").int(id))
}

impl BfsRequest {
    /// The request's own fields, in the one order they are ever written:
    /// shared by the wire line and the journal's admit record. A
    /// non-finite `deadline_ms` is written as `null`, which reads back as
    /// "no per-request deadline".
    pub(crate) fn write_fields(&self, o: &mut Obj<'_>) {
        o.key("id").int(self.id);
        o.key("source").int(self.source);
        o.opt("deadline_ms", self.deadline_ms, Val::f64);
        o.opt("verify", self.verify, Val::bool);
        o.opt("chaos", self.chaos.as_deref(), Val::str);
    }

    /// The `bfs` request line a client sends.
    pub fn to_line(&self) -> String {
        request_line("bfs", |o| self.write_fields(o))
    }

    /// The inverse of [`Self::write_fields`], given the already-parsed
    /// `id`: `source` must be the exact integer the sender wrote.
    pub(crate) fn read(v: &JsonValue, id: u64) -> Result<Self, String> {
        let source = v
            .uint_field("source", u64::from(u32::MAX))?
            .ok_or("bfs needs numeric `source`")? as u32;
        Ok(BfsRequest {
            id,
            source,
            deadline_ms: v.get("deadline_ms").and_then(|d| d.as_f64()),
            verify: v.get("verify").and_then(|b| b.as_bool()),
            chaos: v.get("chaos").and_then(|c| c.as_str()).map(String::from),
        })
    }
}

/// Why a request line was refused: answered as a typed `usage` error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// The request's own id when one parsed (so the error can be matched
    /// to it), else 0.
    pub id: u64,
    /// Human-readable reason.
    pub message: String,
}

/// Parse one request line. A refusal echoes the request's id whenever
/// one could be recovered.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let bad = |id: u64, message: String| BadRequest { id, message };
    let v = JsonValue::parse(line).map_err(|e| bad(0, format!("bad JSON: {e}")))?;
    let id = v
        .uint_field("id", MAX_ID)
        .map_err(|why| bad(0, why))?
        .ok_or_else(|| bad(0, "missing numeric `id`".into()))?;
    if let Some(proto) = v.get("v").and_then(|p| p.as_str()) {
        if proto != PROTOCOL {
            return Err(bad(id, format!("unsupported protocol `{proto}`")));
        }
    }
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| bad(id, "missing string `op`".into()))?;
    match op {
        "ping" => Ok(Request::Ping { id }),
        "info" => Ok(Request::Info { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "bfs" => {
            let req = BfsRequest::read(&v, id).map_err(|why| bad(id, why))?;
            // What cannot be journaled or honoured is refused at the door.
            match req.deadline_ms {
                Some(d) if !(d.is_finite() && d >= 0.0) => {
                    Err(bad(id, "`deadline_ms` must be finite and >= 0".into()))
                }
                _ => Ok(Request::Bfs(req)),
            }
        }
        other => Err(bad(id, format!("unknown op `{other}`"))),
    }
}

/// `{"v":PROTOCOL,"id":id,"status":status,` + `rest` + `}`: how every
/// response line opens. One buffer, sized for an `ok` line (~250 bytes,
/// the longest the served path writes) so that it never grows.
fn response(id: u64, status: &str, rest: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut line = String::with_capacity(320);
    Val::new(&mut line).obj(|o| {
        o.key("v").str(PROTOCOL);
        o.key("id").int(id);
        o.key("status").str(status);
        rest(o);
    });
    line
}

/// The `ok` response for one slot of an engine run — the one place the
/// payload is formatted. What `depth` counts and what `digest` covers is
/// the answering engine's choice ([`SlotAnswer`]). `batch` is set by
/// batch-width servers to how many members shared the traversal (1 for a
/// lone request that outwaited its linger window); `recoveries` by
/// cluster servers to the mid-request checkpoint restores.
#[allow(clippy::too_many_arguments)]
pub fn slot_ok_line(
    id: u64,
    slot: &SlotAnswer,
    total_ms: f64,
    certified: bool,
    wait_ms: f64,
    attempts: u32,
    batch: Option<usize>,
    recoveries: Option<u64>,
) -> String {
    response(id, "ok", |o| {
        o.key("source").int(slot.source);
        o.key("depth").int(slot.depth);
        o.key("reached").int(slot.reached);
        o.key("total_ms").fixed(total_ms, 6);
        o.key("gteps").fixed(slot.gteps, 6);
        o.key("digest").str(format_args!("{:#018x}", slot.digest));
        o.key("certified").bool(certified);
        o.key("wait_ms").fixed(wait_ms, 3);
        o.key("attempts").int(attempts);
        o.opt("batch", batch, Val::int);
        o.opt("recoveries", recoveries, Val::int);
    })
}

/// `ok` response for a completed solo run: depth is the level count and
/// the digest is [`BfsRun::digest`], which folds in the modeled time.
pub fn ok_line(id: u64, run: &BfsRun, certified: bool, wait_ms: f64, attempts: u32) -> String {
    slot_ok_line(
        id,
        &run.answer(),
        run.total_ms,
        certified,
        wait_ms,
        attempts,
        None,
        None,
    )
}

/// `overloaded` response (admission shed, breaker open, or draining).
pub fn overloaded_line(id: u64, reason: &str, retry_after_ms: u64) -> String {
    response(id, "overloaded", |o| {
        o.key("reason").str(reason);
        o.key("retry_after_ms").int(retry_after_ms);
    })
}

/// `timeout` response: the deadline expired in-queue or mid-run.
pub fn timeout_line(id: u64, where_: &str, elapsed_ms: f64, deadline_ms: f64) -> String {
    response(id, "timeout", |o| {
        o.key("where").str(where_);
        o.key("elapsed_ms").fixed(elapsed_ms, 3);
        o.key("deadline_ms").fixed(deadline_ms, 3);
    })
}

/// `error` response with an error kind and message.
pub fn error_line(id: u64, kind: &str, message: &str) -> String {
    response(id, "error", |o| {
        o.key("kind").str(kind);
        o.key("error").str(message);
    })
}

/// `ok` response to `ping`.
pub fn pong_line(id: u64) -> String {
    response(id, "ok", |o| o.key("pong").bool(true))
}

/// `ok` response to `info`.
pub fn info_line(
    id: u64,
    vertices: usize,
    edges: usize,
    workers: usize,
    queue_cap: usize,
) -> String {
    response(id, "ok", |o| {
        o.key("vertices").int(vertices);
        o.key("edges").int(edges);
        o.key("workers").int(workers);
        o.key("queue_cap").int(queue_cap);
    })
}

/// `ok` response to `stats`: the counters a client polls, out of the same
/// report `join` will return, plus the live queue depth and breaker state.
pub fn stats_line(id: u64, r: &ServeReport, depth: u64, breaker_open: bool) -> String {
    response(id, "ok", |o| {
        o.key("accepted").int(r.accepted);
        o.key("shed").int(r.shed);
        o.key("ok").int(r.ok);
        o.key("timeouts").int(r.timeouts);
        o.key("errors").int(r.errors);
        o.key("depth").int(depth);
        o.key("breaker_open").bool(breaker_open);
    })
}

/// `ok` response to `shutdown` (drain initiated).
pub fn shutdown_line(id: u64) -> String {
    response(id, "ok", |o| o.key("draining").bool(true))
}

/// `ok` response to `metrics`: embeds the `xbfs-metrics-v1` snapshot
/// object (already serialized, single line) under `"metrics"`.
pub fn metrics_line(id: u64, snapshot_json: &str) -> String {
    response(id, "ok", |o| o.key("metrics").raw(snapshot_json))
}

/// What a client can learn from any response line without knowing which
/// op produced it — everything the load generator needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseSummary {
    /// Echoed correlation id.
    pub id: u64,
    /// `ok`, `overloaded`, `timeout`, or `error`.
    pub status: String,
    /// Result digest (hex) for `ok` BFS responses.
    pub digest: Option<String>,
    /// Source vertex for `ok` BFS responses.
    pub source: Option<u32>,
    /// Backoff hint for `overloaded`.
    pub retry_after_ms: Option<u64>,
    /// Attempts for `ok` BFS responses (>1 means replayed after
    /// quarantine).
    pub attempts: Option<u32>,
    /// Error kind for `error` responses.
    pub kind: Option<String>,
    /// Mid-request checkpoint restores for cluster `ok` responses.
    pub recoveries: Option<u64>,
    /// True when the response was served from the idempotency cache
    /// instead of re-executing (a replayed completed id).
    pub deduped: Option<bool>,
    /// How many requests shared the traversal, for batched `ok`
    /// responses (absent on the solo path).
    pub batch: Option<u64>,
}

/// Parse one response line into the summary clients act on.
pub fn parse_response(line: &str) -> Result<ResponseSummary, String> {
    let v = JsonValue::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let text = |key: &str| v.get(key).and_then(|s| s.as_str()).map(String::from);
    let uint = |key: &str| v.uint_field(key, MAX_ID).ok().flatten();
    Ok(ResponseSummary {
        id: uint("id").ok_or("response missing `id`")?,
        status: text("status").ok_or("response missing `status`")?,
        digest: text("digest"),
        source: uint("source").and_then(|s| u32::try_from(s).ok()),
        retry_after_ms: uint("retry_after_ms"),
        attempts: uint("attempts").map(|a| a as u32),
        kind: text("kind"),
        recoveries: uint("recoveries"),
        deduped: v.get("deduped").and_then(|d| d.as_bool()),
        batch: uint("batch"),
    })
}

/// Mark a completed `ok` line as replayed from the idempotency cache:
/// splices `"deduped":true` before the closing brace.
pub fn mark_deduped(line: &str) -> String {
    match line.strip_suffix('}') {
        Some(body) => format!("{body},\"deduped\":true}}"),
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_core::MsBfsRun;
    use xbfs_multi_gcd::ClusterRun;

    /// A request line reads back as the request it was written from, and
    /// is written byte for byte as `loadgen`, `top` and `send_shutdown`
    /// formatted it themselves before they shared this writer.
    #[test]
    fn bfs_request_round_trip() {
        let line = format!(
            "{{\"v\":\"{PROTOCOL}\",\"op\":\"bfs\",\"id\":7,\"source\":12,\
             \"deadline_ms\":250.5,\"verify\":true,\"chaos\":\"panic\"}}"
        );
        let full = BfsRequest {
            id: 7,
            source: 12,
            deadline_ms: Some(250.5),
            verify: Some(true),
            chaos: Some("panic".into()),
        };
        assert_eq!(parse_request(&line), Ok(Request::Bfs(full.clone())));
        assert_eq!(full.to_line(), line);
        let bare = BfsRequest {
            deadline_ms: None,
            verify: None,
            chaos: None,
            ..full
        };
        let line = format!("{{\"v\":\"{PROTOCOL}\",\"op\":\"bfs\",\"id\":7,\"source\":12}}");
        assert_eq!(bare.to_line(), line);
        let line = format!("{{\"v\":\"{PROTOCOL}\",\"op\":\"shutdown\",\"id\":0}}");
        assert_eq!(control_line("shutdown", 0), line);
    }

    #[test]
    fn control_ops_parse() {
        for (op, want) in [
            ("ping", Request::Ping { id: 1 }),
            ("info", Request::Info { id: 1 }),
            ("stats", Request::Stats { id: 1 }),
            ("shutdown", Request::Shutdown { id: 1 }),
            ("metrics", Request::Metrics { id: 1 }),
        ] {
            assert_eq!(parse_request(&control_line(op, 1)).unwrap(), want);
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"bfs\"}").is_err()); // no id
        assert!(parse_request("{\"op\":\"bfs\",\"id\":1}").is_err()); // no source
        assert!(parse_request("{\"op\":\"nope\",\"id\":1}").is_err());
        assert!(
            parse_request("{\"v\":\"xbfs-serve-v0\",\"op\":\"ping\",\"id\":1}").is_err(),
            "wrong protocol version must be rejected"
        );
    }

    /// Numbers that are not exactly the integer the client meant must be
    /// refused, not clamped or truncated into a different request — and
    /// the refusal carries the request's id whenever that much parsed.
    #[test]
    fn hostile_ids_and_sources_are_refused_not_coerced() {
        for (line, id) in [
            ("{\"op\":\"bfs\",\"id\":1,\"source\":-1}", 1),
            ("{\"op\":\"bfs\",\"id\":1,\"source\":3.9}", 1),
            ("{\"op\":\"bfs\",\"id\":1,\"source\":4294967296}", 1),
            ("{\"op\":\"bfs\",\"id\":1,\"source\":1e999}", 1),
            ("{\"op\":\"bfs\",\"id\":-7,\"source\":0}", 0),
            ("{\"op\":\"bfs\",\"id\":9007199254740993,\"source\":0}", 0),
            // A budget that is not a time: `1e999` reads as infinity and
            // could not be journaled; a negative one was never meant.
            (r#"{"op":"bfs","id":1,"source":0,"deadline_ms":1e999}"#, 1),
            (r#"{"op":"bfs","id":1,"source":0,"deadline_ms":-1e999}"#, 1),
            (r#"{"op":"bfs","id":1,"source":0,"deadline_ms":-5}"#, 1),
        ] {
            match parse_request(line) {
                Err(bad) => assert_eq!(bad.id, id, "{line}: {bad:?}"),
                Ok(req) => panic!("{line} parsed to {req:?}"),
            }
        }
        // The largest values that survive the trip exactly still parse.
        let line = format!("{{\"op\":\"bfs\",\"id\":{MAX_ID},\"source\":{}}}", u32::MAX);
        match parse_request(&line).unwrap() {
            Request::Bfs(r) => assert_eq!((r.id, r.source), (MAX_ID, u32::MAX)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_lines_parse_back() {
        let over = overloaded_line(3, "queue full", 40);
        let s = parse_response(&over).unwrap();
        assert_eq!((s.id, s.status.as_str()), (3, "overloaded"));
        assert_eq!(s.retry_after_ms, Some(40));

        let err = error_line(4, "integrity", "uncorrected after 2 retries");
        let s = parse_response(&err).unwrap();
        assert_eq!(s.status, "error");
        assert_eq!(s.kind.as_deref(), Some("integrity"));

        let to = timeout_line(5, "run", 12.0, 10.0);
        assert_eq!(parse_response(&to).unwrap().status, "timeout");
    }

    #[test]
    fn ok_line_carries_digest_and_attempts() {
        let run = BfsRun {
            source: 2,
            levels: vec![1, 0, 1, xbfs_core::UNVISITED],
            parents: None,
            level_stats: vec![],
            total_ms: 1.5,
            traversed_edges: 6,
            gteps: 0.004,
            init_end_us: 0.0,
        };
        let line = ok_line(9, &run, true, 3.25, 2);
        // The wire format, byte for byte (captured before the three
        // renderers were merged): field order, `{:.6}` / `{:.3}`
        // formatting and the absence of a trailer are all part of it.
        assert_eq!(
            line,
            "{\"v\":\"xbfs-serve-v1\",\"id\":9,\"status\":\"ok\",\"source\":2,\"depth\":0,\
             \"reached\":3,\"total_ms\":1.500000,\"gteps\":0.004000,\
             \"digest\":\"0x744045af50b1da06\",\"certified\":true,\"wait_ms\":3.250,\
             \"attempts\":2}"
        );
        let s = parse_response(&line).unwrap();
        assert_eq!(s.status, "ok");
        assert_eq!(s.source, Some(2));
        assert_eq!(s.attempts, Some(2));
        assert_eq!(s.digest.unwrap(), format!("{:#018x}", run.digest()));
        assert_eq!(s.recoveries, None);
        assert_eq!(s.deduped, None);
    }

    #[test]
    fn cluster_ok_line_carries_levels_digest_and_recoveries() {
        let run = ClusterRun {
            source: 1,
            config: xbfs_multi_gcd::ClusterConfig::node_of_8(),
            fault_plan: xbfs_multi_gcd::FaultPlan::default(),
            levels: vec![1, 0, 1, 2, u32::MAX],
            level_stats: vec![],
            recoveries: vec![],
            total_ms: 2.25,
            traversed_edges: 8,
            gteps: 0.003,
            gteps_per_gcd: 0.0004,
            init_end_us: 0.0,
        };
        let line = slot_ok_line(11, &run.answer(), run.total_ms, true, 1.5, 1, None, Some(3));
        assert_eq!(
            line,
            "{\"v\":\"xbfs-serve-v1\",\"id\":11,\"status\":\"ok\",\"source\":1,\"depth\":3,\
             \"reached\":4,\"total_ms\":2.250000,\"gteps\":0.003000,\
             \"digest\":\"0xe0a356454be7213f\",\"certified\":true,\"wait_ms\":1.500,\
             \"attempts\":1,\"recoveries\":3}"
        );
        let s = parse_response(&line).unwrap();
        assert_eq!(s.status, "ok");
        assert_eq!(s.source, Some(1));
        assert_eq!(s.recoveries, Some(3));
        // Levels-only digest: identical to a single-device run of the
        // same traversal regardless of modeled timing.
        assert_eq!(
            s.digest.unwrap(),
            format!("{:#018x}", xbfs_core::levels_digest(1, &run.levels))
        );
    }

    #[test]
    fn batched_ok_line_carries_slot_digest_and_width() {
        let run = MsBfsRun {
            sources: vec![0, 2],
            levels: vec![vec![0, 1, 1, xbfs_core::UNVISITED], vec![1, 1, 0, 2]],
            slot_edges: vec![4, 6],
            total_ms: 1.25,
            traversed_edges: 10,
            gteps: 0.008,
        };
        let line = slot_ok_line(
            21,
            &run.answer(1),
            run.total_ms,
            true,
            0.5,
            1,
            Some(2),
            None,
        );
        assert_eq!(
            line,
            "{\"v\":\"xbfs-serve-v1\",\"id\":21,\"status\":\"ok\",\"source\":2,\"depth\":2,\
             \"reached\":4,\"total_ms\":1.250000,\"gteps\":0.000005,\
             \"digest\":\"0x66c8e725ce7d0395\",\"certified\":true,\"wait_ms\":0.500,\
             \"attempts\":1,\"batch\":2}"
        );
        let s = parse_response(&line).unwrap();
        assert_eq!((s.id, s.status.as_str()), (21, "ok"));
        assert_eq!(s.source, Some(2));
        assert_eq!(s.batch, Some(2));
        // The demuxed digest is the slot's levels-only result digest —
        // what a solo run of source 2 would report.
        assert_eq!(
            s.digest.unwrap(),
            format!("{:#018x}", xbfs_core::levels_digest(2, &run.levels[1]))
        );
    }

    #[test]
    fn mark_deduped_splices_flag() {
        let run = BfsRun {
            source: 2,
            levels: vec![1, 0, 1],
            parents: None,
            level_stats: vec![],
            total_ms: 1.5,
            traversed_edges: 6,
            gteps: 0.004,
            init_end_us: 0.0,
        };
        let line = mark_deduped(&ok_line(9, &run, true, 3.25, 1));
        let s = parse_response(&line).unwrap();
        assert_eq!(s.deduped, Some(true));
        assert_eq!(s.status, "ok");
        assert_eq!(s.digest.unwrap(), format!("{:#018x}", run.digest()));
    }
}
