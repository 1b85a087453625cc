//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository
//! root carries the same table; a unit test keeps the two equal.

use crate::stats::Better;
use Better::{Higher, Lower};

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop on `Xbfs::run`, functional execution.
    DirectSolo,
    /// Closed loop on `Xbfs::run`, timing execution (L2 + replay).
    DirectTiming,
    /// One connection, one outstanding request, solo server engine.
    ServeLone,
    /// One pipelined connection, many outstanding, batched server.
    ServeBatch,
}

impl Kind {
    /// Both direct kinds drive `Xbfs::run` with no server in between.
    pub fn is_direct(self) -> bool {
        matches!(self, Kind::DirectSolo | Kind::DirectTiming)
    }
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// R-MAT scale (log2 of the vertex count).
    pub scale: u32,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "direct-solo-s16",
        kind: Kind::DirectSolo,
        scale: 16,
        why: "Xbfs::run, functional mode, R-MAT s16: gcd-sim lane ops and core strategies do all the work; no server, no batching",
    },
    Workload {
        name: "direct-timing-s14",
        kind: Kind::DirectTiming,
        scale: 14,
        why: "Xbfs::run, timing mode, R-MAT s14: the same gcd-sim layer through the shared L2, coalescer and wave replay",
    },
    Workload {
        name: "serve-lone-s14",
        kind: Kind::ServeLone,
        scale: 14,
        why: "solo server, one connection, one outstanding request: the server shell dominates, the engine is a small share",
    },
    Workload {
        name: "serve-batch-hot-s14",
        kind: Kind::ServeBatch,
        scale: 14,
        why: "64-wide batched server, verify and journal on, 128 outstanding Zipf sources: coalescing, certificates, journal on the hot path",
    },
];

const fn short(name: &'static str, kind: Kind) -> Workload {
    Workload {
        name,
        kind,
        scale: 14,
        why: "short session inside a traced run",
    }
}

/// One short scale-14 session per kind of driving, run inside traced
/// runs of the workloads of another kind so that every layer reports.
pub const SHORT_SESSIONS: [Workload; 3] = [
    short("short-direct", Kind::DirectSolo),
    short("short-lone", Kind::ServeLone),
    short("short-batch", Kind::ServeBatch),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these on an untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_overhead_x", "x", Lower, 0.25),
    e2e("host_overhead_p90_x", "x", Lower, 0.25),
    e2e("cpu_overhead_x", "x", Lower, 0.25),
    e2e("modeled_gteps", "GTEPS", Higher, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a direction per layer; the test below reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these on a traced run.
pub const PER_LAYER: [PerLayer; 45] = [
    layer("client.latency_p50_ms", "ms", Lower),
    layer("client.latency_p90_ms", "ms", Lower),
    layer("graph.rmat_gen_s", "s", Lower),
    layer("graph.edges", "count", Higher),
    layer("oracle.yardstick_ms", "ms", Lower),
    layer("gcd-sim.functional_ns_per_lane", "ns", Lower),
    layer("gcd-sim.timing_ns_per_lane", "ns", Lower),
    layer("gcd-sim.launch_fixed_us", "us", Lower),
    layer("gcd-sim.kernel_launches_per_query", "count", Lower),
    layer("gcd-sim.modeled_fetch_mb_per_query", "MB", Lower),
    layer("gcd-sim.l2_hit_pct", "%", Higher),
    layer("gcd-sim.pool_allocs_per_query", "count", Lower),
    layer("core.xbfs_new_ms", "ms", Lower),
    layer("core.run_wall_ms", "ms", Lower),
    layer("core.host_ns_per_edge", "ns", Lower),
    layer("core.levels_per_query", "count", Lower),
    layer("core.modeled_ms_per_query", "ms", Lower),
    layer("core.strategy_share.scan_free", "%", Higher),
    layer("core.strategy_share.single_scan", "%", Higher),
    layer("core.strategy_share.bottom_up", "%", Higher),
    layer("core.certify_ms", "ms", Lower),
    layer("core.msbfs_w64_ms", "ms", Lower),
    layer("core.msbfs_w1_ms", "ms", Lower),
    layer("core.msbfs_modeled_gteps_w64", "GTEPS", Higher),
    layer("multi-gcd.partition_ms", "ms", Lower),
    layer("multi-gcd.run_overhead_x", "x", Lower),
    layer("multi-gcd.exchanged_bytes_per_query", "bytes", Lower),
    layer("server.startup_ms", "ms", Lower),
    layer("server.protocol.parse_ns", "ns", Lower),
    layer("server.protocol.ok_line_ns", "ns", Lower),
    layer("server.queue.submit_pop_ns", "ns", Lower),
    layer("server.dedup.record_lookup_ns", "ns", Lower),
    layer("server.journal.append_us", "us", Lower),
    layer("server.journal.replay_mb_s", "MB/s", Higher),
    layer("server.queue_wait_ms", "ms", Lower),
    layer("server.shell_ms", "ms", Lower),
    layer("server.batch_fill", "%", Higher),
    layer("server.journal_fsyncs_per_request", "count", Lower),
    layer("server.served_qps_raw", "1/s", Higher),
    layer("server.registry_latency_p50_ms", "ms", Lower),
    layer("telemetry.registry_update_ns", "ns", Lower),
    layer("telemetry.json_parse_ns", "ns", Lower),
    layer("benchmark.trace_overhead_pct", "%", Lower),
    layer("benchmark.samples", "count", Higher),
    layer("benchmark.setup_wall_s", "s", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_telemetry::JsonValue;

    fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key).and_then(|s| s.as_str()).expect(key)
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = JsonValue::parse(&text).expect("BENCHMARK.json parses");

        let workloads = v.get("workloads").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(w.why.len() <= 200);
        }

        let e2e = v.get("end_to_end").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), Some(m.bound));
            assert!(m.bound <= 0.25);
        }

        let layers = v.get("per_layer").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }

        let paths = v.get("paths").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }
}
