//! The three XBFS frontier-queue-generation strategies and the per-level
//! kernel-launch orchestration.

pub mod bottom_up;
pub mod topdown;

use crate::config::XbfsConfig;
use crate::device_graph::DeviceGraph;
use crate::state::{ctr, ectr, BfsState, BinThresholds, QueueState};
use gcd_sim::{Device, GroupCfg, LaunchCfg};

pub use bottom_up::BottomUpOpts;
pub use topdown::{TopDownOpts, GROUP_WAVES};

/// Register budgets the kernels "compile" to (drives the occupancy model;
/// the bottom-up expander is the register-hungry kernel whose footprint
/// separates clang from hipcc in §IV-A).
mod regs {
    pub const SCAN: u32 = 16;
    pub const TOP_DOWN_EXPAND: u32 = 48;
    pub const BOTTOM_UP_EXPAND: u32 = 110;
    pub const PREFIX: u32 = 16;
    pub const RESET: u32 = 8;
}

/// One of XBFS's frontier-queue-generation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Atomic status claim + wave-aggregated atomic enqueue; no status
    /// scan. Best at very small edge ratios (§III-A).
    ScanFree,
    /// Plain status writes during expansion; one status scan builds the
    /// queue (skippable via NFG). Best at moderate ratios (§III-B).
    SingleScan,
    /// Double-scan queue of unvisited vertices + early-terminating pull.
    /// Best above `α` (§III-C).
    BottomUp,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::ScanFree => "scan-free",
            Strategy::SingleScan => "single-scan",
            Strategy::BottomUp => "bottom-up",
        };
        write!(f, "{s}")
    }
}

/// Reset the per-level counter block (models the small `hipMemsetAsync`
/// XBFS issues between levels).
pub fn launch_reset_counters(dev: &Device, stream: usize, st: &BfsState) {
    dev.launch(
        stream,
        LaunchCfg::new("reset_counters", ctr::N).with_registers(regs::RESET),
        |w| {
            let lanes = w.lanes();
            w.vstore32(&st.counters, lanes.map(|g| (g, 0)));
            if w.wave_id() == 0 {
                w.vstore64(&st.edge_counters, (0..ectr::N).map(|i| (i, 0)));
            }
        },
    );
}

/// Launch the frontier-generation scan (single-scan kernel 1): builds the
/// *current* frontier into `next_queues` from the status array. The caller
/// syncs, reads the lengths, and swaps queues.
pub fn launch_generation_scan(
    dev: &Device,
    stream: usize,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    cfg: &XbfsConfig,
) {
    let thresholds = BinThresholds::for_width(dev.arch().wavefront_size);
    let balancing = cfg.balancing_top_down;
    dev.launch(
        stream,
        LaunchCfg::new("fq_generate", g.num_vertices()).with_registers(regs::SCAN),
        move |w| topdown::generation_scan(w, g, st, level, balancing, thresholds),
    );
}

/// Launch the top-down expansion of the current frontier.
///
/// `qstate` selects the input: degree-binned exact queues (one kernel per
/// non-empty bin, optionally on separate streams) or the stale bottom-up
/// superset with a status filter.
pub fn launch_top_down_expand(
    dev: &Device,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    qstate: QueueState,
    atomic_claim: bool,
    cfg: &XbfsConfig,
) {
    let thresholds = BinThresholds::for_width(dev.arch().wavefront_size);
    let width = dev.arch().wavefront_size;
    let opts = TopDownOpts {
        level,
        atomic_claim,
        // Scan-free builds the next queue during expansion.
        enqueue: atomic_claim,
        filter: false,
        balancing: cfg.balancing_top_down,
        thresholds,
    };
    match qstate {
        QueueState::Exact(lens) => {
            for (b, &len) in lens.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let stream = if cfg.multi_stream { b } else { 0 };
                let q = &st.queues[b];
                match b {
                    0 => {
                        dev.launch(
                            stream,
                            LaunchCfg::new("fq_expand_thread", len)
                                .with_registers(regs::TOP_DOWN_EXPAND),
                            move |w| topdown::expand_thread(w, g, st, q, &opts),
                        );
                    }
                    1 => {
                        dev.launch(
                            stream,
                            LaunchCfg::new("fq_expand_wave", len * width)
                                .with_registers(regs::TOP_DOWN_EXPAND),
                            move |w| topdown::expand_wave(w, g, st, q, len, &opts),
                        );
                    }
                    _ => {
                        // Block-centric updating (§IV-A): a workgroup per
                        // very-high-degree vertex, claims staged in LDS.
                        dev.launch_groups(
                            stream,
                            GroupCfg::new("fq_expand_block", len)
                                .with_waves(GROUP_WAVES)
                                .with_registers(regs::TOP_DOWN_EXPAND),
                            move |grp| topdown::expand_block(grp, g, st, q, len, &opts),
                        );
                    }
                }
            }
        }
        QueueState::Superset(len) => {
            if len == 0 {
                return;
            }
            let opts = TopDownOpts {
                filter: true,
                ..opts
            };
            let q = &st.bu_queue;
            dev.launch(
                0,
                LaunchCfg::new("fq_expand_filtered", len).with_registers(regs::TOP_DOWN_EXPAND),
                move |w| topdown::expand_thread(w, g, st, q, &opts),
            );
        }
        QueueState::None => panic!("top-down expansion requires a queue"),
    }
}

/// Launch the five bottom-up kernels for one level. Returns nothing; the
/// caller reads `counters[BU_LEN]`, `CLAIMED` and `PROACTIVE` after sync.
pub fn launch_bottom_up_level(
    dev: &Device,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    cfg: &XbfsConfig,
) {
    let n = g.num_vertices();
    let width = dev.arch().wavefront_size;
    let n_segs = st.seg_counts.len();
    dev.launch(
        0,
        LaunchCfg::new("bu_count", n_segs).with_registers(regs::SCAN),
        move |w| bottom_up::bu_count(w, st, n),
    );
    dev.launch(
        0,
        LaunchCfg::new("bu_reduce", st.block_sums.len() * width).with_registers(regs::PREFIX),
        move |w| bottom_up::bu_reduce(w, st),
    );
    dev.launch(
        0,
        LaunchCfg::new("bu_scan", width).with_registers(regs::PREFIX),
        move |w| bottom_up::bu_scan(w, st),
    );
    dev.launch(
        0,
        LaunchCfg::new("bu_place", n_segs).with_registers(regs::SCAN),
        move |w| bottom_up::bu_place(w, st, n),
    );
    // The queue length lives on-device; launching the expansion over the
    // worst case (|V|) would distort costs, so the runner performs a tiny
    // readback (charged) to size the launch — mirroring XBFS, which reads
    // the frontier count back every level anyway to drive the controller.
    dev.charge_transfer(0, 4);
    let bu_len = st.counters.load(ctr::BU_LEN) as usize;
    let opts = BottomUpOpts {
        level,
        proactive: cfg.proactive,
    };
    if bu_len == 0 {
        return;
    }
    if cfg.balancing_bottom_up {
        dev.launch(
            0,
            LaunchCfg::new("bu_expand_wave", bu_len * width).with_registers(regs::BOTTOM_UP_EXPAND),
            move |w| bottom_up::bu_expand_wave(w, g, st, bu_len, &opts),
        );
    } else {
        dev.launch(
            0,
            LaunchCfg::new("bu_expand", bu_len).with_registers(regs::BOTTOM_UP_EXPAND),
            move |w| bottom_up::bu_expand_thread(w, g, st, bu_len, &opts),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::UNVISITED;
    use xbfs_graph::generators::erdos_renyi;

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::ScanFree.to_string(), "scan-free");
        assert_eq!(Strategy::SingleScan.to_string(), "single-scan");
        assert_eq!(Strategy::BottomUp.to_string(), "bottom-up");
    }

    #[test]
    fn reset_counters_zeroes_everything() {
        let dev = Device::mi250x();
        let st = BfsState::new(&dev, 100, false);
        st.counters.host_fill(9);
        st.edge_counters.host_fill(9);
        launch_reset_counters(&dev, 0, &st);
        assert!(st.counters.to_host().iter().all(|&v| v == 0));
        assert!(st.edge_counters.to_host().iter().all(|&v| v == 0));
    }

    #[test]
    fn bottom_up_level_runs_five_kernels() {
        let g = erdos_renyi(500, 2500, 1);
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        let st = BfsState::new(&dev, g.num_vertices(), false);
        st.status.host_fill(UNVISITED);
        st.status.store(0, 0);
        let cfg = XbfsConfig::default();
        launch_bottom_up_level(&dev, &dg, &st, 0, &cfg);
        let reports = dev.take_reports();
        let names: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["bu_count", "bu_reduce", "bu_scan", "bu_place", "bu_expand"]
        );
        assert!(st.counters.load(ctr::CLAIMED) > 0);
    }

    #[test]
    #[should_panic(expected = "requires a queue")]
    fn top_down_from_none_panics() {
        let g = erdos_renyi(50, 100, 2);
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        let st = BfsState::new(&dev, 50, false);
        let cfg = XbfsConfig::default();
        launch_top_down_expand(&dev, &dg, &st, 0, QueueState::None, true, &cfg);
    }
}
