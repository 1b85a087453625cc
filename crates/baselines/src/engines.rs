//! The queue-based and status-array baselines: every [`crate::Algo`] but
//! Beamer's. Each returns the level array, or stops at the deadline
//! between two levels.

use crate::Baseline;
use gcd_sim::{Device, LaunchCfg, WaveCtx};
use xbfs_core::device_graph::DeviceGraph;
use xbfs_core::engine::check_deadline;
use xbfs_core::state::{BfsState, BinThresholds, UNVISITED};
use xbfs_core::strategy::topdown::{self, TopDownOpts};
use xbfs_core::EngineError;

/// Scratch counters shared by the engines.
mod c {
    pub const OUT_LEN: usize = 0;
    pub const CLAIMED: usize = 1;
    pub const N: usize = 2;
}

fn init_status(device: &Device, n: usize, source: u32) -> gcd_sim::BufU32 {
    let status = device.alloc_u32(n);
    device.fill_u32(0, &status, UNVISITED);
    status.store(source as usize, 0);
    device.charge_transfer(0, 4);
    status
}

impl Baseline<'_> {
    pub(crate) fn status_array(
        &self,
        source: u32,
        deadline_ms: Option<f64>,
    ) -> Result<Vec<u32>, EngineError> {
        let (device, g) = (&self.device, &self.graph);
        let n = g.num_vertices();
        let status = init_status(device, n, source);
        let counters = device.alloc_u32(c::N);
        let mut level = 0u32;
        loop {
            device.set_phase(format!("level {level}"));
            device.fill_u32(0, &counters, 0);
            device.launch(
                0,
                LaunchCfg::new("scan_expand", n).with_registers(48),
                |w| scan_expand_kernel(w, g, &status, &counters, level),
            );
            device.sync();
            device.charge_transfer(0, 4);
            if counters.load(c::CLAIMED) == 0 {
                break;
            }
            check_deadline(deadline_ms, device.elapsed_us(), level + 1)?;
            level += 1;
        }
        Ok(status.to_host())
    }
}

/// Scan the status array; every lane holding a `level` vertex expands it
/// with CAS claims.
fn scan_expand_kernel(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    level: u32,
) {
    let us = w.lanes_where(status, |s| s == level);
    if us.is_empty() {
        return;
    }
    let claimed = expand_claiming(w, g, status, &us, level + 1);
    if !claimed.is_empty() {
        w.wave_add32(counters, c::CLAIMED, claimed.len() as u32);
    }
}

/// Walk the rows of the vertices `us` one neighbor per lane per round, the
/// inner loop of every queue baseline's expand kernel: load each row's
/// offset and degree, then in round `k` load the `k`-th neighbor of every
/// lane whose row is longer than `k` and hand `round` those lanes
/// (positions in `us`) and neighbors.
fn walk_rows(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    us: &[u32],
    mut round: impl FnMut(&mut WaveCtx, &[usize], &[u32]),
) {
    let uidx = us.iter().map(|&u| u as usize);
    let mut offs = Vec::with_capacity(uidx.len());
    w.vload64(&g.offsets, uidx.clone(), &mut offs);
    let mut degs = Vec::with_capacity(uidx.len());
    w.vload32(&g.degrees, uidx, &mut degs);
    let mut lanes: Vec<usize> = (0..us.len()).collect();
    for k in 0u32.. {
        lanes.retain(|&l| k < degs[l]);
        if lanes.is_empty() {
            return;
        }
        let aidx = lanes.iter().map(|&l| (offs[l] + u64::from(k)) as usize);
        let mut vs = Vec::with_capacity(aidx.len());
        w.vload32(&g.adjacency, aidx, &mut vs);
        round(w, &lanes, &vs);
    }
}

/// Expand the rows of `us` top-down, claiming with CAS for `level` every
/// neighbor whose status reads unvisited; returns the winners.
pub(crate) fn expand_claiming(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    us: &[u32],
    level: u32,
) -> Vec<u32> {
    let mut claimed = Vec::new();
    walk_rows(w, g, us, |w, _, vs| {
        let vsidx = vs.iter().map(|&v| v as usize);
        let mut svs = Vec::with_capacity(vs.len());
        w.vload32(status, vsidx.clone(), &mut svs);
        w.alu(1);
        let ops: Vec<(usize, u32, u32)> = vsidx
            .zip(&svs)
            .filter(|&(_, &s)| s == UNVISITED)
            .map(|(i, _)| (i, UNVISITED, level))
            .collect();
        if !ops.is_empty() {
            let mut results = Vec::with_capacity(ops.len());
            w.vcas32(status, &ops, &mut results);
            claimed.extend(
                ops.iter()
                    .zip(&results)
                    .filter(|&(_, r)| r.is_ok())
                    .map(|(&(i, _, _), _)| i as u32),
            );
        }
    });
    claimed
}

impl Baseline<'_> {
    pub(crate) fn gunrock(
        &self,
        source: u32,
        deadline_ms: Option<f64>,
    ) -> Result<Vec<u32>, EngineError> {
        let (device, g) = (&self.device, &self.graph);
        let n = g.num_vertices();
        let m = g.num_edges().max(1);
        let status = init_status(device, n, source);
        // Edge-frontier buffers sized for the worst case — the §II space
        // problem is real: the raw (unfiltered) frontier can approach |M|.
        let raw_q = device.alloc_u32(m);
        let in_q = device.alloc_u32(n);
        let counters = device.alloc_u32(c::N);
        in_q.store(0, source);
        device.charge_transfer(0, 4);
        let mut qlen = 1usize;
        let mut level = 0u32;
        while qlen > 0 {
            device.set_phase(format!("level {level}"));
            device.fill_u32(0, &counters, 0);
            // Advance: enqueue every unvisited neighbor, unclaimed — dups.
            device.launch(0, LaunchCfg::new("advance", qlen).with_registers(40), |w| {
                gunrock_advance(w, g, &status, &in_q, &raw_q, &counters)
            });
            device.sync();
            device.charge_transfer(0, 4);
            let raw_len = (counters.load(c::OUT_LEN) as usize).min(m);
            device.fill_u32(0, &counters, 0);
            // Filter: CAS-claim and compact the deduplicated frontier.
            device.launch(
                0,
                LaunchCfg::new("filter", raw_len).with_registers(24),
                |w| gunrock_filter(w, &status, &raw_q, &in_q, &counters, level + 1),
            );
            device.sync();
            device.charge_transfer(0, 4);
            qlen = counters.load(c::OUT_LEN) as usize;
            level += 1;
            if qlen > 0 {
                check_deadline(deadline_ms, device.elapsed_us(), level)?;
            }
        }
        Ok(status.to_host())
    }
}

fn gunrock_advance(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    in_q: &gcd_sim::BufU32,
    raw_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
) {
    let Some(us) = w.lane_entries32(in_q) else {
        return;
    };
    let mut out: Vec<u32> = Vec::new();
    walk_rows(w, g, &us, |w, _, vs| {
        let mut svs = Vec::with_capacity(vs.len());
        w.vload32(status, vs.iter().map(|&v| v as usize), &mut svs);
        w.alu(1);
        // No claim: every unvisited sighting is enqueued (duplicates!).
        out.extend(
            vs.iter()
                .zip(&svs)
                .filter(|&(_, &s)| s == UNVISITED)
                .map(|(&v, _)| v),
        );
    });
    if out.is_empty() {
        return;
    }
    let base = w.wave_add32(counters, c::OUT_LEN, out.len() as u32) as usize;
    store_clipped(w, raw_q, base, &out);
}

fn gunrock_filter(
    w: &mut WaveCtx,
    status: &gcd_sim::BufU32,
    raw_q: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    next_level: u32,
) {
    let Some(vs) = w.lane_entries32(raw_q) else {
        return;
    };
    let ops = vs.iter().map(|&v| (v as usize, UNVISITED, next_level));
    let mut results = Vec::with_capacity(vs.len());
    w.vcas32(status, ops, &mut results);
    let winners: Vec<u32> = vs
        .iter()
        .zip(&results)
        .filter(|&(_, r)| r.is_ok())
        .map(|(&v, _)| v)
        .collect();
    if winners.is_empty() {
        return;
    }
    let base = w.wave_add32(counters, c::OUT_LEN, winners.len() as u32) as usize;
    w.vstore32_range(out_q, base, &winners);
}

impl Baseline<'_> {
    pub(crate) fn enterprise(
        &self,
        source: u32,
        deadline_ms: Option<f64>,
    ) -> Result<Vec<u32>, EngineError> {
        let (device, g) = (&self.device, &self.graph);
        let n = g.num_vertices();
        let mut st = BfsState::new(device, n, false);
        device.fill_u32(0, &st.status, UNVISITED);
        st.status.store(source as usize, 0);
        device.charge_transfer(0, 4);
        let thresholds = BinThresholds::for_width(device.arch().wavefront_size);
        let width = device.arch().wavefront_size;
        let mut level = 0u32;
        loop {
            device.set_phase(format!("level {level}"));
            device.fill_u32(0, &st.counters, 0);
            // Scan-based queue generation, every level (§II "Scan Approach").
            device.launch(
                0,
                LaunchCfg::new("enterprise_scan", n).with_registers(16),
                |w| topdown::generation_scan(w, g, &st, level, true, thresholds),
            );
            device.sync();
            device.charge_transfer(0, 12);
            let lens = st.next_queue_lens();
            st.swap_queues();
            if lens.iter().sum::<usize>() == 0 {
                break;
            }
            // Only the scan knows whether a level is left: check here.
            if level > 0 {
                check_deadline(deadline_ms, device.elapsed_us(), level)?;
            }
            device.fill_u32(0, &st.counters, 0);
            let opts = TopDownOpts {
                level,
                atomic_claim: true,
                enqueue: false,
                filter: false,
                balancing: true,
                thresholds,
            };
            for (b, &len) in lens.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let q = &st.queues[b];
                match b {
                    0 => {
                        device.launch(
                            0,
                            LaunchCfg::new("enterprise_expand_t", len).with_registers(48),
                            |w| topdown::expand_thread(w, g, &st, q, &opts),
                        );
                    }
                    1 => {
                        device.launch(
                            0,
                            LaunchCfg::new("enterprise_expand_w", len * width).with_registers(48),
                            |w| topdown::expand_wave(w, g, &st, q, len, &opts),
                        );
                    }
                    _ => {
                        device.launch(
                            0,
                            LaunchCfg::new("enterprise_expand_g", len * width * 4)
                                .with_registers(48),
                            |w| topdown::expand_group(w, g, &st, q, len, &opts),
                        );
                    }
                }
            }
            device.sync();
            device.charge_transfer(0, 4);
            level += 1;
        }
        Ok(st.status.to_host())
    }
}

/// Per-wave private sub-queue capacity (entries).
const HQ_REGION: usize = 512;

impl Baseline<'_> {
    pub(crate) fn hier_queue(
        &self,
        source: u32,
        deadline_ms: Option<f64>,
    ) -> Result<Vec<u32>, EngineError> {
        let (device, g) = (&self.device, &self.graph);
        let n = g.num_vertices();
        let width = device.arch().wavefront_size;
        let status = init_status(device, n, source);
        let mut in_q = device.alloc_u32(n);
        let mut out_q = device.alloc_u32(n);
        in_q.store(0, source);
        device.charge_transfer(0, 4);
        let counters = device.alloc_u32(c::N);
        let mut qlen = 1usize;
        let mut level = 0u32;
        while qlen > 0 {
            device.set_phase(format!("level {level}"));
            let n_waves = qlen.div_ceil(width);
            // The "enormous space consumption" of §II: a private region per
            // wave, reallocated each level.
            let regions = device.alloc_u32(n_waves * HQ_REGION);
            let region_counts = device.alloc_u32(n_waves);
            device.fill_u32(0, &counters, 0);
            device.launch(
                0,
                LaunchCfg::new("hq_expand", qlen).with_registers(48),
                |w| {
                    hq_expand(
                        w,
                        g,
                        &status,
                        &in_q,
                        &regions,
                        &region_counts,
                        &out_q,
                        &counters,
                        level,
                    )
                },
            );
            // Compact: one wave per region, strided reads.
            device.launch(
                0,
                LaunchCfg::new("hq_compact", n_waves * width).with_registers(16),
                |w| hq_compact(w, &regions, &region_counts, &out_q, &counters),
            );
            device.sync();
            device.charge_transfer(0, 8);
            qlen = counters.load(c::OUT_LEN) as usize;
            // Ping-pong the global queues (a pointer swap on real hardware).
            std::mem::swap(&mut in_q, &mut out_q);
            level += 1;
            if qlen > 0 {
                check_deadline(deadline_ms, device.elapsed_us(), level)?;
            }
        }
        Ok(status.to_host())
    }
}

#[allow(clippy::too_many_arguments)]
fn hq_expand(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    in_q: &gcd_sim::BufU32,
    regions: &gcd_sim::BufU32,
    region_counts: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    level: u32,
) {
    let Some(us) = w.lane_entries32(in_q) else {
        return;
    };
    let claimed = expand_claiming(w, g, status, &us, level + 1);
    // Write into this wave's private region; overflow takes the slow path
    // of per-claim global atomics straight into the out queue (both paths
    // allocate from OUT_LEN, so compact and spills interleave safely).
    let region_base = w.wave_id() * HQ_REGION;
    let local = &claimed[..claimed.len().min(HQ_REGION)];
    w.vstore32_range(regions, region_base, local);
    w.sstore32(region_counts, w.wave_id(), local.len() as u32);
    if claimed.len() > HQ_REGION {
        let cap = out_q.len();
        for &v in &claimed[HQ_REGION..] {
            let slot = w.wave_add32(counters, c::OUT_LEN, 1) as usize;
            if slot < cap {
                w.sstore32(out_q, slot, v);
            }
        }
    }
}

fn hq_compact(
    w: &mut WaveCtx,
    regions: &gcd_sim::BufU32,
    region_counts: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
) {
    let r = w.wave_id();
    if r >= region_counts.len() {
        return;
    }
    let cnt = w.sload32(region_counts, r) as usize;
    if cnt == 0 {
        return;
    }
    let base = w.wave_add32(counters, c::OUT_LEN, cnt as u32) as usize;
    let mut vals = Vec::with_capacity(cnt);
    w.vload32_range(regions, r * HQ_REGION, cnt, &mut vals);
    store_clipped(w, out_q, base, &vals);
}

impl Baseline<'_> {
    /// The deadline is checked between relaxation rounds.
    pub(crate) fn sssp(
        &self,
        source: u32,
        deadline_ms: Option<f64>,
    ) -> Result<Vec<u32>, EngineError> {
        let (device, g) = (&self.device, &self.graph);
        let n = g.num_vertices();
        let m = g.num_edges().max(1);
        let dist = init_status(device, n, source);
        let mut in_q = device.alloc_u32(m);
        let mut out_q = device.alloc_u32(m);
        let counters = device.alloc_u32(c::N);
        in_q.store(0, source);
        device.charge_transfer(0, 4);
        let mut qlen = 1usize;
        let mut iter = 0u32;
        while qlen > 0 {
            device.set_phase(format!("iter {iter}"));
            device.fill_u32(0, &counters, 0);
            device.launch(0, LaunchCfg::new("relax", qlen).with_registers(40), |w| {
                sssp_relax(w, g, &dist, &in_q, &out_q, &counters)
            });
            device.sync();
            device.charge_transfer(0, 4);
            qlen = (counters.load(c::OUT_LEN) as usize).min(m);
            // Swap worklists (a pointer swap on real hardware).
            std::mem::swap(&mut in_q, &mut out_q);
            iter += 1;
            if qlen > 0 {
                check_deadline(deadline_ms, device.elapsed_us(), iter)?;
            }
        }
        Ok(dist.to_host())
    }
}

fn sssp_relax(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    dist: &gcd_sim::BufU32,
    in_q: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
) {
    let Some(us) = w.lane_entries32(in_q) else {
        return;
    };
    let mut dus = Vec::with_capacity(us.len());
    w.vload32(dist, us.iter().map(|&u| u as usize), &mut dus);
    let mut improved: Vec<u32> = Vec::new();
    walk_rows(w, g, &us, |w, lanes, vs| {
        // Atomic-min relaxation per neighbor.
        let ops: Vec<(usize, u32)> = vs
            .iter()
            .zip(lanes)
            .map(|(&v, &l)| (v as usize, dus[l].saturating_add(1)))
            .collect();
        let mut prevs = Vec::with_capacity(ops.len());
        w.vmin32(dist, &ops, &mut prevs);
        w.alu(1);
        for ((&v, &prev), &(_, nd)) in vs.iter().zip(&prevs).zip(&ops) {
            if nd < prev {
                improved.push(v);
            }
        }
    });
    if improved.is_empty() {
        return;
    }
    let base = w.wave_add32(counters, c::OUT_LEN, improved.len() as u32) as usize;
    store_clipped(w, out_q, base, &improved);
}

/// Append `vals` to `q` from slot `base` up, dropping what would land past
/// its end (worklists are sized for the worst case the model charges for).
fn store_clipped(w: &mut WaveCtx, q: &gcd_sim::BufU32, base: usize, vals: &[u32]) {
    let fits = vals.len().min(q.len().saturating_sub(base));
    w.vstore32_range(q, base, &vals[..fits]);
}

#[cfg(test)]
mod tests {
    use crate::tests::run_once;
    use crate::Algo;
    use xbfs_graph::bfs_levels_serial;
    use xbfs_graph::generators::barabasi_albert;

    #[test]
    fn gunrock_struggles_on_hub_heavy_graphs() {
        // §II / Fig. 8: duplicated frontiers hurt Gunrock most where the
        // average degree is high. Compare its time against the scan-based
        // engine on a hubby BA graph.
        let g = barabasi_albert(30_000, 30, 5);
        let gunrock = run_once(Algo::Gunrock, &g, 0);
        let enterprise = run_once(Algo::Enterprise, &g, 0);
        assert!(
            gunrock.total_ms > enterprise.total_ms,
            "gunrock {} ms should trail enterprise {} ms on hub-heavy input",
            gunrock.total_ms,
            enterprise.total_ms
        );
    }

    #[test]
    fn sssp_does_redundant_work() {
        // The async engine must still terminate and be correct despite
        // multiple relaxations; its iteration count can exceed the BFS
        // depth.
        let g = barabasi_albert(1000, 4, 2);
        let run = run_once(Algo::Sssp, &g, 0);
        assert_eq!(run.levels[0], bfs_levels_serial(&g, 0));
    }
}
