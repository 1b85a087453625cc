//! Beamer-style direction-optimizing BFS — the classical
//! push/pull-switching algorithm XBFS's adaptive frontier generation
//! refines. Unlike XBFS it has no queue-generation menu: push levels are
//! plain top-down expansion with CAS claims and atomic enqueue; pull
//! levels scan the status array directly (no double-scan queue, no early
//! bookkeeping) with the classic `m_f > m/α`-style switch on frontier
//! edges, plus Beamer's β rule for switching back.

use crate::{finish_run, BaselineRun, GpuBfs};
use gcd_sim::{LaunchCfg, WaveCtx};
use xbfs_core::device_graph::DeviceGraph;
use xbfs_core::state::UNVISITED;
use xbfs_core::RunCtx;

/// Direction-optimizing BFS with Beamer's two-threshold heuristic.
#[derive(Debug, Clone, Copy)]
pub struct BeamerLike {
    /// Switch push→pull when `frontier_edges > |E| / alpha_div`.
    pub alpha_div: f64,
    /// Switch pull→push when `frontier_count < |V| / beta_div`.
    pub beta_div: f64,
}

impl Default for BeamerLike {
    fn default() -> Self {
        // Beamer's published defaults: α = 14, β = 24.
        Self {
            alpha_div: 14.0,
            beta_div: 24.0,
        }
    }
}

mod c {
    pub const QUEUE_LEN: usize = 0;
    pub const CLAIMED: usize = 1;
    pub const N: usize = 4;
}

impl GpuBfs for BeamerLike {
    fn name(&self) -> &'static str {
        "beamer-like"
    }

    fn run_in(&self, ctx: &RunCtx<'_>, source: u32) -> BaselineRun {
        let device = ctx.device();
        let g = ctx.graph();
        let n = g.num_vertices();
        let m = g.num_edges().max(1) as f64;
        device.reset_timeline();
        let status = device.alloc_u32(n);
        device.fill_u32(0, &status, UNVISITED);
        status.store(source as usize, 0);
        let mut in_q = device.alloc_u32(n);
        let mut out_q = device.alloc_u32(n);
        in_q.store(0, source);
        device.charge_transfer(0, 8);
        let counters = device.alloc_u32(c::N);
        let edge_ctr = device.alloc_u64(1);

        let mut qlen = 1usize;
        let mut frontier_edges = f64::from(ctx.degree(source));
        let mut frontier_count = 1u64;
        let mut pulling = false;
        let mut level = 0u32;
        loop {
            // Beamer's switch rules.
            if !pulling && frontier_edges > m / self.alpha_div {
                pulling = true;
            } else if pulling && (frontier_count as f64) < n as f64 / self.beta_div {
                pulling = false;
                // Rebuild the explicit queue the pull levels did not keep.
                device.fill_u32(0, &counters, 0);
                device.launch(
                    0,
                    LaunchCfg::new("beamer_rebuild", n).with_registers(16),
                    |w| rebuild_queue(w, &status, &in_q, &counters, level),
                );
                device.sync();
                device.charge_transfer(0, 4);
                qlen = counters.load(c::QUEUE_LEN) as usize;
            }

            device.set_phase(format!(
                "level {level} {}",
                if pulling { "pull" } else { "push" }
            ));
            device.fill_u32(0, &counters, 0);
            edge_ctr.host_fill(0);
            if pulling {
                device.launch(
                    0,
                    LaunchCfg::new("beamer_pull", n).with_registers(64),
                    |w| pull_kernel(w, g, &status, &counters, &edge_ctr, level),
                );
            } else {
                device.launch(
                    0,
                    LaunchCfg::new("beamer_push", qlen).with_registers(48),
                    |w| push_kernel(w, g, &status, &in_q, &out_q, &counters, &edge_ctr, level),
                );
            }
            device.sync();
            device.charge_transfer(0, 16);
            let claimed = u64::from(counters.load(c::CLAIMED));
            if claimed == 0 {
                break;
            }
            frontier_count = claimed;
            frontier_edges = edge_ctr.load(0) as f64;
            if !pulling {
                qlen = counters.load(c::QUEUE_LEN) as usize;
                std::mem::swap(&mut in_q, &mut out_q);
            }
            level += 1;
        }
        finish_run(ctx, status.to_host())
    }
}

#[allow(clippy::too_many_arguments)]
fn push_kernel(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    in_q: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    edge_ctr: &gcd_sim::BufU64,
    level: u32,
) {
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    let mut us = Vec::with_capacity(gids.len());
    w.vload32_range(in_q, gids.start, gids.len(), &mut us);
    let uidx = us.iter().map(|&u| u as usize);
    let mut offs = Vec::with_capacity(uidx.len());
    w.vload64(&g.offsets, uidx.clone(), &mut offs);
    let mut degs = Vec::with_capacity(uidx.len());
    w.vload32(&g.degrees, uidx, &mut degs);
    let mut lanes: Vec<(u64, u32)> = offs.iter().zip(&degs).map(|(&o, &d)| (o, d)).collect();
    let mut claimed: Vec<u32> = Vec::new();
    let mut k = 0u32;
    loop {
        lanes.retain(|&(_, d)| k < d);
        if lanes.is_empty() {
            break;
        }
        let aidx = lanes.iter().map(|&(o, _)| (o + u64::from(k)) as usize);
        let mut vs = Vec::with_capacity(aidx.len());
        w.vload32(&g.adjacency, aidx, &mut vs);
        let sidx = vs.iter().map(|&v| v as usize);
        let mut svs = Vec::with_capacity(vs.len());
        w.vload32(status, sidx.clone(), &mut svs);
        w.alu(1);
        let ops: Vec<(usize, u32, u32)> = sidx
            .zip(&svs)
            .filter(|&(_, &s)| s == UNVISITED)
            .map(|(i, _)| (i, UNVISITED, level + 1))
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
        k += 1;
    }
    commit(w, g, status, Some(out_q), counters, edge_ctr, &claimed);
}

fn pull_kernel(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    status: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    edge_ctr: &gcd_sim::BufU64,
    level: u32,
) {
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    let mut sts = Vec::with_capacity(gids.len());
    w.vload32_range(status, gids.start, gids.len(), &mut sts);
    w.alu(1);
    let unvisited: Vec<usize> = gids
        .zip(&sts)
        .filter(|&(_, &s)| s == UNVISITED)
        .map(|(v, _)| v)
        .collect();
    if unvisited.is_empty() {
        return;
    }
    let mut offs = Vec::with_capacity(unvisited.len());
    w.vload64(&g.offsets, &unvisited, &mut offs);
    let mut degs = Vec::with_capacity(unvisited.len());
    w.vload32(&g.degrees, &unvisited, &mut degs);
    struct Lane {
        v: usize,
        off: u64,
        deg: u32,
        k: u32,
    }
    let mut lanes: Vec<Lane> = unvisited
        .iter()
        .zip(offs.iter().zip(&degs))
        .filter(|&(_, (_, &d))| d > 0)
        .map(|(&v, (&off, &deg))| Lane { v, off, deg, k: 0 })
        .collect();
    let mut claimed: Vec<u32> = Vec::new();
    while !lanes.is_empty() {
        let aidx = lanes.iter().map(|l| (l.off + u64::from(l.k)) as usize);
        let mut nbrs = Vec::with_capacity(aidx.len());
        w.vload32(&g.adjacency, aidx, &mut nbrs);
        let mut nsts = Vec::with_capacity(nbrs.len());
        w.vload32(status, nbrs.iter().map(|&v| v as usize), &mut nsts);
        w.alu(1);
        let mut writes: Vec<(usize, u32)> = Vec::new();
        let mut i = 0;
        lanes.retain_mut(|l| {
            let s = nsts[i];
            i += 1;
            if s == level {
                writes.push((l.v, level + 1));
                claimed.push(l.v as u32);
                return false;
            }
            l.k += 1;
            l.k < l.deg
        });
        if !writes.is_empty() {
            w.vstore32(status, &writes);
        }
    }
    commit(w, g, status, None, counters, edge_ctr, &claimed);
}

fn rebuild_queue(
    w: &mut WaveCtx,
    status: &gcd_sim::BufU32,
    out_q: &gcd_sim::BufU32,
    counters: &gcd_sim::BufU32,
    level: u32,
) {
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    let mut sts = Vec::with_capacity(gids.len());
    w.vload32_range(status, gids.start, gids.len(), &mut sts);
    w.alu(1);
    let members: Vec<u32> = gids
        .zip(&sts)
        .filter(|&(_, &s)| s == level)
        .map(|(v, _)| v as u32)
        .collect();
    if members.is_empty() {
        return;
    }
    let base = w.wave_add32(counters, c::QUEUE_LEN, members.len() as u32) as usize;
    w.vstore32_range(out_q, base, &members);
}

fn commit(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    _status: &gcd_sim::BufU32,
    out_q: Option<&gcd_sim::BufU32>,
    counters: &gcd_sim::BufU32,
    edge_ctr: &gcd_sim::BufU64,
    claimed: &[u32],
) {
    if claimed.is_empty() {
        return;
    }
    let mut cdegs = Vec::with_capacity(claimed.len());
    w.vload32(&g.degrees, claimed.iter().map(|&v| v as usize), &mut cdegs);
    let sum = w.wave_reduce_add(&cdegs);
    w.wave_add32(counters, c::CLAIMED, claimed.len() as u32);
    w.wave_add64(edge_ctr, 0, sum);
    if let Some(q) = out_q {
        let base = w.wave_add32(counters, c::QUEUE_LEN, claimed.len() as u32) as usize;
        w.vstore32_range(q, base, claimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd_sim::Device;
    use xbfs_graph::bfs_levels_serial;
    use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};
    use xbfs_graph::Csr;

    #[test]
    fn matches_reference_on_er_and_rmat() {
        for (g, src) in [
            (erdos_renyi(500, 2000, 4), 3u32),
            (rmat_graph(RmatParams::graph500(10), 7), 0u32),
        ] {
            let dev = Device::mi250x();
            let run = BeamerLike::default().run(&dev, &g, src);
            assert_eq!(run.levels, bfs_levels_serial(&g, src));
        }
    }

    #[test]
    fn switches_direction_on_rmat() {
        // The phase tags record push/pull; R-MAT must trigger both.
        let g = rmat_graph(RmatParams::graph500(12), 5);
        let dev = Device::mi250x();
        let _ = BeamerLike::default().run(&dev, &g, 0);
        let reports = dev.take_reports();
        let pulls = reports.iter().filter(|r| r.name == "beamer_pull").count();
        let pushes = reports.iter().filter(|r| r.name == "beamer_push").count();
        assert!(pulls > 0, "never pulled");
        assert!(pushes > 0, "never pushed");
    }

    #[test]
    fn handles_disconnected() {
        let g = Csr::from_parts(vec![0, 1, 2, 2], vec![1, 0]).unwrap();
        let dev = Device::mi250x();
        let run = BeamerLike::default().run(&dev, &g, 0);
        assert_eq!(run.levels, vec![0, 1, u32::MAX]);
    }
}
