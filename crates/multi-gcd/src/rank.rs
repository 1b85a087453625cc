//! One rank of the cluster: its device, its buffers, and the kernels of
//! its local level step. A level is two local steps around one exchange
//! (the local-step / exchange seam of Buluç et al.):
//!
//! * [`RankState::first_step`] — pushing, `dist_expand` claims owned
//!   neighbours in place and buckets remote ones by owner; pulling,
//!   `dist_bitmap_set` marks the rank's frontier in its bitmap;
//! * the exchange, on the host in rank order (`GcdCluster`, `bfs.rs`) —
//!   the all-to-all of the buckets into the owners' inboxes, or the
//!   allgather of the bitmaps merged into every rank's copy;
//! * [`RankState::second_step`] — pushing, `dist_claim` claims the inbox;
//!   pulling, `dist_pull` probes every unvisited owned vertex against the
//!   merged bitmap.
//!
//! A step borrows only `&RankState` and read-only partition data, so the
//! ranks of one level share nothing until the exchange.

use crate::bfs::UNVISITED;
use crate::partition::{Part, Partition};
use gcd_sim::{ArchProfile, BufU32, BufU64, Device, ExecMode, LaunchCfg, WaveCtx};
use xbfs_graph::Csr;

/// Per-destination out-bucket slack factor over the uniform share.
const BUCKET_SLACK: usize = 4;

/// One rank's device and its device-resident state.
pub(crate) struct RankState {
    pub(crate) device: Device,
    /// Local CSR on device (targets are global ids).
    offsets: BufU64,
    adjacency: BufU32,
    degrees: BufU32,
    /// Local status array.
    pub(crate) status: BufU32,
    /// Local frontier queues (global ids of owned vertices).
    pub(crate) frontier: BufU32,
    next_frontier: BufU32,
    /// Per-destination candidate buckets, one per rank.
    pub(crate) buckets: Vec<BufU32>,
    /// Inbox for received candidates.
    pub(crate) inbox: BufU32,
    /// Counters: `[0..P)` bucket lengths, `[P+1]` claimed (the next
    /// frontier's length). `[P]` and `[P+2]` are never written, but the
    /// `P + 3` length sets the addresses of later buffers and the cost of
    /// zeroing, so it stays.
    counters: BufU32,
    /// 64-bit counter: claimed degree sum.
    edge_counters: BufU64,
    /// Global frontier bitmap (1 bit per global vertex).
    pub(crate) bitmap: BufU32,
}

impl RankState {
    /// Upload `part` of `graph` to a fresh GCD of a `p`-rank cluster.
    pub(crate) fn new(graph: &Csr, part: &Part, p: usize) -> Self {
        let device = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Functional, 1);
        let local = &part.local;
        let n_local = part.len().max(1);
        let bucket_cap = (local.num_edges() * BUCKET_SLACK / p.max(1)).max(1024);
        let degrees: Vec<u32> = (0..part.len() as u32).map(|v| local.degree(v)).collect();
        Self {
            offsets: device.upload_u64(local.offsets()),
            adjacency: device.upload_u32(local.adjacency()),
            degrees: device.upload_u32(&degrees),
            status: device.alloc_u32(n_local),
            frontier: device.alloc_u32(n_local),
            next_frontier: device.alloc_u32(n_local),
            buckets: (0..p).map(|_| device.alloc_u32(bucket_cap)).collect(),
            inbox: device.alloc_u32(local.num_edges().max(1024)),
            counters: device.alloc_u32(p + 3),
            edge_counters: device.alloc_u64(1),
            bitmap: device.alloc_u32(graph.num_vertices().div_ceil(32).max(1)),
            device,
        }
    }

    /// A rank rebuilt after a crash: [`RankState::new`] with its clock at
    /// `t_us`, charged for re-uploading its graph block over the fabric.
    pub(crate) fn respawn(graph: &Csr, part: &Part, p: usize, t_us: f64) -> Self {
        let r = Self::new(graph, part, p);
        let upload_bytes =
            8 * (part.len() as u64 + 1) + 4 * part.local.num_edges() as u64 + 4 * part.len() as u64;
        r.device.advance_to(t_us);
        r.device.charge_transfer(0, upload_bytes);
        r
    }

    /// Candidates this level's `dist_expand` bucketed toward rank `dst`.
    pub(crate) fn bucket_len(&self, dst: usize) -> usize {
        self.counters.load(dst) as usize
    }

    /// What this level claimed on the rank: the next frontier's length and
    /// its degree sum.
    pub(crate) fn claimed(&self) -> (usize, u64) {
        let count = self.counters.load(self.claimed_slot());
        (count as usize, self.edge_counters.load(0))
    }

    /// The next frontier becomes the frontier (a device-pointer swap on
    /// real hardware).
    pub(crate) fn swap_frontiers(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
    }

    /// The counter [`commit_local_claims`] bumps: `P + 1`.
    fn claimed_slot(&self) -> usize {
        self.buckets.len() + 1
    }

    /// The local step before the exchange: zero the counters (and, when
    /// pulling, the bitmap) and the edge counter, then launch
    /// `dist_bitmap_set` or `dist_expand` over the `qlen` frontier vertices.
    pub(crate) fn first_step(
        &self,
        level: u32,
        pull: bool,
        part: &Part,
        partition: &Partition,
        qlen: usize,
    ) {
        let dev = &self.device;
        dev.set_phase(format!("L{level} {}", if pull { "pull" } else { "push" }));
        dev.fill_u32(0, &self.counters, 0);
        if pull {
            dev.fill_u32(0, &self.bitmap, 0);
        }
        let reset = LaunchCfg::new("dist_reset64", 1).with_registers(8);
        dev.launch(0, reset, |w| w.vstore64(&self.edge_counters, [(0, 0)]));
        if qlen == 0 {
            return;
        }
        if pull {
            let set = LaunchCfg::new("dist_bitmap_set", qlen).with_registers(12);
            dev.launch(0, set, |w| bitmap_set_kernel(w, self));
        } else {
            let expand = LaunchCfg::new("dist_expand", qlen).with_registers(48);
            dev.launch(0, expand, |w| {
                push_expand_kernel(w, self, part, partition, level)
            });
        }
    }

    /// The local step after the exchange: `dist_pull` over every owned
    /// vertex, or `dist_claim` over the `inbox_len` delivered candidates.
    pub(crate) fn second_step(&self, level: u32, pull: bool, part: &Part, inbox_len: usize) {
        let lanes = if pull { part.len() } else { inbox_len };
        if lanes == 0 {
            return;
        }
        let dev = &self.device;
        if pull {
            let cfg = LaunchCfg::new("dist_pull", lanes).with_registers(110);
            dev.launch(0, cfg, |w| pull_kernel(w, self, part, level));
        } else {
            let cfg = LaunchCfg::new("dist_claim", lanes).with_registers(24);
            dev.launch(0, cfg, |w| claim_kernel(w, self, part, level));
        }
    }
}

/// Max device clock across the fleet.
pub(crate) fn fleet_elapsed(ranks: &[RankState]) -> f64 {
    ranks
        .iter()
        .map(|r| r.device.elapsed_us())
        .fold(0.0, f64::max)
}

/// Set the frontier's bits in the rank's (zeroed) copy of the bitmap.
fn bitmap_set_kernel(w: &mut WaveCtx, r: &RankState) {
    let gids = w.lanes();
    let mut vs = Vec::with_capacity(gids.len());
    w.vload32_range(&r.frontier, gids.start, gids.len(), &mut vs);
    let ops = vs.iter().map(|&v| ((v / 32) as usize, 1u32 << (v % 32)));
    w.vor32(&r.bitmap, ops);
}

/// Push expansion: thread-per-frontier-vertex; local neighbors claimed in
/// place, remote neighbors bucketed by owner.
fn push_expand_kernel(
    w: &mut WaveCtx,
    r: &RankState,
    part: &Part,
    partition: &Partition,
    level: u32,
) {
    let Some(us) = w.lane_entries32(&r.frontier) else {
        return;
    };
    let lidx = us.iter().map(|&u| part.to_local(u) as usize);
    let mut offs = Vec::with_capacity(lidx.len());
    w.vload64(&r.offsets, lidx.clone(), &mut offs);
    let mut degs = Vec::with_capacity(lidx.len());
    w.vload32(&r.degrees, lidx, &mut degs);

    let mut lanes: Vec<(u64, u32)> = offs.iter().zip(&degs).map(|(&o, &d)| (o, d)).collect();
    let mut local_claims: Vec<u32> = Vec::new();
    let mut remote: Vec<Vec<u32>> = vec![Vec::new(); r.buckets.len()];
    let mut k = 0u32;
    loop {
        lanes.retain(|&(_, d)| k < d);
        if lanes.is_empty() {
            break;
        }
        let aidx = lanes.iter().map(|&(o, _)| (o + u64::from(k)) as usize);
        let mut vs = Vec::with_capacity(aidx.len());
        w.vload32(&r.adjacency, aidx, &mut vs);
        w.alu(1);
        // Local neighbors: check + CAS claim now.
        let local_cands: Vec<u32> = vs.iter().copied().filter(|&v| part.owns(v)).collect();
        if !local_cands.is_empty() {
            let sidx = local_cands.iter().map(|&v| part.to_local(v) as usize);
            let mut sts = Vec::with_capacity(sidx.len());
            w.vload32(&r.status, sidx.clone(), &mut sts);
            let ops: Vec<(usize, u32, u32)> = sidx
                .zip(&sts)
                .filter(|&(_, &s)| s == UNVISITED)
                .map(|(i, _)| (i, UNVISITED, level + 1))
                .collect();
            if !ops.is_empty() {
                let mut results = Vec::with_capacity(ops.len());
                w.vcas32(&r.status, &ops, &mut results);
                for (&(i, _, _), res) in ops.iter().zip(&results) {
                    if res.is_ok() {
                        local_claims.push(part.to_global(i as u32));
                    }
                }
            }
        }
        for &v in vs.iter().filter(|&&v| !part.owns(v)) {
            remote[partition.owner(v)].push(v);
        }
        k += 1;
    }

    commit_local_claims(w, r, part, &local_claims);
    // Wave-aggregated bucket appends.
    for (d, cands) in remote.iter().enumerate() {
        if cands.is_empty() {
            continue;
        }
        let base = w.wave_add32(&r.counters, d, cands.len() as u32) as usize;
        let cap = r.buckets[d].len();
        assert!(base + cands.len() <= cap, "bucket overflow toward rank {d}");
        w.vstore32_range(&r.buckets[d], base, cands);
    }
}

/// Claim inbox candidates (owned vertices, possibly duplicated).
fn claim_kernel(w: &mut WaveCtx, r: &RankState, part: &Part, level: u32) {
    let Some(vs) = w.lane_entries32(&r.inbox) else {
        return;
    };
    let ops = vs
        .iter()
        .map(|&v| (part.to_local(v) as usize, UNVISITED, level + 1));
    let mut results = Vec::with_capacity(vs.len());
    w.vcas32(&r.status, ops, &mut results);
    let winners: Vec<u32> = vs
        .iter()
        .zip(&results)
        .filter(|&(_, res)| res.is_ok())
        .map(|(&v, _)| v)
        .collect();
    commit_local_claims(w, r, part, &winners);
}

/// Bottom-up pull: thread-per-owned-vertex with early termination against
/// the global frontier bitmap.
fn pull_kernel(w: &mut WaveCtx, r: &RankState, part: &Part, level: u32) {
    let unvisited = w.lanes_where(&r.status, |s| s == UNVISITED);
    if unvisited.is_empty() {
        return;
    }
    let lidx = unvisited.iter().map(|&l| l as usize);
    let mut offs = Vec::with_capacity(unvisited.len());
    w.vload64(&r.offsets, lidx.clone(), &mut offs);
    let mut degs = Vec::with_capacity(unvisited.len());
    w.vload32(&r.degrees, lidx, &mut degs);
    struct Lane {
        local: u32,
        off: u64,
        deg: u32,
        k: u32,
    }
    let mut lanes: Vec<Lane> = unvisited
        .iter()
        .zip(offs.iter().zip(&degs))
        .filter(|&(_, (_, &d))| d > 0)
        .map(|(&local, (&off, &deg))| Lane {
            local,
            off,
            deg,
            k: 0,
        })
        .collect();
    let mut claims: Vec<u32> = Vec::new();
    while !lanes.is_empty() {
        let aidx = lanes.iter().map(|l| (l.off + u64::from(l.k)) as usize);
        let mut nbrs = Vec::with_capacity(aidx.len());
        w.vload32(&r.adjacency, aidx, &mut nbrs);
        let mut words = Vec::with_capacity(nbrs.len());
        w.vload32(
            &r.bitmap,
            nbrs.iter().map(|&v| (v / 32) as usize),
            &mut words,
        );
        w.alu(2);
        let mut writes: Vec<(usize, u32)> = Vec::new();
        let mut i = 0;
        lanes.retain_mut(|l| {
            let nb = nbrs[i];
            let word = words[i];
            i += 1;
            if word & (1 << (nb % 32)) != 0 {
                writes.push((l.local as usize, level + 1));
                claims.push(part.to_global(l.local));
                return false;
            }
            l.k += 1;
            l.k < l.deg
        });
        if !writes.is_empty() {
            w.vstore32(&r.status, &writes);
        }
    }
    commit_local_claims(w, r, part, &claims);
}

/// Shared tail: enqueue claimed global ids into the next frontier, bump the
/// claimed count and the degree sum.
fn commit_local_claims(w: &mut WaveCtx, r: &RankState, part: &Part, claims: &[u32]) {
    if claims.is_empty() {
        return;
    }
    let didx = claims.iter().map(|&v| part.to_local(v) as usize);
    let mut cdegs = Vec::with_capacity(claims.len());
    w.vload32(&r.degrees, didx, &mut cdegs);
    let sum = w.wave_reduce_add(&cdegs);
    let base = w.wave_add32(&r.counters, r.claimed_slot(), claims.len() as u32) as usize;
    w.wave_add64(&r.edge_counters, 0, sum);
    w.vstore32_range(&r.next_frontier, base, claims);
}
