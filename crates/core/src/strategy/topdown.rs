//! Shared top-down expansion kernels.
//!
//! Both top-down strategies (scan-free and single-scan) expand the current
//! frontier; they differ in how statuses are claimed (atomic CAS vs plain
//! store) and in whether the next queue is built during expansion (the
//! scan-free atomic enqueue) or by a later scan.
//!
//! Warp-centric dynamic workload balancing (§IV-A) maps frontier vertices
//! to execution resources by degree: thread-per-vertex for the small bin,
//! wavefront-per-vertex for the medium bin, and a 4-wave group per vertex
//! for the large bin.

use crate::device_graph::DeviceGraph;
use crate::state::{ctr, ectr, is_unvisited, BfsState, BinThresholds, Claim};
use gcd_sim::{BufU32, WaveCtx};

/// Waves cooperating on one large-bin vertex.
pub const GROUP_WAVES: usize = 4;

/// Options threaded through every top-down expansion kernel.
#[derive(Debug, Clone, Copy)]
pub struct TopDownOpts {
    /// Level being expanded (frontier vertices are at this level).
    pub level: u32,
    /// Claim neighbors with CAS (scan-free) instead of plain stores
    /// (single-scan's synchronization-free update).
    pub atomic_claim: bool,
    /// Enqueue claimed vertices into the next queues during expansion
    /// (scan-free frontier generation).
    pub enqueue: bool,
    /// The input queue is a superset (stale bottom-up queue): skip entries
    /// whose status is not `level`.
    pub filter: bool,
    /// Bin enqueued vertices by degree (warp-centric balancing).
    pub balancing: bool,
    /// Degree-bin boundaries.
    pub thresholds: BinThresholds,
}

/// Claim the unvisited members of `cands` and append winners to `claimed`.
fn claim_candidates(
    w: &mut WaveCtx,
    st: &BfsState,
    opts: &TopDownOpts,
    cands: &[Claim],
    claimed: &mut Vec<Claim>,
    results: &mut Vec<Result<u32, u32>>,
) {
    if cands.is_empty() {
        return;
    }
    let next = opts.level + 1;
    if opts.atomic_claim {
        let ops = cands
            .iter()
            .map(|&(v, _, observed)| (v as usize, observed, next));
        results.clear();
        w.vcas32(&st.status, ops, results);
        let won = cands.iter().zip(&*results).filter(|(_, r)| r.is_ok());
        claimed.extend(won.map(|(c, _)| *c));
    } else {
        // Plain stores: benign same-value races (single-scan, §III-B).
        w.vstore32(
            &st.status,
            cands.iter().map(|&(v, _, _)| (v as usize, next)),
        );
        claimed.extend_from_slice(cands);
    }
}

/// Tail work common to every expansion kernel: record parents, bump the
/// claimed counters, and (scan-free) enqueue into the binned next queues.
fn commit_claims(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    opts: &TopDownOpts,
    claimed: &[Claim],
    cdegs: &mut Vec<u32>,
    bins: &mut [Vec<u32>; 3],
) {
    if claimed.is_empty() {
        return;
    }
    if let Some(parents) = &st.parents {
        w.vstore32(parents, claimed.iter().map(|&(v, p, _)| (v as usize, p)));
    }
    // Degrees of claimed vertices: needed for the edge-ratio counter and,
    // when balancing, for bin selection.
    cdegs.clear();
    w.vload32(&g.degrees, claimed.iter().map(|c| c.0 as usize), cdegs);
    let deg_sum = w.wave_reduce_add(cdegs);
    w.wave_add32(&st.counters, ctr::CLAIMED, claimed.len() as u32);
    w.wave_add64(&st.edge_counters, ectr::CLAIMED_EDGES, deg_sum);
    if opts.enqueue {
        enqueue_binned(w, st, opts, claimed.iter().map(|c| c.0), cdegs, bins);
    }
}

/// Wave-aggregated enqueue: one atomic per (wave, bin), then a coalesced
/// scatter — the XBFS replacement for per-thread atomic enqueues.
fn enqueue_binned(
    w: &mut WaveCtx,
    st: &BfsState,
    opts: &TopDownOpts,
    vertices: impl Iterator<Item = u32>,
    degs: &[u32],
    bins: &mut [Vec<u32>; 3],
) {
    bins.iter_mut().for_each(Vec::clear);
    for (v, &d) in vertices.zip(degs) {
        let b = if opts.balancing {
            opts.thresholds.bin(d)
        } else {
            0
        };
        bins[b].push(v);
    }
    for (b, members) in bins.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let base = w.wave_add32(&st.counters, ctr::QUEUE_LEN[b], members.len() as u32);
        w.vstore32_range(&st.next_queues[b], base as usize, members);
    }
}

/// Thread-per-vertex expansion: each lane walks its own adjacency list.
/// Lockstep iterations cost the wave its longest lane — the divergence
/// model. Launch with `items = queue length`.
pub fn expand_thread(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    queue: &BufU32,
    opts: &TopDownOpts,
) {
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    // Load and optionally filter the frontier vertices this wave's lanes
    // handle: `(vertex, offset, degree)` per surviving lane.
    let (s, epoch) = (&mut *st.scratch.borrow_mut(), st.base);
    s.vs.clear();
    w.vload32_range(queue, gids.start, gids.len(), &mut s.vs);
    if opts.filter {
        s.sts.clear();
        w.vload32(&st.status, s.vs.iter().map(|&u| u as usize), &mut s.sts);
        w.alu(1);
        let mut at_level = s.sts.iter().map(|&raw| raw == opts.level);
        s.vs.retain(|_| at_level.next().expect("one status per queue entry"));
    }
    s.vs.dedup(); // cheap guard; exact queues contain no duplicates anyway
    s.offs.clear();
    w.vload64(&g.offsets, s.vs.iter().map(|&u| u as usize), &mut s.offs);
    s.degs.clear();
    w.vload32(&g.degrees, s.vs.iter().map(|&u| u as usize), &mut s.degs);
    s.lanes.clear();
    let rows = s.vs.iter().zip(s.offs.iter().zip(&s.degs));
    s.lanes.extend(rows.map(|(&u, (&o, &d))| (u, o, d)));

    s.claimed.clear();
    let mut k = 0u32;
    loop {
        // Retire finished lanes: each gather below takes one index per lane.
        s.lanes.retain(|&(_, _, d)| k < d);
        if s.lanes.is_empty() {
            break;
        }
        let aidx = s.lanes.iter().map(|&(_, o, _)| (o + u64::from(k)) as usize);
        s.nbrs.clear();
        w.vload32(&g.adjacency, aidx, &mut s.nbrs);
        s.sts.clear();
        w.vload32(&st.status, s.nbrs.iter().map(|&v| v as usize), &mut s.sts);
        w.alu(1);
        s.cands.clear();
        let probed = s.nbrs.iter().zip(&s.lanes).zip(&s.sts);
        let unvisited = probed.filter(|&(_, &raw)| is_unvisited(raw, epoch));
        s.cands
            .extend(unvisited.map(|((&v, &(u, _, _)), &raw)| (v, u, raw)));
        claim_candidates(w, st, opts, &s.cands, &mut s.claimed, &mut s.results);
        k += 1;
    }
    commit_claims(w, g, st, opts, &s.claimed, &mut s.degs, &mut s.bins);
}

/// Wavefront-per-vertex expansion (medium bin): the wave's lanes stride one
/// vertex's adjacency list. Launch with `items = queue length × width`.
pub fn expand_wave(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    queue: &BufU32,
    qlen: usize,
    opts: &TopDownOpts,
) {
    expand_cooperative(w, g, st, queue, qlen, opts, 1);
}

/// Multi-wave ("CTA") expansion (large bin): `GROUP_WAVES` waves stride one
/// vertex's adjacency list together. Launch with
/// `items = queue length × width × GROUP_WAVES`.
pub fn expand_group(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    queue: &BufU32,
    qlen: usize,
    opts: &TopDownOpts,
) {
    expand_cooperative(w, g, st, queue, qlen, opts, GROUP_WAVES);
}

fn expand_cooperative(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    queue: &BufU32,
    qlen: usize,
    opts: &TopDownOpts,
    waves_per_vertex: usize,
) {
    let vid = w.wave_id() / waves_per_vertex;
    let sub = w.wave_id() % waves_per_vertex;
    if vid >= qlen {
        return;
    }
    let u = w.sload32(queue, vid);
    if opts.filter {
        let s = w.sload32(&st.status, u as usize);
        w.alu(1);
        if s != opts.level {
            return;
        }
    }
    let off = w.sload64(&g.offsets, u as usize);
    let deg = w.sload32(&g.degrees, u as usize) as usize;
    let width = w.width();
    let stride = width * waves_per_vertex;
    let (s, epoch) = (&mut *st.scratch.borrow_mut(), st.base);
    s.claimed.clear();
    let mut base = sub * width;
    while base < deg {
        let count = width.min(deg - base);
        s.nbrs.clear();
        w.vload32_range(&g.adjacency, off as usize + base, count, &mut s.nbrs);
        s.sts.clear();
        w.vload32(&st.status, s.nbrs.iter().map(|&v| v as usize), &mut s.sts);
        w.alu(1);
        s.cands.clear();
        let probed = s.nbrs.iter().zip(&s.sts);
        let unvisited = probed.filter(|&(_, &raw)| is_unvisited(raw, epoch));
        s.cands.extend(unvisited.map(|(&v, &raw)| (v, u, raw)));
        claim_candidates(w, st, opts, &s.cands, &mut s.claimed, &mut s.results);
        base += stride;
    }
    commit_claims(w, g, st, opts, &s.claimed, &mut s.degs, &mut s.bins);
}

/// Block-centric expansion (large bin): a whole workgroup cooperates on
/// one vertex. Claims are staged in LDS and committed once per group —
/// the "block-centric updating" tier of §IV-A, which beats [`expand_group`]'s
/// per-wave commits on very-high-degree vertices by amortizing the queue
/// atomics across the block.
///
/// LDS layout: word 0 = staged-claim count, then `(vertex, parent)` pairs.
/// Launch with `GroupCfg { groups: queue length, .. }`.
pub fn expand_block(
    g: &mut gcd_sim::GroupCtx,
    dg: &DeviceGraph,
    st: &BfsState,
    queue: &BufU32,
    qlen: usize,
    opts: &TopDownOpts,
) {
    let gid = g.group_id();
    if gid >= qlen {
        return;
    }
    let wpg = g.waves_per_group();
    let width = g.width();
    let stage_cap = (g.lds_len() - 1) / 2;
    let s = &mut *st.scratch.borrow_mut();
    g.lds_scatter(&[(0, 0)]);
    g.barrier();

    // Each wave strides the vertex's adjacency; claims are staged in LDS
    // (overflow commits directly from the owning wave — the slow path).
    for wave in 0..wpg {
        // Collected per wave, then staged after its loop.
        let mut claimed: Vec<Claim> = Vec::new();
        let mut skip = false;
        g.wave(wave, |w| {
            let u = w.sload32(queue, gid);
            if opts.filter {
                let s = w.sload32(&st.status, u as usize);
                w.alu(1);
                if s != opts.level {
                    skip = true;
                    return;
                }
            }
            let off = w.sload64(&dg.offsets, u as usize);
            let deg = w.sload32(&dg.degrees, u as usize) as usize;
            let stride = width * wpg;
            let mut base = wave * width;
            while base < deg {
                let count = width.min(deg - base);
                let mut vs = Vec::with_capacity(count);
                w.vload32_range(&dg.adjacency, off as usize + base, count, &mut vs);
                let mut svs = Vec::with_capacity(count);
                w.vload32(&st.status, vs.iter().map(|&v| v as usize), &mut svs);
                w.alu(1);
                let cands: Vec<Claim> = vs
                    .iter()
                    .zip(&svs)
                    .filter(|&(_, &s)| is_unvisited(s, st.base))
                    .map(|(&v, &s)| (v, u, s))
                    .collect();
                claim_candidates(w, st, opts, &cands, &mut claimed, &mut s.results);
                base += stride;
            }
        });
        if skip {
            return;
        }
        if claimed.is_empty() {
            continue;
        }
        // Stage into LDS (DS-atomic append); overflow commits directly.
        let mut head = Vec::new();
        g.lds_gather(&[0], &mut head);
        let mut cursor = head[0] as usize;
        let mut writes: Vec<(usize, u32)> = Vec::new();
        let mut overflow: Vec<Claim> = Vec::new();
        for &(v, p, s) in &claimed {
            if cursor < stage_cap {
                writes.push((1 + 2 * cursor, v));
                writes.push((2 + 2 * cursor, p));
                cursor += 1;
            } else {
                overflow.push((v, p, s));
            }
        }
        writes.push((0, cursor as u32));
        g.lds_scatter(&writes);
        if !overflow.is_empty() {
            g.wave(wave, |w| {
                commit_claims(w, dg, st, opts, &overflow, &mut s.degs, &mut s.bins)
            });
        }
    }
    g.barrier();

    // Wave 0 drains the staging area: one commit for the whole block.
    let mut head = Vec::new();
    g.lds_gather(&[0], &mut head);
    let n_staged = head[0] as usize;
    if n_staged == 0 {
        return;
    }
    let idxs: Vec<usize> = (0..2 * n_staged).map(|i| 1 + i).collect();
    let mut flat = Vec::with_capacity(idxs.len());
    g.lds_gather(&idxs, &mut flat);
    // Observed statuses aren't staged: the block commit never re-claims.
    let staged: Vec<Claim> = flat.chunks_exact(2).map(|c| (c[0], c[1], 0)).collect();
    g.wave(0, |w| {
        commit_claims(w, dg, st, opts, &staged, &mut s.degs, &mut s.bins)
    });
}

/// Frontier-queue generation scan (single-scan kernel 1): sweep the status
/// array and enqueue every vertex at `level` into the (binned) next queues.
/// Launch with `items = |V|`.
pub fn generation_scan(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    level: u32,
    balancing: bool,
    thresholds: BinThresholds,
) {
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    let s = &mut *st.scratch.borrow_mut();
    s.sts.clear();
    w.vload32_range(&st.status, gids.start, gids.len(), &mut s.sts);
    w.alu(1);
    s.vs.clear();
    let members = gids.zip(&s.sts).filter(|&(_, &raw)| raw == level);
    s.vs.extend(members.map(|(v, _)| v as u32));
    if s.vs.is_empty() {
        return;
    }
    let opts = TopDownOpts {
        level,
        atomic_claim: false,
        enqueue: true,
        filter: false,
        balancing,
        thresholds,
    };
    s.degs.clear();
    w.vload32(&g.degrees, s.vs.iter().map(|&v| v as usize), &mut s.degs);
    let members = s.vs.iter().copied();
    enqueue_binned(w, st, &opts, members, &s.degs, &mut s.bins);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::UNVISITED;
    use gcd_sim::{Device, LaunchCfg};
    use xbfs_graph::generators::erdos_renyi;
    use xbfs_graph::Csr;

    fn setup(g: &Csr, source: u32) -> (Device, DeviceGraph, BfsState) {
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, g);
        let st = BfsState::new(&dev, g.num_vertices(), true);
        st.status.host_fill(UNVISITED);
        st.status.store(source as usize, 0);
        st.queues[0].store(0, source);
        (dev, dg, st)
    }

    fn opts(atomic: bool) -> TopDownOpts {
        TopDownOpts {
            level: 0,
            atomic_claim: atomic,
            enqueue: true,
            filter: false,
            balancing: false,
            thresholds: BinThresholds::for_width(64),
        }
    }

    #[test]
    fn thread_expansion_claims_neighbors() {
        let g = erdos_renyi(200, 800, 1);
        let (dev, dg, st) = setup(&g, 0);
        let o = opts(true);
        dev.launch(0, LaunchCfg::new("expand", 1), |w| {
            expand_thread(w, &dg, &st, &st.queues[0], &o);
        });
        let status = st.status.to_host();
        for &v in g.neighbors(0) {
            assert_eq!(status[v as usize], 1, "neighbor {v} not claimed");
        }
        let claimed = st.counters.load(ctr::CLAIMED) as usize;
        assert_eq!(claimed, g.neighbors(0).len());
        let qlen = st.counters.load(ctr::QUEUE_LEN[0]) as usize;
        assert_eq!(qlen, claimed);
        // Parent of every claimed vertex is the source.
        let parents = st.parents.as_ref().unwrap().to_host();
        for &v in g.neighbors(0) {
            assert_eq!(parents[v as usize], 0);
        }
        // Degree-sum counter matches.
        let expect: u64 = g.neighbors(0).iter().map(|&v| g.degree(v) as u64).sum();
        assert_eq!(st.edge_counters.load(ectr::CLAIMED_EDGES), expect);
    }

    #[test]
    fn wave_and_group_match_thread() {
        let g = erdos_renyi(300, 3000, 2);
        let run = |mode: usize| {
            let (dev, dg, st) = setup(&g, 5);
            let o = opts(true);
            let width = dev.arch().wavefront_size;
            match mode {
                0 => {
                    dev.launch(0, LaunchCfg::new("t", 1), |w| {
                        expand_thread(w, &dg, &st, &st.queues[0], &o);
                    });
                }
                1 => {
                    dev.launch(0, LaunchCfg::new("w", width), |w| {
                        expand_wave(w, &dg, &st, &st.queues[0], 1, &o);
                    });
                }
                _ => {
                    dev.launch(0, LaunchCfg::new("g", width * GROUP_WAVES), |w| {
                        expand_group(w, &dg, &st, &st.queues[0], 1, &o);
                    });
                }
            }
            let mut q: Vec<u32> = st.queues[0].to_host(); // unchanged input
            q.truncate(1);
            (st.status.to_host(), st.counters.load(ctr::CLAIMED))
        };
        let (s0, c0) = run(0);
        let (s1, c1) = run(1);
        let (s2, c2) = run(2);
        assert_eq!(s0, s1);
        assert_eq!(s0, s2);
        assert_eq!(c0, c1);
        assert_eq!(c0, c2);
    }

    #[test]
    fn block_expansion_matches_thread_expansion() {
        use gcd_sim::GroupCfg;
        let g = erdos_renyi(400, 6000, 11);
        let run_block = |filter: bool| {
            let (dev, dg, st) = setup(&g, 5);
            let mut o = opts(true);
            o.filter = filter;
            dev.launch_groups(0, GroupCfg::new("b", 1).with_waves(GROUP_WAVES), |grp| {
                expand_block(grp, &dg, &st, &st.queues[0], 1, &o)
            });
            (st.status.to_host(), st.counters.load(ctr::CLAIMED))
        };
        let run_thread = || {
            let (dev, dg, st) = setup(&g, 5);
            let o = opts(true);
            dev.launch(0, LaunchCfg::new("t", 1), |w| {
                expand_thread(w, &dg, &st, &st.queues[0], &o);
            });
            (st.status.to_host(), st.counters.load(ctr::CLAIMED))
        };
        assert_eq!(run_block(false), run_thread());
        // With the filter on and a valid level-0 source, results also match.
        assert_eq!(run_block(true), run_thread());
    }

    #[test]
    fn block_expansion_overflow_path() {
        use gcd_sim::GroupCfg;
        // Hub with more neighbors than the LDS staging area: force the
        // slow-path commits.
        let n = 9000usize;
        let mut b = xbfs_graph::CsrBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(0, v);
        }
        let g = b.build(xbfs_graph::BuildOptions::default());
        let (dev, dg, st) = setup(&g, 0);
        let o = opts(true);
        dev.launch_groups(
            0,
            // Tiny LDS: stage at most (256/4 - 1)/2 = 31 claims.
            GroupCfg::new("b", 1).with_waves(GROUP_WAVES).with_lds(256),
            |grp| expand_block(grp, &dg, &st, &st.queues[0], 1, &o),
        );
        assert_eq!(st.counters.load(ctr::CLAIMED) as usize, n - 1);
        let status = st.status.to_host();
        assert!(status[1..].iter().all(|&s| s == 1));
        // All claimed vertices must be enqueued exactly once.
        let lens: usize = (0..3)
            .map(|b| st.counters.load(ctr::QUEUE_LEN[b]) as usize)
            .sum();
        assert_eq!(lens, n - 1);
    }

    #[test]
    fn plain_claim_writes_without_cas() {
        let g = erdos_renyi(100, 300, 3);
        let (dev, dg, st) = setup(&g, 0);
        let mut o = opts(false);
        o.enqueue = false;
        let r = dev.launch(0, LaunchCfg::new("plain", 1), |w| {
            expand_thread(w, &dg, &st, &st.queues[0], &o);
        });
        // Single-scan expansion: claims but no enqueue, CAS-free.
        assert_eq!(st.counters.load(ctr::QUEUE_LEN[0]), 0);
        assert!(st.counters.load(ctr::CLAIMED) > 0);
        // Only the counter aggregation atomics remain (2 per wave).
        assert!(r.stats.atomics <= 2);
    }

    #[test]
    fn filter_skips_stale_entries() {
        let g = erdos_renyi(100, 400, 4);
        let (dev, dg, st) = setup(&g, 0);
        // Queue holds [0 (level 0), 1 (unvisited)]; filter must skip 1.
        st.queues[0].store(1, 1);
        let mut o = opts(true);
        o.filter = true;
        dev.launch(0, LaunchCfg::new("f", 2), |w| {
            expand_thread(w, &dg, &st, &st.queues[0], &o);
        });
        let status = st.status.to_host();
        // Neighbors of 1 that aren't neighbors of 0 must stay unvisited.
        for &v in g.neighbors(1) {
            if !g.neighbors(0).contains(&v) && v != 0 && status[v as usize] != UNVISITED {
                panic!("vertex {v} expanded from filtered-out entry");
            }
        }
    }

    #[test]
    fn generation_scan_rebuilds_queue() {
        let g = erdos_renyi(500, 2000, 5);
        let (dev, dg, st) = setup(&g, 0);
        // Mark a known set at level 3.
        let marked = [4u32, 99, 250, 499];
        for &v in &marked {
            st.status.store(v as usize, 3);
        }
        dev.launch(0, LaunchCfg::new("gen", g.num_vertices()), |w| {
            generation_scan(w, &dg, &st, 3, false, BinThresholds::for_width(64));
        });
        let n = st.counters.load(ctr::QUEUE_LEN[0]) as usize;
        assert_eq!(n, marked.len());
        let mut q = st.next_queues[0].to_host();
        q.truncate(n);
        q.sort_unstable();
        assert_eq!(q, marked);
    }

    #[test]
    fn balanced_enqueue_bins_by_degree() {
        // Star graph: center has high degree, leaves degree 1.
        let n = 5000usize;
        let mut b = xbfs_graph::CsrBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(0, v);
        }
        let g = b.build(xbfs_graph::BuildOptions::default());
        let (dev, dg, st) = setup(&g, 1); // start at a leaf
        let mut o = opts(true);
        o.balancing = true;
        dev.launch(0, LaunchCfg::new("e", 1), |w| {
            expand_thread(w, &dg, &st, &st.queues[0], &o);
        });
        // The center (degree 4999) must land in the large bin.
        assert_eq!(st.counters.load(ctr::QUEUE_LEN[2]), 1);
        assert_eq!(st.next_queues[2].load(0), 0);
        assert_eq!(st.counters.load(ctr::QUEUE_LEN[0]), 0);
    }
}
