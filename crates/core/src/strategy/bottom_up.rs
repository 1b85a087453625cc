//! Bottom-up ("double-scan") frontier generation and expansion (§III-C).
//!
//! Five kernels, matching the five rows per level in the paper's Table V:
//!
//! 1. `bu_count` — scan the status array, count unvisited vertices per
//!    segment (`O(|V|)` reads),
//! 2. `bu_reduce` — per-block partial sums of the segment counts,
//! 3. `bu_scan` — exclusive scan of the block sums (single wave),
//! 4. `bu_place` — rescan the status array and place unvisited vertices
//!    into the bottom-up queue at their global offsets (`O(|V|)` reads),
//! 5. `bu_expand` — each unvisited vertex probes its adjacency list until
//!    it finds a parent at the current level (**early termination**), in
//!    the worst case `O(|M|)`.
//!
//! Segments are striped across a wavefront so the status scans stay
//! coalesced (a deliberate deviation from XBFS's contiguous segments —
//! noted in DESIGN.md — that preserves the `O(|V|)` fetch volume the paper
//! reports while keeping the queue dense and region-ordered).
//!
//! Kernel 5 also implements the paper's *proactive* update: a vertex that
//! finds no level-`L` neighbor but observes a neighbor already claimed at
//! `L+1` during this same pass claims itself at `L+2`.

use crate::device_graph::DeviceGraph;
use crate::state::{ctr, ectr, is_unvisited, BfsState, SEG_LEN};
use gcd_sim::WaveCtx;

/// Kernel 1: per-segment unvisited counts. Launch with
/// `items = number of segments`; segment `t` of wave `w` is the stripe
/// `{region(w) + j·width + lane(t)}`.
pub fn bu_count(w: &mut WaveCtx, st: &BfsState, n: usize) {
    let region = w.wave_id() * w.width() * SEG_LEN;
    if region >= n {
        return;
    }
    let lanes = w.lanes();
    // Stripe stride = actual lane count so partial trailing waves still
    // cover their region contiguously (and coalesced).
    let nl = lanes.len();
    // `epoch` is a local: beside a `RefCell`, `st.base` is reloaded per lane.
    let (s, epoch) = (&mut *st.scratch.borrow_mut(), st.base);
    s.counts.clear();
    s.counts.resize(nl, 0);
    for j in 0..SEG_LEN {
        let start = region + j * nl;
        let count = nl.min(n.saturating_sub(start));
        if count == 0 {
            break;
        }
        s.sts.clear();
        w.vload32_range(&st.status, start, count, &mut s.sts);
        w.alu(1);
        for (c, &raw) in s.counts.iter_mut().zip(&s.sts) {
            *c += u32::from(is_unvisited(raw, epoch));
        }
    }
    w.vstore32_range(&st.seg_counts, lanes.start, &s.counts);
}

/// Kernel 2: block partial sums. Launch with
/// `items = number of blocks × width`; wave `b` reduces segment counts
/// `[b·width, (b+1)·width)`.
pub fn bu_reduce(w: &mut WaveCtx, st: &BfsState) {
    let width = w.width();
    let b = w.wave_id();
    if b >= st.block_sums.len() {
        return;
    }
    let start = b * width;
    let end = ((b + 1) * width).min(st.seg_counts.len());
    if start >= end {
        w.sstore32(&st.block_sums, b, 0);
        return;
    }
    let mut counts = Vec::with_capacity(end - start);
    w.vload32_range(&st.seg_counts, start, end - start, &mut counts);
    let sum = w.wave_reduce_add(&counts);
    w.sstore32(&st.block_sums, b, sum as u32);
}

/// Kernel 3: exclusive scan of the block sums, performed by a single wave
/// that walks the array in width-sized chunks carrying the running total.
/// Also publishes the grand total (the bottom-up queue length) to
/// `counters[BU_LEN]`. Launch with `items = width`.
pub fn bu_scan(w: &mut WaveCtx, st: &BfsState) {
    if w.wave_id() != 0 {
        return;
    }
    let width = w.width();
    let nb = st.block_sums.len();
    let mut carry = 0u32;
    let mut chunk = 0;
    while chunk < nb {
        let end = (chunk + width).min(nb);
        let mut vals = Vec::with_capacity(end - chunk);
        w.vload32_range(&st.block_sums, chunk, end - chunk, &mut vals);
        let mut pref = Vec::with_capacity(vals.len());
        let total = w.wave_prefix_sum(&vals, &mut pref);
        for p in &mut pref {
            *p += carry;
        }
        w.vstore32_range(&st.block_sums, chunk, &pref);
        carry += total;
        chunk = end;
    }
    w.sstore32(&st.counters, ctr::BU_LEN, carry);
}

/// Kernel 4: rescan the status array and place unvisited vertex ids into
/// the bottom-up queue. Launch with `items = number of segments` (same
/// striping as [`bu_count`]).
pub fn bu_place(w: &mut WaveCtx, st: &BfsState, n: usize) {
    let region = w.wave_id() * w.width() * SEG_LEN;
    if region >= n {
        return;
    }
    let lanes = w.lanes();
    let nl = lanes.len();
    // Per-lane start offset = block offset + exclusive prefix of this
    // wave's segment counts.
    let base = w.sload32(&st.block_sums, w.wave_id());
    let (s, epoch) = (&mut *st.scratch.borrow_mut(), st.base);
    s.counts.clear();
    w.vload32_range(&st.seg_counts, lanes.start, nl, &mut s.counts);
    s.cursors.clear();
    w.wave_prefix_sum(&s.counts, &mut s.cursors);
    s.cursors.iter_mut().for_each(|c| *c += base);

    s.writes.clear();
    s.writes.resize(nl, (0, 0));
    for j in 0..SEG_LEN {
        let start = region + j * nl;
        let count = nl.min(n.saturating_sub(start));
        if count == 0 {
            break;
        }
        s.sts.clear();
        w.vload32_range(&st.status, start, count, &mut s.sts);
        w.alu(1);
        // Every lane stages its write and only an unvisited one keeps it:
        // the pattern is unpredictable in exactly the levels bottom-up runs.
        let mut len = 0;
        for ((i, cursor), &raw) in (start..).zip(&mut s.cursors).zip(&s.sts) {
            let unvisited = is_unvisited(raw, epoch);
            s.writes[len] = (*cursor as usize, i as u32);
            len += usize::from(unvisited);
            *cursor += u32::from(unvisited);
        }
        w.vstore32(&st.bu_queue, &s.writes[..len]);
    }
}

/// Options for the bottom-up expansion kernel.
#[derive(Debug, Clone, Copy)]
pub struct BottomUpOpts {
    /// Current level: vertices whose neighbor is at `level` claim `level+1`.
    pub level: u32,
    /// Enable the proactive `level+2` claim (§III-C).
    pub proactive: bool,
}

/// Kernel 5 (AMD-tuned form): thread-per-vertex expansion with early
/// termination. Launch with `items = bottom-up queue length`.
pub fn bu_expand_thread(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    bu_len: usize,
    opts: &BottomUpOpts,
) {
    debug_assert!(bu_len <= st.bu_queue.len());
    let gids = w.lanes();
    if gids.is_empty() {
        return;
    }
    let (s, epoch) = (&mut *st.scratch.borrow_mut(), st.base);
    s.vs.clear();
    w.vload32_range(&st.bu_queue, gids.start, gids.len(), &mut s.vs);
    // A vertex may have been claimed by a previous level's pass while the
    // queue is stale; skip those.
    s.sts.clear();
    w.vload32(&st.status, s.vs.iter().map(|&v| v as usize), &mut s.sts);
    w.alu(1);
    let mut unvisited = s.sts.iter().map(|&raw| is_unvisited(raw, epoch));
    s.vs.retain(|_| unvisited.next().expect("one status per queue entry"));
    if s.vs.is_empty() {
        return;
    }
    s.offs.clear();
    w.vload64(&g.offsets, s.vs.iter().map(|&v| v as usize), &mut s.offs);
    s.degs.clear();
    w.vload32(&g.degrees, s.vs.iter().map(|&v| v as usize), &mut s.degs);

    // Live lanes, compacted in place as they retire: parallel arrays, so
    // each round's adjacency gather takes its indices straight from `at`.
    s.at.clear();
    s.end.clear();
    let mut live = 0;
    for (i, (&off, &deg)) in s.offs.iter().zip(&s.degs).enumerate() {
        // Isolated vertices are unreachable: no lane.
        if deg > 0 {
            s.vs[live] = s.vs[i];
            s.at.push(off as usize);
            s.end.push(off as usize + deg as usize);
            live += 1;
        }
    }
    // First neighbor observed at `level + 1` (proactive candidate).
    s.cand.clear();
    s.cand.resize(live, None);

    let next = opts.level + 1;
    s.pulled.clear(); // (v, parent, proactive)
    while live > 0 {
        s.nbrs.clear();
        w.vload32(&g.adjacency, &s.at[..live], &mut s.nbrs);
        s.sts.clear();
        w.vload32(&st.status, s.nbrs.iter().map(|&v| v as usize), &mut s.sts);
        w.alu(2);
        s.writes.clear();
        let mut kept = 0;
        for i in 0..live {
            let (v, nb, seen) = (s.vs[i], s.nbrs[i], s.sts[i]);
            if seen == opts.level {
                // Early termination: parent found.
                s.writes.push((v as usize, next));
                s.pulled.push((v, nb, false));
                continue;
            }
            let c = s.cand[i].or((opts.proactive && seen == next).then_some(nb));
            if s.at[i] + 1 < s.end[i] {
                (s.vs[kept], s.at[kept], s.end[kept], s.cand[kept]) = (v, s.at[i] + 1, s.end[i], c);
                kept += 1;
            } else if let Some(p) = c {
                // Exhausted: a proactive claim.
                s.writes.push((v as usize, next + 1));
                s.pulled.push((v, p, true));
            }
        }
        live = kept;
        w.vstore32(&st.status, &s.writes);
    }

    if s.pulled.is_empty() {
        return;
    }
    let pulled = s.pulled.iter();
    if let Some(parents) = &st.parents {
        w.vstore32(parents, pulled.clone().map(|&(v, p, _)| (v as usize, p)));
    }
    s.degs.clear();
    w.vload32(
        &g.degrees,
        pulled.clone().map(|t| t.0 as usize),
        &mut s.degs,
    );
    let (mut count, mut edges) = ([0u32; 2], [0u64; 2]); // [now, proactive]
    for (&(_, _, pro), &d) in pulled.zip(&s.degs) {
        count[usize::from(pro)] += 1;
        edges[usize::from(pro)] += u64::from(d);
    }
    w.alu(1);
    if count[0] > 0 {
        w.wave_add32(&st.counters, ctr::CLAIMED, count[0]);
        w.wave_add64(&st.edge_counters, ectr::CLAIMED_EDGES, edges[0]);
    }
    if count[1] > 0 {
        w.wave_add32(&st.counters, ctr::PROACTIVE, count[1]);
        w.wave_add64(&st.edge_counters, ectr::PROACTIVE_EDGES, edges[1]);
    }
}

/// Kernel 5 (naive-port form, §IV-A): wavefront-per-vertex expansion. Early
/// termination typically fires within the first probe, so 63 of 64 lanes
/// idle — this is the configuration the paper found *degrades* performance
/// on AMD's wider waves. Launch with `items = bu_len × width`.
pub fn bu_expand_wave(
    w: &mut WaveCtx,
    g: &DeviceGraph,
    st: &BfsState,
    bu_len: usize,
    opts: &BottomUpOpts,
) {
    let vid = w.wave_id();
    if vid >= bu_len {
        return;
    }
    let v = w.sload32(&st.bu_queue, vid);
    if !is_unvisited(w.sload32(&st.status, v as usize), st.base) {
        return;
    }
    let off = w.sload64(&g.offsets, v as usize);
    let deg = w.sload32(&g.degrees, v as usize) as usize;
    let width = w.width();
    let next = opts.level + 1;
    let mut next_parent: Option<u32> = None;
    let mut base = 0usize;
    let mut claim: Option<(u32, u32)> = None; // (level, parent)
    while base < deg {
        let count = width.min(deg - base);
        let mut nbrs = Vec::with_capacity(count);
        w.vload32_range(&g.adjacency, off as usize + base, count, &mut nbrs);
        let mut nsts = Vec::with_capacity(count);
        w.vload32(&st.status, nbrs.iter().map(|&v| v as usize), &mut nsts);
        let found = w.ballot(&nsts.iter().map(|&s| s == opts.level).collect::<Vec<_>>());
        if found != 0 {
            let lane = found.trailing_zeros() as usize;
            claim = Some((next, nbrs[lane]));
            break;
        }
        if opts.proactive && next_parent.is_none() {
            if let Some(l) = nsts.iter().position(|&s| s == next) {
                next_parent = Some(nbrs[l]);
            }
        }
        base += width;
    }
    if claim.is_none() && opts.proactive {
        if let Some(p) = next_parent {
            claim = Some((next + 1, p));
        }
    }
    let Some((lvl, parent)) = claim else { return };
    w.sstore32(&st.status, v as usize, lvl);
    if let Some(parents) = &st.parents {
        w.sstore32(parents, v as usize, parent);
    }
    let d = w.sload32(&g.degrees, v as usize);
    if lvl == next {
        w.wave_add32(&st.counters, ctr::CLAIMED, 1);
        w.wave_add64(&st.edge_counters, ectr::CLAIMED_EDGES, u64::from(d));
    } else {
        w.wave_add32(&st.counters, ctr::PROACTIVE, 1);
        w.wave_add64(&st.edge_counters, ectr::PROACTIVE_EDGES, u64::from(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::UNVISITED;
    use gcd_sim::{Device, LaunchCfg};
    use xbfs_graph::generators::erdos_renyi;
    use xbfs_graph::Csr;

    fn setup(n: usize) -> (Device, BfsState) {
        let dev = Device::mi250x();
        let st = BfsState::new(&dev, n, true);
        st.status.host_fill(UNVISITED);
        (dev, st)
    }

    fn run_double_scan(dev: &Device, st: &BfsState, n: usize) -> Vec<u32> {
        let width = dev.arch().wavefront_size;
        let n_segs = st.seg_counts.len();
        dev.launch(0, LaunchCfg::new("bu_count", n_segs), |w| {
            bu_count(w, st, n);
        });
        dev.launch(
            0,
            LaunchCfg::new("bu_reduce", st.block_sums.len() * width),
            |w| bu_reduce(w, st),
        );
        dev.launch(0, LaunchCfg::new("bu_scan", width), |w| bu_scan(w, st));
        dev.launch(0, LaunchCfg::new("bu_place", n_segs), |w| {
            bu_place(w, st, n);
        });
        let len = st.counters.load(ctr::BU_LEN) as usize;
        let mut q = st.bu_queue.to_host();
        q.truncate(len);
        q
    }

    #[test]
    fn double_scan_collects_all_unvisited() {
        let n = 1000;
        let (dev, st) = setup(n);
        // Visit a scattered subset.
        for v in [0usize, 5, 63, 64, 500, 999] {
            st.status.store(v, 2);
        }
        let q = run_double_scan(&dev, &st, n);
        assert_eq!(q.len(), n - 6);
        let mut sorted = q.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), q.len(), "duplicates in bottom-up queue");
        assert!(!sorted.contains(&0));
        assert!(!sorted.contains(&64));
        assert!(sorted.contains(&1));
    }

    #[test]
    fn double_scan_empty_and_full() {
        let n = 300;
        let (dev, st) = setup(n);
        // All unvisited.
        let q = run_double_scan(&dev, &st, n);
        assert_eq!(q.len(), n);
        // All visited.
        st.status.host_fill(1);
        let q = run_double_scan(&dev, &st, n);
        assert!(q.is_empty());
    }

    #[test]
    fn place_handles_all_visited_and_partial_waves() {
        // A stripe with nothing to place issues no store: an op with no
        // lanes is free. 300 vertices are one wave of 5 segments, 60 stripes.
        let (dev, st) = setup(300);
        let place = |dev: &Device, placed| {
            assert_eq!(run_double_scan(dev, &st, 300).len(), placed);
            let reports = dev.take_reports();
            reports.iter().find(|r| r.name == "bu_place").unwrap().stats
        };
        let all = place(&dev, 300);
        st.status.host_fill(1);
        let none = place(&dev, 0);
        assert_eq!((all.bytes_written, none.bytes_written), (4 * 300, 0));
        assert_eq!(all.instructions - none.instructions, 60);
        assert_eq!(all.accesses - none.accesses, 300);

        // 70 segments: a full wave, then one of 6 lanes striding by 6. The
        // queue is region after region, within a region segment after
        // segment, exactly the unvisited vertices.
        let n = 70 * 64 - 10;
        let (dev, st) = setup(n);
        let visited = |v: usize| v % 7 == 3 || (4096..4200).contains(&v);
        (0..n)
            .filter(|&v| visited(v))
            .for_each(|v| st.status.store(v, 2));
        let mut expect = Vec::new();
        for (region, nl) in [(0usize, 64usize), (4096, 6)] {
            let stripe = |t: usize| (0..64).map(move |j| region + j * nl + t);
            let placed = (0..nl).flat_map(stripe).filter(|&v| v < n && !visited(v));
            expect.extend(placed.map(|v| v as u32));
        }
        assert_eq!(run_double_scan(&dev, &st, n), expect);
    }

    #[test]
    fn expand_claims_from_frontier() {
        let g = erdos_renyi(400, 2000, 7);
        let n = g.num_vertices();
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        let st = BfsState::new(&dev, n, true);
        st.status.host_fill(UNVISITED);
        st.status.store(0, 0);
        let q = run_double_scan(&dev, &st, n);
        let opts = BottomUpOpts {
            level: 0,
            proactive: false,
        };
        dev.launch(0, LaunchCfg::new("bu_expand", q.len()), |w| {
            bu_expand_thread(w, &dg, &st, q.len(), &opts);
        });
        let status = st.status.to_host();
        for v in 0..n as u32 {
            let expect = if v == 0 {
                0
            } else if g.neighbors(v).contains(&0) {
                1
            } else {
                UNVISITED
            };
            assert_eq!(status[v as usize], expect, "vertex {v}");
        }
        let claimed = st.counters.load(ctr::CLAIMED) as usize;
        assert_eq!(claimed, g.neighbors(0).len());
    }

    #[test]
    fn proactive_claims_two_levels() {
        // Source 3; 4 is 3's neighbor (level 1); 0 is adjacent to {1, 2, 4}.
        // Within one bottom-up pass at level 0: lane(4) claims level 1 on
        // its second probe (k = 1); lane(0) probes 1, 2, then reads 4 at
        // k = 2 — after 4's claim landed — and proactively claims level 2.
        // Vertices 1, 2 stay unvisited this pass (true level 3).
        let g = Csr::from_parts(vec![0, 3, 4, 5, 6, 8], vec![1, 2, 4, 0, 0, 4, 0, 3]).unwrap();
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        let st = BfsState::new(&dev, 5, true);
        st.status.host_fill(UNVISITED);
        st.status.store(3, 0);
        let q = run_double_scan(&dev, &st, 5);
        assert_eq!(q.len(), 4);
        let opts = BottomUpOpts {
            level: 0,
            proactive: true,
        };
        dev.launch(0, LaunchCfg::new("bu_expand", q.len()), |w| {
            bu_expand_thread(w, &dg, &st, q.len(), &opts);
        });
        let status = st.status.to_host();
        assert_eq!(status, vec![2, UNVISITED, UNVISITED, 0, 1]);
        assert_eq!(st.counters.load(ctr::CLAIMED), 1);
        assert_eq!(st.counters.load(ctr::PROACTIVE), 1);
        // Parent of the proactive claim is the level-1 neighbor.
        assert_eq!(st.parents.as_ref().unwrap().load(0), 4);
    }

    #[test]
    fn one_wave_of_mixed_degrees_matches_a_host_loop() {
        // Lanes 0..64 probe only pool vertices (64..), never each other, so
        // each lane's outcome is a plain walk of its own list: the first
        // neighbor at `level` claims `level + 1`; failing that, the first at
        // `level + 1` claims `level + 2` proactively. Degrees cycle through
        // 0, 1 and 66.., so lanes retire in every round of a long loop.
        const POOL: u32 = 200;
        let level = 3;
        let pool_status = |j: u32| match j {
            j if j % 67 == 0 => level,
            j if j % 5 == 0 => level + 1,
            j if j % 2 == 0 => UNVISITED,
            _ => 1,
        };
        let mut offsets = vec![0u64];
        let mut adjacency = Vec::new();
        for v in 0..64 + POOL {
            let deg = if v < 64 {
                [0, 1, 66 + v][v as usize % 3]
            } else {
                0
            };
            adjacency.extend((0..deg).map(|j| 64 + (v * 7 + j * 13) % POOL));
            offsets.push(adjacency.len() as u64);
        }
        let g = Csr::from_parts(offsets, adjacency).unwrap();
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        let st = BfsState::new(&dev, g.num_vertices(), true);
        st.status.host_fill(UNVISITED);
        for j in 0..POOL {
            st.status.store((64 + j) as usize, pool_status(j));
        }
        for v in 0..64 {
            st.bu_queue.store(v, v as u32);
        }
        let parents = st.parents.as_ref().unwrap();
        let (mut status, mut parent) = (st.status.to_host(), parents.to_host());
        let (mut claimed, mut proactive) = (0, 0);
        for v in 0..64u32 {
            let at = |lvl| {
                g.neighbors(v)
                    .iter()
                    .find(|&&nb| status[nb as usize] == lvl)
            };
            if let Some(&nb) = at(level) {
                (status[v as usize], parent[v as usize]) = (level + 1, nb);
                claimed += 1;
            } else if let Some(&nb) = at(level + 1) {
                (status[v as usize], parent[v as usize]) = (level + 2, nb);
                proactive += 1;
            }
        }
        assert!(claimed > 0 && proactive > 0 && claimed + proactive < 40);

        let opts = BottomUpOpts {
            level,
            proactive: true,
        };
        dev.launch(0, LaunchCfg::new("bu_expand", 64), |w| {
            bu_expand_thread(w, &dg, &st, 64, &opts);
        });
        assert_eq!(st.status.to_host(), status);
        assert_eq!(parents.to_host(), parent);
        assert_eq!(st.counters.load(ctr::CLAIMED), claimed);
        assert_eq!(st.counters.load(ctr::PROACTIVE), proactive);
    }

    #[test]
    fn wave_variant_matches_thread_variant() {
        let g = erdos_renyi(300, 1500, 9);
        let n = g.num_vertices();
        let run = |wave: bool| {
            let dev = Device::mi250x();
            let dg = DeviceGraph::upload(&dev, &g);
            let st = BfsState::new(&dev, n, false);
            st.status.host_fill(UNVISITED);
            st.status.store(7, 0);
            let q = run_double_scan(&dev, &st, n);
            let opts = BottomUpOpts {
                level: 0,
                proactive: false,
            };
            let width = dev.arch().wavefront_size;
            let r = if wave {
                dev.launch(0, LaunchCfg::new("bu_w", q.len() * width), |w| {
                    bu_expand_wave(w, &dg, &st, q.len(), &opts);
                })
            } else {
                dev.launch(0, LaunchCfg::new("bu_t", q.len()), |w| {
                    bu_expand_thread(w, &dg, &st, q.len(), &opts);
                })
            };
            (st.status.to_host(), r.stats.instructions)
        };
        let (s_thread, i_thread) = run(false);
        let (s_wave, i_wave) = run(true);
        assert_eq!(s_thread, s_wave);
        // The wave-per-vertex variant wastes lanes: far more instructions
        // for identical output (the §IV-A degradation).
        assert!(i_wave > 3 * i_thread, "wave {i_wave} vs thread {i_thread}");
    }
}
