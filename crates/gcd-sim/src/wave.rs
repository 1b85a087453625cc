//! Wave-synchronous execution context.
//!
//! Kernels are written the way one reasons about lockstep SIMT code: the
//! unit of execution is a wavefront (64 lanes on MI250X, 32 on P6000), and
//! every *vector operation* — a gather, a scatter, a batch of atomics, an
//! ALU step — costs one wave instruction regardless of how many lanes are
//! active. Divergent loops therefore naturally pay for their longest lane,
//! which is exactly the effect that makes degree-binned workload balancing
//! counter-productive in the bottom-up phase on 64-wide wavefronts
//! (paper §IV-A).
//!
//! Memory accesses are traced through the per-wave [`Coalescer`] and, in
//! timing mode, the shared [`L2Model`], producing the rocprofiler-style
//! counters of the paper's Tables III–V.

use crate::buffer::{BufU32, BufU64};
use crate::coalescer::Coalescer;
use crate::kernel::WaveStats;
use crate::l2::L2Model;
use std::borrow::Borrow;
use std::ops::Range;

/// Execution context of a single wavefront.
pub struct WaveCtx<'a> {
    wave_id: usize,
    width: usize,
    items: usize,
    coalescer: &'a mut Coalescer,
    /// Timing mode: the shared L2 every coalescer miss is classified
    /// through the moment it happens. Functional mode: `None`, and every
    /// read miss is charged as an HBM fetch (documented overestimate).
    l2: Option<&'a mut L2Model>,
    /// Counters accumulated by this wave.
    pub stats: WaveStats,
}

impl<'a> WaveCtx<'a> {
    /// Wave `wave_id` of a launch of `items` work-items, `width` lanes
    /// wide, tracing through `coalescer` (reset here: every wave starts
    /// cold) and, when given, `l2`. [`crate::Device::launch`] builds one
    /// per wave; standalone contexts are for tests of the trace itself.
    pub fn new(
        wave_id: usize,
        width: usize,
        items: usize,
        coalescer: &'a mut Coalescer,
        l2: Option<&'a mut L2Model>,
    ) -> Self {
        coalescer.reset();
        Self {
            wave_id,
            width,
            items,
            coalescer,
            l2,
            stats: WaveStats::default(),
        }
    }

    /// Lanes per wavefront on this device.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Index of this wavefront within the launch.
    #[inline]
    pub fn wave_id(&self) -> usize {
        self.wave_id
    }

    /// The global ids covered by this wave (empty past the launch size).
    #[inline]
    pub fn lanes(&self) -> Range<usize> {
        let start = self.wave_id * self.width;
        let end = (start + self.width).min(self.items);
        start..end
    }

    /// Charge `n` pure-ALU wave instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.stats.instructions += n;
    }

    /// `k` back-to-back lane accesses to one line: only the first can leave
    /// the coalescer.
    #[inline]
    fn touch_line(&mut self, line: u64, k: u64, is_read: bool) {
        let hit = self.coalescer.touch_run(line, k);
        let miss = u64::from(!hit);
        self.stats.l1_hits += k - miss;
        self.stats.l2_accesses += miss;
        // Counters move by the hit bit, not by a branch on it; only timing
        // mode has an L2 to ask, and that test never changes within a launch.
        let Some(l2) = self.l2.as_mut() else {
            self.stats.hbm_lines += miss & u64::from(is_read);
            return;
        };
        if hit {
            return;
        }
        if l2.access_line(line) {
            self.stats.l2_hits += 1;
        } else if is_read {
            self.stats.hbm_lines += 1;
        }
    }

    /// One lane's access of `len` bytes at `addr`.
    #[inline]
    fn trace(&mut self, addr: u64, len: u32, is_read: bool) {
        self.stats.accesses += 1;
        let first = self.coalescer.line_of(addr);
        let last = self.coalescer.line_of(addr + u64::from(len) - 1);
        self.touch_line(first, 1, is_read);
        // Device allocations are line-aligned; only a hand-placed buffer
        // has elements that straddle into a second line.
        for line in first + 1..=last {
            self.touch_line(line, 1, is_read);
        }
        if !is_read {
            self.stats.bytes_written += u64::from(len);
        }
    }

    /// `count` lanes accessing consecutive `elem`-byte elements from `addr`
    /// up: charges exactly what `count` calls of [`Self::trace`] would, one
    /// coalescer step per line instead of one per lane.
    fn trace_run(&mut self, addr: u64, elem: u32, count: usize, is_read: bool) {
        let elem = u64::from(elem);
        debug_assert!(
            addr.is_multiple_of(elem),
            "elements must not straddle lines"
        );
        self.stats.accesses += count as u64;
        let line_bytes = self.coalescer.line_bytes();
        let mut line = self.coalescer.line_of(addr);
        let mut left = count as u64;
        let mut k = left.min(((line + 1) * line_bytes - addr) / elem);
        while left > 0 {
            self.touch_line(line, k, is_read);
            left -= k;
            line += 1;
            k = left.min(line_bytes / elem);
        }
        if !is_read {
            self.stats.bytes_written += elem * count as u64;
        }
    }

    // --- scalar (uniform) memory operations: 1 wave instruction each ---

    /// Uniform 32-bit load (e.g. reading a queue length).
    pub fn sload32(&mut self, buf: &BufU32, idx: usize) -> u32 {
        self.stats.instructions += 1;
        self.trace(buf.addr(idx), 4, true);
        buf.load(idx)
    }

    /// Uniform 64-bit load.
    pub fn sload64(&mut self, buf: &BufU64, idx: usize) -> u64 {
        self.stats.instructions += 1;
        self.trace(buf.addr(idx), 8, true);
        buf.load(idx)
    }

    /// Uniform 32-bit store.
    pub fn sstore32(&mut self, buf: &BufU32, idx: usize, val: u32) {
        self.stats.instructions += 1;
        self.trace(buf.addr(idx), 4, false);
        buf.store(idx, val);
    }

    // --- vector operations: 1 wave instruction for up to `width` lanes ---

    fn charge_vector(&mut self, lanes: usize) {
        // Requests wider than the wave model a per-lane loop: one wave
        // instruction per `width` lanes.
        self.stats.instructions += lanes.div_ceil(self.width) as u64;
    }

    /// One indexed vector op: charge the issue, then trace (`addr`, `elem`
    /// bytes) and apply each lane in order. An op with no lanes is free.
    /// Every counter moves once per op, after the lane loop (DESIGN.md §8).
    #[inline]
    fn vector<T: Copy>(
        &mut self,
        ops: impl IntoIterator<Item: Borrow<T>, IntoIter: ExactSizeIterator>,
        elem: u32,
        is_read: bool,
        addr: impl Fn(&T) -> u64,
        lane: impl FnMut(T),
    ) {
        let ops = ops.into_iter();
        let n = ops.len() as u64;
        if n == 0 {
            return;
        }
        self.charge_vector(ops.len());
        let (co, elem) = (&mut *self.coalescer, u64::from(elem));
        let line_bytes = co.line_bytes();
        let mut l2_hits = 0;
        // Only timing mode has an L2 to ask: one loop per mode.
        let (touched, misses) = match self.l2.as_deref_mut() {
            None => lane_loop(ops, elem, line_bytes, addr, lane, |line| !co.probe(line)),
            Some(l2) => {
                // A miss already at the front of its L2 set only counts a
                // hit, so it is summed without a branch and the L2 is asked
                // only about the rest.
                let mut front_hits = 0;
                let counts = lane_loop(ops, elem, line_bytes, addr, lane, |line| {
                    let miss = !co.probe(line);
                    let front = l2.front_hit(line);
                    front_hits += u64::from(miss & front);
                    if miss & !front {
                        l2_hits += u64::from(l2.access_line(line));
                    }
                    miss
                });
                l2.hits += front_hits;
                l2_hits += front_hits;
                counts
            }
        };
        co.hits += touched - misses;
        co.misses += misses;
        self.stats.accesses += n;
        self.stats.l1_hits += touched - misses;
        self.stats.l2_accesses += misses;
        self.stats.l2_hits += l2_hits;
        if is_read {
            // Functional mode has no L2 hits: every read miss is a fetch.
            self.stats.hbm_lines += misses - l2_hits;
        } else {
            self.stats.bytes_written += elem * n;
        }
    }

    /// Gather 32-bit values at `idxs` (one per active lane); results are
    /// appended to `out` in lane order. Like every indexed vector op, takes
    /// the lanes from any exact-size iterator — a slice, or a `map` over
    /// wherever the indices already live.
    pub fn vload32(
        &mut self,
        buf: &BufU32,
        idxs: impl IntoIterator<Item: Borrow<usize>, IntoIter: ExactSizeIterator>,
        out: &mut Vec<u32>,
    ) {
        self.vector(idxs, 4, true, |&i| buf.addr(i), |i| out.push(buf.load(i)));
    }

    /// Gather 64-bit values.
    pub fn vload64(
        &mut self,
        buf: &BufU64,
        idxs: impl IntoIterator<Item: Borrow<usize>, IntoIter: ExactSizeIterator>,
        out: &mut Vec<u64>,
    ) {
        self.vector(idxs, 8, true, |&i| buf.addr(i), |i| out.push(buf.load(i)));
    }

    /// Scatter 32-bit values.
    pub fn vstore32(
        &mut self,
        buf: &BufU32,
        writes: impl IntoIterator<Item: Borrow<(usize, u32)>, IntoIter: ExactSizeIterator>,
    ) {
        self.vector(
            writes,
            4,
            false,
            |w| buf.addr(w.0),
            |(i, v)| buf.store(i, v),
        );
    }

    /// Scatter 64-bit values.
    pub fn vstore64(
        &mut self,
        buf: &BufU64,
        writes: impl IntoIterator<Item: Borrow<(usize, u64)>, IntoIter: ExactSizeIterator>,
    ) {
        self.vector(
            writes,
            8,
            false,
            |w| buf.addr(w.0),
            |(i, v)| buf.store(i, v),
        );
    }

    /// Load the `count` consecutive 32-bit values from `start` up, appended
    /// to `out` — [`Self::vload32`] over `start..start + count`, same
    /// counters, traced per line instead of per lane.
    pub fn vload32_range(&mut self, buf: &BufU32, start: usize, count: usize, out: &mut Vec<u32>) {
        if count == 0 {
            return;
        }
        self.charge_vector(count);
        self.trace_run(buf.addr(start), 4, count, true);
        buf.load_range(start, count, out);
    }

    /// The entries of `buf` under this wave's lanes, one
    /// [`Self::vload32_range`]; `None` for a wave past the launch's end.
    pub fn lane_entries32(&mut self, buf: &BufU32) -> Option<Vec<u32>> {
        let gids = self.lanes();
        if gids.is_empty() {
            return None;
        }
        let mut entries = Vec::with_capacity(gids.len());
        self.vload32_range(buf, gids.start, gids.len(), &mut entries);
        Some(entries)
    }

    /// The ids of this wave's lanes whose `status` entry passes `keep`:
    /// [`Self::lane_entries32`] and one compare.
    pub fn lanes_where(&mut self, status: &BufU32, keep: impl Fn(u32) -> bool) -> Vec<u32> {
        let Some(sts) = self.lane_entries32(status) else {
            return Vec::new();
        };
        self.alu(1);
        let kept = self.lanes().zip(sts).filter(|&(_, s)| keep(s));
        kept.map(|(v, _)| v as u32).collect()
    }

    /// Load `count` consecutive 64-bit values (see [`Self::vload32_range`]).
    pub fn vload64_range(&mut self, buf: &BufU64, start: usize, count: usize, out: &mut Vec<u64>) {
        if count == 0 {
            return;
        }
        self.charge_vector(count);
        self.trace_run(buf.addr(start), 8, count, true);
        buf.load_range(start, count, out);
    }

    /// Store `vals` at consecutive indices from `start` up —
    /// [`Self::vstore32`] of `(start + i, vals[i])`, same counters.
    pub fn vstore32_range(&mut self, buf: &BufU32, start: usize, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        self.charge_vector(vals.len());
        self.trace_run(buf.addr(start), 4, vals.len(), false);
        buf.store_range(start, vals);
    }

    /// One atomic vector op: [`Self::vector`] plus the atomic-unit charges.
    #[inline]
    fn atomic<T: Copy>(
        &mut self,
        ops: impl IntoIterator<Item: Borrow<T>, IntoIter: ExactSizeIterator + Clone>,
        elem: u32,
        addr: impl Fn(&T) -> u64,
        lane: impl FnMut(T),
    ) {
        let ops = ops.into_iter();
        let n = ops.len();
        if n == 0 {
            return;
        }
        self.stats.atomics += n as u64;
        // Ops hitting the same cache line within one wave op serialize at
        // the L2 atomic unit. A batch is at most a wave wide unless the
        // caller models a per-lane loop.
        let (mut stack, mut heap) = ([0u64; 64], Vec::new());
        let lines = if n <= stack.len() {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        for (slot, op) in lines.iter_mut().zip(ops.clone()) {
            *slot = self.coalescer.line_of(addr(op.borrow()));
        }
        lines.sort_unstable();
        let repeats = lines.windows(2).filter(|p| p[0] == p[1]).count();
        self.stats.atomic_conflicts += repeats as u64;
        self.vector(ops, elem, true, addr, lane);
    }

    /// Per-lane compare-exchange batch. Each entry is `(idx, expected, new)`;
    /// results are appended to `out` (`Ok(prev)` on success).
    pub fn vcas32(
        &mut self,
        buf: &BufU32,
        ops: impl IntoIterator<Item: Borrow<(usize, u32, u32)>, IntoIter: ExactSizeIterator + Clone>,
        out: &mut Vec<Result<u32, u32>>,
    ) {
        let cas = |(i, cur, new)| out.push(buf.cas(i, cur, new));
        self.atomic(ops, 4, |o| buf.addr(o.0), cas);
    }

    /// Per-lane fetch-add batch; returns previous values in lane order.
    pub fn vadd32(
        &mut self,
        buf: &BufU32,
        ops: impl IntoIterator<Item: Borrow<(usize, u32)>, IntoIter: ExactSizeIterator + Clone>,
        out: &mut Vec<u32>,
    ) {
        let add = |(i, v)| out.push(buf.fetch_add(i, v));
        self.atomic(ops, 4, |o| buf.addr(o.0), add);
    }

    /// Per-lane atomic-OR batch (`atomicOr`) — the frontier-bitmap update
    /// primitive of distributed BFS.
    pub fn vor32(
        &mut self,
        buf: &BufU32,
        ops: impl IntoIterator<Item: Borrow<(usize, u32)>, IntoIter: ExactSizeIterator + Clone>,
    ) {
        let or = |(i, v)| {
            buf.fetch_or(i, v);
        };
        self.atomic(ops, 4, |o| buf.addr(o.0), or);
    }

    /// Per-lane atomic-OR batch on 64-bit words (`atomicOr` on
    /// `unsigned long long`) — the visited-mask update primitive of
    /// wave-width-64 multi-source BFS.
    pub fn vor64(
        &mut self,
        buf: &BufU64,
        ops: impl IntoIterator<Item: Borrow<(usize, u64)>, IntoIter: ExactSizeIterator + Clone>,
    ) {
        let or = |(i, v)| {
            buf.fetch_or(i, v);
        };
        self.atomic(ops, 8, |o| buf.addr(o.0), or);
    }

    /// Per-lane atomic-minimum batch (`atomicMin`); returns previous values
    /// in lane order. The relaxation primitive of SSSP-style BFS.
    pub fn vmin32(
        &mut self,
        buf: &BufU32,
        ops: impl IntoIterator<Item: Borrow<(usize, u32)>, IntoIter: ExactSizeIterator + Clone>,
        out: &mut Vec<u32>,
    ) {
        let min = |(i, v)| out.push(buf.fetch_min(i, v));
        self.atomic(ops, 4, |o| buf.addr(o.0), min);
    }

    /// Uniform (wave-aggregated) fetch-add: one atomic performed by the
    /// first active lane — the idiomatic way XBFS allocates queue slots for
    /// a whole wave after a ballot.
    pub fn wave_add32(&mut self, buf: &BufU32, idx: usize, val: u32) -> u32 {
        self.stats.instructions += 1;
        self.stats.atomics += 1;
        self.trace(buf.addr(idx), 4, true);
        buf.fetch_add(idx, val)
    }

    /// Uniform fetch-add on a 64-bit counter.
    pub fn wave_add64(&mut self, buf: &BufU64, idx: usize, val: u64) -> u64 {
        self.stats.instructions += 1;
        self.stats.atomics += 1;
        self.trace(buf.addr(idx), 8, true);
        buf.fetch_add(idx, val)
    }

    // --- wave intrinsics ---

    /// `__ballot`: bitmask of lanes whose predicate is true. Predicates are
    /// given for the lanes present (≤ width).
    pub fn ballot(&mut self, preds: &[bool]) -> u64 {
        debug_assert!(preds.len() <= self.width && self.width <= 64);
        self.stats.instructions += 1;
        preds
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| if p { m | (1 << i) } else { m })
    }

    /// Wave-level exclusive prefix sum (log-width butterfly; longer inputs
    /// model a chunked scan).
    pub fn wave_prefix_sum(&mut self, vals: &[u32], out: &mut Vec<u32>) -> u32 {
        let log_w = (usize::BITS - self.width.leading_zeros()) as u64;
        self.stats.instructions += log_w * vals.len().div_ceil(self.width).max(1) as u64;
        let mut acc = 0u32;
        for &v in vals {
            out.push(acc);
            acc += v;
        }
        acc
    }

    /// Wave-level sum reduction (chunked for inputs longer than the wave).
    pub fn wave_reduce_add(&mut self, vals: &[u32]) -> u64 {
        let log_w = (usize::BITS - self.width.leading_zeros()) as u64;
        self.stats.instructions += log_w * vals.len().div_ceil(self.width).max(1) as u64;
        vals.iter().map(|&v| u64::from(v)).sum()
    }
}

/// The lane loop of [`WaveCtx::vector`]: probe each lane's line through
/// `miss` (true when it leaves the coalescer), then apply the lane. At most
/// 8 bytes long, an element reaches into at most one more line (and only in
/// a hand-placed buffer). Returns (lines touched, lines missed).
#[inline]
fn lane_loop<T: Copy>(
    ops: impl Iterator<Item: Borrow<T>>,
    elem: u64,
    line_bytes: u64,
    addr: impl Fn(&T) -> u64,
    mut lane: impl FnMut(T),
    mut miss: impl FnMut(u64) -> bool,
) -> (u64, u64) {
    let shift = line_bytes.trailing_zeros();
    let (mut touched, mut misses) = (0, 0);
    for op in ops {
        let op = *op.borrow();
        let at = addr(&op);
        touched += 1;
        misses += u64::from(miss(at >> shift));
        if (at & (line_bytes - 1)) + elem > line_bytes {
            touched += 1;
            misses += u64::from(miss((at >> shift) + 1));
        }
        lane(op);
    }
    (touched, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with(co: &mut Coalescer) -> WaveCtx<'_> {
        WaveCtx::new(0, 64, 1024, co, None)
    }

    #[test]
    fn lanes_respect_partial_waves() {
        let mut co = Coalescer::new(64, 64);
        let ctx = WaveCtx::new(2, 64, 140, &mut co, None);
        let lanes: Vec<usize> = ctx.lanes().collect();
        assert_eq!(lanes.first(), Some(&128));
        assert_eq!(lanes.len(), 12); // 140 - 128
    }

    #[test]
    fn vector_load_charges_one_instruction() {
        let buf = BufU32::from_slice(0, &[10, 20, 30, 40]);
        let mut co = Coalescer::new(64, 64);
        let mut ctx = ctx_with(&mut co);
        let mut out = Vec::new();
        ctx.vload32(&buf, [0, 2], &mut out);
        assert_eq!(out, vec![10, 30]);
        assert_eq!(ctx.stats.instructions, 1);
        assert_eq!(ctx.stats.accesses, 2);
        // Both fit in one line: one fetch.
        assert_eq!(ctx.stats.hbm_lines, 1);
    }

    #[test]
    fn empty_vector_op_is_free() {
        let buf = BufU32::new(0, 4);
        let mut co = Coalescer::new(64, 64);
        let mut ctx = ctx_with(&mut co);
        let mut out = Vec::new();
        ctx.vload32(&buf, [0usize; 0], &mut out);
        ctx.vor64(&BufU64::new(0, 4), [(0usize, 0u64); 0]);
        ctx.vcas32(&buf, [(0usize, 0u32, 0u32); 0], &mut Vec::new());
        assert!(out.is_empty());
        assert_eq!(ctx.stats, WaveStats::default());
    }

    #[test]
    fn cas_batch_counts_conflicts() {
        let buf = BufU32::new(0, 64);
        let mut co = Coalescer::new(64, 64);
        let mut ctx = ctx_with(&mut co);
        let mut out = Vec::new();
        // Three CAS on the same line (idx 0, 1, 2), one far away.
        ctx.vcas32(
            &buf,
            [(0, 0, 1), (1, 0, 1), (2, 0, 1), (32, 0, 1)],
            &mut out,
        );
        assert_eq!(ctx.stats.atomics, 4);
        assert_eq!(ctx.stats.atomic_conflicts, 2);
        assert!(out.iter().all(|r| r.is_ok()));
        // Losing CAS:
        out.clear();
        ctx.vcas32(&buf, [(0, 0, 9)], &mut out);
        assert_eq!(out[0], Err(1));
    }

    #[test]
    fn writes_do_not_count_as_fetches() {
        let buf = BufU32::new(4096, 64);
        let mut co = Coalescer::new(64, 64);
        let mut ctx = ctx_with(&mut co);
        ctx.vstore32(&buf, [(0, 1), (1, 2)]);
        assert_eq!(ctx.stats.hbm_lines, 0);
        assert_eq!(ctx.stats.bytes_written, 8);
        // Second store on the same line already hit the coalescer.
        assert_eq!(ctx.stats.l1_hits, 1);
        // A read of the just-written line also hits the coalescer.
        let mut out = Vec::new();
        ctx.vload32(&buf, [0], &mut out);
        assert_eq!(ctx.stats.hbm_lines, 0);
        assert_eq!(ctx.stats.l1_hits, 2);
    }

    #[test]
    fn timing_mode_feeds_l2() {
        let buf = BufU32::new(0, 1024);
        let mut co = Coalescer::new(4, 64); // tiny coalescer: everything spills to L2
        let mut l2 = L2Model::new(1 << 20, 16, 64);
        let mut out = Vec::new();
        {
            let mut ctx = WaveCtx::new(0, 64, 1024, &mut co, Some(&mut l2));
            let idxs: Vec<usize> = (0..64).map(|i| i * 16).collect(); // distinct lines
            ctx.vload32(&buf, &idxs, &mut out);
            assert_eq!(ctx.stats.l2_accesses, 64);
            assert_eq!(ctx.stats.hbm_lines, 64);
        }
        // Second wave re-reads the same lines: coalescer is reset but L2 is
        // warm, so fetches become L2 hits.
        let mut ctx = WaveCtx::new(1, 64, 1024, &mut co, Some(&mut l2));
        out.clear();
        let idxs: Vec<usize> = (0..64).map(|i| i * 16).collect();
        ctx.vload32(&buf, &idxs, &mut out);
        assert_eq!(ctx.stats.l2_hits, 64);
        assert_eq!(ctx.stats.hbm_lines, 0);
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        // Only a hand-placed buffer can straddle: device allocations are
        // line-aligned.
        let buf = BufU32::new(62, 2);
        let mut co = Coalescer::new(16, 64);
        let mut ctx = ctx_with(&mut co);
        ctx.sload32(&buf, 0); // bytes 62..66
        assert_eq!(ctx.stats.accesses, 1);
        assert_eq!(ctx.stats.hbm_lines, 2);
        ctx.sload32(&buf, 0);
        assert_eq!(ctx.stats.l1_hits, 2);
    }

    #[test]
    fn range_load_charges_like_the_gather() {
        let vals: Vec<u32> = (0..200).collect();
        let buf = BufU32::from_slice(4096, &vals);
        let idxs: Vec<usize> = (5..150).collect();
        let (mut co_a, mut co_b) = (Coalescer::new(4, 64), Coalescer::new(4, 64));
        let (mut l2_a, mut l2_b) = (L2Model::new(4096, 4, 64), L2Model::new(4096, 4, 64));
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut a = WaveCtx::new(0, 64, 1024, &mut co_a, Some(&mut l2_a));
        a.vload32(&buf, &idxs, &mut out_a);
        let mut b = WaveCtx::new(0, 64, 1024, &mut co_b, Some(&mut l2_b));
        b.vload32_range(&buf, 5, 145, &mut out_b);
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.stats.instructions, 3); // 145 lanes = 3 wave-wide issues
        assert_eq!(co_a, co_b);
        assert_eq!(l2_a, l2_b);
    }

    #[test]
    fn wide_atomic_batches_count_conflicts_exactly() {
        let buf = BufU32::new(0, 4096);
        let mut co = Coalescer::new(64, 64);
        let mut ctx = ctx_with(&mut co);
        // 100 ops (wider than the stack buffer) over 10 distinct lines.
        let ops: Vec<(usize, u32)> = (0..100).map(|i| ((i % 10) * 16, 1)).collect();
        ctx.vor32(&buf, &ops);
        assert_eq!(ctx.stats.atomics, 100);
        assert_eq!(ctx.stats.atomic_conflicts, 90);
    }

    #[test]
    fn ballot_sets_one_bit_per_true_lane() {
        let mut co = Coalescer::new(16, 64);
        let mut ctx = ctx_with(&mut co);
        assert_eq!(ctx.ballot(&[true, false, true]), 0b101);
        assert_eq!(ctx.stats.instructions, 1);
    }

    #[test]
    fn prefix_sum_and_reduce() {
        let mut co = Coalescer::new(16, 64);
        let mut ctx = ctx_with(&mut co);
        let mut out = Vec::new();
        let total = ctx.wave_prefix_sum(&[1, 2, 3, 4], &mut out);
        assert_eq!(out, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
        assert_eq!(ctx.wave_reduce_add(&[5, 5, 5]), 15);
    }

    #[test]
    fn wave_aggregated_atomic_is_single_op() {
        let buf = BufU32::new(0, 4);
        let mut co = Coalescer::new(16, 64);
        let mut ctx = ctx_with(&mut co);
        let prev = ctx.wave_add32(&buf, 0, 64);
        assert_eq!(prev, 0);
        assert_eq!(buf.load(0), 64);
        assert_eq!(ctx.stats.atomics, 1);
    }
}
