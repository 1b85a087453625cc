//! Property-based tests for the GCD substrate: cache-model accounting,
//! wave-op semantics, and functional/timing equivalence.

use gcd_sim::coalescer::Coalescer;
use gcd_sim::l2::L2Model;
use gcd_sim::{ArchProfile, BufU32, BufU64, Device, ExecMode, LaunchCfg, WaveCtx, WaveStats};
use proptest::prelude::*;

/// One contiguous request: elements `start..start + count`.
type Span = (usize, usize);

/// Elements in each buffer of the range-op tests.
const RANGE_BUF: usize = 1000;

fn span() -> impl Strategy<Value = Span> {
    // Up to 6 waves wide, any alignment of either end within its line.
    (0usize..RANGE_BUF - 400, 0usize..400)
}

/// The stamp-clock LRU that `Coalescer` and `L2Model` were before they kept
/// each set in recency order (a global tick, a stamp per way,
/// first-minimum-stamp victim): the model the recency-ordered ones must be
/// indistinguishable from.
struct StampLru {
    set_mask: u64,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl StampLru {
    /// Shaped like `Coalescer::new(lines, _)`.
    fn new(lines: usize) -> Self {
        Self::with_ways(lines.max(4).div_ceil(4).next_power_of_two(), 4)
    }

    fn with_ways(sets: usize, ways: usize) -> Self {
        Self {
            set_mask: sets as u64 - 1,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch_run(&mut self, line: u64, k: u64) -> bool {
        self.tick += k;
        let base = (line & self.set_mask) as usize * self.ways;
        let set = base..base + self.ways;
        let resident = set.clone().find(|&w| self.tags[w] == line);
        // `min_by_key` returns the first of equal minima.
        let way = resident
            .unwrap_or_else(|| set.min_by_key(|&w| self.stamps[w]).expect("a set has ways"));
        self.tags[way] = line;
        self.stamps[way] = self.tick;
        self.hits += k - 1 + u64::from(resident.is_some());
        self.misses += u64::from(resident.is_none());
        resident.is_some()
    }
}

/// The tracer `WaveCtx`'s vector ops ran every lane through before they
/// kept their books per op (`trace` and `touch_line` as they were, over
/// the public `Coalescer::touch` and `L2Model::access_line`): what
/// the per-op counters must add up to.
struct LaneTracer {
    co: Coalescer,
    l2: Option<L2Model>,
    stats: WaveStats,
}

impl LaneTracer {
    fn touch_line(&mut self, line: u64, is_read: bool) {
        let hit = self.co.touch(line);
        let miss = u64::from(!hit);
        self.stats.l1_hits += 1 - miss;
        self.stats.l2_accesses += miss;
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

    fn trace(&mut self, addr: u64, len: u32, is_read: bool) {
        self.stats.accesses += 1;
        let first = self.co.line_of(addr);
        let last = self.co.line_of(addr + u64::from(len) - 1);
        self.touch_line(first, is_read);
        for line in first + 1..=last {
            self.touch_line(line, is_read);
        }
        if !is_read {
            self.stats.bytes_written += u64::from(len);
        }
    }

    /// One vector op over `addrs`, a wave 64 wide; an atomic one also pays
    /// the atomic unit, where ops on one line serialize.
    fn vector(&mut self, addrs: &[u64], elem: u32, is_read: bool, atomic: bool) {
        if atomic {
            let mut lines: Vec<u64> = addrs.iter().map(|&a| self.co.line_of(a)).collect();
            lines.sort_unstable();
            self.stats.atomics += addrs.len() as u64;
            self.stats.atomic_conflicts += lines.windows(2).filter(|p| p[0] == p[1]).count() as u64;
        }
        self.stats.instructions += addrs.len().div_ceil(64) as u64;
        for &a in addrs {
            self.trace(a, elem, is_read);
        }
    }
}

/// Drive two waves from identical coalescer and L2 state, one through each
/// of two spellings of the same accesses (`per_lane` the indexed ops over a
/// slice, `ranged` the `_range` ops or the indexed ops over an iterator).
/// Returns what each left behind, for comparison.
fn run_both<T: PartialEq + std::fmt::Debug>(
    coalescer_lines: usize,
    timing: bool,
    warm: impl Fn(&mut WaveCtx),
    per_lane: impl Fn(&mut WaveCtx) -> T,
    ranged: impl Fn(&mut WaveCtx) -> T,
) -> [(T, gcd_sim::WaveStats, Coalescer, L2Model); 2] {
    let run = |body: &dyn Fn(&mut WaveCtx) -> T| {
        let mut co = Coalescer::new(coalescer_lines, 64);
        // 64 lines, 4-way: the warm-up alone overflows it.
        let mut l2 = L2Model::new(4096, 4, 64);
        let mut w = WaveCtx::new(3, 64, 1 << 20, &mut co, timing.then_some(&mut l2));
        warm(&mut w);
        let out = body(&mut w);
        let stats = w.stats;
        (out, stats, co, l2)
    };
    [run(&per_lane), run(&ranged)]
}

proptest! {
    #[test]
    fn coalescer_accounting_balances(addrs in proptest::collection::vec(0u64..1 << 20, 1..300)) {
        let mut co = Coalescer::new(128, 64);
        let mut missed = 0u64;
        for &a in &addrs {
            let line = co.line_of(a);
            missed += u64::from(!co.touch(line));
        }
        prop_assert_eq!(co.hits + co.misses, addrs.len() as u64);
        prop_assert_eq!(co.misses, missed);
    }

    #[test]
    fn touch_run_is_k_touches(ops in proptest::collection::vec((0u64..24, 1u64..40), 1..80)) {
        // 4 lines under a 24-line working set: nearly every new line evicts.
        let mut run = Coalescer::new(4, 64);
        let mut one = run.clone();
        for &(line, k) in &ops {
            let first_hit = run.touch_run(line, k);
            let hits: Vec<bool> = (0..k).map(|_| one.touch(line)).collect();
            prop_assert_eq!(first_hit, hits[0]);
            prop_assert!(hits[1..].iter().all(|&h| h));
            prop_assert_eq!(&run, &one);
        }
    }

    /// Recency order alone is exact LRU: against the stamp-clock model, every
    /// touch returns the same hit bit, and the counters and the resident
    /// lines (hence each set's, a line having one set) end up the same —
    /// for working sets inside and well beyond the capacity.
    #[test]
    fn recency_order_is_stamp_lru(
        size in 0usize..3,
        wide in any::<bool>(),
        ops in proptest::collection::vec((any::<u64>(), 1u64..=64), 1..400),
    ) {
        let lines = [4usize, 16, 128][size];
        let span = if wide { 6 * lines } else { 3 * lines / 4 } as u64;
        let mut co = Coalescer::new(lines, 64);
        let mut lru = StampLru::new(lines);
        for &(raw, k) in &ops {
            prop_assert_eq!(co.touch_run(raw % span, k), lru.touch_run(raw % span, k));
        }
        prop_assert_eq!((co.hits, co.misses), (lru.hits, lru.misses));
        // A probe of a copy reads residency without disturbing it.
        let resident: Vec<u64> = (0..span).filter(|&l| co.clone().touch(l)).collect();
        let mut expect: Vec<u64> = lru.tags.iter().copied().filter(|&t| t != u64::MAX).collect();
        expect.sort_unstable();
        prop_assert_eq!(resident, expect);
    }

    /// The L2 in recency order is the same stamp-clock LRU, at every
    /// associativity, cold-started mid-sequence included.
    #[test]
    fn l2_recency_order_is_stamp_lru(
        assoc in 0usize..3,
        wide in any::<bool>(),
        ops in proptest::collection::vec(any::<u64>(), 2..600),
    ) {
        let (sets, ways) = (16, [1usize, 4, 16][assoc]);
        let lines = sets * ways;
        let span = if wide { 6 * lines } else { 3 * lines / 4 } as u64;
        let mut l2 = L2Model::new(lines * 64, ways, 64);
        let mut lru = StampLru::with_ways(sets, ways);
        for (i, &raw) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                l2.invalidate();
                lru = StampLru::with_ways(sets, ways);
            }
            prop_assert_eq!(l2.access_line(raw % span), lru.touch_run(raw % span, 1));
        }
        prop_assert_eq!((l2.hits, l2.misses), (lru.hits, lru.misses));
        let resident: Vec<u64> = (0..span).filter(|&l| l2.clone().access_line(l)).collect();
        let mut expect: Vec<u64> = lru.tags.iter().copied().filter(|&t| t != u64::MAX).collect();
        expect.sort_unstable();
        prop_assert_eq!(resident, expect);
    }

    /// The L2 keeps 32-bit tags (`line >> set_bits`), and they are exact up
    /// to the last line whose tag fits below `u32::MAX`: against the
    /// stamp-clock LRU, which keeps whole `u64` lines, every hit bit and
    /// both counters agree on windows anywhere in that range (its top
    /// included) and on lines that differ only in a high tag bit, at every
    /// associativity, cold-started mid-sequence included.
    #[test]
    fn l2_tags_are_exact_at_high_addresses(
        assoc in 0usize..3,
        wide in any::<bool>(),
        (top, base) in (any::<bool>(), 0u64..=u64::from(u32::MAX) << 4),
        ops in proptest::collection::vec((any::<u64>(), 16u32..32, any::<bool>()), 2..600),
    ) {
        // 16 sets: 4 set bits, so the last line with an exact tag is this.
        let (sets, ways) = (16, [1usize, 4, 16][assoc]);
        let last = (u64::from(u32::MAX) << 4) - 1;
        let lines = sets * ways;
        let span = if wide { 6 * lines } else { 3 * lines / 4 } as u64;
        let base = if top { last + 1 - span } else { base.min(last + 1 - span) };
        let mut l2 = L2Model::new(lines * 64, ways, 64);
        let mut lru = StampLru::with_ways(sets, ways);
        for (i, &(raw, bit, flip)) in ops.iter().enumerate() {
            if i == ops.len() / 2 {
                l2.invalidate();
                lru = StampLru::with_ways(sets, ways);
            }
            let line = base + raw % span;
            // Or its twin one high tag bit apart (same set unless clamped).
            let line = if flip { (line ^ (1 << (4 + bit))).min(last) } else { line };
            prop_assert_eq!(l2.access_line(line), lru.touch_run(line, 1));
        }
        prop_assert_eq!((l2.hits, l2.misses), (lru.hits, lru.misses));
    }

    /// Counting per op is counting per lane: every indexed vector op leaves
    /// the `WaveStats`, the coalescer (state and counters) and the L2 the
    /// per-lane tracer leaves — empty ops, ops wider than a wave and than
    /// `atomic`'s stack array, and elements that straddle two lines included.
    #[test]
    fn vector_ops_count_like_the_per_lane_tracer(
        ops in proptest::collection::vec(
            (0usize..6, proptest::collection::vec((0usize..RANGE_BUF, any::<u32>()), 0..201)),
            1..10,
        ),
        place in 0usize..3,
        tiny_coalescer in any::<bool>(),
        timing in any::<bool>(),
    ) {
        // Line-aligned like a device allocation, or hand-placed so that
        // some elements reach into a second line.
        let offset = [0u64, 2, 62][place];
        let b32 = BufU32::new(4096 + offset, RANGE_BUF);
        let b64 = BufU64::new((1 << 16) + offset, RANGE_BUF);
        let lines = if tiny_coalescer { 4 } else { 128 };
        let (mut co, mut l2) = (Coalescer::new(lines, 64), L2Model::new(4096, 4, 64));
        let mut reference = LaneTracer {
            co: co.clone(),
            l2: timing.then(|| l2.clone()),
            stats: WaveStats::default(),
        };
        let mut w = WaveCtx::new(3, 64, 1 << 20, &mut co, timing.then_some(&mut l2));
        for (kind, lanes) in &ops {
            let idx = lanes.iter().map(|&(i, _)| i);
            let a32: Vec<u64> = idx.clone().map(|i| b32.addr(i)).collect();
            let a64: Vec<u64> = idx.clone().map(|i| b64.addr(i)).collect();
            let wide = lanes.iter().map(|&(i, v)| (i, u64::from(v)));
            match kind {
                0 => w.vload32(&b32, idx, &mut Vec::new()),
                1 => w.vload64(&b64, idx, &mut Vec::new()),
                2 => w.vstore32(&b32, lanes),
                3 => w.vstore64(&b64, wide),
                4 => w.vcas32(&b32, lanes.iter().map(|&(i, v)| (i, 0, v)), &mut Vec::new()),
                _ => w.vor64(&b64, wide),
            }
            let (addrs, elem) = if matches!(kind, 0 | 2 | 4) { (&a32, 4) } else { (&a64, 8) };
            reference.vector(addrs, elem, !matches!(kind, 2 | 3), *kind >= 4);
        }
        prop_assert_eq!(w.stats, reference.stats);
        prop_assert_eq!(&co, &reference.co);
        prop_assert_eq!(timing.then_some(l2), reference.l2);
    }

    /// `vload32_range` / `vload64_range` / `vstore32_range` are the per-lane
    /// ops over `start..start + count`: same values, same `WaveStats`, same
    /// coalescer (recency order, hits, misses) and same L2 afterwards.
    #[test]
    fn range_ops_match_per_lane_ops(
        pad_lines in 0usize..9,
        (l32, l64, st32) in (span(), span(), span()),
        tiny_coalescer in any::<bool>(),
        timing in any::<bool>(),
        warm in proptest::collection::vec(0usize..RANGE_BUF, 0..120),
        fill in any::<u32>(),
    ) {
        let dev = Device::mi250x();
        // Shift the buffers' base by whole lines: a different set mapping.
        let _pad = dev.alloc_u32(16 * pad_lines + 1);
        let words: Vec<u32> = (0..RANGE_BUF as u32).map(|i| i.wrapping_mul(fill | 1)).collect();
        let b32 = dev.upload_u32(&words);
        let b64 = dev.upload_u64(&words.iter().map(|&w| u64::from(w) << 7).collect::<Vec<_>>());
        let dst = dev.alloc_u32(RANGE_BUF);
        let vals: Vec<u32> = (0..st32.1 as u32).map(|i| i ^ fill).collect();
        let idxs = |(start, count): Span| (start..start + count).collect::<Vec<usize>>();

        let lines = if tiny_coalescer { 4 } else { 128 };
        let [a, b] = run_both(
            lines,
            timing,
            |w| {
                // Mid-stream state: scattered loads before the ops under test.
                let mut sink = Vec::new();
                w.vload32(&b32, &warm, &mut sink);
            },
            |w| {
                let (mut o32, mut o64) = (Vec::new(), Vec::new());
                w.vload32(&b32, idxs(l32), &mut o32);
                w.vload64(&b64, idxs(l64), &mut o64);
                let writes: Vec<(usize, u32)> = idxs(st32).into_iter().zip(vals.iter().copied()).collect();
                w.vstore32(&dst, &writes);
                let stored = dst.to_host();
                dst.host_fill(0);
                (o32, o64, stored)
            },
            |w| {
                let (mut o32, mut o64) = (Vec::new(), Vec::new());
                w.vload32_range(&b32, l32.0, l32.1, &mut o32);
                w.vload64_range(&b64, l64.0, l64.1, &mut o64);
                w.vstore32_range(&dst, st32.0, &vals);
                (o32, o64, dst.to_host())
            },
        );
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.0.0.len(), l32.1);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(&a.2, &b.2);
        prop_assert_eq!(&a.3, &b.3);
    }

    /// Every indexed op charges and does the same whether its lanes come
    /// from a `&Vec` or from a `map` over where the operands live — also for
    /// atomic batches wider than the 64 lines `charge`d on the stack.
    #[test]
    fn iterator_ops_match_slice_ops(
        picks in proptest::collection::vec((0u32..RANGE_BUF as u32, any::<u32>()), 65..200),
        tiny_coalescer in any::<bool>(),
        timing in any::<bool>(),
        warm in proptest::collection::vec(0usize..RANGE_BUF, 0..120),
    ) {
        let dev = Device::mi250x();
        let words: Vec<u32> = (0..RANGE_BUF as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let wide: Vec<u64> = words.iter().map(|&w| u64::from(w) << 7).collect();
        let (b32, b64) = (dev.upload_u32(&words), dev.upload_u64(&wide));
        // Both spellings start from the same contents and return what they
        // read plus what they left in the buffers.
        let finish = |loads: (Vec<u32>, Vec<u64>), rmw: (Vec<Result<u32, u32>>, Vec<u32>, Vec<u32>)| {
            let left = (b32.to_host(), b64.to_host());
            b32.host_write(&words);
            b64.host_write(&wide);
            (loads, rmw, left)
        };
        let lines = if tiny_coalescer { 4 } else { 128 };
        let [a, b] = run_both(
            lines,
            timing,
            |w| w.vload32(&b32, &warm, &mut Vec::new()),
            |w| {
                let idx: Vec<usize> = picks.iter().map(|&(i, _)| i as usize).collect();
                let w32: Vec<(usize, u32)> = picks.iter().map(|&(i, v)| (i as usize, v)).collect();
                let w64: Vec<(usize, u64)> = picks.iter().map(|&(i, v)| (i as usize, u64::from(v))).collect();
                let cas: Vec<(usize, u32, u32)> = picks.iter().map(|&(i, v)| (i as usize, words[i as usize], v)).collect();
                let (mut o32, mut o64) = (Vec::new(), Vec::new());
                let (mut won, mut added, mut mins) = (Vec::new(), Vec::new(), Vec::new());
                w.vload32(&b32, &idx, &mut o32);
                w.vload64(&b64, &idx, &mut o64);
                w.vcas32(&b32, &cas, &mut won);
                w.vadd32(&b32, &w32, &mut added);
                w.vmin32(&b32, &w32, &mut mins);
                w.vor32(&b32, &w32);
                w.vor64(&b64, &w64);
                w.vstore32(&b32, &w32[..40]);
                w.vstore64(&b64, &w64[..40]);
                finish((o32, o64), (won, added, mins))
            },
            |w| {
                let idx = picks.iter().map(|&(i, _)| i as usize);
                let w32 = picks.iter().map(|&(i, v)| (i as usize, v));
                let w64 = picks.iter().map(|&(i, v)| (i as usize, u64::from(v)));
                let cas = picks.iter().map(|&(i, v)| (i as usize, words[i as usize], v));
                let (mut o32, mut o64) = (Vec::new(), Vec::new());
                let (mut won, mut added, mut mins) = (Vec::new(), Vec::new(), Vec::new());
                w.vload32(&b32, idx.clone(), &mut o32);
                w.vload64(&b64, idx, &mut o64);
                w.vcas32(&b32, cas, &mut won);
                w.vadd32(&b32, w32.clone(), &mut added);
                w.vmin32(&b32, w32.clone(), &mut mins);
                w.vor32(&b32, w32.clone());
                w.vor64(&b64, w64.clone());
                w.vstore32(&b32, w32.take(40));
                w.vstore64(&b64, w64.take(40));
                finish((o32, o64), (won, added, mins))
            },
        );
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.0.0.0.len(), picks.len());
        prop_assert!(a.1.atomics as usize == 5 * picks.len() && a.1.atomic_conflicts > 0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(&a.2, &b.2);
        prop_assert_eq!(&a.3, &b.3);
    }

    #[test]
    fn l2_hits_plus_misses_equals_accesses(lines in proptest::collection::vec(0u64..4096, 1..500)) {
        let mut l2 = L2Model::new(64 << 10, 8, 64);
        for &l in &lines {
            l2.access_line(l);
        }
        prop_assert_eq!(l2.hits + l2.misses, lines.len() as u64);
        let hp = l2.hit_pct();
        prop_assert!((0.0..=100.0).contains(&hp));
        // Distinct lines lower-bound misses (cold misses are compulsory).
        let mut uniq = lines.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert!(l2.misses >= uniq.len() as u64);
    }

    #[test]
    fn l2_within_capacity_never_evicts(count in 1usize..512) {
        // 64 KiB / 64 B = 1024 lines capacity; touching <= 512 distinct
        // lines twice must hit on the second pass.
        let mut l2 = L2Model::new(64 << 10, 16, 64);
        for l in 0..count as u64 {
            l2.access_line(l);
        }
        l2.reset_counters();
        for l in 0..count as u64 {
            prop_assert!(l2.access_line(l), "line {} evicted", l);
        }
    }

    #[test]
    fn fill_matches_in_both_modes(len in 1usize..5000, val in any::<u32>()) {
        for mode in [ExecMode::Functional, ExecMode::Timing] {
            let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
            let buf = dev.alloc_u32(len);
            let r = dev.fill_u32(0, &buf, val);
            prop_assert!(buf.to_host().iter().all(|&v| v == val));
            prop_assert_eq!(r.stats.bytes_written, 4 * len as u64);
            prop_assert!(r.runtime_ms > 0.0);
            prop_assert!((0.0..=100.0).contains(&r.mem_busy_pct));
            prop_assert!((0.0..=100.0).contains(&r.l2_hit_pct));
        }
    }

    #[test]
    fn gather_fetch_bounded_by_unique_lines(idxs in proptest::collection::vec(0usize..4096, 1..256)) {
        // A single-wave gather cannot fetch more lines than it touches and
        // no fewer than the distinct lines it needs on a cold device.
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
        let buf = dev.alloc_u32(4096);
        let idxs2 = idxs.clone();
        let buf_ref = &buf;
        let r = dev.launch(0, LaunchCfg::new("gather", 64), move |w| {
            if w.wave_id() == 0 {
                let mut out = Vec::new();
                // Chunk to wave width like real code.
                for chunk in idxs2.chunks(64) {
                    w.vload32(buf_ref, chunk, &mut out);
                }
            }
        });
        let mut lines: Vec<u64> = idxs.iter().map(|&i| buf.addr(i) >> 6).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assert!(r.stats.hbm_lines >= lines.len() as u64);
        prop_assert!(r.stats.hbm_lines <= idxs.len() as u64 + 1);
    }

    #[test]
    fn wave_prefix_sum_is_exclusive_scan(vals in proptest::collection::vec(0u32..1000, 0..64)) {
        let dev = Device::mi250x();
        let buf = dev.alloc_u32(1);
        let vals2 = vals.clone();
        let expect_total: u32 = vals.iter().sum();
        let buf_ref = &buf;
        dev.launch(0, LaunchCfg::new("scan", 64), move |w| {
            if w.wave_id() != 0 {
                return;
            }
            let mut out = Vec::new();
            let total = w.wave_prefix_sum(&vals2, &mut out);
            let mut acc = 0u32;
            for (i, &v) in vals2.iter().enumerate() {
                assert_eq!(out[i], acc);
                acc += v;
            }
            assert_eq!(total, acc);
            w.sstore32(buf_ref, 0, total);
        });
        prop_assert_eq!(buf.load(0), expect_total);
    }

    #[test]
    fn concurrent_wave_adds_are_exact(items in 1usize..10_000) {
        // Functional mode runs waves in parallel; the aggregated counter
        // must still be exact.
        let dev = Device::mi250x();
        let ctr = dev.alloc_u32(1);
        dev.launch(0, LaunchCfg::new("count", items), |w| {
            let n = w.lanes().count() as u32;
            if n > 0 {
                w.wave_add32(&ctr, 0, n);
            }
        });
        prop_assert_eq!(ctr.load(0) as usize, items);
    }
}

#[test]
fn cas_races_have_exactly_one_winner() {
    // All waves CAS the same slot; exactly one must win per round.
    let dev = Device::mi250x();
    let slot = dev.alloc_u32(1);
    let wins = dev.alloc_u32(1);
    slot.host_fill(u32::MAX);
    dev.launch(0, LaunchCfg::new("cas_storm", 64 * 64), |w| {
        let mut results = Vec::new();
        w.vcas32(&slot, [(0, u32::MAX, w.wave_id() as u32)], &mut results);
        if results[0].is_ok() {
            w.wave_add32(&wins, 0, 1);
        }
    });
    assert_eq!(wins.load(0), 1, "exactly one CAS winner expected");
    assert!(slot.load(0) < 64);
}
