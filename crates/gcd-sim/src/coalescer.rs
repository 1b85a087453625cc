//! Per-wavefront access coalescer.
//!
//! GPU memory requests are issued per cache line, not per lane: 64 lanes
//! loading 64 consecutive `u32`s produce 4 line requests, while 64 random
//! gathers produce up to 64. We model that with a small per-wave
//! recently-used line set (approximating the CU's L1 vector cache and the
//! coalescing stage): an access whose line is resident is free; a miss is
//! forwarded to the next level (functional-mode counters or the shared L2).

/// Ways per set.
const WAYS: usize = 4;

/// Small set-associative line filter, LRU within each set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coalescer {
    set_mask: u64,
    line_bits: u32,
    /// `sets[set * WAYS + way]` holds line tags (`u64::MAX` = invalid), each
    /// set most recently used first: the order is the whole LRU state, and
    /// invalid ways sit at the tail.
    sets: Vec<u64>,
    /// Touches that found their line resident.
    pub hits: u64,
    /// Touches forwarded to the next level.
    pub misses: u64,
}

impl Coalescer {
    /// A coalescer covering `lines` cache lines of `line_bytes` each,
    /// organized as 4-way sets. `lines` is rounded up to a power of two and
    /// at least 4.
    pub fn new(lines: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two());
        let sets = lines.max(WAYS).div_ceil(WAYS).next_power_of_two();
        Self {
            set_mask: sets as u64 - 1,
            line_bits: line_bytes.trailing_zeros(),
            sets: vec![u64::MAX; sets * WAYS],
            hits: 0,
            misses: 0,
        }
    }

    /// Line index of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    /// Bytes per line.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_bits
    }

    /// Touch a line; true if it was resident. A miss installs the line over
    /// the least recently used way of its set (an invalid way while one is
    /// left).
    #[inline]
    pub fn touch(&mut self, line: u64) -> bool {
        self.touch_run(line, 1)
    }

    /// `k >= 1` back-to-back touches of one line, in one step: only the
    /// first can miss (it leaves the line most recent, where the other
    /// `k - 1` hit it without moving it). Returns whether the first touch
    /// hit.
    #[inline]
    pub fn touch_run(&mut self, line: u64, k: u64) -> bool {
        debug_assert!(k >= 1);
        let hit = self.probe(line);
        self.hits += k - 1 + u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// [`Self::touch`] without the counters: a caller that probes a whole
    /// vector op adds its sums to `hits` and `misses` once, afterwards.
    #[inline]
    pub fn probe(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * WAYS;
        let set: &mut [u64; WAYS] = (&mut self.sets[base..base + WAYS])
            .try_into()
            .expect("a set is WAYS wide");
        let [s0, s1, s2, s3] = *set;
        let (m0, m1, m2) = (s0 == line, s1 == line, s2 == line);
        let hit = m0 | m1 | m2 | (s3 == line);
        // Move-to-front as selects, not branches (a gather's hit/miss
        // pattern is unpredictable): ways ahead of the match, or all of
        // them on a miss, shift back one place and the last drops out.
        *set = [
            line,
            if m0 { s1 } else { s0 },
            if m0 | m1 { s2 } else { s1 },
            if m0 | m1 | m2 { s3 } else { s2 },
        ];
        hit
    }

    /// Reset residency and counters (new wave reuses the allocation).
    pub fn reset(&mut self) {
        self.sets.fill(u64::MAX);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_accesses_coalesce() {
        let mut c = Coalescer::new(64, 64);
        // 64 consecutive u32 reads = 16 per line -> 4 lines.
        for i in 0..64u64 {
            let line = c.line_of(i * 4);
            c.touch(line);
        }
        assert_eq!(c.misses, 4);
        assert_eq!(c.hits, 60);
    }

    #[test]
    fn random_gathers_do_not_coalesce() {
        let mut c = Coalescer::new(64, 64);
        for i in 0..32u64 {
            assert!(!c.touch(i * 64)); // distinct lines
        }
        assert_eq!(c.misses, 32);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Coalescer::new(4, 64); // 1 set, 4 ways
        for line in 0..4u64 {
            c.touch(line);
        }
        c.touch(0); // refresh line 0
        c.touch(4); // evicts line 1 (oldest)
        assert!(c.touch(0), "line 0 should still be resident");
        assert!(!c.touch(1), "line 1 should have been evicted");
    }

    #[test]
    fn ties_evict_the_first_way() {
        let mut c = Coalescer::new(4, 64);
        c.touch(7); // cold set: the line lands in way 0, the invalid ways stay behind it
        assert_eq!(c.sets[..WAYS], [7, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        for (lines, holds) in [(1, 4), (4, 4), (5, 8), (6, 8), (8, 8), (9, 16), (128, 128)] {
            let mut c = Coalescer::new(lines, 64);
            assert_eq!(c.sets.len(), holds, "new({lines}, 64)");
            // Consecutive lines spread evenly over the sets: all stay resident.
            (0..holds as u64).for_each(|l| assert!(!c.touch(l)));
            (0..holds as u64).for_each(|l| assert!(c.touch(l), "{lines}: line {l} evicted"));
        }
    }

    #[test]
    fn touch_run_equals_repeated_touches() {
        let mut run = Coalescer::new(4, 64);
        let mut one = run.clone();
        for (line, k) in [
            (3u64, 5u64),
            (9, 1),
            (3, 2),
            (1, 16),
            (2, 3),
            (4, 7),
            (9, 2),
        ] {
            let first_hit = run.touch_run(line, k);
            let hits: Vec<bool> = (0..k).map(|_| one.touch(line)).collect();
            assert_eq!(first_hit, hits[0]);
            assert!(hits[1..].iter().all(|&h| h));
            assert_eq!(run, one);
        }
    }

    #[test]
    fn reset_clears_residency() {
        let mut c = Coalescer::new(16, 64);
        c.touch(0);
        c.reset();
        assert!(!c.touch(0));
        assert_eq!(c.hits, 0);
    }
}
