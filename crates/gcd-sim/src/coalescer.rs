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
    /// `sets[set * WAYS + way]` holds line tags (`u64::MAX` = invalid).
    sets: Vec<u64>,
    /// LRU stamps parallel to `sets`.
    stamps: Vec<u64>,
    tick: u64,
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
        let sets = (lines.max(WAYS) / WAYS).next_power_of_two();
        Self {
            set_mask: sets as u64 - 1,
            line_bits: line_bytes.trailing_zeros(),
            sets: vec![u64::MAX; sets * WAYS],
            stamps: vec![0; sets * WAYS],
            tick: 0,
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
    /// the least recently used way of its set (the first such way on ties).
    #[inline]
    pub fn touch(&mut self, line: u64) -> bool {
        self.touch_run(line, 1)
    }

    /// `k >= 1` back-to-back touches of one line, in one step: only the
    /// first can miss (it leaves the line resident), the other `k - 1` hit,
    /// and the line ends up stamped with the tick of the last. Returns
    /// whether the first touch hit.
    #[inline]
    pub fn touch_run(&mut self, line: u64, k: u64) -> bool {
        debug_assert!(k >= 1);
        self.tick += k;
        let base = (line & self.set_mask) as usize * WAYS;
        let tags: &mut [u64; WAYS] = (&mut self.sets[base..base + WAYS])
            .try_into()
            .expect("a set is WAYS wide");
        let stamps: &mut [u64; WAYS] = (&mut self.stamps[base..base + WAYS])
            .try_into()
            .expect("a set is WAYS wide");
        // Fixed-size arrays: both scans unroll.
        let resident = tags.iter().position(|&t| t == line);
        let way = resident.unwrap_or_else(|| {
            // First minimum stamp, like `min_by_key`.
            let mut victim = 0;
            for w in 1..WAYS {
                if stamps[w] < stamps[victim] {
                    victim = w;
                }
            }
            tags[victim] = line;
            victim
        });
        let hit = resident.is_some();
        stamps[way] = self.tick;
        self.hits += k - 1 + u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Reset residency and counters (new wave reuses the allocation).
    pub fn reset(&mut self) {
        self.sets.fill(u64::MAX);
        self.stamps.fill(0);
        self.tick = 0;
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
        c.touch(7); // cold set: every stamp is 0, way 0 is the victim
        assert_eq!(c.sets[..WAYS], [7, u64::MAX, u64::MAX, u64::MAX]);
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
