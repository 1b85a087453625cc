//! Shared L2 cache model.
//!
//! Timing-mode runs feed every coalescer miss through this set-associative
//! LRU model; its miss count × line size is exactly the `FetchSize` counter
//! rocprofiler reports (Tables I and III–V of the paper), and
//! `hits / (hits + misses)` is `L2CacheHit`.

/// Tag of an invalid way.
const INVALID: u32 = u32::MAX;

/// Set-associative LRU cache over line addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Model {
    set_bits: u32,
    /// `ways − 1`: the length of each set's slice of `rest`.
    rest_ways: usize,
    /// `front[set]` holds the set's most recently used tag. A tag is
    /// `line >> set_bits` (the set is its index); [`INVALID`] marks an
    /// empty way.
    front: Vec<u32>,
    /// `rest[set * rest_ways..][..rest_ways]` holds the set's other tags,
    /// most recently used first, as in [`crate::coalescer::Coalescer`]:
    /// `front` then `rest` is the whole LRU state, invalid ways at the tail.
    rest: Vec<u32>,
    /// Line accesses that hit.
    pub hits: u64,
    /// Line accesses that missed (fetched from HBM).
    pub misses: u64,
}

impl L2Model {
    /// Build from a capacity in bytes, associativity and line size. The
    /// set count rounds up to a power of two.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways >= 1);
        assert!(line_bytes.is_power_of_two());
        let lines = (capacity_bytes / line_bytes).max(ways);
        let sets = (lines / ways).next_power_of_two();
        Self {
            set_bits: sets.trailing_zeros(),
            rest_ways: ways - 1,
            front: vec![INVALID; sets],
            rest: vec![INVALID; sets * (ways - 1)],
            hits: 0,
            misses: 0,
        }
    }

    /// Access one line; returns true on hit. A miss replaces the least
    /// recently used way of the line's set (an invalid way while one is
    /// left). Panics on a line whose tag does not fit below `u32::MAX`,
    /// rather than alias it with another.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        // Moving the front way to the front changes nothing.
        if self.front[set] == tag {
            self.hits += 1;
            return true;
        }
        self.access_behind_front(set, tag)
    }

    /// Whether `line` is its set's most recently used line: an
    /// [`Self::access_line`] of it would only count a hit. Moves and counts
    /// nothing; panics on the same lines.
    #[inline]
    pub fn front_hit(&self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.front[set] == tag
    }

    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u32) {
        let tag = line >> self.set_bits;
        assert!(
            tag < u64::from(INVALID),
            "L2Model: line {line:#x} is beyond the 32-bit tag range"
        );
        ((line & ((1 << self.set_bits) - 1)) as usize, tag as u32)
    }

    /// [`Self::access_line`] for a tag not at the front of `set`.
    fn access_behind_front(&mut self, set: usize, tag: u32) -> bool {
        let w = self.rest_ways;
        // Move to front in one pass: the old front goes in behind the new
        // one and each way passes its tag one place back, until the tag
        // handed on is the accessed one (a hit) or an invalid way's
        // (invalid ways sit behind every valid way, so nothing can match
        // past one). A miss in a full set hands the last way's tag out.
        let mut carried = std::mem::replace(&mut self.front[set], tag);
        for way in &mut self.rest[set * w..(set + 1) * w] {
            std::mem::swap(way, &mut carried);
            if carried == tag || carried == INVALID {
                break;
            }
        }
        let hit = carried == tag;
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Hit rate in percent over all accesses so far (0 if none).
    pub fn hit_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }

    /// Zero the counters but keep residency (per-kernel accounting while the
    /// cache stays warm across kernels, as on real hardware).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Cold-start the cache (new BFS run).
    pub fn invalidate(&mut self) {
        self.front.fill(INVALID);
        self.rest.fill(INVALID);
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_line_hits() {
        let mut l2 = L2Model::new(1 << 20, 16, 64);
        assert!(!l2.access_line(7));
        for _ in 0..9 {
            assert!(l2.access_line(7));
        }
        assert_eq!(l2.hits, 9);
        assert_eq!(l2.misses, 1);
        assert!((l2.hit_pct() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_evicts() {
        // 4 KiB cache, 64 B lines => 64 lines total, 4-way.
        let mut l2 = L2Model::new(4096, 4, 64);
        for line in 0..128u64 {
            l2.access_line(line);
        }
        assert_eq!(l2.misses, 128);
        // Re-touch the first half: all evicted by the second half.
        l2.reset_counters();
        for line in 0..64u64 {
            l2.access_line(line);
        }
        assert_eq!(l2.hits, 0);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut l2 = L2Model::new(1 << 16, 16, 64); // 1024 lines
        for round in 0..3 {
            for line in 0..512u64 {
                let hit = l2.access_line(line);
                if round > 0 {
                    assert!(hit, "line {line} fell out in round {round}");
                }
            }
        }
    }

    #[test]
    fn invalidate_cold_starts() {
        let mut l2 = L2Model::new(1 << 16, 16, 64);
        l2.access_line(1);
        l2.invalidate();
        assert!(!l2.access_line(1));
        assert_eq!(l2.misses, 1);
    }

    #[test]
    fn hit_pct_empty_is_zero() {
        assert_eq!(L2Model::new(4096, 4, 64).hit_pct(), 0.0);
    }

    #[test]
    #[should_panic(expected = "line 0x100000000000 ")]
    fn a_tag_past_32_bits_panics() {
        // 4096 sets: 12 set bits.
        let mut l2 = L2Model::new(4096 * 16 * 64, 16, 64);
        l2.access_line(1 << (32 + 12));
    }
}
