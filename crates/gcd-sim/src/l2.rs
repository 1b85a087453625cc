//! Shared L2 cache model.
//!
//! Timing-mode runs feed every coalescer miss through this set-associative
//! LRU model; its miss count × line size is exactly the `FetchSize` counter
//! rocprofiler reports (Tables I and III–V of the paper), and
//! `hits / (hits + misses)` is `L2CacheHit`.

/// Set-associative LRU cache over line addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Model {
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways + way]` holds line tags (`u64::MAX` = invalid), each
    /// set most recently used first, as in [`crate::coalescer::Coalescer`]:
    /// the order is the whole LRU state, invalid ways at the tail.
    tags: Vec<u64>,
    /// Line accesses that hit.
    pub hits: u64,
    /// Line accesses that missed (fetched from HBM).
    pub misses: u64,
}

impl L2Model {
    /// Build from a capacity in bytes, associativity and line size.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways >= 1);
        assert!(line_bytes.is_power_of_two());
        let lines = (capacity_bytes / line_bytes).max(ways);
        let sets = (lines / ways).next_power_of_two();
        Self {
            set_mask: sets as u64 - 1,
            ways,
            tags: vec![u64::MAX; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Access one line; returns true on hit. A miss replaces the least
    /// recently used way of the line's set (an invalid way while one is
    /// left).
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        let resident = set.iter().position(|&t| t == line);
        // Move to front: the ways ahead of the match (all but the last on
        // a miss, which drops out) shift back one place.
        set.copy_within(0..resident.unwrap_or(self.ways - 1), 1);
        set[0] = line;
        self.hits += u64::from(resident.is_some());
        self.misses += u64::from(resident.is_none());
        resident.is_some()
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
        self.tags.fill(u64::MAX);
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
}
