//! Mutable BFS state on the device: status array, degree-binned frontier
//! queues, the bottom-up queue, and the small counter block every kernel
//! aggregates into.

use gcd_sim::{BufU32, BufU64, Device};
use std::cell::RefCell;

/// `status[v]` holds the BFS level of `v`, or this sentinel.
pub use xbfs_graph::UNVISITED;

/// Bottom-up double-scan segment length, in vertices per thread.
pub const SEG_LEN: usize = 64;

/// Epoch-versioned unvisited test: a status entry counts as unvisited
/// unless it belongs to the current run's epoch (`raw >= base`). With
/// `base == 0` this degenerates to the classic `raw == UNVISITED` check, so
/// freshly allocated (zeroed or `UNVISITED`-filled) state behaves exactly
/// as before epochs existed.
#[inline]
pub fn is_unvisited(raw: u32, base: u32) -> bool {
    raw == UNVISITED || raw < base
}

/// Decode an epoch-encoded status entry back to a plain BFS level
/// (`UNVISITED` for entries from older epochs).
#[inline]
pub fn decode_level(raw: u32, base: u32) -> u32 {
    if is_unvisited(raw, base) {
        UNVISITED
    } else {
        raw - base
    }
}

/// Counter-block indices (a single `BufU32` so one memset clears them all).
pub mod ctr {
    /// Lengths of the three degree-binned next-frontier queues.
    pub const QUEUE_LEN: [usize; 3] = [0, 1, 2];
    /// Vertices claimed for the next level during this level.
    pub const CLAIMED: usize = 3;
    /// Vertices proactively claimed two levels ahead (bottom-up, §III-C).
    pub const PROACTIVE: usize = 4;
    /// Length of the bottom-up (unvisited) queue.
    pub const BU_LEN: usize = 5;
    /// Total counter slots.
    pub const N: usize = 8;
}

/// 64-bit counter indices.
pub mod ectr {
    /// Sum of degrees of vertices claimed for the next level.
    pub const CLAIMED_EDGES: usize = 0;
    /// Sum of degrees of proactively claimed vertices.
    pub const PROACTIVE_EDGES: usize = 1;
    /// Total 64-bit counter slots.
    pub const N: usize = 2;
}

/// Degree-bin boundaries for warp-centric workload balancing: a claimed
/// vertex goes to the small bin (thread-per-vertex) below the wavefront
/// width, to the large bin (multi-wave) above `width²`, else medium
/// (wave-per-vertex).
#[derive(Debug, Clone, Copy)]
pub struct BinThresholds {
    /// Largest degree still handled thread-per-vertex.
    pub small_max: u32,
    /// Largest degree still handled wave-per-vertex.
    pub medium_max: u32,
}

impl BinThresholds {
    /// Thresholds derived from the wavefront width, as the port re-tuned
    /// them for 64-wide waves (§IV-A parameter tuning).
    pub fn for_width(width: usize) -> Self {
        Self {
            small_max: width as u32,
            medium_max: (width * width) as u32,
        }
    }

    /// Bin index (0 = small, 1 = medium, 2 = large) for a degree.
    #[inline]
    pub fn bin(&self, degree: u32) -> usize {
        if degree < self.small_max {
            0
        } else if degree < self.medium_max {
            1
        } else {
            2
        }
    }
}

/// A vertex claimed during expansion: `(vertex, parent, observed_status)`.
/// The observed (stale-epoch or `UNVISITED`) status is what a CAS claim
/// must compare against: `next = base + level + 1` can never collide with a
/// pre-epoch value, so CAS-from-observed keeps exactly-once claiming.
pub(crate) type Claim = (u32, u32, u32);

/// The solo kernels' host-side working vectors (no device address, no pool
/// entry, no modeled cost). The state owns one set and a kernel borrows it
/// once per wave, so a launch allocates nothing once they have grown to a
/// wave's width; a kernel clears what it uses *before* using it.
#[derive(Default)]
pub struct KernelScratch {
    // The wave's queue entries (live lanes only, once some retire), their
    // CSR rows (`degs` also the winners'), neighbors probed, statuses read.
    pub(crate) vs: Vec<u32>,
    pub(crate) offs: Vec<u64>,
    pub(crate) degs: Vec<u32>,
    pub(crate) nbrs: Vec<u32>,
    pub(crate) sts: Vec<u32>,
    // Double scan: per-lane segment counts and queue cursors.
    pub(crate) counts: Vec<u32>,
    pub(crate) cursors: Vec<u32>,
    // Stores staged for one `vstore32` (queue placements, status claims).
    pub(crate) writes: Vec<(usize, u32)>,
    // Bottom-up live lanes (next adjacency index, end of the list, first
    // neighbor seen a level ahead); `(vertex, parent, proactive)` pulled.
    pub(crate) at: Vec<usize>,
    pub(crate) end: Vec<usize>,
    pub(crate) cand: Vec<Option<u32>>,
    pub(crate) pulled: Vec<(u32, u32, bool)>,
    // Top-down live lanes `(vertex, offset, degree)`, a round's candidates
    // and CAS results, the wave's winners and the bins they enqueue into.
    pub(crate) lanes: Vec<(u32, u64, u32)>,
    pub(crate) cands: Vec<Claim>,
    pub(crate) results: Vec<Result<u32, u32>>,
    pub(crate) claimed: Vec<Claim>,
    pub(crate) bins: [Vec<u32>; 3],
}

impl KernelScratch {
    /// Elements all the vectors can hold without growing: constant from one
    /// run to the next once an engine is warm.
    pub fn capacity(&self) -> usize {
        let k = self;
        let words = [&k.vs, &k.degs, &k.nbrs, &k.sts, &k.counts, &k.cursors];
        let words = words.into_iter().chain(&k.bins).map(Vec::capacity);
        let lanes = k.offs.capacity() + k.at.capacity() + k.end.capacity() + k.cand.capacity();
        let claims = k.cands.capacity() + k.claimed.capacity() + k.results.capacity();
        let staged = k.writes.capacity() + k.pulled.capacity() + k.lanes.capacity();
        words.sum::<usize>() + lanes + claims + staged
    }
}

/// Device-resident BFS state.
pub struct BfsState {
    /// Per-vertex level (or [`UNVISITED`]).
    pub status: BufU32,
    /// Optional parent array (Graph500 output).
    pub parents: Option<BufU32>,
    /// Current frontier, split by degree bin (bin 0 holds everything when
    /// balancing is off).
    pub queues: [BufU32; 3],
    /// Next frontier being built.
    pub next_queues: [BufU32; 3],
    /// Bottom-up (unvisited-vertex) queue.
    pub bu_queue: BufU32,
    /// Per-segment unvisited counts (bottom-up kernel 1).
    pub seg_counts: BufU32,
    /// Per-block partial sums (bottom-up kernel 2).
    pub block_sums: BufU32,
    /// Exclusive per-segment offsets (bottom-up kernel 3 output).
    pub seg_offsets: BufU32,
    /// 32-bit counter block (see [`ctr`]).
    pub counters: BufU32,
    /// 64-bit counter block (see [`ectr`]).
    pub edge_counters: BufU64,
    /// Epoch bias: level `L` of the current run is stored as `base + L`,
    /// and any entry below `base` (or `UNVISITED`) is unvisited. `0` gives
    /// the legacy un-versioned semantics.
    pub base: u32,
    /// Lent to each wave of the solo kernels (`Device::launch` takes a `Fn`).
    pub scratch: RefCell<KernelScratch>,
}

impl BfsState {
    /// Allocate state for an `n`-vertex graph.
    pub fn new(device: &Device, n: usize, record_parents: bool) -> Self {
        let (a32, a64) = (Device::alloc_u32, Device::alloc_u64);
        Self::build(device, n, record_parents, 0, a32, a64)
    }

    /// Build state from the device buffer pool (epoch-versioned from the
    /// start). Pool buffers may hold stale contents; every buffer other
    /// than `status` is fully rewritten before it is read (queues are
    /// bounded by host-tracked lengths, counters are reset per level,
    /// `seg_counts`/`block_sums`/`bu_queue` are rewritten by the
    /// double-scan, parents decode is gated on status), so only `status`
    /// needs one host-side zeroing to establish epoch `1 > 0`.
    pub fn from_pool(device: &Device, n: usize, record_parents: bool) -> Self {
        let (a32, a64) = (Device::pool_acquire_u32, Device::pool_acquire_u64);
        let st = Self::build(device, n, record_parents, 1, a32, a64);
        st.status.host_fill(0);
        st
    }

    /// Both constructors: the buffers in the one order (it fixes their
    /// device addresses, and with them coalescer sets) from `a32`/`a64`.
    fn build(
        device: &Device,
        n: usize,
        record_parents: bool,
        base: u32,
        a32: impl Fn(&Device, usize) -> BufU32,
        a64: impl Fn(&Device, usize) -> BufU64,
    ) -> Self {
        let n_segs = n.div_ceil(SEG_LEN);
        let n_blocks = n_segs.div_ceil(device.arch().wavefront_size);
        let a32 = |len| a32(device, len);
        Self {
            status: a32(n),
            parents: record_parents.then(|| a32(n)),
            queues: [a32(n), a32(n), a32(n)],
            next_queues: [a32(n), a32(n), a32(n)],
            bu_queue: a32(n),
            seg_counts: a32(n_segs),
            block_sums: a32(n_blocks),
            seg_offsets: a32(n_segs),
            counters: a32(ctr::N),
            edge_counters: a64(device, ectr::N),
            base,
            scratch: RefCell::default(),
        }
    }

    /// Return every buffer to the device pool so the next
    /// [`BfsState::from_pool`] of the same shape reuses them. Buffers are
    /// released in reverse acquisition order: the pool's free lists are
    /// LIFO, so a rebuilt state pops each buffer back into the same role —
    /// repeat engine constructions see an identical memory layout.
    pub fn release_to_pool(self, device: &Device) {
        device.pool_release_u64(self.edge_counters);
        device.pool_release_u32(self.counters);
        device.pool_release_u32(self.seg_offsets);
        device.pool_release_u32(self.block_sums);
        device.pool_release_u32(self.seg_counts);
        device.pool_release_u32(self.bu_queue);
        let queues = self.queues.into_iter().chain(self.next_queues);
        queues.rev().for_each(|q| device.pool_release_u32(q));
        if let Some(p) = self.parents {
            device.pool_release_u32(p);
        }
        device.pool_release_u32(self.status);
    }

    /// O(1) reset between runs of `prev_depth` levels ([`advance_base`]),
    /// with one host-side zeroing when the base would overflow.
    pub fn reset_in_place(&mut self, prev_depth: u32) {
        self.base = advance_base(self.base, prev_depth, self.status.len()).unwrap_or_else(|| {
            self.status.host_fill(0);
            1
        });
    }

    /// Swap current and next queues (level transition).
    pub fn swap_queues(&mut self) {
        std::mem::swap(&mut self.queues, &mut self.next_queues);
    }

    /// Read the three next-queue lengths (host side).
    pub fn next_queue_lens(&self) -> [usize; 3] {
        [
            self.counters.load(ctr::QUEUE_LEN[0]) as usize,
            self.counters.load(ctr::QUEUE_LEN[1]) as usize,
            self.counters.load(ctr::QUEUE_LEN[2]) as usize,
        ]
    }
}

/// The level base after a run of `prev_depth` levels from `base`, past
/// every value it stored (proactive bottom-up claims write up to
/// `base + L + 2` at level `L ≤ prev_depth`). `None` when the next run's
/// deepest store over `n` vertices, `base + (n - 1) + 2`, could wrap u32 or
/// reach [`UNVISITED`], so that stale entries would read as visited: the
/// caller then clears its arrays once and restarts at base 1. Computed in
/// u64 so the check itself cannot overflow.
pub(crate) fn advance_base(base: u32, prev_depth: u32, n: usize) -> Option<u32> {
    let next = u64::from(base) + u64::from(prev_depth) + 3;
    (next + n as u64 + 1 < u64::from(UNVISITED)).then_some(next as u32)
}

/// What the runner knows about the current frontier queue — the state
/// machine behind the No-Frontier-Generation optimization (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueState {
    /// `queues` hold exactly the current frontier (lengths given).
    Exact([usize; 3]),
    /// `bu_queue` (length given) holds a superset of the frontier: every
    /// vertex that was unvisited when the last double-scan ran. Expansion
    /// must filter by `status[v] == level`.
    Superset(usize),
    /// No usable queue; a generation scan is required.
    None,
}

impl QueueState {
    /// Total candidate count a kernel launched over this queue must cover.
    pub fn total(&self) -> usize {
        match *self {
            QueueState::Exact(lens) => lens.iter().sum(),
            QueueState::Superset(len) => len,
            QueueState::None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_thresholds() {
        let b = BinThresholds::for_width(64);
        assert_eq!(b.bin(0), 0);
        assert_eq!(b.bin(63), 0);
        assert_eq!(b.bin(64), 1);
        assert_eq!(b.bin(4095), 1);
        assert_eq!(b.bin(4096), 2);
    }

    #[test]
    fn state_allocation_sizes() {
        let dev = Device::mi250x();
        let st = BfsState::new(&dev, 1000, true);
        assert_eq!(st.status.len(), 1000);
        assert_eq!(st.parents.as_ref().unwrap().len(), 1000);
        assert_eq!(st.seg_counts.len(), 16); // ceil(1000/64)
        assert_eq!(st.block_sums.len(), 1); // ceil(16/64)
        assert_eq!(st.counters.len(), ctr::N);
    }

    #[test]
    fn queue_state_totals() {
        assert_eq!(QueueState::Exact([1, 2, 3]).total(), 6);
        assert_eq!(QueueState::Superset(9).total(), 9);
        assert_eq!(QueueState::None.total(), 0);
    }

    #[test]
    fn swap_queues_exchanges() {
        let dev = Device::mi250x();
        let mut st = BfsState::new(&dev, 16, false);
        st.queues[0].store(0, 42);
        st.swap_queues();
        assert_eq!(st.next_queues[0].load(0), 42);
    }

    #[test]
    fn epoch_predicates() {
        assert!(is_unvisited(UNVISITED, 0));
        assert!(!is_unvisited(0, 0)); // legacy semantics at base 0
        assert!(is_unvisited(0, 1)); // stale zero under epoch 1
        assert!(is_unvisited(9, 10));
        assert!(!is_unvisited(10, 10));
        assert_eq!(decode_level(12, 10), 2);
        assert_eq!(decode_level(3, 10), UNVISITED);
        assert_eq!(decode_level(UNVISITED, 10), UNVISITED);
    }

    #[test]
    fn reset_in_place_advances_epoch_and_falls_back_safely() {
        let dev = Device::mi250x();
        let mut st = BfsState::from_pool(&dev, 8, false);
        assert_eq!(st.base, 1);
        st.status.store(2, st.base + 4); // visited at level 4
        st.reset_in_place(4);
        assert_eq!(st.base, 8); // 1 + 4 + 3
        assert!(is_unvisited(st.status.load(2), st.base));
        // Near the bias ceiling the reset falls back to a real clear.
        st.base = u32::MAX - 20;
        st.reset_in_place(10);
        assert_eq!(st.base, 1);
        assert!(st.status.to_host().iter().all(|&s| s == 0));
    }

    #[test]
    fn epoch_never_wraps_after_thousands_of_resets() {
        let dev = Device::mi250x();
        let mut st = BfsState::from_pool(&dev, 8, false);
        // Pathologically deep runs push the bias toward the u32 ceiling in
        // ~1000 resets; 5000 iterations force several refill fallbacks.
        let deep = u32::MAX / 1024;
        for round in 0..5000u32 {
            // Simulate a run that stored its deepest possible level.
            st.status.store(3, st.base.wrapping_add(deep));
            st.reset_in_place(deep);
            assert!(st.base >= 1, "round {round}");
            // Headroom invariant: even a worst-case next run (depth n-1,
            // proactive claims two levels ahead) cannot reach UNVISITED.
            assert!(
                u64::from(st.base) + st.status.len() as u64 + 1 < u64::from(UNVISITED),
                "round {round}: base {} leaves no headroom",
                st.base
            );
            // The previous run's deepest write must now read as unvisited.
            assert!(
                is_unvisited(st.status.load(3), st.base),
                "round {round}: stale level leaked into the new epoch"
            );
        }
        st.release_to_pool(&dev);
    }

    #[test]
    fn pooled_state_round_trips_with_stable_addresses() {
        let dev = Device::mi250x();
        let st = BfsState::from_pool(&dev, 100, true);
        let status_addr = st.status.addr(0);
        let q1_addr = st.queues[1].addr(0);
        st.release_to_pool(&dev);
        let st2 = BfsState::from_pool(&dev, 100, true);
        assert_eq!(st2.status.addr(0), status_addr);
        assert_eq!(st2.queues[1].addr(0), q1_addr);
        let (hits, misses) = dev.pool_stats();
        assert_eq!(hits, 14); // every buffer of the rebuild came from the pool
        assert_eq!(misses, 14);
    }
}
