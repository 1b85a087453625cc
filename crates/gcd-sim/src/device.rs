//! The simulated device: buffer allocation, kernel launches, streams,
//! synchronization, and the cost model that converts traced work into
//! microseconds.

use crate::arch::{ArchProfile, Compiler};
use crate::buffer::{BufU32, BufU64};
use crate::coalescer::Coalescer;
use crate::group::{GroupCfg, GroupCtx};
use crate::kernel::{KernelReport, LaunchCfg, WaveStats};
use crate::l2::L2Model;
use crate::pool::{splitmix64, PoolError, POOL_CANARY};
use crate::wave::WaveCtx;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a piece of device state, taking it back from a poisoned mutex. A
/// kernel body that panics mid-launch poisons what the launch held (the
/// L2 model in timing mode); the device is quarantined along with its
/// engine, and that engine's `Drop` must still be able to park buffers.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Execution fidelity. The modes differ in what a coalescer miss costs to
/// classify, and so in whether [`Device::launch_split`] may spread waves
/// over workers: functional mode may, timing mode runs them in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Memory effects are approximated by the per-wave coalescer only (no
    /// shared L2 model). Fast — used for end-to-end GTEPS experiments.
    Functional,
    /// Every coalescer miss is classified through a shared L2 model the
    /// moment it happens, producing exact rocprofiler-style counters.
    /// Slow — used for Tables I, III–VI.
    Timing,
}

/// Per-wave coalescer capacity in lines (≈ the 16 KiB L0/L1 vector cache of
/// a CU at 64 B lines, shared pessimistically by 2 resident waves).
const COALESCER_LINES: usize = 128;

/// Number of L2 channels that can retire atomics concurrently.
const ATOMIC_UNITS: f64 = 32.0;

/// Resident waves per SIMD needed to fully hide memory latency.
const LATENCY_HIDING_WAVES: f64 = 4.0;

/// LDS capacity per CU, bytes (CDNA: 64 KiB).
const LDS_PER_CU: usize = 64 << 10;

/// A buffer parked in a free list, with the integrity metadata written at
/// release time and re-checked whenever the entry is handed back out.
struct Parked<B> {
    buf: B,
    /// Byte footprint counted against the pool cap.
    bytes: u64,
    /// FNV-1a digest of the contents at release time.
    checksum: u64,
    /// `POOL_CANARY ^ addr ^ len` — distinguishes clobbered free-list
    /// metadata from clobbered buffer contents.
    canary: u64,
    /// Monotonic release stamp; smallest stamp = least recently released,
    /// the eviction order under a pool byte cap.
    stamp: u64,
}

/// The buffer surface the pool needs, implemented for both typed buffers
/// by `impl_buf!`, so park/acquire/trim logic is written once.
pub(crate) trait ParkedBuf {
    fn elem_count(&self) -> usize;
    fn byte_len(&self) -> u64;
    /// Device base address (valid even when empty, unlike `addr(0)`).
    fn base_addr(&self) -> u64;
    /// FNV-1a digest of the current contents.
    fn content_digest(&self) -> u64;
}

impl<B: ParkedBuf> Parked<B> {
    fn new(buf: B, stamp: u64) -> Self {
        let bytes = buf.byte_len();
        let checksum = buf.content_digest();
        let canary = POOL_CANARY ^ buf.base_addr() ^ buf.elem_count() as u64;
        Self {
            buf,
            bytes,
            checksum,
            canary,
            stamp,
        }
    }

    /// Re-verify canary then contents against the release-time records.
    fn check(&self) -> Result<(), PoolError> {
        let addr = self.buf.base_addr();
        let len = self.buf.elem_count();
        if self.canary != POOL_CANARY ^ addr ^ len as u64 {
            return Err(PoolError::CanaryClobbered { addr, len });
        }
        let actual = self.buf.content_digest();
        if actual != self.checksum {
            return Err(PoolError::ChecksumMismatch {
                addr,
                len,
                expected: self.checksum,
                actual,
            });
        }
        Ok(())
    }

    /// Unpark, verifying first.
    fn into_verified(self) -> Result<B, PoolError> {
        self.check().map(|()| self.buf)
    }
}

/// Scan a typed pool for corrupted entries; the first one found is removed
/// (its bytes uncounted), pushed onto the fault ledger, and returned.
fn verify_parked<B: ParkedBuf>(
    map: &mut HashMap<usize, Vec<Parked<B>>>,
    pool_bytes: &AtomicU64,
    ledger: &Mutex<Vec<PoolError>>,
) -> Result<(), PoolError> {
    for entries in map.values_mut() {
        for i in 0..entries.len() {
            if let Err(e) = entries[i].check() {
                let victim = entries.swap_remove(i);
                pool_bytes.fetch_sub(victim.bytes, Ordering::Relaxed);
                lock(ledger).push(e.clone());
                return Err(e);
            }
        }
    }
    Ok(())
}

/// `(stamp, size_class)` of the least recently released entry, if any.
fn oldest_stamp<B>(map: &HashMap<usize, Vec<Parked<B>>>) -> Option<(u64, usize)> {
    map.iter()
        .flat_map(|(&k, v)| v.iter().map(move |p| (p.stamp, k)))
        .min()
}

/// Remove the oldest entry of size class `k`; returns its byte footprint.
fn evict_oldest<B>(map: &mut HashMap<usize, Vec<Parked<B>>>, k: usize) -> u64 {
    let entries = map.get_mut(&k).expect("trim picked a present size class");
    let idx = entries
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| p.stamp)
        .map(|(i, _)| i)
        .expect("trim picked a non-empty size class");
    entries.remove(idx).bytes
}

/// One sample of the device pool's live statistics, taken by
/// [`Device::pool_gauges`] for the serving metrics plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolGauges {
    /// Acquisitions served from a parked buffer.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh.
    pub misses: u64,
    /// Bytes currently parked across both free pools.
    pub parked_bytes: u64,
    /// Releases trimmed or bypassed under the byte cap.
    pub pressure_events: u64,
    /// The configured byte cap, if any.
    pub limit_bytes: Option<u64>,
}

/// What launches, copies and syncs advance, under one lock.
struct Timeline {
    /// Per-stream elapsed time cursors, microseconds.
    streams: Vec<f64>,
    /// Streams that received work since the last sync.
    dirty: Vec<bool>,
    reports: Vec<KernelReport>,
    phase: String,
}

/// A simulated GPU (one MI250X GCD by default).
pub struct Device {
    arch: ArchProfile,
    mode: ExecMode,
    compiler: Compiler,
    /// The shared L2, built only in timing mode: functional mode never
    /// consults it. No thread holds it and the timeline at once.
    l2: Option<Mutex<L2Model>>,
    next_addr: AtomicU64,
    timeline: Mutex<Timeline>,
    /// Free lists of released buffers, keyed by exact element count.
    /// Pool-acquired buffers keep their previous contents *and address*, so
    /// repeat runs see an identical memory layout.
    pool_u32: Mutex<HashMap<usize, Vec<Parked<BufU32>>>>,
    pool_u64: Mutex<HashMap<usize, Vec<Parked<BufU64>>>>,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    /// Bytes currently parked across both free pools.
    pool_bytes: AtomicU64,
    /// Byte cap on parked buffers (`u64::MAX` = uncapped).
    pool_limit: AtomicU64,
    /// Monotonic stamp source for LRU eviction order.
    pool_stamp: AtomicU64,
    /// Releases that trimmed or bypassed the pool because of the byte cap.
    pool_pressure: AtomicU64,
    /// Ledger of detected pool faults, drained by [`Device::take_pool_faults`].
    pool_faults: Mutex<Vec<PoolError>>,
}

impl Device {
    /// Create a device with `num_streams` streams.
    pub fn new(arch: ArchProfile, mode: ExecMode, num_streams: usize) -> Self {
        assert!(num_streams >= 1);
        let l2 = (mode == ExecMode::Timing)
            .then(|| Mutex::new(L2Model::new(arch.l2_bytes, arch.l2_ways, arch.line_bytes)));
        Self {
            arch,
            mode,
            compiler: Compiler::ClangO3,
            l2,
            next_addr: AtomicU64::new(0),
            timeline: Mutex::new(Timeline {
                streams: vec![0.0; num_streams],
                dirty: vec![false; num_streams],
                reports: Vec::new(),
                phase: String::new(),
            }),
            pool_u32: Mutex::new(HashMap::new()),
            pool_u64: Mutex::new(HashMap::new()),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            pool_bytes: AtomicU64::new(0),
            pool_limit: AtomicU64::new(u64::MAX),
            pool_stamp: AtomicU64::new(0),
            pool_pressure: AtomicU64::new(0),
            pool_faults: Mutex::new(Vec::new()),
        }
    }

    /// Default configuration: one MI250X GCD, functional mode, 1 stream.
    pub fn mi250x() -> Self {
        Self::new(ArchProfile::mi250x_gcd(), ExecMode::Functional, 1)
    }

    /// The architecture profile in use.
    pub fn arch(&self) -> &ArchProfile {
        &self.arch
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Select the compiler model (paper §IV-A).
    pub fn set_compiler(&mut self, c: Compiler) {
        self.compiler = c;
    }

    /// Currently selected compiler model.
    pub fn compiler(&self) -> Compiler {
        self.compiler
    }

    /// Tag subsequent kernel reports with a phase label (e.g. `"level 3"`).
    pub fn set_phase(&self, phase: impl Into<String>) {
        lock(&self.timeline).phase = phase.into();
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        lock(&self.timeline).streams.len()
    }

    // ---- allocation ----

    fn bump(&self, bytes: u64) -> u64 {
        let line = self.arch.line_bytes as u64;
        let rounded = bytes.div_ceil(line) * line;
        self.next_addr.fetch_add(rounded, Ordering::Relaxed)
    }

    /// Allocate a zeroed `u32` buffer.
    pub fn alloc_u32(&self, len: usize) -> BufU32 {
        BufU32::new(self.bump(4 * len.max(1) as u64), len)
    }

    /// Allocate a zeroed `u64` buffer.
    pub fn alloc_u64(&self, len: usize) -> BufU64 {
        BufU64::new(self.bump(8 * len.max(1) as u64), len)
    }

    /// Upload a host slice into a new device buffer (untimed; graph upload
    /// happens outside the measured BFS like the paper's setup phase).
    pub fn upload_u32(&self, src: &[u32]) -> BufU32 {
        BufU32::from_slice(self.bump(4 * src.len().max(1) as u64), src)
    }

    /// Upload a host slice of `u64` (untimed).
    pub fn upload_u64(&self, src: &[u64]) -> BufU64 {
        BufU64::from_slice(self.bump(8 * src.len().max(1) as u64), src)
    }

    // ---- buffer pool ----
    //
    // Back-to-back BFS runs reuse identical buffer shapes; the pool turns
    // per-run O(|V|) allocation into a free-list pop. Released buffers keep
    // their contents — consumers either rewrite them fully or version their
    // entries by epoch (see `BfsState::reset_in_place` in xbfs-core).
    //
    // Since PR 4 every parked entry carries a release-time FNV-1a content
    // checksum and a canary; acquires re-verify both and quarantine (drop)
    // corrupted entries, falling back to a fresh allocation. A byte cap
    // (`set_pool_limit`) bounds parked memory with least-recently-released
    // eviction, and releases are guarded against double-release and foreign
    // buffers. Detected faults land in a ledger (`take_pool_faults`) so the
    // integrity layer above can surface them as typed errors.

    /// Acquire a `u32` buffer of exactly `len` elements: reuse a released
    /// one if available, else allocate fresh (zeroed). A parked entry that
    /// fails verification is quarantined and replaced by a fresh
    /// allocation (recorded as a miss plus a ledger fault).
    pub fn pool_acquire_u32(&self, len: usize) -> BufU32 {
        let popped = lock(&self.pool_u32).get_mut(&len).and_then(Vec::pop);
        self.admit_acquired(popped, len, Self::alloc_u32)
    }

    /// Acquire a `u64` buffer of exactly `len` elements from the pool (see
    /// [`Device::pool_acquire_u32`] for the verification semantics).
    pub fn pool_acquire_u64(&self, len: usize) -> BufU64 {
        let popped = lock(&self.pool_u64).get_mut(&len).and_then(Vec::pop);
        self.admit_acquired(popped, len, Self::alloc_u64)
    }

    /// Return a `u32` buffer to the free pool (contents retained).
    /// Release faults are debug assertions here; use
    /// [`Device::try_pool_release_u32`] to handle them as typed errors.
    pub fn pool_release_u32(&self, buf: BufU32) {
        if let Err(e) = self.try_pool_release_u32(buf) {
            debug_assert!(false, "pool_release_u32: {e}");
        }
    }

    /// Return a `u64` buffer to the free pool (contents retained). See
    /// [`Device::pool_release_u32`].
    pub fn pool_release_u64(&self, buf: BufU64) {
        if let Err(e) = self.park(&self.pool_u64, buf) {
            debug_assert!(false, "pool_release_u64: {e}");
        }
    }

    /// `(hits, misses)` of pool acquisitions since device creation.
    pub fn pool_stats(&self) -> (u64, u64) {
        (
            self.pool_hits.load(Ordering::Relaxed),
            self.pool_misses.load(Ordering::Relaxed),
        )
    }

    /// Bytes currently parked across both free pools.
    pub fn pool_bytes(&self) -> u64 {
        self.pool_bytes.load(Ordering::Relaxed)
    }

    /// Cap parked pool memory at `bytes` (`None` = uncapped). Lowering the
    /// cap trims least-recently-released entries immediately; releases
    /// that would exceed it evict old entries or bypass the pool entirely,
    /// each counted as a pressure event.
    pub fn set_pool_limit(&self, bytes: Option<u64>) {
        self.pool_limit
            .store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
        self.trim_pool();
    }

    /// Releases that trimmed or bypassed the pool under the byte cap.
    pub fn pool_pressure_events(&self) -> u64 {
        self.pool_pressure.load(Ordering::Relaxed)
    }

    /// All live pool statistics in one call, for the serving metrics
    /// plane: each field is a single relaxed load of its own atomic, so
    /// sampling never blocks kernel execution (the fields are mutually
    /// racy but individually exact — the right trade for gauges).
    pub fn pool_gauges(&self) -> PoolGauges {
        let limit = self.pool_limit.load(Ordering::Relaxed);
        PoolGauges {
            hits: self.pool_hits.load(Ordering::Relaxed),
            misses: self.pool_misses.load(Ordering::Relaxed),
            parked_bytes: self.pool_bytes.load(Ordering::Relaxed),
            pressure_events: self.pool_pressure.load(Ordering::Relaxed),
            limit_bytes: (limit != u64::MAX).then_some(limit),
        }
    }

    /// Drain the ledger of pool faults detected so far (quarantined
    /// corrupt entries, rejected double/foreign releases).
    pub fn take_pool_faults(&self) -> Vec<PoolError> {
        std::mem::take(&mut lock(&self.pool_faults))
    }

    /// Re-verify every parked entry in place. The first corrupted entry is
    /// removed from the pool (quarantined), recorded in the fault ledger,
    /// and returned as an error. `Ok(())` means every parked buffer still
    /// matches its release-time checksum and canary.
    pub fn verify_pool(&self) -> Result<(), PoolError> {
        verify_parked(
            &mut lock(&self.pool_u32),
            &self.pool_bytes,
            &self.pool_faults,
        )?;
        verify_parked(
            &mut lock(&self.pool_u64),
            &self.pool_bytes,
            &self.pool_faults,
        )
    }

    /// Fault-injection hook: flip one seeded bit in one parked `u32`
    /// buffer's contents (the device-memory SDC model for pooled state).
    /// Returns the victim's `(base_addr, word_index, bit)` or `None` when
    /// nothing is parked. Deterministic for a given seed and pool state.
    pub fn corrupt_parked(&self, seed: u64) -> Option<(u64, usize, u32)> {
        let mut s = seed;
        let pool = lock(&self.pool_u32);
        let mut keys: Vec<usize> = pool.keys().copied().filter(|k| *k > 0).collect();
        keys.sort_unstable();
        let total: usize = keys.iter().map(|k| pool[k].len()).sum();
        if total == 0 {
            return None;
        }
        let mut pick = splitmix64(&mut s) as usize % total;
        for k in keys {
            let entries = &pool[&k];
            if pick < entries.len() {
                let p = &entries[pick];
                let word = splitmix64(&mut s) as usize % p.buf.len();
                let bit = (splitmix64(&mut s) % 32) as u32;
                p.buf.store(word, p.buf.load(word) ^ (1 << bit));
                return Some((p.buf.addr(0), word, bit));
            }
            pick -= entries.len();
        }
        unreachable!("pick < total")
    }

    /// Shared acquire tail: verify a popped entry (quarantining it on
    /// failure) or fall back to a fresh allocation.
    fn admit_acquired<B: ParkedBuf>(
        &self,
        popped: Option<Parked<B>>,
        len: usize,
        alloc: impl Fn(&Self, usize) -> B,
    ) -> B {
        if let Some(p) = popped {
            self.pool_bytes.fetch_sub(p.bytes, Ordering::Relaxed);
            match p.into_verified() {
                Ok(buf) => {
                    self.pool_hits.fetch_add(1, Ordering::Relaxed);
                    return buf;
                }
                Err(e) => lock(&self.pool_faults).push(e), // quarantined: drop it
            }
        }
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
        alloc(self, len)
    }

    /// Shared release front: guard against foreign and double releases,
    /// then park the buffer (or bypass the pool under byte-cap pressure).
    fn park<B: ParkedBuf>(
        &self,
        pool: &Mutex<HashMap<usize, Vec<Parked<B>>>>,
        buf: B,
    ) -> Result<(), PoolError> {
        if buf.elem_count() == 0 {
            return Ok(()); // placeholders carry no storage
        }
        let len = buf.elem_count();
        let addr = buf.base_addr();
        let bytes = buf.byte_len();
        if addr + bytes > self.next_addr.load(Ordering::Relaxed) {
            let e = PoolError::ForeignBuffer { addr, len };
            lock(&self.pool_faults).push(e.clone());
            return Err(e);
        }
        if bytes > self.pool_limit.load(Ordering::Relaxed) {
            // The cap cannot hold this buffer at all: drop it and let the
            // next acquire fall back to a fresh allocation.
            self.pool_pressure.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        {
            let mut map = lock(pool);
            let entries = map.entry(len).or_default();
            if entries.iter().any(|p| p.buf.base_addr() == addr) {
                let e = PoolError::DoubleRelease { addr, len };
                lock(&self.pool_faults).push(e.clone());
                return Err(e);
            }
            entries.push(Parked::new(
                buf,
                self.pool_stamp.fetch_add(1, Ordering::Relaxed),
            ));
            self.pool_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        self.trim_pool();
        Ok(())
    }

    /// Guarded release of a `u32` buffer: rejects double releases and
    /// buffers foreign to this device with a typed [`PoolError`] instead
    /// of corrupting the free list.
    pub fn try_pool_release_u32(&self, buf: BufU32) -> Result<(), PoolError> {
        self.park(&self.pool_u32, buf)
    }

    /// Evict least-recently-released entries (across both typed pools)
    /// until parked bytes fit under the cap. Locks are taken in a fixed
    /// u32-then-u64 order and never held by callers, so trims from
    /// concurrent releases cannot deadlock.
    fn trim_pool(&self) {
        loop {
            let limit = self.pool_limit.load(Ordering::Relaxed);
            if self.pool_bytes.load(Ordering::Relaxed) <= limit {
                return;
            }
            let mut p32 = lock(&self.pool_u32);
            let mut p64 = lock(&self.pool_u64);
            let min32 = oldest_stamp(&p32);
            let min64 = oldest_stamp(&p64);
            let freed = match (min32, min64) {
                (Some((s32, k)), Some((s64, _))) if s32 <= s64 => evict_oldest(&mut p32, k),
                (Some((_, k)), None) => evict_oldest(&mut p32, k),
                (_, Some((_, k))) => evict_oldest(&mut p64, k),
                (None, None) => return,
            };
            self.pool_bytes.fetch_sub(freed, Ordering::Relaxed);
            self.pool_pressure.fetch_add(1, Ordering::Relaxed);
        }
    }

    // ---- timeline ----

    /// Charge a host↔device copy of `bytes` on `stream`.
    pub fn charge_transfer(&self, stream: usize, bytes: u64) {
        let cost = self.arch.h2d_latency_us + bytes as f64 / (self.arch.h2d_bw_gbps * 1e3);
        let mut t = lock(&self.timeline);
        t.streams[stream] += cost;
        t.dirty[stream] = true;
    }

    /// Device synchronization: all stream cursors join at the max, plus a
    /// per-dirty-stream sync cost. This is the §IV-B effect: with three
    /// streams HIP pays the (large, on AMD) sync cost three times per level.
    pub fn sync(&self) -> f64 {
        let Timeline { streams, dirty, .. } = &mut *lock(&self.timeline);
        let dirty_count = dirty.iter().filter(|&&x| x).count().max(1);
        let t =
            streams.iter().cloned().fold(0.0f64, f64::max) + self.arch.sync_us * dirty_count as f64;
        streams.fill(t);
        dirty.fill(false);
        t
    }

    /// Current modeled elapsed time (max over streams), microseconds.
    pub fn elapsed_us(&self) -> f64 {
        let t = lock(&self.timeline);
        t.streams.iter().cloned().fold(0.0, f64::max)
    }

    /// Advance every stream cursor to at least `us` — used by multi-device
    /// simulations to model barriers/communication completing at a common
    /// global time.
    pub fn advance_to(&self, us: f64) {
        for t in &mut lock(&self.timeline).streams {
            *t = t.max(us);
        }
    }

    /// Zero the timeline, empty the report log and cold-start the L2
    /// (start of a measured run): a long-lived engine that never reads
    /// its reports must not accumulate them run after run.
    pub fn reset_timeline(&self) {
        if let Some(l2) = &self.l2 {
            lock(l2).invalidate();
        }
        let mut t = lock(&self.timeline);
        t.streams.fill(0.0);
        t.dirty.fill(false);
        t.reports.clear();
    }

    /// Drain recorded kernel reports.
    pub fn take_reports(&self) -> Vec<KernelReport> {
        std::mem::take(&mut lock(&self.timeline).reports)
    }

    // ---- kernel launch ----

    /// The shared L2 for a timing-mode launch (per-kernel counters
    /// zeroed, residency kept), `None` in functional mode.
    fn launch_l2(&self) -> Option<MutexGuard<'_, L2Model>> {
        self.l2.as_ref().map(|l2| {
            let mut l2 = lock(l2);
            l2.reset_counters();
            l2
        })
    }

    /// Price a finished launch, advance `stream` by it and record it.
    fn finish_launch(
        &self,
        stream: usize,
        cfg: &LaunchCfg,
        stats: WaveStats,
        lds: Option<(usize, usize)>,
    ) -> KernelReport {
        let mut t = lock(&self.timeline);
        let report = self.cost_model(cfg, stats, lds, t.phase.clone());
        t.streams[stream] += report.runtime_ms * 1000.0;
        t.dirty[stream] = true;
        t.reports.push(report.clone());
        report
    }

    /// The one wave loop behind [`Device::launch`] and
    /// [`Device::launch_split`]: waves `ids`, each through a cold coalescer,
    /// counters summed.
    fn waves(
        &self,
        items: usize,
        ids: impl Iterator<Item = usize>,
        mut l2: Option<&mut L2Model>,
        mut body: impl FnMut(&mut WaveCtx),
    ) -> WaveStats {
        let (width, mut stats) = (self.arch.wavefront_size, WaveStats::default());
        let mut co = Coalescer::new(COALESCER_LINES, self.arch.line_bytes);
        for w in ids {
            let mut ctx = WaveCtx::new(w, width, items, &mut co, l2.as_deref_mut());
            body(&mut ctx);
            stats.merge(&ctx.stats);
        }
        stats
    }

    /// Launch a kernel on `stream`: `body` is invoked once per wavefront,
    /// in wave order. Returns the report (also recorded).
    pub fn launch<F>(&self, stream: usize, cfg: LaunchCfg, body: F) -> KernelReport
    where
        F: Fn(&mut WaveCtx),
    {
        let waves = 0..cfg.items.div_ceil(self.arch.wavefront_size);
        let stats = self.waves(cfg.items, waves, self.launch_l2().as_deref_mut(), body);
        self.finish_launch(stream, &cfg, stats, None)
    }

    /// [`Device::launch`] for a kernel whose waves may run in any order
    /// and at once: a wave reads nothing another wave writes, and writes
    /// through commutative atomics or to entries no other wave touches. It
    /// is lent one of `scratch`. In functional mode the waves go to
    /// [`on_workers`], one worker per scratch, each with its own coalescer
    /// and counters, and the counters are summed: the report is the one a
    /// serial launch gives. In timing mode every wave sees the shared L2
    /// its predecessors left, so the waves run in order on `scratch[0]`.
    pub fn launch_split<S, F>(
        &self,
        stream: usize,
        cfg: LaunchCfg,
        scratch: &mut [S],
        body: F,
    ) -> KernelReport
    where
        S: Send,
        F: Fn(&mut WaveCtx, &mut S) + Sync,
    {
        let waves = cfg.items.div_ceil(self.arch.wavefront_size);
        let stats = match self.launch_l2() {
            Some(mut l2) => {
                let s = &mut scratch[0];
                self.waves(cfg.items, 0..waves, Some(&mut *l2), |w| body(w, s))
            }
            None => on_workers(scratch, waves, |s, ids| {
                self.waves(cfg.items, ids, None, |w| body(w, s))
            })
            .iter()
            .fold(WaveStats::default(), |mut sum, part| {
                sum.merge(part);
                sum
            }),
        };
        self.finish_launch(stream, &cfg, stats, None)
    }

    /// Launch a workgroup (block) kernel: `body` runs once per group, in
    /// group order, with LDS and a barrier (see [`GroupCtx`]).
    pub fn launch_groups<F>(&self, stream: usize, cfg: GroupCfg, body: F) -> KernelReport
    where
        F: Fn(&mut GroupCtx),
    {
        let width = self.arch.wavefront_size;
        let mut l2 = self.launch_l2();
        // One set of group scratch, lent to each group in turn.
        let mut lds = vec![0u32; cfg.lds_bytes / 4];
        let mut coalescers =
            vec![Coalescer::new(COALESCER_LINES, self.arch.line_bytes); cfg.waves_per_group];
        let mut stats = WaveStats::default();
        for gid in 0..cfg.groups {
            let mut ctx = GroupCtx::new(
                gid,
                cfg,
                width,
                &mut lds,
                &mut coalescers,
                l2.as_deref_mut(),
            );
            body(&mut ctx);
            stats.merge(&ctx.stats);
        }
        drop(l2);
        let lcfg = LaunchCfg::new(cfg.name, cfg.groups * cfg.waves_per_group * width)
            .with_registers(cfg.registers_per_thread);
        let lds_use = Some((cfg.lds_bytes, cfg.waves_per_group));
        self.finish_launch(stream, &lcfg, stats, lds_use)
    }

    /// Convert raw counters into a rocprof-style report tagged `phase`.
    /// `lds` carries `(lds_bytes_per_group, waves_per_group)` for
    /// workgroup launches, whose occupancy LDS usage can additionally cap.
    fn cost_model(
        &self,
        cfg: &LaunchCfg,
        stats: WaveStats,
        lds: Option<(usize, usize)>,
        phase: String,
    ) -> KernelReport {
        let a = &self.arch;
        let cm = self.compiler.model();

        // Occupancy from register pressure.
        let regs = f64::from(cfg.registers_per_thread) * cm.register_factor;
        let bytes_per_wave = regs * 4.0 * a.wavefront_size as f64;
        let mut waves_by_regs = a.regfile_bytes_per_simd as f64 / bytes_per_wave;
        if let Some((lds_bytes, wpg)) = lds {
            // Groups resident per CU limited by LDS; waves per SIMD follow.
            let groups_per_cu = (LDS_PER_CU as f64 / lds_bytes.max(1) as f64).max(1.0);
            let waves_by_lds = groups_per_cu * wpg as f64 / a.simds_per_cu as f64;
            waves_by_regs = waves_by_regs.min(waves_by_lds);
        }
        let resident = waves_by_regs.clamp(1.0, a.max_waves_per_simd as f64);
        let occupancy = resident / a.max_waves_per_simd as f64;
        let hiding = (resident / LATENCY_HIDING_WAVES).min(1.0);

        let instr = stats.instructions as f64 * cm.instruction_factor;
        let issue_rate = (a.num_cus * a.simds_per_cu) as f64;
        let compute_cycles = instr / issue_rate / hiding.max(0.25);

        let read_bytes = stats.hbm_lines as f64 * a.line_bytes as f64;
        let spill_bytes = instr * cm.spill_bytes_per_instr;
        let mem_bytes = read_bytes + stats.bytes_written as f64 + spill_bytes;
        let mem_cycles = mem_bytes / a.bytes_per_cycle() / hiding.max(0.25);

        let atomic_cycles = (stats.atomics as f64 + 3.0 * stats.atomic_conflicts as f64)
            * a.atomic_cost_cycles
            / ATOMIC_UNITS;

        let cycles = compute_cycles.max(mem_cycles).max(atomic_cycles);
        let runtime_us = a.launch_us + cycles / (a.clock_ghz * 1000.0);

        // Functional mode proxies L2 behaviour with the coalescer.
        let (hits, of) = match self.mode {
            ExecMode::Timing => (stats.l2_hits, stats.l2_accesses),
            ExecMode::Functional => (stats.l1_hits, stats.accesses),
        };
        let l2_hit_pct = if of == 0 {
            0.0
        } else {
            100.0 * hits as f64 / of as f64
        };
        let mem_busy_pct = if cycles > 0.0 {
            (100.0 * mem_cycles / cycles).min(100.0)
        } else {
            0.0
        };

        KernelReport {
            name: cfg.name.to_string(),
            phase,
            runtime_ms: runtime_us / 1000.0,
            l2_hit_pct,
            mem_busy_pct,
            fetch_kb: read_bytes / 1024.0,
            stats,
            occupancy,
        }
    }

    // ---- built-in utility kernels ----

    /// Device-side fill of a `u32` buffer (charged like a real memset
    /// kernel: one coalesced store stream).
    pub fn fill_u32(&self, stream: usize, buf: &BufU32, val: u32) -> KernelReport {
        let cfg = LaunchCfg::new("fill_u32", buf.len()).with_registers(8);
        let vals = vec![val; self.arch.wavefront_size];
        self.launch(stream, cfg, |w| {
            let lanes = w.lanes();
            w.vstore32_range(buf, lanes.start, &vals[..lanes.len()]);
        })
    }
}

/// Run `work` on `min(scratch.len(), jobs)` workers (at least one), each
/// lent its own scratch and a feed of job ids: `0..jobs`, handed out in
/// order from one atomic counter as workers come free, so a worker on a
/// busy core just takes fewer. The caller is the first worker, and one
/// worker starts no thread. Returns the workers' results, the caller's
/// first; a worker's panic is the caller's.
pub fn on_workers<S: Send, R: Send>(
    scratch: &mut [S],
    jobs: usize,
    work: impl Fn(&mut S, &mut dyn Iterator<Item = usize>) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let feed =
        || std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&j| j < jobs));
    let (first, rest) = scratch.split_first_mut().expect("a worker needs scratch");
    let helpers = jobs.saturating_sub(1).min(rest.len());
    let (work, feed) = (&work, &feed);
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (rest[..helpers].iter_mut())
            .map(|s| scope.spawn(move || work(s, &mut feed())))
            .collect();
        let mut out = vec![work(first, &mut feed())];
        for h in spawned {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

/// One worker per available core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` on every one of `jobs` on up to `workers` [`on_workers`]
/// workers, the jobs handed out in order as workers come free.
pub fn for_each_job<J: Send>(workers: usize, jobs: Vec<J>, f: impl Fn(J) + Sync) {
    let jobs: Vec<_> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let take = |id: usize| lock(&jobs[id]).take();
    on_workers(&mut vec![(); workers], jobs.len(), |_, ids| {
        ids.filter_map(take).for_each(&f)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_readback() {
        let dev = Device::mi250x();
        let buf = dev.alloc_u32(1000);
        dev.fill_u32(0, &buf, 7);
        assert!(buf.to_host().iter().all(|&v| v == 7));
    }

    #[test]
    fn launch_advances_timeline_and_sync_joins() {
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Functional, 2);
        let buf = dev.alloc_u32(1 << 16);
        dev.fill_u32(0, &buf, 1);
        let t_before = dev.elapsed_us();
        assert!(t_before > 0.0);
        let t = dev.sync();
        // Sync adds at least one sync cost.
        assert!(t >= t_before + dev.arch().sync_us);
        assert_eq!(dev.elapsed_us(), t);
    }

    #[test]
    fn multi_stream_sync_costs_more() {
        let arch = ArchProfile::mi250x_gcd();
        let one = Device::new(arch.clone(), ExecMode::Functional, 1);
        let three = Device::new(arch, ExecMode::Functional, 3);
        let b1 = one.alloc_u32(64);
        one.fill_u32(0, &b1, 0);
        let t1 = one.sync();
        let b3 = three.alloc_u32(64);
        // Same work split across three streams.
        for s in 0..3 {
            three.launch(s, LaunchCfg::new("noop", 16), |w| {
                let writes: Vec<(usize, u32)> = w.lanes().map(|g| (g, 0)).collect();
                w.vstore32(&b3, &writes);
            });
        }
        let t3 = three.sync();
        assert!(
            t3 > t1 + 1.5 * three.arch().sync_us,
            "3-stream sync {t3} should exceed 1-stream {t1} by ~2 sync costs"
        );
    }

    #[test]
    fn bigger_kernels_take_longer() {
        let dev = Device::mi250x();
        let small = dev.alloc_u32(1 << 10);
        let large = dev.alloc_u32(1 << 20);
        let r_small = dev.fill_u32(0, &small, 0);
        let r_large = dev.fill_u32(0, &large, 0);
        assert!(r_large.runtime_ms > r_small.runtime_ms);
        assert!(r_large.stats.bytes_written > r_small.stats.bytes_written);
    }

    #[test]
    fn timing_mode_reports_l2_hits() {
        let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
        let buf = dev.alloc_u32(1 << 16);
        // First pass: cold.
        let r1 = dev.launch(0, LaunchCfg::new("scan1", buf.len()), |w| {
            let idxs: Vec<usize> = w.lanes().collect();
            let mut out = Vec::new();
            w.vload32(&buf, &idxs, &mut out);
        });
        // Second pass: warm L2 (64 KiB elements = 256 KiB < 8 MiB L2).
        let r2 = dev.launch(0, LaunchCfg::new("scan2", buf.len()), |w| {
            let idxs: Vec<usize> = w.lanes().collect();
            let mut out = Vec::new();
            w.vload32(&buf, &idxs, &mut out);
        });
        assert!(
            r1.l2_hit_pct < 5.0,
            "cold pass should miss: {}",
            r1.l2_hit_pct
        );
        assert!(
            r2.l2_hit_pct > 90.0,
            "warm pass should hit: {}",
            r2.l2_hit_pct
        );
        assert!(r1.fetch_kb > 10.0 * r2.fetch_kb.max(0.001));
    }

    #[test]
    fn functional_matches_timing_functionally() {
        // The same kernel must compute identical data in both modes.
        let run = |mode| {
            let dev = Device::new(ArchProfile::mi250x_gcd(), mode, 1);
            let src = dev.upload_u32(&(0..4096u32).collect::<Vec<_>>());
            let dst = dev.alloc_u32(4096);
            dev.launch(0, LaunchCfg::new("double", 4096), |w| {
                let idxs: Vec<usize> = w.lanes().collect();
                let mut vals = Vec::new();
                w.vload32(&src, &idxs, &mut vals);
                let writes: Vec<(usize, u32)> =
                    idxs.iter().zip(&vals).map(|(&i, &v)| (i, v * 2)).collect();
                w.vstore32(&dst, &writes);
            });
            dst.to_host()
        };
        assert_eq!(run(ExecMode::Functional), run(ExecMode::Timing));
    }

    #[test]
    fn reports_are_recorded_with_phase() {
        let dev = Device::mi250x();
        dev.set_phase("level 2");
        let buf = dev.alloc_u32(128);
        dev.fill_u32(0, &buf, 0);
        let reports = dev.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].phase, "level 2");
        assert_eq!(reports[0].name, "fill_u32");
        assert!(dev.take_reports().is_empty());
    }

    #[test]
    fn compiler_o0_is_much_slower() {
        // An instruction-rich kernel (like BFS expansion) shows the §IV-A
        // no-`-O3` cliff; a pure memset would be bandwidth-bound and barely
        // affected.
        let run = |compiler| {
            let mut dev = Device::mi250x();
            dev.set_compiler(compiler);
            let buf = dev.alloc_u32(1 << 18);
            dev.launch(0, LaunchCfg::new("expand", buf.len()), |w| {
                let idxs: Vec<usize> = w.lanes().collect();
                let mut out = Vec::new();
                w.vload32(&buf, &idxs, &mut out);
                w.alu(40); // neighbor-inspection loop body
            })
            .runtime_ms
        };
        let fast = run(Compiler::ClangO3);
        let slow = run(Compiler::ClangO0);
        assert!(
            slow > 3.0 * fast,
            "O0 {slow} should be several times O3 {fast}"
        );
    }

    #[test]
    fn register_pressure_lowers_occupancy() {
        let dev = Device::mi250x();
        let buf = dev.alloc_u32(1 << 14);
        let light = dev.launch(
            0,
            LaunchCfg::new("light", 1 << 14).with_registers(16),
            |w| {
                let idxs: Vec<usize> = w.lanes().collect();
                let mut out = Vec::new();
                w.vload32(&buf, &idxs, &mut out);
            },
        );
        let heavy = dev.launch(
            0,
            LaunchCfg::new("heavy", 1 << 14).with_registers(128),
            |w| {
                let idxs: Vec<usize> = w.lanes().collect();
                let mut out = Vec::new();
                w.vload32(&buf, &idxs, &mut out);
            },
        );
        assert!(heavy.occupancy < light.occupancy);
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let dev = Device::mi250x();
        let r = dev.launch(0, LaunchCfg::new("empty", 0), |_w| {});
        assert!((r.runtime_ms - dev.arch().launch_us / 1000.0).abs() < 1e-9);
        assert_eq!(r.stats.instructions, 0);
    }

    #[test]
    fn pool_reuses_buffers_with_identical_addresses() {
        let dev = Device::mi250x();
        let a = dev.pool_acquire_u32(1024);
        let addr = a.addr(0);
        a.host_fill(42);
        dev.pool_release_u32(a);
        // Same length: the released buffer (contents and address intact)
        // comes back.
        let b = dev.pool_acquire_u32(1024);
        assert_eq!(b.addr(0), addr);
        assert!(b.to_host().iter().all(|&v| v == 42), "contents retained");
        // Different length: fresh allocation.
        let c = dev.pool_acquire_u32(512);
        assert_ne!(c.addr(0), addr);
        assert_eq!(dev.pool_stats(), (1, 2));
        let w = dev.pool_acquire_u64(16);
        dev.pool_release_u64(w);
        let w2 = dev.pool_acquire_u64(16);
        assert_eq!(dev.pool_stats(), (2, 3));
        drop((b, c, w2));
    }

    #[test]
    fn pool_rejects_double_release() {
        let dev = Device::mi250x();
        let a = dev.pool_acquire_u32(64);
        let addr = a.addr(0);
        dev.pool_release_u32(a);
        // Forge a second handle at the same address (the only way to
        // double-release without unsafe code, since release moves the
        // buffer). The guarded API must reject it with a typed error.
        let forged = BufU32::new(addr, 64);
        match dev.try_pool_release_u32(forged) {
            Err(PoolError::DoubleRelease { addr: a2, len: 64 }) => assert_eq!(a2, addr),
            other => panic!("expected DoubleRelease, got {other:?}"),
        }
        assert_eq!(dev.take_pool_faults().len(), 1);
    }

    #[test]
    fn pool_rejects_foreign_buffers() {
        let dev = Device::mi250x();
        // An address beyond this device's bump-allocator watermark cannot
        // have come from it.
        let foreign = BufU32::new(1 << 40, 8);
        match dev.try_pool_release_u32(foreign) {
            Err(PoolError::ForeignBuffer { len: 8, .. }) => {}
            other => panic!("expected ForeignBuffer, got {other:?}"),
        }
        // Empty placeholders are a silent no-op, not a fault.
        assert!(dev.try_pool_release_u32(BufU32::placeholder()).is_ok());
        assert_eq!(dev.take_pool_faults().len(), 1);
    }

    #[test]
    fn pool_quarantines_corrupted_entries_on_acquire() {
        let dev = Device::mi250x();
        let a = dev.pool_acquire_u32(256);
        a.host_fill(7);
        dev.pool_release_u32(a);
        let (addr, word, _bit) = dev.corrupt_parked(99).expect("one parked buffer");
        // Acquire detects the flip, quarantines the entry, and hands back
        // a fresh allocation instead of the poisoned one.
        let b = dev.pool_acquire_u32(256);
        assert_ne!(b.addr(0), addr, "poisoned buffer must not be reused");
        assert!(b.to_host().iter().all(|&v| v == 0), "fresh zeroed alloc");
        let faults = dev.take_pool_faults();
        assert_eq!(faults.len(), 1);
        assert!(
            matches!(&faults[0], PoolError::ChecksumMismatch { addr: a2, .. } if *a2 == addr),
            "got {faults:?} (flipped word {word})"
        );
        // Misses: initial alloc + post-quarantine realloc; zero hits.
        assert_eq!(dev.pool_stats(), (0, 2));
    }

    #[test]
    fn verify_pool_detects_parked_corruption() {
        let dev = Device::mi250x();
        let a = dev.pool_acquire_u32(128);
        dev.pool_release_u32(a);
        assert!(dev.verify_pool().is_ok());
        dev.corrupt_parked(5).expect("one parked buffer");
        let err = dev.verify_pool().expect_err("corruption must be found");
        assert!(matches!(err, PoolError::ChecksumMismatch { .. }));
        // The corrupt entry was quarantined; a second scan is clean.
        assert!(dev.verify_pool().is_ok());
        assert_eq!(dev.pool_bytes(), 0);
    }

    #[test]
    fn pool_byte_cap_trims_least_recently_released() {
        let dev = Device::mi250x();
        let a = dev.pool_acquire_u32(100); // 400 B, released first (LRU)
        let a_addr = a.addr(0);
        let b = dev.pool_acquire_u32(50); // 200 B
        let c = dev.pool_acquire_u64(25); // 200 B
        dev.set_pool_limit(Some(500));
        dev.pool_release_u32(a);
        dev.pool_release_u32(b);
        // Releasing b pushed parked bytes to 600 > 500, evicting the
        // least recently released entry (a, 400 B).
        assert_eq!(dev.pool_bytes(), 200);
        dev.pool_release_u64(c);
        assert_eq!(dev.pool_bytes(), 400);
        assert!(dev.pool_pressure_events() >= 1);
        // The LRU victim was `a`: acquiring its size class misses.
        let a2 = dev.pool_acquire_u32(100);
        assert_ne!(a2.addr(0), a_addr, "trimmed buffer is gone");
        // Oversized release under a tiny cap bypasses the pool entirely.
        dev.set_pool_limit(Some(100));
        let before = dev.pool_pressure_events();
        dev.pool_release_u32(a2);
        assert!(dev.pool_pressure_events() > before);
        assert!(dev.pool_bytes() <= 100);
        // Uncapping restores normal parking.
        dev.set_pool_limit(None);
        let d = dev.pool_acquire_u32(10);
        dev.pool_release_u32(d);
        assert_eq!(dev.pool_bytes(), 40);
    }
}
