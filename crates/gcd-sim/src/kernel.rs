//! Kernel launch descriptors, per-wave statistics and the rocprof-style
//! per-kernel report.

/// Parameters of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchCfg {
    /// Kernel name as it would appear in rocprofiler output.
    pub name: &'static str,
    /// Number of logical work-items (threads).
    pub items: usize,
    /// Vector registers per thread the kernel "compiles" to; drives
    /// occupancy. BFS expansion kernels are register-hungry (~40–64),
    /// simple scans are light (~16–24).
    pub registers_per_thread: u32,
}

impl LaunchCfg {
    /// A launch with the default register budget (32/thread).
    pub fn new(name: &'static str, items: usize) -> Self {
        Self {
            name,
            items,
            registers_per_thread: 32,
        }
    }

    /// Override the register budget.
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs;
        self
    }
}

/// Raw counters accumulated while executing wavefronts. Merged across waves
/// with [`WaveStats::merge`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WaveStats {
    /// Wave (lockstep) instructions issued.
    pub instructions: u64,
    /// Traced memory accesses (lane granular).
    pub accesses: u64,
    /// Coalescer (L1-level) hits.
    pub l1_hits: u64,
    /// Requests leaving the coalescer toward L2.
    pub l2_accesses: u64,
    /// L2 hits (timing mode only; 0 in functional mode).
    pub l2_hits: u64,
    /// Lines fetched from HBM (L2 misses in timing mode, coalescer misses
    /// in functional mode).
    pub hbm_lines: u64,
    /// Atomic operations executed.
    pub atomics: u64,
    /// Atomic ops that conflicted on a line within one wave op (serialized).
    pub atomic_conflicts: u64,
    /// Bytes stored (write traffic, charged at half read cost).
    pub bytes_written: u64,
}

impl WaveStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &WaveStats) {
        self.instructions += other.instructions;
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.hbm_lines += other.hbm_lines;
        self.atomics += other.atomics;
        self.atomic_conflicts += other.atomic_conflicts;
        self.bytes_written += other.bytes_written;
    }
}

/// What rocprofiler would report for one kernel dispatch — the schema of
/// the paper's Tables III–V.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name as configured at launch.
    pub name: String,
    /// Free-form phase tag (the BFS level / strategy), set via
    /// `Device::set_phase`.
    pub phase: String,
    /// Modeled kernel time in milliseconds (includes launch overhead).
    pub runtime_ms: f64,
    /// `L2CacheHit` (%).
    pub l2_hit_pct: f64,
    /// `MemUnitBusy` (%).
    pub mem_busy_pct: f64,
    /// `FetchSize` (KB) — data fetched from HBM.
    pub fetch_kb: f64,
    /// Raw counters for deeper analysis.
    pub stats: WaveStats,
    /// Occupancy the cost model derived (resident waves / max waves).
    pub occupancy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = WaveStats {
            instructions: 1,
            accesses: 2,
            l1_hits: 3,
            l2_accesses: 4,
            l2_hits: 5,
            hbm_lines: 6,
            atomics: 7,
            atomic_conflicts: 8,
            bytes_written: 9,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.bytes_written, 18);
    }

    #[test]
    fn launch_cfg_builder() {
        let c = LaunchCfg::new("k", 100).with_registers(48);
        assert_eq!(c.registers_per_thread, 48);
        assert_eq!(c.items, 100);
    }
}
