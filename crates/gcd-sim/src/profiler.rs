//! rocprofiler-style aggregation over kernel reports.
//!
//! The paper's Tables III–V list, per BFS level, one row per kernel with
//! `Runtime`, `L2CacheHit`, `MemUnitBusy` and `FetchSize`; Table VI sums
//! memory read and runtime across the kernels of a level. This module turns
//! the raw [`KernelReport`] stream of a run into those aggregates.

use crate::kernel::KernelReport;

/// All kernel rows recorded for one phase (one BFS level), in launch order.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// The phase label shared by these kernels.
    pub phase: String,
    /// Kernel reports in launch order.
    pub kernels: Vec<KernelReport>,
}

impl PhaseProfile {
    /// Total runtime across this phase's kernels, ms.
    pub fn total_runtime_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.runtime_ms).sum()
    }

    /// Total memory read across this phase's kernels, MB.
    pub fn total_fetch_mb(&self) -> f64 {
        self.kernels.iter().map(|k| k.fetch_kb).sum::<f64>() / 1024.0
    }

    /// Total memory read, KB.
    pub fn total_fetch_kb(&self) -> f64 {
        self.kernels.iter().map(|k| k.fetch_kb).sum()
    }
}

/// Group a report stream by phase, preserving first-seen phase order.
pub fn group_by_phase(reports: &[KernelReport]) -> Vec<PhaseProfile> {
    let mut out: Vec<PhaseProfile> = Vec::new();
    for r in reports {
        match out.iter_mut().find(|p| p.phase == r.phase) {
            Some(p) => p.kernels.push(r.clone()),
            None => out.push(PhaseProfile {
                phase: r.phase.clone(),
                kernels: vec![r.clone()],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WaveStats;

    fn report(phase: &str, name: &str, rt: f64, fetch: f64) -> KernelReport {
        KernelReport {
            name: name.into(),
            phase: phase.into(),
            runtime_ms: rt,
            l2_hit_pct: 50.0,
            mem_busy_pct: 10.0,
            fetch_kb: fetch,
            stats: WaveStats::default(),
            occupancy: 1.0,
        }
    }

    #[test]
    fn groups_and_sums() {
        let reports = vec![
            report("L0", "a", 1.0, 100.0),
            report("L0", "b", 2.0, 924.0),
            report("L1", "a", 3.0, 2048.0),
        ];
        let phases = group_by_phase(&reports);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, "L0");
        assert_eq!(phases[0].kernels.len(), 2);
        assert!((phases[0].total_runtime_ms() - 3.0).abs() < 1e-12);
        assert!((phases[0].total_fetch_mb() - 1.0).abs() < 1e-12);
        assert!((phases[1].total_fetch_kb() - 2048.0).abs() < 1e-12);
    }

    #[test]
    fn preserves_first_seen_order() {
        let reports = vec![
            report("L1", "x", 1.0, 0.0),
            report("L0", "y", 1.0, 0.0),
            report("L1", "z", 1.0, 0.0),
        ];
        let phases = group_by_phase(&reports);
        assert_eq!(phases[0].phase, "L1");
        assert_eq!(phases[0].kernels.len(), 2);
    }
}
