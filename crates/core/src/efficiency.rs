//! Bandwidth-efficiency analysis (paper §V-F).
//!
//! The paper predicts a full BFS must read `8·2|V| + 4|M|` bytes (status
//! twice at 8 bytes of offset data per vertex, adjacency once) and derives
//! two efficiency figures for Rmat25: 13.7% of peak bandwidth from the
//! prediction and 16.2% from rocprofiler's measured fetch volume.

use crate::stats::BfsRun;
use gcd_sim::ArchProfile;

/// Efficiency figures for one run.
#[derive(Debug, Clone)]
pub struct Efficiency {
    /// `16|V| + 4|M|` bytes.
    pub predicted_bytes: u64,
    /// Total HBM fetch the profiler observed, bytes.
    pub measured_bytes: u64,
    /// Predicted bytes / runtime, as a fraction of peak bandwidth.
    pub predicted_fraction_of_peak: f64,
    /// Measured bytes / runtime, as a fraction of peak bandwidth.
    pub measured_fraction_of_peak: f64,
}

/// Compute §V-F's two efficiency numbers for a run on `arch`.
pub fn bandwidth_efficiency(
    run: &BfsRun,
    num_vertices: usize,
    num_edges: usize,
    arch: &ArchProfile,
) -> Efficiency {
    let predicted_bytes = 16 * num_vertices as u64 + 4 * num_edges as u64;
    let measured_bytes = (run.total_fetch_kb() * 1024.0) as u64;
    let secs = run.total_ms / 1e3;
    let peak = arch.mem_bw_gbps * 1e9;
    let frac = |bytes: u64| {
        if secs > 0.0 {
            (bytes as f64 / secs) / peak
        } else {
            0.0
        }
    };
    Efficiency {
        predicted_bytes,
        measured_bytes,
        predicted_fraction_of_peak: frac(predicted_bytes),
        measured_fraction_of_peak: frac(measured_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LevelStats;
    use crate::strategy::Strategy;
    use gcd_sim::{KernelReport, WaveStats};

    fn fake_run(total_ms: f64, fetch_kb: f64) -> BfsRun {
        BfsRun {
            source: 0,
            levels: vec![0],
            parents: None,
            level_stats: vec![LevelStats {
                level: 0,
                strategy: Strategy::ScanFree,
                used_nfg: true,
                ratio: 0.0,
                frontier_count: 1,
                frontier_edges: 1,
                time_ms: total_ms,
                kernels: vec![KernelReport {
                    name: "k".into(),
                    phase: String::new(),
                    runtime_ms: total_ms,
                    l2_hit_pct: 0.0,
                    mem_busy_pct: 0.0,
                    fetch_kb,
                    stats: WaveStats::default(),
                    occupancy: 1.0,
                }],
                start_us: 0.0,
                gen_end_us: None,
                expand_end_us: total_ms * 1000.0,
                end_us: total_ms * 1000.0,
            }],
            total_ms,
            traversed_edges: 0,
            gteps: 0.0,
            init_end_us: 0.0,
        }
    }

    #[test]
    fn paper_formula() {
        // 1 ms run moving the predicted volume on a 1.6 TB/s part.
        let arch = ArchProfile::mi250x_gcd();
        let v = 1_000_000usize;
        let m = 16_000_000usize;
        let predicted = 16 * v as u64 + 4 * m as u64; // 80 MB
        let run = fake_run(1.0, predicted as f64 / 1024.0);
        let eff = bandwidth_efficiency(&run, v, m, &arch);
        assert_eq!(eff.predicted_bytes, predicted);
        // 80 MB in 1 ms = 80 GB/s = 5% of 1600 GB/s.
        assert!((eff.predicted_fraction_of_peak - 0.05).abs() < 1e-3);
        assert!((eff.measured_fraction_of_peak - 0.05).abs() < 1e-3);
    }

    #[test]
    fn zero_runtime_is_safe() {
        let arch = ArchProfile::mi250x_gcd();
        let run = fake_run(0.0, 100.0);
        let eff = bandwidth_efficiency(&run, 10, 10, &arch);
        assert_eq!(eff.predicted_fraction_of_peak, 0.0);
    }
}
