//! rocprofiler-style aggregation over kernel reports.
//!
//! The paper's Tables III–V list, per BFS level, one row per kernel with
//! `Runtime`, `L2CacheHit`, `MemUnitBusy` and `FetchSize`; Table VI sums
//! memory read and runtime across the kernels of a level. This module turns
//! the raw [`KernelReport`] stream of a run into those aggregates.

use crate::kernel::{KernelReport, WaveStats};
use xbfs_telemetry::export::csv_field;

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

/// Render a report stream as rocprofiler-style CSV (one row per dispatch),
/// for offline analysis of `repro` runs. Phase and kernel labels are
/// RFC-4180 quoted, so free-form labels (`set_phase("level 3, retry")`)
/// survive the round trip through [`from_csv`].
pub fn to_csv(reports: &[KernelReport]) -> String {
    let mut out = String::from(
        "phase,kernel,runtime_ms,l2_hit_pct,mem_busy_pct,fetch_kb,instructions,atomics,hbm_lines,occupancy\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{},{:.6},{:.3},{:.3},{:.3},{},{},{},{:.3}\n",
            csv_field(&r.phase),
            csv_field(&r.name),
            r.runtime_ms,
            r.l2_hit_pct,
            r.mem_busy_pct,
            r.fetch_kb,
            r.stats.instructions,
            r.stats.atomics,
            r.stats.hbm_lines,
            r.occupancy,
        ));
    }
    out
}

/// Parse [`to_csv`] output back into (partial) kernel reports.
///
/// Counters not present in the CSV (cache-hit breakdowns, conflict counts)
/// come back zeroed; everything the CSV carries round-trips exactly up to
/// the printed precision.
pub fn from_csv(csv: &str) -> Result<Vec<KernelReport>, String> {
    let mut rows = csv_records(csv)?;
    if rows.is_empty() {
        return Err("empty CSV".into());
    }
    let header = rows.remove(0);
    if header.first().map(String::as_str) != Some("phase") || header.len() != 10 {
        return Err(format!("unexpected CSV header: {header:?}"));
    }
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            if row.len() != 10 {
                return Err(format!(
                    "row {}: expected 10 fields, got {}",
                    i + 1,
                    row.len()
                ));
            }
            let f64_at = |j: usize| -> Result<f64, String> {
                row[j]
                    .parse()
                    .map_err(|e| format!("row {}: field {j}: {e}", i + 1))
            };
            let u64_at = |j: usize| -> Result<u64, String> {
                row[j]
                    .parse()
                    .map_err(|e| format!("row {}: field {j}: {e}", i + 1))
            };
            Ok(KernelReport {
                phase: row[0].clone(),
                name: row[1].clone(),
                runtime_ms: f64_at(2)?,
                l2_hit_pct: f64_at(3)?,
                mem_busy_pct: f64_at(4)?,
                fetch_kb: f64_at(5)?,
                stats: WaveStats {
                    instructions: u64_at(6)?,
                    atomics: u64_at(7)?,
                    hbm_lines: u64_at(8)?,
                    ..WaveStats::default()
                },
                occupancy: f64_at(9)?,
            })
        })
        .collect()
}

/// Split RFC-4180 CSV text into records of unquoted fields.
fn csv_records(csv: &str) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = csv.chars().peekable();
    let mut quoted = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => quoted = true,
            ',' => {
                row.push(std::mem::take(&mut field));
                any = true;
            }
            '\r' => {}
            '\n' => {
                if any || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                any = false;
            }
            _ => field.push(c),
        }
    }
    if quoted {
        return Err("unterminated quoted field".into());
    }
    if any || !field.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn csv_has_header_and_rows() {
        let reports = vec![report("L0", "a", 1.0, 100.0)];
        let csv = to_csv(&reports);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("phase,kernel,runtime_ms"));
        assert!(lines[1].starts_with("L0,a,1.000000,"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes_and_round_trips() {
        let mut tricky = report("level 3, retry", "fq_expand\"wave\"", 1.25, 42.0);
        tricky.stats.instructions = 7;
        tricky.stats.atomics = 3;
        tricky.stats.hbm_lines = 11;
        let reports = vec![tricky, report("L1", "plain", 0.5, 8.0)];
        let csv = to_csv(&reports);
        // Still one line per record despite the embedded comma.
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("\"level 3, retry\""));
        assert!(csv.contains("\"fq_expand\"\"wave\"\"\""));

        let parsed = from_csv(&csv).expect("own output must parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].phase, "level 3, retry");
        assert_eq!(parsed[0].name, "fq_expand\"wave\"");
        assert_eq!(parsed[0].stats.instructions, 7);
        assert_eq!(parsed[0].stats.atomics, 3);
        assert_eq!(parsed[0].stats.hbm_lines, 11);
        assert!((parsed[0].runtime_ms - 1.25).abs() < 1e-9);
        assert!((parsed[0].fetch_kb - 42.0).abs() < 1e-9);
        assert_eq!(parsed[1].phase, "L1");
        // Re-serializing the parsed reports reproduces the CSV byte-for-byte.
        assert_eq!(to_csv(&parsed), csv);
    }

    #[test]
    fn from_csv_rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("not,the,header\n").is_err());
        let good = to_csv(&[report("L0", "a", 1.0, 1.0)]);
        let truncated = good.replace(",1.000\n", "\n");
        assert!(from_csv(&truncated).is_err(), "short row must be rejected");
        assert!(from_csv("phase,kernel,runtime_ms,l2_hit_pct,mem_busy_pct,fetch_kb,instructions,atomics,hbm_lines,occupancy\n\"open").is_err());
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
