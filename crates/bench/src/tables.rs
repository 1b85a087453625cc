//! Regeneration of the paper's Tables I and III–VI.

use crate::common::{f2, f3, mi250x_timing, Scale};
use xbfs_core::{Strategy, Xbfs, XbfsConfig};
use xbfs_graph::{rearrange_by_degree, Csr, RearrangeOrder};
use xbfs_telemetry::export::{render_table, sci};

/// Fixed seed so "the same seed" comparison of Table I holds.
pub const TABLE_SEED: u64 = 20240625;

/// Run XBFS in timing mode and return the per-level (fetch KB, runtime ms)
/// pairs plus the run itself.
fn timing_run(graph: &Csr, cfg: XbfsConfig, source: u32, shift: u32) -> xbfs_core::BfsRun {
    let dev = mi250x_timing(&cfg, shift);
    let xbfs = Xbfs::new(&dev, graph, cfg).expect("bench inputs are valid");
    xbfs.run(source).expect("bench inputs are valid")
}

/// The shared single-source for the profiler tables.
pub fn table_source(g: &Csr) -> u32 {
    crate::common::default_source(g)
}

/// Table I: per-level FetchSize and runtime, not-re-arranged vs re-arranged
/// adjacency, same seed, adaptive XBFS on the R-MAT dataset.
pub fn table1(scale: &Scale) -> String {
    let base = scale.table_rmat(TABLE_SEED);
    let rearranged = rearrange_by_degree(&base, RearrangeOrder::DegreeDescending);
    let cfg = XbfsConfig::default();
    let src = table_source(&base);
    let a = timing_run(&base, cfg, src, scale.table_shift);
    let b = timing_run(&rearranged, cfg, src, scale.table_shift);
    let levels = a.level_stats.len().max(b.level_stats.len());
    let mut rows = Vec::new();
    let (mut fa, mut ta, mut fb, mut tb) = (0.0, 0.0, 0.0, 0.0);
    for l in 0..levels {
        let (f1v, t1v) = a
            .level_stats
            .get(l)
            .map(|s| (s.fetch_kb(), s.time_ms))
            .unwrap_or((0.0, 0.0));
        let (f2v, t2v) = b
            .level_stats
            .get(l)
            .map(|s| (s.fetch_kb(), s.time_ms))
            .unwrap_or((0.0, 0.0));
        fa += f1v;
        ta += t1v;
        fb += f2v;
        tb += t2v;
        rows.push(vec![
            l.to_string(),
            f2(f1v),
            format!("{t1v:.4}"),
            f2(f2v),
            format!("{t2v:.4}"),
        ]);
    }
    rows.push(vec![
        "Sum".into(),
        f2(fa),
        format!("{ta:.4}"),
        f2(fb),
        format!("{tb:.4}"),
    ]);
    let mut out = render_table(
        &format!(
            "Table I: Not Re-arranged vs Re-arranged (R-MAT scale {}, seed {TABLE_SEED})",
            25 - scale.table_shift
        ),
        &[
            "Level",
            "FetchSize(KB)",
            "Runtime(ms)",
            "FS-rearr(KB)",
            "RT-rearr(ms)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "fetch reduction {:.1}%  runtime reduction {:.1}%\n",
        100.0 * (1.0 - fb / fa.max(1e-12)),
        100.0 * (1.0 - tb / ta.max(1e-12)),
    ));
    out
}

/// Table II: the dataset inventory (paper numbers + generated analogs).
pub fn table2(scale: &Scale) -> String {
    let mut rows = Vec::new();
    for d in xbfs_graph::Dataset::ALL {
        let spec = d.spec();
        let g = scale.dataset(d, TABLE_SEED);
        rows.push(vec![
            format!("{} ({})", spec.name, spec.short),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            spec.paper_size.into(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            f2(g.average_degree()),
        ]);
    }
    render_table(
        &format!(
            "Table II: datasets (analogs at 1/2^{} paper scale)",
            scale.dataset_shift
        ),
        &[
            "Graph",
            "paper |V|",
            "paper |E|",
            "paper size",
            "analog |V|",
            "analog |E|",
            "analog avg deg",
        ],
        &rows,
    )
}

/// Tables III–V: rocprofiler counters per kernel per level for one forced
/// strategy, timing mode.
pub fn profiler_table(scale: &Scale, strategy: Strategy) -> String {
    let g = scale.table_rmat(TABLE_SEED);
    let cfg = XbfsConfig::forced(strategy);
    let src = table_source(&g);
    let run = timing_run(&g, cfg, src, scale.table_shift);
    let mut rows = Vec::new();
    for ls in &run.level_stats {
        for k in &ls.kernels {
            rows.push(vec![
                sci(ls.ratio, 3),
                ls.level.to_string(),
                k.name.clone(),
                f3(k.runtime_ms),
                f3(k.l2_hit_pct),
                f3(k.mem_busy_pct),
                f3(k.fetch_kb),
            ]);
        }
    }
    let n = match strategy {
        Strategy::ScanFree => "Table III",
        Strategy::SingleScan => "Table IV",
        Strategy::BottomUp => "Table V",
    };
    render_table(
        &format!(
            "{n}: rocprofiler counters, forced {strategy} on R-MAT scale {}",
            25 - scale.table_shift
        ),
        &[
            "Ratio",
            "Level",
            "Kernel",
            "Runtime(ms)",
            "L2(%)",
            "MBusy(%)",
            "FS(KB)",
        ],
        &rows,
    )
}

/// One strategy's per-level totals used by Table VI and Fig. 7.
pub struct StrategyLevels {
    pub strategy: Strategy,
    /// Per level: (ratio, total fetch MB, total time ms).
    pub levels: Vec<(f64, f64, f64)>,
}

/// Run the three forced strategies in timing mode and collect per-level
/// totals.
pub fn forced_level_totals(scale: &Scale) -> Vec<StrategyLevels> {
    let g = scale.table_rmat(TABLE_SEED);
    [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp]
        .into_iter()
        .map(|s| {
            let src = table_source(&g);
            let run = timing_run(&g, XbfsConfig::forced(s), src, scale.table_shift);
            StrategyLevels {
                strategy: s,
                levels: run
                    .level_stats
                    .iter()
                    .map(|l| (l.ratio, l.fetch_kb() / 1024.0, l.time_ms))
                    .collect(),
            }
        })
        .collect()
}

/// Table VI: total memory read (MB) / runtime (ms) per level for the three
/// strategies.
pub fn table6(scale: &Scale) -> String {
    let all = forced_level_totals(scale);
    let levels = all.iter().map(|s| s.levels.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for l in 0..levels {
        let mut row = vec![l.to_string()];
        row.push(
            all[0]
                .levels
                .get(l)
                .map(|&(r, _, _)| sci(r, 3))
                .unwrap_or_else(|| "-".into()),
        );
        for s in &all {
            match s.levels.get(l) {
                Some(&(_, mb, ms)) => row.push(format!("{mb:.3} / {ms:.2}")),
                None => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    render_table(
        &format!(
            "Table VI: total memory read (MB) / runtime (ms), R-MAT scale {}",
            25 - scale.table_shift
        ),
        &["Level", "Ratio", "Scan-free", "Single-scan", "Bottom-up"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_datasets() {
        let t = table2(&Scale::smoke());
        assert!(t.contains("LiveJournal"));
        assert!(t.contains("Rmat25"));
        assert!(t.contains("33554432"));
    }

    #[test]
    fn table1_shows_reduction() {
        let t = table1(&Scale::smoke());
        assert!(t.contains("Sum"));
        assert!(t.contains("fetch reduction"));
    }

    #[test]
    fn profiler_tables_have_kernel_rows() {
        let s = Scale::smoke();
        let t3 = profiler_table(&s, Strategy::ScanFree);
        assert!(
            t3.contains("fq_expand") || t3.contains("fq_generate"),
            "{t3}"
        );
        let t5 = profiler_table(&s, Strategy::BottomUp);
        for k in ["bu_count", "bu_reduce", "bu_scan", "bu_place", "bu_expand"] {
            assert!(t5.contains(k), "missing {k} in\n{t5}");
        }
    }

    #[test]
    fn table6_covers_three_strategies() {
        let t = table6(&Scale::smoke());
        assert!(t.contains("Scan-free") && t.contains("Bottom-up"));
    }
}
