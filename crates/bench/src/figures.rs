//! Regeneration of the paper's Figures 5–8.

use crate::common::{f2, f3, mi250x_functional, mk_device, render_table, sci, Scale};
use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use std::collections::BTreeMap;
use xbfs_baselines::{Algo, Baseline};
use xbfs_core::{Engine, RunRequest, Xbfs, XbfsConfig};
use xbfs_graph::reference::traversed_edges;
use xbfs_graph::stats::{level_profile, pick_sources};
use xbfs_graph::{rearrange_by_degree, Csr, Dataset, RearrangeOrder};

/// Fig. 5: per-kernel time breakdown across the three porting stages:
/// (a) original CUDA XBFS on the P6000 profile, (b) naive hipify on the
/// MI250X, (c) the optimized AMD port.
pub fn fig5(scale: &Scale) -> String {
    let g = scale.table_rmat(crate::tables::TABLE_SEED);
    let configs: [(&str, ArchProfile, XbfsConfig, Compiler); 3] = [
        (
            "(a) CUDA original / P6000",
            ArchProfile::p6000(),
            XbfsConfig::cuda_original(),
            Compiler::ClangO3, // stands in for nvcc -O3
        ),
        (
            "(b) naive hipify / MI250X",
            ArchProfile::mi250x_gcd(),
            XbfsConfig::naive_port(),
            Compiler::HipccO3,
        ),
        (
            "(c) optimized / MI250X",
            ArchProfile::mi250x_gcd(),
            XbfsConfig::optimized_amd(),
            Compiler::ClangO3,
        ),
    ];
    let mut out = String::new();
    for (label, arch, cfg, compiler) in configs {
        let dev = mk_device(arch, ExecMode::Functional, &cfg, compiler);
        // (c) additionally uses the re-arranged graph (§IV-B).
        let src = crate::common::default_source(&g);
        let run = if label.starts_with("(c)") {
            let rg = rearrange_by_degree(&g, RearrangeOrder::DegreeDescending);
            Xbfs::new(&dev, &rg, cfg)
                .expect("bench inputs are valid")
                .run(src)
                .expect("bench inputs are valid")
        } else {
            Xbfs::new(&dev, &g, cfg)
                .expect("bench inputs are valid")
                .run(src)
                .expect("bench inputs are valid")
        };
        let mut per_kernel: BTreeMap<String, f64> = BTreeMap::new();
        for ls in &run.level_stats {
            for k in &ls.kernels {
                *per_kernel.entry(k.name.clone()).or_default() += k.runtime_ms;
            }
        }
        let rows: Vec<Vec<String>> = per_kernel
            .iter()
            .map(|(k, &ms)| vec![k.clone(), f3(ms)])
            .collect();
        out.push_str(&render_table(
            &format!("Fig. 5 {label}: end-to-end {:.3} ms", run.total_ms),
            &["Kernel", "Total ms"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Fig. 6: per-level log2 edge-ratio ranges over random sources, for every
/// dataset.
pub fn fig6(scale: &Scale) -> String {
    let mut out = String::new();
    for d in Dataset::ALL {
        let g = scale.dataset(d, crate::tables::TABLE_SEED);
        let sources = pick_sources(&g, scale.seeds, 7);
        // ratios[level] = all observed log2 ratios at that level.
        let mut ratios: Vec<Vec<f64>> = Vec::new();
        for &s in &sources {
            let p = level_profile(&g, s);
            for (l, &r) in p.edge_ratios.iter().enumerate() {
                if ratios.len() <= l {
                    ratios.resize(l + 1, Vec::new());
                }
                if r > 0.0 {
                    ratios[l].push(r.log2());
                }
            }
        }
        let rows: Vec<Vec<String>> = ratios
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(l, v)| {
                let mut sorted = v.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let min = sorted[0];
                let max = sorted[sorted.len() - 1];
                let med = sorted[sorted.len() / 2];
                vec![l.to_string(), f2(min), f2(med), f2(max)]
            })
            .collect();
        out.push_str(&render_table(
            &format!(
                "Fig. 6 [{d}]: log2(edge ratio) per level over {} sources ({} levels)",
                sources.len(),
                rows.len()
            ),
            &["Level", "min", "median", "max"],
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Fig. 7: runtime of each forced strategy at each level (with its ratio),
/// up to and including the peak-ratio level, on the R-MAT dataset.
pub fn fig7(scale: &Scale) -> String {
    let all = crate::tables::forced_level_totals(scale);
    let ratios: Vec<f64> = all[0].levels.iter().map(|&(r, _, _)| r).collect();
    let peak = ratios
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut rows = Vec::new();
    for (l, &ratio) in ratios.iter().enumerate().take(peak + 1) {
        let mut row = vec![l.to_string(), sci(ratio)];
        for s in &all {
            row.push(
                s.levels
                    .get(l)
                    .map(|&(_, _, ms)| f3(ms))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
    }
    render_table(
        "Fig. 7: per-level runtime (ms) of each strategy vs ratio (to peak ratio)",
        &["Level", "Ratio", "Scan-free", "Single-scan", "Bottom-up"],
        &rows,
    )
}

/// One dataset row of Fig. 8.
pub struct Fig8Row {
    pub dataset: Dataset,
    pub xbfs_gteps: f64,
    pub xbfs_plain_gteps: f64,
    pub gunrock_gteps: f64,
    pub beamer_gteps: f64,
}

/// n-to-n GTEPS of one engine: the traversed edges of every run from
/// `sources` over the modeled time of every run.
fn n_to_n_gteps(engine: &mut dyn Engine, g: &Csr, sources: &[u32]) -> f64 {
    let (mut edges, mut ms) = (0u64, 0.0f64);
    for &s in sources {
        let out = engine
            .run(&RunRequest::plain(&[s]))
            .expect("bench inputs are valid");
        edges += traversed_edges(g, &out.levels[0]);
        ms += out.total_ms;
    }
    edges as f64 / (ms * 1e-3).max(1e-12) / 1e9
}

/// n-to-n GTEPS of XBFS (default config) on its own functional MI250X.
fn xbfs_gteps(g: &Csr, sources: &[u32]) -> f64 {
    let cfg = XbfsConfig::default();
    let dev = mi250x_functional(&cfg);
    let mut xbfs = Xbfs::new(&dev, g, cfg).expect("bench inputs are valid");
    n_to_n_gteps(&mut xbfs, g, sources)
}

/// n-to-n GTEPS of one baseline on its own MI250X.
fn baseline_gteps(algo: Algo, g: &Csr, sources: &[u32]) -> f64 {
    n_to_n_gteps(&mut Baseline::new(algo, Device::mi250x(), g), g, sources)
}

/// Run the Fig. 8 comparison: XBFS (re-arranged), XBFS (not re-arranged)
/// and the Gunrock-like baseline, n-to-n over random sources, per dataset.
pub fn fig8_rows(scale: &Scale) -> Vec<Fig8Row> {
    Dataset::ALL
        .iter()
        .map(|&d| {
            let g = scale.dataset(d, crate::tables::TABLE_SEED);
            let sources = pick_sources(&g, scale.sources, 13);
            let rg = rearrange_by_degree(&g, RearrangeOrder::DegreeDescending);
            Fig8Row {
                dataset: d,
                xbfs_gteps: xbfs_gteps(&rg, &sources),
                xbfs_plain_gteps: xbfs_gteps(&g, &sources),
                gunrock_gteps: baseline_gteps(Algo::Gunrock, &g, &sources),
                beamer_gteps: baseline_gteps(Algo::Beamer, &g, &sources),
            }
        })
        .collect()
}

/// Fig. 8 rendered.
pub fn fig8(scale: &Scale) -> String {
    let rows = fig8_rows(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                f2(r.xbfs_gteps),
                f2(r.xbfs_plain_gteps),
                f2(r.gunrock_gteps),
                f2(r.beamer_gteps),
                format!("{:.1}x", r.xbfs_gteps / r.gunrock_gteps.max(1e-12)),
                format!(
                    "{:+.1}%",
                    100.0 * (r.xbfs_gteps / r.xbfs_plain_gteps.max(1e-12) - 1.0)
                ),
            ]
        })
        .collect();
    render_table(
        "Fig. 8: n-to-n GTEPS on one simulated GCD",
        &[
            "Graph",
            "XBFS",
            "XBFS (no rearr.)",
            "Gunrock-like",
            "Beamer-like",
            "vs Gunrock",
            "rearr. gain",
        ],
        &table,
    )
}

/// Extension of Fig. 8: every baseline engine head-to-head with XBFS on
/// every dataset (n-to-n GTEPS). The §II related-work taxonomy, measured.
pub fn baselines_sweep(scale: &Scale) -> String {
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = scale.dataset(d, crate::tables::TABLE_SEED);
        let sources = pick_sources(&g, scale.sources.min(4), 13);
        let mut row = vec![d.to_string(), f2(xbfs_gteps(&g, &sources))];
        row.extend(Algo::ALL.map(|algo| f2(baseline_gteps(algo, &g, &sources))));
        rows.push(row);
    }
    render_table(
        "Baseline sweep: n-to-n GTEPS, every engine on every dataset",
        &[
            "Graph",
            "XBFS",
            "gunrock",
            "enterprise",
            "hier-queue",
            "status-arr",
            "sssp-async",
            "beamer",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_rows_reach_peak() {
        let s = Scale::smoke();
        let t = fig7(&s);
        assert!(t.contains("Scan-free"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn fig8_shape_holds_on_smoke_scale() {
        let rows = fig8_rows(&Scale::smoke());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.xbfs_gteps > 0.0, "{}", r.dataset);
            assert!(
                r.xbfs_gteps > r.gunrock_gteps,
                "{}: XBFS {} should beat gunrock {}",
                r.dataset,
                r.xbfs_gteps,
                r.gunrock_gteps
            );
        }
    }
}
