//! The remaining quantitative claims: §V-F bandwidth efficiency, the §IV-A
//! compiler study, and the §IV ablation set.

use crate::common::default_source;
use crate::common::{f2, f3, mi250x_timing, mk_device, Scale};
use crate::tables::TABLE_SEED;
use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use xbfs_core::{bandwidth_efficiency, MsBfs, Strategy, Xbfs, XbfsConfig, MAX_CONCURRENT};
use xbfs_graph::{rearrange_by_degree, Dataset, RearrangeOrder};
use xbfs_telemetry::export::render_table;

/// §V-F: predicted vs measured bandwidth efficiency on the R-MAT dataset.
pub fn efficiency(scale: &Scale) -> String {
    let g = rearrange_by_degree(
        &scale.table_rmat(TABLE_SEED),
        RearrangeOrder::DegreeDescending,
    );
    let cfg = XbfsConfig::default();
    let dev = mi250x_timing(&cfg, scale.table_shift);
    let run = Xbfs::new(&dev, &g, cfg)
        .expect("bench inputs are valid")
        .run(default_source(&g))
        .expect("bench inputs are valid");
    let eff = bandwidth_efficiency(&run, g.num_vertices(), g.num_edges(), dev.arch());
    format!(
        "§V-F bandwidth efficiency (R-MAT scale {}, {} ms end-to-end):\n\
         predicted bytes 16|V|+4|M| = {:.1} MB -> {:.1}% of peak\n\
         measured fetch            = {:.1} MB -> {:.1}% of peak\n\
         (paper: 13.7% predicted, 16.2% measured on Rmat25)\n",
        25 - scale.table_shift,
        f3(run.total_ms),
        eff.predicted_bytes as f64 / 1e6,
        100.0 * eff.predicted_fraction_of_peak,
        eff.measured_bytes as f64 / 1e6,
        100.0 * eff.measured_fraction_of_peak,
    )
}

/// §IV-A compiler study: total bottom-up expansion time under clang -O3,
/// hipcc -O3 and clang without -O3.
pub fn compilers(scale: &Scale) -> String {
    let g = scale.table_rmat(TABLE_SEED);
    let cfg = XbfsConfig::forced(Strategy::BottomUp);
    let run_with = |compiler: Compiler| {
        let dev = mk_device(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            &cfg,
            compiler,
        );
        let run = Xbfs::new(&dev, &g, cfg)
            .expect("bench inputs are valid")
            .run(default_source(&g))
            .expect("bench inputs are valid");
        let bu_ms: f64 = run
            .level_stats
            .iter()
            .flat_map(|l| &l.kernels)
            .filter(|k| k.name.starts_with("bu_expand"))
            .map(|k| k.runtime_ms)
            .sum();
        (bu_ms, run.total_ms)
    };
    let runs = [Compiler::ClangO3, Compiler::HipccO3, Compiler::ClangO0].map(run_with);
    let clang_bu = runs[0].0.max(1e-12);
    let names = ["clang -O3", "hipcc -O3", "clang (no -O3)"];
    let row = |(name, (bu, total)): (&str, (f64, f64))| {
        vec![
            name.into(),
            f3(bu),
            f3(total),
            format!("{:.2}x", bu / clang_bu),
        ]
    };
    let rows: Vec<_> = names.into_iter().zip(runs).map(row).collect();
    render_table(
        "§IV-A compiler study: bottom-up expansion time (paper: hipcc +17%/iter, no -O3 up to 10x)",
        &["Compiler", "bu_expand ms", "end-to-end ms", "vs clang"],
        &rows,
    )
}

/// §IV ablations: each optimization toggled off individually, GTEPS on the
/// R-MAT analog.
pub fn ablations(scale: &Scale) -> String {
    let g = rearrange_by_degree(
        &scale.dataset(Dataset::Rmat25, TABLE_SEED),
        RearrangeOrder::DegreeDescending,
    );
    let sources = xbfs_graph::stats::pick_sources(&g, scale.sources, 3);
    // Each variant is the optimized configuration with one knob turned.
    let with = |turn: fn(&mut XbfsConfig)| {
        let mut cfg = XbfsConfig::optimized_amd();
        turn(&mut cfg);
        cfg
    };
    let variants = [
        ("optimized (all on)", with(|_| {})),
        (
            "3 streams (no consolidation)",
            with(|c| c.multi_stream = true),
        ),
        ("no NFG", with(|c| c.nfg = false)),
        (
            "bottom-up balancing on",
            with(|c| c.balancing_bottom_up = true),
        ),
        ("no proactive claims", with(|c| c.proactive = false)),
        (
            "no top-down balancing",
            with(|c| c.balancing_top_down = false),
        ),
    ];
    let mut base_gteps = 0.0;
    let mut rows = Vec::new();
    for (label, cfg) in variants {
        let dev = mk_device(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            &cfg,
            Compiler::ClangO3,
        );
        let xbfs = Xbfs::new(&dev, &g, cfg).expect("bench inputs are valid");
        let (mut edges, mut ms) = (0u64, 0.0f64);
        for &s in &sources {
            let run = xbfs.run(s).expect("bench inputs are valid");
            edges += run.traversed_edges;
            ms += run.total_ms;
        }
        let gteps = edges as f64 / (ms * 1e-3).max(1e-12) / 1e9;
        if rows.is_empty() {
            base_gteps = gteps;
        }
        rows.push(vec![
            label.into(),
            f2(gteps),
            format!("{:+.1}%", 100.0 * (gteps / base_gteps.max(1e-12) - 1.0)),
        ]);
    }
    let solo = render_table(
        "§IV ablations on the R-MAT analog (n-to-n GTEPS)",
        &["Variant", "GTEPS", "vs optimized"],
        &rows,
    );
    // The batched engine's direction switch: one 64-source batch per kind.
    let rows = Dataset::ALL.map(|d| {
        let g = scale.dataset(d, TABLE_SEED);
        let sources = xbfs_graph::stats::pick_sources(&g, MAX_CONCURRENT, 3);
        let us = |cfg| {
            let engine =
                MsBfs::with_config(Device::mi250x(), &g, cfg).expect("bench inputs are valid");
            1e3 * engine.run_batch(&sources).total_ms / sources.len() as f64
        };
        let (push, adaptive) = (us(XbfsConfig::directed()), us(XbfsConfig::default()));
        vec![d.to_string(), f3(push), f3(adaptive)]
    });
    let batched = render_table(
        "§IV extension: 64-wide MsBfs, modeled µs per source, push only vs direction-optimizing",
        &["Dataset", "push", "adaptive"],
        &rows,
    );
    solo + "\n" + &batched
}

/// §V-D "Test of best α": end-to-end n-to-n GTEPS as a function of the
/// bottom-up threshold, on the R-MAT analog. The paper settles on α = 0.1
/// from the per-level study (our Fig. 7); this sweep confirms the choice
/// end-to-end.
pub fn alpha(scale: &Scale) -> String {
    let g = rearrange_by_degree(
        &scale.dataset(Dataset::Rmat25, TABLE_SEED),
        RearrangeOrder::DegreeDescending,
    );
    let sources = xbfs_graph::stats::pick_sources(&g, scale.sources, 21);
    let mut rows = Vec::new();
    for a in [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, f64::INFINITY] {
        let cfg = XbfsConfig {
            alpha: a,
            scan_free_max_ratio: (1e-3f64).min(a),
            ..XbfsConfig::optimized_amd()
        };
        let dev = mk_device(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            &cfg,
            Compiler::ClangO3,
        );
        let xbfs = Xbfs::new(&dev, &g, cfg).expect("bench inputs are valid");
        let (mut edges, mut ms, mut bu_levels) = (0u64, 0.0f64, 0usize);
        for &s in &sources {
            let run = xbfs.run(s).expect("bench inputs are valid");
            edges += run.traversed_edges;
            ms += run.total_ms;
            bu_levels += run
                .strategy_trace()
                .iter()
                .filter(|&&s| s == Strategy::BottomUp)
                .count();
        }
        let label = if a.is_infinite() {
            "inf (top-down only)".to_string()
        } else {
            format!("{a}")
        };
        rows.push(vec![
            label,
            f2(edges as f64 / (ms * 1e-3).max(1e-12) / 1e9),
            format!("{:.1}", bu_levels as f64 / sources.len() as f64),
        ]);
    }
    render_table(
        "§V-D alpha sweep on the R-MAT analog (paper picks α = 0.1)",
        &["alpha", "GTEPS", "bottom-up levels/run"],
        &rows,
    )
}

/// Multi-GCD scaling study — the paper's "basis for distributed BFS"
/// claim, quantified: strong scaling of the distributed engine over 1–8
/// GCDs, push-only vs direction-optimizing, plus the intro's Graph500
/// framing (Frontier's CPU submission averages ≈ 0.4 GTEPS per GCD).
pub fn scaling(scale: &Scale) -> String {
    use xbfs_multi_gcd::{ClusterConfig, GcdCluster, LinkModel};
    let g = scale.table_rmat(TABLE_SEED);
    let src = default_source(&g);
    let mut rows = Vec::new();
    let mut single_gcd_ms = 0.0f64;
    // 1-8 GCDs = one Frontier node; 16/32 cross node boundaries, where the
    // fabric model switches to the slower inter-node links.
    for num_gcds in [1usize, 2, 4, 8, 16, 32] {
        let mut per_mode = Vec::new();
        for push_only in [false, true] {
            let cfg = ClusterConfig {
                num_gcds,
                alpha: 0.1,
                push_only,
            };
            let mut cluster =
                GcdCluster::new(&g, cfg, LinkModel::frontier()).expect("valid table config");
            let run = cluster.run(src).expect("fault-free run");
            per_mode.push(run);
        }
        let opt = &per_mode[0];
        let push = &per_mode[1];
        if num_gcds == 1 {
            single_gcd_ms = opt.total_ms;
        }
        let exchanged: u64 = push.level_stats.iter().map(|l| l.exchanged_bytes).sum();
        rows.push(vec![
            num_gcds.to_string(),
            f3(opt.total_ms),
            f2(opt.gteps),
            f2(opt.gteps_per_gcd),
            format!("{:.2}x", single_gcd_ms / opt.total_ms.max(1e-12)),
            f3(push.total_ms),
            format!("{:.1} KB", exchanged as f64 / 1024.0),
        ]);
    }
    let mut out = render_table(
        &format!(
            "Multi-GCD strong scaling, R-MAT scale {} (direction-optimizing vs push-only)",
            25 - scale.table_shift
        ),
        &[
            "GCDs",
            "time ms",
            "GTEPS",
            "GTEPS/GCD",
            "speedup",
            "push-only ms",
            "push exch.",
        ],
        &rows,
    );
    out.push_str(
        "\ncontext (paper §I): Frontier's June-2024 CPU Graph500 run = 29654.6 GTEPS\n\
         over 9248 nodes x 8 GCD-equivalents = 0.4 GTEPS/GCD; one simulated GCD\n\
         running XBFS already exceeds that by orders of magnitude at full scale.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_reports_all_gcd_counts() {
        let t = scaling(&Scale::smoke());
        for n in ["1", "2", "4", "8"] {
            assert!(t.lines().any(|l| l.trim_start().starts_with(n)), "{t}");
        }
        assert!(t.contains("GTEPS/GCD"));
    }

    #[test]
    fn compiler_ordering_holds() {
        let t = compilers(&Scale::smoke());
        assert!(t.contains("hipcc"));
        // Extract the two multiplier cells.
        let lines: Vec<&str> = t.lines().collect();
        let cell = |prefix: &str| -> f64 {
            lines
                .iter()
                .find(|l| l.trim_start().starts_with(prefix))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|x| x.trim_end_matches('x').parse().ok())
                .unwrap_or_else(|| panic!("no multiplier row for {prefix:?} in\n{t}"))
        };
        let hipcc_x = cell("hipcc -O3");
        let o0_x = cell("clang (no");
        assert!(hipcc_x > 1.0, "hipcc should be slower: {hipcc_x}");
        assert!(o0_x > hipcc_x, "O0 {o0_x} should exceed hipcc {hipcc_x}");
    }

    #[test]
    fn efficiency_reports_both_numbers() {
        let t = efficiency(&Scale::smoke());
        assert!(t.contains("predicted"));
        assert!(t.contains("measured"));
    }
}
