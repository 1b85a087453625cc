//! Shape-level assertions for the paper's quantitative claims — the same
//! invariants EXPERIMENTS.md reports, pinned as tests so regressions in the
//! cost model or the kernels show up in CI.

use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use xbfs_baselines::{Algo, Baseline};
use xbfs_core::{Engine, RunRequest, Strategy, Xbfs, XbfsConfig};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{rearrange_by_degree, Dataset, RearrangeOrder};

fn rmat16() -> xbfs_graph::Csr {
    rmat_graph(RmatParams::graph500(16), 77)
}

fn run_cfg(g: &xbfs_graph::Csr, cfg: XbfsConfig, src: u32) -> xbfs_core::BfsRun {
    let dev = Device::new(
        ArchProfile::mi250x_gcd(),
        ExecMode::Functional,
        cfg.required_streams(),
    );
    let xbfs = Xbfs::new(&dev, g, cfg).unwrap();
    xbfs.run(src).unwrap()
}

/// §III / Fig. 7: at the peak-ratio level bottom-up is fastest; at the
/// first levels scan-free is fastest.
#[test]
fn strategy_crossover_matches_fig7() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let runs: Vec<xbfs_core::BfsRun> =
        [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp]
            .into_iter()
            .map(|s| run_cfg(&g, XbfsConfig::forced(s), src))
            .collect();
    let ratio_of = |l: usize| runs[0].level_stats[l].ratio;
    let peak = (0..runs[0].level_stats.len())
        .max_by(|&a, &b| ratio_of(a).partial_cmp(&ratio_of(b)).unwrap())
        .unwrap();
    assert!(ratio_of(peak) > 0.1, "R-MAT should have a bottom-up hump");
    let time = |r: &xbfs_core::BfsRun, l: usize| r.level_stats[l].time_ms;
    // Bottom-up wins the peak level.
    assert!(
        time(&runs[2], peak) < time(&runs[0], peak),
        "bottom-up {} should beat scan-free {} at peak ratio {:.3}",
        time(&runs[2], peak),
        time(&runs[0], peak),
        ratio_of(peak)
    );
    assert!(time(&runs[2], peak) < time(&runs[1], peak));
    // Scan-free wins level 0 (tiny frontier) by at least not losing.
    assert!(time(&runs[0], 0) <= time(&runs[2], 0));
}

/// Fig. 8: XBFS beats the Gunrock-like baseline on every dataset.
#[test]
fn xbfs_beats_gunrock_everywhere() {
    for d in Dataset::ALL {
        let g = d.generate(10, 3);
        let src = pick_sources(&g, 1, 5)[0];
        let x = run_cfg(&g, XbfsConfig::default(), src);
        let mut gunrock = Baseline::new(Algo::Gunrock, Device::mi250x(), &g);
        let gr = gunrock.run(&RunRequest::plain(&[src])).unwrap();
        assert!(
            x.total_ms < gr.total_ms,
            "{d}: xbfs {} ms vs gunrock {} ms",
            x.total_ms,
            gr.total_ms
        );
    }
}

/// Fig. 8 shape: high-average-degree graphs (OR, R25) reach far higher
/// GTEPS than the sparse/deep ones (UP, DB).
#[test]
fn gteps_ordering_matches_fig8() {
    let gteps = |d: Dataset| {
        let g = d.generate(9, 3);
        let src = pick_sources(&g, 1, 5)[0];
        run_cfg(&g, XbfsConfig::default(), src).gteps
    };
    let or = gteps(Dataset::Orkut);
    let up = gteps(Dataset::USpatent);
    let db = gteps(Dataset::Dblp);
    let r25 = gteps(Dataset::Rmat25);
    assert!(or > 3.0 * up, "OR {or} should dwarf UP {up}");
    assert!(r25 > 3.0 * db, "R25 {r25} should dwarf DB {db}");
}

/// §IV-B Table I: degree-descending re-arrangement reduces the bottom-up
/// expansion work (wave instructions) on R-MAT; degree-ascending hurts.
#[test]
fn rearrangement_cuts_bottom_up_work() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let bu_instr = |g: &xbfs_graph::Csr| -> u64 {
        run_cfg(g, XbfsConfig::default(), src)
            .level_stats
            .iter()
            .flat_map(|l| &l.kernels)
            .filter(|k| k.name.starts_with("bu_expand"))
            .map(|k| k.stats.instructions)
            .sum()
    };
    let plain = bu_instr(&g);
    let desc = bu_instr(&rearrange_by_degree(&g, RearrangeOrder::DegreeDescending));
    let asc = bu_instr(&rearrange_by_degree(&g, RearrangeOrder::DegreeAscending));
    assert!(
        (desc as f64) < 0.9 * plain as f64,
        "descending {desc} should cut plain {plain} by >10%"
    );
    assert!(
        asc > desc,
        "ascending {asc} must be worse than descending {desc}"
    );
}

/// §IV-A: wave-per-vertex bottom-up balancing wastes lanes on 64-wide AMD
/// waves — it must cost more end-to-end than thread-per-vertex.
#[test]
fn bottom_up_balancing_degrades_on_amd() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let off = run_cfg(&g, XbfsConfig::optimized_amd(), src);
    let on = run_cfg(
        &g,
        XbfsConfig {
            balancing_bottom_up: true,
            ..XbfsConfig::optimized_amd()
        },
        src,
    );
    assert!(
        on.total_ms > off.total_ms,
        "balanced bottom-up {} ms should exceed thread-per-vertex {} ms",
        on.total_ms,
        off.total_ms
    );
}

/// §IV-B: consolidating three streams into one wins on AMD (expensive
/// syncs) and matters less on the NVIDIA profile (cheap syncs).
#[test]
fn stream_consolidation_helps_more_on_amd() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let run_streams = |arch: ArchProfile, multi: bool| {
        let cfg = XbfsConfig {
            multi_stream: multi,
            ..XbfsConfig::optimized_amd()
        };
        let dev = Device::new(arch, ExecMode::Functional, cfg.required_streams());
        let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
        xbfs.run(src).unwrap().total_ms
    };
    let amd_multi = run_streams(ArchProfile::mi250x_gcd(), true);
    let amd_single = run_streams(ArchProfile::mi250x_gcd(), false);
    let nv_multi = run_streams(ArchProfile::p6000(), true);
    let nv_single = run_streams(ArchProfile::p6000(), false);
    assert!(amd_single < amd_multi, "AMD: single-stream should win");
    let amd_gain = amd_multi / amd_single;
    let nv_gain = nv_multi / nv_single;
    assert!(
        amd_gain > nv_gain,
        "consolidation gain on AMD ({amd_gain:.3}x) should exceed NVIDIA ({nv_gain:.3}x)"
    );
}

/// §IV-A compiler claims: hipcc's register pressure slows the bottom-up
/// kernel; omitting -O3 is catastrophic.
#[test]
fn compiler_model_matches_claims() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let cfg = XbfsConfig::forced(Strategy::BottomUp);
    // The paper's numbers are per-kernel (17% per bottom-up iteration, up
    // to 10x without -O3), so compare the bottom-up expansion kernel time.
    let bu_ms_with = |c: Compiler| {
        let mut dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Functional, 1);
        dev.set_compiler(c);
        let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
        xbfs.run(src)
            .unwrap()
            .level_stats
            .iter()
            .flat_map(|l| &l.kernels)
            .filter(|k| k.name.starts_with("bu_expand"))
            .map(|k| k.runtime_ms)
            .sum::<f64>()
    };
    let clang = bu_ms_with(Compiler::ClangO3);
    let hipcc = bu_ms_with(Compiler::HipccO3);
    let o0 = bu_ms_with(Compiler::ClangO0);
    assert!(hipcc > 1.05 * clang, "hipcc {hipcc} vs clang {clang}");
    assert!(o0 > 2.0 * clang, "no -O3 {o0} vs clang {clang}");
}

/// §III-B: NFG skips generation scans — the adaptive run must use NFG on
/// the level after scan-free and after bottom-up, and disabling it slows
/// the run.
#[test]
fn nfg_is_used_and_helps() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let with = run_cfg(&g, XbfsConfig::optimized_amd(), src);
    assert!(
        with.level_stats.iter().filter(|l| l.used_nfg).count() >= with.level_stats.len() - 1,
        "NFG should apply on nearly every level: {:?}",
        with.level_stats
            .iter()
            .map(|l| l.used_nfg)
            .collect::<Vec<_>>()
    );
    let without = run_cfg(
        &g,
        XbfsConfig {
            nfg: false,
            ..XbfsConfig::optimized_amd()
        },
        src,
    );
    assert!(without.total_ms > with.total_ms);
}

/// Fig. 5: the optimized AMD port must beat the naive hipify configuration
/// end-to-end on the MI250X profile.
#[test]
fn optimized_port_beats_naive_port() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let naive = {
        let cfg = XbfsConfig::naive_port();
        let mut dev = Device::new(
            ArchProfile::mi250x_gcd(),
            ExecMode::Functional,
            cfg.required_streams(),
        );
        dev.set_compiler(Compiler::HipccO3);
        let xbfs = Xbfs::new(&dev, &g, cfg).unwrap();
        xbfs.run(src).unwrap().total_ms
    };
    let optimized = run_cfg(&g, XbfsConfig::optimized_amd(), src).total_ms;
    assert!(
        optimized < naive,
        "optimized {optimized} ms should beat naive port {naive} ms"
    );
}

/// §V-D: the adaptive controller at α = 0.1 is at least as good as any
/// single forced strategy end-to-end.
#[test]
fn adaptive_beats_every_forced_strategy() {
    let g = rmat16();
    let src = pick_sources(&g, 1, 1)[0];
    let adaptive = run_cfg(&g, XbfsConfig::default(), src).total_ms;
    for strat in [Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp] {
        let forced = run_cfg(&g, XbfsConfig::forced(strat), src).total_ms;
        assert!(
            adaptive <= forced * 1.02,
            "adaptive {adaptive} ms should not lose to forced {strat} {forced} ms"
        );
    }
}
