//! Shared helpers for the experiment harness.

use gcd_sim::{ArchProfile, Compiler, Device, ExecMode};
use xbfs_core::XbfsConfig;
use xbfs_graph::{Csr, Dataset};

/// How much smaller than the paper's datasets to run (graphs shrink by
/// `2^shift`). The default keeps functional-mode experiments minutes-fast
/// and timing-mode experiments tractable.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Shift applied to the Table II datasets for end-to-end experiments.
    pub dataset_shift: u32,
    /// R-MAT scale used by the timing-mode profiler tables ("Rmat25" in
    /// the paper; `25 - table_shift` here).
    pub table_shift: u32,
    /// Sources per dataset for n-to-n experiments.
    pub sources: usize,
    /// Seeds for the Fig. 6 box ranges.
    pub seeds: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            dataset_shift: 7,
            // R-MAT scale 19 under the timing simulator: the ~80 MB working
            // set exceeds the 8 MiB L2 the way Rmat25's 4.3 GB does on the
            // real GCD, so per-level FetchSize behaves like the paper's.
            table_shift: 6,
            sources: 8,
            seeds: 6,
        }
    }
}

impl Scale {
    /// A fast configuration for CI/tests.
    pub fn smoke() -> Self {
        Self {
            dataset_shift: 10,
            table_shift: 12,
            sources: 2,
            seeds: 2,
        }
    }

    /// Generate a Table II dataset at this scale.
    pub fn dataset(&self, d: Dataset, seed: u64) -> Csr {
        d.generate(self.dataset_shift, seed)
    }

    /// Generate the profiler-table R-MAT graph.
    pub fn table_rmat(&self, seed: u64) -> Csr {
        xbfs_graph::generators::rmat_graph(
            xbfs_graph::generators::RmatParams::graph500(25u32.saturating_sub(self.table_shift)),
            seed,
        )
    }
}

/// Build a device for an experiment.
pub fn mk_device(
    arch: ArchProfile,
    mode: ExecMode,
    cfg: &XbfsConfig,
    compiler: Compiler,
) -> Device {
    let mut dev = Device::new(arch, mode, cfg.required_streams());
    dev.set_compiler(compiler);
    dev
}

/// MI250X profile with the L2 capacity scaled down by `2^shift`, matching
/// the graph shrink. The paper's cache behaviour is governed by the
/// working-set : L2 ratio (Rmat25's 128 MB status array vs 8 MiB L2); a
/// `2^shift`-smaller graph against the full-size L2 would sit entirely in
/// cache and erase every per-level FetchSize effect the tables show.
pub fn scaled_mi250x(shift: u32) -> ArchProfile {
    let mut a = ArchProfile::mi250x_gcd();
    a.l2_bytes = (a.l2_bytes >> shift).max(32 << 10);
    a
}

/// Deterministic non-isolated source vertex for single-source experiments.
pub fn default_source(g: &Csr) -> u32 {
    xbfs_graph::stats::pick_sources(g, 1, 0x5EED)
        .first()
        .copied()
        .expect("graph has no vertex with edges")
}

/// MI250X functional-mode device for a config.
pub fn mi250x_functional(cfg: &XbfsConfig) -> Device {
    mk_device(
        ArchProfile::mi250x_gcd(),
        ExecMode::Functional,
        cfg,
        Compiler::ClangO3,
    )
}

/// MI250X timing-mode device for a config, with the L2 scaled to the
/// experiment's graph shrink (see [`scaled_mi250x`]).
pub fn mi250x_timing(cfg: &XbfsConfig, shift: u32) -> Device {
    mk_device(
        scaled_mi250x(shift),
        ExecMode::Timing,
        cfg,
        Compiler::ClangO3,
    )
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_generates() {
        let s = Scale::smoke();
        let g = s.dataset(Dataset::Dblp, 1);
        assert!(g.num_vertices() >= 256);
        let r = s.table_rmat(1);
        assert_eq!(r.num_vertices(), 1 << 13);
    }
}
