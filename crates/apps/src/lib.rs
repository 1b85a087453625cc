#![warn(missing_docs)]

//! `xbfs-apps` — graph algorithms built on XBFS.
//!
//! The paper's introduction motivates fast BFS through its consumers.
//! This crate keeps the ones `xbfs analyze` reports — connected
//! components and eccentricity/diameter — with XBFS-on-the-simulated-GCD
//! as the traversal engine, so every algorithm inherits the adaptive
//! strategies and their performance profile.

pub mod components;
pub mod reachability;

pub use components::{connected_components, largest_component};
pub use reachability::{eccentricity, estimate_diameter, khop_sizes};

use gcd_sim::Device;
use xbfs_core::{BfsRun, Xbfs, XbfsConfig};
use xbfs_graph::Csr;

/// A reusable XBFS engine bound to one graph — the shared traversal
/// substrate for every algorithm in this crate.
///
/// The engine owns its device (`Xbfs<Device>`), so graph upload and BFS
/// state construction happen **once** here; the multi-source loops in
/// every algorithm (components, eccentricity) then pay only the
/// traversal itself per source.
pub struct BfsEngine<'g> {
    xbfs: Xbfs<Device>,
    graph: &'g Csr,
}

impl<'g> BfsEngine<'g> {
    /// Engine on a fresh simulated MI250X GCD.
    ///
    /// # Panics
    /// On an empty graph.
    pub fn new(graph: &'g Csr) -> Self {
        Self::with_config(graph, XbfsConfig::default())
    }

    /// Engine with a custom XBFS configuration.
    ///
    /// # Panics
    /// On an empty graph or a config demanding more streams than the
    /// stock MI250X device provides.
    pub fn with_config(graph: &'g Csr, cfg: XbfsConfig) -> Self {
        let xbfs = Xbfs::new(Device::mi250x(), graph, cfg)
            .expect("engine constructed with compatible device");
        Self { xbfs, graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Csr {
        self.graph
    }

    /// One BFS from `source`, reusing the engine's pooled run state.
    pub fn bfs(&self, source: u32) -> BfsRun {
        self.xbfs.run(source).expect("caller-validated source")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::generators::erdos_renyi;

    #[test]
    fn engine_runs_bfs() {
        let g = erdos_renyi(200, 800, 2);
        let engine = BfsEngine::new(&g);
        let run = engine.bfs(0);
        assert_eq!(run.levels, xbfs_graph::bfs_levels_serial(&g, 0));
    }
}
