#![warn(missing_docs)]

//! `xbfs-apps` — graph algorithms built on XBFS.
//!
//! The paper's introduction motivates fast BFS through its consumers.
//! This crate keeps the ones `xbfs analyze` reports — connected
//! components and a double-sweep diameter estimate — with
//! XBFS-on-the-simulated-GCD as the traversal engine, so every algorithm
//! inherits the adaptive strategies and their performance profile.

pub mod components;

pub use components::{connected_components, estimate_diameter, largest_component};

use gcd_sim::Device;
use xbfs_core::{Xbfs, XbfsConfig};
use xbfs_graph::Csr;

/// The engine every algorithm here traverses with: XBFS on its own fresh
/// simulated MI250X GCD, built once per call so a multi-source loop pays
/// the graph upload and state set-up once.
///
/// # Panics
/// On an empty graph.
fn engine(graph: &Csr) -> Xbfs<Device> {
    Xbfs::new(Device::mi250x(), graph, XbfsConfig::default())
        .expect("the stock MI250X runs the default config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::generators::erdos_renyi;

    #[test]
    fn engine_runs_bfs() {
        let g = erdos_renyi(200, 800, 2);
        let run = engine(&g).run(0).unwrap();
        assert_eq!(run.levels, xbfs_graph::bfs_levels_serial(&g, 0));
    }
}
