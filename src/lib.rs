#![warn(missing_docs)]

//! `xbfs-repro` — workspace facade used by the runnable examples and the
//! cross-crate integration tests.
//!
//! The actual systems live in the member crates:
//! [`xbfs_graph`] (graphs), [`gcd_sim`] (the simulated MI250X GCD),
//! [`xbfs_core`] (XBFS itself) and [`xbfs_baselines`] (competing engines).

pub use gcd_sim;
pub use xbfs_baselines;
pub use xbfs_core;
pub use xbfs_graph;

#[cfg(test)]
mod tests {
    use crate::gcd_sim::Device;
    use crate::xbfs_core::{Xbfs, XbfsConfig};
    use crate::xbfs_graph::generators::{rmat_graph, RmatParams};

    #[test]
    fn facade_runs() {
        let g = rmat_graph(RmatParams::graph500(9), 1);
        let xbfs = Xbfs::new(Device::mi250x(), &g, XbfsConfig::default()).unwrap();
        assert_eq!(xbfs.run(0).unwrap().levels[0], 0);
    }
}
