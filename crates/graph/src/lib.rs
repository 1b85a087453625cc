#![warn(missing_docs)]

//! Graph substrate for the XBFS-on-AMD-GPUs reproduction.
//!
//! This crate provides everything the paper's evaluation needs on the data
//! side:
//!
//! * a compressed-sparse-row ([`Csr`]) graph with 4-byte vertex ids and
//!   8-byte edge offsets (matching the paper's `16|V| + 4|M|`-byte traffic
//!   model in §V-F),
//! * graph generators — the Graph500 Kronecker R-MAT generator used for
//!   `Rmat23`/`Rmat25`, plus degree-distribution analogs for the four SNAP
//!   datasets (LiveJournal, USpatent, Orkut, DBLP) that are not shippable
//!   offline (see `DESIGN.md` §2),
//! * the degree-aware neighbor re-arrangement of §IV-B,
//! * plain-text and binary edge-list IO,
//! * two CPU reference BFS (queue and level-synchronous) used as ground truth, and
//! * the BFS certificate every engine's result is checked by.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod rearrange;
pub mod reference;
pub mod stats;
pub mod validate;

pub use builder::{BuildOptions, CsrBuilder};
pub use csr::{Csr, VertexId};
pub use datasets::{Dataset, DatasetSpec};
pub use rearrange::{rearrange_by_degree, RearrangeOrder};
pub use reference::{bfs_levels_frontier, bfs_levels_serial, bfs_parents_serial};
pub use validate::{
    certificate, certify_levels, certify_parents, levels_digest, CertViolation, Certificate,
};

/// Sentinel level / parent meaning "not visited".
pub const UNVISITED: u32 = u32::MAX;
