//! Graph generators.
//!
//! The reproduction needs two kinds of input (DESIGN.md §2):
//!
//! * the Graph500 Kronecker **R-MAT** generator ([`rmat`]) — the same family
//!   the paper uses for `Rmat23` and `Rmat25`, and
//! * synthetic **analogs** of the four SNAP datasets that cannot be shipped
//!   offline: scale-free preferential attachment ([`scale_free`]) for
//!   LiveJournal/Orkut, a layered citation model ([`layered`]) for USpatent
//!   (low average degree, large diameter), and a clique/community model
//!   ([`community`]) for DBLP co-authorship.
//!
//! All generators are deterministic given a seed.

pub mod community;
pub mod layered;
pub mod random;
pub mod rmat;
pub mod scale_free;

pub use community::community_graph;
pub use layered::layered_citation_graph;
pub use random::erdos_renyi;
pub use rmat::{rmat_graph, RmatParams};
pub use scale_free::barabasi_albert;
