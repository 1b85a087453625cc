//! The paper's six evaluation datasets (Table II) as reproducible
//! generators.
//!
//! The SNAP graphs cannot be redistributed offline, so each is replaced by
//! a synthetic analog with the same *strategy-relevant* characteristics
//! (degree distribution family, average degree, and diameter class — see
//! DESIGN.md §2). `Rmat23`/`Rmat25` use the genuine Graph500 Kronecker
//! generator. Every dataset takes a `scale_shift`: the graph is generated
//! `2^scale_shift` times smaller than the paper's (shift 0 = paper size),
//! so laptop-scale runs preserve relative shapes while staying tractable
//! under the timing simulator.

use crate::csr::Csr;
use crate::generators::{
    barabasi_albert, community_graph, layered_citation_graph, rmat_graph, RmatParams,
};

/// One of the paper's Table II datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// LiveJournal (LJ): social network, |V| = 4,036,538, |E| = 69,362,378.
    LiveJournal,
    /// USpatent (UP): citation network, |V| = 6,009,555, |E| = 33,037,896.
    USpatent,
    /// Orkut (OR): social network, |V| = 3,072,627, |E| = 234,370,166.
    Orkut,
    /// DBLP (DB): co-authorship, |V| = 425,957, |E| = 2,099,732.
    Dblp,
    /// Rmat23 (R23): Kronecker scale 23, |E| = 134,214,744.
    Rmat23,
    /// Rmat25 (R25): Kronecker scale 25, |E| = 536,866,130.
    Rmat25,
}

/// Static description of a dataset: the paper's numbers plus our analog.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Full dataset name as in Table II.
    pub name: &'static str,
    /// Two-letter abbreviation used in the paper's figures.
    pub short: &'static str,
    /// Vertex count the paper reports.
    pub paper_vertices: u64,
    /// Directed edge count the paper reports.
    pub paper_edges: u64,
    /// On-disk size the paper reports.
    pub paper_size: &'static str,
    /// Description of the synthetic analog used here.
    pub analog: &'static str,
}

impl Dataset {
    /// All six datasets in Table II order.
    pub const ALL: [Dataset; 6] = [
        Dataset::LiveJournal,
        Dataset::USpatent,
        Dataset::Orkut,
        Dataset::Dblp,
        Dataset::Rmat23,
        Dataset::Rmat25,
    ];

    /// Table II row for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::LiveJournal => DatasetSpec {
                name: "LiveJournal",
                short: "LJ",
                paper_vertices: 4_036_538,
                paper_edges: 69_362_378,
                paper_size: "478 MB",
                analog: "Barabási–Albert, attach 8 (avg degree ≈ 17)",
            },
            Dataset::USpatent => DatasetSpec {
                name: "USpatent",
                short: "UP",
                paper_vertices: 6_009_555,
                paper_edges: 33_037_896,
                paper_size: "268 MB",
                analog: "layered citation graph (avg degree ≈ 5.5, deep BFS)",
            },
            Dataset::Orkut => DatasetSpec {
                name: "Orkut",
                short: "OR",
                paper_vertices: 3_072_627,
                paper_edges: 234_370_166,
                paper_size: "1.7 GB",
                analog: "Barabási–Albert, attach 38 (avg degree ≈ 76)",
            },
            Dataset::Dblp => DatasetSpec {
                name: "Dblp",
                short: "DB",
                paper_vertices: 425_957,
                paper_edges: 2_099_732,
                paper_size: "13 MB",
                analog: "community/clique model (avg degree ≈ 5, many levels)",
            },
            Dataset::Rmat23 => DatasetSpec {
                name: "Rmat23",
                short: "R23",
                paper_vertices: 8_388_608,
                paper_edges: 134_214_744,
                paper_size: "1 GB",
                analog: "Graph500 Kronecker, scale 23 − shift, edge factor 16",
            },
            Dataset::Rmat25 => DatasetSpec {
                name: "Rmat25",
                short: "R25",
                paper_vertices: 33_554_432,
                paper_edges: 536_866_130,
                paper_size: "4.3 GB",
                analog: "Graph500 Kronecker, scale 25 − shift, edge factor 16",
            },
        }
    }

    /// Generate the analog graph, `2^scale_shift` times smaller than the
    /// paper's, but never below 2^8 vertices.
    pub fn generate(self, scale_shift: u32, seed: u64) -> Csr {
        let shrink = |v: u64| (v.checked_shr(scale_shift).unwrap_or(0) as usize).max(256);
        match self {
            Dataset::LiveJournal => barabasi_albert(shrink(4_036_538), 8, seed),
            Dataset::Orkut => barabasi_albert(shrink(3_072_627), 38, seed),
            Dataset::USpatent => {
                let n = shrink(6_009_555);
                // ≈ 180 layers at paper scale keeps BFS deep at any shift.
                let layers = (n / 2048).clamp(40, 220);
                layered_citation_graph(n, layers, 3, 5, seed)
            }
            Dataset::Dblp => {
                let n = shrink(425_957);
                community_graph(n, n, 5, 0.12, seed)
            }
            Dataset::Rmat23 => {
                let scale = 23u32.saturating_sub(scale_shift).max(8);
                rmat_graph(RmatParams::graph500(scale), seed)
            }
            Dataset::Rmat25 => {
                let scale = 25u32.saturating_sub(scale_shift).max(8);
                rmat_graph(RmatParams::graph500(scale), seed)
            }
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.spec().short)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table2() {
        assert_eq!(Dataset::LiveJournal.spec().paper_edges, 69_362_378);
        assert_eq!(Dataset::Rmat25.spec().paper_vertices, 33_554_432);
        assert_eq!(Dataset::ALL.len(), 6);
    }

    #[test]
    fn analogs_preserve_average_degree_class() {
        // Use a large shift for speed; average degree is shift-invariant for
        // BA and layered models.
        let lj = Dataset::LiveJournal.generate(8, 1);
        let or = Dataset::Orkut.generate(8, 1);
        let up = Dataset::USpatent.generate(8, 1);
        let db = Dataset::Dblp.generate(4, 1);
        assert!(or.average_degree() > 3.0 * lj.average_degree());
        assert!(up.average_degree() < lj.average_degree());
        assert!(db.average_degree() < 16.0);
    }

    #[test]
    fn generation_is_deterministic() {
        for d in Dataset::ALL {
            let shift = 10;
            assert_eq!(d.generate(shift, 7), d.generate(shift, 7), "{d}");
        }
    }

    #[test]
    fn shift_scales_size() {
        let small = Dataset::Rmat23.generate(12, 1);
        let smaller = Dataset::Rmat23.generate(13, 1);
        assert_eq!(small.num_vertices(), 2 * smaller.num_vertices());
    }
}
