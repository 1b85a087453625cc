//! Interconnect cost model for a Frontier-style cluster of GCDs.
//!
//! Frontier packs 8 GCDs (4 MI250X) per node, linked by Infinity Fabric;
//! nodes connect over Slingshot-11 NICs. The paper's distributed-BFS
//! motivation (Graph500) lives or dies on these links, so the model
//! distinguishes intra-node and inter-node transfers and charges per-message
//! latency plus bandwidth-limited transfer time.

/// Bandwidth/latency description of the cluster fabric.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// GCDs per node (Frontier: 8).
    pub gcds_per_node: usize,
    /// Intra-node GCD↔GCD bandwidth, GB/s (Infinity Fabric, ≈ 50 GB/s per
    /// direction between GCD pairs).
    pub intra_node_gbps: f64,
    /// Inter-node per-GCD share of NIC bandwidth, GB/s (4×25 GB/s NICs per
    /// node shared by 8 GCDs ≈ 12.5 GB/s each).
    pub inter_node_gbps: f64,
    /// Per-message latency, microseconds (intra-node).
    pub intra_latency_us: f64,
    /// Per-message latency, microseconds (inter-node).
    pub inter_latency_us: f64,
}

impl LinkModel {
    /// Frontier-like defaults.
    pub fn frontier() -> Self {
        Self {
            gcds_per_node: 8,
            intra_node_gbps: 50.0,
            inter_node_gbps: 12.5,
            intra_latency_us: 2.0,
            inter_latency_us: 8.0,
        }
    }

    /// True if two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.gcds_per_node == b / self.gcds_per_node
    }

    /// Time to move `bytes` from rank `from` to rank `to` as one message.
    pub fn transfer_us(&self, from: usize, to: usize, bytes: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        let (lat, bw) = if self.same_node(from, to) {
            (self.intra_latency_us, self.intra_node_gbps)
        } else {
            (self.inter_latency_us, self.inter_node_gbps)
        };
        lat + bytes as f64 / (bw * 1e3)
    }

    /// Time for a `bytes`-payload allreduce across `num_ranks` ranks
    /// (recursive doubling: log2(P) rounds over the worst link).
    pub fn allreduce_us(&self, num_ranks: usize, bytes: u64) -> f64 {
        if num_ranks <= 1 {
            return 0.0;
        }
        let rounds = (usize::BITS - (num_ranks - 1).leading_zeros()) as f64;
        let worst = if num_ranks > self.gcds_per_node {
            self.inter_latency_us + bytes as f64 / (self.inter_node_gbps * 1e3)
        } else {
            self.intra_latency_us + bytes as f64 / (self.intra_node_gbps * 1e3)
        };
        rounds * worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_beats_inter() {
        let l = LinkModel::frontier();
        assert!(l.same_node(0, 7));
        assert!(!l.same_node(7, 8));
        let near = l.transfer_us(0, 1, 1 << 20);
        let far = l.transfer_us(0, 9, 1 << 20);
        assert!(far > 2.0 * near, "far {far} near {near}");
        assert_eq!(l.transfer_us(3, 3, 1 << 20), 0.0);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let l = LinkModel::frontier();
        let r2 = l.allreduce_us(2, 64);
        let r8 = l.allreduce_us(8, 64);
        assert!((r8 / r2 - 3.0).abs() < 1e-9, "log2(8)/log2(2) = 3");
        assert_eq!(l.allreduce_us(1, 64), 0.0);
    }
}
