//! Runner configuration: the knobs the paper tunes while porting XBFS to
//! AMD GPUs, each defaulting to the Frontier-optimized setting.

use crate::strategy::Strategy;

/// XBFS configuration.
#[derive(Debug, Clone, Copy)]
pub struct XbfsConfig {
    /// Bottom-up threshold on the edge ratio (paper §V-F uses `α = 0.1`).
    pub alpha: f64,
    /// Below this ratio the scan-free strategy is selected; between this
    /// and `alpha`, single-scan (derived from the Table VI study).
    pub scan_free_max_ratio: f64,
    /// Warp-centric dynamic workload balancing for top-down expansion
    /// (degree-binned thread/wave/group kernels). Beneficial on both
    /// vendors (§IV-A).
    pub balancing_top_down: bool,
    /// The same balancing applied to bottom-up expansion. Helped on 32-wide
    /// NVIDIA warps, *degrades* 64-wide AMD waves (§IV-A) — off in the
    /// optimized configuration.
    pub balancing_bottom_up: bool,
    /// Run the three degree bins on three HIP streams (the original CUDA
    /// design). On AMD the per-stream sync cost dominates, so the
    /// optimized port consolidates to one stream (§IV-B).
    pub multi_stream: bool,
    /// No-Frontier-Generation: reuse an existing exact/superset queue
    /// instead of re-scanning the status array (§III-B).
    pub nfg: bool,
    /// Proactive next-level claims during bottom-up (§III-C).
    pub proactive: bool,
    /// Record a Graph500-style parent array (extra writes).
    pub record_parents: bool,
    /// Force a single strategy for every level (Fig. 7 / Tables III–VI).
    pub forced: Option<Strategy>,
}

impl Default for XbfsConfig {
    fn default() -> Self {
        Self::optimized_amd()
    }
}

impl XbfsConfig {
    /// The Frontier-optimized configuration (paper Fig. 5c).
    pub fn optimized_amd() -> Self {
        Self {
            alpha: 0.1,
            scan_free_max_ratio: 1e-3,
            balancing_top_down: true,
            balancing_bottom_up: false,
            multi_stream: false,
            nfg: true,
            proactive: true,
            record_parents: false,
            forced: None,
        }
    }

    /// XBFS as it lands after `hipify` with bugs fixed but nothing re-tuned
    /// (paper Fig. 5b): NVIDIA-era settings on AMD hardware.
    pub fn naive_port() -> Self {
        Self {
            // Thresholds tuned for the P6000 memory system.
            alpha: 0.05,
            scan_free_max_ratio: 1e-4,
            balancing_bottom_up: true,
            multi_stream: true,
            ..Self::optimized_amd()
        }
    }

    /// The original CUDA XBFS configuration (paper Fig. 5a, run on the
    /// P6000 profile where these choices are appropriate): the settings
    /// the naive port carried over unchanged.
    pub fn cuda_original() -> Self {
        Self::naive_port()
    }

    /// Configuration for *directed* graphs: the bottom-up strategy pulls a
    /// vertex's level through its **out**-edges, which equals pull-by-in-
    /// edges only when the adjacency is symmetric (the paper's Graph500
    /// setting). On directed inputs bottom-up must never engage, so this
    /// preset pins `α = ∞` (top-down only).
    pub fn directed() -> Self {
        Self {
            alpha: f64::INFINITY,
            ..Self::optimized_amd()
        }
    }

    /// Force one strategy at every level.
    pub fn forced(strategy: Strategy) -> Self {
        Self {
            forced: Some(strategy),
            ..Self::optimized_amd()
        }
    }

    /// Number of device streams this configuration requires.
    pub fn required_streams(&self) -> usize {
        if self.multi_stream {
            3
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_defaults_match_paper() {
        let c = XbfsConfig::default();
        assert_eq!(c.alpha, 0.1);
        assert!(!c.multi_stream);
        assert!(!c.balancing_bottom_up);
        assert!(c.nfg && c.proactive);
        assert_eq!(c.required_streams(), 1);
    }

    #[test]
    fn naive_port_keeps_cuda_era_choices() {
        let c = XbfsConfig::naive_port();
        assert!(c.multi_stream);
        assert!(c.balancing_bottom_up);
        assert_eq!(c.required_streams(), 3);
    }

    #[test]
    fn forced_builder() {
        let c = XbfsConfig::forced(Strategy::BottomUp);
        assert_eq!(c.forced, Some(Strategy::BottomUp));
    }
}
