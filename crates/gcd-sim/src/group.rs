//! Workgroup (thread-block / CTA) execution: multiple wavefronts sharing
//! LDS (local data share) and a barrier — the "block-centric updating" tier
//! of XBFS's workload balancing.
//!
//! A group kernel is structured as *phases* separated by [`GroupCtx::barrier`];
//! within a phase the group's waves execute with no ordering guarantees
//! (emulated sequentially), exactly the contract real LDS-sharing kernels
//! must satisfy.

use crate::coalescer::Coalescer;
use crate::kernel::WaveStats;
use crate::l2::L2Model;
use crate::wave::WaveCtx;

/// Launch shape of a workgroup kernel.
#[derive(Debug, Clone, Copy)]
pub struct GroupCfg {
    /// Kernel name (rocprofiler row).
    pub name: &'static str,
    /// Number of workgroups.
    pub groups: usize,
    /// Wavefronts per workgroup (AMD allows up to 16; XBFS uses 4).
    pub waves_per_group: usize,
    /// LDS bytes per workgroup (occupancy limiter; 64 KiB per CU).
    pub lds_bytes: usize,
    /// Vector registers per thread.
    pub registers_per_thread: u32,
}

impl GroupCfg {
    /// A group launch with 4 waves and 16 KiB LDS per group.
    pub fn new(name: &'static str, groups: usize) -> Self {
        Self {
            name,
            groups,
            waves_per_group: 4,
            lds_bytes: 16 << 10,
            registers_per_thread: 32,
        }
    }

    /// Override waves per group.
    pub fn with_waves(mut self, waves: usize) -> Self {
        assert!(waves >= 1);
        self.waves_per_group = waves;
        self
    }

    /// Override LDS usage.
    pub fn with_lds(mut self, bytes: usize) -> Self {
        self.lds_bytes = bytes;
        self
    }

    /// Override the register budget.
    pub fn with_registers(mut self, regs: u32) -> Self {
        self.registers_per_thread = regs;
        self
    }
}

/// Execution context of one workgroup.
pub struct GroupCtx<'a> {
    group_id: usize,
    cfg: GroupCfg,
    width: usize,
    lds: &'a mut [u32],
    /// Aggregated stats of all the group's wave executions.
    pub stats: WaveStats,
    /// Per-wave coalescers (waves of a group share the CU's L1 in reality;
    /// one coalescer per wave is the conservative choice).
    coalescers: &'a mut [Coalescer],
    l2: Option<&'a mut L2Model>,
    items_per_group: usize,
}

impl<'a> GroupCtx<'a> {
    /// Group `group_id` of a launch, over scratch the launch loop owns and
    /// lends to one group after another: `lds` (`cfg.lds_bytes / 4` words,
    /// zeroed here) and one coalescer per wave (each reset when its wave
    /// runs).
    pub(crate) fn new(
        group_id: usize,
        cfg: GroupCfg,
        width: usize,
        lds: &'a mut [u32],
        coalescers: &'a mut [Coalescer],
        l2: Option<&'a mut L2Model>,
    ) -> Self {
        debug_assert_eq!(coalescers.len(), cfg.waves_per_group);
        lds.fill(0);
        Self {
            group_id,
            cfg,
            width,
            lds,
            stats: WaveStats::default(),
            coalescers,
            l2,
            items_per_group: cfg.waves_per_group * width,
        }
    }

    /// This group's index within the launch.
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// Wavefronts in this group.
    pub fn waves_per_group(&self) -> usize {
        self.cfg.waves_per_group
    }

    /// Lanes per wavefront.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Threads per group.
    pub fn group_size(&self) -> usize {
        self.items_per_group
    }

    /// Execute `body` as wavefront `wave` of this group. The wave sees
    /// global ids `group_id * group_size + wave * width + lane`.
    pub fn wave<F: FnOnce(&mut WaveCtx)>(&mut self, wave: usize, body: F) {
        assert!(wave < self.cfg.waves_per_group, "wave index out of range");
        let global_wave = self.group_id * self.cfg.waves_per_group + wave;
        let items = (self.group_id + 1) * self.items_per_group; // full groups
        let mut ctx = WaveCtx::new(
            global_wave,
            self.width,
            items,
            &mut self.coalescers[wave],
            self.l2.as_deref_mut(),
        );
        body(&mut ctx);
        self.stats.merge(&ctx.stats);
    }

    /// Group-wide barrier (`s_barrier`): every wave pays one instruction.
    pub fn barrier(&mut self) {
        self.stats.instructions += self.cfg.waves_per_group as u64;
    }

    /// Read LDS words at `idxs` (one per lane); charges one wave
    /// instruction per `width` accesses. LDS traffic never touches the
    /// memory hierarchy.
    pub fn lds_gather(&mut self, idxs: &[usize], out: &mut Vec<u32>) {
        if idxs.is_empty() {
            return;
        }
        self.stats.instructions += idxs.len().div_ceil(self.width) as u64;
        for &i in idxs {
            out.push(self.lds[i]);
        }
    }

    /// Write LDS words; same charging as [`Self::lds_gather`].
    pub fn lds_scatter(&mut self, writes: &[(usize, u32)]) {
        if writes.is_empty() {
            return;
        }
        self.stats.instructions += writes.len().div_ceil(self.width) as u64;
        for &(i, v) in writes {
            self.lds[i] = v;
        }
    }

    /// Number of LDS words available.
    pub fn lds_len(&self) -> usize {
        self.lds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` on group `gid` of `cfg` over freshly built scratch.
    fn with_group(gid: usize, cfg: GroupCfg, body: impl FnOnce(&mut GroupCtx)) {
        let mut lds = vec![0; cfg.lds_bytes / 4];
        let mut coalescers = vec![Coalescer::new(128, 64); cfg.waves_per_group];
        body(&mut GroupCtx::new(
            gid,
            cfg,
            64,
            &mut lds,
            &mut coalescers,
            None,
        ));
    }

    #[test]
    fn cfg_builder() {
        let c = GroupCfg::new("k", 10)
            .with_waves(8)
            .with_lds(4096)
            .with_registers(64);
        assert_eq!(c.waves_per_group, 8);
        assert_eq!(c.lds_bytes, 4096);
        assert_eq!(c.registers_per_thread, 64);
    }

    #[test]
    fn lds_round_trip_and_charging() {
        with_group(0, GroupCfg::new("k", 1), |g| {
            assert_eq!(g.lds_len(), (16 << 10) / 4);
            g.lds_scatter(&[(0, 7), (100, 9)]);
            let mut out = Vec::new();
            g.lds_gather(&[100, 0], &mut out);
            assert_eq!(out, vec![9, 7]);
            assert_eq!(g.stats.instructions, 2);
            // LDS ops never hit the memory system.
            assert_eq!(g.stats.accesses, 0);
        });
    }

    #[test]
    fn barrier_charges_all_waves() {
        with_group(0, GroupCfg::new("k", 1).with_waves(4), |g| {
            g.barrier();
            assert_eq!(g.stats.instructions, 4);
        });
    }

    #[test]
    fn wave_ids_are_global() {
        let mut seen = Vec::new();
        with_group(3, GroupCfg::new("k", 8).with_waves(4), |g| {
            for wv in 0..4 {
                g.wave(wv, |w| seen.push((w.wave_id(), w.lanes().start)));
            }
        });
        // Group 3, 4 waves of width 64: global waves 12..16.
        assert_eq!(seen, vec![(12, 768), (13, 832), (14, 896), (15, 960)]);
    }

    #[test]
    #[should_panic(expected = "wave index out of range")]
    fn rejects_bad_wave_index() {
        with_group(0, GroupCfg::new("k", 1).with_waves(2), |g| {
            g.wave(2, |_| {})
        });
    }
}
