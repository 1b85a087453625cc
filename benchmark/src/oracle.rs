//! The yardstick and the correctness oracle: a plain queue BFS over a
//! private copy of the CSR arrays.
//!
//! It deliberately shares no code with the repository (`graph::reference`
//! in particular), so that no change to the repository can move it: if
//! `oracle.yardstick_ms` differs between two commits, the host moved and
//! the code did not. Every query the harness issues is followed by a
//! timed [`Oracle::timed`] call for the same source on the same thread;
//! that wall time is the unit every `_x` metric is expressed in, and the
//! levels it finds are what every answer is checked against.

use std::time::Instant;

/// Level value of a vertex the BFS did not reach (same encoding the
/// engines use on the wire and in `BfsRun::levels`).
pub const UNREACHED: u32 = u32::MAX;

/// What the oracle found for one source — everything an engine's answer
/// is compared with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// FNV-1a over `(source, levels)`; equals the engines'
    /// backend-independent `result_digest`.
    pub digest: u64,
    /// Deepest level assigned (the source is level 0).
    pub max_level: u32,
    /// Vertices reached, the source included.
    pub reached: u64,
}

/// Queue BFS with its own graph copy and reusable scratch.
pub struct Oracle {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    levels: Vec<u32>,
    queue: Vec<u32>,
}

/// FNV-1a over a source and its level array. Kept here, not imported, so
/// the oracle stays independent; a unit test pins it to
/// `xbfs_core::levels_digest`.
pub fn levels_digest(source: u32, levels: &[u32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (0xcbf2_9ce4_8422_2325u64 ^ u64::from(source)).wrapping_mul(PRIME);
    for &l in levels {
        h = (h ^ u64::from(l)).wrapping_mul(PRIME);
    }
    h
}

impl Oracle {
    /// Copy the CSR arrays (`offsets.len() == n + 1`).
    pub fn new(offsets: &[u64], targets: &[u32]) -> Self {
        let n = offsets.len().saturating_sub(1);
        Self {
            offsets: offsets.to_vec(),
            targets: targets.to_vec(),
            levels: vec![UNREACHED; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.levels.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Breadth-first levels from `source` (valid until the next call).
    pub fn bfs(&mut self, source: u32) -> &[u32] {
        self.levels.fill(UNREACHED);
        self.queue.clear();
        self.levels[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let next = self.levels[u] + 1;
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            for &v in &self.targets[lo..hi] {
                let slot = &mut self.levels[v as usize];
                if *slot == UNREACHED {
                    *slot = next;
                    self.queue.push(v);
                }
            }
        }
        &self.levels
    }

    /// One yardstick sample: the wall seconds of [`Oracle::bfs`] alone,
    /// and (outside the timed interval) the answer it produced.
    pub fn timed(&mut self, source: u32) -> (f64, Answer) {
        let t = Instant::now();
        std::hint::black_box(self.bfs(std::hint::black_box(source)));
        let wall = t.elapsed().as_secs_f64();
        (wall, self.answer(source))
    }

    /// Digest, depth and reach of the levels left by the last
    /// [`Oracle::bfs`] call, which must have been for `source`.
    pub fn answer(&self, source: u32) -> Answer {
        // The queue holds exactly the reached vertices in level order.
        let last = *self.queue.last().expect("bfs ran: the source is queued");
        Answer {
            digest: levels_digest(source, &self.levels),
            max_level: self.levels[last as usize],
            reached: self.queue.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0-1-2 plus an isolated vertex 3.
    fn path() -> Oracle {
        Oracle::new(&[0, 1, 3, 4, 4], &[1, 0, 2, 1])
    }

    #[test]
    fn levels_depth_and_reach() {
        let mut o = path();
        assert_eq!(o.bfs(0), &[0, 1, 2, UNREACHED]);
        let a = o.answer(0);
        assert_eq!((a.max_level, a.reached), (2, 3));
        assert_eq!(o.bfs(3), &[UNREACHED, UNREACHED, UNREACHED, 0]);
        assert_eq!(o.answer(3).reached, 1);
    }

    #[test]
    fn digest_matches_the_engines_definition() {
        let mut o = path();
        let levels = o.bfs(1).to_vec();
        assert_eq!(
            levels_digest(1, &levels),
            xbfs_core::levels_digest(1, &levels)
        );
        assert_eq!(UNREACHED, xbfs_core::UNVISITED);
        let (wall, a) = o.timed(1);
        assert!(wall >= 0.0);
        assert_eq!(a.digest, xbfs_core::levels_digest(1, &levels));
    }
}
