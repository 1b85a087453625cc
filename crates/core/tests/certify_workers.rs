//! The batched certificate checks a 64-wide batch as one block of byte
//! lanes. A corrupted batch must still name the violation that the serial
//! loop over eight-slot blocks named before it (the lowest failing
//! block's), recorded below.

use xbfs_core::{CertViolation, MsBfsRun, MAX_CONCURRENT, UNVISITED};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{certify_levels, Csr};

/// A clean 64-wide batch on an R-MAT graph, answered by the serial BFS:
/// one block of 64 byte lanes.
fn wide_batch() -> (Csr, MsBfsRun) {
    let g = rmat_graph(RmatParams::graph500(10), 0x34);
    let sources = pick_sources(&g, MAX_CONCURRENT, 34);
    let run = MsBfsRun {
        levels: sources.iter().map(|&s| bfs_levels_serial(&g, s)).collect(),
        slot_edges: vec![0; sources.len()],
        sources,
        total_ms: 0.0,
        traversed_edges: 0,
        gteps: 0.0,
    };
    (g, run)
}

/// `run` with the first vertex each of `slots` reached past its source
/// moved two levels down.
fn planted(run: &MsBfsRun, slots: &[usize]) -> MsBfsRun {
    let mut run = run.clone();
    for &slot in slots {
        let levels = &mut run.levels[slot];
        let v = levels.iter().position(|&l| l != 0 && l != UNVISITED);
        levels[v.expect("the slot reaches past its source")] += 2;
    }
    run
}

/// What the serial block loop named for violations planted in slot 2
/// (block 0), slot 61 (block 7) and both: recorded on the commit before
/// the blocks went to workers.
fn recorded_violations() -> [(&'static [usize], CertViolation); 3] {
    let skip = |to_level| CertViolation::LevelSkip {
        from: 36,
        to: 0,
        from_level: 2,
        to_level,
    };
    [(&[2], skip(4)), (&[61], skip(5)), (&[2, 61], skip(4))]
}

#[test]
fn planted_violations_name_what_the_serial_loop_named() {
    let (g, run) = wide_batch();
    for (slots, want) in recorded_violations() {
        let run = planted(&run, slots);
        let got = certify_levels(g.offsets(), g.adjacency(), &run.sources, &run.levels);
        assert_eq!(got, Err(want), "planted in slots {slots:?}");
    }
}
