//! `certify_levels` against the model it replaced.
//!
//! The batched certificate validates up to 64 slots at a time, one byte
//! lane each, on vertex-major rows, and falls back to `u32` lanes for a
//! block with a level the bytes cannot hold (see its module docs). The
//! mutations that move a level by a multiple of 256 or onto the byte
//! values 254 and 255, and the deep path beside an R-MAT graph, are
//! there for that narrowing. What it must accept and
//! reject is defined by the formulation it had before: every (edge, slot)
//! pair checked on its own, kept here as [`certify_ms_reference`]. The two
//! must agree on accept/reject for any input and on the certificates when
//! both accept. Which violation is *named* may differ when an input holds
//! several — the reference reports the first in edge order, the row
//! formulation the first in vertex order — so for the edge checks only
//! the class is compared.

use gcd_sim::splitmix64;
use xbfs_core::{levels_digest, CertViolation, Certificate, MsBfsRun, UNVISITED};
use xbfs_graph::builder::{BuildOptions, CsrBuilder};
use xbfs_graph::generators::{erdos_renyi, rmat_graph, RmatParams};
use xbfs_graph::reference::bfs_levels_serial;
use xbfs_graph::stats::pick_sources;
use xbfs_graph::{certify_levels, Csr};

/// The per-(edge, slot) certificate, as the batched certificate was
/// written until the row formulation: one pass over every edge with `2·W`
/// scalar loads each, predecessor marks in a bit mask per vertex (128
/// bits here, so a batch one wider than the engine's fits).
fn certify_ms_reference(
    offsets: &[u64],
    adjacency: &[u32],
    run: &MsBfsRun,
) -> Result<Vec<Certificate>, CertViolation> {
    let n = offsets.len().saturating_sub(1);
    let width = run.sources.len();
    assert!(width <= 128 && run.levels.len() == width);
    for (slot, levels) in run.levels.iter().enumerate() {
        if levels.len() != n {
            return Err(CertViolation::LengthMismatch {
                expected: n,
                actual: levels.len(),
            });
        }
        let src = run.sources[slot] as usize;
        if src >= n || levels[src] != 0 {
            return Err(CertViolation::SourceNotLevelZero {
                source: run.sources[slot],
                level: levels.get(src).copied().unwrap_or(UNVISITED),
            });
        }
    }

    let mut has_pred = vec![0u128; n];
    for (slot, &s) in run.sources.iter().enumerate() {
        has_pred[s as usize] |= 1u128 << slot;
    }
    for u in 0..n {
        let beg = offsets[u] as usize;
        let end = offsets[u + 1] as usize;
        for &v in &adjacency[beg..end] {
            for slot in 0..width {
                let lu = run.levels[slot][u];
                if lu == UNVISITED {
                    continue;
                }
                let lv = run.levels[slot][v as usize];
                if lv == UNVISITED {
                    return Err(CertViolation::UnreachedNeighbor {
                        vertex: u as u32,
                        neighbor: v,
                    });
                }
                if lv > lu + 1 {
                    return Err(CertViolation::LevelSkip {
                        from: u as u32,
                        to: v,
                        from_level: lu,
                        to_level: lv,
                    });
                }
                if lv == lu + 1 {
                    has_pred[v as usize] |= 1u128 << slot;
                }
            }
        }
    }

    let mut certs = Vec::with_capacity(width);
    for (slot, levels) in run.levels.iter().enumerate() {
        let src = run.sources[slot] as usize;
        let mut visited = 0u64;
        let mut depth = 0u32;
        for (v, &l) in levels.iter().enumerate() {
            if l == UNVISITED {
                continue;
            }
            visited += 1;
            depth = depth.max(l);
            if v != src && (l == 0 || has_pred[v] & (1u128 << slot) == 0) {
                return Err(CertViolation::NoPredecessor {
                    vertex: v as u32,
                    level: l,
                });
            }
        }
        certs.push(Certificate {
            visited,
            depth,
            levels_checksum: levels_digest(run.sources[slot], levels),
        });
    }
    Ok(certs)
}

fn is_edge_kind(v: &CertViolation) -> bool {
    matches!(
        v,
        CertViolation::UnreachedNeighbor { .. }
            | CertViolation::LevelSkip { .. }
            | CertViolation::NoPredecessor { .. }
    )
}

/// Run both certificates over `run` and hold them to the contract in the
/// module docs. Returns whether they accepted.
fn agree(g: &Csr, run: &MsBfsRun, case: &str) -> bool {
    let new = certify_levels(g.offsets(), g.adjacency(), &run.sources, &run.levels);
    let reference = certify_ms_reference(g.offsets(), g.adjacency(), run);
    match (&new, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{case}: certificates differ"),
        (Err(a), Err(b)) if is_edge_kind(b) => {
            assert!(is_edge_kind(a), "{case}: {a:?}, reference {b:?}");
            // Every named violation can be reported (level 0 included).
            assert!(!a.to_string().is_empty());
        }
        // The checks ahead of the edges are the same code in the same
        // order: same violation, field for field.
        (Err(a), Err(b)) => assert_eq!(a, b, "{case}"),
        _ => panic!("{case}: new {new:?}, reference {reference:?}"),
    }
    new.is_ok()
}

/// A batch answered by the serial BFS, as `MsBfs` would return it (the
/// certificate reads `sources` and `levels` only).
fn clean_run(g: &Csr, sources: &[u32]) -> MsBfsRun {
    MsBfsRun {
        sources: sources.to_vec(),
        levels: sources.iter().map(|&s| bfs_levels_serial(g, s)).collect(),
        slot_edges: vec![0; sources.len()],
        total_ms: 0.0,
        traversed_edges: 0,
        gteps: 0.0,
    }
}

fn csr(n: usize, edges: impl IntoIterator<Item = (u32, u32)>, opts: BuildOptions) -> Csr {
    let mut b = CsrBuilder::new(n);
    b.extend_edges(edges);
    b.build(opts)
}

/// Random graph `kind`: R-MAT and Erdős–Rényi (symmetric, simple), or a
/// raw directed edge list that keeps its self-loops, duplicate edges and
/// asymmetry.
fn graph(kind: usize, rng: &mut u64) -> Csr {
    match kind {
        0 => rmat_graph(RmatParams::graph500(6), splitmix64(rng)),
        1 => erdos_renyi(90, 200, splitmix64(rng)),
        _ => {
            let n = 70u64;
            let edges: Vec<(u32, u32)> = (0..260)
                .map(|i| {
                    let u = (splitmix64(rng) % n) as u32;
                    match i % 13 {
                        0 => (u, u),
                        _ => (u, (splitmix64(rng) % n) as u32),
                    }
                })
                .collect();
            // Every fifth edge twice.
            let twice = edges.iter().step_by(5).copied().collect::<Vec<_>>();
            csr(
                n as usize,
                edges.into_iter().chain(twice),
                BuildOptions::raw(),
            )
        }
    }
}

const MUTATIONS: [&str; 15] = [
    "clean",
    "to UNVISITED",
    "to 0",
    "+1",
    "-1",
    "+2",
    "-2",
    "high bit",
    "+256",
    "-256",
    "to 255",
    "to 254",
    "bits 8-15",
    "source off level 0",
    "slot swapped",
];

/// Apply one of `MUTATIONS` to one seeded entry (or slot) of `run`.
fn mutate(run: &mut MsBfsRun, mutation: &str, rng: &mut u64) {
    let width = run.sources.len();
    let slot = splitmix64(rng) as usize % width;
    // Prefer an entry the slot reached: that is where a flip matters.
    let n = run.levels[slot].len();
    let start = splitmix64(rng) as usize % n;
    let v = (0..n)
        .map(|i| (start + i) % n)
        .find(|&v| run.levels[slot][v] != UNVISITED && run.levels[slot][v] != 0)
        .unwrap_or(start);
    let l = &mut run.levels[slot][v];
    match mutation {
        "clean" => {}
        "to UNVISITED" => *l = UNVISITED,
        "to 0" => *l = 0,
        "+1" => *l = l.wrapping_add(1),
        "-1" => *l = l.wrapping_sub(1),
        "+2" => *l = l.wrapping_add(2),
        "-2" => *l = l.wrapping_sub(2),
        "high bit" => *l ^= 1 << (16 + splitmix64(rng) % 16),
        "+256" => *l = l.wrapping_add(256),
        "-256" => *l = l.wrapping_sub(256),
        "to 255" => *l = 255,
        "to 254" => *l = 254,
        "bits 8-15" => *l ^= 1 << (8 + splitmix64(rng) % 8),
        "source off level 0" => {
            let src = run.sources[slot] as usize;
            run.levels[slot][src] = 1 + (splitmix64(rng) % 3) as u32;
        }
        "slot swapped" => run.levels.swap(slot, (slot + 1) % width),
        other => unreachable!("{other}"),
    }
}

#[test]
fn row_certificate_agrees_with_the_per_edge_reference() {
    let mut rng = 0x19u64;
    let (mut accepted, mut rejected) = (0, 0);
    for kind in 0..3 {
        for width in [1, 7, 8, 9, 63, 64, 65] {
            for mutation in MUTATIONS {
                for rep in 0..3 {
                    let g = graph(kind, &mut rng);
                    // Sources from a pool narrower than the batch repeat.
                    let pool = (g.num_vertices() as u64).min(1 + width as u64 / 2 + rep);
                    let sources: Vec<u32> = (0..width)
                        .map(|_| (splitmix64(&mut rng) % pool) as u32)
                        .collect();
                    let mut run = clean_run(&g, &sources);
                    mutate(&mut run, mutation, &mut rng);
                    let case = format!("graph kind {kind}, width {width}, {mutation}, rep {rep}");
                    let ok = agree(&g, &run, &case);
                    assert!(ok || mutation != "clean", "{case}: the serial BFS rejected");
                    if ok {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
    }
    // Both outcomes are exercised: every clean case accepts, and most
    // mutations land on a reached entry and must reject.
    assert!(
        accepted >= 3 * 7 * 3 && rejected >= 300,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// Sets `levels[slot][v]` to `level`, checks the pair still agrees and
/// rejects, and puts the entry back.
fn rejects(g: &Csr, run: &mut MsBfsRun, slot: usize, v: usize, level: u32, case: &str) {
    let was = std::mem::replace(&mut run.levels[slot][v], level);
    assert!(!agree(g, run, case), "{case}: accepted");
    run.levels[slot][v] = was;
}

#[test]
fn a_path_deeper_than_any_narrowed_level_certifies() {
    // 70 000 vertices in a line: levels run past 65 535, so a certificate
    // that kept them in 16 bits would see a level-65 536 vertex at 0.
    let n = 70_000u32;
    let g = csr(
        n as usize,
        (0..n - 1).map(|v| (v, v + 1)),
        BuildOptions::default(),
    );
    let mut run = clean_run(&g, &[0, n - 1]);
    let certs = certify_levels(g.offsets(), g.adjacency(), &run.sources, &run.levels).unwrap();
    assert!(agree(&g, &run, "path"));
    assert_eq!(
        (certs[0].depth, certs[0].visited),
        (n - 1, u64::from(n)),
        "the far end of the path"
    );
    assert_eq!(certs[0].depth, certs[1].depth);
    // Moves that are invisible modulo 2^16, and one that is not.
    rejects(
        &g,
        &mut run,
        0,
        66_000,
        66_000 - 65_536,
        "path, level − 2^16",
    );
    rejects(&g, &mut run, 0, 300, 300 + 65_536, "path, level + 2^16");
    rejects(&g, &mut run, 1, 66_000, 4_000, "path, far slot");
}

#[test]
fn a_wide_batch_with_one_deep_row_certifies_like_single_rows() {
    // An R-MAT graph beside a 300-vertex path it does not touch. The row
    // sourced 44 vertices in from one end of the path reaches level 255,
    // the byte lanes' `UNVISITED`, so the whole 64-row block is checked
    // on `u32` lanes, as each row alone is.
    let rmat = rmat_graph(RmatParams::graph500(8), 0x48);
    let m = rmat.num_vertices() as u32;
    let edges = (0..m).flat_map(|u| rmat.neighbors(u).iter().map(move |&v| (u, v)));
    let path = (m..m + 299).map(|v| (v, v + 1));
    let g = csr(m as usize + 300, edges.chain(path), BuildOptions::default());
    let mut sources = pick_sources(&rmat, 63, 48);
    sources.push(m + 44);
    let mut run = clean_run(&g, &sources);
    let (off, adj) = (g.offsets(), g.adjacency());
    let certs = certify_levels(off, adj, &run.sources, &run.levels).unwrap();
    let single: Vec<Certificate> = sources
        .iter()
        .zip(&run.levels)
        .map(|(&s, levels)| certify_levels(off, adj, &[s], &[levels]).unwrap()[0])
        .collect();
    assert_eq!(certs, single);
    assert_eq!((certs[63].depth, certs[63].visited), (255, 300));
    assert!(agree(&g, &run, "deep row"));
    // The far end of the path, two levels late.
    rejects(&g, &mut run, 63, m as usize + 299, 257, "deep row, +2");
}

#[test]
fn star_isolated_source_and_two_components_certify() {
    // A star: hub 0, leaves 1..=40; from the hub and from a leaf.
    let star = csr(41, (1..=40).map(|v| (0, v)), BuildOptions::default());
    let mut run = clean_run(&star, &[0, 17]);
    let certs =
        certify_levels(star.offsets(), star.adjacency(), &run.sources, &run.levels).unwrap();
    assert!(agree(&star, &run, "star"));
    assert_eq!((certs[0].depth, certs[1].depth), (1, 2));
    assert_eq!((certs[0].visited, certs[1].visited), (41, 41));
    rejects(&star, &mut run, 1, 0, 2, "star, hub a level late");
    rejects(&star, &mut run, 0, 9, UNVISITED, "star, leaf unreached");

    // Two triangles and a vertex nothing touches.
    let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
    let g = csr(7, edges, BuildOptions::default());
    let mut run = clean_run(&g, &[6, 0, 4, 6]);
    let certs = certify_levels(g.offsets(), g.adjacency(), &run.sources, &run.levels).unwrap();
    assert!(agree(&g, &run, "components"));
    assert_eq!(
        certs.iter().map(|c| c.visited).collect::<Vec<_>>(),
        [1, 3, 3, 1]
    );
    assert_eq!(certs[0].depth, 0, "an isolated source reaches itself");
    // A level in a component the source cannot reach has no predecessor,
    // whatever it claims; a second level-0 vertex is not a source.
    rejects(&g, &mut run, 1, 4, 1, "components, stray level");
    rejects(&g, &mut run, 0, 2, 0, "components, second level 0");
    rejects(&g, &mut run, 2, 6, 3, "components, isolated vertex reached");
    rejects(
        &g,
        &mut run,
        1,
        6,
        0,
        "components, isolated vertex a second root",
    );
}
