//! Connected components of undirected graphs via repeated BFS sweeps, and
//! a double-sweep diameter estimate.

use crate::engine;
use xbfs_graph::{Csr, UNVISITED};

/// Per-vertex component labels (0-based, dense) computed with one XBFS per
/// component.
pub fn connected_components(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let engine = engine(g);
    let mut label = vec![UNVISITED; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if label[v as usize] != UNVISITED {
            continue;
        }
        if g.degree(v) == 0 {
            label[v as usize] = next;
            next += 1;
            continue;
        }
        let run = engine.run(v).expect("v is a vertex of g");
        for (u, &l) in run.levels.iter().enumerate() {
            if l != UNVISITED {
                debug_assert_eq!(label[u], UNVISITED);
                label[u] = next;
            }
        }
        next += 1;
    }
    label
}

/// `(label, size)` of the largest component, from the labels
/// [`connected_components`] returned.
pub fn largest_component(labels: &[u32]) -> (u32, usize) {
    let max_label = labels.iter().copied().max().unwrap_or(0);
    let mut sizes = vec![0usize; max_label as usize + 1];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(l, &s)| (l as u32, s))
        .unwrap_or((0, 0))
}

/// Double-sweep lower bound on the diameter: BFS from `seed`, then BFS
/// from the farthest vertex found; the answer is that vertex's
/// eccentricity. Exact on trees, a strong lower bound in general — and a
/// realistic BFS-heavy workload.
pub fn estimate_diameter(g: &Csr, seed: u32) -> u32 {
    let engine = engine(g);
    let sweep = |source| engine.run(source).expect("a vertex of g").levels;
    let far = sweep(seed)
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != UNVISITED)
        .max_by_key(|(_, &l)| l)
        .map(|(v, _)| v as u32)
        .unwrap_or(seed);
    let eccentricity = sweep(far).into_iter().filter(|&l| l != UNVISITED).max();
    eccentricity.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::generators::{barabasi_albert, erdos_renyi, layered_citation_graph};

    #[test]
    fn two_triangles_and_an_isolate() {
        let g = Csr::from_parts(
            vec![0, 2, 4, 6, 8, 10, 12, 12],
            vec![1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4],
        )
        .unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
        assert_ne!(labels[6], labels[3]);
        let (_, size) = largest_component(&labels);
        assert_eq!(size, 3);
    }

    #[test]
    fn connected_graph_is_one_component() {
        let g = barabasi_albert(400, 3, 1);
        let labels = connected_components(&g);
        assert!(labels.iter().all(|&l| l == 0));
        assert_eq!(largest_component(&labels), (0, 400));
    }

    #[test]
    fn labels_agree_with_reference_union() {
        // Compare against a simple union-find on the same edges.
        let g = erdos_renyi(300, 350, 5);
        let labels = connected_components(&g);
        let mut parent: Vec<usize> = (0..300).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (u, nbrs) in g.iter_rows() {
            for &v in nbrs {
                let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
                parent[a] = b;
            }
        }
        for u in 0..300 {
            for v in 0..300 {
                let same_uf = find(&mut parent, u) == find(&mut parent, v);
                let same_bfs = labels[u] == labels[v];
                assert_eq!(same_uf, same_bfs, "vertices {u},{v}");
            }
        }
    }

    #[test]
    fn double_sweep_finds_path_diameter() {
        let g = Csr::from_parts(vec![0, 1, 3, 5, 7, 8], vec![1, 0, 2, 1, 3, 2, 4, 3]).unwrap();
        // Starting anywhere, two sweeps find the true diameter of a path.
        for seed in 0..5 {
            assert_eq!(estimate_diameter(&g, seed), 4, "seed {seed}");
        }
    }

    #[test]
    fn deep_graph_has_large_diameter_estimate() {
        let g = layered_citation_graph(3000, 60, 3, 4, 1);
        let est = estimate_diameter(&g, 0);
        assert!(est >= 20, "layered graph estimate {est} too small");
    }
}
