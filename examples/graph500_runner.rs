//! Graph500-style benchmark runner — the workload behind the paper's
//! motivation (Frontier's June-2024 Graph500 run is CPU-based at ~0.4
//! GTEPS per GCD; XBFS reaches ~43 on one GCD).
//!
//! Follows the Graph500 protocol: generate a Kronecker graph, pick 64
//! random search keys, run one BFS per key, *validate every BFS tree*, and
//! report the TEPS statistics.
//!
//! ```text
//! cargo run --release --example graph500_runner [scale] [num_keys]
//! ```

use gcd_sim::Device;
use xbfs_core::{certify_run, Xbfs, XbfsConfig};
use xbfs_graph::generators::{rmat_graph, RmatParams};
use xbfs_graph::stats::pick_sources;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(15);
    let num_keys: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    println!("== kernel 1: graph construction ==");
    let t0 = std::time::Instant::now();
    let graph = rmat_graph(RmatParams::graph500(scale), 0xC0FFEE);
    println!(
        "scale {scale}: |V| = {}, |E| = {} ({:.1} s host time)",
        graph.num_vertices(),
        graph.num_edges(),
        t0.elapsed().as_secs_f64()
    );

    println!("\n== kernel 2: {num_keys} BFS runs ==");
    let cfg = XbfsConfig {
        record_parents: true,
        ..XbfsConfig::default()
    };
    let device = Device::mi250x();
    let xbfs = Xbfs::new(&device, &graph, cfg).unwrap();
    let keys = pick_sources(&graph, num_keys, 0xBF5);
    let mut teps: Vec<f64> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        let run = xbfs.run(key).unwrap();
        assert!(run.parents.is_some(), "parents recorded");
        if let Err(e) = certify_run(graph.offsets(), graph.adjacency(), &run) {
            panic!("BFS tree from key {key} failed validation: {e}");
        }
        let t = run.traversed_edges as f64 / (run.total_ms * 1e-3);
        teps.push(t);
        println!(
            "  bfs {i:>2}: key {key:>9}, depth {:>2}, {:>11} edges, {:>8.3} ms, {:>6.2} GTEPS [validated]",
            run.depth(),
            run.traversed_edges,
            run.total_ms,
            t / 1e9
        );
    }

    teps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let harmonic = teps.len() as f64 / teps.iter().map(|t| 1.0 / t).sum::<f64>();
    println!("\n== results ==");
    println!("min    {:.2} GTEPS", teps[0] / 1e9);
    println!("median {:.2} GTEPS", teps[teps.len() / 2] / 1e9);
    println!("max    {:.2} GTEPS", teps[teps.len() - 1] / 1e9);
    println!(
        "harmonic mean {:.2} GTEPS  (the Graph500 headline number)",
        harmonic / 1e9
    );
    println!("\nfor reference: Frontier's CPU Graph500 run averages ~0.4 GTEPS per GCD;");
    println!("the paper's XBFS port reaches ~43 GTEPS on one GCD at scale 25.");
}
