//! BFS consumers from the paper's introduction, end to end: connected
//! components and diameter estimation, both running on XBFS over the
//! simulated GCD.
//!
//! ```text
//! cargo run --release --example graph_analytics [shift]
//! ```

use xbfs_apps::{connected_components, estimate_diameter, largest_component};
use xbfs_graph::stats::pick_sources;
use xbfs_graph::Dataset;

fn main() {
    let shift: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    // --- undirected analytics on the DBLP analog ---
    let g = Dataset::Dblp.generate(shift, 7);
    println!(
        "DBLP analog: |V| = {}, |E| = {}",
        g.num_vertices(),
        g.num_edges()
    );
    let labels = connected_components(&g);
    let n_components = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let (_, giant) = largest_component(&labels);
    println!(
        "  {n_components} connected components; giant component holds {giant} vertices ({:.1}%)",
        100.0 * giant as f64 / g.num_vertices() as f64
    );
    let src = pick_sources(&g, 1, 3)[0];
    println!(
        "  estimated diameter (double sweep from {src}): {}",
        estimate_diameter(&g, src)
    );
}
