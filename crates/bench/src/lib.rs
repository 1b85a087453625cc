//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index).
//!
//! One entry point: the `repro` binary — `cargo run --release -p
//! xbfs-bench --bin repro [--smoke] [experiment…]` — prints paper-shaped
//! tables. Host wall-clock cost of the same code paths is `xbfs-perf`'s
//! job (`benchmark/`).

pub mod common;
pub mod extras;
pub mod figures;
pub mod tables;

pub use common::Scale;

/// Every experiment by name, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig8",
    "baselines",
    "efficiency",
    "compilers",
    "ablations",
    "alpha",
    "scaling",
];

/// Run one experiment by name and return its report.
pub fn run_experiment(name: &str, scale: &Scale) -> Option<String> {
    use xbfs_core::Strategy;
    let out = match name {
        "table1" => tables::table1(scale),
        "table2" => tables::table2(scale),
        "table3" => tables::profiler_table(scale, Strategy::ScanFree),
        "table4" => tables::profiler_table(scale, Strategy::SingleScan),
        "table5" => tables::profiler_table(scale, Strategy::BottomUp),
        "table6" => tables::table6(scale),
        "fig5" => figures::fig5(scale),
        "fig6" => figures::fig6(scale),
        "fig7" => figures::fig7(scale),
        "fig8" => figures::fig8(scale),
        "baselines" => figures::baselines_sweep(scale),
        "efficiency" => extras::efficiency(scale),
        "compilers" => extras::compilers(scale),
        "ablations" => extras::ablations(scale),
        "alpha" => extras::alpha(scale),
        "scaling" => extras::scaling(scale),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", &Scale::smoke()).is_none());
    }

    #[test]
    fn experiment_list_is_dispatchable() {
        // Don't run them here (slow); just check table2 as the cheapest.
        assert!(EXPERIMENTS.contains(&"table2"));
        assert!(run_experiment("table2", &Scale::smoke()).is_some());
    }
}
