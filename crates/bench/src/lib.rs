//! Benchmark support library.
//!
//! The interesting entry points are:
//!
//! - the `experiments` binary (`cargo run -p bench --bin experiments`),
//!   which regenerates every table and figure of the paper and writes
//!   JSON results next to the printed tables;
//! - the hand-rolled benches (`cargo bench -p bench`): `microbench` for
//!   the substrate primitives, `figures` for per-figure regeneration
//!   timing, and `ablations` for the design-choice sweeps DESIGN.md calls
//!   out. They use [`harness`], a dependency-free wall-clock timer, so the
//!   workspace builds fully offline.

pub mod harness;

/// Known experiment names accepted by the `experiments` binary.
pub const EXPERIMENTS: [&str; 14] = [
    "fig06",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "ablations",
    "summary",
    "churn",
    "upgrade",
    "report",
];

/// Returns `true` if `name` names a known experiment.
pub fn is_known(name: &str) -> bool {
    EXPERIMENTS.contains(&name) || name == "table2" || name == "all"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_resolve() {
        for name in EXPERIMENTS {
            assert!(is_known(name));
        }
        assert!(is_known("all"));
        assert!(is_known("table2"));
        assert!(!is_known("fig99"));
    }
}
