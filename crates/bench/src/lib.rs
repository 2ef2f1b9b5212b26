//! Shared experiment drivers for the figure/table regeneration binaries.
//!
//! Each `fig*`/`tab*` binary in `src/bin/` reproduces one table or figure
//! of the paper; this library holds the common machinery: paired
//! baseline/specialized runs, report formatting, and the standard load
//! parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use phpaccel_core::{compare, Comparison, ExecMode, MachineConfig, PhpMachine};
use uarch_sim::EnergyModel;
use workloads::{AppKind, LoadGen};

/// Standard load used by the end-to-end experiments.
pub fn standard_load() -> LoadGen {
    LoadGen {
        warmup: 40,
        measured: 120,
        context_switch_every: 50,
    }
}

/// Quick load for smoke tests.
pub fn quick_load() -> LoadGen {
    LoadGen {
        warmup: 5,
        measured: 15,
        context_switch_every: 0,
    }
}

/// Runs `kind` on a machine in `mode` with the given load; returns the
/// machine post-run (metrics cover the measured phase).
pub fn run_app(
    kind: AppKind,
    mode: ExecMode,
    cfg: MachineConfig,
    lg: LoadGen,
    seed: u64,
) -> PhpMachine {
    let mut app = kind.build(seed);
    let mut machine = PhpMachine::new(mode, cfg);
    let summary = lg.run(app.as_mut(), &mut machine);
    if summary.failed_requests > 0 {
        println!(
            "!! {} ({mode:?}): {} of {} requests failed — first error: {}",
            kind.label(),
            summary.failed_requests,
            summary.requests,
            summary.first_error.as_deref().unwrap_or("<none>")
        );
    }
    machine
}

/// Runs the baseline/specialized pair for `kind` and builds the Figure-14
/// comparison.
pub fn comparison_for(kind: AppKind, lg: LoadGen, seed: u64) -> Comparison {
    let cfg = MachineConfig::default();
    let base = run_app(kind, ExecMode::Baseline, cfg.clone(), lg, seed);
    let spec = run_app(kind, ExecMode::Specialized, cfg, lg, seed);
    compare(kind.label(), &base, &spec, &EnergyModel::default())
}

/// Comparisons for the three PHP applications.
pub fn all_comparisons(lg: LoadGen, seed: u64) -> Vec<Comparison> {
    AppKind::PHP_APPS
        .iter()
        .map(|&k| comparison_for(k, lg, seed))
        .collect()
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("==================================================================");
    println!("{id}");
    println!("paper: {claim}");
    println!("==================================================================");
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_run_produces_comparison() {
        let cmp = comparison_for(AppKind::WordPress, quick_load(), 7);
        assert!(cmp.baseline_cycles > 0.0);
        assert!(cmp.normalized_specialized() < 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1793), "17.93%");
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
