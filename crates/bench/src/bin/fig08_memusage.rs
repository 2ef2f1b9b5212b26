//! Figure 8: memory usage patterns.
//!
//! (a) cumulative distribution of allocation sizes — "a majority of the
//! allocation and deallocation requests retrieve at most 128 bytes";
//! (b)/(c) per-slab live memory stays flat over time for the four smallest
//! 32-byte bands — strong memory reuse.
//!
//! The live-memory timeline is a measurement instrument: this binary is the
//! only place that turns it on, sampling every 64 allocation events.

use bench::{header, row, run_app, run_app_on, standard_load};
use phpaccel_core::{ExecMode, MachineConfig, PhpMachine};
use workloads::AppKind;

fn main() {
    header(
        "Figure 8 — allocation-size CDF and per-slab live-memory timeline",
        "≤128B dominates; live bytes flat over time for the small slabs",
    );
    println!("(a) CDF of request sizes:");
    let marks = [32usize, 64, 96, 128, 256, 512, 1024, 4096];
    let mut widths = vec![12];
    widths.extend(std::iter::repeat_n(8, marks.len()));
    let mut head = vec!["app".to_string()];
    head.extend(marks.iter().map(|m| format!("≤{m}")));
    println!("{}", row(&head, &widths));
    for kind in AppKind::PHP_APPS {
        let m = run_app(
            kind,
            ExecMode::Baseline,
            MachineConfig::default(),
            standard_load(),
            0xF08,
        );
        let stats = m.ctx().with_allocator(|a| a.stats().clone());
        let mut cells = vec![kind.label().to_string()];
        for &b in &marks {
            cells.push(format!("{:.0}%", stats.cdf_at(b) * 100.0));
        }
        println!("{}", row(&cells, &widths));
    }
    println!("\n(b)/(c) live bytes per 32-byte band over time (WordPress, MediaWiki):");
    for kind in [AppKind::WordPress, AppKind::MediaWiki] {
        // The timeline is off on every other machine: turn it on here.
        let m = PhpMachine::new(ExecMode::Baseline, MachineConfig::default());
        m.ctx().with_allocator(|a| a.set_timeline_interval(64));
        let m = run_app_on(kind, m, standard_load(), 0xF08);
        let samples = m.ctx().with_allocator(|a| a.timeline().to_vec());
        println!(
            "{} ({} samples; showing every ~10th):",
            kind.label(),
            samples.len()
        );
        println!(
            "{:>10} {:>9} {:>9} {:>9} {:>9}",
            "tick", "0-32B", "32-64B", "64-96B", "96-128B"
        );
        let step = (samples.len() / 10).max(1);
        for s in samples.iter().step_by(step) {
            let band = |a: usize, b: usize| s.live_small[a] + s.live_small[b];
            println!(
                "{:>10} {:>9} {:>9} {:>9} {:>9}",
                s.tick,
                band(0, 1),
                band(2, 3),
                band(4, 5),
                band(6, 7)
            );
        }
    }
}
