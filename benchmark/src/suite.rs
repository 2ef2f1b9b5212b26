//! The whole benchmark in one command, for a person: every workload's timed
//! trials, interleaved, then one traced run each. `--smoke` shrinks it to a
//! few seconds; `--aa` runs it twice on the same build and checks that the
//! two sets agree within the benchmark's own bounds.

use crate::spec::Spec;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// Timed runs per workload in one set, each of one trial. The k-th run of
/// every workload comes before any (k+1)-th, so a slow phase of the shared
/// machine lands on one run of each, not on every run of one. A set reports
/// the median of its runs, as the driver compares medians of runs.
const TRIALS: usize = 5;
/// A run with no budget makes exactly one trial.
const ONE_TRIAL: f64 = 0.0;
/// `--smoke`: one trial at this share of a trial's size.
const SMOKE_SCALE: f64 = 0.05;

/// What one child run printed.
struct ChildRun {
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
    ok: bool,
}

fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    out: &Path,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        metrics: Vec::new(),
        notes: Vec::new(),
        ok: output.status.success(),
    };
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut words = rest.split(' ');
            if let (Some(name), Some(Ok(value)), Some(unit)) = (
                words.next(),
                words.next().map(str::parse::<f64>),
                words.next(),
            ) {
                run.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
        } else if let Some(note) = line.strip_prefix("note ") {
            run.notes.push(note.to_string());
        }
    }
    if !run.ok {
        eprintln!("{}: run failed", workload.name());
        for note in &run.notes {
            eprintln!("  {note}");
        }
    }
    if run.metrics.is_empty() {
        return Err(format!(
            "{} run printed no metrics: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(run)
}

/// One full set: per workload, each end-to-end metric's value in every
/// timed trial, and the traced run's per-layer metrics.
struct Set {
    timed: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>,
    traced: BTreeMap<&'static str, Vec<(String, f64, String)>>,
    ok: bool,
}

fn run_set(seed: u64, smoke: bool, out: &Path) -> Result<Set, String> {
    let (trials, scale) = if smoke {
        (1, SMOKE_SCALE)
    } else {
        (TRIALS, 1.0)
    };
    let mut set = Set {
        timed: BTreeMap::new(),
        traced: BTreeMap::new(),
        ok: true,
    };
    for k in 0..trials {
        for workload in Workload::ALL {
            eprintln!("timed run {}/{trials} of {}", k + 1, workload.name());
            let run = child_run(workload, seed, ONE_TRIAL, scale, false, out)?;
            set.ok &= run.ok;
            let columns = set.timed.entry(workload.name()).or_default();
            for (name, value, _) in run.metrics {
                columns.entry(name).or_default().push(value);
            }
        }
    }
    for workload in Workload::ALL {
        eprintln!("traced run of {}", workload.name());
        let run = child_run(workload, seed, ONE_TRIAL, scale, true, out)?;
        set.ok &= run.ok;
        set.traced.insert(workload.name(), run.metrics);
    }
    Ok(set)
}

fn print_set(spec: &Spec, set: &Set) {
    for workload in Workload::ALL {
        let name = workload.name();
        println!("\n== {name}: end to end (median of runs; quartiles; runs)");
        for m in &spec.end_to_end {
            let Some(values) = set.timed.get(name).and_then(|c| c.get(&m.name)) else {
                println!("{:<28} absent", m.name);
                continue;
            };
            let mid = median(values).unwrap_or(f64::NAN);
            let spread = quartiles(values)
                .map_or(String::new(), |(q1, q3)| format!("q1 {q1:.4} q3 {q3:.4} "));
            println!(
                "{:<28} {mid:>14.4} {:<5} {spread}n={}",
                m.name,
                m.unit,
                values.len()
            );
        }
        println!("== {name}: per layer (one traced run)");
        for (metric, value, unit) in set.traced.get(name).into_iter().flatten() {
            println!("{metric:<40} {value:>14.4} {unit}");
        }
    }
}

/// One row of the A/A table.
struct AaRow {
    workload: &'static str,
    metric: String,
    a: f64,
    b: f64,
    rel_diff: f64,
    bound: f64,
    ok: bool,
}

fn compare(spec: &Spec, a: &Set, b: &Set) -> Vec<AaRow> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        for m in &spec.end_to_end {
            let reported = |set: &Set| {
                set.timed
                    .get(name)
                    .and_then(|c| c.get(&m.name))
                    .and_then(|v| median(v))
            };
            let (Some(ma), Some(mb)) = (reported(a), reported(b)) else {
                continue;
            };
            let rel_diff = (mb - ma) / ma;
            // In process the simulated clock must repeat to the bit.
            let exact = m.name == "sim_uops_per_req" && !workload.is_http();
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            rows.push(AaRow {
                workload: name,
                metric: m.name.clone(),
                a: ma,
                b: mb,
                rel_diff,
                bound,
                ok: rel_diff.abs() <= bound,
            });
        }
    }
    rows
}

fn write_aa(rows: &[AaRow], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "[")?;
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            f,
            "  {{\"workload\": \"{}\", \"metric\": \"{}\", \"a\": {}, \"b\": {}, \"rel_diff\": {}, \"bound\": {}, \"verdict\": \"{}\"}}{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.rel_diff,
            r.bound,
            if r.ok { "within" } else { "breach" },
            if i + 1 < rows.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]")?;
    f.flush()
}

pub fn run(spec: &Spec, seed: u64, smoke: bool, aa: bool, out: &Path) -> Result<bool, String> {
    let a = run_set(seed, smoke, out)?;
    print_set(spec, &a);
    let mut ok = a.ok;
    if aa {
        let b = run_set(seed, smoke, out)?;
        ok &= b.ok;
        let rows = compare(spec, &a, &b);
        println!("\n== A/A: two sets of trials of the same build");
        println!(
            "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
            "workload", "metric", "A", "B", "diff", "bound"
        );
        for r in &rows {
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.rel_diff * 100.0,
                r.bound * 100.0,
                if r.ok { "within" } else { "BREACH" }
            );
        }
        ok &= rows.iter().all(|r| r.ok);
        let path = out.join("aa.json");
        write_aa(&rows, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("A/A table written to {}", path.display());
    }
    println!(
        "\n{}",
        if ok {
            "benchmark: ok"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}
