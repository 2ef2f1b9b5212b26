//! One run of one workload, as the driver asks for it: timed (end-to-end
//! metrics, tracing off) or traced (per-layer metrics).
//!
//! A timed run is a series of trials, each in a child process of its own,
//! so that `VmHWM` is one trial's peak and no trial inherits another's
//! heap. Trials repeat until their timed blocks add up to the run's budget.
//! Each timed block is read in 50 ms windows, and the run reports the best
//! tenth of all its windows, as the clocks read.

use crate::layers;
use crate::procfs;
use crate::spec::{Better, Spec};
use crate::stats::{median, percentile, quartiles};
use crate::workloads::{run_trial, Window, Workload};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// A run must end well inside the driver's 180 s, whatever the budget.
const RUN_DEADLINE: Duration = Duration::from_secs(120);

/// One metric of a finished run.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles and sample count across trials, for a person to read.
    pub detail: String,
}

#[derive(Debug)]
pub struct RunResult {
    pub title: String,
    pub values: Vec<Value>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Prints every metric by name with its unit, then the one JSON object
    /// the driver reads, as the last line.
    pub fn print(&self) {
        println!("# {}", self.title);
        for v in &self.values {
            println!("metric {} {} {} {}", v.name, v.value, v.unit, v.detail);
        }
        for note in &self.notes {
            println!("note {note}");
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    v.name, v.value, v.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

// ---------------------------------------------------------------------------
// Trials in child processes
// ---------------------------------------------------------------------------

/// What a trial child reports on its one `trial` line.
#[derive(Debug, Clone, Default, PartialEq)]
struct TrialRecord {
    setup_s: f64,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    sim_uops: u64,
    rss_mb: Option<f64>,
    calib_s: f64,
    windows: Vec<Window>,
    errors: Vec<String>,
}

/// The body of `phpbench --trial`: one trial, one line, nothing else kept.
pub fn trial_child(workload: Workload, seed: u64, scale: f64) -> Result<bool, String> {
    let t = run_trial(workload, seed, scale);
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
    println!(
        "trial setup_s={} wall_s={} attempted={} failed={} sim_uops={} rss_mb={} calib_s={}",
        t.setup_s,
        t.wall_s,
        t.attempted,
        t.failed,
        t.sim_uops,
        opt(procfs::peak_rss_mb()),
        t.calib_s,
    );
    for w in &t.windows {
        println!(
            "window wall_s={} cpu_s={} requests={} p50_ns={}",
            w.wall_s,
            opt(w.cpu_s),
            w.requests,
            w.p50_ns
        );
    }
    for e in &t.errors {
        println!("error {e}");
    }
    Ok(t.failed == 0)
}

/// The `key=value` words of one line a trial child printed.
struct Fields<'a>(&'a str);

impl Fields<'_> {
    fn field(&self, key: &str) -> Result<&str, String> {
        self.0
            .split(' ')
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("trial child's line lacks {key}"))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.field(key)?
            .parse()
            .map_err(|_| format!("trial child's line: bad {key}"))
    }

    /// A reading the child could not take is printed as `-`.
    fn opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.field(key)? {
            "-" => Ok(None),
            _ => self.get(key).map(Some),
        }
    }
}

fn parse_trial(stdout: &str) -> Result<TrialRecord, String> {
    let trial = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trial "))
        .map(Fields)
        .ok_or("trial child printed no trial line")?;
    let windows = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("window "))
        .map(|line| {
            let w = Fields(line);
            Ok(Window {
                wall_s: w.get("wall_s")?,
                cpu_s: w.opt("cpu_s")?,
                requests: w.get("requests")?,
                p50_ns: w.get("p50_ns")?,
            })
        })
        .collect::<Result<Vec<Window>, String>>()?;
    Ok(TrialRecord {
        setup_s: trial.get("setup_s")?,
        wall_s: trial.get("wall_s")?,
        attempted: trial.get("attempted")?,
        failed: trial.get("failed")?,
        sim_uops: trial.get("sim_uops")?,
        rss_mb: trial.opt("rss_mb")?,
        calib_s: trial.get("calib_s")?,
        windows,
        errors: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("error "))
            .map(str::to_string)
            .collect(),
    })
}

fn spawn_trial(workload: Workload, seed: u64, scale: f64) -> Result<TrialRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--trial", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .output()
        .map_err(|e| format!("cannot start a trial process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_trial(&stdout).map_err(|why| {
        format!(
            "{why} (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })
}

// ---------------------------------------------------------------------------
// The timed run
// ---------------------------------------------------------------------------

/// What a run reports for a metric read once per trial (`setup_s`,
/// `peak_rss_mb`, `sim_uops_per_req`): the value a quarter of the way in
/// from the better end of its trials.
pub const OF_TRIALS: f64 = 0.25;
/// What a run reports for a metric read once per window (`req_per_s`,
/// `latency_p50_us`, `cpu_us_per_req`): the value a tenth of the way in
/// from the better end of all its windows. A median would follow the host:
/// what disturbs a window on this shared machine only ever takes time away,
/// for milliseconds or for half a minute, so a run's windows are a group
/// the host left alone plus a tail whose size is the host's business. Over
/// ten 20 s runs on one CPU the median window spread 2-6 % on the HTTP
/// workloads where the best tenth spread under 2 %; on both CPUs, 13-23 %
/// against 8-13 % (README, "How steady it is"). The very best window is no
/// better a choice: it is one sample, and on `http_keepalive` it spread
/// 10-30 %.
pub const OF_WINDOWS: f64 = 0.10;

/// The value `share` of the way in from the better end of `values`, by
/// nearest rank: one of the values, never an interpolation.
pub fn better_end(values: &[f64], better: Better, share: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    // Nearest rank only indexes: it serves a descending slice as well.
    percentile(&v, share * 100.0)
}

fn spread_of(values: &[f64]) -> String {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) => format!("q1 {q1} median {m} q3 {q3} n={}", values.len()),
        _ => format!("n={}", values.len()),
    }
}

/// The samples a run has of an end-to-end metric, one per trial or one per
/// window, and how far in from their better end the run reports.
fn samples(trials: &[TrialRecord], metric: &str) -> (Vec<f64>, f64) {
    let per_trial = |f: &dyn Fn(&TrialRecord) -> Option<f64>| {
        (trials.iter().filter_map(f).collect(), OF_TRIALS)
    };
    let per_window = |f: &dyn Fn(&Window) -> Option<f64>| {
        let windows = trials.iter().flat_map(|t| &t.windows);
        (windows.filter_map(f).collect(), OF_WINDOWS)
    };
    match metric {
        "setup_s" => per_trial(&|t| Some(t.setup_s)),
        "peak_rss_mb" => per_trial(&|t| t.rss_mb),
        "sim_uops_per_req" => per_trial(&|t| Some(t.sim_uops as f64 / t.attempted.max(1) as f64)),
        "req_per_s" => per_window(&|w| Some(w.requests as f64 / w.wall_s)),
        "latency_p50_us" => per_window(&|w| Some(w.p50_ns as f64 / 1e3)),
        "cpu_us_per_req" => per_window(&|w| Some(w.cpu_s? * 1e6 / w.requests as f64)),
        _ => (Vec::new(), OF_TRIALS),
    }
}

/// A trial that served nothing (the server did not start) has no timed
/// block: repeating it would never spend the run's budget, and its rate is
/// not a number.
fn served_nothing(t: &TrialRecord) -> bool {
    t.failed >= t.attempted || t.wall_s <= 0.0
}

/// Probe slices of one run further apart than this share of the fastest
/// say that the host changed speed while the run was measuring (on a quiet
/// host they stay within 3.4-4.3 ms).
const HOST_MOVED: f64 = 0.25;

pub fn timed_run(
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut trials: Vec<TrialRecord> = Vec::new();
    let mut timed = 0.0;
    loop {
        let t = spawn_trial(workload, seed, scale)?;
        timed += t.wall_s;
        let stop = served_nothing(&t);
        trials.push(t);
        if stop || timed >= seconds || started.elapsed() > RUN_DEADLINE {
            break;
        }
    }

    let mut notes = Vec::new();
    let mut values = Vec::new();
    for metric in &spec.end_to_end {
        let (mut column, share) = samples(&trials, &metric.name);
        column.retain(|v| v.is_finite());
        match better_end(&column, metric.better, share) {
            Some(value) => values.push(Value {
                name: metric.name.clone(),
                unit: metric.unit,
                value,
                detail: format!("({})", spread_of(&column)),
            }),
            None => notes.push(format!("{} is absent: it could not be read", metric.name)),
        }
    }
    let calib: Vec<f64> = trials.iter().map(|t| t.calib_s * 1e3).collect();
    notes.push(format!("host probe slice_ms {}", spread_of(&calib)));
    let (fastest, slowest) = calib.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &c| {
        (lo.min(c), hi.max(c))
    });
    if slowest > fastest * (1.0 + HOST_MOVED) {
        notes.push(format!(
            "the host changed speed during this run (probe slices {fastest:.2}-{slowest:.2} ms): \
             its host-clock values are less sure than usual"
        ));
    }
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    let failed: u64 = trials.iter().map(|t| t.failed).sum();
    notes.push(format!(
        "fail_share {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    // In process the simulated clock is exact: trials of one seed must agree.
    let uops: Vec<u64> = trials.iter().map(|t| t.sim_uops).collect();
    let uops_repeat = workload.is_http() || uops.iter().all(|&u| u == uops[0]);
    if !uops_repeat {
        notes.push(format!(
            "sim_uops differ between trials of one seed: {uops:?}"
        ));
    }
    for e in trials.iter().flat_map(|t| &t.errors).take(8) {
        notes.push(format!("error: {e}"));
    }
    Ok(RunResult {
        title: format!(
            "{} seed={seed} trials={} timed={timed:.2}s total={:.2}s",
            workload.name(),
            trials.len(),
            started.elapsed().as_secs_f64()
        ),
        correct: failed == 0 && uops_repeat && values.len() == spec.end_to_end.len(),
        values,
        attempted,
        failed,
        notes,
    })
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub fn traced_run(spec: &Spec, workload: Workload, seed: u64, scale: f64, out: &Path) -> RunResult {
    let started = Instant::now();
    let report = layers::run_traced(workload, seed, scale, out);
    // A layer the workload never enters reads 0 on it.
    let values = spec
        .per_layer
        .iter()
        .map(|m| Value {
            name: m.name.clone(),
            unit: m.unit,
            value: report.metrics.get(&m.name).copied().unwrap_or(0.0),
            detail: String::new(),
        })
        .collect();
    let mut notes: Vec<String> = report
        .errors
        .iter()
        .map(|e| format!("error: {e}"))
        .collect();
    // A metric the spec does not declare would be measured and then lost.
    let undeclared: Vec<&String> = report
        .metrics
        .keys()
        .filter(|name| !spec.per_layer.iter().any(|m| &m.name == *name))
        .collect();
    for name in &undeclared {
        notes.push(format!("error: {name} is measured but not declared"));
    }
    RunResult {
        title: format!(
            "{} seed={seed} traced total={:.2}s",
            workload.name(),
            started.elapsed().as_secs_f64()
        ),
        values,
        correct: report.failed == 0 && undeclared.is_empty(),
        attempted: report.attempted,
        failed: report.failed,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_lines_round_trip() {
        let text = "noise\ntrial setup_s=0.12 wall_s=1.5 attempted=100 failed=2 sim_uops=5 \
                    rss_mb=6.5 calib_s=0.005\n\
                    window wall_s=0.05 cpu_s=0.04 requests=40 p50_ns=1000\n\
                    window wall_s=0.1 cpu_s=- requests=50 p50_ns=3000\n\
                    error script 3: status 500\n";
        let t = parse_trial(text).unwrap();
        assert_eq!(t.setup_s, 0.12);
        assert_eq!(t.rss_mb, Some(6.5));
        assert_eq!((t.attempted, t.failed, t.sim_uops), (100, 2, 5));
        assert_eq!(t.calib_s, 0.005);
        assert_eq!(t.errors, vec!["script 3: status 500"]);
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[1].cpu_s, None);
        let of = |metric| samples(std::slice::from_ref(&t), metric).0;
        assert_eq!(of("req_per_s"), vec![800.0, 500.0]);
        assert_eq!(of("latency_p50_us"), vec![1.0, 3.0]);
        // The window whose CPU time could not be read has no sample.
        assert_eq!(of("cpu_us_per_req"), vec![1000.0]);
        assert_eq!(of("sim_uops_per_req"), vec![0.05]);
        assert_eq!(of("setup_s"), vec![0.12]);
        assert_eq!(of("nope"), Vec::<f64>::new());
    }

    #[test]
    fn a_trial_that_served_nothing_ends_the_run() {
        let dead = TrialRecord {
            attempted: 100,
            failed: 100,
            ..TrialRecord::default()
        };
        assert!(served_nothing(&dead));
        let live = TrialRecord {
            attempted: 100,
            wall_s: 1.0,
            ..TrialRecord::default()
        };
        assert!(!served_nothing(&live));
    }

    #[test]
    fn malformed_trial_output_is_an_error() {
        assert!(parse_trial("").is_err());
        assert!(parse_trial("trial setup_s=1\n").is_err());
        assert!(parse_trial("trial setup_s=x wall_s=1 attempted=1 failed=0").is_err());
        let good = "trial setup_s=1 wall_s=1 attempted=1 failed=0 sim_uops=1 rss_mb=- calib_s=0\n";
        assert!(parse_trial(good).is_ok());
        assert!(parse_trial(&format!("{good}window wall_s=1 requests=1\n")).is_err());
    }

    #[test]
    fn a_run_reports_a_value_near_the_better_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(better_end(&v, Better::Lower, OF_WINDOWS), Some(2.0));
        assert_eq!(better_end(&v, Better::Higher, OF_WINDOWS), Some(19.0));
        assert_eq!(better_end(&v, Better::Lower, OF_TRIALS), Some(5.0));
        assert_eq!(better_end(&v, Better::Higher, OF_TRIALS), Some(16.0));
        // Few samples: the best one, never something between two.
        assert_eq!(better_end(&[3.0, 1.0], Better::Lower, OF_TRIALS), Some(1.0));
        assert_eq!(
            better_end(&[3.0, 1.0], Better::Higher, OF_TRIALS),
            Some(3.0)
        );
        assert_eq!(better_end(&[4.0], Better::Lower, OF_WINDOWS), Some(4.0));
        assert_eq!(better_end(&[], Better::Lower, OF_WINDOWS), None);
    }
}
