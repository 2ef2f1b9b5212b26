//! Shared experiment code for the figure/table regeneration binaries and
//! the `*_bench` binaries.
//!
//! Each `fig*`/`tab*` binary in `src/bin/` reproduces one table or figure
//! of the paper; this library holds the common machinery: paired
//! baseline/specialized runs, report formatting, and the standard load
//! parameters.
//!
//! The five `*_bench` binaries (`serve`, `alloc`, `memo`, `vm`, `overload`)
//! share the rest of this file: the `[--smoke] [--out PATH]` command line
//! ([`Bench`]), the serving machine ([`serving_machine`], [`serve_corpus`]),
//! the pool sweep with the gates every leg answers to ([`Sweep`]), the JSON
//! document ([`Json`]) and the write/print/exit path ([`Bench::finish`]).
//! Each binary keeps its own legs, row fields and gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use php_interp::MemoTier;
use phpaccel_core::{compare, Comparison, Engine, ExecMode, MachineConfig, PhpMachine};
use serve::{PoolConfig, PoolReport, Scripts, WorkerPool};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use uarch_sim::EnergyModel;
use workloads::corpus::{Corpus, CorpusConfig};
use workloads::php_corpus::CorpusCache;
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

/// Nominal clock for µops → seconds conversion (1 µop per cycle).
pub const CLOCK_GHZ: f64 = 2.0;

/// Worker counts a [`Sweep`] runs every leg at.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Simulated µops as µs at [`CLOCK_GHZ`].
pub fn uops_to_us(uops: u64) -> f64 {
    uops as f64 / (CLOCK_GHZ * 1_000.0)
}

/// Zipfian request → script schedule over `scripts` scripts, fixed up front
/// so the mapping depends only on the global request index (identical at
/// every worker count).
pub fn zipf_schedule(requests: u64, scripts: usize) -> Vec<usize> {
    let mut corpus = Corpus::new(CorpusConfig::default());
    (0..requests).map(|_| corpus.zipf_pick(scripts)).collect()
}

/// A worker machine as the HTTP edge serves: specialized, on the compiled
/// VM. The primary side of [`Scripts`] always attaches the facts; arena
/// mode is the pool's ([`PoolConfig::with_arena`]).
pub fn serving_machine() -> PhpMachine {
    let mut m = PhpMachine::specialized();
    m.set_engine(Engine::Vm);
    m
}

/// Serves `cfg.requests` corpus requests through a pool of
/// [`serving_machine`]s: request `r` runs script `schedule(r)` of `cache`,
/// and `cfg`'s memo cache, if any, is the primaries' tier.
pub fn serve_corpus(
    cfg: PoolConfig,
    cache: &CorpusCache,
    schedule: impl Fn(u64) -> usize + Sync,
) -> PoolReport {
    let tier = cfg.memo.clone().map(|c| c as Arc<dyn MemoTier>);
    let schedule = &schedule;
    WorkerPool::new(cfg).run(
        |_| serving_machine(),
        |_| Scripts {
            pick: move |req| Arc::clone(&cache.scripts()[schedule(req)]),
            memo: tier.clone(),
        },
    )
}

/// One `*_bench` run: its name and its `[--smoke] [--out PATH]` command
/// line.
#[derive(Debug, PartialEq)]
pub struct Bench {
    /// The bench's name: `serve` for `serve_bench`, which writes
    /// `BENCH_serve.json` unless told otherwise.
    pub name: &'static str,
    /// The short run `scripts/check.sh` makes.
    pub smoke: bool,
    /// Where the JSON document goes.
    pub out: String,
}

impl Bench {
    /// Reads `args` (program name excluded). Arguments other than
    /// `--smoke` and `--out PATH` are ignored.
    pub fn from_args(name: &'static str, args: impl IntoIterator<Item = String>) -> Bench {
        let args: Vec<String> = args.into_iter().collect();
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned();
        Bench {
            name,
            smoke: args.iter().any(|a| a == "--smoke"),
            out: out.unwrap_or_else(|| format!("BENCH_{name}.json")),
        }
    }

    /// [`Bench::from_args`] over the process's own arguments.
    pub fn from_env(name: &'static str) -> Bench {
        Bench::from_args(name, std::env::args().skip(1))
    }

    /// `full` in a full run, `smoke` under `--smoke`.
    pub fn full_or_smoke<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The document every bench writes: `bench`, `mode` and `model`, then
    /// `fields`.
    pub fn document(&self, model: &str, fields: Vec<(&'static str, Json)>) -> Json {
        let mut all = vec![
            ("bench", self.name.into()),
            ("mode", self.full_or_smoke("full", "smoke").into()),
            ("model", model.into()),
        ];
        all.extend(fields);
        Json::Obj(all)
    }

    /// Writes `doc` to [`Bench::out`], then prints `PASS (summary)` or every
    /// failure. The exit status is failure if the write or any gate failed.
    pub fn finish(&self, doc: &Json, failures: &[String], summary: &str) -> ExitCode {
        let name = self.name;
        if let Err(e) = std::fs::write(&self.out, doc.render()) {
            eprintln!("{name}_bench: cannot write {}: {e}", self.out);
            return ExitCode::FAILURE;
        }
        println!("{name}_bench: wrote {}", self.out);
        if failures.is_empty() {
            println!("{name}_bench: PASS ({summary})");
            return ExitCode::SUCCESS;
        }
        for f in failures {
            eprintln!("{name}_bench: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// One leg's pool run at one worker count.
#[derive(Debug)]
pub struct LegRun {
    /// What the pool reported.
    pub report: PoolReport,
    /// Host wall clock of the run, in ms.
    pub wall_ms: f64,
}

/// Every leg at one worker count.
#[derive(Debug)]
pub struct Point {
    /// Worker count.
    pub workers: usize,
    /// One run per leg, in leg order.
    pub legs: Vec<LegRun>,
}

impl Point {
    /// Simulated elapsed µops of leg `leg` (the busiest worker's).
    pub fn elapsed(&self, leg: usize) -> u64 {
        self.legs[leg].report.simulated_elapsed_uops()
    }

    /// Replay mismatches over every leg.
    pub fn replay_mismatches(&self) -> u64 {
        self.legs.iter().map(|l| l.report.stats.mismatches).sum()
    }

    /// Host wall clock over every leg, in ms.
    pub fn wall_ms(&self) -> f64 {
        self.legs.iter().map(|l| l.wall_ms).sum()
    }
}

/// A bench's legs run at every worker count in [`WORKER_COUNTS`], with the
/// gates every leg answers to already applied:
///
/// * every leg serves the same bytes as leg 0, request for request;
/// * every leg serves the same stream as its own 1-worker run;
/// * replay against the all-software reference finds no mismatch;
/// * every request is `ok` and no machine leaks live blocks.
#[derive(Debug)]
pub struct Sweep {
    /// One point per worker count, in [`WORKER_COUNTS`] order.
    pub points: Vec<Point>,
    /// Byte-identity, determinism and replay mismatches together.
    pub mismatches: u64,
    /// One line per failed gate; the binary appends its own.
    pub failures: Vec<String>,
}

impl Sweep {
    /// Runs leg `l` (named `legs[l]`) at every worker count as
    /// `run(workers, l)`, timing each run, and applies the common gates to
    /// `requests`-request runs.
    pub fn run(
        requests: u64,
        legs: &[&str],
        mut run: impl FnMut(usize, usize) -> PoolReport,
    ) -> Sweep {
        let points = WORKER_COUNTS
            .iter()
            .map(|&workers| Point {
                workers,
                legs: (0..legs.len())
                    .map(|leg| {
                        let start = Instant::now();
                        let report = run(workers, leg);
                        let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
                        LegRun { report, wall_ms }
                    })
                    .collect(),
            })
            .collect();
        Sweep::check(requests, legs, points)
    }

    /// The common gates over `points`, the first of which holds the 1-worker
    /// runs.
    fn check(requests: u64, legs: &[&str], points: Vec<Point>) -> Sweep {
        let (mut identity, mut replay, mut failures) = (0, 0, Vec::new());
        for p in &points {
            for (leg, run) in p.legs.iter().enumerate() {
                let report = &run.report;
                identity += stream_mismatches(&p.legs[0].report, report);
                identity += stream_mismatches(&points[0].legs[leg].report, report);
                replay += report.stats.mismatches;
                if report.stats.ok != requests {
                    failures.push(format!(
                        "{} workers: {}/{requests} requests ok on {}",
                        p.workers, report.stats.ok, legs[leg]
                    ));
                }
                if report.live_blocks != 0 {
                    failures.push(format!(
                        "{} workers: {} leaked {} live blocks",
                        p.workers, legs[leg], report.live_blocks
                    ));
                }
            }
        }
        let mismatches = identity + replay;
        if mismatches != 0 {
            failures.push(format!(
                "{mismatches} mismatches ({identity} byte-identity/determinism, {replay} replay)"
            ));
        }
        Sweep {
            points,
            mismatches,
            failures,
        }
    }
}

/// Records of `b` whose request index or bytes differ from `a`'s at the
/// same position, plus any difference in record count.
fn stream_mismatches(a: &PoolReport, b: &PoolReport) -> u64 {
    let differing = a
        .records
        .iter()
        .zip(&b.records)
        .filter(|(x, y)| x.request != y.request || x.response != y.response)
        .count();
    (differing + a.records.len().abs_diff(b.records.len())) as u64
}

/// A JSON value as the bench documents need it.
///
/// [`Json::render`] puts an object or array whose members are all scalars
/// on one line, and anything else one member per line, indented two spaces
/// per level: a document is one field per line and one run per line.
#[derive(Debug)]
pub enum Json {
    /// An unsigned integer.
    Int(u64),
    /// A float with this many decimals (`null` if not finite).
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// The document's text, with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(x, decimals) if x.is_finite() => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                write_members(out, indent, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => write_members(
                out,
                indent,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(*k), v)),
            ),
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let inline = members.clone().all(|(_, v)| v.is_scalar());
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        match (i, inline) {
            (0, true) => {}
            (_, true) => out.push_str(", "),
            (0, false) => out.push('\n'),
            (_, false) => out.push_str(",\n"),
        }
        if !inline {
            out.push_str(&" ".repeat(indent + 2));
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 2);
    }
    if !inline {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::{RequestOutcome, RequestRecord, ServeStats, Totals};

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

    #[test]
    fn json_puts_flat_members_on_one_line_and_nests_the_rest() {
        let doc = Json::Obj(vec![
            ("bench", "t\"q".into()),
            ("ratio", Json::Fixed(2.0 / 3.0, 3)),
            ("counts", Json::Arr(vec![1u64.into(), 4usize.into()])),
            (
                "runs",
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("workers", 1u64.into()),
                        ("p50_us", Json::Fixed(0.5, 2)),
                    ]),
                    Json::Obj(vec![
                        ("workers", 2u64.into()),
                        ("p50_us", Json::Fixed(f64::NAN, 2)),
                    ]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"t\\\"q\",\n  \"ratio\": 0.667,\n  \"counts\": [1, 4],\n  \
             \"runs\": [\n    {\"workers\": 1, \"p50_us\": 0.50},\n    \
             {\"workers\": 2, \"p50_us\": null}\n  ],\n  \"empty\": []\n}\n"
        );
    }

    /// A clean 3-request report: request `i` answered `b"r{i}"`.
    fn report() -> PoolReport {
        let records = (0..3)
            .map(|i| RequestRecord {
                request: i,
                outcome: RequestOutcome::Ok,
                response: format!("r{i}").into_bytes(),
                degraded: [false; 4],
                fault_delta: [0; 4],
            })
            .collect();
        PoolReport {
            totals: Totals {
                stats: ServeStats {
                    requests: 3,
                    ok: 3,
                    ..ServeStats::default()
                },
                ..Totals::default()
            },
            records,
            service_uops: vec![1; 3],
            memo: None,
            failed_workers: Vec::new(),
        }
    }

    /// Sweeps two legs whose reports come from `doctor(workers, leg)`.
    fn sweep_with(doctor: impl Fn(usize, usize, &mut PoolReport)) -> Sweep {
        Sweep::run(3, &["a", "b"], |workers, leg| {
            let mut r = report();
            doctor(workers, leg, &mut r);
            r
        })
    }

    #[test]
    fn a_clean_sweep_passes() {
        let s = sweep_with(|_, _, _| {});
        assert_eq!((s.mismatches, s.failures.len()), (0, 0));
        assert_eq!(s.points.len(), WORKER_COUNTS.len());
    }

    #[test]
    fn a_differing_response_is_a_mismatch_and_a_failure() {
        // Leg 1 at 4 workers differs from leg 0 at 4 workers and from its
        // own 1-worker run.
        let s = sweep_with(|w, leg, r| {
            if (w, leg) == (4, 1) {
                r.records[1].response = b"other".to_vec();
            }
        });
        assert_eq!(s.mismatches, 2);
        assert_eq!(
            s.failures,
            ["2 mismatches (2 byte-identity/determinism, 0 replay)"]
        );
    }

    #[test]
    fn a_shifted_request_index_is_a_mismatch_and_a_failure() {
        // Leg 0 at 2 workers differs from its own 1-worker run, and leg 1
        // at 2 workers from it.
        let s = sweep_with(|w, leg, r| {
            if (w, leg) == (2, 0) {
                for rec in &mut r.records {
                    rec.request += 1;
                }
            }
        });
        assert_eq!(s.mismatches, 3 + 3);
        assert_eq!(
            s.failures,
            ["6 mismatches (6 byte-identity/determinism, 0 replay)"]
        );
    }

    #[test]
    fn replay_mismatches_short_runs_and_leaks_fail() {
        let s = sweep_with(|w, leg, r| {
            if w == 8 && leg == 1 {
                r.totals.stats.mismatches = 1;
                r.totals.stats.ok = 2;
                r.totals.live_blocks = 5;
            }
        });
        assert_eq!(s.mismatches, 1);
        assert_eq!(
            s.failures,
            [
                "8 workers: 2/3 requests ok on b",
                "8 workers: b leaked 5 live blocks",
                "1 mismatches (0 byte-identity/determinism, 1 replay)",
            ]
        );
    }

    #[test]
    fn arguments_name_the_mode_and_the_output() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            Bench::from_args("serve", args(&["--smoke", "--out", "x"])),
            Bench {
                name: "serve",
                smoke: true,
                out: "x".into()
            }
        );
        assert_eq!(
            Bench::from_args("serve", args(&[])),
            Bench {
                name: "serve",
                smoke: false,
                out: "BENCH_serve.json".into()
            }
        );
    }
}
