//! `vm_bench` — tree-walking evaluation versus the compiled opcode VM.
//!
//! Drives the corpus through [`serve::WorkerPool`] at 1/2/4/8 workers under
//! a zipfian request mix, three times per worker count: once on the
//! tree-walking evaluator, once on the VM with superinstruction fusion
//! disabled (plain opcode dispatch), and once on the full VM (fused
//! echo/concat/index superinstructions). All three run the same shared
//! `Arc`-held compile cache — the VM engines share one `CompiledUnit` per
//! script across every worker.
//!
//! The run fails (exit 1) unless:
//!
//! * every response is byte-identical across the three engines, request for
//!   request, at every worker count;
//! * every multi-worker stream reproduces the single-worker stream exactly
//!   (pool determinism), on every engine;
//! * the per-request replay against each worker's all-software reference
//!   (which stays on the tree-walk engine) reports zero mismatches — the
//!   replay gate doubles as a cross-engine differential;
//! * the fused VM cuts simulated elapsed µops by ≥ 25% versus the tree
//!   walker at 1 worker, with fusion contributing a measurable delta over
//!   the unfused VM;
//! * no machine leaks live blocks.
//!
//! Beside the simulated clock it reports the host's: each engine serves the
//! same schedule on one bare machine (no pool, no reference replay), timed
//! per pass, so the µop cut has a wall-clock counterpart in the same file.
//!
//! Results land in `BENCH_vm.json`.
//!
//! Usage: `vm_bench [--smoke] [--out PATH]`

use phpaccel_core::{Engine, PhpMachine};
use serve::{Handler, PoolConfig, PoolReport, Scripts, WorkerPool};
use std::sync::Arc;
use std::time::Instant;
use workloads::corpus::{Corpus, CorpusConfig};
use workloads::php_corpus::{CorpusCache, PreparedScript};

/// Worker counts the bench sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;
/// Acceptance floor: fused-VM elapsed-µop reduction vs the tree walker.
const MIN_REDUCTION_PCT: f64 = 25.0;
/// Timed passes over the schedule per engine on the host clock (full mode /
/// --smoke); the median pass is reported.
const FULL_WALL_PASSES: usize = 25;
const SMOKE_WALL_PASSES: usize = 5;

/// The three engine configurations under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Tree,
    VmUnfused,
    VmFused,
}

const MODES: [Mode; 3] = [Mode::Tree, Mode::VmUnfused, Mode::VmFused];

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Tree => "tree-walk",
            Mode::VmUnfused => "vm",
            Mode::VmFused => "vm+fusion",
        }
    }

    /// A specialized machine on this mode's engine.
    fn machine(self) -> PhpMachine {
        let mut m = PhpMachine::specialized();
        if self != Mode::Tree {
            m.set_engine(Engine::Vm);
        }
        m
    }

    /// Runs one script with facts on. `run` dispatches on the machine's
    /// engine and the fused unit is the production path; the unfused leg
    /// calls the engine entry point directly to isolate fusion.
    fn serve(self, script: &PreparedScript, m: &mut PhpMachine) -> Vec<u8> {
        match self {
            Mode::Tree | Mode::VmFused => script.run(m, true),
            Mode::VmUnfused => script.run_vm(m, true, false),
        }
    }
}

/// One worker's requests on `mode`: the machine under test runs the mode's
/// engine entry point, the reference replays as [`Scripts`] always does.
struct ModeScripts<P> {
    mode: Mode,
    scripts: Scripts<P>,
}

impl<P: FnMut(u64) -> Arc<PreparedScript>> Handler for ModeScripts<P> {
    fn primary(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self.mode.serve(&(self.scripts.pick)(req), m)
    }

    fn reference(&mut self, m: &mut PhpMachine, req: u64) -> Vec<u8> {
        self.scripts.reference(m, req)
    }
}

/// Zipfian request → script schedule, fixed up front so the mapping depends
/// only on the global request index (identical at every worker count).
fn zipf_schedule(requests: u64, scripts: usize) -> Arc<Vec<usize>> {
    let mut corpus = Corpus::new(CorpusConfig::default());
    Arc::new((0..requests).map(|_| corpus.zipf_pick(scripts)).collect())
}

struct RunResult {
    report: PoolReport,
    wall_ms: f64,
}

fn run(
    cache: &Arc<CorpusCache>,
    schedule: &Arc<Vec<usize>>,
    workers: usize,
    requests: u64,
    mode: Mode,
) -> RunResult {
    let pool = WorkerPool::new(PoolConfig::deterministic(workers, requests));
    let start = Instant::now();
    let report = pool.run(
        |_| mode.machine(),
        |_w| ModeScripts {
            mode,
            scripts: Scripts {
                pick: move |req| Arc::clone(&cache.scripts()[schedule[req as usize]]),
                memo: None,
            },
        },
    );
    RunResult {
        report,
        wall_ms: start.elapsed().as_secs_f64() * 1000.0,
    }
}

/// Each engine's cost per request on both clocks, `(µops, host ns)` in
/// [`MODES`] order: the schedule served on a bare specialized machine per
/// engine as one worker serves it (run, then recover), after one untimed
/// pass. Pass k of every engine runs before pass k+1 of any, so a slow
/// phase of the host lands on all three. µops are the last pass's; the host
/// time is the median pass's.
fn per_request_costs(cache: &CorpusCache, schedule: &[usize], passes: usize) -> Vec<(f64, f64)> {
    let pass = |m: &mut PhpMachine, mode: Mode| {
        let start = Instant::now();
        for &script in schedule {
            std::hint::black_box(mode.serve(&cache.scripts()[script], m));
            m.recover_request();
        }
        start.elapsed().as_nanos() as f64 / schedule.len() as f64
    };
    let mut machines: Vec<PhpMachine> = MODES
        .iter()
        .map(|&mode| {
            let mut m = mode.machine();
            pass(&mut m, mode);
            m
        })
        .collect();
    let mut wall_ns = vec![Vec::with_capacity(passes); MODES.len()];
    let mut uops = vec![0; MODES.len()];
    for _ in 0..passes {
        for (i, &mode) in MODES.iter().enumerate() {
            let m = &mut machines[i];
            let before = m.ctx().profiler().total_uops();
            wall_ns[i].push(pass(m, mode));
            uops[i] = m.ctx().profiler().total_uops() - before;
        }
    }
    wall_ns
        .into_iter()
        .zip(uops)
        .map(|(mut ns, uops)| {
            ns.sort_by(f64::total_cmp);
            (uops as f64 / schedule.len() as f64, ns[passes / 2])
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_vm.json")
        .to_string();
    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };

    println!("vm_bench: building the shared compile cache...");
    let cache = Arc::new(CorpusCache::build());
    let schedule = zipf_schedule(requests, cache.len());
    println!(
        "vm_bench: {} corpus scripts, {} zipfian requests per run",
        cache.len(),
        requests
    );

    let mut failures: Vec<String> = Vec::new();
    let mut runs_json = Vec::new();
    let mut identity_mismatches = 0u64;
    let mut replay_mismatches = 0u64;
    // 1-worker streams per mode, for the determinism cross-check.
    let mut references: Vec<Option<RunResult>> = vec![None, None, None];
    let mut headline: Option<(f64, f64)> = None;

    for &workers in &WORKER_COUNTS {
        let results: Vec<RunResult> = MODES
            .iter()
            .map(|&mode| run(&cache, &schedule, workers, requests, mode))
            .collect();

        // Cross-engine: byte-identical request for request.
        let tree = &results[0];
        for r in &results[1..] {
            for (a, b) in tree.report.records.iter().zip(&r.report.records) {
                if a.request != b.request || a.response != b.response {
                    identity_mismatches += 1;
                }
            }
        }
        // Pool determinism: every stream matches the 1-worker stream of
        // its own mode.
        for (reference, r) in references.iter().zip(&results) {
            if let Some(base) = reference {
                for (a, b) in base.report.records.iter().zip(&r.report.records) {
                    if a.request != b.request || a.response != b.response {
                        identity_mismatches += 1;
                    }
                }
            }
        }
        for (mode, r) in MODES.iter().zip(&results) {
            replay_mismatches += r.report.stats.mismatches;
            if r.report.stats.ok != requests {
                failures.push(format!(
                    "{workers} workers: {}/{requests} requests ok on {}",
                    r.report.stats.ok,
                    mode.label()
                ));
            }
            if r.report.live_blocks != 0 {
                failures.push(format!(
                    "{workers} workers: {} leaked {} live blocks",
                    mode.label(),
                    r.report.live_blocks
                ));
            }
        }

        let uops: Vec<u64> = results
            .iter()
            .map(|r| r.report.simulated_elapsed_uops())
            .collect();
        let (tree_uops, vm_uops, fused_uops) = (uops[0], uops[1], uops[2]);
        let reduction = 100.0 * (tree_uops as f64 - fused_uops as f64) / tree_uops as f64;
        let fusion_delta = 100.0 * (vm_uops as f64 - fused_uops as f64) / vm_uops as f64;
        let s = &results[2].report.savings;
        println!(
            "  {} worker(s): elapsed {} -> {} -> {} uops (tree -> vm -> vm+fusion), \
             reduction {reduction:.1}%, fusion delta {fusion_delta:.1}%, \
             fused-ops {}, transients-elided {}",
            workers, tree_uops, vm_uops, fused_uops, s.vm_fused_ops, s.vm_transients_elided,
        );
        if workers == 1 {
            headline = Some((reduction, fusion_delta));
            if reduction < MIN_REDUCTION_PCT {
                failures.push(format!(
                    "1 worker: fused vm reduction {reduction:.1}% below the \
                     {MIN_REDUCTION_PCT}% floor"
                ));
            }
            if fused_uops >= vm_uops {
                failures.push(format!(
                    "1 worker: fusion added no delta ({vm_uops} -> {fused_uops} uops)"
                ));
            }
        }

        runs_json.push(format!(
            "    {{\"workers\": {}, \"requests\": {}, \"ok\": {}, \
             \"elapsed_uops_tree\": {}, \"elapsed_uops_vm\": {}, \
             \"elapsed_uops_vm_fused\": {}, \"reduction_pct\": {:.2}, \
             \"fusion_delta_pct\": {:.2}, \"vm_ops_executed\": {}, \
             \"vm_fused_ops\": {}, \"vm_transients_elided\": {}, \
             \"replay_mismatches\": {}, \"wall_clock_ms\": {:.1}}}",
            workers,
            requests,
            results[2].report.stats.ok,
            tree_uops,
            vm_uops,
            fused_uops,
            reduction,
            fusion_delta,
            s.vm_ops_executed,
            s.vm_fused_ops,
            s.vm_transients_elided,
            results
                .iter()
                .map(|r| r.report.stats.mismatches)
                .sum::<u64>(),
            results.iter().map(|r| r.wall_ms).sum::<f64>(),
        ));
        if workers == 1 {
            for (slot, r) in references.iter_mut().zip(results) {
                *slot = Some(r);
            }
        }
    }

    let passes = if smoke {
        SMOKE_WALL_PASSES
    } else {
        FULL_WALL_PASSES
    };
    let engines: Vec<(Mode, f64, f64)> = MODES
        .into_iter()
        .zip(per_request_costs(&cache, &schedule, passes))
        .map(|(mode, (uops, wall_ns))| {
            println!(
                "  {:>9}: {uops:.1} uops/request, {wall_ns:.0} ns/request on the host \
                 (1 thread, median of {passes} passes)",
                mode.label()
            );
            (mode, uops, wall_ns)
        })
        .collect();
    let (tree, fused) = (&engines[0], &engines[2]);
    let uop_cut = 100.0 * (tree.1 - fused.1) / tree.1;
    let wall_cut = 100.0 * (tree.2 - fused.2) / tree.2;
    println!(
        "  tree-walk -> vm+fusion on one machine: {uop_cut:.1}% fewer uops, \
         {wall_cut:.1}% less host time"
    );
    let engines_json: Vec<String> = engines
        .iter()
        .map(|(mode, uops, wall_ns)| {
            format!(
                "    {{\"engine\": \"{}\", \"uops_per_req\": {uops:.1}, \
                 \"wall_ns_per_req\": {wall_ns:.0}}}",
                mode.label()
            )
        })
        .collect();

    let mismatches = identity_mismatches + replay_mismatches;
    if mismatches != 0 {
        failures.push(format!(
            "{mismatches} mismatches ({identity_mismatches} byte-identity/determinism, \
             {replay_mismatches} replay)"
        ));
    }

    let (reduction, fusion_delta) = headline.unwrap_or((0.0, 0.0));
    let json = format!(
        "{{\n  \"bench\": \"vm\",\n  \"mode\": \"{}\",\n  \"model\": \"fact-specialized \
         opcode VM with superinstruction fusion vs tree-walking evaluation; one \
         Arc-shared CompiledUnit per script across all workers\",\n  \
         \"corpus_scripts\": {},\n  \"requests_per_run\": {},\n  \
         \"request_mix\": \"zipfian\",\n  \"mismatches\": {},\n  \
         \"reduction_pct_at_1_worker\": {:.2},\n  \
         \"fusion_delta_pct_at_1_worker\": {:.2},\n  \
         \"uop_cut_pct_one_machine\": {uop_cut:.2},\n  \
         \"wall_cut_pct_one_machine\": {wall_cut:.2},\n  \"engines\": [\n{}\n  ],\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        cache.len(),
        requests,
        mismatches,
        reduction,
        fusion_delta,
        engines_json.join(",\n"),
        runs_json.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("vm_bench: wrote {out_path}");

    if failures.is_empty() {
        println!(
            "vm_bench: PASS (mismatches == 0, fused vm cuts elapsed uops by \
             {reduction:.1}% at 1 worker, fusion delta {fusion_delta:.1}%)"
        );
    } else {
        for f in &failures {
            eprintln!("vm_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
