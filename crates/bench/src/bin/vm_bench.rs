//! `vm_bench` — tree-walking evaluation versus the compiled opcode VM.
//!
//! Drives the corpus through [`serve::WorkerPool`] at 1/2/4/8 workers under
//! a zipfian request mix, three times per worker count: once on the
//! tree-walking evaluator (which reads no analysis facts, so this leg is
//! the fact-free walk the server replays on), once on the VM with
//! superinstruction fusion
//! disabled (plain opcode dispatch), and once on the full VM (fused
//! echo/concat/index superinstructions). All three run the same shared
//! `Arc`-held compile cache — the VM engines share one `CompiledUnit` per
//! script across every worker.
//!
//! The run fails (exit 1) on any of [`bench::Sweep`]'s gates (the three
//! engines byte-identical request for request, each pool-deterministic,
//! replay against each worker's all-software reference — which stays on the
//! tree-walk engine, so the replay gate doubles as a cross-engine
//! differential — clean, every request ok, no live blocks), or unless at
//! every worker count the fused VM spends fewer elapsed µops than the
//! unfused one and that fewer than the tree walker, with VM and fused ops
//! executed, and the fused VM cuts elapsed µops by at least
//! `MIN_REDUCTION_PCT` (44 %) at 1 worker.
//!
//! Beside the simulated clock it reports the host's: each engine serves the
//! same schedule on one bare machine (no pool, no reference replay), timed
//! per pass, so the µop cut has a wall-clock counterpart in the same file.
//!
//! Results land in `BENCH_vm.json`.
//!
//! Usage: `vm_bench [--smoke] [--out PATH]`

use bench::{zipf_schedule, Bench, Json, Sweep};
use phpaccel_core::{Engine, PhpMachine};
use serve::{Handler, PoolConfig, Scripts, WorkerPool};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::php_corpus::{CorpusCache, PreparedScript};

/// Requests per run (full mode / --smoke).
const FULL_REQUESTS: u64 = 400;
const SMOKE_REQUESTS: u64 = 80;
/// Acceptance floor: fused-VM elapsed-µop reduction vs the tree walker at
/// 1 worker. Set three points under what the smoke run read with literal
/// and variable leaves folded into the ops that consume them, while the
/// tree walker still read the facts (47.03; the full run read 49.13).
/// Against the fact-free walk the smoke run reads 52.45 and the full run
/// 54.71. Before the folding the smoke run read 45.34, and with variables
/// back in a symbol-table array the cut is 31.
const MIN_REDUCTION_PCT: f64 = 44.0;
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
    /// calls the engine entry point directly to isolate fusion. The tree
    /// walk ignores the facts.
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

fn main() -> ExitCode {
    let bench = Bench::from_env("vm");
    let requests = bench.full_or_smoke(FULL_REQUESTS, SMOKE_REQUESTS);

    println!("vm_bench: building the shared compile cache...");
    let cache = CorpusCache::build();
    let schedule = zipf_schedule(requests, cache.len());
    println!(
        "vm_bench: {} corpus scripts, {} zipfian requests per run",
        cache.len(),
        requests
    );

    let pick = |req: u64| Arc::clone(&cache.scripts()[schedule[req as usize]]);
    let mut sweep = Sweep::run(requests, &MODES.map(Mode::label), |workers, leg| {
        let mode = MODES[leg];
        WorkerPool::new(PoolConfig::deterministic(workers, requests)).run(
            |_| mode.machine(),
            |_| ModeScripts {
                mode,
                scripts: Scripts { pick, memo: None },
            },
        )
    });

    let mut runs = Vec::new();
    let mut headline = (0.0, 0.0);
    for p in &sweep.points {
        let workers = p.workers;
        let (tree_uops, vm_uops, fused_uops) = (p.elapsed(0), p.elapsed(1), p.elapsed(2));
        let reduction = 100.0 * (tree_uops as f64 - fused_uops as f64) / tree_uops as f64;
        let fusion_delta = 100.0 * (vm_uops as f64 - fused_uops as f64) / vm_uops as f64;
        let fused = &p.legs[2].report;
        let s = &fused.savings;
        println!(
            "  {workers} worker(s): elapsed {tree_uops} -> {vm_uops} -> {fused_uops} uops \
             (tree -> vm -> vm+fusion), reduction {reduction:.1}%, fusion delta \
             {fusion_delta:.1}%, fused-ops {}, transients-elided {}",
            s.vm_fused_ops, s.vm_transients_elided,
        );
        let failures = &mut sweep.failures;
        if !(fused_uops < vm_uops && vm_uops < tree_uops) {
            failures.push(format!(
                "{workers} workers: elapsed uops not fused < vm < tree \
                 ({fused_uops}, {vm_uops}, {tree_uops})"
            ));
        }
        if s.vm_ops_executed == 0 || s.vm_fused_ops == 0 {
            failures.push(format!(
                "{workers} workers: {} vm ops, {} fused ops executed",
                s.vm_ops_executed, s.vm_fused_ops
            ));
        }
        if workers == 1 {
            headline = (reduction, fusion_delta);
            if reduction < MIN_REDUCTION_PCT {
                failures.push(format!(
                    "1 worker: fused vm reduction {reduction:.1}% below the \
                     {MIN_REDUCTION_PCT}% floor"
                ));
            }
        }
        runs.push(Json::Obj(vec![
            ("workers", workers.into()),
            ("requests", requests.into()),
            ("ok", fused.stats.ok.into()),
            ("elapsed_uops_tree", tree_uops.into()),
            ("elapsed_uops_vm", vm_uops.into()),
            ("elapsed_uops_vm_fused", fused_uops.into()),
            ("reduction_pct", Json::Fixed(reduction, 2)),
            ("fusion_delta_pct", Json::Fixed(fusion_delta, 2)),
            ("vm_ops_executed", s.vm_ops_executed.into()),
            ("vm_fused_ops", s.vm_fused_ops.into()),
            ("vm_transients_elided", s.vm_transients_elided.into()),
            ("replay_mismatches", p.replay_mismatches().into()),
            ("wall_clock_ms", Json::Fixed(p.wall_ms(), 1)),
        ]));
    }

    let passes = bench.full_or_smoke(FULL_WALL_PASSES, SMOKE_WALL_PASSES);
    let engines = per_request_costs(&cache, &schedule, passes);
    let mut engines_json = Vec::new();
    for (mode, &(uops, wall_ns)) in MODES.iter().zip(&engines) {
        println!(
            "  {:>9}: {uops:.1} uops/request, {wall_ns:.0} ns/request on the host \
             (1 thread, median of {passes} passes)",
            mode.label()
        );
        if uops <= 0.0 || wall_ns <= 0.0 {
            sweep.failures.push(format!(
                "{}: {uops} uops, {wall_ns} ns per request on one machine",
                mode.label()
            ));
        }
        engines_json.push(Json::Obj(vec![
            ("engine", mode.label().into()),
            ("uops_per_req", Json::Fixed(uops, 1)),
            ("wall_ns_per_req", Json::Fixed(wall_ns, 0)),
        ]));
    }
    let (tree, fused) = (engines[0], engines[2]);
    let uop_cut = 100.0 * (tree.0 - fused.0) / tree.0;
    let wall_cut = 100.0 * (tree.1 - fused.1) / tree.1;
    println!(
        "  tree-walk -> vm+fusion on one machine: {uop_cut:.1}% fewer uops, \
         {wall_cut:.1}% less host time"
    );

    let (reduction, fusion_delta) = headline;
    let doc = bench.document(
        "fact-specialized opcode VM with superinstruction fusion vs tree-walking evaluation; \
         one Arc-shared CompiledUnit per script across all workers",
        vec![
            ("corpus_scripts", cache.len().into()),
            ("requests_per_run", requests.into()),
            ("request_mix", "zipfian".into()),
            ("mismatches", sweep.mismatches.into()),
            ("reduction_pct_at_1_worker", Json::Fixed(reduction, 2)),
            ("fusion_delta_pct_at_1_worker", Json::Fixed(fusion_delta, 2)),
            ("uop_cut_pct_one_machine", Json::Fixed(uop_cut, 2)),
            ("wall_cut_pct_one_machine", Json::Fixed(wall_cut, 2)),
            ("engines", Json::Arr(engines_json)),
            ("runs", Json::Arr(runs)),
        ],
    );
    bench.finish(
        &doc,
        &sweep.failures,
        &format!(
            "mismatches == 0, fused vm cuts elapsed uops by {reduction:.1}% at 1 worker, \
             fusion delta {fusion_delta:.1}%"
        ),
    )
}
