//! Overload determinism: shaped arrivals, admission control, and shedding
//! must preserve the byte-identity replay guarantee — at any worker count,
//! on both engines, with fault injection live.
//!
//! The overload simulator executes admitted requests single-threaded in
//! arrival order, so worker count shifts *timing* (queue waits, shed
//! decisions) but never bytes: every admitted response must replay
//! byte-identically on the all-software tree-walk reference machine, and
//! an identical configuration must reproduce the entire report.

use phpaccel_core::{Engine, PhpMachine};
use serve::{
    AdmissionConfig, AdmissionController, BreakerConfig, FaultPlan, OverloadConfig, OverloadReport,
    OverloadSim, SandboxConfig, Server,
};
use std::sync::Arc;
use workloads::php_corpus::CorpusCache;
use workloads::{ArrivalConfig, ArrivalShape};

const SEED: u64 = 20_170_613;
const REQUESTS: usize = 48;

/// Steady-state mean and max service µops over one full corpus cycle.
fn calibrate(cache: &Arc<CorpusCache>, engine: Engine) -> (u64, u64) {
    let mut server = Server::new(
        machine(engine),
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    );
    let cache2 = Arc::clone(cache);
    let mut h = move |m: &mut PhpMachine, req: u64| cache2.script_for_request(req).run(m, true);
    let (mut total, mut max, mut n) = (0u64, 0u64, 0u64);
    for i in 0..(cache.len() as u64 + cache.len() as u64) {
        let (_, s) = server.step(i, &mut h, true);
        // Skip the first corpus cycle: cold caches, first-touch costs.
        if i >= cache.len() as u64 {
            total += s;
            max = max.max(s);
            n += 1;
        }
    }
    (total / n.max(1), max)
}

fn machine(engine: Engine) -> PhpMachine {
    let mut m = PhpMachine::specialized();
    m.set_engine(engine);
    m
}

fn run_overload(
    cache: &Arc<CorpusCache>,
    engine: Engine,
    workers: usize,
    mean: u64,
    smax: u64,
) -> OverloadReport {
    let cfg = OverloadConfig {
        workers,
        warmup: 4,
        slo_windows: 10,
        reset_between_requests: true,
    };
    // Faults start after the warmup boundary (burn_in 4) and stay inside
    // the arrival span; two per domain exercises detection everywhere.
    let server = Server::new(
        machine(engine),
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    )
    .with_fault_plan(FaultPlan::seeded(SEED, 2, 4, REQUESTS as u64))
    .with_reference(PhpMachine::baseline());
    let controller = AdmissionController::new(AdmissionConfig {
        budget_uops: 3 * smax,
        queue_capacity: 4 * workers,
        release_ratio: 0.5,
        service_prior_uops: smax,
    });
    let mut sim = OverloadSim::new(cfg, server, controller).expect("valid overload config");
    // 2× offered load per worker-normalized capacity: gap = mean/(2·workers).
    let schedule = ArrivalConfig {
        shape: ArrivalShape::Burst,
        requests: REQUESTS,
        mean_gap_uops: (mean / (2 * workers as u64)).max(1),
        seed: SEED,
    }
    .times();
    let cache2 = Arc::clone(cache);
    let mut h = move |m: &mut PhpMachine, req: u64| cache2.script_for_request(req).run(m, true);
    sim.run(&schedule, &mut h)
}

#[test]
fn overload_replays_identically_and_byte_checks_at_any_worker_count() {
    let cache = Arc::new(CorpusCache::build());
    let (mean, smax) = calibrate(&cache, Engine::TreeWalk);
    for workers in [1usize, 4, 8] {
        let a = run_overload(&cache, Engine::TreeWalk, workers, mean, smax);
        let b = run_overload(&cache, Engine::TreeWalk, workers, mean, smax);
        assert_eq!(a.records, b.records, "{workers} workers: replay drifted");
        assert_eq!(a.stats, b.stats, "{workers} workers: stats drifted");
        assert_eq!(a.admission, b.admission, "{workers} workers: admission");
        assert_eq!(a.windows, b.windows, "{workers} workers: SLO windows");
        assert_eq!(
            a.stats.mismatches, 0,
            "{workers} workers: admitted responses must replay byte-identically"
        );
        assert!(a.stats.outcomes_partition_requests(), "{workers} workers");
        assert_eq!(a.stats.requests, REQUESTS as u64, "{workers} workers");
    }
}

/// Same guarantee on the compiled-VM engine: the primaries run `Engine::Vm`
/// while the reference machine stays on the tree-walk path, so zero
/// mismatches is also a cross-engine differential under overload, shedding,
/// and fault injection at once.
#[test]
fn vm_overload_replays_identically_and_byte_checks() {
    let cache = Arc::new(CorpusCache::build());
    let (mean, smax) = calibrate(&cache, Engine::Vm);
    for workers in [1usize, 4] {
        let a = run_overload(&cache, Engine::Vm, workers, mean, smax);
        let b = run_overload(&cache, Engine::Vm, workers, mean, smax);
        assert_eq!(a.records, b.records, "vm {workers} workers: replay");
        assert_eq!(a.stats, b.stats, "vm {workers} workers: stats");
        assert_eq!(
            a.stats.mismatches, 0,
            "vm {workers} workers: cross-engine byte identity must hold"
        );
        assert!(
            a.stats.outcomes_partition_requests(),
            "vm {workers} workers"
        );
    }
}

/// Worker count is a pure capacity knob: at the same offered load, more
/// workers shed no more than fewer workers, and at 2× one worker must shed.
#[test]
fn worker_count_scales_shedding_down() {
    let cache = Arc::new(CorpusCache::build());
    let (mean, smax) = calibrate(&cache, Engine::TreeWalk);
    // Fixed absolute load (gap for 1 worker at 2×) with varying capacity.
    let run_fixed = |workers: usize| {
        let server = Server::new(
            machine(Engine::TreeWalk),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        )
        .with_reference(PhpMachine::baseline());
        let controller = AdmissionController::new(AdmissionConfig {
            budget_uops: 3 * smax,
            queue_capacity: 4 * workers,
            release_ratio: 0.5,
            service_prior_uops: smax,
        });
        let mut sim = OverloadSim::new(
            OverloadConfig {
                workers,
                ..OverloadConfig::default()
            },
            server,
            controller,
        )
        .expect("valid overload config");
        let schedule = ArrivalConfig {
            shape: ArrivalShape::Steady,
            requests: REQUESTS,
            mean_gap_uops: (mean / 2).max(1),
            seed: SEED,
        }
        .times();
        let cache2 = Arc::clone(&cache);
        let mut h = move |m: &mut PhpMachine, req: u64| cache2.script_for_request(req).run(m, true);
        sim.run(&schedule, &mut h)
    };
    let one = run_fixed(1);
    let eight = run_fixed(8);
    assert!(one.stats.shed > 0, "2x load on one worker must shed");
    assert!(
        eight.stats.shed < one.stats.shed,
        "8 workers must shed less than 1 ({} vs {})",
        eight.stats.shed,
        one.stats.shed
    );
    assert_eq!(one.stats.mismatches + eight.stats.mismatches, 0);
}
