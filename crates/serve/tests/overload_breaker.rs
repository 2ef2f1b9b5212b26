//! Circuit breakers under sustained overload: shedding must not make a
//! tripped breaker flap between open and half-open.
//!
//! Shed arrivals consume global request indices but never reach the
//! server, so they must not consult `allows()`, must not burn half-open
//! trials, and must not feed success/fault signals into any breaker. A
//! breaker tripped just before the overload window therefore waits out its
//! backoff untouched, gets exactly one half-open trial on the next
//! *admitted* request, and closes cleanly: one trip, one recovery, no
//! oscillation — deterministic across runs.

use phpaccel_core::{AccelId, PhpMachine};
use serve::{
    AdmissionConfig, AdmissionController, BreakerConfig, BreakerState, FaultKind, FaultPlan,
    OverloadConfig, OverloadReport, OverloadSim, PlannedFault, SandboxConfig, Server,
};
use workloads::{ArrivalConfig, ArrivalShape};

/// A handler that exercises the string accelerator every request, so an
/// injected `StringConfig` fault is detected by the request it lands on.
fn handler() -> impl FnMut(&mut PhpMachine, u64) -> Vec<u8> {
    |m: &mut PhpMachine, req: u64| {
        let s = m.transient_str(format!("  Breaker Probe {req} <b> "));
        let s = match s {
            php_runtime::PhpValue::Str(s) => s,
            _ => unreachable!(),
        };
        let t = m.trim(&s);
        let lower = m.strtolower(&t);
        let out = m.htmlspecialchars(&lower).as_bytes().to_vec();
        m.end_request();
        out
    }
}

/// Mean steady-state service µops of [`handler`] (warm requests only).
fn calibrate() -> u64 {
    let mut server = Server::new(
        PhpMachine::specialized(),
        BreakerConfig::default(),
        SandboxConfig::unlimited(),
    );
    let mut h = handler();
    let mut total = 0u64;
    let warm = 8u64;
    for i in 0..=warm {
        let (_, service) = server.step(i, &mut h, true);
        if i > 0 {
            total += service;
        }
    }
    total / warm
}

fn run_once(service: u64) -> OverloadReport {
    // Two string-config faults on consecutive early requests trip the Str
    // breaker (threshold 2) right as the 2× overload builds its queue.
    let plan = FaultPlan::new(vec![
        PlannedFault {
            at_request: 6,
            kind: FaultKind::StringConfig,
        },
        PlannedFault {
            at_request: 7,
            kind: FaultKind::StringConfig,
        },
    ]);
    let breaker_cfg = BreakerConfig {
        fault_threshold: 2,
        window: 50,
        base_backoff: 12,
        max_backoff: 48,
    };
    let server = Server::new(
        PhpMachine::specialized(),
        breaker_cfg,
        SandboxConfig::unlimited(),
    )
    .with_fault_plan(plan)
    .with_reference(PhpMachine::baseline());
    let controller = AdmissionController::new(AdmissionConfig {
        budget_uops: 6 * service,
        queue_capacity: 4,
        release_ratio: 0.5,
        service_prior_uops: 2 * service,
    });
    let mut sim = OverloadSim::new(OverloadConfig::default(), server, controller)
        .expect("valid overload config");
    // 2× offered load for the whole run: sustained overload, so shedding
    // stays engaged (with hysteresis cycles) while the breaker is open.
    let schedule = ArrivalConfig {
        shape: ArrivalShape::Steady,
        requests: 160,
        mean_gap_uops: service / 2,
        seed: 41,
    }
    .times();
    let mut h = handler();
    let report = sim.run(&schedule, &mut h);
    let b = sim.server().breaker(AccelId::Str);
    assert_eq!(b.trips, 1, "breaker must trip exactly once, not flap");
    assert_eq!(b.recoveries, 1, "one clean half-open trial, one recovery");
    assert_eq!(
        b.state(),
        BreakerState::Closed,
        "breaker must end closed despite sustained shedding"
    );
    report
}

#[test]
fn tripped_breaker_does_not_flap_while_shedding_is_active() {
    let service = calibrate();
    let report = run_once(service);

    assert!(
        report.stats.shed > 0,
        "the scenario must actually shed (2x offered load)"
    );
    assert!(
        report.admission.engages >= 1,
        "hysteresis shedding must have engaged"
    );
    // Shed arrivals never touched the machine or breakers: every admitted
    // request still served fine (the two fault requests degrade to the
    // software path and stay byte-identical, they do not fail).
    assert_eq!(report.stats.availability(), 1.0);
    assert_eq!(report.stats.mismatches, 0);
    assert!(report.stats.outcomes_partition_requests());
    // Degradation window: some requests ran with the Str domain degraded
    // while the breaker was open, and it was bounded (no endless backoff
    // doubling, which is what flapping would cause).
    let degraded = report.stats.degraded_requests[AccelId::Str.index()];
    assert!(degraded >= 1, "open window must degrade some requests");
    assert!(
        degraded < report.stats.requests - report.stats.shed,
        "degradation must end once the trial closes the breaker"
    );
}

#[test]
fn breaker_overload_interaction_is_deterministic() {
    let service = calibrate();
    let a = run_once(service);
    let b = run_once(service);
    assert_eq!(a.records, b.records, "same seed must replay identically");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.admission, b.admission);
}
