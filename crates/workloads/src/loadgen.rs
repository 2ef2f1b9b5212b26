//! Load generator.
//!
//! §5.1: "The load generator emulates load from a large pool of client
//! clusters [...] It generates 300 warmup requests, then as many requests
//! as possible in next one minute." Here time is simulated, so the measured
//! phase is a fixed request count; warmup requests run with metrics
//! suppressed and are discarded by a [`PhpMachine::reset_metrics`] before
//! measurement begins.

use phpaccel_core::PhpMachine;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A server-side application under test.
pub trait Workload {
    /// Short identifier.
    fn name(&self) -> &'static str;
    /// Handles one request end-to-end (must call `end_request`).
    fn handle_request(&mut self, m: &mut PhpMachine, req: u64);
}

/// Load-generation parameters.
///
/// **Context switches and warmup.** `context_switch_every` fires an OS
/// context switch every N requests *in both phases*. Historically the
/// warmup loop hardcoded `context_switch_every: 0` semantics — no warmup
/// request was ever preempted, so a machine entered measurement with
/// unrealistically warm accelerator state whenever `warmup >= every`.
/// Warmup now preempts at the same cadence (at warmup request `w` for
/// `w > 0, w % every == 0`). Metrics are unaffected either way: the
/// [`PhpMachine::reset_metrics`] at the phase boundary discards all warmup
/// µops, including the switches' — only machine *state* carries over. The
/// measured phase keeps its original phase-local cadence (first switch at
/// measured request `every`), so existing figure output is unchanged for
/// any configuration with `warmup < every` (the defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadGen {
    /// Warmup requests (paper: 300; scaled down by default for test speed).
    pub warmup: usize,
    /// Measured requests.
    pub measured: usize,
    /// Inject an OS context switch every N requests (0 = never).
    pub context_switch_every: usize,
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen {
            warmup: 30,
            measured: 100,
            context_switch_every: 50,
        }
    }
}

/// Summary of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Requests measured.
    pub requests: usize,
    /// Total µops in the measured phase.
    pub total_uops: u64,
    /// Accelerator cycles in the measured phase.
    pub accel_cycles: u64,
    /// Requests (warmup or measured) that panicked instead of completing.
    pub failed_requests: usize,
    /// Message of the first failure, if any.
    pub first_error: Option<String>,
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl LoadGen {
    /// Runs `warmup + measured` requests of `app` on `machine`; metrics
    /// cover only the measured phase. A request that panics is *recorded*
    /// (count + first message), the machine's invariants are restored via
    /// [`PhpMachine::recover_request`], and the run continues — one bad
    /// request must not take down the stream.
    pub fn run(&self, app: &mut dyn Workload, machine: &mut PhpMachine) -> RunSummary {
        let mut failed_requests = 0;
        let mut first_error = None;
        let mut serve = |machine: &mut PhpMachine, req: u64| {
            let out = catch_unwind(AssertUnwindSafe(|| app.handle_request(machine, req)));
            if let Err(payload) = out {
                failed_requests += 1;
                if first_error.is_none() {
                    first_error = Some(panic_message(payload.as_ref()));
                }
                machine.recover_request();
            }
        };
        for r in 0..self.warmup {
            // Warmup preempts at the configured cadence too (see the struct
            // docs): the boundary reset_metrics erases the switches' µops,
            // so only the realistic machine state survives into measurement.
            if self.context_switch_every > 0 && r > 0 && r % self.context_switch_every == 0 {
                machine.context_switch();
            }
            serve(machine, r as u64);
        }
        machine.reset_metrics();
        for r in 0..self.measured {
            if self.context_switch_every > 0 && r > 0 && r % self.context_switch_every == 0 {
                machine.context_switch();
            }
            serve(machine, (self.warmup + r) as u64);
        }
        RunSummary {
            requests: self.measured,
            total_uops: machine.ctx().profiler().total_uops(),
            accel_cycles: machine.core().accel_cycles(),
            failed_requests,
            first_error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specweb::{SpecVariant, SpecWeb};

    #[test]
    fn warmup_excluded_from_metrics() {
        let mut app = SpecWeb::new(SpecVariant::Banking);
        let mut m = PhpMachine::baseline();
        let lg = LoadGen {
            warmup: 10,
            measured: 5,
            context_switch_every: 0,
        };
        let summary = lg.run(&mut app, &mut m);
        assert_eq!(summary.requests, 5);
        // ~5 requests worth of µops, not 15.
        let per_request = summary.total_uops / 5;
        assert!(
            summary.total_uops < per_request * 7,
            "warmup leaked into metrics"
        );
    }

    #[test]
    fn failures_recorded_not_propagated() {
        struct Flaky;
        impl Workload for Flaky {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn handle_request(&mut self, m: &mut PhpMachine, req: u64) {
                let b = m.alloc(32);
                m.free(b);
                if req % 3 == 2 {
                    panic!("simulated request crash at {req}");
                }
                m.end_request();
            }
        }
        let mut app = Flaky;
        let mut m = PhpMachine::specialized();
        let lg = LoadGen {
            warmup: 0,
            measured: 9,
            context_switch_every: 0,
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let summary = lg.run(&mut app, &mut m);
        std::panic::set_hook(hook);
        assert_eq!(summary.requests, 9);
        assert_eq!(summary.failed_requests, 3);
        assert!(
            summary
                .first_error
                .as_deref()
                .unwrap()
                .contains("simulated request crash"),
            "{:?}",
            summary.first_error
        );
        // Machine still consistent: no leaked live blocks.
        assert_eq!(m.ctx().with_allocator(|a| a.live_block_count()), 0);
    }

    #[test]
    fn context_switches_fire() {
        let mut app = SpecWeb::new(SpecVariant::Ecommerce);
        let mut m = PhpMachine::specialized();
        let lg = LoadGen {
            warmup: 0,
            measured: 10,
            context_switch_every: 3,
        };
        lg.run(&mut app, &mut m);
        assert!(m.core().context_switches >= 3);
    }

    /// Regression for the warmup branch that hardcoded
    /// `context_switch_every: 0` semantics: warmup requests are now
    /// preempted at the configured cadence too, while the boundary
    /// `reset_metrics` keeps the measured µops clean of them.
    #[test]
    fn warmup_context_switches_fire_but_stay_out_of_metrics() {
        let mut app = SpecWeb::new(SpecVariant::Ecommerce);
        let mut m = PhpMachine::specialized();
        let lg = LoadGen {
            warmup: 7,
            measured: 4,
            context_switch_every: 3,
        };
        let summary = lg.run(&mut app, &mut m);
        // Warmup preempts at w = 3, 6; the measured phase at r = 3.
        assert!(
            m.core().context_switches >= 3,
            "warmup must be preempted at the configured cadence"
        );
        // Exclusion still holds: ~4 requests of metered work, not 11.
        let per_request = summary.total_uops / 4;
        assert!(
            summary.total_uops < per_request * 6,
            "warmup (or its context switches) leaked into metrics"
        );
    }
}
