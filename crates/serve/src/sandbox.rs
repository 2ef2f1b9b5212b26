//! Per-request sandbox: execution budgets, a memory ceiling, and panic
//! isolation.
//!
//! The sandbox arms the interpreter's step fuel, a µop deadline measured
//! against the machine profiler, and the slab allocator's memory limit, then
//! runs the handler under `catch_unwind`. Whatever happens, the budgets are
//! disarmed afterwards and — on any abnormal exit — the machine's invariants
//! are restored with [`PhpMachine::recover_request`] before the outcome is
//! reported, so the next request starts from a consistent machine.

use crate::outcome::{classify_panic, RequestOutcome};
use phpaccel_core::PhpMachine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::panic_message;

/// Resource budgets for one request. `None` means unmetered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SandboxConfig {
    /// Interpreter step budget (AST nodes visited).
    pub fuel: Option<u64>,
    /// µop budget, measured as profiler growth during the request.
    pub uop_budget: Option<u64>,
    /// Allocator ceiling in bytes of live heap data.
    pub memory_limit: Option<u64>,
}

impl SandboxConfig {
    /// A sandbox with no limits (panic isolation only).
    pub fn unlimited() -> Self {
        SandboxConfig::default()
    }
}

/// Runs `f` against `machine` inside the sandbox and reports how it ended.
/// On any outcome other than [`RequestOutcome::Ok`] the machine has already
/// been recovered (request-scoped frees, `hmflush`, hash-table invalidate,
/// string/regexp engine reset) and is safe to reuse.
pub fn run_sandboxed(
    machine: &mut PhpMachine,
    cfg: SandboxConfig,
    f: impl FnOnce(&mut PhpMachine),
) -> RequestOutcome {
    machine.ctx().set_fuel(cfg.fuel);
    let deadline = cfg
        .uop_budget
        .map(|b| machine.ctx().profiler().total_uops().saturating_add(b));
    machine.ctx().set_uop_deadline(deadline);
    machine
        .ctx()
        .with_allocator(|a| a.set_memory_limit(cfg.memory_limit));

    let caught = catch_unwind(AssertUnwindSafe(|| f(machine)));

    machine.ctx().set_fuel(None);
    machine.ctx().set_uop_deadline(None);
    machine.ctx().with_allocator(|a| a.set_memory_limit(None));

    match caught {
        Ok(()) => RequestOutcome::Ok,
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            machine.recover_request();
            classify_panic(message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use php_interp::Interp;

    /// Runs `src` through the interpreter, panicking (like a workload's
    /// `.expect`) if the template errors — that panic carries the
    /// RuntimeError text the classifier keys on.
    fn run_template(m: &mut PhpMachine, src: &str) {
        let mut interp = Interp::new(m);
        interp.run(src).expect("template run failed");
        m.end_request();
    }

    fn silenced<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn normal_request_is_ok_and_budgets_disarm() {
        let mut m = PhpMachine::specialized();
        let cfg = SandboxConfig {
            fuel: Some(100_000),
            uop_budget: Some(10_000_000),
            memory_limit: Some(64 << 20),
        };
        let out = run_sandboxed(&mut m, cfg, |m| run_template(m, "$x = 1 + 2; echo $x;"));
        assert_eq!(out, RequestOutcome::Ok);
        assert_eq!(m.ctx().fuel_remaining(), None, "fuel must disarm");
        assert_eq!(m.ctx().uop_deadline(), None, "deadline must disarm");
    }

    #[test]
    fn infinite_loop_times_out_cleanly() {
        let mut m = PhpMachine::specialized();
        let cfg = SandboxConfig {
            fuel: Some(500),
            ..SandboxConfig::default()
        };
        let out = silenced(|| {
            run_sandboxed(&mut m, cfg, |m| {
                run_template(m, "$i = 0; while (true) { $i = $i + 1; }")
            })
        });
        assert_eq!(out, RequestOutcome::Timeout);
        assert_eq!(out.status_code(), 504);
        // Machine recovered: serve a normal request right after.
        let out = run_sandboxed(&mut m, SandboxConfig::unlimited(), |m| {
            run_template(m, "echo 'ok';")
        });
        assert_eq!(out, RequestOutcome::Ok);
    }

    #[test]
    fn memory_hog_is_oom_killed() {
        let mut m = PhpMachine::specialized();
        let cfg = SandboxConfig {
            memory_limit: Some(4096),
            ..SandboxConfig::default()
        };
        let out = silenced(|| {
            run_sandboxed(&mut m, cfg, |m| {
                // Each array literal takes a request-scoped heap block, so
                // live bytes climb until the ceiling trips.
                run_template(m, "$i = 0; while ($i < 1000) { $a = []; $i = $i + 1; }")
            })
        });
        assert_eq!(out, RequestOutcome::OomKilled);
        assert_eq!(m.ctx().with_allocator(|a| a.live_block_count()), 0);
    }

    #[test]
    fn arbitrary_panic_is_isolated() {
        let mut m = PhpMachine::specialized();
        let out = silenced(|| {
            run_sandboxed(&mut m, SandboxConfig::unlimited(), |_| {
                panic!("handler bug: index out of bounds");
            })
        });
        match out {
            RequestOutcome::Panicked { message } => {
                assert!(message.contains("index out of bounds"))
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
