//! The overload simulator: a bounded admission queue in front of simulated
//! workers, driven by shaped arrival schedules.
//!
//! This is the layer ROADMAP item 4 asks for: offered load above capacity
//! must degrade *gracefully* — shed early with 503s, keep every admitted
//! request inside its latency budget — instead of timeout-storming. The
//! model is a classic multi-server FIFO queue advanced by the Lindley
//! recurrence on the simulated-µop clock:
//!
//! * Each arrival `i` comes at timestamp `aᵢ` (from
//!   [`workloads::ArrivalConfig`] or any non-decreasing schedule) and
//!   carries the deadline `aᵢ + budget`.
//! * The predicted queue wait at arrival is exact: `min(free_at) − now`
//!   over the workers. The [`AdmissionController`] sheds when that wait
//!   plus its conservative service envelope would miss the deadline
//!   (hysteresis keeps the transition smooth), or when the bounded queue
//!   is at capacity.
//! * An admitted request starts at `max(now, min(free_at))` on the
//!   earliest-free worker (ties to the lowest index), runs for its
//!   *measured* service time (profiler µop delta through the full
//!   [`Server`] stack — sandbox, fault injection, breakers, byte-identity
//!   replay), and its end-to-end latency is queue wait + service.
//!
//! Execution is single-threaded in arrival order, so the machine-state
//! sequence — and therefore every response byte, breaker decision, and
//! replay comparison — is deterministic given the schedule: the worker
//! count shifts only *timing* (waits, sheds), never bytes. That is the
//! replay-determinism guarantee the overload bench asserts at 1/4/8
//! workers on both engines, with fault injection on.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionStats, ShedCause};
use crate::outcome::RequestOutcome;
use crate::server::{Handler, Server, Totals};
use std::collections::VecDeque;

/// Configuration of one overload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Simulated workers draining the admission queue (≥ 1).
    pub workers: usize,
    /// Warmup requests served through the full server stack before the
    /// arrival schedule begins, followed by a [`Server::reset_stats`]
    /// boundary — the load generator's warmup idiom. Without it the cold
    /// first request (first-touch allocation, empty caches) lands *in* the
    /// measured stream, distorting both the latency tail and the
    /// controller's picture of steady-state service cost. Warmup requests
    /// occupy global indices `0..warmup`; arrival `i` is index
    /// `warmup + i` (seeded fault plans use a `burn_in` ≥ this).
    pub warmup: usize,
    /// Number of equal-width SLO accounting windows over the arrival span.
    pub slo_windows: usize,
    /// Restore the machine (and reference) to a pristine request boundary
    /// after every admitted request, as the pool's deterministic mode does.
    /// Soaks turn this off so faults land in live state.
    pub reset_between_requests: bool,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            workers: 1,
            warmup: 4,
            slo_windows: 10,
            reset_between_requests: true,
        }
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadRecord {
    /// Global arrival index (shed arrivals consume indices too).
    pub request: u64,
    /// Arrival timestamp in simulated µops.
    pub at_uops: u64,
    /// Outcome ([`RequestOutcome::Shed`] if refused at admission).
    pub outcome: RequestOutcome,
    /// Why admission refused it, if it did.
    pub shed_cause: Option<ShedCause>,
    /// Queue depth (admitted-but-unstarted requests) seen at arrival.
    pub queue_depth: u64,
    /// Queue wait in µops (0 for shed arrivals).
    pub wait_uops: u64,
    /// Measured service time in µops (0 for shed arrivals).
    pub service_uops: u64,
    /// End-to-end latency (wait + service) in µops (0 for shed arrivals).
    pub latency_uops: u64,
}

/// SLO accounting for one window of the arrival span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloWindow {
    /// Window start (inclusive), simulated µops.
    pub start_uops: u64,
    /// Window end (exclusive), simulated µops.
    pub end_uops: u64,
    /// Arrivals in the window (admitted + shed).
    pub arrivals: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Admitted requests that completed OK within the latency budget.
    pub ok_within_budget: u64,
}

impl SloWindow {
    /// Fraction of admitted requests that met the SLO (OK within budget);
    /// vacuously 1 when the window admitted nothing.
    pub fn attainment(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.ok_within_budget as f64 / self.admitted as f64
        }
    }
}

/// The result of one overload run.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The latency budget arrivals were admitted against, in µops.
    pub budget_uops: u64,
    /// Per-arrival records in arrival order.
    pub records: Vec<OverloadRecord>,
    /// The server's final totals, which the report derefs to: `stats`
    /// includes the shed counters and the queue-depth/wait/latency
    /// histograms.
    pub totals: Totals,
    /// Final admission-controller counters.
    pub admission: AdmissionStats,
    /// Per-window SLO accounting over the arrival span.
    pub windows: Vec<SloWindow>,
}

impl std::ops::Deref for OverloadReport {
    type Target = Totals;

    fn deref(&self) -> &Totals {
        &self.totals
    }
}

impl OverloadReport {
    /// Latencies of admitted requests, ascending, in µops.
    pub fn admitted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|r| !r.outcome.is_shed())
            .map(|r| r.latency_uops)
            .collect();
        v.sort_unstable();
        v
    }

    /// Exact nearest-rank percentile of admitted latency (`p` ∈ [0, 100]);
    /// 0 when nothing was admitted.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let v = self.admitted_latencies();
        if v.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    /// Fraction of arrivals shed, in [0, 1].
    pub fn shed_fraction(&self) -> f64 {
        self.stats.shed_fraction()
    }

    /// Fraction of admitted requests that completed OK within the budget.
    pub fn slo_attainment(&self) -> f64 {
        let admitted = self.records.iter().filter(|r| !r.outcome.is_shed());
        let (mut total, mut met) = (0u64, 0u64);
        for r in admitted {
            total += 1;
            if r.outcome.is_ok() && r.latency_uops <= self.budget_uops {
                met += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }
}

/// A bounded-admission multi-worker queue simulation around one [`Server`]
/// (see module docs).
pub struct OverloadSim {
    cfg: OverloadConfig,
    server: Server,
    controller: AdmissionController,
    /// Per-worker timestamp at which the worker next becomes free.
    free_at: Vec<u64>,
    /// Start times of admitted requests not yet started (the queue).
    queued_starts: VecDeque<u64>,
}

/// A rejected [`OverloadConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadConfigError {
    /// `workers` was 0 — nothing could ever drain the queue. This used to
    /// be caught only at runtime, deep in worker selection, as an
    /// `expect("workers > 0")` panic.
    ZeroWorkers,
    /// `slo_windows` was 0 — per-window attainment would be undefined.
    ZeroSloWindows,
}

impl std::fmt::Display for OverloadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadConfigError::ZeroWorkers => {
                write!(f, "overload sim needs at least one worker")
            }
            OverloadConfigError::ZeroSloWindows => {
                write!(f, "overload sim needs at least one SLO window")
            }
        }
    }
}

impl std::error::Error for OverloadConfigError {}

impl OverloadSim {
    /// Creates a simulation draining `server` with `cfg.workers` workers
    /// under `controller`'s admission policy. Invalid configurations are
    /// rejected here, at construction, instead of panicking mid-run.
    pub fn new(
        cfg: OverloadConfig,
        server: Server,
        controller: AdmissionController,
    ) -> Result<Self, OverloadConfigError> {
        if cfg.workers == 0 {
            return Err(OverloadConfigError::ZeroWorkers);
        }
        if cfg.slo_windows == 0 {
            return Err(OverloadConfigError::ZeroSloWindows);
        }
        Ok(OverloadSim {
            free_at: vec![0; cfg.workers],
            queued_starts: VecDeque::new(),
            cfg,
            server,
            controller,
        })
    }

    /// The server under the queue (machine, breakers, stats).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Runs the full arrival schedule (non-decreasing µop timestamps)
    /// through admission and the workers, returning the report. Warmup
    /// requests run first (indices `0..warmup`, excluded from stats by the
    /// reset boundary); arrival `i` is then global request index
    /// `warmup + i` — the handler, fault plan, and breakers all see those
    /// global indices.
    pub fn run<H: Handler + ?Sized>(
        &mut self,
        arrivals: &[u64],
        handler: &mut H,
    ) -> OverloadReport {
        let budget = self.controller.config().budget_uops;
        let warmup = self.cfg.warmup as u64;
        let reset = self.cfg.reset_between_requests;
        for w in 0..warmup {
            self.server.step(w, handler, reset);
        }
        self.server.reset_stats();
        let mut records = Vec::with_capacity(arrivals.len());
        for (i, &now) in arrivals.iter().enumerate() {
            let req = warmup + i as u64;
            // Drain queue entries that have started by `now`.
            while self.queued_starts.front().is_some_and(|&s| s <= now) {
                self.queued_starts.pop_front();
            }
            let depth = self.queued_starts.len();
            let predicted_wait = self
                .free_at
                .iter()
                .min()
                .copied()
                .unwrap_or(0)
                .saturating_sub(now);

            match self.controller.decide(predicted_wait, depth) {
                AdmissionDecision::Shed(cause) => {
                    let rec = self.server.record_shed(req, depth as u64);
                    records.push(OverloadRecord {
                        request: req,
                        at_uops: now,
                        outcome: rec.outcome,
                        shed_cause: Some(cause),
                        queue_depth: depth as u64,
                        wait_uops: 0,
                        service_uops: 0,
                        latency_uops: 0,
                    });
                }
                AdmissionDecision::Admit => {
                    let (rec, service) = self.server.step(req, handler, reset);
                    self.controller.observe_service(service);

                    // Earliest-free worker, ties to the lowest index. The
                    // constructor rejects `workers == 0`, so the range is
                    // never empty; `unwrap_or(0)` keeps this non-panicking.
                    let w = (0..self.cfg.workers)
                        .min_by_key(|&w| self.free_at[w])
                        .unwrap_or(0);
                    let start = now.max(self.free_at[w]);
                    let wait = start - now;
                    self.free_at[w] = start + service;
                    let latency = wait + service;
                    self.server
                        .record_admitted_timing(depth as u64, wait, latency);
                    self.queued_starts.push_back(start);
                    records.push(OverloadRecord {
                        request: req,
                        at_uops: now,
                        outcome: rec.outcome,
                        shed_cause: None,
                        queue_depth: depth as u64,
                        wait_uops: wait,
                        service_uops: service,
                        latency_uops: latency,
                    });
                }
            }
        }
        let windows = slo_windows(&records, budget, self.cfg.slo_windows);
        OverloadReport {
            budget_uops: budget,
            records,
            totals: self.server.totals(),
            admission: *self.controller.stats(),
            windows,
        }
    }
}

/// Buckets the records into `n` equal-width windows over the arrival span.
fn slo_windows(records: &[OverloadRecord], budget_uops: u64, n: usize) -> Vec<SloWindow> {
    let span = records.last().map(|r| r.at_uops + 1).unwrap_or(0);
    if span == 0 {
        return Vec::new();
    }
    let width = span.div_ceil(n as u64).max(1);
    let mut windows: Vec<SloWindow> = (0..n)
        .map(|i| SloWindow {
            start_uops: i as u64 * width,
            end_uops: (i as u64 + 1) * width,
            arrivals: 0,
            admitted: 0,
            ok_within_budget: 0,
        })
        .collect();
    for r in records {
        let w = ((r.at_uops / width) as usize).min(n - 1);
        windows[w].arrivals += 1;
        if !r.outcome.is_shed() {
            windows[w].admitted += 1;
            if r.outcome.is_ok() && r.latency_uops <= budget_uops {
                windows[w].ok_within_budget += 1;
            }
        }
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::breaker::BreakerConfig;
    use crate::sandbox::SandboxConfig;
    use phpaccel_core::PhpMachine;
    use workloads::{ArrivalConfig, ArrivalShape};

    fn handler() -> impl FnMut(&mut PhpMachine, u64) -> Vec<u8> {
        |m: &mut PhpMachine, req: u64| {
            let s = m.transient_str(format!("overload request {req}"));
            let out = match s {
                php_runtime::PhpValue::Str(s) => m.strtoupper(&s).as_bytes().to_vec(),
                _ => unreachable!(),
            };
            m.end_request();
            out
        }
    }

    /// Measures steady-state service time (mean over warm requests, with
    /// the between-request recovery the sim also performs; the cold first
    /// request is discarded) to scale arrival gaps to load factors.
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

    fn sim(workers: usize, budget: u64, service: u64) -> OverloadSim {
        let server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        )
        .with_reference(PhpMachine::baseline());
        let controller = AdmissionController::new(AdmissionConfig {
            budget_uops: budget,
            queue_capacity: 4 * workers,
            release_ratio: 0.5,
            service_prior_uops: service * 2,
        });
        OverloadSim::new(
            OverloadConfig {
                workers,
                ..OverloadConfig::default()
            },
            server,
            controller,
        )
        .expect("valid overload config")
    }

    fn try_sim(cfg: OverloadConfig) -> Result<OverloadSim, OverloadConfigError> {
        let server = Server::new(
            PhpMachine::specialized(),
            BreakerConfig::default(),
            SandboxConfig::unlimited(),
        );
        OverloadSim::new(
            cfg,
            server,
            AdmissionController::new(AdmissionConfig::default()),
        )
    }

    #[test]
    fn zero_workers_is_a_config_error_not_a_panic() {
        let err = try_sim(OverloadConfig {
            workers: 0,
            ..OverloadConfig::default()
        })
        .err()
        .expect("zero workers must be rejected");
        assert_eq!(err, OverloadConfigError::ZeroWorkers);
        assert!(err.to_string().contains("worker"));
    }

    #[test]
    fn zero_slo_windows_is_a_config_error_not_a_panic() {
        let err = try_sim(OverloadConfig {
            slo_windows: 0,
            ..OverloadConfig::default()
        })
        .err()
        .expect("zero slo windows must be rejected");
        assert_eq!(err, OverloadConfigError::ZeroSloWindows);
        assert!(err.to_string().contains("SLO"));
    }

    fn arrivals(n: usize, gap: u64) -> Vec<u64> {
        ArrivalConfig {
            shape: ArrivalShape::Steady,
            requests: n,
            mean_gap_uops: gap,
            seed: 7,
        }
        .times()
    }

    #[test]
    fn under_capacity_nothing_is_shed() {
        let service = calibrate();
        // Offered load ≈ 0.5×: gaps twice the service time, one worker.
        let mut sim = sim(1, 20 * service, service);
        let report = sim.run(&arrivals(60, 2 * service), &mut handler());
        assert_eq!(report.stats.shed, 0, "under capacity must admit all");
        assert_eq!(report.stats.ok, 60);
        assert_eq!(report.stats.mismatches, 0);
        assert!(report.stats.outcomes_partition_requests());
        assert!(report.slo_attainment() >= 0.99);
    }

    #[test]
    fn overload_sheds_but_admitted_requests_meet_the_budget() {
        let service = calibrate();
        // Offered load ≈ 2×: gaps half the service time, one worker; the
        // budget allows a short queue (4 services + headroom).
        let budget = 6 * service;
        let mut sim = sim(1, budget, service);
        let report = sim.run(&arrivals(120, service / 2), &mut handler());
        assert!(
            report.shed_fraction() > 0.25,
            "2x load must shed substantially, shed {}",
            report.stats.shed
        );
        assert!(report.stats.ok > 0, "goodput must not collapse to zero");
        assert_eq!(report.stats.availability(), 1.0, "admitted all served OK");
        assert!(report.stats.outcomes_partition_requests());
        // The conservative envelope makes the budget a real guarantee.
        assert!(
            report.latency_percentile(99.0) <= budget,
            "admitted p99 {} must stay within budget {budget}",
            report.latency_percentile(99.0)
        );
        assert_eq!(
            report.stats.mismatches, 0,
            "replay must stay byte-identical"
        );
        // Histograms saw every arrival / admitted request.
        assert_eq!(report.stats.queue_depth.count(), 120);
        assert_eq!(report.stats.latency.count(), 120 - report.stats.shed);
    }

    #[test]
    fn overload_runs_replay_identically() {
        let service = calibrate();
        let run = || {
            let mut sim = sim(2, 6 * service, service);
            sim.run(&arrivals(80, service / 2), &mut handler())
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records, b.records, "same schedule must replay exactly");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.admission, b.admission);
        assert_eq!(a.windows, b.windows);
    }

    #[test]
    fn more_workers_shed_less_at_the_same_offered_load() {
        let service = calibrate();
        let shed_at = |workers: usize| {
            let mut s = sim(workers, 6 * service, service);
            s.run(&arrivals(100, service / 2), &mut handler())
                .stats
                .shed
        };
        let one = shed_at(1);
        let four = shed_at(4);
        assert!(
            four < one,
            "4 workers must shed less than 1 at fixed load ({four} vs {one})"
        );
        assert_eq!(shed_at(4), four, "deterministic at any worker count");
    }

    #[test]
    fn slo_windows_cover_the_span_and_flag_the_flash_crowd() {
        let service = calibrate();
        let mut s = sim(1, 6 * service, service);
        let schedule = ArrivalConfig {
            shape: ArrivalShape::FlashCrowd,
            requests: 150,
            mean_gap_uops: service, // 1× on average; the flash is ~5×
            seed: 3,
        }
        .times();
        let report = s.run(&schedule, &mut handler());
        assert_eq!(report.windows.len(), 10);
        let total: u64 = report.windows.iter().map(|w| w.arrivals).sum();
        assert_eq!(total, 150, "every arrival lands in exactly one window");
        // The flash (≈ progress 0.5–0.6) must shed; quiet windows must not.
        let shed_by_window: Vec<u64> = report
            .windows
            .iter()
            .map(|w| w.arrivals - w.admitted)
            .collect();
        assert!(
            shed_by_window.iter().any(|&s| s > 0),
            "flash crowd must force shedding: {shed_by_window:?}"
        );
        assert!(
            report.windows.first().unwrap().attainment() >= 0.99,
            "pre-flash window must meet the SLO"
        );
    }
}
