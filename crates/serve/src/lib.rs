//! Fault-tolerant request serving.
//!
//! This crate wraps a [`phpaccel_core::PhpMachine`] in the robustness layer
//! a production server needs around accelerated PHP processing:
//!
//! * **Sandboxing** ([`sandbox`]): per-request step fuel, a µop deadline,
//!   and a memory ceiling; panics are caught, classified
//!   ([`RequestOutcome`]), and followed by full machine recovery.
//! * **Fault injection** ([`fault`]): deterministic, seeded schedules of
//!   the hardware failure modes the accelerators detect — hash-table
//!   entry/RTT corruption (§4.2), heap free-list poisoning (§4.3), string
//!   config-register faults (§4.4), regexp reuse-entry and hint-vector bit
//!   flips (§4.5/§4.6) — plus allocator exhaustion.
//! * **Circuit breakers** ([`breaker`]): per-accelerator trip/backoff/
//!   half-open state machines keyed on the request index, so a faulting
//!   unit degrades to the software path and is retried later.
//! * **The request step** ([`server`]): [`Server::step`] ties the above
//!   together, byte-compares every successful response against an
//!   all-software reference machine (what each side runs is the
//!   [`Handler`]'s say), and returns the request's record with its service
//!   µops. [`Server::worker`] brings a worker up; [`Totals`] is what a
//!   worker, and any sum of workers, reports. The pool, the overload
//!   simulator and the HTTP edge are three schedulers over that step.
//! * **The worker pool** ([`pool`]): shards a request stream across N
//!   workers, each with a private machine (per-core accelerator state), its
//!   own fault-plan slice, and its own breakers; pool totals are the
//!   lossless sum of the workers'.
//! * **The shared memo cache** ([`memo`]): the sharded, bucket-locked
//!   [`php_interp::MemoTier`] pool workers share — call results the effect
//!   analysis proved cross-request memoizable are computed once and replayed
//!   on every worker, APCu-style.
//! * **Admission control** ([`admission`]) and **the overload simulator**
//!   ([`overload`]): a bounded queue in front of the workers whose
//!   controller sheds arrivals ([`RequestOutcome::Shed`], 503) when the
//!   predicted queue wait would blow the latency budget — with hysteresis —
//!   so offered load above capacity degrades gracefully instead of
//!   timeout-storming; [`ServeStats`] carries the queue-depth/wait/latency
//!   histograms ([`hist`]) and shed counters this produces.
//! * **The HTTP front end** ([`http`]): N worker threads, each a private
//!   [`Server`] and a `poll(2)` readiness loop over the connections it
//!   accepted from one shared listener, run the HTTP/1.1 parser, a
//!   composable middleware chain ([`middleware`]), the admission
//!   controller and the request step on one thread per request — HTTP is a
//!   transport over the same step, never a second execution path.
//!   `GET /metrics` exports everything above in Prometheus text format
//!   ([`metrics_text`]).
//!
//! The `poll` wrapper is the workspace's only `unsafe` code; every other
//! crate forbids it.

#![deny(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod fault;
pub mod hist;
pub mod http;
pub mod lintgate;
pub mod memo;
pub mod metrics_text;
pub mod middleware;
pub mod outcome;
pub mod overload;
#[allow(unsafe_code)]
mod poll;
pub mod pool;
pub mod sandbox;
pub mod server;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, ShedCause,
};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use fault::{FaultKind, FaultPlan, PlannedFault};
pub use hist::Histogram;
pub use http::{
    parse_request, FrontSnapshot, HttpConfig, HttpLimits, HttpParseError, HttpReport, HttpRequest,
    HttpResponse, HttpServer,
};
pub use lintgate::{GateRejection, GateStats, LintGate, LintGateConfig};
pub use memo::{MemoCache, MemoCacheStats};
pub use metrics_text::{parse_prometheus, render_prometheus, MetricsSnapshot};
pub use middleware::{
    AccessLog, ErrorPages, IdentityEncoding, Middleware, MiddlewareChain, MiddlewareRequest,
    RateLimit,
};
pub use outcome::{classify_panic, RequestOutcome};
pub use overload::{
    OverloadConfig, OverloadConfigError, OverloadRecord, OverloadReport, OverloadSim, SloWindow,
};
pub use pool::{PoolConfig, PoolReport, WorkerFailure, WorkerPool};
pub use sandbox::{run_sandboxed, SandboxConfig};
pub use server::{Handler, RequestRecord, Scripts, ServeStats, Server, Totals};
