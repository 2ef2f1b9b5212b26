//! # uarch-sim
//!
//! Trace-driven microarchitecture models standing in for the paper's gem5
//! setup (§2, §5.1): set-associative caches with next-line prefetchers, a
//! sweepable BTB, a working TAGE branch predictor, analytic in-order/OoO
//! core models (2-wide in-order through 8-wide OoO), and a CACTI/McPAT-like
//! energy and area model.
//!
//! ```
//! use uarch_sim::core_model::{simulate, CoreKind, Machine};
//! use uarch_sim::trace::{synthesize, TraceProfile};
//!
//! let trace = synthesize(&TraceProfile::php_app(1), 50_000);
//! let mut machine = Machine::server(CoreKind::OoO4);
//! let result = simulate(&trace, &mut machine);
//! assert!(result.cycles > 0);
//! assert!(result.branch_mpki() > 5.0); // PHP apps mispredict heavily (§2)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod cache;
pub mod core_model;
pub mod energy;
pub mod tage;
pub mod trace;

pub use btb::{Btb, BtbConfig, BtbStats};
pub use cache::{Cache, CacheConfig, CacheStats, Hierarchy, Latencies};
pub use core_model::{simulate, CoreKind, Machine, SimResult};
pub use energy::{AccelActivity, AreaBudget, EnergyModel, EnergyParams};
pub use tage::{Bimodal, PredStats, Tage, TageConfig};
pub use trace::{count, synthesize, TraceCounts, TraceProfile, Uop};
