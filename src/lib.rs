//! # phpaccel
//!
//! Repository façade for the reproduction of *"Architectural Support for
//! Server-Side PHP Processing"* (Gope, Schlais, Lipasti — ISCA 2017).
//!
//! Each member crate is re-exported under a short alias so integration tests
//! and examples can reach the whole system through one dependency:
//!
//! ```
//! use phpaccel::runtime::RuntimeContext;
//! let ctx = RuntimeContext::new();
//! assert_eq!(ctx.profiler().total_uops(), 0);
//! ```

#![forbid(unsafe_code)]

pub use accel_heap as heap;
pub use accel_htable as htable;
pub use accel_regex as regexaccel;
pub use accel_string as straccel;
pub use php_analysis as analysis;
pub use php_interp as interp;
pub use php_runtime as runtime;
pub use phpaccel_core as core;
pub use regex_engine as regex;
pub use serve;
pub use uarch_sim as uarch;
pub use workloads;
