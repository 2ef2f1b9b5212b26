//! # phpaccel-core
//!
//! The paper's primary contribution (§4): a general-purpose server core
//! specialized with four tightly-coupled accelerators for server-side PHP
//! processing — a hardware hash table, a hardware heap manager, a
//! generalized string accelerator, and regexp content filtering — invoked
//! through ISA extensions with zero-flag software fallbacks (§4.6).
//!
//! [`PhpMachine`] lets the *same* workload run on the software baseline and
//! on the specialized core; [`account`] turns the two ledgers into the
//! paper's Figure 14/15 comparisons.
//!
//! ```
//! use phpaccel_core::{ExecMode, PhpMachine};
//! use php_runtime::{array::ArrayKey, value::PhpValue};
//!
//! let mut m = PhpMachine::specialized();
//! let mut arr = m.new_array();
//! m.array_set(&mut arr, ArrayKey::from("user"), PhpValue::from("alice"));
//! assert!(m.array_get(&arr, &ArrayKey::from("user")).is_some());
//! assert!(m.core().htable.stats().sets > 0); // went through hardware
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod config;
pub mod priors;
pub mod specialized;

pub use accel_htable::KeyShapeHint;
pub use account::{compare, cycles_of, Comparison, Ledger};
pub use config::{MachineConfig, PriorsConfig};
pub use priors::{PriorOpt, PriorsOutcome};
pub use specialized::{
    key_bytes, AccelId, Engine, ExecMode, KeyBytes, MBlock, PhpMachine, SpecializedCore,
};
