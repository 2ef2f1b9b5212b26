//! # accel-string
//!
//! Model of the ISCA 2017 paper's **generalized string accelerator** (§4.4,
//! Figure 10). One shared datapath — ASCII-compare matching matrix,
//! diagonal AND, priority encoder, output/substitution logic, shifter —
//! serves many PHP string functions (find, compare, translate, trim, spans,
//! byte substitution) and generates the hint vectors the regexp accelerator
//! consumes. It processes up to 64 subject bytes per 3-cycle block,
//! exploiting concurrency single-byte designs leave untapped.
//!
//! ```
//! use accel_string::StringAccel;
//! let mut accel = StringAccel::default();
//! let (pos, cost) = accel.find(b"hello world", b"world", 0).unwrap();
//! assert_eq!(pos, Some(6));
//! assert!(cost.cycles <= 3); // one block
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod matrix;
pub mod ops;

pub use engine::{StrAccelConfig, StringAccel};
pub use matrix::{ConfigError, MatrixConfig, RowSpec, MAX_BLOCK_WIDTH};
pub use ops::{AccelCost, StrAccelStats, Unsupported};
