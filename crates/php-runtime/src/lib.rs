//! # php-runtime
//!
//! The PHP-like runtime substrate for the ISCA 2017 *"Architectural Support
//! for Server-Side PHP Processing"* reproduction.
//!
//! Real PHP applications spend their time in VM library routines, not in
//! JIT-compiled code (paper Figure 1). This crate provides those routines in
//! instrumented form: every operation charges a simulated micro-op cost to a
//! leaf-function [`profile::Profiler`], tagged with the paper's activity
//! categories (hash map, heap, string, regex, type checks, refcounting).
//!
//! ## Quick example
//!
//! ```
//! use php_runtime::context::RuntimeContext;
//! use php_runtime::array::ArrayKey;
//! use php_runtime::value::PhpValue;
//!
//! let ctx = RuntimeContext::new();
//! let mut post = ctx.new_array();
//! ctx.array_set(&mut post, ArrayKey::from("title"), PhpValue::from("Hello"));
//! let title = ctx.array_get(&post, &ArrayKey::from("title")).unwrap();
//! assert!(title.loose_eq(&PhpValue::from("Hello")));
//! assert!(ctx.profiler().total_uops() > 0); // costs were metered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod array;
pub mod context;
pub mod profile;
pub mod refcount;
pub mod strfuncs;
pub mod string;
pub mod symtab;
pub mod value;

pub use array::{ArrayKey, PhpArray};
pub use context::{AccessStatic, RuntimeContext};
pub use profile::{Category, Leaf, OpCost, Profiler, StaticSavings};
pub use string::PhpStr;
pub use value::PhpValue;
