//! # php-interp
//!
//! A mini-PHP interpreter over [`phpaccel_core::PhpMachine`]. Scripts —
//! templates, request handlers — run with PHP semantics while every
//! variable access, string function, allocation, and regexp call flows
//! through the instrumented runtime (and, in specialized mode, through the
//! paper's accelerators). Symbol tables are real [`php_runtime::PhpArray`]
//! hash maps, reproducing §4.2's dynamic-key symbol-table traffic.
//!
//! ```
//! use php_interp::Interp;
//! use phpaccel_core::PhpMachine;
//!
//! let mut machine = PhpMachine::specialized();
//! let mut interp = Interp::new(&mut machine);
//! interp.run("$who = 'world'; echo 'hello ' . $who;")?;
//! assert_eq!(interp.output(), b"hello world");
//! # Ok::<(), php_interp::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod eval;
pub mod facts;
pub mod lexer;
pub mod memo;
pub mod parser;
pub mod vm;

pub use ast::{BinOp, Expr, FuncDef, Program, Stmt};
pub use builtins::NAMES as BUILTIN_NAMES;
pub use compile::{
    compile, CompileOptions, CompiledFunc, CompiledUnit, MemoSiteInfo, Op, OpKind, Operand, SlotMap,
};
pub use eval::{strip_delimiters, ErrorKind, Interp, RuntimeError};
pub use facts::{AnalysisFacts, KeyShape, MemoSiteFact, NodeId};
pub use memo::{MemoCache, MemoCacheStats, MemoHandle, MemoHit, MemoTier, MemoValue};
pub use parser::{parse, ParseError};
pub use vm::{OpcodeTally, Vm};
