//! # regex-engine
//!
//! A from-scratch PCRE-subset regular-expression engine built for the
//! ISCA 2017 PHP-acceleration reproduction.
//!
//! The paper replaces PCRE library calls with `regexp_sieve` /
//! `regexp_shadow` APIs and a content-reuse table that stores *FSM states*
//! (§4.5, §4.6). That dictates the architecture here: patterns compile
//! through a Thompson NFA into a **lazy DFA with an explicit, resumable FSM
//! table** — execution is a pure function of `(state, remaining bytes)`, so
//! a stored state can be jumped into at any time.
//!
//! ```
//! use regex_engine::Regex;
//! let re = Regex::new("<[a-z]+>")?;
//! let (found, stats) = re.is_match(b"hello <em>world</em>");
//! assert!(found);
//! assert!(stats.bytes_scanned > 0);
//! # Ok::<(), regex_engine::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dfa;
pub mod exec;
pub mod nfa;
pub mod parser;

pub use dfa::{DfaStateId, LazyDfa, RunOutcome};
pub use exec::{Match, Regex, ScanStats, SW_UOPS_PER_BYTE, SW_UOPS_PER_CALL};
pub use parser::{Ast, ClassSet, ParseError};
