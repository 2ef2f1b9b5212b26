//! # accel-regex
//!
//! The ISCA 2017 paper's **regexp acceleration techniques** (§4.5):
//!
//! * **Content Sifting** — a *sieve* regexp scans the content once and emits
//!   a per-segment **hint vector** of special-character presence (built by
//!   the string accelerator); subsequent *shadow* regexps consult the HV and
//!   skip clean segments. Whitespace padding keeps segment boundaries (and
//!   therefore the HV) valid when shadow regexps rewrite HTML content.
//! * **Content Reuse** — a 32-entry table keyed by `(PC, ASID)` remembers a
//!   ≤32-byte content prefix and the FSM state reached after it; a repeat
//!   scan of almost-identical content jumps straight to that state.
//!
//! ```
//! use accel_regex::sieve::{regexp_sieve, regexp_shadow};
//! use accel_string::StringAccel;
//! use regex_engine::Regex;
//!
//! let content = b"plain text then a 'quote' and lots more plain text after it";
//! let sieve_re = Regex::new("'")?;
//! let mut straccel = StringAccel::default();
//! let sieve = regexp_sieve(&sieve_re, content, 16, &mut straccel);
//! let shadow_re = Regex::new("\"")?;
//! let shadow = regexp_shadow(&shadow_re, content, &sieve.hv);
//! assert!(shadow.bytes_skipped > 0); // clean segments were never scanned
//! # Ok::<(), regex_engine::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hints;
pub mod padding;
pub mod prebuilt;
pub mod reuse;
pub mod sieve;
pub mod stats;

pub use hints::{HintVector, DEFAULT_SEGMENT_SIZE};
pub use padding::{replace_padded, PaddedEdit};
pub use prebuilt::{PrebuiltPattern, ShadowPlan};
pub use reuse::{run_with_reuse, ContentReuseTable, LookupOutcome, ReuseRun, ReuseStats};
pub use sieve::{regexp_shadow, regexp_sieve, ShadowMode, ShadowOutcome, SieveOutcome};
pub use stats::RegexAccelStats;
