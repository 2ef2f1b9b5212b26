//! # accel-htable
//!
//! Model of the ISCA 2017 paper's **hardware hash table** (§4.2, Figure 6):
//! a 512-entry table probed 4-consecutive-entries-at-a-time, serving both
//! GET and SET requests fully in hardware, with a **reverse translation
//! table** (RTT) of circular back-pointer buffers that implements map
//! `Free` and insertion-ordered `foreach`, and write-back coherence with
//! the software [`php_runtime::PhpArray`].
//!
//! ```
//! use accel_htable::{HwHashTable, GetOutcome};
//! let mut ht = HwHashTable::default();
//! ht.set(0x1000, b"author", 0xBEEF);                 // SET never misses
//! assert_eq!(ht.get(0x1000, b"author"), GetOutcome::Hit { value_ptr: 0xBEEF });
//! assert_eq!(ht.get(0x1000, b"missing"), GetOutcome::Miss); // zero flag → software
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod rtt;
pub mod stats;
pub mod table;

pub use entry::{Entry, SmallKey, MAX_KEY_BYTES};
pub use rtt::{OrderReplay, Rtt};
pub use stats::HtStats;
pub use table::{
    Eviction, ForeachOutcome, GetOutcome, HtConfig, HwHashTable, KeyShapeHint, SetOutcome,
};
