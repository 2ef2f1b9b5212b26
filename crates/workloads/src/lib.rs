//! # workloads
//!
//! Synthetic reproductions of the paper's applications (§5.1): WordPress-,
//! Drupal-, and MediaWiki-like request handlers plus SPECWeb2005-style
//! hotspot microbenchmarks, driven by a warmup-then-measure load generator.
//! Every workload runs unmodified on both the baseline and the specialized
//! [`phpaccel_core::PhpMachine`].
//!
//! ```
//! use workloads::{AppKind, LoadGen};
//! use phpaccel_core::PhpMachine;
//!
//! let mut app = AppKind::WordPress.build(42);
//! let mut machine = PhpMachine::specialized();
//! let lg = LoadGen { warmup: 2, measured: 3, context_switch_every: 0 };
//! let summary = lg.run(app.as_mut(), &mut machine);
//! assert!(summary.total_uops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod corpus;
pub mod drupal;
pub mod http_client;
pub mod loadgen;
pub mod mediawiki;
pub mod mix;
pub mod php_corpus;
pub mod session;
pub mod specweb;
pub mod vmtail;
pub mod wordpress;

pub use arrival::{ArrivalConfig, ArrivalShape};
pub use corpus::{Corpus, CorpusConfig};
pub use drupal::Drupal;
pub use http_client::{read_client_response, ClientResponse, HttpClient};
pub use loadgen::{LoadGen, RunSummary, ShapedSummary, Workload};
pub use mediawiki::MediaWiki;
pub use mix::AppKind;
pub use session::{
    RequestKind, SessionConfig, SessionModel, SessionRequest, TrafficItem, TrafficPlan,
};
pub use specweb::{SpecVariant, SpecWeb};
pub use vmtail::VmTail;
pub use wordpress::WordPress;
