//! Analysis-time pre-built pattern descriptors.
//!
//! When static analysis constant-propagates the pattern argument of a
//! `preg_*` call it can do every per-pattern derivation *once*, before the
//! first request: compile the FSM, decide whether the pattern is eligible
//! for hint-vector skipping (and with what lookback), collect the special
//! bytes it seeks, and extract its literal prefix. Per-request dispatch
//! then consults the descriptor instead of re-walking the AST — the same
//! split §4.5 makes between the sieve's configuration phase and its
//! per-content scan phase.

use crate::sieve::{regexp_shadow, ShadowOutcome};
use crate::HintVector;
use regex_engine::analysis::{
    literal_prefix, max_match_len, requires_special, sought_special_chars,
};
use regex_engine::{ParseError, Regex};
use std::sync::Arc;

/// How a pre-built pattern will behave under hint-vector skipping,
/// decided at analysis time (mirrors `sieve::skipping_plan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowPlan {
    /// May skip clean segments with this lookback width (bytes).
    Skip {
        /// Window widening applied on each side of a dirty run.
        lookback: usize,
    },
    /// `^`-anchored: single probe, nothing to skip.
    Anchored,
    /// Not provably special-seeking: full scan.
    FullScan,
}

/// A pattern compiled and analyzed ahead of the first request.
#[derive(Debug, Clone)]
pub struct PrebuiltPattern {
    /// Shared, so a copy of the descriptor runs on the same warm DFA.
    regex: Arc<Regex>,
    plan: ShadowPlan,
    special_bytes: Vec<u8>,
    literal_prefix: Vec<u8>,
}

impl PrebuiltPattern {
    /// Compiles `pattern` (bare, delimiters already stripped) and derives
    /// all per-pattern facts.
    pub fn compile(pattern: &str) -> Result<Self, ParseError> {
        Ok(Self::from_regex(Arc::new(Regex::new(pattern)?)))
    }

    /// Wraps a handle to an already compiled regex (e.g. the one the
    /// analysis compiled and the engines match on).
    pub fn from_regex(regex: Arc<Regex>) -> Self {
        let ast = regex.ast();
        let plan = if regex.anchored_start() {
            ShadowPlan::Anchored
        } else if !requires_special(ast) {
            ShadowPlan::FullScan
        } else if let Some(len) = max_match_len(ast) {
            ShadowPlan::Skip {
                lookback: len.saturating_sub(1),
            }
        } else {
            // Unbounded: skipping is sound iff every viable first byte is
            // special (a match can only start inside a dirty segment).
            let viable = regex.viable_first_bytes();
            let all_special = viable
                .iter()
                .enumerate()
                .all(|(b, &ok)| !ok || regex_engine::analysis::is_special_byte(b as u8));
            if all_special {
                ShadowPlan::Skip { lookback: 0 }
            } else {
                ShadowPlan::FullScan
            }
        };
        let special_bytes = sought_special_chars(ast);
        let prefix = literal_prefix(ast);
        PrebuiltPattern {
            regex,
            plan,
            special_bytes,
            literal_prefix: prefix,
        }
    }

    /// The compiled regex.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The skipping plan decided at analysis time.
    pub fn plan(&self) -> ShadowPlan {
        self.plan
    }

    /// Whether the pattern can act as a shadow regexp (skip clean segments).
    pub fn sieve_eligible(&self) -> bool {
        matches!(self.plan, ShadowPlan::Skip { .. })
    }

    /// Special bytes the pattern seeks (candidate sieve bytes).
    pub fn special_bytes(&self) -> &[u8] {
        &self.special_bytes
    }

    /// The pattern's literal prefix (memchr-style prefilter seed).
    pub fn literal_prefix(&self) -> &[u8] {
        &self.literal_prefix
    }

    /// Runs the shadow pass with the pre-built handle. Behaviourally
    /// identical to `regexp_shadow` on a freshly compiled regex — the win
    /// is that no compile or AST walk happened on the request path.
    pub fn shadow(&self, content: &[u8], hv: &HintVector) -> ShadowOutcome {
        regexp_shadow(&self.regex, content, hv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sieve::{regexp_sieve, ShadowMode};
    use accel_string::StringAccel;

    #[test]
    fn plans_match_sieve_eligibility() {
        let bounded = PrebuiltPattern::compile("'s").unwrap();
        assert_eq!(bounded.plan(), ShadowPlan::Skip { lookback: 1 });
        assert!(bounded.sieve_eligible());

        let unbounded_special = PrebuiltPattern::compile("<[a-z]+>").unwrap();
        assert_eq!(unbounded_special.plan(), ShadowPlan::Skip { lookback: 0 });

        let regular = PrebuiltPattern::compile("[a-z]+ing").unwrap();
        assert_eq!(regular.plan(), ShadowPlan::FullScan);
        assert!(!regular.sieve_eligible());

        let anchored = PrebuiltPattern::compile("^The").unwrap();
        assert_eq!(anchored.plan(), ShadowPlan::Anchored);
    }

    #[test]
    fn derived_facts_are_recorded() {
        let p = PrebuiltPattern::compile("<em>[a-z]+").unwrap();
        assert!(p.special_bytes().contains(&b'<'));
        assert_eq!(p.literal_prefix(), b"<em>");
    }

    #[test]
    fn prebuilt_shadow_agrees_with_fresh_compile() {
        let mut content = vec![b'x'; 512];
        content[100] = b'\'';
        content[300] = b'\'';
        let sieve_re = Regex::new("'").unwrap();
        let mut accel = StringAccel::default();
        let sieve = regexp_sieve(&sieve_re, &content, 32, &mut accel);

        let pre = PrebuiltPattern::compile("' ").unwrap();
        let out = pre.shadow(&content, &sieve.hv);
        let fresh = regexp_shadow(&Regex::new("' ").unwrap(), &content, &sieve.hv);
        assert_eq!(out.matches, fresh.matches);
        assert!(matches!(out.mode, ShadowMode::Skipping { .. }));
    }
}
