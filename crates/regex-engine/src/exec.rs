//! Match/search/replace drivers with byte-level cost accounting.
//!
//! Software regexp processing is "built around a character-at-a-time
//! sequential processing model that introduces high microarchitectural
//! costs" (§4.5). Every driver here reports how many bytes it actually
//! processed so the accelerator layer can quantify skipped work.

use crate::dfa::{DfaStateId, LazyDfa, RunOutcome};
use crate::nfa::Nfa;
use crate::parser::{parse, Ast, ParseError};
use std::sync::{Mutex, OnceLock};

/// µops charged per byte stepped through the software FSM (table load,
/// index arithmetic, branch).
pub const SW_UOPS_PER_BYTE: u64 = 6;
/// Fixed µop overhead per regexp call (PCRE setup, arg marshalling).
pub const SW_UOPS_PER_CALL: u64 = 45;

/// A match span (byte offsets into the subject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Start offset (inclusive).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl Match {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Scan-cost report attached to every driver result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Bytes the FSM actually stepped through.
    pub bytes_scanned: u64,
    /// Simulated software µops ( [`SW_UOPS_PER_CALL`] + bytes × [`SW_UOPS_PER_BYTE`] ).
    pub uops: u64,
}

impl ScanStats {
    fn from_bytes(bytes: u64) -> Self {
        ScanStats {
            bytes_scanned: bytes,
            uops: SW_UOPS_PER_CALL + bytes * SW_UOPS_PER_BYTE,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: ScanStats) -> ScanStats {
        ScanStats {
            bytes_scanned: self.bytes_scanned + other.bytes_scanned,
            uops: self.uops + other.uops,
        }
    }
}

/// A compiled regular expression.
///
/// Interior caches (the lazily materialized DFA and the first-byte
/// prefilter) sit behind a `Mutex`/`OnceLock`, so a compiled handle is
/// `Send + Sync` and can be shared across worker threads — analysis-time
/// precompiled patterns live in an `Arc`'d facts table that every worker
/// reads. It is deliberately not `Clone`: share one instance behind an
/// `Arc`, so the instance that is kept is the one whose caches get warm.
#[derive(Debug)]
pub struct Regex {
    pattern: String,
    ast: Ast,
    /// Anchored-at-position DFA (its state ids are the FSM-table states the
    /// content-reuse accelerator stores).
    anchored: Mutex<LazyDfa>,
    /// Whether the pattern began with `^`.
    anchored_start: bool,
    /// Lazily computed set of viable first bytes (prefilter).
    first_bytes: OnceLock<Box<[bool; 256]>>,
}

impl Regex {
    /// Compiles `pattern`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for unsupported or malformed syntax.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        let ast = parse(pattern)?;
        let nfa = Nfa::compile(&ast);
        let anchored_start = nfa.anchored_start();
        Ok(Regex {
            pattern: pattern.to_owned(),
            ast,
            anchored: Mutex::new(LazyDfa::new(nfa, false)),
            anchored_start,
            first_bytes: OnceLock::new(),
        })
    }

    /// Locks the DFA cache (poisoning is tolerated: the cache is always in a
    /// consistent state between public calls, so a panicking thread cannot
    /// leave it half-written in a way later matches would observe).
    fn dfa(&self) -> std::sync::MutexGuard<'_, LazyDfa> {
        self.anchored.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The parsed AST (used by [`crate::analysis`]).
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// Whether the pattern is `^`-anchored.
    pub fn anchored_start(&self) -> bool {
        self.anchored_start
    }

    fn first_byte_ok(&self, b: u8) -> bool {
        let table = self.first_bytes.get_or_init(|| {
            let mut table = Box::new([false; 256]);
            let mut dfa = self.dfa();
            let start = dfa.start_state();
            let start_is_match = dfa.is_match(start);
            for byte in 0..256usize {
                table[byte] = start_is_match || dfa.transition(start, byte).is_some();
            }
            table
        });
        table[b as usize]
    }

    /// The set of bytes that can begin a match (false ⇒ no match can start
    /// on that byte). Used by prefilters and by the shadow scanner's
    /// eligibility analysis.
    pub fn viable_first_bytes(&self) -> [bool; 256] {
        let mut out = [false; 256];
        for (b, slot) in out.iter_mut().enumerate() {
            *slot = self.first_byte_ok(b as u8);
        }
        out
    }

    /// Longest match starting exactly at `pos`. Also reports bytes scanned.
    pub fn match_at(&self, subject: &[u8], pos: usize) -> (Option<Match>, u64) {
        let mut dfa = self.dfa();
        let start = dfa.start_state();
        let out = dfa.run_from(start, &subject[pos..], true);
        let m = out.last_match_end.map(|end| Match {
            start: pos,
            end: pos + end,
        });
        (m, out.bytes_consumed as u64 + 1)
    }

    /// Leftmost-longest search starting at `from`.
    pub fn find_at(&self, subject: &[u8], from: usize) -> (Option<Match>, ScanStats) {
        let mut scanned = 0u64;
        if self.anchored_start {
            if from == 0 {
                let (m, b) = self.match_at(subject, 0);
                return (m, ScanStats::from_bytes(b));
            }
            return (None, ScanStats::from_bytes(0));
        }
        let mut pos = from;
        while pos <= subject.len() {
            // Prefilter: skip bytes that cannot start a match (cheap compare,
            // counted as a quarter of an FSM step).
            if pos < subject.len() && !self.first_byte_ok(subject[pos]) {
                scanned += 1;
                pos += 1;
                continue;
            }
            let (m, b) = self.match_at(subject, pos);
            scanned += b;
            if let Some(m) = m {
                return (Some(m), ScanStats::from_bytes(scanned));
            }
            pos += 1;
        }
        (None, ScanStats::from_bytes(scanned))
    }

    /// `preg_match`-style boolean search.
    pub fn is_match(&self, subject: &[u8]) -> (bool, ScanStats) {
        let (m, s) = self.find_at(subject, 0);
        (m.is_some(), s)
    }

    /// All non-overlapping matches.
    pub fn find_all(&self, subject: &[u8]) -> (Vec<Match>, ScanStats) {
        let mut out = Vec::new();
        let mut stats = ScanStats::default();
        let mut pos = 0;
        while pos <= subject.len() {
            let (m, s) = self.find_at(subject, pos);
            stats = stats.plus(s);
            match m {
                Some(m) => {
                    pos = if m.is_empty() { m.end + 1 } else { m.end };
                    out.push(m);
                    if self.anchored_start {
                        break;
                    }
                }
                None => break,
            }
        }
        (out, stats)
    }

    /// `preg_replace` with a literal replacement. Returns
    /// `(result, replacements, stats)`.
    pub fn replace_all(&self, subject: &[u8], replacement: &[u8]) -> (Vec<u8>, usize, ScanStats) {
        let (matches, stats) = self.find_all(subject);
        let mut out = Vec::with_capacity(subject.len());
        let mut last = 0;
        for m in &matches {
            out.extend_from_slice(&subject[last..m.start]);
            out.extend_from_slice(replacement);
            last = m.end;
        }
        out.extend_from_slice(&subject[last..]);
        (out, matches.len(), stats)
    }

    // -- FSM-table interface (content reuse, §4.5) ---------------------------

    /// FSM state after consuming `prefix` from the start (`None` if dead) —
    /// the value `regexset` stores in the reuse table.
    pub fn fsm_state_after(&self, prefix: &[u8]) -> Option<DfaStateId> {
        self.dfa().state_after(prefix)
    }

    /// Resumes the anchored FSM from a stored state over `rest`.
    pub fn fsm_run_from(&self, state: DfaStateId, rest: &[u8], at_end: bool) -> RunOutcome {
        self.dfa().run_from(state, rest, at_end)
    }

    /// Number of FSM states materialized (table footprint).
    pub fn fsm_states(&self) -> usize {
        self.dfa().materialized_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap()
    }

    #[test]
    fn find_leftmost_longest() {
        let r = re("a+");
        let (m, _) = r.find_at(b"xxaaayaa", 0);
        let m = m.unwrap();
        assert_eq!((m.start, m.end), (2, 5));
    }

    #[test]
    fn find_at_offset() {
        let r = re("ab");
        let (m, _) = r.find_at(b"ab ab", 1);
        assert_eq!(m.unwrap().start, 3);
    }

    #[test]
    fn anchored_start_only_matches_at_zero() {
        let r = re("^ab");
        assert!(r.find_at(b"abxx", 0).0.is_some());
        assert!(r.find_at(b"xxab", 0).0.is_none());
        assert!(r.find_at(b"ab", 1).0.is_none());
    }

    #[test]
    fn find_all_nonoverlapping() {
        let r = re("aa");
        let (ms, _) = r.find_all(b"aaaa");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0], Match { start: 0, end: 2 });
        assert_eq!(ms[1], Match { start: 2, end: 4 });
    }

    #[test]
    fn replace_all_literal() {
        let r = re("'");
        let (out, n, _) = r.replace_all(b"it's bob's", b"&#8217;");
        assert_eq!(out, b"it&#8217;s bob&#8217;s");
        assert_eq!(n, 2);
    }

    #[test]
    fn replace_with_class_pattern() {
        let r = re("[0-9]+");
        let (out, n, _) = r.replace_all(b"a1b22c333", b"#");
        assert_eq!(out, b"a#b#c#");
        assert_eq!(n, 3);
    }

    #[test]
    fn empty_match_advances() {
        let r = re("x*");
        let (ms, _) = r.find_all(b"ab");
        assert!(!ms.is_empty()); // matches empty at positions; must terminate
    }

    #[test]
    fn scan_stats_scale_with_subject() {
        let r = re("zebra");
        let (_, small) = r.is_match(b"no match here");
        let big_subject = vec![b'a'; 10_000];
        let (_, big) = r.is_match(&big_subject);
        assert!(big.bytes_scanned > small.bytes_scanned * 10);
        assert!(big.uops > big.bytes_scanned); // per-call overhead included
    }

    #[test]
    fn prefilter_does_not_change_semantics() {
        let r = re("needle");
        let mut subject = vec![b'.'; 1000];
        subject.extend_from_slice(b"needle");
        let (m, _) = r.find_at(&subject, 0);
        assert_eq!(m.unwrap().start, 1000);
    }

    #[test]
    fn fsm_resume_equals_fresh_run() {
        let r = re("https://[a-z]+/\\?author=[a-z]+");
        let url = b"https://localhost/?author=abc";
        let split = 26; // "https://localhost/?author="
        let state = r.fsm_state_after(&url[..split]).unwrap();
        let resumed = r.fsm_run_from(state, &url[split..], true);
        let (full, _) = r.match_at(url, 0);
        assert_eq!(
            resumed.last_match_end.map(|e| e + split),
            full.map(|m| m.end)
        );
    }

    #[test]
    fn dollar_anchor_end() {
        let r = re("\\.php$");
        assert!(r.is_match(b"index.php").0);
        assert!(!r.is_match(b"index.php.bak").0);
    }

    #[test]
    fn regex_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Regex>();
    }

    #[test]
    fn shared_handle_matches_identically_across_threads() {
        let r = std::sync::Arc::new(re("wor[a-z]+"));
        let (expect, _) = r.find_at(b"hello world", 0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || r.find_at(b"hello world", 0).0)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn first_byte_table_is_computed_once_per_instance() {
        let r = re("ab+c");
        assert!(r.first_bytes.get().is_none(), "lazy until the first search");
        assert!(r.is_match(b"xxabbc").0);
        let table = r.first_bytes.get().expect("the search built it").as_ptr();
        let states = r.fsm_states();
        assert!(r.is_match(b"xxabbc").0);
        assert_eq!(r.first_bytes.get().unwrap().as_ptr(), table);
        assert_eq!(r.fsm_states(), states, "a warm DFA grows no states");
    }

    #[test]
    fn wordpress_texturize_style_patterns() {
        // The paper's Figure 11 patterns seek apostrophes, quotes, newlines,
        // and '<' — check representative simplified forms.
        let r = re("'(?:s|t|ll)");
        assert!(r.is_match(b"it's fine").0);
        let quotes = re("\"[^\"]*\"");
        let (m, _) = quotes.find_at(br#"say "hello" now"#, 0);
        assert_eq!(m.unwrap().len(), 7);
        let tag = re("<[a-z]+>");
        assert!(tag.is_match(b"a <b> c").0);
        assert!(!tag.is_match(b"a < b > c").0);
    }
}
