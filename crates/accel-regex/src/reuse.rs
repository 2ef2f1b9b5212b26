//! Content reuse table (§4.5, Figure 13; `regexlookup`/`regexset`, §4.6).
//!
//! "The reuse table is indexed by a regexp PC value, and address space
//! identifier (ASID). Each entry in the table has three fields — the first
//! stores the matching content seen last time when the regexp was executed,
//! the second captures the content size, and the third captures the state in
//! the FSM table that the regexp can advance to if the incoming content
//! finds a match with the first field."

use regex_engine::{DfaStateId, Regex};

/// Maximum stored content prefix ("The 'Content' field in the reuse table is
/// limited to a maximum of 32 bytes for efficiency reasons").
pub const MAX_CONTENT_BYTES: usize = 32;

/// One reuse-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReuseEntry {
    pc: u64,
    asid: u32,
    content: Vec<u8>, // ≤ MAX_CONTENT_BYTES
    size: usize,      // matched size recorded last time (0 = cleared)
    next_state: Option<DfaStateId>,
    last_access: u64,
}

/// Result of a `regexlookup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// PC, ASID, and content match: "the software can automatically jump to
    /// the FSM state located in the hardware table".
    Hit {
        /// Bytes of the subject that can be skipped.
        skip: usize,
        /// FSM state to resume from.
        state: DfaStateId,
    },
    /// Invalid-miss (PC/ASID miss or first byte differs): new content was
    /// installed, size and FSM fields cleared; software traverses normally.
    InvalidMiss,
    /// PC+ASID hit with a different non-zero matching size: content/size
    /// updated, software traverses and should store the state via
    /// [`ContentReuseTable::regexset`].
    Training {
        /// The new common-prefix length recorded.
        match_len: usize,
    },
}

/// Statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Lookups.
    pub lookups: u64,
    /// Full hits (prefix skipped).
    pub hits: u64,
    /// Invalid misses (entry (re)installed).
    pub invalid_misses: u64,
    /// Training accesses (size recorded, awaiting regexset).
    pub trainings: u64,
    /// regexset writes.
    pub sets: u64,
    /// Bytes skipped across all hits.
    pub bytes_skipped: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries corrupted by the fault-injection hook.
    pub faults_injected: u64,
    /// Corrupt entries caught by the parity check on lookup.
    pub faults_detected: u64,
}

/// The 32-entry content reuse table.
#[derive(Debug)]
pub struct ContentReuseTable {
    entries: Vec<Option<ReuseEntry>>,
    clock: u64,
    stats: ReuseStats,
    /// Slots whose stored state no longer passes parity (injected faults);
    /// caught on the slot's next lookup.
    corrupt: Vec<bool>,
}

impl Default for ContentReuseTable {
    fn default() -> Self {
        Self::new(32)
    }
}

impl ContentReuseTable {
    /// Builds a table with `capacity` entries (paper: 32).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ContentReuseTable {
            entries: vec![None; capacity],
            clock: 0,
            stats: ReuseStats::default(),
            corrupt: vec![false; capacity],
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &ReuseStats {
        &self.stats
    }

    /// Resets statistics counters (entries stay resident).
    pub fn reset_stats(&mut self) {
        self.stats = ReuseStats::default();
    }

    /// Live entry count.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    fn find(&mut self, pc: u64, asid: u32) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.pc == pc && e.asid == asid))
    }

    fn victim_slot(&self) -> usize {
        // First empty, else LRU.
        if let Some(i) = self.entries.iter().position(Option::is_none) {
            return i;
        }
        self.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.as_ref().map(|e| e.last_access).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("nonempty table")
    }

    /// `regexlookup pc, asid, content` — the three-scenario protocol of §4.5.
    pub fn regexlookup(&mut self, pc: u64, asid: u32, content: &[u8]) -> LookupOutcome {
        self.clock += 1;
        self.stats.lookups += 1;
        let now = self.clock;
        if let Some(i) = self.find(pc, asid) {
            if self.corrupt[i] {
                // Parity mismatch: drop the entry; the reinstall below is an
                // invalid-miss, so software traverses the content normally.
                self.corrupt[i] = false;
                self.entries[i] = None;
                self.stats.faults_detected += 1;
            }
        }
        match self.find(pc, asid) {
            None => {
                // PC/ASID miss → invalid-miss: install.
                let slot = self.victim_slot();
                if self.entries[slot].is_some() {
                    self.stats.evictions += 1;
                }
                self.corrupt[slot] = false;
                self.entries[slot] = Some(ReuseEntry {
                    pc,
                    asid,
                    content: content.iter().copied().take(MAX_CONTENT_BYTES).collect(),
                    size: 0,
                    next_state: None,
                    last_access: now,
                });
                self.stats.invalid_misses += 1;
                LookupOutcome::InvalidMiss
            }
            Some(i) => {
                let e = self.entries[i].as_mut().expect("found");
                e.last_access = now;
                let match_len = common_prefix_len(&e.content, content);
                if match_len == 0 || content.first() != e.content.first() {
                    // First byte differs → invalid-miss: overwrite in place.
                    e.content = content.iter().copied().take(MAX_CONTENT_BYTES).collect();
                    e.size = 0;
                    e.next_state = None;
                    self.stats.invalid_misses += 1;
                    return LookupOutcome::InvalidMiss;
                }
                if e.size > 0 && match_len == e.size {
                    if let Some(state) = e.next_state {
                        self.stats.hits += 1;
                        self.stats.bytes_skipped += match_len as u64;
                        return LookupOutcome::Hit {
                            skip: match_len,
                            state,
                        };
                    }
                }
                // Non-zero match of a different size (or size/state cleared):
                // record and train.
                e.content = content.iter().copied().take(MAX_CONTENT_BYTES).collect();
                e.size = match_len;
                e.next_state = None;
                self.stats.trainings += 1;
                LookupOutcome::Training { match_len }
            }
        }
    }

    /// `regexset pc, asid, state` — the software handler stores the FSM
    /// state it reached after traversing the recorded prefix.
    pub fn regexset(&mut self, pc: u64, asid: u32, state: DfaStateId) {
        self.stats.sets += 1;
        if let Some(i) = self.find(pc, asid) {
            if let Some(e) = self.entries[i].as_mut() {
                e.next_state = Some(state);
            }
        }
    }

    /// Flushes all entries for `asid` (process teardown). The parity check
    /// runs on each dropped entry, so a corrupt one counts as detected.
    pub fn flush_asid(&mut self, asid: u32) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.as_ref().is_some_and(|e| e.asid == asid) {
                *e = None;
                self.stats.faults_detected += u64::from(std::mem::take(&mut self.corrupt[i]));
            }
        }
    }

    /// Fault-injection hook: corrupts the `nth` occupied slot not already
    /// corrupt. The parity check catches it on that slot's next lookup,
    /// which then behaves as an invalid-miss (software traverses normally).
    /// Returns `false`, and counts nothing, when no occupied slot is left to
    /// corrupt.
    pub fn inject_entry_fault(&mut self, nth: usize) -> bool {
        let occupied: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|&(i, e)| e.is_some() && !self.corrupt[i])
            .map(|(i, _)| i)
            .collect();
        if occupied.is_empty() {
            return false;
        }
        self.corrupt[occupied[nth % occupied.len()]] = true;
        self.stats.faults_injected += 1;
        true
    }

    /// Full reset (the sandbox recovery path): drops every entry. The scrub's
    /// parity check finds any latent corruption as it drops it, and counts
    /// it as detected. Statistics stay.
    pub fn clear(&mut self) {
        for e in self.entries.iter_mut() {
            *e = None;
        }
        for c in self.corrupt.iter_mut() {
            self.stats.faults_detected += u64::from(std::mem::take(c));
        }
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Outcome of running a regexp through the reuse table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReuseRun {
    /// End offset of the match, if the subject matched (whole-subject run).
    pub match_end: Option<usize>,
    /// Bytes skipped thanks to a reuse hit.
    pub bytes_skipped: u64,
    /// Bytes the FSM actually stepped through.
    pub bytes_scanned: u64,
}

/// Runs an *anchored* regexp over `content` with reuse-table support: on a
/// hit the FSM resumes from the stored state past the common prefix; on a
/// training access the handler traverses fully and stores the reached state
/// with `regexset`. Results are always identical to a cold run.
pub fn run_with_reuse(
    re: &Regex,
    pc: u64,
    asid: u32,
    content: &[u8],
    table: &mut ContentReuseTable,
) -> ReuseRun {
    match table.regexlookup(pc, asid, content) {
        LookupOutcome::Hit { skip, state } => {
            let out = re.fsm_run_from(state, &content[skip..], true);
            ReuseRun {
                match_end: out.last_match_end.map(|e| e + skip),
                bytes_skipped: skip as u64,
                bytes_scanned: out.bytes_consumed as u64,
            }
        }
        LookupOutcome::InvalidMiss => {
            let (m, scanned) = re.match_at(content, 0);
            ReuseRun {
                match_end: m.map(|m| m.end),
                bytes_skipped: 0,
                bytes_scanned: scanned,
            }
        }
        LookupOutcome::Training { match_len } => {
            let (m, scanned) = re.match_at(content, 0);
            // Store the FSM state reached after the recorded prefix, if the
            // FSM survives it.
            if let Some(state) = re.fsm_state_after(&content[..match_len]) {
                table.regexset(pc, asid, state);
            }
            ReuseRun {
                match_end: m.map(|m| m.end),
                bytes_skipped: 0,
                bytes_scanned: scanned,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send-audit: per-core accelerator state must be movable into a worker
    /// thread (it stays worker-private, so `Sync` is not required).
    #[test]
    fn content_reuse_table_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ContentReuseTable>();
    }

    #[test]
    fn figure13_author_url_scenario() {
        // Figure 13: scanning two author URLs where only the name changes;
        // the second scan skips the common 26-byte prefix.
        let re = Regex::new("https://localhost/\\?author=[a-z]+").unwrap();
        let mut table = ContentReuseTable::default();
        let url_abc = b"https://localhost/?author=abc";
        let url_xyz = b"https://localhost/?author=xyz";

        // 1st access: invalid-miss (table empty).
        let r1 = run_with_reuse(&re, 0x401000, 7, url_abc, &mut table);
        assert_eq!(r1.match_end, Some(29));
        assert_eq!(r1.bytes_skipped, 0);

        // 2nd access with different name: training (prefix match size 26).
        let r2 = run_with_reuse(&re, 0x401000, 7, url_xyz, &mut table);
        assert_eq!(r2.match_end, Some(29));
        assert_eq!(r2.bytes_skipped, 0);
        assert_eq!(table.stats().trainings, 1);
        assert_eq!(table.stats().sets, 1);

        // 3rd access with yet another name: HIT, skips the 26-byte prefix.
        let url_def = b"https://localhost/?author=def";
        let r3 = run_with_reuse(&re, 0x401000, 7, url_def, &mut table);
        assert_eq!(
            r3.match_end,
            Some(29),
            "resumed run must agree with cold run"
        );
        assert_eq!(r3.bytes_skipped, 26);
        assert_eq!(table.stats().hits, 1);
    }

    #[test]
    fn first_byte_mismatch_is_invalid_miss() {
        let re = Regex::new("[a-z]+").unwrap();
        let mut t = ContentReuseTable::default();
        let _ = run_with_reuse(&re, 1, 1, b"aaaa", &mut t);
        let _ = run_with_reuse(&re, 1, 1, b"aabb", &mut t); // training
        let out = t.regexlookup(1, 1, b"zzzz"); // first byte differs
        assert_eq!(out, LookupOutcome::InvalidMiss);
        assert_eq!(t.stats().invalid_misses, 2);
    }

    #[test]
    fn distinct_pcs_and_asids_are_separate() {
        let mut t = ContentReuseTable::default();
        assert_eq!(t.regexlookup(1, 1, b"abc"), LookupOutcome::InvalidMiss);
        assert_eq!(t.regexlookup(2, 1, b"abc"), LookupOutcome::InvalidMiss);
        assert_eq!(t.regexlookup(1, 2, b"abc"), LookupOutcome::InvalidMiss);
        assert_eq!(t.occupancy(), 3);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = ContentReuseTable::new(2);
        let _ = t.regexlookup(1, 0, b"a");
        let _ = t.regexlookup(2, 0, b"b");
        let _ = t.regexlookup(1, 0, b"a"); // touch 1 → 2 becomes LRU
        let _ = t.regexlookup(3, 0, b"c");
        assert_eq!(t.stats().evictions, 1);
        // PC 2 was evicted; PC 1 must still be resident (no new install).
        let misses_before = t.stats().invalid_misses;
        let _ = t.regexlookup(1, 0, b"a");
        assert_eq!(
            t.stats().invalid_misses,
            misses_before,
            "pc 1 still resident"
        );
    }

    #[test]
    fn content_field_capped_at_32_bytes() {
        let re = Regex::new("[a-z/:.?=]+").unwrap();
        let mut t = ContentReuseTable::default();
        let long_a = b"https://example.com/very/long/path/aaaa";
        let long_b = b"https://example.com/very/long/path/bbbb";
        let _ = run_with_reuse(&re, 9, 0, long_a, &mut t);
        let _ = run_with_reuse(&re, 9, 0, long_b, &mut t); // training: prefix capped at 32
        let long_c = b"https://example.com/very/long/path/cccc";
        let r = run_with_reuse(&re, 9, 0, long_c, &mut t);
        assert_eq!(
            r.bytes_skipped, 32,
            "skip capped at the 32-byte content field"
        );
        assert_eq!(r.match_end, Some(long_c.len()));
    }

    #[test]
    fn reuse_works_even_with_special_chars() {
        // §4.5: "with content reuse the regexps can skip processing content
        // even in the presence of special characters which content sifting
        // technique can not."
        let re = Regex::new("<a href=\"/\\?author=[a-z]+\">").unwrap();
        let mut t = ContentReuseTable::default();
        let a = b"<a href=\"/?author=ann\">";
        let b = b"<a href=\"/?author=bob\">";
        let c = b"<a href=\"/?author=cat\">";
        let _ = run_with_reuse(&re, 5, 0, a, &mut t);
        let _ = run_with_reuse(&re, 5, 0, b, &mut t);
        let r = run_with_reuse(&re, 5, 0, c, &mut t);
        assert!(r.bytes_skipped > 0);
        assert_eq!(r.match_end, Some(c.len()));
    }

    #[test]
    fn corrupt_entry_detected_and_results_stay_correct() {
        let re = Regex::new("https://localhost/\\?author=[a-z]+").unwrap();
        let mut t = ContentReuseTable::default();
        let a = b"https://localhost/?author=abc";
        let b = b"https://localhost/?author=xyz";
        let c = b"https://localhost/?author=def";
        let _ = run_with_reuse(&re, 1, 0, a, &mut t);
        let _ = run_with_reuse(&re, 1, 0, b, &mut t); // trained
        assert!(t.inject_entry_fault(0));
        // Instead of a (corrupt) hit, the lookup detects the fault and the
        // run degrades to a full traversal with an identical result.
        let r = run_with_reuse(&re, 1, 0, c, &mut t);
        assert_eq!(r.match_end, Some(c.len()));
        assert_eq!(r.bytes_skipped, 0, "no skip through a corrupt entry");
        assert_eq!(t.stats().faults_detected, 1);
        // The table re-trains and hits again afterwards.
        let _ = run_with_reuse(&re, 1, 0, a, &mut t);
        let r2 = run_with_reuse(&re, 1, 0, b, &mut t);
        assert_eq!(r2.match_end, Some(b.len()));
        assert!(r2.bytes_skipped > 0, "recovered to hitting");
    }

    #[test]
    fn clear_drops_entries_and_corruption() {
        let mut t = ContentReuseTable::default();
        let _ = t.regexlookup(1, 0, b"abc");
        t.inject_entry_fault(0);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        // The scrub finds the latent fault as it drops it, and only once.
        assert_eq!(t.stats().faults_detected, 1);
        let _ = t.regexlookup(1, 0, b"abc");
        assert_eq!(t.stats().faults_detected, 1);
    }

    #[test]
    fn inject_on_empty_table_reports_nothing() {
        let mut t = ContentReuseTable::default();
        assert!(!t.inject_entry_fault(0));
        assert_eq!(t.stats().faults_injected, 0);
    }

    #[test]
    fn inject_skips_a_slot_already_corrupt() {
        let mut t = ContentReuseTable::default();
        let _ = t.regexlookup(1, 0, b"abc");
        assert!(t.inject_entry_fault(0));
        // The one occupied slot is corrupt: nothing is left to corrupt, so
        // the second fault is not counted (the server keeps it pending).
        assert!(!t.inject_entry_fault(0));
        assert_eq!(t.stats().faults_injected, 1);
        assert_eq!(t.regexlookup(1, 0, b"abc"), LookupOutcome::InvalidMiss);
        assert_eq!(t.stats().faults_detected, 1);
    }

    #[test]
    fn flush_asid_clears_process_entries() {
        let mut t = ContentReuseTable::default();
        let _ = t.regexlookup(1, 7, b"x");
        let _ = t.regexlookup(2, 8, b"y");
        t.inject_entry_fault(0);
        t.inject_entry_fault(1);
        t.flush_asid(7);
        assert_eq!(t.occupancy(), 1);
        // Only the flushed process's corrupt entry is found; the other stays
        // latent until its own lookup.
        assert_eq!(t.stats().faults_detected, 1);
        let _ = t.regexlookup(2, 8, b"y");
        assert_eq!(t.stats().faults_detected, 2);
    }
}
