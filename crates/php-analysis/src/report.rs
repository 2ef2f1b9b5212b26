//! Human-readable results: per-scope statistics and lint diagnostics, and
//! the allowlist `analyze --gate` holds the lints against.

use std::fmt;

/// The diagnostics the lint passes produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A variable is read on a path where it was never assigned.
    UseBeforeAssign,
    /// A value assigned to a variable is never read.
    DeadStore,
    /// An `is_*` type guard whose outcome is statically known.
    AlwaysTrueGuard,
    /// A branch or loop condition that folds to a constant.
    ConstantCondition,
    /// Unsanitized request input reaches an echo/regex/hash-table sink
    /// (see [`crate::taint`]).
    TaintedSink,
    /// An allocation site whose value may outlive the request (reaches a
    /// global, a cross-request consumer, or an `extract`-poisoned scope) —
    /// excluded from arena allocation (see [`crate::region`]).
    CrossRequestEscape,
    /// A call whose callee is cache-shaped (write-free, non-escaping
    /// arguments) but depends on `rand`/`time`: memoizing it would replay a
    /// stale draw and change program output (see [`crate::effects`]).
    NondeterministicCacheable,
}

impl LintKind {
    /// Every lint kind, in declaration order — the single registry
    /// `analyze --gate` and its allowlist parser resolve names against.
    pub const ALL: [LintKind; 7] = [
        LintKind::UseBeforeAssign,
        LintKind::DeadStore,
        LintKind::AlwaysTrueGuard,
        LintKind::ConstantCondition,
        LintKind::TaintedSink,
        LintKind::CrossRequestEscape,
        LintKind::NondeterministicCacheable,
    ];

    /// The stable kebab-case name, as printed inside `[...]` in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::UseBeforeAssign => "use-before-assign",
            LintKind::DeadStore => "dead-store",
            LintKind::AlwaysTrueGuard => "type-guard",
            LintKind::ConstantCondition => "constant-condition",
            LintKind::TaintedSink => "tainted-sink",
            LintKind::CrossRequestEscape => "cross-request-escape",
            LintKind::NondeterministicCacheable => "nondeterministic-cacheable",
        }
    }

    /// Resolves a kind from its [`LintKind::name`].
    pub fn from_name(name: &str) -> Option<LintKind> {
        LintKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses allowlist text (`scripts/taint-allowlist.txt` format): one
/// substring pattern per line, blank lines and `#` comments ignored. A
/// pattern beginning with `[kind]` must name a registered [`LintKind`] —
/// a typoed kind would otherwise silently never match anything and the gate
/// would reject the lint it was meant to excuse.
pub fn parse_allowlist(text: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let kind = rest.split(']').next().unwrap_or("");
            if LintKind::from_name(kind).is_none() {
                return Err(format!(
                    "allowlist line {}: unknown lint kind [{kind}] (known: {})",
                    i + 1,
                    LintKind::ALL.map(LintKind::name).join(", ")
                ));
            }
        }
        out.push(line.to_string());
    }
    Ok(out)
}

/// One diagnostic, attributed to the scope it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Which lint fired.
    pub kind: LintKind,
    /// `"<main>"` or the function name.
    pub scope: String,
    /// What happened, mentioning the variable or expression involved.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.scope, self.message)
    }
}

/// Per-scope analysis statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeReport {
    /// `"<main>"` or the function name.
    pub name: String,
    /// Basic blocks in the scope's CFG.
    pub blocks: usize,
    /// `BinOp` nodes seen.
    pub bin_ops: usize,
    /// Operand slots (two per `BinOp`).
    pub operand_slots: usize,
    /// Operand slots whose type was proven.
    pub typed_operands: usize,
    /// Variable reads whose refcount increment is elidable.
    pub rc_elided_reads: usize,
    /// Stores (assignments / foreach bindings) whose refcount pair is
    /// elidable.
    pub rc_elided_stores: usize,
    /// Array accesses with a proven constant-string key.
    pub const_str_sites: usize,
    /// Array appends proven to insert a fresh integer key.
    pub int_append_sites: usize,
    /// User-call sites resolved through an interprocedural summary.
    pub summarized_calls: usize,
    /// `preg_*` sites whose constant pattern was compiled at analysis time.
    pub preg_precompiled: usize,
    /// Allocation sites proven to die with the request (arena-eligible).
    pub arena_safe_sites: usize,
    /// Allocation sites that may outlive the request (free-list path).
    pub cross_request_sites: usize,
    /// Call sites the effect analysis proved memoizable across requests.
    pub memo_sites: usize,
}

impl ScopeReport {
    /// Fraction of `BinOp` operand slots with a proven type, in percent.
    pub fn type_coverage_pct(&self) -> f64 {
        if self.operand_slots == 0 {
            100.0
        } else {
            100.0 * self.typed_operands as f64 / self.operand_slots as f64
        }
    }
}

impl fmt::Display for ScopeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} blocks={:<3} type-coverage={:>5.1}% ({}/{} operands) \
             rc-elide reads={} stores={} keys const-str={} int-append={} \
             arena safe={} escaping={} memo={}",
            self.name,
            self.blocks,
            self.type_coverage_pct(),
            self.typed_operands,
            self.operand_slots,
            self.rc_elided_reads,
            self.rc_elided_stores,
            self.const_str_sites,
            self.int_append_sites,
            self.arena_safe_sites,
            self.cross_request_sites,
            self.memo_sites,
        )
    }
}

/// The whole program's report: one entry per scope plus all lints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-scope statistics, `<main>` first.
    pub scopes: Vec<ScopeReport>,
    /// All diagnostics, in discovery order.
    pub lints: Vec<Lint>,
    /// Per-function effect summaries (empty when the interprocedural
    /// pipeline is off), for the `analyze` binary's effect table.
    pub effects: Vec<crate::effects::FuncEffect>,
}

impl Report {
    /// Total proven operand slots across scopes.
    pub fn typed_operands(&self) -> usize {
        self.scopes.iter().map(|s| s.typed_operands).sum()
    }

    /// Total elidable refcount sites (reads + stores) across scopes.
    pub fn rc_elided_sites(&self) -> usize {
        self.scopes
            .iter()
            .map(|s| s.rc_elided_reads + s.rc_elided_stores)
            .sum()
    }

    /// Total call sites resolved through a function summary.
    pub fn summarized_calls(&self) -> usize {
        self.scopes.iter().map(|s| s.summarized_calls).sum()
    }

    /// Total `preg_*` patterns compiled at analysis time.
    pub fn preg_precompiled(&self) -> usize {
        self.scopes.iter().map(|s| s.preg_precompiled).sum()
    }

    /// Total arena-safe allocation sites across scopes.
    pub fn arena_safe_sites(&self) -> usize {
        self.scopes.iter().map(|s| s.arena_safe_sites).sum()
    }

    /// Total cross-request-escaping allocation sites across scopes.
    pub fn cross_request_sites(&self) -> usize {
        self.scopes.iter().map(|s| s.cross_request_sites).sum()
    }

    /// Total proven-memoizable call sites across scopes.
    pub fn memo_sites(&self) -> usize {
        self.scopes.iter().map(|s| s.memo_sites).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_every_name() {
        for kind in LintKind::ALL {
            assert_eq!(LintKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(LintKind::from_name("no-such-lint"), None);
    }

    #[test]
    fn allowlist_parser_keeps_patterns_and_validates_kinds() {
        let text = "# comment\n\n[tainted-sink] <main>: echo sink ($q)\nplain substring\n";
        let pats = parse_allowlist(text).unwrap();
        assert_eq!(
            pats,
            vec![
                "[tainted-sink] <main>: echo sink ($q)".to_string(),
                "plain substring".to_string(),
            ]
        );
        let err = parse_allowlist("[taint-sink] typoed kind").unwrap_err();
        assert!(err.contains("unknown lint kind"), "{err}");
        assert!(err.contains("tainted-sink"), "lists known names: {err}");
    }
}
