//! The dense µop ledger against a string-keyed reference.
//!
//! `php_runtime::Profiler` indexes a vector by leaf id. The ledger it
//! replaced hashed the leaf's name into a `HashMap<String, _>` and let the
//! first category recorded for a name win. That ledger is kept here, in the
//! test only, and both are fed the same events: every reader the figures
//! and the benchmark use must answer the same.

use php_runtime::profile::{registered_leaves, Category, OpCost, ProfileRow, Profiler};
use phpaccel_core::{Engine, PhpMachine};
use std::collections::{HashMap, HashSet};
use workloads::php_corpus::CorpusCache;
use workloads::AppKind;

/// The string-keyed ledger `Profiler` used to be.
#[derive(Default)]
struct ReferenceLedger {
    funcs: HashMap<String, (Category, u64, OpCost)>,
    total: OpCost,
}

impl ReferenceLedger {
    fn record(&mut self, name: &str, category: Category, cost: OpCost) {
        self.total = self.total.plus(cost);
        let entry = self
            .funcs
            .entry(name.to_owned())
            .or_insert((category, 0, OpCost::default()));
        entry.1 += 1;
        entry.2 = entry.2.plus(cost);
    }

    fn category_breakdown(&self) -> HashMap<Category, u64> {
        let mut out = HashMap::new();
        for (category, _, cost) in self.funcs.values() {
            *out.entry(*category).or_insert(0) += cost.uops;
        }
        out
    }

    fn leaf_profile(&self) -> Vec<ProfileRow> {
        let total = self.total.uops.max(1) as f64;
        let mut rows: Vec<ProfileRow> = self
            .funcs
            .iter()
            .map(|(name, (category, calls, cost))| ProfileRow {
                name: name.clone(),
                category: *category,
                calls: *calls,
                uops: cost.uops,
                share: cost.uops as f64 / total,
            })
            .collect();
        rows.sort_by(|a, b| b.uops.cmp(&a.uops).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    fn reset(&mut self) {
        *self = ReferenceLedger::default();
    }
}

/// Moves the profiler's logged events into `reference` and requires every
/// reader to agree with it. Returns how many events there were.
fn drain_and_compare(prof: &Profiler, reference: &mut ReferenceLedger, what: &str) -> usize {
    let events = prof.take_event_log();
    for (leaf, cost) in &events {
        reference.record(leaf.name(), leaf.category(), *cost);
    }
    assert_eq!(prof.leaf_profile(), reference.leaf_profile(), "{what}");
    assert_eq!(
        prof.category_breakdown(),
        reference.category_breakdown(),
        "{what}"
    );
    assert_eq!(prof.total_cost(), reference.total, "{what}");
    assert_eq!(prof.total_uops(), reference.total.uops, "{what}");
    assert_eq!(prof.function_count(), reference.funcs.len(), "{what}");
    for (name, (category, calls, cost)) in &reference.funcs {
        let f = prof
            .function(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing from the ledger"));
        assert_eq!(
            (f.category, f.calls, f.cost),
            (Some(*category), *calls, *cost)
        );
    }
    events.len()
}

/// Runs `request` with recording paused and requires that the ledger, the
/// event log and the readers did not move.
fn paused_request_leaves_no_trace(m: &mut PhpMachine, request: impl FnOnce(&mut PhpMachine)) {
    let before = (
        m.ctx().profiler().total_cost(),
        m.ctx().profiler().leaf_profile(),
    );
    m.ctx().profiler().pause();
    request(m);
    m.ctx().profiler().resume();
    let prof = m.ctx().profiler();
    assert!(prof.take_event_log().is_empty());
    assert_eq!((prof.total_cost(), prof.leaf_profile()), before);
}

#[test]
fn corpus_on_both_engines_with_and_without_facts() {
    let corpus = CorpusCache::build();
    for engine in [Engine::TreeWalk, Engine::Vm] {
        for with_facts in [false, true] {
            let mut m = PhpMachine::specialized();
            m.set_engine(engine);
            m.ctx().set_arena_enabled(true);
            m.ctx().profiler().set_event_log(true);
            let mut reference = ReferenceLedger::default();
            let mut events = 0;
            for script in corpus.scripts() {
                let what = format!("{} {engine:?} facts={with_facts}", script.entry().name);
                script.run(&mut m, with_facts);
                m.recover_request();
                events += drain_and_compare(m.ctx().profiler(), &mut reference, &what);
            }
            assert!(events > 1_000, "only {events} events were logged");

            paused_request_leaves_no_trace(&mut m, |m| {
                corpus.scripts()[0].run(m, with_facts);
                m.recover_request();
            });

            // After a reset only what recurs counts, in both ledgers.
            m.ctx().profiler().reset();
            reference.reset();
            assert_eq!(m.ctx().profiler().function_count(), 0);
            corpus.scripts()[3].run(&mut m, with_facts);
            m.recover_request();
            drain_and_compare(m.ctx().profiler(), &mut reference, "after reset");
        }
    }
}

#[test]
fn fifty_requests_of_each_application() {
    for kind in AppKind::PHP_APPS {
        let mut app = kind.build(20170613);
        let mut m = PhpMachine::specialized();
        m.ctx().profiler().set_event_log(true);
        let mut reference = ReferenceLedger::default();
        for req in 0..50 {
            app.handle_request(&mut m, req);
            drain_and_compare(
                m.ctx().profiler(),
                &mut reference,
                &format!("{} request {req}", kind.label()),
            );
        }
        assert!(reference.funcs.len() > 150, "the VM tail alone is 150");

        paused_request_leaves_no_trace(&mut m, |m| app.handle_request(m, 50));

        m.reset_metrics();
        reference.reset();
        app.handle_request(&mut m, 51);
        drain_and_compare(m.ctx().profiler(), &mut reference, "after reset_metrics");
    }
}

/// The category lives in the descriptor and the name is the identity: the
/// registry holds one leaf per name, so "first category recorded wins" has
/// nothing left to decide.
#[test]
fn no_two_registered_leaves_share_a_name() {
    // Charge something on every path first so the registry is populated.
    let corpus = CorpusCache::build();
    let mut m = PhpMachine::specialized();
    m.set_engine(Engine::Vm);
    for script in corpus.scripts() {
        script.run(&mut m, true);
        m.recover_request();
    }
    for kind in AppKind::PHP_APPS {
        kind.build(1).handle_request(&mut m, 0);
    }
    let leaves = registered_leaves();
    assert!(leaves.len() > 150);
    let mut seen = HashSet::new();
    for leaf in leaves {
        assert!(seen.insert(leaf.name()), "{} registered twice", leaf.name());
    }
}
