//! Variables in frame slots: a variable access on the VM is not a hash-map
//! access, so it must meter none of the events a symbol table would.

use php_interp::{compile, parse, CompileOptions, Vm};
use php_runtime::Category;
use phpaccel_core::PhpMachine;
use std::sync::Arc;

/// A call whose body only moves its parameter through a local: on the
/// tree-walker (and on the VM before slots) that is a symbol-table `malloc`,
/// three hash SETs, two GETs and a `free`. On the VM the event log must hold
/// no hash-map and no heap event at all, on either machine.
#[test]
fn a_call_through_locals_records_no_hash_or_heap_event() {
    let src = "function f($a) { $b = $a; return $b; } $r = f('v'); echo $r;";
    let program = parse(src).unwrap();
    let unit = Arc::new(compile(&program, &[], None, CompileOptions::default()));
    for mut m in [PhpMachine::baseline(), PhpMachine::specialized()] {
        m.ctx().profiler().set_event_log(true);
        let mut vm = Vm::new(&mut m, Arc::clone(&unit));
        vm.run().unwrap();
        assert_eq!(vm.output(), b"v");
        let log = m.ctx().profiler().take_event_log();
        assert!(
            !log.is_empty(),
            "dispatch, type checks and refcounts are metered"
        );
        let table_events: Vec<&str> = log
            .iter()
            .filter(|(leaf, _)| matches!(leaf.category(), Category::HashMap | Category::Heap))
            .map(|(leaf, _)| leaf.name())
            .collect();
        assert_eq!(table_events, Vec::<&str>::new(), "{:?}", m.mode());
    }
}
