//! Pins the loop lowerings op by op. `lowering.txt` holds the `{:?}`
//! listing of every case below, in main and in a function, with fusion off
//! and on: `while`, `for` and `foreach` bodies that `break` and `continue`,
//! loops nested three ways, and `break`/`continue` outside any loop. The
//! compiler test `jumps_stay_in_bounds_after_fusion` only bounds the jump
//! targets; this file pins where each one lands.

use php_interp::{compile, parse, CompileOptions};

/// Each case's body, compiled as main's code and again as `f`'s.
const CASES: [(&str, &str); 5] = [
    (
        "while",
        "$i = 0; while ($i < 5) { $i = $i + 1; if ($i == 2) { continue; } \
         if ($i == 4) { break; } echo $i; }",
    ),
    (
        "for",
        "for ($i = 0; $i < 5; $i++) { if ($i == 1) { continue; } \
         if ($i == 3) { break; } echo 'x' . $i; }",
    ),
    (
        "foreach",
        "foreach ($a as $k => $v) { if ($k == 'b') { continue; } \
         if ($v > 2) { break; } echo $k, $v; }",
    ),
    (
        "nested",
        "for ($i = 0; $i < 3; $i++) { foreach ($a as $v) { \
         if ($v == $i) { continue; } break; } \
         while ($i < 1) { break; } if ($i == 2) { continue; } echo $i; }",
    ),
    ("outside", "while (false) { break; } break; continue;"),
];

/// Every case's listing at both `fuse` values, each body headed by its name
/// and each op by its index.
fn render() -> String {
    let mut out = String::new();
    for (case, body) in CASES {
        let prog = parse(&format!("{body} function f($a) {{ {body} }}")).unwrap();
        for fuse in [false, true] {
            out += &format!("==== {case} fuse={fuse}\n");
            let unit = compile(&prog, &[], None, CompileOptions { fuse });
            let bodies = std::iter::once(("main", &unit.main));
            let bodies = bodies.chain(unit.funcs.iter().map(|f| (f.name.as_str(), &f.code)));
            for (name, code) in bodies {
                out += &format!("{name}:\n");
                for (pc, op) in code.iter().enumerate() {
                    out += &format!("{pc:3} {op:?}\n");
                }
            }
        }
    }
    out
}

#[test]
fn loop_lowerings_match_the_pinned_listings() {
    let (got, want) = (render(), include_str!("lowering.txt"));
    let mut case = "";
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if w.starts_with("==== ") {
            case = w;
        }
        assert_eq!(g, w, "line {} ({case})", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
