//! Builtin function bridge: mini-PHP builtins dispatch into the
//! [`phpaccel_core::PhpMachine`], so a script's `strtolower` goes through the string
//! accelerator in specialized mode and the software library otherwise.

use crate::eval::{Interp, RuntimeError};
use php_runtime::array::ArrayKey;
use php_runtime::string::PhpStr;
use php_runtime::value::PhpValue;
use phpaccel_core::PhpMachine;
use regex_engine::Regex;
use std::sync::Arc;

/// What a builtin needs from the engine running it. Both the tree-walking
/// [`Interp`] and the compiled VM implement this, so every builtin has
/// exactly one definition and cannot diverge between engines.
pub trait Host {
    /// The machine all metered work flows through.
    fn machine(&mut self) -> &mut PhpMachine;
    /// Sets a variable in the current scope (`extract`).
    fn set_var(&mut self, name: &str, value: PhpValue);
    /// The compiled regex for a `preg_*` pattern argument: the shared
    /// analysis-time-compiled handle when the engine has one for the current
    /// call site, otherwise a runtime compile through the engine's cache.
    fn regex(&mut self, pattern: &str) -> Result<Arc<Regex>, RuntimeError>;
    /// The next value of the engine's pseudo-random stream (`rand`). The
    /// stream is seeded per engine instance, so primary and reference
    /// replays of the same request agree byte-for-byte — but it is
    /// *stateful within a request*, which is exactly why the effect
    /// analysis classifies `rand` nondeterministic: skipping a call (e.g.
    /// by memoizing a caller) shifts every later draw.
    fn next_rand(&mut self) -> i64;
}

/// Seed for each engine instance's `rand` stream.
pub const RAND_SEED: u64 = 0x5EED_2017_0613;

/// The simulated wall clock `time()` returns: a fixed epoch so runs are
/// reproducible. Statically the builtin is still nondeterministic — real
/// deployments do not pin the clock.
pub const SIMULATED_EPOCH: i64 = 1_497_312_000;

/// Advances an engine's LCG rand state and returns the drawn value in
/// `0..=0x7fff_ffff` (both engines share this so they cannot diverge).
pub fn rand_step(state: &mut u64) -> i64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) & 0x7fff_ffff) as i64
}

fn arg(args: &[PhpValue], i: usize) -> PhpValue {
    args.get(i).cloned().unwrap_or(PhpValue::Null)
}

fn str_arg(args: &[PhpValue], i: usize) -> PhpStr {
    arg(args, i).to_php_string()
}

/// Every name this module dispatches on, including aliases. `php-analysis`
/// cross-checks its builtin knowledge table against this list so a new
/// builtin can't silently be treated as an unknown user call (which would
/// poison interprocedural summaries to ⊤).
pub const NAMES: &[&str] = &[
    "strlen",
    "strtolower",
    "strtoupper",
    "ucfirst",
    "ucwords",
    "trim",
    "strpos",
    "str_replace",
    "substr",
    "str_repeat",
    "sprintf",
    "htmlspecialchars",
    "strip_tags",
    "lcfirst",
    "str_word_count",
    "nl2br",
    "strcmp",
    "implode",
    "join",
    "explode",
    "count",
    "array_keys",
    "array_values",
    "in_array",
    "array_key_exists",
    "isset_key",
    "unset_key",
    "extract",
    "is_string",
    "is_int",
    "is_integer",
    "is_long",
    "is_float",
    "is_double",
    "is_bool",
    "is_array",
    "is_null",
    "is_numeric",
    "intval",
    "floatval",
    "strval",
    "abs",
    "max",
    "min",
    "preg_match",
    "preg_replace",
    "rand",
    "time",
];

/// Calls builtin `name` through the tree-walking interpreter. `site` is the
/// `Expr::Call` node being evaluated, when known — `preg_*` consult it for
/// analysis-time-compiled patterns.
///
/// # Errors
///
/// Returns [`RuntimeError`] for unknown builtins or bad arguments.
pub fn call(
    interp: &mut Interp<'_>,
    name: &str,
    args: Vec<PhpValue>,
    site: Option<&crate::ast::Expr>,
) -> Result<PhpValue, RuntimeError> {
    struct InterpHost<'a, 'm> {
        interp: &'a mut Interp<'m>,
        site: Option<&'a crate::ast::Expr>,
    }
    impl Host for InterpHost<'_, '_> {
        fn machine(&mut self) -> &mut PhpMachine {
            self.interp.machine()
        }
        fn set_var(&mut self, name: &str, value: PhpValue) {
            self.interp.set_var_public(name, value);
        }
        fn regex(&mut self, pattern: &str) -> Result<Arc<Regex>, RuntimeError> {
            self.interp.regex_for(self.site, pattern)
        }
        fn next_rand(&mut self) -> i64 {
            self.interp.next_rand()
        }
    }
    dispatch(&mut InterpHost { interp, site }, name, args)
}

/// Calls builtin `name` on any [`Host`] — the single engine-agnostic
/// implementation of every builtin.
///
/// # Errors
///
/// Returns [`RuntimeError`] for unknown builtins or bad arguments.
pub fn dispatch<H: Host>(
    host: &mut H,
    name: &str,
    args: Vec<PhpValue>,
) -> Result<PhpValue, RuntimeError> {
    let m = host.machine();
    match name {
        "strlen" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::Int(m.ctx().strlib().strlen(&s) as i64))
        }
        "strtolower" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.strtolower(&s)))
        }
        "strtoupper" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.strtoupper(&s)))
        }
        "ucfirst" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.ctx().strlib().ucfirst(&s)))
        }
        "ucwords" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.ctx().strlib().ucwords(&s)))
        }
        "trim" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.trim(&s)))
        }
        "strpos" => {
            let hay = str_arg(&args, 0);
            let needle = str_arg(&args, 1);
            let from = if args.len() > 2 {
                arg(&args, 2).to_int().max(0) as usize
            } else {
                0
            };
            match m.strpos(&hay, needle.as_bytes(), from) {
                Some(p) => Ok(PhpValue::Int(p as i64)),
                None => Ok(PhpValue::Bool(false)),
            }
        }
        "str_replace" => {
            let search = str_arg(&args, 0);
            let replace = str_arg(&args, 1);
            let subject = str_arg(&args, 2);
            let (out, _) = m.str_replace(search.as_bytes(), replace.as_bytes(), &subject);
            Ok(PhpValue::str(out))
        }
        "substr" => {
            let s = str_arg(&args, 0);
            let start = arg(&args, 1).to_int();
            let len = args.get(2).map(|v| v.to_int());
            Ok(PhpValue::str(m.ctx().strlib().substr(&s, start, len)))
        }
        "str_repeat" => {
            let s = str_arg(&args, 0);
            let n = arg(&args, 1).to_int().max(0) as usize;
            // A script-controlled count must not be able to abort the
            // process on a giant allocation.
            const MAX_REPEAT_BYTES: usize = 64 << 20;
            if s.as_bytes().len().saturating_mul(n) > MAX_REPEAT_BYTES {
                return Err(RuntimeError::new("str_repeat result too large"));
            }
            Ok(PhpValue::str(m.ctx().strlib().str_repeat(&s, n)))
        }
        "sprintf" => {
            let f = str_arg(&args, 0);
            Ok(PhpValue::str(m.sprintf(&f, &args[1..])))
        }
        "htmlspecialchars" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.htmlspecialchars(&s)))
        }
        "strip_tags" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.strip_tags(&s)))
        }
        "lcfirst" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.ctx().strlib().lcfirst(&s)))
        }
        "str_word_count" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::Int(m.ctx().strlib().str_word_count(&s) as i64))
        }
        "nl2br" => {
            let s = str_arg(&args, 0);
            Ok(PhpValue::str(m.nl2br(&s)))
        }
        "strcmp" => {
            let a = str_arg(&args, 0);
            let b = str_arg(&args, 1);
            Ok(PhpValue::Int(match m.strcmp(&a, &b) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }))
        }
        "implode" | "join" => {
            let glue = str_arg(&args, 0);
            let PhpValue::Array(rc) = arg(&args, 1) else {
                return Err(RuntimeError::new("implode expects an array"));
            };
            let pieces: Vec<PhpStr> = rc.borrow().values().map(|v| v.to_php_string()).collect();
            Ok(PhpValue::str(m.implode(glue.as_bytes(), &pieces)))
        }
        "explode" => {
            let sep = str_arg(&args, 0);
            let s = str_arg(&args, 1);
            if sep.is_empty() {
                return Err(RuntimeError::new("explode with empty separator"));
            }
            let parts = m.explode(sep.as_bytes(), &s);
            let mut arr = m.new_array();
            for p in parts {
                m.array_push(&mut arr, PhpValue::str(p));
            }
            Ok(PhpValue::array(arr))
        }
        "count" => match arg(&args, 0) {
            PhpValue::Array(rc) => Ok(PhpValue::Int(rc.borrow().len() as i64)),
            PhpValue::Null => Ok(PhpValue::Int(0)),
            _ => Ok(PhpValue::Int(1)),
        },
        "array_keys" => {
            let PhpValue::Array(rc) = arg(&args, 0) else {
                return Err(RuntimeError::new("array_keys expects an array"));
            };
            let keys: Vec<ArrayKey> = rc.borrow().keys().cloned().collect();
            let mut out = m.new_array();
            for k in keys {
                let v = match k {
                    ArrayKey::Int(i) => PhpValue::Int(i),
                    ArrayKey::Str(s) => PhpValue::str(s),
                };
                m.array_push(&mut out, v);
            }
            Ok(PhpValue::array(out))
        }
        "array_values" => {
            let PhpValue::Array(rc) = arg(&args, 0) else {
                return Err(RuntimeError::new("array_values expects an array"));
            };
            let values: Vec<PhpValue> = rc.borrow().values().cloned().collect();
            let mut out = m.new_array();
            for v in values {
                m.array_push(&mut out, v);
            }
            Ok(PhpValue::array(out))
        }
        "in_array" => {
            let needle = arg(&args, 0);
            let PhpValue::Array(rc) = arg(&args, 1) else {
                return Err(RuntimeError::new("in_array expects an array"));
            };
            let found = rc.borrow().values().any(|v| v.loose_eq(&needle));
            Ok(PhpValue::Bool(found))
        }
        "array_key_exists" | "isset_key" => {
            let key = arg(&args, 0);
            let PhpValue::Array(rc) = arg(&args, 1) else {
                return Err(RuntimeError::new("array_key_exists expects an array"));
            };
            let k = match key {
                PhpValue::Int(i) => ArrayKey::Int(i),
                other => ArrayKey::Str(other.to_php_string()),
            };
            let exists = rc.borrow().contains_key(&k);
            Ok(PhpValue::Bool(exists))
        }
        "unset_key" => {
            let key = arg(&args, 0);
            let PhpValue::Array(rc) = arg(&args, 1) else {
                return Err(RuntimeError::new("unset_key expects an array"));
            };
            let k = match key {
                PhpValue::Int(i) => ArrayKey::Int(i),
                other => ArrayKey::Str(other.to_php_string()),
            };
            let removed = m.array_remove(&mut rc.borrow_mut(), &k).is_some();
            Ok(PhpValue::Bool(removed))
        }
        "extract" => {
            let PhpValue::Array(rc) = arg(&args, 0) else {
                return Err(RuntimeError::new("extract expects an array"));
            };
            let pairs = {
                let borrowed = rc.borrow();
                m.foreach(&borrowed)
            };
            let mut n = 0;
            for (k, v) in pairs {
                if let ArrayKey::Str(name) = k {
                    host.set_var(&name.to_string_lossy(), v);
                    n += 1;
                }
            }
            Ok(PhpValue::Int(n))
        }
        "is_string" => Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Str(_)))),
        "is_int" | "is_integer" | "is_long" => {
            Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Int(_))))
        }
        "is_float" | "is_double" => Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Float(_)))),
        "is_bool" => Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Bool(_)))),
        "is_array" => Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Array(_)))),
        "is_null" => Ok(PhpValue::Bool(matches!(arg(&args, 0), PhpValue::Null))),
        "is_numeric" => {
            let v = arg(&args, 0);
            let yes = match &v {
                PhpValue::Int(_) | PhpValue::Float(_) => true,
                PhpValue::Str(s) => {
                    let t = s.to_string_lossy();
                    !t.trim().is_empty() && t.trim().parse::<f64>().is_ok()
                }
                _ => false,
            };
            Ok(PhpValue::Bool(yes))
        }
        "intval" => Ok(PhpValue::Int(arg(&args, 0).to_int())),
        "floatval" => Ok(PhpValue::Float(arg(&args, 0).to_float())),
        "strval" => Ok(PhpValue::str(arg(&args, 0).to_php_string())),
        "abs" => {
            let v = arg(&args, 0);
            Ok(match v {
                PhpValue::Float(f) => PhpValue::Float(f.abs()),
                // wrapping_abs: plain `abs` overflows on i64::MIN.
                other => PhpValue::Int(other.to_int().wrapping_abs()),
            })
        }
        "max" => {
            let a = arg(&args, 0);
            let b = arg(&args, 1);
            Ok(if a.to_float() >= b.to_float() { a } else { b })
        }
        "min" => {
            let a = arg(&args, 0);
            let b = arg(&args, 1);
            Ok(if a.to_float() <= b.to_float() { a } else { b })
        }
        "preg_match" => {
            let pattern = str_arg(&args, 0).to_string_lossy();
            let subject = str_arg(&args, 1);
            let re = host.regex(&pattern)?;
            let matched = host.machine().preg_match(&re, &subject);
            Ok(PhpValue::Int(matched as i64))
        }
        "preg_replace" => {
            let pattern = str_arg(&args, 0).to_string_lossy();
            let replacement = str_arg(&args, 1);
            let subject = str_arg(&args, 2);
            let re = host.regex(&pattern)?;
            // Not `texturize`: its HV-preserving whitespace padding would
            // leak into the result when the replacement is shorter than the
            // match. A lone replace needs exact splicing.
            let out = host
                .machine()
                .preg_replace(&re, &subject, replacement.as_bytes());
            Ok(PhpValue::str(out))
        }
        "rand" => {
            let draw = host.next_rand();
            if args.len() >= 2 {
                let lo = arg(&args, 0).to_int();
                let hi = arg(&args, 1).to_int();
                if hi < lo {
                    return Err(RuntimeError::new("rand: max is smaller than min"));
                }
                let span = (hi - lo) as u64 + 1;
                Ok(PhpValue::Int(lo + (draw as u64 % span) as i64))
            } else {
                Ok(PhpValue::Int(draw))
            }
        }
        "time" => Ok(PhpValue::Int(SIMULATED_EPOCH)),
        other => Err(RuntimeError::new(format!("undefined builtin {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::Interp;
    use phpaccel_core::PhpMachine;

    fn eval_expr(src: &str) -> String {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        i.run(&format!("echo {src};")).unwrap();
        String::from_utf8_lossy(i.output()).into_owned()
    }

    #[test]
    fn string_builtins() {
        assert_eq!(eval_expr("strlen('abc')"), "3");
        assert_eq!(eval_expr("strtoupper('aB')"), "AB");
        assert_eq!(eval_expr("ucfirst('php')"), "Php");
        assert_eq!(eval_expr("ucwords('a b')"), "A B");
        assert_eq!(eval_expr("str_repeat('ab', 3)"), "ababab");
        assert_eq!(eval_expr("strcmp('a', 'b')"), "-1");
        assert_eq!(eval_expr("sprintf('%s=%d', 'x', 5)"), "x=5");
        assert_eq!(eval_expr("nl2br('a\\nb')"), "a<br />\nb");
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(eval_expr("abs(-5)"), "5");
        assert_eq!(eval_expr("max(2, 7)"), "7");
        assert_eq!(eval_expr("min(2, 7)"), "2");
        assert_eq!(eval_expr("intval('42x')"), "42");
    }

    #[test]
    fn array_builtins() {
        assert_eq!(eval_expr("count(array(1, 2, 3))"), "3");
        assert_eq!(eval_expr("in_array(2, array(1, 2))"), "1");
        assert_eq!(eval_expr("in_array(9, array(1, 2))"), "");
        assert_eq!(
            eval_expr("implode(',', array_keys(array('a' => 1, 'b' => 2)))"),
            "a,b"
        );
        assert_eq!(
            eval_expr("implode(',', array_values(array('a' => 9, 'b' => 8)))"),
            "9,8"
        );
        assert_eq!(eval_expr("array_key_exists('a', array('a' => 1))"), "1");
    }

    #[test]
    fn type_predicate_builtins() {
        assert_eq!(eval_expr("is_string('x')"), "1");
        assert_eq!(eval_expr("is_string(1)"), "");
        assert_eq!(eval_expr("is_int(3)"), "1");
        assert_eq!(eval_expr("is_float(1.5)"), "1");
        assert_eq!(eval_expr("is_bool(true)"), "1");
        assert_eq!(eval_expr("is_array(array(1))"), "1");
        assert_eq!(eval_expr("is_null(null)"), "1");
        assert_eq!(eval_expr("is_numeric('42')"), "1");
        assert_eq!(eval_expr("is_numeric(' 3.5 ')"), "1");
        assert_eq!(eval_expr("is_numeric('4x')"), "");
        assert_eq!(eval_expr("is_numeric(array(1))"), "");
    }

    #[test]
    fn strpos_false_on_miss() {
        assert_eq!(eval_expr("strpos('abc', 'z')"), "");
        assert_eq!(eval_expr("strpos('abcabc', 'bc', 2)"), "4");
    }

    #[test]
    fn unknown_builtin_errors() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        assert!(i.run("frobnicate(1);").is_err());
    }

    #[test]
    fn abs_of_int_min_does_not_panic() {
        assert_eq!(
            eval_expr("abs(-9223372036854775807 - 1)"),
            "-9223372036854775808"
        );
    }

    #[test]
    fn rand_and_time_are_deterministic_per_engine() {
        // Two fresh engines draw identical streams (replay soundness)…
        let a = eval_expr("rand(1, 6) . ',' . rand(1, 6) . ',' . time()");
        let b = eval_expr("rand(1, 6) . ',' . rand(1, 6) . ',' . time()");
        assert_eq!(a, b);
        // …the draws stay in range, and the clock is the simulated epoch.
        let parts: Vec<&str> = a.split(',').collect();
        for p in &parts[..2] {
            let v: i64 = p.parse().unwrap();
            assert!((1..=6).contains(&v), "{v}");
        }
        assert_eq!(parts[2], super::SIMULATED_EPOCH.to_string());
        // rand is stateful *within* an engine: the stream advances.
        let wide = eval_expr("rand() . ',' . rand()");
        let halves: Vec<&str> = wide.split(',').collect();
        assert_ne!(halves[0], halves[1], "stream must advance");
    }

    #[test]
    fn rand_rejects_inverted_range() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        assert!(i.run("echo rand(6, 1);").is_err());
    }

    #[test]
    fn huge_str_repeat_errors_instead_of_aborting() {
        let mut m = PhpMachine::baseline();
        let mut i = Interp::new(&mut m);
        let err = i
            .run("echo str_repeat('aaaaaaaa', 9000000000);")
            .expect_err("must refuse the allocation");
        assert!(err.message.contains("too large"), "{err}");
    }
}

#[cfg(test)]
mod strip_tests {
    use crate::eval::Interp;
    use phpaccel_core::PhpMachine;

    fn eval_both(src: &str) -> (String, String) {
        let run = |mut m: PhpMachine| {
            let mut i = Interp::new(&mut m);
            i.run(src).unwrap();
            String::from_utf8_lossy(i.output()).into_owned()
        };
        (run(PhpMachine::baseline()), run(PhpMachine::specialized()))
    }

    #[test]
    fn strip_tags_agrees_across_modes() {
        let (b, s) = eval_both("echo strip_tags('<p>Hello <b>world</b>!</p>');");
        assert_eq!(b, "Hello world!");
        assert_eq!(b, s);
    }

    #[test]
    fn strip_tags_clean_passthrough() {
        let (b, s) = eval_both("echo strip_tags('no markup here at all');");
        assert_eq!(b, "no markup here at all");
        assert_eq!(b, s);
    }

    #[test]
    fn lcfirst_and_word_count() {
        let (b, s) = eval_both("echo lcfirst('PHP'), '|', str_word_count(\"it's a fine day\");");
        assert_eq!(b, "pHP|4");
        assert_eq!(b, s);
    }
}
