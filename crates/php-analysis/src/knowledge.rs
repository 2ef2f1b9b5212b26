//! What the analyses know about the interpreter's builtin functions:
//! which names are builtins at all, which return a statically known type,
//! and which consume their arguments transiently (so an argument's refcount
//! increment/decrement pair is elidable).
//!
//! This table mirrors `php_interp::builtins` — a name missing here is
//! treated as a user function, which is always the conservative direction.

use crate::types::Ty;

/// All builtin names the interpreter dispatches on.
const BUILTINS: &[&str] = &[
    "strlen",
    "strtolower",
    "strtoupper",
    "ucfirst",
    "ucwords",
    "lcfirst",
    "trim",
    "strpos",
    "str_replace",
    "substr",
    "str_repeat",
    "sprintf",
    "htmlspecialchars",
    "strip_tags",
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
    "intval",
    "floatval",
    "strval",
    "abs",
    "max",
    "min",
    "preg_match",
    "preg_replace",
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
    "rand",
    "time",
];

/// Whether `name` is an interpreter builtin (anything else is a user call).
pub fn is_builtin(name: &str) -> bool {
    BUILTINS.contains(&name)
}

/// The statically known return type of a builtin, if any.
pub fn builtin_ret_ty(name: &str) -> Option<Ty> {
    Some(match name {
        "strlen" | "str_word_count" | "strcmp" | "intval" | "preg_match" | "extract" | "count"
        | "rand" | "time" => Ty::Int,
        "strtolower" | "strtoupper" | "ucfirst" | "ucwords" | "lcfirst" | "trim"
        | "str_replace" | "substr" | "str_repeat" | "sprintf" | "htmlspecialchars"
        | "strip_tags" | "nl2br" | "implode" | "join" | "strval" | "preg_replace" => Ty::Str,
        "explode" | "array_keys" | "array_values" => Ty::Arr,
        "in_array" | "array_key_exists" | "isset_key" | "unset_key" | "is_string" | "is_int"
        | "is_integer" | "is_long" | "is_float" | "is_double" | "is_bool" | "is_array"
        | "is_null" | "is_numeric" => Ty::Bool,
        "floatval" => Ty::Float,
        // strpos: Int | false. abs/max/min: Int | Float (max/min return an
        // argument unchanged, so anything).
        _ => return None,
    })
}

/// Whether a builtin only *reads* its arguments for the duration of the
/// call — the argument value never outlives it, so the inc/dec pair charged
/// for passing it is elidable. `max`/`min` return an argument itself and
/// `extract` rebinds the whole scope, so they are excluded.
pub fn consumes_args_transiently(name: &str) -> bool {
    !matches!(name, "max" | "min" | "extract") && is_builtin(name)
}

/// Variable names the hosting server binds from the incoming request before
/// the script runs (see `workloads::php_corpus::PreparedScript::run` and PHP's
/// superglobals). Reads of these in `<main>` are the taint *sources* of the
/// Yama-style taint analysis ([`crate::taint`]).
pub const REQUEST_SOURCES: &[&str] = &[
    "title", "tags", "meta", "query", "request", "input", "_GET", "_POST", "_REQUEST", "_COOKIE",
    "_SERVER",
];

/// Whether `name` is treated as a request-input source variable in `<main>`.
pub fn is_request_source(name: &str) -> bool {
    REQUEST_SOURCES.contains(&name)
}

/// Builtins whose return value is safe regardless of argument taint —
/// either they encode/strip dangerous bytes (`htmlspecialchars`,
/// `strip_tags`) or they reduce to a number/boolean that carries no
/// attacker-controlled bytes.
pub fn builtin_sanitizes(name: &str) -> bool {
    matches!(
        name,
        "htmlspecialchars"
            | "strip_tags"
            | "intval"
            | "floatval"
            | "strlen"
            | "str_word_count"
            | "strcmp"
            | "strpos"
            | "count"
            | "abs"
            | "in_array"
            | "array_key_exists"
            | "isset_key"
            | "unset_key"
            | "preg_match"
            | "rand"
            | "time"
            | "is_string"
            | "is_int"
            | "is_integer"
            | "is_long"
            | "is_float"
            | "is_double"
            | "is_bool"
            | "is_array"
            | "is_null"
            | "is_numeric"
    )
}

/// Builtins whose result depends on hidden per-request state (the PRNG
/// stream, the clock) rather than on their arguments alone. One call makes
/// the enclosing function — and everything that calls it — nondeterministic:
/// replaying a cached result would freeze a draw that should differ.
pub fn builtin_nondeterministic(name: &str) -> bool {
    matches!(name, "rand" | "time")
}

/// The type an `is_*` guard tests for, if `name` is such a predicate.
pub fn guard_ty(name: &str) -> Option<Ty> {
    Some(match name {
        "is_string" => Ty::Str,
        "is_int" | "is_integer" | "is_long" => Ty::Int,
        "is_float" | "is_double" => Ty::Float,
        "is_bool" => Ty::Bool,
        "is_array" => Ty::Arr,
        "is_null" => Ty::Null,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_functions_are_not_builtins() {
        assert!(is_builtin("strlen"));
        assert!(!is_builtin("render_header"));
    }

    #[test]
    fn escape_exclusions() {
        assert!(consumes_args_transiently("strlen"));
        assert!(
            !consumes_args_transiently("max"),
            "max returns its argument"
        );
        assert!(!consumes_args_transiently("extract"));
        assert!(!consumes_args_transiently("some_user_fn"));
    }

    #[test]
    fn guard_types() {
        assert_eq!(guard_ty("is_string"), Some(Ty::Str));
        assert_eq!(guard_ty("is_numeric"), None, "numeric is not a single type");
    }

    /// The table must mirror the interpreter's dispatch exactly: a builtin
    /// missing here would be analyzed as a user function (losing precision
    /// and — worse — treating its return as tainted-by-default), while a
    /// stale extra name would mis-type calls that actually hit user code.
    #[test]
    fn builtin_table_matches_interpreter_dispatch() {
        use std::collections::BTreeSet;
        let ours: BTreeSet<&str> = BUILTINS.iter().copied().collect();
        let theirs: BTreeSet<&str> = php_interp::BUILTIN_NAMES.iter().copied().collect();
        let missing: Vec<_> = theirs.difference(&ours).collect();
        let stale: Vec<_> = ours.difference(&theirs).collect();
        assert!(
            missing.is_empty(),
            "builtins unknown to analysis: {missing:?}"
        );
        assert!(stale.is_empty(), "names no longer dispatched: {stale:?}");
    }

    /// Every sanitizer and every typed return must name a real builtin.
    #[test]
    fn derived_tables_only_name_builtins() {
        for name in BUILTINS {
            // Exercise the derived tables; unknown names must answer None/false.
            let _ = builtin_ret_ty(name);
            let _ = builtin_sanitizes(name);
        }
        assert_eq!(builtin_ret_ty("not_a_builtin"), None);
        assert!(!builtin_sanitizes("not_a_builtin"));
        assert!(!is_request_source("not_a_source"));
        assert!(is_request_source("title"));
    }
}
