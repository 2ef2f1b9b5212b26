//! The PHP value model (`zval` equivalent).
//!
//! Dynamically-typed values with the PHP coercion rules the workloads need.
//! Type *checks* on these values are what the checked-load prior optimization
//! \[22\] removes; the [`crate::context::RuntimeContext`] charges those costs
//! explicitly via [`PhpValue::type_check_cost`].

use crate::array::{ArrayKey, PhpArray};
use crate::profile::OpCost;
use crate::string::{PhpStr, RcStr};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Shared array handle.
pub type RcArray = Rc<RefCell<PhpArray>>;

/// A PHP value.
#[derive(Clone, Default)]
pub enum PhpValue {
    /// PHP `null`.
    #[default]
    Null,
    /// PHP `bool`.
    Bool(bool),
    /// PHP `int` (64-bit).
    Int(i64),
    /// PHP `float`.
    Float(f64),
    /// PHP `string` (shared, counted bytes).
    Str(RcStr),
    /// PHP `array` (shared, insertion-ordered hash).
    Array(RcArray),
}

impl PhpValue {
    /// Constructs a string value.
    pub fn str(s: impl Into<PhpStr>) -> Self {
        PhpValue::Str(Rc::new(s.into()))
    }

    /// Constructs an array value.
    pub fn array(a: PhpArray) -> Self {
        PhpValue::Array(Rc::new(RefCell::new(a)))
    }

    /// PHP type name, as `gettype()` would report.
    pub fn type_name(&self) -> &'static str {
        match self {
            PhpValue::Null => "NULL",
            PhpValue::Bool(_) => "boolean",
            PhpValue::Int(_) => "integer",
            PhpValue::Float(_) => "double",
            PhpValue::Str(_) => "string",
            PhpValue::Array(_) => "array",
        }
    }

    /// The µop cost of one dynamic type check on this value (tag load +
    /// compare + branch). Charged by the context around specialized code.
    pub fn type_check_cost() -> OpCost {
        OpCost {
            uops: 3,
            branches: 1,
            loads: 1,
            stores: 0,
        }
    }

    /// PHP truthiness.
    pub fn to_bool(&self) -> bool {
        match self {
            PhpValue::Null => false,
            PhpValue::Bool(b) => *b,
            PhpValue::Int(i) => *i != 0,
            PhpValue::Float(f) => *f != 0.0,
            PhpValue::Str(s) => !s.is_empty() && s.as_bytes() != b"0",
            PhpValue::Array(a) => !a.borrow().is_empty(),
        }
    }

    /// PHP integer coercion.
    pub fn to_int(&self) -> i64 {
        match self {
            PhpValue::Null => 0,
            PhpValue::Bool(b) => *b as i64,
            PhpValue::Int(i) => *i,
            PhpValue::Float(f) => *f as i64,
            PhpValue::Str(s) => parse_numeric_prefix(s.as_bytes()).0,
            PhpValue::Array(a) => (!a.borrow().is_empty()) as i64,
        }
    }

    /// PHP float coercion.
    pub fn to_float(&self) -> f64 {
        match self {
            PhpValue::Float(f) => *f,
            PhpValue::Str(s) => parse_numeric_prefix(s.as_bytes()).1,
            other => other.to_int() as f64,
        }
    }

    /// PHP string coercion.
    pub fn to_php_string(&self) -> PhpStr {
        match self {
            PhpValue::Str(s) => (**s).clone(),
            other => {
                let mut s = PhpStr::new();
                other.append_php_string(s.as_bytes_mut());
                s
            }
        }
    }

    /// Appends the value's PHP string form to `out`: what
    /// [`PhpValue::to_php_string`] returns, without building it first.
    pub fn append_php_string(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        let written = match self {
            PhpValue::Null | PhpValue::Bool(false) => Ok(()),
            PhpValue::Bool(true) => write!(out, "1"),
            PhpValue::Int(i) => write!(out, "{i}"),
            PhpValue::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
                write!(out, "{}", *f as i64)
            }
            PhpValue::Float(f) => write!(out, "{f}"),
            PhpValue::Str(s) => out.write_all(s.as_bytes()),
            PhpValue::Array(_) => write!(out, "Array"),
        };
        written.expect("writing into a Vec cannot fail");
    }

    /// Loose equality (`==`), the comparisons our workloads exercise.
    pub fn loose_eq(&self, other: &PhpValue) -> bool {
        use PhpValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (Str(a), Str(b)) => a == b,
            (Str(_), Int(_)) | (Int(_), Str(_)) => self.to_float() == other.to_float(),
            (Str(_), Float(_)) | (Float(_), Str(_)) => self.to_float() == other.to_float(),
            (Null, other2) | (other2, Null) => !other2.to_bool(),
            (Bool(a), b2) | (b2, Bool(a)) => *a == b2.to_bool(),
            (Array(a), Array(b)) => {
                if Rc::ptr_eq(a, b) {
                    return true;
                }
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.loose_eq(vb))
            }
            (Array(_), _) | (_, Array(_)) => false,
        }
    }

    /// Whether this value's representation is refcounted (string or array) —
    /// copies of those incur refcount traffic.
    pub fn is_refcounted(&self) -> bool {
        matches!(self, PhpValue::Str(_) | PhpValue::Array(_))
    }

    /// Simulated heap footprint of the value payload (0 for immediates).
    pub fn heap_size(&self) -> usize {
        match self {
            PhpValue::Str(s) => s.heap_size(),
            PhpValue::Array(a) => a.borrow().heap_size(),
            _ => 0,
        }
    }
}

/// Parses the leading numeric portion of a PHP string (PHP's lax numeric
/// string semantics). Returns `(int_value, float_value)`.
fn parse_numeric_prefix(b: &[u8]) -> (i64, f64) {
    let s = std::str::from_utf8(b).unwrap_or("");
    let t = s.trim_start();
    let mut end = 0;
    let bytes = t.as_bytes();
    if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
        end += 1;
    }
    let mut seen_dot = false;
    while end < bytes.len() {
        match bytes[end] {
            b'0'..=b'9' => end += 1,
            b'.' if !seen_dot => {
                seen_dot = true;
                end += 1;
            }
            _ => break,
        }
    }
    let prefix = &t[..end];
    let f: f64 = prefix.parse().unwrap_or(0.0);
    let i: i64 = if seen_dot {
        f as i64
    } else {
        prefix.parse().unwrap_or(f as i64)
    };
    (i, f)
}

impl fmt::Debug for PhpValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhpValue::Null => write!(f, "null"),
            PhpValue::Bool(b) => write!(f, "{b}"),
            PhpValue::Int(i) => write!(f, "{i}"),
            PhpValue::Float(x) => write!(f, "{x}"),
            PhpValue::Str(s) => write!(f, "{:?}", s.to_string_lossy()),
            PhpValue::Array(a) => write!(f, "array({})", a.borrow().len()),
        }
    }
}

impl From<i64> for PhpValue {
    fn from(i: i64) -> Self {
        PhpValue::Int(i)
    }
}

impl From<f64> for PhpValue {
    fn from(f: f64) -> Self {
        PhpValue::Float(f)
    }
}

impl From<bool> for PhpValue {
    fn from(b: bool) -> Self {
        PhpValue::Bool(b)
    }
}

impl From<ArrayKey> for PhpValue {
    /// The value PHP hands out for a key (`foreach`, `array_keys`).
    fn from(k: ArrayKey) -> Self {
        match k {
            ArrayKey::Int(i) => PhpValue::Int(i),
            ArrayKey::Str(s) => PhpValue::str(s),
        }
    }
}

impl From<&str> for PhpValue {
    fn from(s: &str) -> Self {
        PhpValue::str(s)
    }
}

impl From<String> for PhpValue {
    fn from(s: String) -> Self {
        PhpValue::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_php() {
        assert!(!PhpValue::Null.to_bool());
        assert!(!PhpValue::from("").to_bool());
        assert!(!PhpValue::from("0").to_bool());
        assert!(PhpValue::from("00").to_bool()); // PHP quirk: "00" is truthy
        assert!(PhpValue::from(1i64).to_bool());
        assert!(!PhpValue::from(0.0).to_bool());
    }

    #[test]
    fn numeric_string_coercion() {
        assert_eq!(PhpValue::from("42abc").to_int(), 42);
        assert_eq!(PhpValue::from("  -7").to_int(), -7);
        assert_eq!(PhpValue::from("3.5x").to_float(), 3.5);
        assert_eq!(PhpValue::from("abc").to_int(), 0);
    }

    #[test]
    fn string_coercion() {
        assert_eq!(
            PhpValue::from(42i64).to_php_string().to_string_lossy(),
            "42"
        );
        assert_eq!(PhpValue::Bool(true).to_php_string().to_string_lossy(), "1");
        assert_eq!(PhpValue::Bool(false).to_php_string().len(), 0);
        assert_eq!(PhpValue::from(2.0).to_php_string().to_string_lossy(), "2");
        assert_eq!(PhpValue::from(2.5).to_php_string().to_string_lossy(), "2.5");
    }

    #[test]
    fn append_matches_string_coercion() {
        let mut out = b"<".to_vec();
        let values = [
            PhpValue::Null,
            PhpValue::Bool(true),
            PhpValue::Bool(false),
            PhpValue::from(-42i64),
            PhpValue::from(2.0),
            PhpValue::from(2.5),
            PhpValue::from(1e20),
            PhpValue::from("s"),
            PhpValue::array(PhpArray::new()),
        ];
        let mut expected = b"<".to_vec();
        for v in &values {
            v.append_php_string(&mut out);
            expected.extend_from_slice(v.to_php_string().as_bytes());
        }
        assert_eq!(out, expected);
        assert_eq!(out, b"<1-4222.5100000000000000000000sArray");
    }

    #[test]
    fn loose_equality() {
        assert!(PhpValue::from("42").loose_eq(&PhpValue::from(42i64)));
        assert!(PhpValue::Null.loose_eq(&PhpValue::Bool(false)));
        assert!(PhpValue::from(1i64).loose_eq(&PhpValue::Bool(true)));
        assert!(!PhpValue::from("a").loose_eq(&PhpValue::from("b")));
    }

    #[test]
    fn type_names() {
        assert_eq!(PhpValue::Null.type_name(), "NULL");
        assert_eq!(PhpValue::from(1i64).type_name(), "integer");
        assert_eq!(PhpValue::from("x").type_name(), "string");
    }

    #[test]
    fn refcounted_detection() {
        assert!(PhpValue::from("s").is_refcounted());
        assert!(!PhpValue::from(3i64).is_refcounted());
    }
}
