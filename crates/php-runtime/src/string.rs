//! PHP string representation.
//!
//! PHP strings are counted byte strings (not NUL-terminated) — §4.4 notes
//! this makes accelerator coherence logic straightforward. `PhpStr` is the
//! runtime's string object; values hold it behind `Rc` so copies are
//! refcount bumps like in HHVM.

use std::fmt;
use std::rc::Rc;

/// A counted byte string, the PHP `string` type.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhpStr {
    bytes: Vec<u8>,
}

impl PhpStr {
    /// Creates an empty string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty string with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        PhpStr::from_bytes(Vec::with_capacity(n))
    }

    /// Creates a string from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        PhpStr {
            bytes: bytes.into(),
        }
    }

    /// Byte length.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw bytes.
    pub fn as_bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Lossy UTF-8 view for display/debugging.
    pub fn to_string_lossy(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }

    /// Appends raw bytes.
    pub fn push_bytes(&mut self, more: &[u8]) {
        self.bytes.extend_from_slice(more);
    }

    /// Simulated heap footprint of this string (header + payload), used when
    /// charging the allocator.
    pub fn heap_size(&self) -> usize {
        // 16-byte zend_string-style header (refcount, len, hash) + payload.
        16 + self.bytes.len()
    }
}

impl From<&str> for PhpStr {
    fn from(s: &str) -> Self {
        PhpStr::from_bytes(s.as_bytes().to_vec())
    }
}

impl From<String> for PhpStr {
    fn from(s: String) -> Self {
        PhpStr::from_bytes(s.into_bytes())
    }
}

impl From<&[u8]> for PhpStr {
    fn from(b: &[u8]) -> Self {
        PhpStr::from_bytes(b.to_vec())
    }
}

impl fmt::Debug for PhpStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhpStr({:?})", self.to_string_lossy())
    }
}

impl fmt::Display for PhpStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_lossy())
    }
}

/// Shared string handle used inside [`crate::value::PhpValue`].
pub type RcStr = Rc<PhpStr>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let s = PhpStr::from("héllo");
        assert_eq!(s.len(), 6); // bytes, not chars
        assert!(!s.is_empty());
        assert_eq!(PhpStr::new().len(), 0);
    }

    #[test]
    fn binary_safe() {
        let s = PhpStr::from_bytes(vec![0u8, 1, 2, 0, 255]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.as_bytes()[3], 0);
    }

    #[test]
    fn heap_size_includes_header() {
        let s = PhpStr::from("abcd");
        assert_eq!(s.heap_size(), 20);
    }

    #[test]
    fn push_and_display() {
        let mut s = PhpStr::from("ab");
        s.push_bytes(b"cd");
        assert_eq!(s.to_string_lossy(), "abcd");
        assert_eq!(format!("{s}"), "abcd");
        assert_eq!(format!("{s:?}"), "PhpStr(\"abcd\")");
    }
}
