//! Software string library — the baselines the string accelerator (§4.4)
//! competes against.
//!
//! "These PHP applications exercise a variety of string copying, matching,
//! and modifying functions to turn large volumes of unstructured textual
//! data into appropriate HTML format."
//!
//! Every function is straightforward byte-at-a-time code, the library
//! baseline both engines call.
//!
//! Every call charges its simulated µop cost to the profiler under a
//! `php_*` leaf-function name in [`Category::String`].

use crate::profile::{Category, Leaf, OpCost, Profiler};
use crate::string::PhpStr;

static PHP_ADDSLASHES: Leaf = Leaf::new("php_addslashes", Category::String);
static PHP_CTYPE_SPAN: Leaf = Leaf::new("php_ctype_span", Category::String);
static PHP_EXPLODE: Leaf = Leaf::new("php_explode", Category::String);
static PHP_HTMLSPECIALCHARS: Leaf = Leaf::new("php_htmlspecialchars", Category::String);
static PHP_IMPLODE: Leaf = Leaf::new("php_implode", Category::String);
static PHP_LCFIRST: Leaf = Leaf::new("php_lcfirst", Category::String);
static PHP_NL2BR: Leaf = Leaf::new("php_nl2br", Category::String);
static PHP_SPRINTF: Leaf = Leaf::new("php_sprintf", Category::String);
static PHP_STR_PAD: Leaf = Leaf::new("php_str_pad", Category::String);
static PHP_STR_REPEAT: Leaf = Leaf::new("php_str_repeat", Category::String);
static PHP_STR_REPLACE: Leaf = Leaf::new("php_str_replace", Category::String);
static PHP_STR_WORD_COUNT: Leaf = Leaf::new("php_str_word_count", Category::String);
static PHP_STRCMP: Leaf = Leaf::new("php_strcmp", Category::String);
static PHP_STRIP_TAGS: Leaf = Leaf::new("php_strip_tags", Category::String);
static PHP_STRLEN: Leaf = Leaf::new("php_strlen", Category::String);
static PHP_STRPOS: Leaf = Leaf::new("php_strpos", Category::String);
static PHP_STRREV: Leaf = Leaf::new("php_strrev", Category::String);
static PHP_STRTOLOWER: Leaf = Leaf::new("php_strtolower", Category::String);
static PHP_STRTOUPPER: Leaf = Leaf::new("php_strtoupper", Category::String);
static PHP_SUBSTR: Leaf = Leaf::new("php_substr", Category::String);
static PHP_TRIM: Leaf = Leaf::new("php_trim", Category::String);
static PHP_UCFIRST: Leaf = Leaf::new("php_ucfirst", Category::String);
static PHP_UCWORDS: Leaf = Leaf::new("php_ucwords", Category::String);
static PHP_WORDWRAP: Leaf = Leaf::new("php_wordwrap", Category::String);

/// Per-byte µop cost of scalar scanning loops (load, compare, branch, inc).
const SCALAR_BYTE_UOPS: f64 = 1.25;
/// Fixed per-call overhead (arg marshalling, refcounting glue, allocation of
/// the result handled separately by the allocator).
const CALL_FIXED_UOPS: u64 = 18;

/// The string library. Borrowys the profiler; construct one per operation
/// region or hold it alongside the runtime context.
#[derive(Debug, Clone, Copy)]
pub struct StrLib<'p> {
    prof: &'p Profiler,
}

fn scan_cost(leaf: &'static Leaf, bytes: usize, prof: &Profiler) {
    let uops = CALL_FIXED_UOPS + (bytes as f64 * SCALAR_BYTE_UOPS) as u64;
    prof.record(leaf, OpCost::mixed(uops));
}

fn copy_cost(leaf: &'static Leaf, bytes: usize, prof: &Profiler) {
    // Copies move 8B per µop plus loop overhead.
    let uops = CALL_FIXED_UOPS + bytes.div_ceil(8) as u64 * 2;
    prof.record(leaf, OpCost::mixed(uops));
}

impl<'p> StrLib<'p> {
    /// Creates a library handle.
    pub fn new(prof: &'p Profiler) -> Self {
        StrLib { prof }
    }

    /// `strlen` — O(1) for counted strings.
    pub fn strlen(&self, s: &PhpStr) -> usize {
        self.prof.record(&PHP_STRLEN, OpCost::alu(2));
        s.len()
    }

    /// `strpos` — byte offset of the first occurrence of `needle` at or
    /// after `offset`, or `None`.
    pub fn strpos(&self, haystack: &PhpStr, needle: &[u8], offset: usize) -> Option<usize> {
        let h = haystack.as_bytes();
        if needle.is_empty() || offset > h.len() {
            scan_cost(&PHP_STRPOS, 0, self.prof);
            return None;
        }
        let result = scalar_find(&h[offset..], needle);
        let scanned = result.map(|r| r + needle.len()).unwrap_or(h.len() - offset);
        scan_cost(&PHP_STRPOS, scanned, self.prof);
        result.map(|r| r + offset)
    }

    /// `strcmp` — byte-wise comparison result as in C.
    pub fn strcmp(&self, a: &PhpStr, b: &PhpStr) -> std::cmp::Ordering {
        let n = a.len().min(b.len());
        scan_cost(&PHP_STRCMP, n, self.prof);
        a.as_bytes().cmp(b.as_bytes())
    }

    /// `substr` with PHP semantics for negative `start`/`len`.
    pub fn substr(&self, s: &PhpStr, start: i64, len: Option<i64>) -> PhpStr {
        let n = s.len() as i64;
        let start = if start < 0 {
            (n + start).max(0)
        } else {
            start.min(n)
        };
        let end = match len {
            None => n,
            Some(l) if l < 0 => (n + l).max(start),
            Some(l) => (start + l).min(n),
        };
        let out = PhpStr::from_bytes(s.as_bytes()[start as usize..end as usize].to_vec());
        copy_cost(&PHP_SUBSTR, out.len(), self.prof);
        out
    }

    /// `trim` — strips the given byte set (default whitespace) from both ends.
    pub fn trim(&self, s: &PhpStr, set: &[u8]) -> PhpStr {
        let b = s.as_bytes();
        let start = b.iter().position(|c| !set.contains(c)).unwrap_or(b.len());
        let end = b
            .iter()
            .rposition(|c| !set.contains(c))
            .map(|i| i + 1)
            .unwrap_or(start);
        let trimmed = (b.len() - (end - start)).max(1);
        scan_cost(&PHP_TRIM, trimmed + 2, self.prof);
        PhpStr::from_bytes(b[start..end].to_vec())
    }

    /// Default trim set: PHP's `" \t\n\r\0\x0B"`.
    pub const WHITESPACE: &'static [u8] = b" \t\n\r\0\x0b";

    /// `strtolower` — ASCII lowercase.
    pub fn strtolower(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_STRTOLOWER, s.len(), self.prof);
        PhpStr::from_bytes(
            s.as_bytes()
                .iter()
                .map(|b| b.to_ascii_lowercase())
                .collect::<Vec<_>>(),
        )
    }

    /// `strtoupper` — ASCII uppercase.
    pub fn strtoupper(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_STRTOUPPER, s.len(), self.prof);
        PhpStr::from_bytes(
            s.as_bytes()
                .iter()
                .map(|b| b.to_ascii_uppercase())
                .collect::<Vec<_>>(),
        )
    }

    /// `ucfirst`.
    pub fn ucfirst(&self, s: &PhpStr) -> PhpStr {
        self.prof.record(&PHP_UCFIRST, OpCost::alu(CALL_FIXED_UOPS));
        let mut out = s.as_bytes().to_vec();
        if let Some(first) = out.first_mut() {
            *first = first.to_ascii_uppercase();
        }
        PhpStr::from_bytes(out)
    }

    /// `ucwords` — uppercase the first letter of each word.
    pub fn ucwords(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_UCWORDS, s.len(), self.prof);
        let mut out = s.as_bytes().to_vec();
        let mut at_word_start = true;
        for b in out.iter_mut() {
            if at_word_start {
                *b = b.to_ascii_uppercase();
            }
            at_word_start = matches!(*b, b' ' | b'\t' | b'\n' | b'\r');
        }
        PhpStr::from_bytes(out)
    }

    /// `str_replace` — replaces all occurrences; returns `(result, count)`.
    pub fn str_replace(&self, search: &[u8], replace: &[u8], subject: &PhpStr) -> (PhpStr, usize) {
        let hay = subject.as_bytes();
        if search.is_empty() {
            scan_cost(&PHP_STR_REPLACE, 0, self.prof);
            return (subject.clone(), 0);
        }
        let mut out = Vec::with_capacity(hay.len());
        let mut count = 0;
        let mut i = 0;
        while i < hay.len() {
            let found = scalar_find(&hay[i..], search);
            match found {
                Some(rel) => {
                    out.extend_from_slice(&hay[i..i + rel]);
                    out.extend_from_slice(replace);
                    i += rel + search.len();
                    count += 1;
                }
                None => {
                    out.extend_from_slice(&hay[i..]);
                    break;
                }
            }
        }
        scan_cost(&PHP_STR_REPLACE, hay.len(), self.prof);
        copy_cost(&PHP_STR_REPLACE, out.len(), self.prof);
        (PhpStr::from_bytes(out), count)
    }

    /// `str_repeat`.
    pub fn str_repeat(&self, s: &PhpStr, times: usize) -> PhpStr {
        let mut out = Vec::with_capacity(s.len() * times);
        for _ in 0..times {
            out.extend_from_slice(s.as_bytes());
        }
        copy_cost(&PHP_STR_REPEAT, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `implode` — joins byte-string pieces with `glue`.
    pub fn implode(&self, glue: &[u8], pieces: &[PhpStr]) -> PhpStr {
        let mut out = Vec::new();
        for (i, p) in pieces.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(glue);
            }
            out.extend_from_slice(p.as_bytes());
        }
        copy_cost(&PHP_IMPLODE, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `explode` — splits on `sep` (non-empty).
    pub fn explode(&self, sep: &[u8], s: &PhpStr) -> Vec<PhpStr> {
        assert!(!sep.is_empty(), "explode with empty separator");
        let b = s.as_bytes();
        let mut parts = Vec::new();
        let mut i = 0;
        loop {
            let found = scalar_find(&b[i..], sep);
            match found {
                Some(rel) => {
                    parts.push(PhpStr::from_bytes(b[i..i + rel].to_vec()));
                    i += rel + sep.len();
                }
                None => {
                    parts.push(PhpStr::from_bytes(b[i..].to_vec()));
                    break;
                }
            }
        }
        scan_cost(&PHP_EXPLODE, b.len(), self.prof);
        parts
    }

    /// `htmlspecialchars` — encodes `& < > " '`.
    pub fn htmlspecialchars(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_HTMLSPECIALCHARS, s.len(), self.prof);
        let mut out = Vec::with_capacity(s.len());
        for &b in s.as_bytes() {
            match b {
                b'&' => out.extend_from_slice(b"&amp;"),
                b'<' => out.extend_from_slice(b"&lt;"),
                b'>' => out.extend_from_slice(b"&gt;"),
                b'"' => out.extend_from_slice(b"&quot;"),
                b'\'' => out.extend_from_slice(b"&#039;"),
                other => out.push(other),
            }
        }
        copy_cost(&PHP_HTMLSPECIALCHARS, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `nl2br` — inserts `<br />` before newlines.
    pub fn nl2br(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_NL2BR, s.len(), self.prof);
        let mut out = Vec::with_capacity(s.len());
        let b = s.as_bytes();
        let mut i = 0;
        while i < b.len() {
            match b[i] {
                b'\n' => {
                    out.extend_from_slice(b"<br />\n");
                    i += 1;
                }
                b'\r' => {
                    out.extend_from_slice(b"<br />\r");
                    if i + 1 < b.len() && b[i + 1] == b'\n' {
                        out.push(b'\n');
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                other => {
                    out.push(other);
                    i += 1;
                }
            }
        }
        PhpStr::from_bytes(out)
    }

    /// `addslashes` — backslash-escapes `' " \` and NUL.
    pub fn addslashes(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_ADDSLASHES, s.len(), self.prof);
        let mut out = Vec::with_capacity(s.len());
        for &b in s.as_bytes() {
            match b {
                b'\'' | b'"' | b'\\' => {
                    out.push(b'\\');
                    out.push(b);
                }
                0 => out.extend_from_slice(b"\\0"),
                other => out.push(other),
            }
        }
        PhpStr::from_bytes(out)
    }

    /// `str_pad` (right padding only, the common case).
    pub fn str_pad(&self, s: &PhpStr, len: usize, pad: &[u8]) -> PhpStr {
        let mut out = s.as_bytes().to_vec();
        if pad.is_empty() {
            copy_cost(&PHP_STR_PAD, out.len(), self.prof);
            return PhpStr::from_bytes(out);
        }
        while out.len() < len {
            let take = pad.len().min(len - out.len());
            out.extend_from_slice(&pad[..take]);
        }
        copy_cost(&PHP_STR_PAD, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `strrev`.
    pub fn strrev(&self, s: &PhpStr) -> PhpStr {
        copy_cost(&PHP_STRREV, s.len(), self.prof);
        let mut out = s.as_bytes().to_vec();
        out.reverse();
        PhpStr::from_bytes(out)
    }

    /// `wordwrap` at `width` with `\n` breaks (break long words disabled,
    /// like PHP's default).
    pub fn wordwrap(&self, s: &PhpStr, width: usize) -> PhpStr {
        scan_cost(&PHP_WORDWRAP, s.len(), self.prof);
        let mut out = Vec::with_capacity(s.len());
        let mut line_len = 0usize;
        for word in s.as_bytes().split(|&b| b == b' ') {
            if line_len > 0 {
                if line_len + 1 + word.len() > width {
                    out.push(b'\n');
                    line_len = 0;
                } else {
                    out.push(b' ');
                    line_len += 1;
                }
            }
            out.extend_from_slice(word);
            line_len += word.len();
        }
        PhpStr::from_bytes(out)
    }

    /// Minimal `sprintf`: `%s %d %f %%` only — what the workloads use.
    ///
    /// # Panics
    ///
    /// Panics on a conversion specifier other than `s`, `d`, `f`, `%`, or if
    /// too few arguments are supplied.
    pub fn sprintf(&self, format: &PhpStr, args: &[crate::value::PhpValue]) -> PhpStr {
        scan_cost(&PHP_SPRINTF, format.len(), self.prof);
        let f = format.as_bytes();
        let mut out = Vec::with_capacity(f.len() * 2);
        let mut ai = 0;
        let mut i = 0;
        while i < f.len() {
            if f[i] == b'%' && i + 1 < f.len() {
                match f[i + 1] {
                    b'%' => out.push(b'%'),
                    b's' => {
                        out.extend_from_slice(args[ai].to_php_string().as_bytes());
                        ai += 1;
                    }
                    b'd' => {
                        out.extend_from_slice(args[ai].to_int().to_string().as_bytes());
                        ai += 1;
                    }
                    b'f' => {
                        out.extend_from_slice(format!("{:.6}", args[ai].to_float()).as_bytes());
                        ai += 1;
                    }
                    other => panic!("sprintf: unsupported specifier %{}", other as char),
                }
                i += 2;
            } else {
                out.push(f[i]);
                i += 1;
            }
        }
        copy_cost(&PHP_SPRINTF, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `strip_tags` — removes `<...>` spans (no attribute parsing, like
    /// PHP's fast path; unterminated tags are stripped to the end).
    pub fn strip_tags(&self, s: &PhpStr) -> PhpStr {
        scan_cost(&PHP_STRIP_TAGS, s.len(), self.prof);
        let b = s.as_bytes();
        let mut out = Vec::with_capacity(b.len());
        let mut in_tag = false;
        for &c in b {
            match c {
                b'<' => in_tag = true,
                b'>' if in_tag => in_tag = false,
                _ if !in_tag => out.push(c),
                _ => {}
            }
        }
        copy_cost(&PHP_STRIP_TAGS, out.len(), self.prof);
        PhpStr::from_bytes(out)
    }

    /// `lcfirst`.
    pub fn lcfirst(&self, s: &PhpStr) -> PhpStr {
        self.prof.record(&PHP_LCFIRST, OpCost::alu(CALL_FIXED_UOPS));
        let mut out = s.as_bytes().to_vec();
        if let Some(first) = out.first_mut() {
            *first = first.to_ascii_lowercase();
        }
        PhpStr::from_bytes(out)
    }

    /// `str_word_count` — counts alphabetic word runs.
    pub fn str_word_count(&self, s: &PhpStr) -> usize {
        scan_cost(&PHP_STR_WORD_COUNT, s.len(), self.prof);
        let mut count = 0;
        let mut in_word = false;
        for &b in s.as_bytes() {
            let is_word = b.is_ascii_alphabetic() || b == b'\'' || b == b'-';
            if is_word && !in_word {
                count += 1;
            }
            in_word = is_word;
        }
        count
    }

    /// `ctype`-style span: length of the prefix whose bytes all satisfy the
    /// class predicate (used by sanitizers).
    pub fn span_class(&self, s: &PhpStr, class: CharClass) -> usize {
        let n = s
            .as_bytes()
            .iter()
            .take_while(|&&b| class.matches(b))
            .count();
        scan_cost(&PHP_CTYPE_SPAN, n + 1, self.prof);
        n
    }
}

/// Character classes used by span/scan functions and by the string
/// accelerator's inequality rows (§4.4: "detecting lower case, upper case,
/// alphanumeric, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharClass {
    /// `[a-z]`
    Lower,
    /// `[A-Z]`
    Upper,
    /// `[0-9]`
    Digit,
    /// `[A-Za-z]`
    Alpha,
    /// `[A-Za-z0-9]`
    Alnum,
    /// ASCII whitespace.
    Space,
    /// The paper's *regular characters*: `[A-Za-z0-9_.,-]` plus space.
    Regular,
}

impl CharClass {
    /// Predicate for a single byte.
    pub fn matches(self, b: u8) -> bool {
        match self {
            CharClass::Lower => b.is_ascii_lowercase(),
            CharClass::Upper => b.is_ascii_uppercase(),
            CharClass::Digit => b.is_ascii_digit(),
            CharClass::Alpha => b.is_ascii_alphabetic(),
            CharClass::Alnum => b.is_ascii_alphanumeric(),
            CharClass::Space => b.is_ascii_whitespace(),
            CharClass::Regular => {
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b',' | b'-' | b' ')
            }
        }
    }
}

/// Is `b` a *special character* in the paper's Content-Sifting sense
/// (anything outside `[A-Za-z0-9_.,-]` and space)?
pub fn is_special_char(b: u8) -> bool {
    !CharClass::Regular.matches(b)
}

// ---------------------------------------------------------------------------
// Search kernels
// ---------------------------------------------------------------------------

/// Naive scalar substring search.
pub fn scalar_find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || needle.len() > haystack.len() {
        return None;
    }
    let first = needle[0];
    for i in 0..=(haystack.len() - needle.len()) {
        if haystack[i] == first && &haystack[i..i + needle.len()] == needle {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::PhpValue;

    #[test]
    fn strpos_finds_offsets() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let hay = PhpStr::from("the quick brown fox jumps over the lazy dog");
        assert_eq!(l.strpos(&hay, b"quick", 0), Some(4));
        assert_eq!(l.strpos(&hay, b"the", 1), Some(31));
        assert_eq!(l.strpos(&hay, b"zebra", 0), None);
        assert_eq!(l.strpos(&hay, b"dog", 0), Some(40));
    }

    #[test]
    fn substr_negative_indices() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let s = PhpStr::from("abcdef");
        assert_eq!(l.substr(&s, -3, None).to_string_lossy(), "def");
        assert_eq!(l.substr(&s, 1, Some(3)).to_string_lossy(), "bcd");
        assert_eq!(l.substr(&s, 0, Some(-2)).to_string_lossy(), "abcd");
        assert_eq!(l.substr(&s, 10, None).len(), 0);
    }

    #[test]
    fn trim_strips_both_ends() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let s = PhpStr::from("  \thello \n");
        assert_eq!(l.trim(&s, StrLib::WHITESPACE).to_string_lossy(), "hello");
        let all = PhpStr::from("   ");
        assert_eq!(l.trim(&all, StrLib::WHITESPACE).len(), 0);
    }

    #[test]
    fn case_functions() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        assert_eq!(
            l.strtolower(&PhpStr::from("AbC9!")).to_string_lossy(),
            "abc9!"
        );
        assert_eq!(
            l.strtoupper(&PhpStr::from("AbC9!")).to_string_lossy(),
            "ABC9!"
        );
        assert_eq!(
            l.ucfirst(&PhpStr::from("hello world")).to_string_lossy(),
            "Hello world"
        );
        assert_eq!(
            l.ucwords(&PhpStr::from("hello my world")).to_string_lossy(),
            "Hello My World"
        );
    }

    #[test]
    fn str_replace_counts() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let (out, n) = l.str_replace(b"o", b"0", &PhpStr::from("foo bool"));
        assert_eq!(out.to_string_lossy(), "f00 b00l");
        assert_eq!(n, 4);
        let (out, n) = l.str_replace(b"xyz", b"-", &PhpStr::from("no match"));
        assert_eq!(out.to_string_lossy(), "no match");
        assert_eq!(n, 0);
    }

    #[test]
    fn replace_with_longer_and_shorter() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let (out, _) = l.str_replace(b"a", b"xyz", &PhpStr::from("aba"));
        assert_eq!(out.to_string_lossy(), "xyzbxyz");
        let (out, _) = l.str_replace(b"ab", b"", &PhpStr::from("abab!"));
        assert_eq!(out.to_string_lossy(), "!");
    }

    #[test]
    fn implode_explode_roundtrip() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let parts = l.explode(b",", &PhpStr::from("a,b,,c"));
        let strs: Vec<String> = parts.iter().map(|s| s.to_string_lossy()).collect();
        assert_eq!(strs, ["a", "b", "", "c"]);
        assert_eq!(l.implode(b",", &parts).to_string_lossy(), "a,b,,c");
    }

    #[test]
    fn htmlspecialchars_encodes() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let out = l.htmlspecialchars(&PhpStr::from(r#"<a href="x">&'b'</a>"#));
        assert_eq!(
            out.to_string_lossy(),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#039;b&#039;&lt;/a&gt;"
        );
    }

    #[test]
    fn nl2br_variants() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        assert_eq!(
            l.nl2br(&PhpStr::from("a\nb")).to_string_lossy(),
            "a<br />\nb"
        );
        assert_eq!(
            l.nl2br(&PhpStr::from("a\r\nb")).to_string_lossy(),
            "a<br />\r\nb"
        );
    }

    #[test]
    fn sprintf_basic() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let out = l.sprintf(
            &PhpStr::from("%s has %d items (%f%%)"),
            &[
                PhpValue::from("cart"),
                PhpValue::from(3i64),
                PhpValue::from(1.5),
            ],
        );
        assert_eq!(out.to_string_lossy(), "cart has 3 items (1.500000%)");
    }

    #[test]
    fn wordwrap_wraps() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        let out = l.wordwrap(&PhpStr::from("aa bb cc dd"), 5);
        assert_eq!(out.to_string_lossy(), "aa bb\ncc dd");
    }

    #[test]
    fn pad_repeat_rev() {
        let p = Profiler::new();
        let l = StrLib::new(&p);
        assert_eq!(
            l.str_pad(&PhpStr::from("ab"), 5, b"-=").to_string_lossy(),
            "ab-=-"
        );
        assert_eq!(
            l.str_repeat(&PhpStr::from("ab"), 3).to_string_lossy(),
            "ababab"
        );
        assert_eq!(l.strrev(&PhpStr::from("abc")).to_string_lossy(), "cba");
    }

    #[test]
    fn char_classes_and_special() {
        assert!(CharClass::Regular.matches(b'a'));
        assert!(CharClass::Regular.matches(b'.'));
        assert!(CharClass::Regular.matches(b' '));
        assert!(is_special_char(b'<'));
        assert!(is_special_char(b'\''));
        assert!(is_special_char(b'\n'));
        assert!(!is_special_char(b'Z'));
        let p = Profiler::new();
        let l = StrLib::new(&p);
        assert_eq!(l.span_class(&PhpStr::from("abc12!x"), CharClass::Alnum), 5);
    }
}
