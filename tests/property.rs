//! Property-based tests over the core data structures and the
//! accelerator/software equivalences the whole evaluation rests on.

use proptest::prelude::*;

use phpaccel::htable::{GetOutcome, HtConfig, HwHashTable, SetOutcome};
use phpaccel::regex::Regex;
use phpaccel::regexaccel::{regexp_shadow, regexp_sieve, replace_padded, HintVector};
use phpaccel::runtime::array::{ArrayKey, PhpArray};
use phpaccel::runtime::value::PhpValue;
use phpaccel::straccel::StringAccel;

// ---------------------------------------------------------------------------
// PhpArray behaves like an insertion-ordered map
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MapOp {
    Insert(String, i64),
    Remove(String),
    Get(String),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    let key = prop::sample::select(vec!["a", "bb", "ccc", "key4", "key5", "k6", "k7", "k8"])
        .prop_map(str::to_owned);
    prop_oneof![
        (key.clone(), any::<i64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        key.clone().prop_map(MapOp::Remove),
        key.prop_map(MapOp::Get),
    ]
}

proptest! {
    #[test]
    fn php_array_matches_ordered_model(ops in prop::collection::vec(map_op(), 1..120)) {
        let mut arr = PhpArray::new();
        // Model: Vec of (key, value) preserving insertion order.
        let mut model: Vec<(String, i64)> = Vec::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    arr.insert(ArrayKey::from(k.as_str()), PhpValue::from(v));
                    match model.iter_mut().find(|(mk, _)| *mk == k) {
                        Some(slot) => slot.1 = v,
                        None => model.push((k, v)),
                    }
                }
                MapOp::Remove(k) => {
                    let a = arr.remove(&ArrayKey::from(k.as_str())).is_some();
                    let before = model.len();
                    model.retain(|(mk, _)| *mk != k);
                    prop_assert_eq!(a, model.len() != before);
                }
                MapOp::Get(k) => {
                    let a = arr.get(&ArrayKey::from(k.as_str())).map(|v| v.to_int());
                    let m = model.iter().find(|(mk, _)| *mk == k).map(|(_, v)| *v);
                    prop_assert_eq!(a, m);
                }
            }
            prop_assert_eq!(arr.len(), model.len());
        }
        // Final insertion order must match the model exactly.
        let got: Vec<(String, i64)> =
            arr.iter().map(|(k, v)| (k.to_string(), v.to_int())).collect();
        prop_assert_eq!(got, model);
    }
}

// ---------------------------------------------------------------------------
// String accelerator ≡ software semantics
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn accel_find_equals_std(hay in prop::collection::vec(32u8..127, 0..300),
                             needle in prop::collection::vec(32u8..127, 1..6)) {
        let mut accel = StringAccel::default();
        let expected = hay
            .windows(needle.len())
            .position(|w| w == needle.as_slice());
        let (got, _) = accel.find(&hay, &needle, 0).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn accel_case_conversion_equals_std(s in prop::collection::vec(0u8..=255, 0..300)) {
        let mut accel = StringAccel::default();
        let (upper, _) = accel.translate_case(&s, true);
        let expected: Vec<u8> = s.iter().map(|b| b.to_ascii_uppercase()).collect();
        prop_assert_eq!(upper, expected);
        let (lower, _) = accel.translate_case(&s, false);
        let expected: Vec<u8> = s.iter().map(|b| b.to_ascii_lowercase()).collect();
        prop_assert_eq!(lower, expected);
    }

    #[test]
    fn accel_trim_equals_std(s in prop::collection::vec(prop::sample::select(
        vec![b' ', b'\t', b'a', b'b', b'z']), 0..200)) {
        let mut accel = StringAccel::default();
        let ((start, end), _) = accel.trim_range(&s, b" \t").unwrap();
        let lead = s.iter().take_while(|&&b| b == b' ' || b == b'\t').count();
        let trail = s.iter().rev().take_while(|&&b| b == b' ' || b == b'\t').count();
        let (estart, eend) = if lead == s.len() { (s.len(), s.len()) } else { (lead, s.len() - trail) };
        prop_assert_eq!(&s[start..end], &s[estart..eend]);
    }
}

// ---------------------------------------------------------------------------
// Hardware hash table: a coherent cache over a reference map
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn htable_is_a_coherent_cache(
        ops in prop::collection::vec((0u64..4, 0usize..10, any::<u64>()), 1..200)
    ) {
        use std::collections::HashMap;
        let mut ht = HwHashTable::new(HtConfig { entries: 64, probe_width: 4, rtt_maps: 16, rtt_slots: 32 });
        let mut reference: HashMap<(u64, usize), u64> = HashMap::new();
        let keys: Vec<Vec<u8>> = (0..10).map(|i| format!("key_{i}").into_bytes()).collect();
        for (base4, ki, val) in ops {
            let base = 0x1000 + base4 * 0x100;
            match val % 3 {
                0 | 1 => {
                    // SET then GET must observe the value.
                    if matches!(ht.set(base, &keys[ki], val), SetOutcome::Unsupported) {
                        unreachable!("short keys");
                    }
                    reference.insert((base, ki), val);
                    match ht.get(base, &keys[ki]) {
                        GetOutcome::Hit { value_ptr } => prop_assert_eq!(value_ptr, val),
                        GetOutcome::Miss => prop_assert!(false, "set then get must hit"),
                        GetOutcome::Unsupported => unreachable!(),
                    }
                }
                _ => {
                    // A hit must return the last SET/fill value.
                    if let GetOutcome::Hit { value_ptr } = ht.get(base, &keys[ki]) {
                        let expected = reference.get(&(base, ki));
                        prop_assert_eq!(Some(&value_ptr), expected, "stale hit");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Content sifting: shadow ≡ full scan for eligible patterns
// ---------------------------------------------------------------------------

fn content_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![
            20 => prop::sample::select(b"abcdefgh ".to_vec()),
            1 => prop::sample::select(b"'\"<>&\n".to_vec()),
        ],
        0..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shadow_never_misses_matches(content in content_strategy()) {
        let sieve_re = Regex::new("'").unwrap();
        let mut accel = StringAccel::default();
        let sieve = regexp_sieve(&sieve_re, &content, 32, &mut accel);
        for pat in ["\"", "<[a-z]+>", "&", "'s", "\\n"] {
            let re = Regex::new(pat).unwrap();
            let shadow = regexp_shadow(&re, &content, &sieve.hv);
            let (full, _) = re.find_all(&content);
            prop_assert_eq!(&shadow.matches, &full, "pattern {}", pat);
        }
    }

    #[test]
    fn padded_replace_keeps_segment_alignment(
        content in prop::collection::vec(32u8..127, 64..256),
        start in 0usize..64,
        len in 0usize..16,
        repl in prop::collection::vec(33u8..127, 0..40),
    ) {
        let seg = 32;
        let end = (start + len).min(content.len());
        let start = start.min(end);
        let flags: Vec<bool> = content.chunks(seg).map(|_| false).collect();
        let mut hv = HintVector::from_flags(&flags, seg);
        let before_segments = hv.segments();
        let edit = replace_padded(&content, start, end, &repl, &mut hv);
        // Alignment invariant: the length change is a whole number of segments.
        let delta = edit.content.len() as i64 - content.len() as i64;
        prop_assert!(delta >= 0 || (end - start) >= repl.len());
        prop_assert_eq!(delta.rem_euclid(seg as i64), 0, "delta {} not segment-aligned", delta);
        prop_assert_eq!(hv.segments(), before_segments + edit.segments_added);
        // Content after the edited region is preserved verbatim.
        let tail = &content[end..];
        prop_assert!(edit.content.ends_with(tail));
    }
}

// ---------------------------------------------------------------------------
// Regex FSM: resuming from a stored state ≡ fresh run (content reuse core)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn fsm_resume_equals_fresh(subject in "[a-c]{0,40}", split in 0usize..40) {
        let re = Regex::new("a(b|c)*abc").unwrap();
        let bytes = subject.as_bytes();
        let split = split.min(bytes.len());
        let (full, _) = re.match_at(bytes, 0);
        if let Some(state) = re.fsm_state_after(&bytes[..split]) {
            let resumed = re.fsm_run_from(state, &bytes[split..], true);
            prop_assert_eq!(
                resumed.last_match_end.map(|e| e + split),
                full.map(|m| m.end)
            );
        } else {
            // FSM died on the prefix ⇒ no match can extend through it.
            prop_assert!(full.is_none() || full.unwrap().end <= split);
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness: the front end never panics, and budgets fail cleanly
// ---------------------------------------------------------------------------

use phpaccel::core::PhpMachine;
use phpaccel::interp::{parse, Interp};

/// PHP-ish token soup: syntactically broken in every way real traffic is,
/// including multi-byte UTF-8 and stray backslashes.
fn php_soup() -> impl Strategy<Value = String> {
    let frag = prop::sample::select(vec![
        "$x",
        "$y",
        "=",
        "1",
        "99999999999999999999",
        "+",
        "-",
        "*",
        "/",
        "(",
        ")",
        "{",
        "}",
        ";",
        "while",
        "if",
        "else",
        "function",
        "echo",
        "return",
        "'s'",
        "\"d\"",
        "'unterminated",
        ".",
        "==",
        "!=",
        "!",
        "<",
        ">",
        "[",
        "]",
        ",",
        "foreach",
        "as",
        "=>",
        "€",
        "日本",
        "\\",
        "<?php",
        "&&",
        "||",
        "$",
        "0x",
        "1.5e",
        "#",
    ])
    .prop_map(str::to_owned);
    prop::collection::vec(frag, 0..60).prop_map(|v| v.join(" "))
}

proptest! {
    #[test]
    fn frontend_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        // Lexing + parsing arbitrary (lossily decoded) bytes must return
        // Ok or Err — any panic fails the test.
        let src = String::from_utf8_lossy(&bytes);
        let _ = parse(&src);
    }

    #[test]
    fn frontend_never_panics_on_php_soup(src in php_soup()) {
        let _ = parse(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fuel_exhaustion_is_a_clean_timeout(fuel in 1u64..400) {
        let mut m = PhpMachine::specialized();
        m.ctx().set_fuel(Some(fuel));
        let err = {
            let mut i = Interp::new(&mut m);
            i.run("$i = 0; while (true) { $a = []; $i = $i + 1; }").unwrap_err()
        };
        prop_assert!(err.is_timeout(), "expected timeout, got {:?}", err);
        // The machine is fully recoverable afterwards.
        m.ctx().set_fuel(None);
        m.recover_request();
        prop_assert_eq!(m.ctx().with_allocator(|a| a.live_block_count()), 0);
        let out = {
            let mut i = Interp::new(&mut m);
            i.run("echo 'alive';").unwrap();
            i.take_output()
        };
        prop_assert_eq!(out, b"alive".to_vec());
    }
}
