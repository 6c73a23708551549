//! The vendored `serde_json` stand-in: every value the writer emits, the
//! parser reads back exactly — strings with escapes, control characters and
//! multi-byte UTF-8, finite `f64` bit for bit, the `i64`/`u64` extremes, and
//! nested maps and sequences — in both the compact and the pretty form.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;

/// Write `value` compact and pretty and parse both back as `T`. A macro,
/// not a generic function: the facade does not re-export the `serde`
/// traits a bound would name.
macro_rules! round_trip {
    ($value:expr, $t:ty) => {{
        let value = $value;
        let compact = serde_json::to_string(value).unwrap();
        let pretty = serde_json::to_string_pretty(value).unwrap();
        let from_compact: $t =
            serde_json::from_str(&compact).unwrap_or_else(|e| panic!("{e}: {compact}"));
        let from_pretty: $t =
            serde_json::from_str(&pretty).unwrap_or_else(|e| panic!("{e}: {pretty}"));
        (from_compact, from_pretty)
    }};
}

/// Characters weighted towards what a JSON writer must escape: quotes,
/// backslashes, the C0 control range, then ASCII, two-, three- and
/// four-byte UTF-8.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
        (0xe000u32..0x1_0000).prop_map(|c| char::from_u32(c).unwrap()),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Any finite `f64`: raw bit patterns (subnormals, huge exponents, -0.0)
/// with the non-finite ones folded to a plain value.
fn any_finite() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                bits as f64
            }
        }),
        -1.0e6f64..1.0e6,
    ]
}

type Record = (i64, u64, f64, Option<String>);

fn any_record() -> impl Strategy<Value = Record> {
    (
        i64::MIN..=i64::MAX,
        0u64..=u64::MAX,
        any_finite(),
        (0usize..2, any_string()).prop_map(|(some, s)| (some == 1).then_some(s)),
    )
}

fn bits(records: &[Record]) -> Vec<(i64, u64, u64, Option<String>)> {
    records
        .iter()
        .map(|(i, u, f, s)| (*i, *u, f.to_bits(), s.clone()))
        .collect()
}

#[test]
fn integer_extremes_round_trip() {
    let signed = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    let unsigned = vec![0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];
    assert_eq!(round_trip!(&signed, Vec<i64>), (signed.clone(), signed));
    assert_eq!(
        round_trip!(&unsigned, Vec<u64>),
        (unsigned.clone(), unsigned)
    );
}

#[test]
fn escapes_are_written_as_json_requires() {
    let s = "q\"b\\n\nr\rt\tnul\u{0}us\u{1f}é€😀".to_string();
    assert_eq!(
        serde_json::to_string(&s).unwrap(),
        r#""q\"b\\n\nr\rt\tnul\u0000us\u001fé€😀""#
    );
    // Escapes the writer never emits still parse.
    let parsed: String = serde_json::from_str(r#""\/\b\fé""#).unwrap();
    assert_eq!(parsed, "/\u{8}\u{c}é");
}

#[test]
fn plain_runs_next_to_escapes_decode_exactly() {
    // Multi-byte characters directly before and after every escape kind.
    let cases = [
        (r#""é\"€""#, "é\"€"),
        (r#""😀\\é""#, "😀\\é"),
        (r#""€\u00e9😀""#, "€é😀"),
        (r#""\u20acé\u0041""#, "€éA"),
        (r#""ab\"\\\n\u0000\/""#, "ab\"\\\n\u{0}/"),
        (r#""\"\\\/\b\f\n\r\t\u00e9""#, "\"\\/\u{8}\u{c}\n\r\té"),
        (r#""""#, ""),
    ];
    for (text, want) in cases {
        let parsed: String = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(parsed, want, "{text}");
    }
}

#[test]
fn malformed_strings_fail_with_their_byte_offset() {
    let cases = [
        (r#""abc"#, "unterminated string at byte 4"),
        (r#""é€"#, "unterminated string at byte 6"),
        (r#""é\"#, "unterminated escape at byte 4"),
        (r#""é\x""#, "bad escape `\\x` at byte 5"),
        (r#""é\u12"#, "truncated \\u escape at byte 5"),
        (r#""é\u12G4""#, "invalid \\u escape at byte 9"),
        (r#""é\ud800""#, "invalid \\u code point at byte 9"),
    ];
    for (text, want) in cases {
        let err = serde_json::from_str::<String>(text).unwrap_err();
        assert_eq!(err.to_string(), want, "{text}");
    }
}

/// Decode a one-string document on a helper thread and return the wall
/// time in seconds. A quadratic decoder needs minutes for one megabyte and
/// about an hour for four, so a decode still running after 30 s fails the
/// test at once instead of stalling the suite; a linear one takes
/// milliseconds.
fn timed_decode(text: &Arc<String>) -> f64 {
    let (done, finished) = mpsc::channel();
    let text = Arc::clone(text);
    let bytes = text.len();
    thread::spawn(move || {
        let t = Instant::now();
        let parsed: Vec<String> = serde_json::from_str(&text).unwrap();
        let secs = t.elapsed().as_secs_f64();
        // `["` and `"]` aside, each two-byte `\"` decodes to one byte.
        assert_eq!(
            parsed[0].len(),
            text.len() - 4 - text.matches(r#"\""#).count()
        );
        done.send(secs).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("decoding {bytes} bytes: {e}"))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Quadrupling a string's length must not cost 16× as it would in a
/// quadratic decoder: decoding is linear, so about 4×.
#[test]
fn string_decoding_scales_linearly() {
    // One string of about `mb` megabytes: mostly plain runs, with
    // multi-byte UTF-8 and two escapes per unit.
    let unit = r#"switching latency é€😀 \"pair\" "#;
    let doc = |mb: usize| {
        Arc::new(format!(
            "[\"{}\"]",
            unit.repeat(mb * 1_000_000 / unit.len())
        ))
    };
    let (small, large) = (doc(1), doc(4));
    let (mut t_small, mut t_large) = (Vec::new(), Vec::new());
    // Interleave the sizes so that a burst of load on the host hits both.
    for _ in 0..5 {
        t_small.push(timed_decode(&small));
        t_large.push(timed_decode(&large));
    }
    let ratio = median(t_large) / median(t_small);
    assert!(
        ratio < 8.0,
        "4 MB/1 MB decode time ratio {ratio:.1}, want about 4"
    );
}

#[test]
fn empty_containers_round_trip() {
    let empty: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    assert_eq!(serde_json::to_string_pretty(&empty).unwrap(), "{}");
    assert_eq!(
        round_trip!(&empty, BTreeMap<String, Vec<u64>>),
        (empty.clone(), empty)
    );
    let nested: Vec<Vec<u64>> = vec![vec![], vec![]];
    assert_eq!(serde_json::to_string(&nested).unwrap(), "[[],[]]");
    assert_eq!(
        round_trip!(&nested, Vec<Vec<u64>>),
        (nested.clone(), nested)
    );
}

proptest! {
    #[test]
    fn strings_round_trip(s in any_string()) {
        let (a, b) = round_trip!(&s, String);
        prop_assert_eq!(&a, &s);
        prop_assert_eq!(&b, &s);
        // Control characters never reach the output unescaped.
        let written = serde_json::to_string(&s).unwrap();
        prop_assert!(!written.chars().any(|c| (c as u32) < 0x20), "{}", written);
    }

    #[test]
    fn finite_floats_round_trip_bit_for_bit(x in any_finite()) {
        let (a, b) = round_trip!(&x, f64);
        prop_assert_eq!(a.to_bits(), x.to_bits(), "compact {:?}", x);
        prop_assert_eq!(b.to_bits(), x.to_bits(), "pretty {:?}", x);
    }

    #[test]
    fn integers_round_trip(i in i64::MIN..=i64::MAX, u in 0u64..=u64::MAX) {
        prop_assert_eq!(round_trip!(&i, i64), (i, i));
        prop_assert_eq!(round_trip!(&u, u64), (u, u));
    }

    #[test]
    fn nested_maps_and_sequences_round_trip(
        entries in proptest::collection::vec(
            (any_string(), proptest::collection::vec(any_record(), 0..4)),
            0..5,
        ),
    ) {
        let map: BTreeMap<String, Vec<Record>> = entries.into_iter().collect();
        let (a, b) = round_trip!(&map, BTreeMap<String, Vec<Record>>);
        for parsed in [&a, &b] {
            prop_assert_eq!(
                parsed.keys().collect::<Vec<_>>(),
                map.keys().collect::<Vec<_>>()
            );
            for (key, records) in &map {
                prop_assert_eq!(bits(&parsed[key]), bits(records));
            }
        }
        // Compact and pretty are two spellings of one document.
        let compact = serde_json::to_string(&map).unwrap();
        prop_assert_eq!(serde_json::to_string(&b).unwrap(), compact);
    }
}
