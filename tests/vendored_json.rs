//! The vendored `serde_json` stand-in: every value the writer emits, the
//! parser reads back exactly — strings with escapes, control characters and
//! multi-byte UTF-8, finite `f64` bit for bit, the `i64`/`u64` extremes, and
//! nested maps and sequences — in both the compact and the pretty form.

use std::collections::BTreeMap;

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
