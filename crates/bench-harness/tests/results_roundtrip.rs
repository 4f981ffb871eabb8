//! Property test: every part of a `BenchRecord` survives encode→decode.
//!
//! Param and metric lists are random: names and string values are drawn
//! from a charset that covers JSON's escape-sensitive characters (quotes,
//! backslashes, control characters, non-ASCII, astral-plane emoji),
//! integers cover the full u64/i64 ranges, and floats are arbitrary finite
//! non-NaN ratios — Rust's shortest-round-trip float formatting must bring
//! every one of them back bit-exactly, and as a float.

use bench_harness::results::{BenchRecord, Provenance, Value, GATED_METRICS};
use proptest::prelude::*;

/// Escape-sensitive characters a JSON string encoder must survive.
const CHARSET: &[char] = &[
    'a', 'Z', '0', ' ', ',', '"', '\\', '/', '\n', '\r', '\t', '\u{0008}', '\u{000C}', '\u{0001}',
    '\u{001F}', 'é', '控', '\u{1F600}', ':', '{', '}', '[', ']',
];

fn string_from(indices: Vec<usize>) -> String {
    indices.into_iter().map(|i| CHARSET[i]).collect()
}

/// A finite, NaN-free float from two integers (denominator is never zero).
fn ratio(num: u64, den: u64, negative: bool) -> f64 {
    let v = num as f64 / (den as f64 + 1.0);
    if negative {
        -v
    } else {
        v
    }
}

/// A named value of any kind: full-range `u64` or `i64`, float, bool or
/// string.
fn field() -> impl Strategy<Value = (String, Value)> {
    (
        prop::collection::vec(0usize..CHARSET.len(), 0..12),
        0u8..5,
        (any::<u64>(), any::<i64>()),
        (any::<u64>(), any::<u64>(), any::<bool>()),
        any::<bool>(),
        prop::collection::vec(0usize..CHARSET.len(), 0..12),
    )
        .prop_map(|(name, kind, (u, i), (num, den, neg), b, text)| {
            let value = match kind {
                0 => Value::from(u),
                1 => Value::from(i),
                2 => Value::Float(ratio(num, den, neg)),
                3 => Value::Bool(b),
                _ => Value::Str(string_from(text)),
            };
            (string_from(name), value)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
    #[test]
    fn every_field_survives_encode_decode(
        figure in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        params in prop::collection::vec(field(), 0..12),
        gated in (
            (any::<u64>(), any::<u64>(), any::<bool>()),
            (any::<u64>(), any::<u64>(), any::<bool>()),
        ),
        extra_metrics in prop::collection::vec(field(), 0..8),
        git_sha_some in any::<bool>(),
        git_sha in prop::collection::vec(0usize..CHARSET.len(), 0..16),
        host_cores in any::<u64>(),
        timestamp in prop::collection::vec(0usize..CHARSET.len(), 0..16),
    ) {
        let ((a, b, c), (d, e, f)) = gated;
        let mut metrics = vec![
            (GATED_METRICS[0].to_string(), Value::Float(ratio(a, b, c))),
            (GATED_METRICS[1].to_string(), Value::Float(ratio(d, e, f))),
        ];
        metrics.extend(extra_metrics);
        let record = BenchRecord {
            figure: string_from(figure),
            params,
            metrics,
            provenance: Provenance {
                git_sha: git_sha_some.then(|| string_from(git_sha)),
                host_cores,
                timestamp: string_from(timestamp),
            },
        };
        let line = record.encode();
        // JSONL invariant: exactly one line per record.
        prop_assert!(!line.contains('\n'), "embedded newline in {line:?}");
        let decoded = BenchRecord::decode(&line)
            .unwrap_or_else(|e| panic!("decode failed: {e}\nline: {line}"));
        // `Value` equality is bitwise for floats and kind-exact, so a float
        // that came back as an integer (or a changed bit) fails here.
        prop_assert_eq!(decoded, record);
    }
}
