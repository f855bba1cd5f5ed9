//! Hostile-input properties of the JSON codec and the plan text format.
//!
//! * **round-trip** — [`json::decode_string`] inverts [`json::escape`] for
//!   any string, control characters and astral code points included;
//! * **panic-free** — [`json::parse`] and [`Plan::parse`] return `Ok` or a
//!   typed error with an in-range offset on arbitrary byte strings,
//!   including bracket runs far deeper than [`json::MAX_DEPTH`].

use embeddings::json::{self, Json};
use embeddings::plan::{Plan, PlanError};
use proptest::prelude::*;

/// An arbitrary string: each drawn `u32` picks either a point from a
/// hostile palette (quotes, escapes, every control character class,
/// non-ASCII, astral) or an arbitrary Unicode scalar value.
fn any_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\n',
        '\r',
        '\t',
        '\u{1f}',
        '\u{7f}',
        'u',
        'µ',
        '\u{FFFF}',
        '😀',
        '\u{10FFFF}',
    ];
    proptest::collection::vec(0u32..=u32::MAX, 0..=24).prop_map(|points| {
        points
            .into_iter()
            .map(|p| {
                if p % 2 == 0 {
                    PALETTE[(p / 2) as usize % PALETTE.len()]
                } else {
                    char::from_u32(p % 0x11_0000).unwrap_or('\u{FFFD}')
                }
            })
            .collect()
    })
}

/// Arbitrary bytes, biased toward fragments the two parsers branch on, then
/// read as text the way a server reads a frame (`from_utf8_lossy`).
fn hostile_text() -> impl Strategy<Value = String> {
    const FRAGMENTS: &[&str] = &[
        "[",
        "]",
        "{",
        "}",
        "\"",
        "\\",
        "\\u",
        "\\ud800",
        "\\udc00",
        "d83d",
        ":",
        ",",
        "-",
        "1e",
        "0.5",
        "true",
        "nul",
        " ",
        "plan v1 guest=",
        "mesh:2x2",
        "torus:4",
        " host=",
        " dilation=1",
        " construction=",
        " table=",
        "-",
        "0,1,3,2",
        "\n",
    ];
    proptest::collection::vec(0u32..=u32::MAX, 0..=40).prop_map(|draws| {
        let mut bytes = Vec::new();
        for d in draws {
            if d % 3 == 0 {
                bytes.push((d >> 8) as u8);
            } else {
                bytes.extend_from_slice(FRAGMENTS[(d >> 2) as usize % FRAGMENTS.len()].as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// A bracket run up to ~1500× deeper than the nesting cap, with an
/// arbitrary closing run and tail.
fn deep_text() -> impl Strategy<Value = String> {
    (0usize..=200_000, 0usize..=200_000, 0u8..=3, hostile_text()).prop_map(
        |(open, close, kind, tail)| {
            let (o, c) = match kind {
                0 => ("[", "]"),
                1 => ("{\"k\":", "}"),
                2 => ("[{\"k\":", "}]"),
                _ => ("[\"\\u00b5\",", "]"),
            };
            o.repeat(open) + "0" + &c.repeat(close) + &tail
        },
    )
}

fn assert_parsers_are_total(text: &str) -> Result<(), TestCaseError> {
    if let Err(error) = json::parse(text) {
        prop_assert!(error.offset <= text.len(), "{error}");
    }
    if let Err(PlanError::Parse { offset, .. }) = Plan::parse(text) {
        prop_assert!(offset <= text.len());
    }
    if let Err(error) = json::decode_string(text, 0) {
        prop_assert!(error.offset <= text.len(), "{error}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_inverts_escape(s in any_string(), prefix in any_string()) {
        let literal = json::escape(&s);
        prop_assert_eq!(
            json::decode_string(&literal, 0),
            Ok((s.clone(), literal.len()))
        );
        prop_assert_eq!(json::parse(&literal), Ok(Json::String(s.clone())));
        // Decoding from an offset inside a larger text stops at the
        // literal's closing quote.
        let embedded = format!("{prefix}{literal},");
        prop_assert_eq!(
            json::decode_string(&embedded, prefix.len()),
            Ok((s, prefix.len() + literal.len()))
        );
    }

    #[test]
    fn parsers_never_panic_on_hostile_bytes(text in hostile_text()) {
        assert_parsers_are_total(&text)?;
    }

    #[test]
    fn parsers_never_panic_on_deep_bracket_runs(text in deep_text()) {
        assert_parsers_are_total(&text)?;
    }
}
