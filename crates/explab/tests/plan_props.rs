//! Property tests of the plan-file parser.
//!
//! Plan files are outside input, so [`SweepPlan::parse`] must never panic on
//! them, and every line-level error must name a line that exists in the
//! text. Two generators feed it: arbitrary text over a hostile character
//! palette, and line soups built from the real key, value and family names,
//! which reach far deeper into the parser than random bytes do.

use explab::{ExplabError, SweepPlan};
use proptest::prelude::*;

/// The checks every parse result must pass: no panic (implicit), a
/// `PlanParse` line within `1..=line count`, and an accepted plan that has
/// at least one family.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    let lines = text.lines().count();
    match SweepPlan::parse(text) {
        Ok(plan) => prop_assert!(
            !plan.families.is_empty(),
            "accepted a plan without families"
        ),
        Err(ExplabError::PlanParse { line, message }) => {
            prop_assert!(
                (1..=lines).contains(&line),
                "line {line} outside 1..={lines}: {message}"
            );
            prop_assert!(!message.is_empty());
        }
        Err(ExplabError::InvalidPlan { message }) => prop_assert!(!message.is_empty()),
        Err(other) => prop_assert!(false, "unexpected error kind {other:?}"),
    }
    Ok(())
}

/// Arbitrary text: each drawn `u32` picks either a character the plan
/// syntax gives meaning to (or chokes on) or an arbitrary Unicode scalar.
fn arbitrary_text() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        '\n', '\r', '\t', ' ', '#', '=', ',', '-', '0', '1', '9', 'a', 'e', 'f', 'm', 'y', '_',
        '\u{0}', '\u{7f}', 'µ', '😀', '\u{FEFF}', '\u{2028}',
    ];
    proptest::collection::vec(0u32..=u32::MAX, 0..=160).prop_map(|points| {
        points
            .into_iter()
            .map(|p| {
                if p % 4 != 0 {
                    PALETTE[(p / 4) as usize % PALETTE.len()]
                } else {
                    char::from_u32(p % 0x11_0000).unwrap_or('\u{FFFD}')
                }
            })
            .collect()
    })
}

const KEYS: &[&str] = &[
    "name",
    "seed",
    "rounds",
    "workloads",
    "optimize",
    "optim_steps",
    "optim_shards",
    "optim_portfolio",
    "wirelength",
    "wirelength_shards",
    "chaos",
    "chaos_tenants",
    "family",
    "bogus",
];

const VALUES: &[&str] = &[
    "",
    "0",
    "1",
    "2",
    "3",
    "64",
    "100",
    "101",
    "-1",
    "x",
    "none",
    "true",
    "false",
    "maybe",
    "neighbor",
    "neighbor, tornado, random",
    "bitrev,alltoall",
    "warp",
    "congestion",
    "wirelength",
    "makespan",
    "dilation",
    "5, 20",
    "2, 3",
    "1,",
    ", ,",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "=",
    "a = b",
];

const FAMILIES: &[&str] = &[
    "paper",
    "ring_into",
    "torus_to_mesh",
    "same_shape",
    "hypercube",
    "hypercube_torus",
    "random",
    "nope",
    "",
];

const FAMILY_ARGS: &[&str] = &[
    "max_size=8",
    "max_dim=2",
    "count=3",
    "max_size=0",
    "max_dim=18446744073709551615",
    "count=x",
    "bogus=1",
    "max_dim",
    "=",
    "max_size==4",
];

/// One plan-file line assembled from the real vocabulary: a `key = value`
/// line, a `family …` line with arguments, a bare word, a comment or a
/// blank line, each with optional trailing comment and surrounding space.
fn vocabulary_line() -> impl Strategy<Value = String> {
    (
        0u32..6,
        0usize..KEYS.len(),
        0usize..VALUES.len(),
        0usize..FAMILIES.len(),
        proptest::collection::vec(0usize..FAMILY_ARGS.len(), 0..=4),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(kind, key, value, family, args, comment, pad)| {
            let mut line = match kind {
                0 | 1 => format!("{} = {}", KEYS[key], VALUES[value]),
                2 | 3 => {
                    let mut line = format!("family {}", FAMILIES[family]);
                    for arg in args {
                        line.push(' ');
                        line.push_str(FAMILY_ARGS[arg]);
                    }
                    line
                }
                4 => KEYS[key].to_string(),
                _ => String::new(),
            };
            if comment {
                line.push_str(" # note = 1");
            }
            if pad {
                line = format!("  {line}\t");
            }
            line
        })
}

fn vocabulary_plan() -> impl Strategy<Value = String> {
    proptest::collection::vec(vocabulary_line(), 0..=14).prop_map(|lines| lines.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics_and_errors_name_a_real_line(text in arbitrary_text()) {
        check_parse(&text)?;
    }

    #[test]
    fn vocabulary_plans_never_panic_and_errors_name_a_real_line(text in vocabulary_plan()) {
        check_parse(&text)?;
        // Parsing is a pure function of the text.
        prop_assert_eq!(SweepPlan::parse(&text), SweepPlan::parse(&text));
    }
}
