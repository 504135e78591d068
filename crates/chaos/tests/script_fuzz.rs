//! Fuzzing the fault-script parser: whatever the input, `from_script`
//! returns a schedule or a `line N: ...` diagnostic, never a panic.
//!
//! Two input families, each with a fixed case budget:
//!
//! * arbitrary text, assembled from grammar words, junk tokens and mixed
//!   separators (so the parser's deeper branches are reached), or from
//!   raw bytes;
//! * token-level mutations (drop, duplicate, swap) of one valid script
//!   that uses every fault kind and a `domain` line. Newlines are tokens
//!   too, so a mutation can split, merge or empty a statement.

use proptest::prelude::*;
use vod_chaos::FaultSchedule;

/// A valid script: every fault kind, a domain declaration and a
/// correlated domain fault.
const VALID: &str = "# every fault kind\n\
     domain rack0 0 1\n\
     10 0 crash\n\
     20 1 slow:4\n\
     25 2 pressure:0.5\n\
     30 0 rejoin:cold\n\
     40 1 rejoin:warm\n\
     50 2 degrade:1:2\n\
     60 2 error:0.25\n\
     70 @rack0 crash\n\
     80 @rack0 rejoin\n";

/// Grammar words, near misses and junk that the text generator joins.
const WORDS: &[&str] = &[
    "domain",
    "rack0",
    "@rack0",
    "@",
    "@nope",
    "0",
    "1",
    "7",
    "10",
    "-1",
    "2.5",
    "1e400",
    "NaN",
    "inf",
    "18446744073709551616",
    "crash",
    "slow:2",
    "slow:",
    "slow:0.5",
    "pressure:0.5",
    "pressure:",
    "rejoin",
    "rejoin:warm",
    "rejoin:cold",
    "rejoin:",
    "degrade:0:2",
    "degrade:",
    "degrade:0",
    "degrade::",
    "error:0.1",
    "error:1",
    ":",
    "#",
    "é",
    "\u{0}",
];

/// Separators between words: statements split on newlines, fields on
/// any other whitespace.
const SEPS: &[&str] = &[" ", " ", "\n", "\t", "\r\n", ""];

fn word_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), 0..SEPS.len()), 0..24).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(w, s)| format!("{}{}", WORDS[w], SEPS[s]))
            .collect()
    })
}

fn byte_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..=255, 0..64)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Splits a script into tokens: each whitespace-separated field and each
/// newline.
fn tokens(src: &str) -> Vec<&str> {
    src.lines()
        .flat_map(|line| line.split_whitespace().chain(std::iter::once("\n")))
        .collect()
}

/// Applies `(op, i, j)` mutations in order: op 0 drops token `i`, op 1
/// duplicates it, op 2 swaps tokens `i` and `j` (indices wrap).
fn mutate(mut toks: Vec<&str>, muts: &[(u8, usize, usize)]) -> String {
    for &(op, i, j) in muts {
        if toks.is_empty() {
            break;
        }
        let (i, j) = (i % toks.len(), j % toks.len());
        match op {
            0 => {
                toks.remove(i);
            }
            1 => toks.insert(i, toks[i]),
            _ => toks.swap(i, j),
        }
    }
    let mut out = String::new();
    for t in toks {
        if t != "\n" && !out.is_empty() && !out.ends_with('\n') {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

/// The property both families check: no panic (the harness turns one
/// into a failure) and every refusal names its line.
fn parses_or_names_a_line(src: &str) {
    if let Err(e) = FaultSchedule::from_script(src) {
        assert!(e.starts_with("line "), "{src:?} -> {e}");
    }
}

#[test]
fn the_unmutated_script_is_valid() {
    let s = FaultSchedule::from_script(VALID).expect("valid script");
    // Seven node faults plus two domain faults on two nodes each.
    assert_eq!(s.len(), 11);
    assert_eq!(s.domain_event_count(), 2);
    assert_eq!(mutate(tokens(VALID), &[]), VALID);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_parses_or_names_a_line(
        src in prop_oneof![word_text(), byte_text()],
    ) {
        parses_or_names_a_line(&src);
    }

    #[test]
    fn mutated_valid_script_parses_or_names_a_line(
        muts in prop::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..5),
    ) {
        parses_or_names_a_line(&mutate(tokens(VALID), &muts));
    }
}
