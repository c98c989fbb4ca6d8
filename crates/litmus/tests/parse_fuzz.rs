//! Mutation fuzzing of [`LitmusTest::parse`], the reader of `.litmus`
//! files given to `tenways litmus`.
//!
//! Seed documents are the 12 sources of the in-tree [`CORPUS`]. Each case
//! applies a few byte-level mutations drawn from the simulator's own
//! deterministic RNG ([`DetRng`]) through the mutator the other parser
//! fuzz targets share, so every run fuzzes the exact same case set and a
//! failure names the case index that reproduces it. Properties: parsing
//! never panics, an error's line lies within the input, and every
//! accepted test compiles into thread programs without a panic.

#[allow(dead_code)]
#[path = "../../sim/tests/common/mod.rs"]
mod common;

use common::mutate;
use tenways_litmus::{compile, LitmusTest, CORPUS};
use tenways_sim::DetRng;

const CASES: u64 = 10_000;

/// Fragments spliced into the middle of documents: the format's
/// keywords and separators, line endings, the largest `u64` and one past
/// it, and a multibyte character.
const SPLICES: &[&str] = &[
    "test ",
    "thread ",
    "init ",
    " = cas ",
    "fence acquire",
    "compute ",
    "forbidden ",
    " : ",
    "&",
    "#",
    "\r\n",
    "18446744073709551615",
    "18446744073709551616",
    "並",
];

/// Parses `text` and checks every property; `case` names the input.
/// Returns whether the parser accepted it.
fn check(case: &str, text: &str) -> bool {
    let parsed = std::panic::catch_unwind(|| LitmusTest::parse(text))
        .unwrap_or_else(|_| panic!("{case}: LitmusTest::parse panicked"));
    match parsed {
        Err(e) => {
            let lines = text.lines().count().max(1);
            assert!(
                (1..=lines).contains(&e.line),
                "{case}: error on line {} of a {lines}-line input",
                e.line
            );
            false
        }
        Ok(test) => {
            std::panic::catch_unwind(|| compile(&test, &[]))
                .unwrap_or_else(|_| panic!("{case}: compile panicked on an accepted test"));
            true
        }
    }
}

#[test]
fn mutated_litmus_sources_never_panic_and_compile_when_accepted() {
    let mut accepted = 0;
    for case in 0..CASES {
        let mut rng = DetRng::seed(0x117).split("litmus-parse").split_index(case);
        let seed = CORPUS[rng.below(CORPUS.len() as u64) as usize];
        let mut bytes = seed.as_bytes().to_vec();
        for _ in 0..rng.range(1, 5) {
            mutate(&mut rng, &mut bytes, SPLICES);
        }
        // The parser takes `&str`; invalid UTF-8 becomes U+FFFD.
        let text = String::from_utf8_lossy(&bytes);
        if check(&format!("case {case}"), &text) {
            accepted += 1;
        }
    }
    // Both outcomes must be exercised for the properties to mean much.
    // The format is strict (a predicate names only declared registers and
    // locations), so about 6% of these mutants parse.
    assert!(
        accepted > CASES / 50 && accepted < CASES * 19 / 20,
        "{accepted}/{CASES} mutants accepted"
    );
}
