//! Mutation fuzzing of [`parse_toml`], the parser behind `serve`'s TOML
//! request bodies and every sweep grid.
//!
//! Seed documents are the committed example grid plus inline documents
//! covering the syntax the parser branches on. Each case applies a few
//! byte-level mutations drawn from the simulator's own deterministic RNG
//! ([`DetRng`]), so every run fuzzes the exact same case set and a
//! failure names the case index that reproduces it. Properties: parsing
//! never panics, an error's line lies within the input, an accepted tree
//! nests no deeper than [`MAX_DEPTH`], and every accepted tree survives
//! the JSON writer and parser unchanged, since a TOML body is served,
//! cached and forwarded as JSON.

mod common;

use common::{mutate, repo_root};
use tenways_sim::json::Json;
use tenways_sim::toml::parse_toml;
use tenways_sim::{DetRng, MAX_DEPTH};

const CASES: u64 = 10_000;

/// Fragments spliced into the middle of documents: the header, key,
/// string and comment delimiters the parser branches on, and number
/// prefixes and separators.
const SPLICES: &[&str] = &["=", "[", "[[", "]]", ".", "\"", "#", "\n", "0x", "_"];

/// Inline seeds beside the example grid, one per syntax family.
const INLINE: &[&str] = &[
    // Dotted headers and quoted keys.
    "workload = \"lu\"\n[machine]\nnoc_mesh = true\n[protocol.deep.inner]\n\
     \"quoted key\" = 1\n\"a.b\" = \"dotted\"\n",
    // Nested arrays, with delimiters inside their strings.
    "xs = [[1, 2], [3, [4, 5]], []]\nys = [\"a, b\", \"[c]\", \"\"]\n",
    // Escapes.
    "s = \"tab\\there \\\"q\\\" back\\\\slash\\nline\"\nt = \"\\r\"\n",
    // Hex, underscored, negative and float numbers.
    "seed = 0x7ea5\nbig = 1_000_000\nmask = 0xdead_beef\nneg = -42\n\
     f = 2.5e-3\ng = 1_000.5\nh = -0.0\nhuge = 1.5e300\n",
    // Comments, and a `#` inside a string.
    "# leading comment\nworkload = \"lu\" # trailing\n\n[spec] # on a header\n\
     mode = \"a#b\"\n",
];

/// The seed documents, in a fixed order.
fn corpus() -> Vec<(String, String)> {
    let grid = repo_root().join("examples/sweep_grid.toml");
    let mut docs = vec![(
        grid.display().to_string(),
        std::fs::read_to_string(&grid).expect("readable example grid"),
    )];
    docs.extend(
        INLINE
            .iter()
            .enumerate()
            .map(|(i, text)| (format!("inline[{i}]"), text.to_string())),
    );
    // The deepest documents the bound admits: arrays nested up to it
    // from the root table, and from inside a section header.
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    docs.push((
        "deep arrays".to_string(),
        format!("a = {}\n", arrays(MAX_DEPTH - 1)),
    ));
    docs.push((
        "deep header".to_string(),
        format!("[s.t]\na = {}\n", arrays(MAX_DEPTH - 3)),
    ));
    docs
}

/// Containers on the deepest path through `v`, counting `v` itself:
/// the nesting [`Json::parse`] bounds by [`MAX_DEPTH`].
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Parses `text` and checks every property; `case` names the input.
/// Returns whether the parser accepted it.
fn check(case: &str, text: &str) -> bool {
    let parsed = std::panic::catch_unwind(|| parse_toml(text))
        .unwrap_or_else(|_| panic!("{case}: parse_toml panicked"));
    match parsed {
        Err(e) => {
            let lines = text.lines().count();
            assert!(
                (1..=lines).contains(&e.line),
                "{case}: error on line {} of a {lines}-line input",
                e.line
            );
            false
        }
        Ok(tree) => {
            assert!(
                depth(&tree) <= MAX_DEPTH,
                "{case}: accepted a tree {} containers deep",
                depth(&tree)
            );
            assert_eq!(
                Json::parse(&tree.to_string()).as_ref(),
                Ok(&tree),
                "{case}: the tree does not survive JSON rendering"
            );
            true
        }
    }
}

#[test]
fn seed_documents_parse_and_round_trip() {
    for (name, text) in corpus() {
        assert!(check(&name, &text), "{name} must be valid TOML");
    }
}

#[test]
fn mutated_documents_never_panic_and_round_trip_when_accepted() {
    let corpus = corpus();
    let mut accepted = 0;
    for case in 0..CASES {
        let mut rng = DetRng::seed(0x150F).split("toml-parse").split_index(case);
        let (_, seed) = &corpus[rng.below(corpus.len() as u64) as usize];
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..rng.range(1, 5) {
            mutate(&mut rng, &mut bytes, SPLICES);
        }
        // Bodies reach the parser as `&str`; invalid UTF-8 becomes U+FFFD.
        let text = String::from_utf8_lossy(&bytes);
        if check(&format!("case {case}"), &text) {
            accepted += 1;
        }
    }
    // Both outcomes must be exercised for the properties to mean much.
    assert!(
        accepted > CASES / 20 && accepted < CASES * 19 / 20,
        "{accepted}/{CASES} mutants accepted"
    );
}
