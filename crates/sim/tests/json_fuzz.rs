//! Mutation fuzzing of [`Json::parse`], the parser every serve request
//! goes through.
//!
//! Seed documents are the committed results schemas and `BENCH_*.json`
//! rows. Each case applies a few byte-level mutations drawn from the
//! simulator's own deterministic RNG ([`DetRng`]), so every run fuzzes
//! the exact same case set and a failure names the case index that
//! reproduces it. Properties: parsing never panics, an error's position
//! lies within the input, and every accepted document survives both
//! renderings: `parse(render(v)) == v` for the compact and the pretty
//! writer.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;
use tenways_sim::json::Json;
use tenways_sim::{DetRng, MAX_DEPTH};

const CASES: u64 = 10_000;

/// Fragments spliced into the middle of documents: the string and
/// container delimiters the parser branches on, and numbers at the edge
/// of their lanes.
const SPLICES: &[&str] = &[
    "\"",
    "\\",
    "\\u",
    "\\u00",
    "\\ud800",
    "[",
    "{",
    "]",
    "}",
    ",",
    ":",
    "-0",
    "1e400",
    "1.5e-7",
    "18446744073709551616",
    "-9223372036854775809",
    "é",
    "\u{1}",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `*.json` files in `dir` whose names start with `prefix`.
fn json_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .collect()
}

/// The committed results schemas and `BENCH_*.json` rows, in a fixed
/// order.
fn corpus() -> Vec<(String, String)> {
    let root = repo_root();
    let mut paths = json_files(&root.join("results/schema"), "");
    paths.extend(json_files(&root, "BENCH_"));
    paths.sort();
    assert!(paths.len() >= 8, "corpus too small: {paths:?}");
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable corpus file");
            (path.display().to_string(), text)
        })
        .collect()
}

/// One random edit of `bytes`.
fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>) {
    let len = bytes.len() as u64;
    let at = rng.below(len + 1) as usize;
    match rng.below(6) {
        // Flip one bit.
        0 if len > 0 => {
            let i = rng.below(len) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        // Insert one byte.
        1 => bytes.insert(at, rng.below(256) as u8),
        // Delete up to eight bytes.
        2 if len > 0 => {
            let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
            bytes.drain(at.min(end)..end);
        }
        // Truncate.
        3 => bytes.truncate(at),
        // Splice a delimiter or edge-case literal.
        4 => {
            let piece = SPLICES[rng.below(SPLICES.len() as u64) as usize];
            bytes.splice(at..at, piece.bytes());
        }
        // Splice containers opened (not closed) around the depth bound
        // or far past it.
        _ => {
            let depth = if rng.chance(0.5) {
                MAX_DEPTH - 2 + rng.below(5) as usize
            } else {
                rng.range(1, 4_000) as usize
            };
            let open = if rng.chance(0.5) { "[" } else { "{\"k\":" };
            bytes.splice(at..at, open.repeat(depth).into_bytes());
        }
    }
}

/// Parses `text` and checks every property; `case` names the input.
/// Returns whether the parser accepted it.
fn check(case: &str, text: &str) -> bool {
    let parsed = std::panic::catch_unwind(|| Json::parse(text))
        .unwrap_or_else(|_| panic!("{case}: Json::parse panicked"));
    match parsed {
        Err(e) => {
            assert!(
                e.pos <= text.len(),
                "{case}: error at byte {} of a {}-byte input",
                e.pos,
                text.len()
            );
            false
        }
        Ok(v) => {
            assert_eq!(
                Json::parse(&v.to_string()).as_ref(),
                Ok(&v),
                "{case}: compact rendering does not round-trip"
            );
            assert_eq!(
                Json::parse(&v.pretty()).as_ref(),
                Ok(&v),
                "{case}: pretty rendering does not round-trip"
            );
            true
        }
    }
}

#[test]
fn corpus_documents_parse_and_round_trip() {
    for (name, text) in corpus() {
        assert!(check(&name, &text), "{name} must be valid JSON");
    }
}

#[test]
fn mutated_documents_never_panic_and_round_trip_when_accepted() {
    let corpus = corpus();
    let mut accepted = 0;
    for case in 0..CASES {
        let mut rng = DetRng::seed(0x150F).split("json-parse").split_index(case);
        let (_, seed) = &corpus[rng.below(corpus.len() as u64) as usize];
        let mut bytes = seed.clone().into_bytes();
        for _ in 0..rng.range(1, 5) {
            mutate(&mut rng, &mut bytes);
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

/// A 1 MiB string parses in time linear in its length. The parser once
/// re-validated the rest of the input for every character it copied,
/// which takes about half a minute on this input; running on a worker
/// thread with a deadline makes that a failure instead of a hang.
#[test]
fn one_mebibyte_string_parses_in_linear_time() {
    const UNIT: &str = "plain ascii é 日本 🎉 \\\"q\\\" \\n ";
    const DECODED: &str = "plain ascii é 日本 🎉 \"q\" \n ";
    let reps = (1 << 20) / UNIT.len();
    let doc = format!("{{\"s\":\"{}\"}}", UNIT.repeat(reps));
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(Json::parse(&doc));
    });
    let parsed = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a 1 MiB string must parse within 10 s");
    worker.join().unwrap();
    let parsed = parsed.unwrap();
    assert_eq!(
        parsed.get("s").and_then(Json::as_str),
        Some(DECODED.repeat(reps).as_str())
    );
}
