//! The mutator shared by the parser fuzz tests.

use std::path::{Path, PathBuf};
use tenways_sim::{DetRng, MAX_DEPTH};

/// The workspace root, which holds the committed seed documents.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One random edit of `bytes`; `splices` are the fragments the parser
/// under test branches on.
pub fn mutate(rng: &mut DetRng, bytes: &mut Vec<u8>, splices: &[&str]) {
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
            let piece = splices[rng.below(splices.len() as u64) as usize];
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
