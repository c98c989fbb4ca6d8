//! Canonical JSON hashing: content addresses for deterministic results.
//!
//! Every simulation in this workspace is reproducible by construction, so a
//! run is fully identified by its configuration — if two configs serialize
//! to the same canonical document, their results are interchangeable. This
//! module provides the two pieces that turn that property into a cache key:
//!
//! * [`canonical`] — rewrites a [`Json`] tree into canonical form: object
//!   keys sorted bytewise (recursively), later duplicate keys winning over
//!   earlier ones. Arrays keep their order (array order is semantic).
//! * [`Sha256`] / [`sha256_hex`] — an in-tree SHA-256 (the build
//!   environment is offline, so no external digest crate), giving the
//!   canonical rendering a collision-resistant content address.
//! * [`canonical_hash`] — the composition: the hex digest of the compact
//!   canonical rendering.
//!
//! The cache-key contract built on top of this lives in
//! `tenways_waste::SimConfig::cache_key`; see DESIGN.md §12.

use crate::json::Json;

/// Rewrites `doc` into canonical form: object keys sorted bytewise at
/// every level, duplicate keys resolved last-wins (matching the overlay
/// semantics of the config decoder), arrays and scalars untouched.
///
/// Two documents that differ only in key order — or in which duplicate of
/// a repeated key carries the final value — canonicalize identically, so
/// their [`canonical_hash`]es collide.
pub fn canonical(doc: &Json) -> Json {
    match doc {
        Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
        Json::Obj(pairs) => {
            // Last duplicate wins: walk in reverse, keep the first sighting
            // of each key, then sort for a position-independent rendering.
            let mut kept: Vec<(String, Json)> = Vec::with_capacity(pairs.len());
            for (key, value) in pairs.iter().rev() {
                if !kept.iter().any(|(k, _)| k == key) {
                    kept.push((key.clone(), canonical(value)));
                }
            }
            kept.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(kept)
        }
        other => other.clone(),
    }
}

/// The SHA-256 hex digest of `doc`'s compact canonical rendering.
pub fn canonical_hash(doc: &Json) -> String {
    sha256_hex(canonical(doc).to_string().as_bytes())
}

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 (FIPS 180-4). Safe-code only, no lookup beyond the
/// round-constant table `K`.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher in the standard initial state.
    pub fn new() -> Sha256 {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_bytes = self.total_bytes.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 as a lowercase hex string.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    let digest = h.finalize();
    let mut out = String::with_capacity(64);
    for byte in digest {
        use std::fmt::Write;
        let _ = write!(out, "{byte:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_streams_across_block_boundaries() {
        // One-shot and chunked updates must agree for lengths around the
        // 64-byte block size (including the padding edge at 56 bytes).
        for len in [1usize, 55, 56, 57, 63, 64, 65, 127, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let oneshot = sha256_hex(&data);
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            let digest = h.finalize();
            let chunked: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(oneshot, chunked, "len {len}");
        }
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let shuffled = Json::parse(r#"{"z":1,"a":{"y":2,"b":[{"q":3,"p":4}]}}"#).unwrap();
        let sorted = Json::parse(r#"{"a":{"b":[{"p":4,"q":3}],"y":2},"z":1}"#).unwrap();
        assert_eq!(canonical(&shuffled), sorted);
        assert_eq!(canonical_hash(&shuffled), canonical_hash(&sorted));
    }

    #[test]
    fn canonical_keeps_array_order() {
        let a = Json::parse("[1,2,3]").unwrap();
        let b = Json::parse("[3,2,1]").unwrap();
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn canonical_resolves_duplicate_keys_last_wins() {
        let dup = Json::Obj(vec![
            ("k".to_string(), Json::U64(1)),
            ("k".to_string(), Json::U64(2)),
        ]);
        assert_eq!(canonical(&dup), Json::obj([("k", Json::U64(2))]));
    }

    #[test]
    fn semantic_change_changes_the_hash() {
        let a = Json::parse(r#"{"threads":8}"#).unwrap();
        let b = Json::parse(r#"{"threads":9}"#).unwrap();
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
    }
}
