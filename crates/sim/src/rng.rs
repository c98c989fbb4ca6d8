//! Deterministic, splittable randomness: [`DetRng`].
//!
//! Every stochastic decision in a tenways simulation (workload address
//! streams, contention kernels) draws from a
//! [`DetRng`] derived from the run's single seed, so runs are bit-for-bit
//! reproducible and sub-streams (one per thread, one per component) are
//! statistically independent of each other.
//!
//! The generator is SplitMix64 — tiny, fast, passes BigCrush for our purposes,
//! and trivially *splittable*: [`DetRng::split`] derives an independent child
//! stream from a label, so adding a new consumer never perturbs existing
//! streams (unlike handing out consecutive draws from one global RNG).

/// A deterministic 64-bit PRNG (SplitMix64) with labeled splitting.
///
/// # Example
///
/// ```rust
/// use tenways_sim::DetRng;
///
/// let mut root = DetRng::seed(42);
/// let mut a = root.split("thread-0");
/// let mut b = root.split("thread-1");
/// // Child streams are independent and reproducible:
/// assert_ne!(a.next_u64(), b.next_u64());
/// assert_eq!(DetRng::seed(42).split("thread-0").next_u64(),
///            DetRng::seed(42).split("thread-0").next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            state: mix(seed ^ GOLDEN_GAMMA),
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// Splitting does not consume randomness from `self`'s output sequence;
    /// it hashes the label into the child's seed, so the set of children is
    /// stable no matter the order they are created in.
    pub fn split(&self, label: &str) -> DetRng {
        let mut h = self.state;
        for &b in label.as_bytes() {
            h = mix(h ^ u64::from(b)).wrapping_add(GOLDEN_GAMMA);
        }
        DetRng { state: mix(h) }
    }

    /// Derives an independent child stream identified by an index.
    pub fn split_index(&self, index: u64) -> DetRng {
        DetRng {
            state: mix(self.state ^ mix(index.wrapping_add(GOLDEN_GAMMA))),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Uniform value in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Widening multiply keeps the distribution unbiased enough for
        // simulation purposes (bias < 2^-64 * bound).
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Samples a (truncated) geometric-ish burst length in `[1, max]` with
    /// mean roughly `mean` — used by workloads to model bursty access runs.
    pub fn burst(&mut self, mean: f64, max: u64) -> u64 {
        let mut n = 1u64;
        let continue_p = 1.0 - 1.0 / mean.max(1.0);
        while n < max && self.chance(continue_p) {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(DetRng::seed(1).next_u64(), DetRng::seed(2).next_u64());
    }

    #[test]
    fn split_is_order_independent() {
        let root = DetRng::seed(99);
        let a_then_b = (root.split("a").next_u64(), root.split("b").next_u64());
        let b_then_a = (root.split("b").next_u64(), root.split("a").next_u64());
        assert_eq!(a_then_b.0, b_then_a.1);
        assert_eq!(a_then_b.1, b_then_a.0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = DetRng::seed(4);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_panics() {
        DetRng::seed(0).below(0);
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut r = DetRng::seed(5);
        for _ in 0..1_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = DetRng::seed(8);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = DetRng::seed(9);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed(10);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted, "64 elements should not shuffle to identity");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = DetRng::seed(11);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn burst_bounds() {
        let mut r = DetRng::seed(12);
        for _ in 0..1_000 {
            let b = r.burst(4.0, 16);
            assert!((1..=16).contains(&b));
        }
    }

    #[test]
    fn burst_mean_is_close() {
        let mut r = DetRng::seed(13);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.burst(4.0, 1_000)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "got {mean}");
    }
}
