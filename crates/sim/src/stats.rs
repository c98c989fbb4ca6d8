//! Cheap named event counters: [`Counter`] and [`StatSet`].
//!
//! Components bump counters on every event of interest (hits, misses,
//! invalidations, rollbacks, ...). A [`StatSet`] is an ordered bag of named
//! counters that can be merged across components and rendered as a report
//! row. Counters are plain `u64`s — no atomics; the simulator is
//! single-threaded per run and sweeps parallelize across *runs*.
//!
//! Two kinds of entry live in a [`StatSet`]:
//!
//! * **counters** — written with [`StatSet::bump`]/[`StatSet::bump_by`];
//!   [`StatSet::merge`] *sums* them across components.
//! * **gauges** — absolute values sampled at end of run, written with
//!   [`StatSet::set`]; [`StatSet::merge`] *overwrites* them (the incoming
//!   value wins), so merging component sets into a run record never
//!   double-counts a sampled value.
//!
//! All accumulation saturates at [`u64::MAX`] rather than wrapping (or
//! panicking under debug assertions) on long-horizon runs.
//!
//! # The slot cache
//!
//! A counter is bumped on every event and read rarely, so a bump must be
//! an indexed add, not a search. Names are `&'static str`, and two such
//! strings with the same address and length hold the same bytes. So each
//! set keeps a small open-addressed table, keyed by a name's address and
//! length, that maps straight to the counter's slot: a bump hashes one
//! pointer, compares one or two entries and adds. Only a name the table
//! has not seen — the first bump of a key, or a copy of a known name that
//! lives at another address — searches the ordered name index, which
//! stays the one source of key order and the rule that a key exists once
//! touched. That is why a hot path bumps by name and holds no handles:
//! after its first bump a name costs a few nanoseconds more than a slot
//! index would, and there is no handle to keep in step with its set.

use std::collections::BTreeMap;
use std::fmt;

/// A single monotonically increasing event counter.
///
/// Accumulation saturates at [`u64::MAX`].
///
/// # Example
///
/// ```rust
/// use tenways_sim::Counter;
///
/// let mut hits = Counter::default();
/// hits.incr();
/// hits.add(3);
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one (saturating).
    pub fn incr(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` (saturating).
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl From<u64> for Counter {
    fn from(v: u64) -> Self {
        Counter(v)
    }
}

/// One named entry: its value plus whether it is a gauge (see the
/// [module docs](self) for the counter/gauge distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stat {
    value: u64,
    gauge: bool,
}

/// One slot-cache entry: a name's address and length, and its slot.
/// `addr == 0` marks an empty entry (no string lives at address zero).
#[derive(Debug, Clone, Copy, Default)]
struct Cached {
    addr: usize,
    len: u32,
    slot: u32,
}

/// An ordered collection of named counters and gauges.
///
/// Keys are `&'static str` event names; ordering is lexicographic so report
/// rows are stable across runs. Values live in a flat slot vector, a
/// name → slot map gives the ordered view, and the
/// [slot cache](self#the-slot-cache) makes a bump of a name seen before
/// one hashed probe, so callers bump by name and hold no handles.
///
/// # Example
///
/// ```rust
/// use tenways_sim::StatSet;
///
/// let mut a = StatSet::new();
/// a.bump("l1.hit");
/// a.bump_by("l1.miss", 2);
///
/// let mut b = StatSet::new();
/// b.bump("l1.hit");
/// a.merge(&b);
/// assert_eq!(a.get("l1.hit"), 2);
/// assert_eq!(a.get("l1.miss"), 2);
/// assert_eq!(a.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatSet {
    slots: Vec<Stat>,
    index: BTreeMap<&'static str, u32>,
    /// The slot cache: a power-of-two table probed linearly from a hash of
    /// the name's address, at most half full.
    cache: Vec<Cached>,
    /// Occupied `cache` entries.
    cached: usize,
}

impl StatSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Where `name`'s probe starts in a table of `mask + 1` entries.
    #[inline]
    fn home(addr: usize, mask: usize) -> usize {
        ((addr as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
    }

    /// `name`'s slot, created at zero if absent.
    #[inline]
    fn slot(&mut self, name: &'static str) -> usize {
        if !self.cache.is_empty() {
            let addr = name.as_ptr() as usize;
            let mask = self.cache.len() - 1;
            let mut i = Self::home(addr, mask);
            loop {
                let c = self.cache[i];
                if c.addr == addr && c.len as usize == name.len() {
                    debug_assert_eq!(self.index.get(name), Some(&c.slot), "stale slot cache");
                    return c.slot as usize;
                }
                if c.addr == 0 {
                    break;
                }
                i = (i + 1) & mask;
            }
        }
        self.slot_miss(name)
    }

    /// The slot cache missed: find or create `name` in the index, then
    /// cache its address.
    #[cold]
    fn slot_miss(&mut self, name: &'static str) -> usize {
        let slot = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Stat {
                    value: 0,
                    gauge: false,
                });
                self.index.insert(name, i);
                i
            }
        };
        // A name too long for the entry is never cached; it still counts.
        if let Ok(len) = u32::try_from(name.len()) {
            if (self.cached + 1) * 2 > self.cache.len() {
                self.grow();
            }
            self.insert_cached(Cached {
                addr: name.as_ptr() as usize,
                len,
                slot,
            });
        }
        slot as usize
    }

    fn insert_cached(&mut self, c: Cached) {
        let mask = self.cache.len() - 1;
        let mut i = Self::home(c.addr, mask);
        while self.cache[i].addr != 0 {
            i = (i + 1) & mask;
        }
        self.cache[i] = c;
        self.cached += 1;
    }

    /// Doubles the slot cache (16 entries at first) and rehashes it.
    fn grow(&mut self) {
        let size = (self.cache.len() * 2).max(16);
        let old = std::mem::replace(&mut self.cache, vec![Cached::default(); size]);
        self.cached = 0;
        for c in old.into_iter().filter(|c| c.addr != 0) {
            self.insert_cached(c);
        }
    }

    /// Adds one to `name`, creating it at zero first if absent.
    #[inline]
    pub fn bump(&mut self, name: &'static str) {
        self.bump_by(name, 1);
    }

    /// Adds `n` to `name` (saturating at [`u64::MAX`]).
    #[inline]
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        let i = self.slot(name);
        let e = &mut self.slots[i];
        e.value = e.value.saturating_add(n);
    }

    /// Sets `name` to an absolute value (for gauges sampled at end of run).
    /// The key is marked as a gauge: [`StatSet::merge`] overwrites it
    /// instead of summing.
    pub fn set(&mut self, name: &'static str, v: u64) {
        let i = self.slot(name);
        self.slots[i] = Stat {
            value: v,
            gauge: true,
        };
    }

    /// Reads a counter; absent counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map(|&i| self.slots[i as usize].value)
            .unwrap_or(0)
    }

    /// Whether `name` holds a gauge (last written via [`StatSet::set`]).
    pub fn is_gauge(&self, name: &str) -> bool {
        self.index
            .get(name)
            .map(|&i| self.slots[i as usize].gauge)
            .unwrap_or(false)
    }

    /// Folds every entry of `other` into `self`: counters are summed
    /// (saturating), gauges overwrite — the incoming absolute value wins,
    /// so a gauge sampled by a component is never double-counted when
    /// component sets are merged into a run record.
    pub fn merge(&mut self, other: &StatSet) {
        for (name, &j) in &other.index {
            let s = other.slots[j as usize];
            let i = self.slot(name);
            let e = &mut self.slots[i];
            if s.gauge {
                *e = s;
            } else {
                e.value = e.value.saturating_add(s.value);
            }
        }
    }

    /// Iterates `(name, value)` in stable (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.index
            .iter()
            .map(|(k, &i)| (*k, self.slots[i as usize].value))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Ratio of two counters, or `None` if the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.get(den);
        (d != 0).then(|| self.get(num) as f64 / d as f64)
    }
}

impl PartialEq for StatSet {
    /// Equality over logical content (name → value/kind), independent of
    /// the order in which counters were first touched.
    fn eq(&self, other: &Self) -> bool {
        self.index.len() == other.index.len()
            && self.index.iter().all(|(k, &i)| {
                other
                    .index
                    .get(k)
                    .is_some_and(|&j| self.slots[i as usize] == other.slots[j as usize])
            })
    }
}

impl Eq for StatSet {}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index.is_empty() {
            return write!(f, "(no stats)");
        }
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k:<40} {v:>16}")?;
        }
        Ok(())
    }
}

impl Extend<(&'static str, u64)> for StatSet {
    fn extend<T: IntoIterator<Item = (&'static str, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.bump_by(k, v);
        }
    }
}

impl FromIterator<(&'static str, u64)> for StatSet {
    fn from_iter<T: IntoIterator<Item = (&'static str, u64)>>(iter: T) -> Self {
        let mut s = StatSet::new();
        s.extend(iter);
        s
    }
}

impl crate::json::ToJson for StatSet {
    /// Counters as an object in stable (lexicographic) key order.
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::obj(self.iter().map(|(k, v)| (k, crate::json::Json::U64(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(Counter::from(5).get(), 5);
    }

    #[test]
    fn counter_saturates_at_max() {
        let mut c = Counter::from(u64::MAX - 1);
        c.add(7);
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX, "incr at the ceiling must not wrap");
    }

    #[test]
    fn statset_bump_get_merge() {
        let mut s = StatSet::new();
        s.bump("a");
        s.bump_by("a", 4);
        s.bump("b");
        let mut t = StatSet::new();
        t.bump_by("a", 10);
        t.bump("c");
        s.merge(&t);
        assert_eq!(s.get("a"), 15);
        assert_eq!(s.get("b"), 1);
        assert_eq!(s.get("c"), 1);
        assert_eq!(s.get("nope"), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn statset_bump_saturates_at_max() {
        let mut s = StatSet::new();
        s.bump_by("big", u64::MAX);
        s.bump("big");
        s.bump_by("big", u64::MAX);
        assert_eq!(s.get("big"), u64::MAX, "bump_by must saturate, not wrap");
        let t: StatSet = [("big", u64::MAX)].into_iter().collect();
        s.merge(&t);
        assert_eq!(s.get("big"), u64::MAX, "merge must saturate, not wrap");
    }

    #[test]
    fn statset_iteration_is_sorted() {
        let s: StatSet = [("z", 1), ("a", 2), ("m", 3)].into_iter().collect();
        let keys: Vec<_> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
    }

    #[test]
    fn statset_ratio() {
        let s: StatSet = [("hit", 3), ("access", 4)].into_iter().collect();
        assert_eq!(s.ratio("hit", "access"), Some(0.75));
        assert_eq!(s.ratio("hit", "absent"), None);
    }

    #[test]
    fn statset_set_overwrites() {
        let mut s = StatSet::new();
        s.bump_by("g", 7);
        s.set("g", 2);
        assert_eq!(s.get("g"), 2);
        assert!(s.is_gauge("g"));
        assert!(!s.is_gauge("absent"));
    }

    #[test]
    fn merge_overwrites_gauges_instead_of_summing() {
        // A gauge written with `set` is an absolute sample: merging two
        // sets that both carry it must not double-count.
        let mut run = StatSet::new();
        run.set("sb.occupancy_max", 5);
        run.bump_by("l1.hits", 10);
        let mut component = StatSet::new();
        component.set("sb.occupancy_max", 7);
        component.bump_by("l1.hits", 3);
        run.merge(&component);
        assert_eq!(
            run.get("sb.occupancy_max"),
            7,
            "gauge must overwrite on merge, not sum to 12"
        );
        assert!(run.is_gauge("sb.occupancy_max"));
        assert_eq!(run.get("l1.hits"), 13, "counters still sum");
    }

    #[test]
    fn merge_after_set_into_fresh_set_keeps_gauge_kind() {
        let mut component = StatSet::new();
        component.set("gauge", 4);
        let mut run = StatSet::new();
        run.merge(&component);
        assert_eq!(run.get("gauge"), 4);
        assert!(run.is_gauge("gauge"), "gauge kind survives the merge");
        // A second merge of the same component still yields the sample.
        run.merge(&component);
        assert_eq!(run.get("gauge"), 4);
    }

    #[test]
    fn one_name_at_two_addresses_is_one_counter() {
        let literal: &'static str = "l1.hit";
        let copy: &'static str = Box::leak(literal.to_owned().into_boxed_str());
        assert_ne!(literal.as_ptr(), copy.as_ptr());
        let mut s = StatSet::new();
        s.bump(literal);
        s.bump_by(copy, 2);
        s.bump(literal);
        s.bump(copy);
        assert_eq!(s.get("l1.hit"), 5);
        assert_eq!(s.len(), 1);
        // Same address, different length: a different name.
        let longer = "l1.hits";
        s.bump(longer);
        s.bump(&longer[..6]);
        assert_eq!(s.get("l1.hit"), 6);
        assert_eq!(s.get("l1.hits"), 1);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![("l1.hit", 6), ("l1.hits", 1)]
        );
    }

    #[test]
    fn many_names_survive_slot_cache_growth() {
        let names: Vec<&'static str> = (0..100)
            .map(|i| &*Box::leak(format!("k{:03}", (i * 37) % 100).into_boxed_str()))
            .collect();
        let mut s = StatSet::new();
        for round in 1..=3u64 {
            for (i, &k) in names.iter().enumerate() {
                s.bump_by(k, i as u64 + round);
            }
        }
        assert_eq!(s.len(), 100);
        for (i, &k) in names.iter().enumerate() {
            assert_eq!(s.get(k), 3 * i as u64 + 6, "{k}");
        }
        let keys: Vec<_> = s.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "iteration stays in key order");
        let reversed: StatSet = names
            .iter()
            .enumerate()
            .rev()
            .map(|(i, &k)| (k, 3 * i as u64 + 6))
            .collect();
        assert_eq!(s, reversed);
    }

    #[test]
    fn zero_bumps_and_gauges_still_create_keys() {
        let mut s = StatSet::new();
        s.bump_by("zero", 0);
        assert_eq!(s.len(), 1, "a zero bump creates the key");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![("zero", 0)]);
        s.bump("c");
        s.set("g", 3);
        assert!(s.is_gauge("g"));
        s.bump_by("c", u64::MAX);
        assert_eq!(s.get("c"), u64::MAX, "cached bumps saturate");
        let mut t = StatSet::new();
        t.set("g", 9);
        t.bump("c");
        t.bump_by("zero", 0);
        s.merge(&t);
        assert_eq!(s.get("g"), 9, "a gauge overwrites on merge");
        assert!(s.is_gauge("g"));
        assert_eq!(s.get("c"), u64::MAX);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn a_clone_counts_into_its_own_slots() {
        let mut a = StatSet::new();
        a.bump("x");
        a.bump("y");
        let mut b = a.clone();
        b.bump("x");
        b.bump("z");
        a.bump("y");
        assert_eq!((a.get("x"), a.get("y"), a.get("z")), (1, 2, 0));
        assert_eq!((b.get("x"), b.get("y"), b.get("z")), (2, 1, 1));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: StatSet = [("x", 1), ("y", 2)].into_iter().collect();
        let b: StatSet = [("y", 2), ("x", 1)].into_iter().collect();
        assert_eq!(a, b);
        let c: StatSet = [("x", 1)].into_iter().collect();
        assert_ne!(a, c);
        let mut d = c.clone();
        d.set("y", 2); // gauge, not counter
        assert_ne!(a, d);
    }

    #[test]
    fn statset_display_nonempty() {
        let s = StatSet::new();
        assert_eq!(s.to_string(), "(no stats)");
        let s: StatSet = [("x", 1)].into_iter().collect();
        assert!(s.to_string().contains('x'));
    }
}
