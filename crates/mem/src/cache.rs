//! Set-associative cache arrays with LRU replacement: [`CacheArray`],
//! [`CacheParams`].

use tenways_sim::BlockAddr;

/// Validated organization of a [`CacheArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    sets: usize,
    ways: usize,
}

impl CacheParams {
    /// Creates parameters for a `sets` × `ways` array.
    ///
    /// # Errors
    ///
    /// Returns `None` if `sets` is zero or not a power of two, if `ways`
    /// is zero, or if `sets × ways` is past `u32::MAX` (a [`CacheArray`]
    /// indexes its ways in `u32`s).
    pub fn new(sets: usize, ways: usize) -> Option<Self> {
        let blocks = sets.checked_mul(ways)?;
        if sets == 0 || !sets.is_power_of_two() || ways == 0 || u32::try_from(blocks).is_err() {
            return None;
        }
        Some(CacheParams { sets, ways })
    }

    /// Number of sets.
    pub const fn sets(self) -> usize {
        self.sets
    }

    /// Associativity.
    pub const fn ways(self) -> usize {
        self.ways
    }

    /// Total block capacity.
    pub const fn blocks(self) -> usize {
        self.sets * self.ways
    }
}

/// A block pushed out of the array by [`CacheArray::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<T> {
    /// Which block was evicted.
    pub block: BlockAddr,
    /// Its payload (protocol state, dirtiness, speculation bits, ...).
    pub payload: T,
}

#[derive(Debug, Clone)]
struct Way<T> {
    block: BlockAddr,
    payload: T,
    /// LRU timestamp (monotone per-array counter).
    stamp: u64,
}

/// A set-associative array mapping [`BlockAddr`]s to payloads `T`.
///
/// The array is purely structural: hits, insertions and evictions; it never
/// interprets the payload. Timing, coherence state and writeback policy live
/// in the protocol layer above.
///
/// An insert fills an invalid way when its set has one; otherwise it
/// evicts the set's least recently used way (per-way timestamps).
///
/// Storage is lazy: a new array holds one `u32` per set and no ways. A
/// set's `W` ways are appended to a pool on the set's first insert;
/// lookups and removals on a set never filled miss without writing
/// anything. The pool's room for every set is reserved up front, one
/// allocation that writes nothing, so building an array costs O(sets) and
/// two allocations whatever its size, and a run pays only for the sets it
/// fills.
#[derive(Debug, Clone)]
pub struct CacheArray<T> {
    params: CacheParams,
    /// Per set: 0 until the set's first insert, then 1 + the index in
    /// `ways` of the set's first way. (Storing the index itself, not a slot
    /// number, keeps a multiply off every lookup.)
    index: Vec<u32>,
    /// The pool: slot `k` owns `ways[k * W .. (k + 1) * W]`, `W` the
    /// associativity; slots are numbered in first-fill order.
    ways: Vec<Option<Way<T>>>,
    tick: u64,
    occupied: usize,
}

impl<T> CacheArray<T> {
    /// Creates an empty array.
    pub fn new(params: CacheParams) -> Self {
        CacheArray {
            params,
            index: vec![0; params.sets],
            ways: Vec::with_capacity(params.blocks()),
            tick: 0,
            occupied: 0,
        }
    }

    /// The array's organization.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether the array holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The set `block` maps to.
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.as_u64() as usize) & (self.params.sets - 1)
    }

    /// Index into `ways` of set `set`'s first way, if the set was ever
    /// filled.
    fn base(&self, set: usize) -> Option<usize> {
        match self.index[set] {
            0 => None,
            first => Some(first as usize - 1),
        }
    }

    /// Index into `ways` of set `set`'s first way, appending the set's
    /// ways to the pool on its first fill.
    fn fill(&mut self, set: usize) -> usize {
        if let Some(base) = self.base(set) {
            return base;
        }
        let base = self.ways.len();
        self.index[set] = u32::try_from(base + 1).expect("CacheParams bounds the ways by u32");
        self.ways.resize_with(base + self.params.ways, || None);
        base
    }

    /// Index into `ways` where `block` is resident, if it is.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.base(self.set_index(block))?;
        let way = self.ways[base..base + self.params.ways]
            .iter()
            .position(|w| w.as_ref().is_some_and(|w| w.block == block))?;
        Some(base + way)
    }

    /// Looks up a block without touching replacement state (a *probe*).
    pub fn peek(&self, block: BlockAddr) -> Option<&T> {
        let i = self.find(block)?;
        self.ways[i].as_ref().map(|w| &w.payload)
    }

    /// Looks up a block, promoting it in the replacement order on hit.
    pub fn get(&mut self, block: BlockAddr) -> Option<&mut T> {
        self.tick += 1;
        let i = self.find(block)?;
        self.touch(i);
        self.ways[i].as_mut().map(|w| &mut w.payload)
    }

    /// Mutable access without promoting (for protocol-side state updates that
    /// should not look like a use, e.g. handling a remote invalidation).
    pub fn peek_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        let i = self.find(block)?;
        self.ways[i].as_mut().map(|w| &mut w.payload)
    }

    /// Inserts a block, returning the victim if a valid block had to be
    /// evicted. If the block is already resident its payload is replaced
    /// (and no eviction occurs).
    pub fn insert(&mut self, block: BlockAddr, payload: T) -> Option<Evicted<T>> {
        self.tick += 1;
        let way = Way {
            block,
            payload,
            stamp: self.tick,
        };

        // Already resident: replace payload in place.
        if let Some(i) = self.find(block) {
            self.ways[i] = Some(way);
            return None;
        }

        // Free way available.
        let base = self.fill(self.set_index(block));
        let set_ways = base..base + self.params.ways;
        if let Some(free) = self.ways[set_ways.clone()].iter().position(Option::is_none) {
            self.ways[base + free] = Some(way);
            self.occupied += 1;
            return None;
        }

        // Evict the least recently used way.
        let victim = base + Self::lru_victim(&self.ways[set_ways]);
        let old = self.ways[victim]
            .replace(way)
            .expect("victim way was occupied");
        Some(Evicted {
            block: old.block,
            payload: old.payload,
        })
    }

    /// Removes a block, returning its payload.
    pub fn remove(&mut self, block: BlockAddr) -> Option<T> {
        let i = self.find(block)?;
        let way = self.ways[i].take()?;
        self.occupied -= 1;
        Some(way.payload)
    }

    /// Iterates `(block, &payload)` over all resident blocks in set order,
    /// then way order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> + '_ {
        let ways = self.params.ways;
        (0..self.params.sets)
            .filter_map(|set| self.base(set))
            .flat_map(move |base| self.ways[base..base + ways].iter().flatten())
            .map(|w| (w.block, &w.payload))
    }

    /// Iterates `(block, &mut payload)` over all resident blocks in the
    /// order of [`CacheArray::iter`]. Reordering the pool's slots into set
    /// order collects one pointer per filled set.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BlockAddr, &mut T)> + '_ {
        let ways = self.params.ways;
        let mut by_slot: Vec<_> = self.ways.chunks_mut(ways).map(Some).collect();
        self.index
            .iter()
            .filter(|&&first| first != 0)
            .flat_map(move |&first| {
                by_slot[(first as usize - 1) / ways]
                    .take()
                    .expect("each pool slot belongs to one set")
                    .iter_mut()
                    .flatten()
            })
            .map(|w| (w.block, &mut w.payload))
    }

    /// Marks way `i` (an index into `ways`) as just used.
    fn touch(&mut self, i: usize) {
        if let Some(w) = self.ways[i].as_mut() {
            w.stamp = self.tick;
        }
    }

    /// The least recently stamped way of a full set.
    fn lru_victim(ways: &[Option<Way<T>>]) -> usize {
        ways.iter()
            .enumerate()
            .min_by_key(|(_, w)| w.as_ref().map_or(0, |w| w.stamp))
            .map(|(i, _)| i)
            .expect("ways > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(sets: usize, ways: usize) -> CacheParams {
        CacheParams::new(sets, ways).unwrap()
    }

    #[test]
    fn params_validation() {
        assert!(CacheParams::new(0, 4).is_none());
        assert!(CacheParams::new(3, 4).is_none());
        assert!(CacheParams::new(4, 0).is_none());
        // A `CacheArray` indexes its ways in `u32`s.
        assert!(CacheParams::new(1 << 29, 8).is_none());
        assert!(CacheParams::new(1 << 28, 8).is_some());
        let p = params(8, 2);
        assert_eq!(p.blocks(), 16);
    }

    #[test]
    fn insert_then_get() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 2));
        assert!(c.insert(BlockAddr(5), 55).is_none());
        assert_eq!(c.peek(BlockAddr(5)), Some(&55));
        assert_eq!(c.get(BlockAddr(5)), Some(&mut 55));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_payload_without_eviction() {
        let mut c: CacheArray<u32> = CacheArray::new(params(1, 1));
        c.insert(BlockAddr(1), 10);
        let ev = c.insert(BlockAddr(1), 20);
        assert!(ev.is_none());
        assert_eq!(c.peek(BlockAddr(1)), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One set, two ways: blocks 0, 4, 8 all map to set 0 (4 sets).
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 2));
        c.insert(BlockAddr(0), 0);
        c.insert(BlockAddr(4), 4);
        // Touch 0 so 4 is LRU.
        c.get(BlockAddr(0));
        let ev = c.insert(BlockAddr(8), 8).expect("set was full");
        assert_eq!(ev.block, BlockAddr(4));
        assert!(c.peek(BlockAddr(0)).is_some());
        assert!(c.peek(BlockAddr(8)).is_some());
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 2));
        c.insert(BlockAddr(0), 0);
        c.insert(BlockAddr(4), 4);
        // peek at 0 — must NOT promote it; 0 stays LRU.
        assert_eq!(c.peek(BlockAddr(0)), Some(&0));
        let ev = c.insert(BlockAddr(8), 8).unwrap();
        assert_eq!(ev.block, BlockAddr(0));
    }

    #[test]
    fn remove_frees_way() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 1));
        c.insert(BlockAddr(0), 1);
        assert_eq!(c.remove(BlockAddr(0)), Some(1));
        assert_eq!(c.remove(BlockAddr(0)), None);
        assert!(c.is_empty());
        assert!(c.insert(BlockAddr(4), 2).is_none(), "way is free again");
    }

    #[test]
    fn iter_visits_all_blocks() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 2));
        for i in 0..6 {
            c.insert(BlockAddr(i), i as u32 * 10);
        }
        let mut got: Vec<_> = c.iter().map(|(b, &p)| (b.as_u64(), p)).collect();
        got.sort_unstable();
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[5], (5, 50));
    }

    #[test]
    fn iter_mut_allows_payload_updates() {
        let mut c: CacheArray<u32> = CacheArray::new(params(2, 2));
        c.insert(BlockAddr(0), 1);
        c.insert(BlockAddr(1), 2);
        for (_, p) in c.iter_mut() {
            *p += 100;
        }
        assert_eq!(c.peek(BlockAddr(0)), Some(&101));
        assert_eq!(c.peek(BlockAddr(1)), Some(&102));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4, 1));
        for i in 0..4 {
            assert!(c.insert(BlockAddr(i), 0).is_none(), "distinct sets");
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn lru_full_set_cycles_fifo_under_streaming() {
        let mut c: CacheArray<u32> = CacheArray::new(params(1, 3));
        c.insert(BlockAddr(0), 0);
        c.insert(BlockAddr(1), 0);
        c.insert(BlockAddr(2), 0);
        let e1 = c.insert(BlockAddr(3), 0).unwrap();
        let e2 = c.insert(BlockAddr(4), 0).unwrap();
        assert_eq!(e1.block, BlockAddr(0));
        assert_eq!(e2.block, BlockAddr(1));
    }

    /// The sets whose ways the array holds, in set order.
    fn filled_sets<T>(c: &CacheArray<T>) -> Vec<usize> {
        (0..c.params.sets).filter(|&s| c.index[s] != 0).collect()
    }

    #[test]
    fn a_new_array_holds_no_ways() {
        let c: CacheArray<u32> = CacheArray::new(params(4096, 8));
        assert!(c.ways.is_empty());
        assert!(filled_sets(&c).is_empty());
        // The pool's room is reserved once, up front.
        assert!(c.ways.capacity() >= 4096 * 8);
    }

    #[test]
    fn lookups_and_removals_on_an_untouched_set_create_nothing() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4096, 8));
        c.insert(BlockAddr(0), 1);
        for b in [1, 2, 4095, 4096 + 7] {
            let block = BlockAddr(b);
            assert_eq!(c.peek(block), None);
            assert_eq!(c.get(block), None);
            assert_eq!(c.peek_mut(block), None);
            assert_eq!(c.remove(block), None);
        }
        assert_eq!(filled_sets(&c), [0]);
        assert_eq!(c.ways.len(), 8);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn one_insert_creates_exactly_its_own_set() {
        let mut c: CacheArray<u32> = CacheArray::new(params(4096, 8));
        assert!(c.insert(BlockAddr(3 * 4096 + 5), 9).is_none());
        assert_eq!(filled_sets(&c), [5]);
        assert_eq!(c.ways.len(), 8);
        assert_eq!(c.peek(BlockAddr(3 * 4096 + 5)), Some(&9));
    }

    #[test]
    fn iter_and_iter_mut_walk_in_set_order_whatever_the_fill_order() {
        let mut c: CacheArray<u64> = CacheArray::new(params(8, 2));
        // First fills in the order 6, 1, 7, 0, 3; two ways each in sets 1
        // and 7.
        for b in [6, 1, 7, 9, 15, 0, 3] {
            c.insert(BlockAddr(b), b * 10);
        }
        let want = [
            (0, 0),
            (1, 10),
            (9, 90),
            (3, 30),
            (6, 60),
            (7, 70),
            (15, 150),
        ];
        let got: Vec<(u64, u64)> = c.iter().map(|(b, &p)| (b.0, p)).collect();
        assert_eq!(got, want);
        let got_mut: Vec<(u64, u64)> = c.iter_mut().map(|(b, p)| (b.0, *p)).collect();
        assert_eq!(got_mut, want);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use tenways_sim::DetRng;

    /// Occupancy never exceeds capacity and len() tracks reality.
    #[test]
    fn occupancy_invariant() {
        for case in 0..32u64 {
            let mut rng = DetRng::seed(0xCAC4E).split("occupancy").split_index(case);
            let n = rng.range(1, 200);
            let mut c: CacheArray<u64> = CacheArray::new(CacheParams::new(4, 2).unwrap());
            for _ in 0..n {
                let blk = rng.below(64);
                if rng.chance(0.5) {
                    c.insert(BlockAddr(blk), blk);
                } else {
                    c.remove(BlockAddr(blk));
                }
                assert!(c.len() <= c.params().blocks(), "case {case}: over capacity");
                assert_eq!(c.len(), c.iter().count(), "case {case}: len out of sync");
            }
        }
    }

    /// After an insert the block is always resident, and an eviction only
    /// happens when the set was full of *other* blocks.
    #[test]
    fn insert_makes_resident() {
        for case in 0..32u64 {
            let mut rng = DetRng::seed(0xCAC4E).split("resident").split_index(case);
            let n = rng.range(1, 100);
            let mut c: CacheArray<u64> = CacheArray::new(CacheParams::new(2, 2).unwrap());
            for _ in 0..n {
                let b = rng.below(32);
                let ev = c.insert(BlockAddr(b), b);
                assert!(c.peek(BlockAddr(b)).is_some(), "case {case}: not resident");
                if let Some(ev) = ev {
                    assert_ne!(ev.block, BlockAddr(b), "case {case}: evicted itself");
                    // victim came from the same set
                    assert_eq!(
                        ev.block.as_u64() & 1,
                        b & 1,
                        "case {case}: cross-set victim"
                    );
                }
            }
        }
    }

    /// A resident block's payload survives unrelated traffic.
    #[test]
    fn get_returns_inserted_payload() {
        let mut c: CacheArray<u64> = CacheArray::new(CacheParams::new(8, 4).unwrap());
        c.insert(BlockAddr(3), 333);
        // Traffic to other sets only.
        for i in 0..100u64 {
            let b = i * 8; // set 0
            c.insert(BlockAddr(b), b);
        }
        assert_eq!(c.peek(BlockAddr(3)), Some(&333));
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use tenways_sim::DetRng;

    /// A reference model of the array kept one set at a time: each set owns
    /// its ways. The flat array must agree with it on every answer and
    /// every eviction.
    struct RefCache {
        /// Per set, per way: `(block, payload, stamp)`.
        sets: Vec<Vec<Option<(u64, u64, u64)>>>,
        tick: u64,
    }

    impl RefCache {
        fn new(sets: usize, ways: usize) -> Self {
            RefCache {
                sets: vec![vec![None; ways]; sets],
                tick: 0,
            }
        }

        fn locate(&self, block: u64) -> (usize, Option<usize>) {
            let set = block as usize % self.sets.len();
            let way = self.sets[set]
                .iter()
                .position(|w| w.is_some_and(|(b, _, _)| b == block));
            (set, way)
        }

        /// The least recently stamped way of a full set.
        fn victim(&self, set: usize) -> usize {
            let ways = &self.sets[set];
            (0..ways.len())
                .min_by_key(|&w| ways[w].map_or(0, |(_, _, stamp)| stamp))
                .unwrap()
        }

        fn get(&mut self, block: u64) -> Option<u64> {
            self.tick += 1;
            let (set, way) = self.locate(block);
            let w = self.sets[set][way?].as_mut()?;
            w.2 = self.tick;
            Some(w.1)
        }

        fn peek(&self, block: u64) -> Option<u64> {
            let (set, way) = self.locate(block);
            self.sets[set][way?].map(|(_, p, _)| p)
        }

        fn add(&mut self, block: u64, delta: u64) -> Option<u64> {
            let (set, way) = self.locate(block);
            let w = self.sets[set][way?].as_mut()?;
            w.1 += delta;
            Some(w.1)
        }

        fn insert(&mut self, block: u64, payload: u64) -> Option<(u64, u64)> {
            self.tick += 1;
            let (set, way) = self.locate(block);
            let (way, evicted) = match way {
                Some(way) => (way, None),
                None => match self.sets[set].iter().position(Option::is_none) {
                    Some(free) => (free, None),
                    None => {
                        let victim = self.victim(set);
                        let (b, p, _) = self.sets[set][victim].unwrap();
                        (victim, Some((b, p)))
                    }
                },
            };
            self.sets[set][way] = Some((block, payload, self.tick));
            evicted
        }

        fn remove(&mut self, block: u64) -> Option<u64> {
            let (set, way) = self.locate(block);
            self.sets[set][way?].take().map(|(_, p, _)| p)
        }

        fn contents(&self) -> Vec<(u64, u64)> {
            self.sets
                .iter()
                .flatten()
                .flatten()
                .map(|&(b, p, _)| (b, p))
                .collect()
        }
    }

    #[test]
    fn flat_array_matches_the_per_set_reference() {
        let shapes = [(1, 1), (1, 4), (2, 3), (4, 2), (4, 5), (8, 8)];
        for (case, &(sets, ways)) in shapes.iter().enumerate() {
            let mut rng = DetRng::seed(0xF1A7).split_index(case as u64);
            let mut flat: CacheArray<u64> = CacheArray::new(CacheParams::new(sets, ways).unwrap());
            let mut model = RefCache::new(sets, ways);
            // Three blocks per way of every set keep sets full and churning.
            let span = (3 * sets * ways) as u64;
            for step in 0..2_000 {
                let b = rng.below(span);
                let block = BlockAddr(b);
                let at = format!("{sets}x{ways} step {step} block {b}");
                match rng.below(6) {
                    0 => assert_eq!(flat.get(block).map(|p| *p), model.get(b), "get {at}"),
                    1 => assert_eq!(flat.peek(block).copied(), model.peek(b), "peek {at}"),
                    2 => {
                        let got = flat.peek_mut(block).map(|p| {
                            *p += 1000;
                            *p
                        });
                        assert_eq!(got, model.add(b, 1000), "peek_mut {at}");
                    }
                    3 => assert_eq!(flat.remove(block), model.remove(b), "remove {at}"),
                    _ => {
                        let payload = rng.below(1 << 20);
                        let evicted = flat.insert(block, payload).map(|e| (e.block.0, e.payload));
                        assert_eq!(evicted, model.insert(b, payload), "insert {at}");
                    }
                }
                let contents: Vec<(u64, u64)> = flat.iter().map(|(b, &p)| (b.0, p)).collect();
                assert_eq!(contents, model.contents(), "iter order {at}");
                assert_eq!(flat.len(), contents.len(), "len {at}");
            }
        }
    }
}
