//! The functional value layer: [`ArchMem`] and per-core speculative
//! overlays ([`SpecOverlay`]).
//!
//! Timing and values are decoupled in tenways: the coherence protocol
//! moves *addresses* with realistic timing, while program-visible values
//! live in one flat architectural memory updated at operation completion
//! times. Speculative epochs buffer their writes in a per-core overlay that
//! is flushed on commit and discarded on rollback; coherence-conflict
//! detection guarantees at most one speculative writer survives per block.

use std::collections::BTreeMap;

use tenways_sim::{Addr, BlockMap};

/// Words per [`ArchMem`] page: 512 × 8 B = 4 KiB of payload.
const PAGE_WORDS: u64 = 512;
const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const SLOT_MASK: u64 = PAGE_WORDS - 1;

/// One 4 KiB memory page plus a written-word bitmap. The bitmap keeps
/// [`ArchMem::footprint_words`] exact (a write of zero still counts as a
/// written word, just as it created a map entry in the old
/// `BTreeMap`-backed design).
#[derive(Debug, Clone)]
struct Page {
    data: [u64; PAGE_WORDS as usize],
    written: [u64; (PAGE_WORDS / 64) as usize],
}

impl Page {
    fn zeroed() -> Box<Self> {
        Box::new(Page {
            data: [0; PAGE_WORDS as usize],
            written: [0; (PAGE_WORDS / 64) as usize],
        })
    }
}

/// The shared, flat architectural memory (word-granular; unwritten
/// locations read as zero).
///
/// Storage is a page table over flat 4 KiB pages rather than a per-word
/// tree: reads and writes are two array indexes after one hash lookup,
/// which keeps the functional layer off the simulator's hot-path profile.
/// Reads of unmapped pages return 0 without allocating.
#[derive(Debug, Clone, Default)]
pub struct ArchMem {
    pages: BlockMap<Box<Page>>,
    footprint: usize,
}

impl ArchMem {
    /// Creates zero-initialized memory.
    pub fn new() -> Self {
        ArchMem::default()
    }

    /// Reads the word at `addr` (0 if never written).
    pub fn read(&self, addr: Addr) -> u64 {
        match self.pages.get(&(addr.0 >> PAGE_SHIFT)) {
            Some(page) => page.data[(addr.0 & SLOT_MASK) as usize],
            None => 0,
        }
    }

    /// Writes the word at `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        let page = self
            .pages
            .entry(addr.0 >> PAGE_SHIFT)
            .or_insert_with(Page::zeroed);
        let slot = (addr.0 & SLOT_MASK) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if page.written[word] & bit == 0 {
            page.written[word] |= bit;
            self.footprint += 1;
        }
        page.data[slot] = value;
    }

    /// Number of distinct words ever written.
    pub fn footprint_words(&self) -> usize {
        self.footprint
    }

    /// Reads the word at `addr`, or `None` if it was never written.
    /// Distinguishes a written zero from an untouched word, which is what
    /// lets [`EpochMem`] layer a sparse delta over a base memory.
    pub fn read_if_written(&self, addr: Addr) -> Option<u64> {
        let page = self.pages.get(&(addr.0 >> PAGE_SHIFT))?;
        let slot = (addr.0 & SLOT_MASK) as usize;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        (page.written[word] & bit != 0).then(|| page.data[slot])
    }

    /// Folds another memory's written words into this one, draining it.
    ///
    /// The epoch-parallel scheduler merges per-shard write deltas back
    /// into the shared base at each epoch boundary. The deltas of one
    /// epoch are word-disjoint — two shards writing the same word within
    /// one lookahead window would need an ownership transfer faster than
    /// the fabric allows — so merge order across deltas cannot matter.
    pub fn merge_delta(&mut self, delta: &mut ArchMem) {
        for (pno, page) in delta.pages.drain() {
            for word in 0..(PAGE_WORDS / 64) as usize {
                let mut bits = page.written[word];
                while bits != 0 {
                    let slot = word as u64 * 64 + bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    self.write(Addr((pno << PAGE_SHIFT) | slot), page.data[slot as usize]);
                }
            }
        }
        delta.footprint = 0;
    }
}

/// What the core's functional layer needs from a value store.
///
/// The sequential schedulers run directly against the shared [`ArchMem`];
/// the epoch-parallel scheduler substitutes a per-shard [`EpochMem`] so
/// worker threads never touch one shared map mid-epoch.
pub trait MemBackend {
    /// Reads the word at `addr` (0 if never written).
    fn read(&self, addr: Addr) -> u64;
    /// Writes the word at `addr`.
    fn write(&mut self, addr: Addr, value: u64);
}

impl MemBackend for ArchMem {
    fn read(&self, addr: Addr) -> u64 {
        ArchMem::read(self, addr)
    }

    fn write(&mut self, addr: Addr, value: u64) {
        ArchMem::write(self, addr, value);
    }
}

/// A shard's view of memory during one epoch of the parallel scheduler:
/// reads fall through to a shared frozen base, writes land in a private
/// delta that the main thread merges into the base at the epoch boundary.
///
/// Reading through a base frozen at the epoch start is exact, not
/// approximate: for another core's write to become architecturally
/// readable here, the block's ownership must cross the fabric (recall,
/// then grant), and each traversal takes at least one lookahead window —
/// so any value a core may legitimately observe was merged at least one
/// boundary ago.
#[derive(Debug)]
pub struct EpochMem {
    base: std::sync::Arc<ArchMem>,
    delta: ArchMem,
}

impl EpochMem {
    /// Layers `delta` (usually drained from the previous epoch) over a
    /// frozen `base`.
    pub fn new(base: std::sync::Arc<ArchMem>, delta: ArchMem) -> Self {
        EpochMem { base, delta }
    }

    /// Tears the view down into the base handle and the accumulated
    /// delta, for the boundary merge.
    pub fn into_parts(self) -> (std::sync::Arc<ArchMem>, ArchMem) {
        (self.base, self.delta)
    }
}

impl MemBackend for EpochMem {
    fn read(&self, addr: Addr) -> u64 {
        self.delta
            .read_if_written(addr)
            .unwrap_or_else(|| self.base.read(addr))
    }

    fn write(&mut self, addr: Addr, value: u64) {
        self.delta.write(addr, value);
    }
}

/// A speculative epoch's private write buffer.
#[derive(Debug, Clone, Default)]
pub struct SpecOverlay {
    words: BTreeMap<u64, u64>,
}

impl SpecOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        SpecOverlay::default()
    }

    /// Reads a speculatively written word, if present.
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.words.get(&addr.0).copied()
    }

    /// Buffers a speculative write.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.words.insert(addr.0, value);
    }

    /// Commit: apply every buffered write to `mem` and clear.
    pub fn flush_into<M: MemBackend>(&mut self, mem: &mut M) {
        for (a, v) in std::mem::take(&mut self.words) {
            mem.write(Addr(a), v);
        }
    }

    /// Rollback: discard everything.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Whether any write is buffered.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of buffered words.
    pub fn len(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archmem_zero_default() {
        let m = ArchMem::new();
        assert_eq!(m.read(Addr(0x100)), 0);
    }

    #[test]
    fn archmem_read_write() {
        let mut m = ArchMem::new();
        m.write(Addr(8), 99);
        assert_eq!(m.read(Addr(8)), 99);
        assert_eq!(m.read(Addr(16)), 0);
        assert_eq!(m.footprint_words(), 1);
    }

    #[test]
    fn overlay_shadows_and_flushes() {
        let mut m = ArchMem::new();
        m.write(Addr(8), 1);
        let mut o = SpecOverlay::new();
        assert_eq!(o.read(Addr(8)), None);
        o.write(Addr(8), 2);
        assert_eq!(o.read(Addr(8)), Some(2));
        assert_eq!(m.read(Addr(8)), 1, "arch mem untouched until commit");
        o.flush_into(&mut m);
        assert_eq!(m.read(Addr(8)), 2);
        assert!(o.is_empty());
    }

    #[test]
    fn overlay_clear_discards() {
        let mut m = ArchMem::new();
        let mut o = SpecOverlay::new();
        o.write(Addr(0), 5);
        o.clear();
        o.flush_into(&mut m);
        assert_eq!(m.read(Addr(0)), 0);
    }

    #[test]
    fn archmem_write_of_zero_counts_in_footprint() {
        let mut m = ArchMem::new();
        m.write(Addr(40), 0);
        m.write(Addr(40), 0);
        assert_eq!(m.read(Addr(40)), 0);
        assert_eq!(m.footprint_words(), 1, "zero writes still occupy a word");
    }

    #[test]
    fn archmem_crosses_page_boundaries() {
        let mut m = ArchMem::new();
        // Neighbouring slots in one page, the last slot of the first page,
        // and slots in far-apart pages must not alias.
        let probes = [0u64, 1, 511, 512, 513, 1 << 20, (1 << 20) + 511, u64::MAX];
        for (i, &a) in probes.iter().enumerate() {
            m.write(Addr(a), i as u64 + 100);
        }
        for (i, &a) in probes.iter().enumerate() {
            assert_eq!(m.read(Addr(a)), i as u64 + 100, "addr {a:#x}");
        }
        assert_eq!(m.footprint_words(), probes.len());
        assert_eq!(m.read(Addr(514)), 0, "untouched slot on a mapped page");
    }

    #[test]
    fn read_if_written_distinguishes_zero_from_untouched() {
        let mut m = ArchMem::new();
        m.write(Addr(8), 0);
        assert_eq!(m.read_if_written(Addr(8)), Some(0));
        assert_eq!(m.read_if_written(Addr(16)), None, "same page, untouched");
        assert_eq!(m.read_if_written(Addr(1 << 30)), None, "unmapped page");
    }

    #[test]
    fn merge_delta_folds_and_drains() {
        let mut base = ArchMem::new();
        base.write(Addr(8), 1);
        base.write(Addr(600), 2);
        let mut delta = ArchMem::new();
        delta.write(Addr(8), 10); // overwrite
        delta.write(Addr(0), 0); // written zero must survive the merge
        delta.write(Addr(4000), 40); // new page
        base.merge_delta(&mut delta);
        assert_eq!(base.read(Addr(8)), 10);
        assert_eq!(base.read(Addr(600)), 2);
        assert_eq!(base.read_if_written(Addr(0)), Some(0));
        assert_eq!(base.read(Addr(4000)), 40);
        assert_eq!(base.footprint_words(), 4);
        assert_eq!(delta.footprint_words(), 0, "delta drained");
        assert_eq!(delta.read_if_written(Addr(8)), None);
    }

    #[test]
    fn epoch_mem_layers_delta_over_base() {
        let mut base = ArchMem::new();
        base.write(Addr(8), 1);
        base.write(Addr(16), 2);
        let mut em = EpochMem::new(std::sync::Arc::new(base), ArchMem::new());
        assert_eq!(em.read(Addr(8)), 1, "falls through to base");
        em.write(Addr(8), 9);
        em.write(Addr(24), 3);
        assert_eq!(em.read(Addr(8)), 9, "delta shadows base");
        assert_eq!(em.read(Addr(16)), 2);
        assert_eq!(em.read(Addr(24)), 3);
        let (base, mut delta) = em.into_parts();
        let mut base = std::sync::Arc::try_unwrap(base).unwrap();
        base.merge_delta(&mut delta);
        assert_eq!(base.read(Addr(8)), 9);
        assert_eq!(base.read(Addr(24)), 3);
    }

    #[test]
    fn overlay_len_tracks_distinct_addrs() {
        let mut o = SpecOverlay::new();
        o.write(Addr(0), 1);
        o.write(Addr(0), 2);
        o.write(Addr(8), 3);
        assert_eq!(o.len(), 2);
    }
}
