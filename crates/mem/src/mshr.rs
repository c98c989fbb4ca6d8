//! Miss-status holding registers: [`MshrFile`].
//!
//! An MSHR tracks one outstanding miss per block. Later requests to the same
//! block *merge* into the existing entry's waiter list instead of issuing a
//! duplicate request — the standard mechanism that makes non-blocking caches
//! possible. Capacity is bounded; when the file is full the requester must
//! stall (a structural hazard the core accounts separately).

use tenways_sim::BlockAddr;

/// Why an MSHR allocation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All entries are in use; the requester must retry later.
    Full,
}

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrError::Full => write!(f, "all MSHR entries in use"),
        }
    }
}

impl std::error::Error for MshrError {}

/// One in-flight miss and the requests waiting on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrEntry<W> {
    /// The missing block.
    pub block: BlockAddr,
    /// Requests merged into this miss, in arrival order.
    pub waiters: Vec<W>,
}

/// A bounded file of [`MshrEntry`]s, keyed by block.
///
/// The entries sit in one `Vec` kept in block order (at most `capacity` of
/// them, so a binary search finds a block), and the waiter buffers of
/// completed entries handed back through [`MshrFile::recycle`] are reused
/// by later misses: a steady stream of misses allocates nothing.
///
/// # Example
///
/// ```rust
/// use tenways_mem::MshrFile;
/// use tenways_sim::BlockAddr;
///
/// let mut mshrs: MshrFile<&str> = MshrFile::new(2);
/// assert!(mshrs.allocate(BlockAddr(1), "load A").unwrap()); // primary miss
/// assert!(!mshrs.allocate(BlockAddr(1), "load B").unwrap()); // merged
/// let entry = mshrs.complete(BlockAddr(1)).unwrap();
/// assert_eq!(entry.waiters, vec!["load A", "load B"]);
/// mshrs.recycle(entry); // the next miss reuses its waiter buffer
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    capacity: usize,
    /// Outstanding misses, ordered by block.
    entries: Vec<MshrEntry<W>>,
    /// Emptied waiter buffers of recycled entries.
    spare: Vec<Vec<W>>,
}

impl<W> MshrFile<W> {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            entries: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Where `block`'s entry is, or where it would go.
    fn find(&self, block: BlockAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&block, |e| e.block)
    }

    /// Opens an entry for `block` at position `at`, on a spare buffer if
    /// there is one.
    fn open(&mut self, at: usize, block: BlockAddr) -> Result<&mut Vec<W>, MshrError> {
        if self.entries.len() >= self.capacity {
            return Err(MshrError::Full);
        }
        let waiters = self.spare.pop().unwrap_or_default();
        self.entries.insert(at, MshrEntry { block, waiters });
        Ok(&mut self.entries[at].waiters)
    }

    /// Registers a request for `block`.
    ///
    /// Returns `Ok(true)` if this is the *primary* miss (the caller must send
    /// the memory request), `Ok(false)` if it merged into an existing entry.
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] if a new entry is needed but none is free.
    pub fn allocate(&mut self, block: BlockAddr, waiter: W) -> Result<bool, MshrError> {
        match self.find(block) {
            Ok(i) => {
                self.entries[i].waiters.push(waiter);
                Ok(false)
            }
            Err(at) => {
                self.open(at, block)?.push(waiter);
                Ok(true)
            }
        }
    }

    /// Registers a *prefetch* for `block`: an entry with no waiters.
    ///
    /// Returns `Ok(true)` if a new entry was created (send the request),
    /// `Ok(false)` if the block already had an entry.
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] if no entry is free.
    pub fn allocate_prefetch(&mut self, block: BlockAddr) -> Result<bool, MshrError> {
        match self.find(block) {
            Ok(_) => Ok(false),
            Err(at) => self.open(at, block).map(|_| true),
        }
    }

    /// Completes the miss for `block`, returning its entry (with all merged
    /// waiters) or `None` if no miss was outstanding. Hand the entry back
    /// through [`MshrFile::recycle`] once its waiters are served.
    pub fn complete(&mut self, block: BlockAddr) -> Option<MshrEntry<W>> {
        let i = self.find(block).ok()?;
        Some(self.entries.remove(i))
    }

    /// Takes back a completed entry's waiter buffer, emptied, for a later
    /// miss to reuse.
    pub fn recycle(&mut self, entry: MshrEntry<W>) {
        let mut waiters = entry.waiters;
        waiters.clear();
        self.spare.push(waiters);
    }

    /// Whether a miss to `block` is outstanding.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_ok()
    }

    /// Entries currently in use.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new primary miss would be rejected.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Iterates outstanding entries in block order.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry<W>> + '_ {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_and_secondary_misses() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        assert_eq!(m.allocate(BlockAddr(9), 1), Ok(true));
        assert_eq!(m.allocate(BlockAddr(9), 2), Ok(false));
        assert_eq!(m.allocate(BlockAddr(9), 3), Ok(false));
        assert_eq!(m.len(), 1);
        let e = m.complete(BlockAddr(9)).unwrap();
        assert_eq!(e.waiters, vec![1, 2, 3]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_is_enforced_per_block_not_per_waiter() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.allocate(BlockAddr(1), 0), Ok(true));
        assert_eq!(m.allocate(BlockAddr(2), 0), Ok(true));
        assert!(m.is_full());
        assert_eq!(m.allocate(BlockAddr(3), 0), Err(MshrError::Full));
        // Merging into an existing block still works when full.
        assert_eq!(m.allocate(BlockAddr(1), 1), Ok(false));
    }

    #[test]
    fn complete_unknown_block_is_none() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert!(m.complete(BlockAddr(5)).is_none());
    }

    #[test]
    fn contains_tracks_lifecycle() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert!(!m.contains(BlockAddr(7)));
        m.allocate(BlockAddr(7), 0).unwrap();
        assert!(m.contains(BlockAddr(7)));
        m.complete(BlockAddr(7));
        assert!(!m.contains(BlockAddr(7)));
    }

    #[test]
    fn freeing_makes_room() {
        let mut m: MshrFile<u32> = MshrFile::new(1);
        m.allocate(BlockAddr(1), 0).unwrap();
        assert_eq!(m.allocate(BlockAddr(2), 0), Err(MshrError::Full));
        m.complete(BlockAddr(1));
        assert_eq!(m.allocate(BlockAddr(2), 0), Ok(true));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_panics() {
        let _: MshrFile<u32> = MshrFile::new(0);
    }

    #[test]
    fn a_recycled_buffer_serves_the_next_miss_alone() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.allocate(BlockAddr(4), 1).unwrap();
        m.allocate(BlockAddr(4), 2).unwrap();
        m.allocate(BlockAddr(4), 3).unwrap();
        let first = m.complete(BlockAddr(4)).unwrap();
        assert_eq!(first.waiters, vec![1, 2, 3]);
        let buffer = first.waiters.as_ptr();
        m.recycle(first);

        assert_eq!(m.allocate(BlockAddr(9), 7), Ok(true));
        assert_eq!(m.allocate(BlockAddr(9), 8), Ok(false));
        let second = m.complete(BlockAddr(9)).unwrap();
        assert_eq!(second.block, BlockAddr(9));
        assert_eq!(second.waiters, vec![7, 8], "only the new miss's waiters");
        assert_eq!(
            second.waiters.as_ptr(),
            buffer,
            "the freed buffer was reused"
        );
    }

    #[test]
    fn iter_is_block_ordered() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        m.allocate(BlockAddr(30), 0).unwrap();
        m.allocate(BlockAddr(10), 0).unwrap();
        m.allocate(BlockAddr(20), 0).unwrap();
        let blocks: Vec<u64> = m.iter().map(|e| e.block.as_u64()).collect();
        assert_eq!(blocks, vec![10, 20, 30]);
    }
}
