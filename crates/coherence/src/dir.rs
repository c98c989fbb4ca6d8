//! One bank of the blocking, full-map directory: [`DirectoryBank`].
//!
//! Each bank is the *home* and ordering point for an address-interleaved
//! slice of the block space. It keeps a precise full-map entry per cached
//! block, fronts an L2 slice (a latency filter over DRAM) and a set of DRAM
//! banks, and enforces the protocol's single-transaction-per-block rule by
//! FIFO-deferring requests to busy blocks.

use std::collections::VecDeque;

use tenways_mem::{CacheArray, CacheParams, DramBanks, DramParams};
use tenways_noc::Fabric;
use tenways_sim::trace::{TraceCategory, Tracer, DIR_TID_BASE};
use tenways_sim::{BlockAddr, BlockMap, BlockSet, CoreId, Cycle, MachineConfig, NodeId, StatSet};

use crate::l1::ProtocolConfig;
use crate::msg::{FillClass, Msg};

/// Stable directory state for one block (absent = uncached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// Read-only copies at the cores of this [`SharerSets`] slot.
    Shared(u32),
    /// Sole (possibly dirty) copy at this core.
    Exclusive(u16),
}

/// The sharer bitsets of a bank's `Shared` blocks: one slot of
/// `⌈cores / 64⌉` words per block, all in one slab. A slot freed when its
/// block leaves `Shared` is cleared and reused, so sharing changes allocate
/// nothing once the slab has grown to the bank's peak, at any core count.
/// Bits are read low word first, low bit first: ascending core order.
#[derive(Debug)]
struct SharerSets {
    /// Words per slot.
    width: usize,
    words: Vec<u64>,
    free: Vec<u32>,
}

impl SharerSets {
    fn new(cores: usize) -> Self {
        SharerSets {
            width: cores.div_ceil(64),
            words: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A new set holding only `core`.
    fn single(&mut self, core: u16) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.words.len() / self.width;
            self.words.resize(self.words.len() + self.width, 0);
            u32::try_from(slot).expect("fewer than 2^32 shared blocks per bank")
        });
        self.insert(slot, core);
        slot
    }

    /// Empties `slot` and returns it to the free list.
    fn release(&mut self, slot: u32) {
        self.slot_mut(slot).fill(0);
        self.free.push(slot);
    }

    fn slot(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.width;
        &self.words[at..at + self.width]
    }

    fn slot_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = slot as usize * self.width;
        &mut self.words[at..at + self.width]
    }

    fn insert(&mut self, slot: u32, core: u16) {
        self.slot_mut(slot)[usize::from(core / 64)] |= 1 << (core % 64);
    }

    /// Removes `core`; returns whether the set is now empty.
    fn remove(&mut self, slot: u32, core: u16) -> bool {
        let words = self.slot_mut(slot);
        words[usize::from(core / 64)] &= !(1 << (core % 64));
        words.iter().all(|&w| w == 0)
    }

    fn contains(&self, slot: u32, core: u16) -> bool {
        self.slot(slot)[usize::from(core / 64)] & (1 << (core % 64)) != 0
    }

    fn len(&self, slot: u32) -> usize {
        self.slot(slot)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The cores in `slot`, ascending.
    fn iter(&self, slot: u32) -> impl Iterator<Item = u16> + '_ {
        self.slot(slot).iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    (i * 64 + bit) as u16
                })
            })
        })
    }
}

/// The in-flight transaction on a block.
#[derive(Debug, Clone)]
struct Txn {
    requester: CoreId,
    want_m: bool,
    /// InvAcks still outstanding.
    pending_acks: usize,
}

/// A message whose transmission is scheduled for a future cycle.
#[derive(Debug, Clone)]
struct Scheduled {
    at: Cycle,
    dst: NodeId,
    msg: Msg,
    /// Firing this send ends the transaction on `msg.block()`.
    completes_txn: bool,
}

/// One directory bank (home node for `block % banks == index`).
#[derive(Debug)]
pub struct DirectoryBank {
    node: NodeId,
    latency: u64,
    protocol: ProtocolConfig,
    entries: BlockMap<DirState>,
    sharers: SharerSets,
    busy: BlockMap<Txn>,
    deferred: BlockMap<VecDeque<(CoreId, Msg)>>,
    /// Emptied `deferred` queues, kept to reuse their buffers.
    spare_deferred: Vec<VecDeque<(CoreId, Msg)>>,
    /// Messages awaiting their directory-latency processing slot.
    pending: VecDeque<(Cycle, CoreId, Msg)>,
    sends: Vec<Scheduled>,
    /// Blocks whose transaction ended this tick, kept to reuse the buffer.
    fired: Vec<BlockAddr>,
    l2: CacheArray<()>,
    /// Blocks ever fetched from DRAM (cold/capacity classification).
    seen: BlockSet,
    dram: DramBanks,
    stats: StatSet,
    tracer: Tracer,
    /// Trace timeline row for this bank.
    tid: u32,
}

/// Default L2 slice organization: 4096 sets × 8 ways = 2 MiB of 64 B blocks
/// per bank.
const L2_SETS: usize = 4096;
const L2_WAYS: usize = 8;

impl DirectoryBank {
    /// Creates bank `index` of the machine `cfg` with default (MESI)
    /// protocol options.
    pub fn new(index: usize, cfg: &MachineConfig) -> Self {
        Self::with_protocol(index, cfg, ProtocolConfig::default())
    }

    /// Creates bank `index` with explicit protocol options.
    pub fn with_protocol(index: usize, cfg: &MachineConfig, protocol: ProtocolConfig) -> Self {
        let node = cfg.node_ids().dir_node(index);
        DirectoryBank {
            node,
            latency: cfg.dir_latency,
            protocol,
            entries: BlockMap::default(),
            sharers: SharerSets::new(cfg.cores),
            busy: BlockMap::default(),
            deferred: BlockMap::default(),
            spare_deferred: Vec::new(),
            pending: VecDeque::new(),
            sends: Vec::new(),
            fired: Vec::new(),
            l2: CacheArray::new(CacheParams::new(L2_SETS, L2_WAYS).expect("static geometry")),
            seen: BlockSet::default(),
            dram: DramBanks::new(
                DramParams::new(cfg.dram_banks, cfg.dram_latency, cfg.dram_occupancy)
                    .expect("MachineConfig validated DRAM geometry"),
            ),
            stats: StatSet::new(),
            tracer: Tracer::disabled(),
            tid: DIR_TID_BASE + index as u32,
        }
    }

    /// This bank's fabric node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Attaches an event tracer; protocol transitions are recorded as
    /// instants on this bank's timeline row.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Advances the bank one cycle: accept arrivals, process matured
    /// messages, fire scheduled sends (possibly unblocking deferred work).
    ///
    /// Returns `true` if the bank did anything (accepted, processed or sent
    /// a message) this cycle.
    pub fn tick(&mut self, now: Cycle, fabric: &mut Fabric<Msg>) -> bool {
        let mut progress = false;
        while let Some(env) = fabric.pop_inbox(self.node) {
            progress = true;
            let core = CoreId(env.src.0);
            self.pending
                .push_back((now.after(self.latency), core, env.payload));
        }

        // Process matured messages. The queue is FIFO by arrival and the
        // latency is constant, so matured items form a prefix.
        while let Some(&(at, _, _)) = self.pending.front() {
            if at > now {
                break;
            }
            let (_, core, msg) = self.pending.pop_front().expect("peeked");
            progress = true;
            self.dispatch(now, core, msg);
        }

        // Fire matured sends; a completing send unblocks its block's queue.
        // Queues are pumped only after every matured send has fired, so the
        // sends they schedule wait for a later tick.
        let mut fired = std::mem::take(&mut self.fired);
        let mut i = 0;
        while i < self.sends.len() {
            if self.sends[i].at <= now {
                let s = self.sends.remove(i);
                progress = true;
                fabric.send(now, self.node, s.dst, s.msg);
                if s.completes_txn {
                    let block = s.msg.block();
                    self.busy.remove(&block.as_u64());
                    fired.push(block);
                }
            } else {
                i += 1;
            }
        }
        for &block in &fired {
            self.pump_deferred(now, block);
        }
        fired.clear();
        self.fired = fired;
        progress
    }

    /// Earliest future cycle at which this bank will act on its own: the
    /// next pending-message maturity or scheduled-send time. Work the bank
    /// is waiting on from elsewhere (acks, deferred requests behind a busy
    /// block) surfaces through the fabric's horizon instead. `None` when
    /// nothing is queued.
    ///
    /// An idle bank tick (no arrivals, nothing matured, nothing fired)
    /// mutates no state at all, so skipped cycles need no replay here.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        // FIFO arrival order + constant latency keep `pending` sorted.
        if let Some(&(at, _, _)) = self.pending.front() {
            let at = at.max(now.after(1));
            horizon = Some(at);
        }
        for s in &self.sends {
            let at = s.at.max(now.after(1));
            horizon = Some(horizon.map_or(at, |h| h.min(at)));
        }
        horizon
    }

    /// Processes queued requests for `block` until one makes it busy again
    /// (or the queue empties).
    fn pump_deferred(&mut self, now: Cycle, block: BlockAddr) {
        while !self.busy.contains_key(&block.as_u64()) {
            let Some(q) = self.deferred.get_mut(&block.as_u64()) else {
                return;
            };
            let Some((core, msg)) = q.pop_front() else {
                let empty = self.deferred.remove(&block.as_u64());
                self.spare_deferred.extend(empty);
                return;
            };
            self.handle_request(now, core, msg);
        }
    }

    fn dispatch(&mut self, now: Cycle, core: CoreId, msg: Msg) {
        if msg.is_txn_reply() {
            self.handle_reply(now, core, msg);
            return;
        }
        let block = msg.block().as_u64();
        if self.busy.contains_key(&block) {
            self.stats.bump("dir.deferred");
            self.deferred
                .entry(block)
                .or_insert_with(|| self.spare_deferred.pop().unwrap_or_default())
                .push_back((core, msg));
            return;
        }
        self.handle_request(now, core, msg);
    }

    /// Looks up the L2 slice; on miss, schedules a DRAM access. Returns the
    /// cycle data is available and the fill classification.
    fn fetch_data(&mut self, now: Cycle, block: BlockAddr) -> (Cycle, FillClass) {
        if self.l2.get(block).is_some() {
            self.stats.bump("dir.l2_hits");
            return (now, FillClass::L2Hit);
        }
        let class = if self.seen.insert(block.as_u64()) {
            self.stats.bump("dir.fills_cold");
            FillClass::DramCold
        } else {
            self.stats.bump("dir.fills_capacity");
            FillClass::DramCapacity
        };
        let ready = self.dram.access(now, block);
        self.l2.insert(block, ());
        (ready, class)
    }

    fn core_node(core: CoreId) -> NodeId {
        NodeId::from(core)
    }

    fn schedule(&mut self, at: Cycle, dst: NodeId, msg: Msg, completes_txn: bool) {
        self.sends.push(Scheduled {
            at,
            dst,
            msg,
            completes_txn,
        });
    }

    fn handle_request(&mut self, now: Cycle, core: CoreId, msg: Msg) {
        self.stats.bump("dir.requests");
        if self.tracer.is_enabled() {
            let name = match msg {
                Msg::GetS(_) => Some("dir.get_s"),
                Msg::GetM(_) => Some("dir.get_m"),
                _ => None,
            };
            if let Some(name) = name {
                self.tracer.instant(
                    now,
                    self.tid,
                    TraceCategory::Coherence,
                    name,
                    msg.block().as_u64(),
                );
            }
        }
        match msg {
            Msg::GetS(block) => self.handle_get_s(now, core, block),
            Msg::GetM(block) => self.handle_get_m(now, core, block),
            Msg::PutS(block) => self.handle_put_s(now, core, block),
            Msg::PutM { block, dirty } => self.handle_put_m(now, core, block, dirty),
            Msg::CleanWb(block) => self.handle_clean_wb(core, block),
            other => {
                debug_assert!(false, "directory received unexpected message {other:?}");
                self.stats.bump("dir.unexpected_msgs");
            }
        }
    }

    fn handle_get_s(&mut self, now: Cycle, core: CoreId, block: BlockAddr) {
        let key = block.as_u64();
        match self.entries.get(&key).copied() {
            None => {
                let (ready, class) = self.fetch_data(now, block);
                // Sole cacher: grant E in MESI mode, plain S in MSI mode
                // (the directory's view must match what the L1 will hold).
                let exclusive = self.protocol.grant_exclusive;
                if exclusive {
                    self.set_exclusive(key, core.0);
                } else {
                    self.add_sharer(key, core.0);
                }
                self.busy.insert(
                    key,
                    Txn {
                        requester: core,
                        want_m: false,
                        pending_acks: 0,
                    },
                );
                self.schedule(
                    ready,
                    Self::core_node(core),
                    Msg::DataS {
                        block,
                        exclusive,
                        class,
                    },
                    true,
                );
            }
            Some(DirState::Shared(slot)) => {
                self.sharers.insert(slot, core.0);
                let (ready, class) = self.fetch_data(now, block);
                self.busy.insert(
                    key,
                    Txn {
                        requester: core,
                        want_m: false,
                        pending_acks: 0,
                    },
                );
                self.schedule(
                    ready,
                    Self::core_node(core),
                    Msg::DataS {
                        block,
                        exclusive: false,
                        class,
                    },
                    true,
                );
            }
            Some(DirState::Exclusive(owner)) => {
                if owner == core.0 {
                    // Stale refetch (owner lost the line to its own rollback
                    // writeback that we have not yet processed; defensive).
                    self.stats.bump("dir.gets_from_owner");
                    let (ready, class) = self.fetch_data(now, block);
                    self.busy.insert(
                        key,
                        Txn {
                            requester: core,
                            want_m: false,
                            pending_acks: 0,
                        },
                    );
                    self.schedule(
                        ready,
                        Self::core_node(core),
                        Msg::DataS {
                            block,
                            exclusive: true,
                            class,
                        },
                        true,
                    );
                    return;
                }
                self.stats.bump("dir.downgrades_sent");
                self.tracer.instant(
                    now,
                    self.tid,
                    TraceCategory::Coherence,
                    "dir.downgrade",
                    block.as_u64(),
                );
                self.busy.insert(
                    key,
                    Txn {
                        requester: core,
                        want_m: false,
                        pending_acks: 1,
                    },
                );
                self.schedule(
                    now,
                    Self::core_node(CoreId(owner)),
                    Msg::Downgrade(block),
                    false,
                );
            }
        }
    }

    fn handle_get_m(&mut self, now: Cycle, core: CoreId, block: BlockAddr) {
        let key = block.as_u64();
        match self.entries.get(&key).copied() {
            None => {
                let (ready, class) = self.fetch_data(now, block);
                self.set_exclusive(key, core.0);
                self.busy.insert(
                    key,
                    Txn {
                        requester: core,
                        want_m: true,
                        pending_acks: 0,
                    },
                );
                self.schedule(
                    ready,
                    Self::core_node(core),
                    Msg::DataM { block, class },
                    true,
                );
            }
            Some(DirState::Shared(slot)) => {
                let upgrade = self.sharers.contains(slot, core.0);
                let invs = self.sharers.len(slot) - usize::from(upgrade);
                if invs == 0 {
                    // Requester is the only sharer (or set somehow empty):
                    // grant immediately.
                    self.set_exclusive(key, core.0);
                    let (ready, class) = if upgrade {
                        (now, FillClass::L2Hit)
                    } else {
                        self.fetch_data(now, block)
                    };
                    self.busy.insert(
                        key,
                        Txn {
                            requester: core,
                            want_m: true,
                            pending_acks: 0,
                        },
                    );
                    self.schedule(
                        ready,
                        Self::core_node(core),
                        Msg::DataM { block, class },
                        true,
                    );
                } else {
                    self.stats.bump_by("dir.invs_sent", invs as u64);
                    self.tracer.instant(
                        now,
                        self.tid,
                        TraceCategory::Coherence,
                        "dir.inv",
                        invs as u64,
                    );
                    self.busy.insert(
                        key,
                        Txn {
                            requester: core,
                            want_m: true,
                            pending_acks: invs,
                        },
                    );
                    for s in self.sharers.iter(slot).filter(|&s| s != core.0) {
                        self.sends.push(Scheduled {
                            at: now,
                            dst: Self::core_node(CoreId(s)),
                            msg: Msg::Inv(block),
                            completes_txn: false,
                        });
                    }
                }
            }
            Some(DirState::Exclusive(owner)) => {
                if owner == core.0 {
                    self.stats.bump("dir.getm_from_owner");
                    self.busy.insert(
                        key,
                        Txn {
                            requester: core,
                            want_m: true,
                            pending_acks: 0,
                        },
                    );
                    self.schedule(
                        now,
                        Self::core_node(core),
                        Msg::DataM {
                            block,
                            class: FillClass::L2Hit,
                        },
                        true,
                    );
                    return;
                }
                self.stats.bump("dir.recalls_sent");
                self.tracer.instant(
                    now,
                    self.tid,
                    TraceCategory::Coherence,
                    "dir.recall",
                    block.as_u64(),
                );
                self.busy.insert(
                    key,
                    Txn {
                        requester: core,
                        want_m: true,
                        pending_acks: 1,
                    },
                );
                self.schedule(
                    now,
                    Self::core_node(CoreId(owner)),
                    Msg::Recall(block),
                    false,
                );
            }
        }
    }

    fn handle_put_s(&mut self, now: Cycle, core: CoreId, block: BlockAddr) {
        let key = block.as_u64();
        match self.entries.get(&key).copied() {
            Some(DirState::Shared(slot)) => self.drop_sharer(key, slot, core.0),
            // Stale PutS from a core the protocol already moved past
            // (e.g. it upgraded to M while the PutS was queued): ignore.
            Some(DirState::Exclusive(_)) | None => {
                self.stats.bump("dir.stale_puts");
            }
        }
        // A Put is a mini-transaction: the PutAck must precede any
        // subsequent response for the block on the same channel.
        self.busy.insert(
            key,
            Txn {
                requester: core,
                want_m: false,
                pending_acks: 0,
            },
        );
        self.schedule(now, Self::core_node(core), Msg::PutAck(block), true);
    }

    fn handle_put_m(&mut self, now: Cycle, core: CoreId, block: BlockAddr, dirty: bool) {
        let key = block.as_u64();
        match self.entries.get(&key).copied() {
            Some(DirState::Exclusive(owner)) if owner == core.0 => {
                if dirty {
                    self.l2.insert(block, ());
                    self.stats.bump("dir.writebacks");
                }
                self.entries.remove(&key);
            }
            Some(DirState::Shared(slot)) if self.sharers.contains(slot, core.0) => {
                // The owner was downgraded while its PutM was queued: the
                // data already arrived with the DowngradeAck; treat as PutS.
                self.drop_sharer(key, slot, core.0);
                self.stats.bump("dir.putm_as_puts");
            }
            _ => {
                self.stats.bump("dir.stale_putm");
            }
        }
        self.busy.insert(
            key,
            Txn {
                requester: core,
                want_m: false,
                pending_acks: 0,
            },
        );
        self.schedule(now, Self::core_node(core), Msg::PutAck(block), true);
    }

    fn handle_clean_wb(&mut self, core: CoreId, block: BlockAddr) {
        let key = block.as_u64();
        if matches!(self.entries.get(&key), Some(DirState::Exclusive(o)) if *o == core.0) {
            self.l2.insert(block, ());
            self.stats.bump("dir.clean_writebacks");
        } else {
            self.stats.bump("dir.stale_clean_wb");
        }
    }

    fn handle_reply(&mut self, now: Cycle, _core: CoreId, msg: Msg) {
        let block = msg.block();
        let key = block.as_u64();
        let Some(txn) = self.busy.get_mut(&key) else {
            self.stats.bump("dir.stale_replies");
            return;
        };
        match msg {
            Msg::InvAck(_) => {
                debug_assert!(txn.pending_acks > 0, "unexpected InvAck for {block}");
                txn.pending_acks = txn.pending_acks.saturating_sub(1);
            }
            Msg::RecallAck { dirty, .. } => {
                debug_assert!(txn.pending_acks == 1);
                txn.pending_acks = 0;
                if dirty {
                    self.l2.insert(block, ());
                    self.stats.bump("dir.writebacks");
                }
            }
            Msg::DowngradeAck { dirty, .. } => {
                debug_assert!(txn.pending_acks == 1);
                txn.pending_acks = 0;
                if dirty {
                    self.l2.insert(block, ());
                    self.stats.bump("dir.writebacks");
                }
                // The old owner stays on as a sharer.
                if let Some(DirState::Exclusive(owner)) = self.entries.get(&key).copied() {
                    self.add_sharer(key, owner);
                }
            }
            _ => unreachable!("is_txn_reply() gated"),
        }

        let txn = self.busy.get(&key).expect("still busy");
        if txn.pending_acks == 0 {
            let requester = txn.requester;
            let want_m = txn.want_m;
            // Data came from the former owner/sharers: coherence fill, and
            // it is available now (it travelled with the ack).
            let class = FillClass::Coherence;
            if want_m {
                self.set_exclusive(key, requester.0);
                self.schedule(
                    now,
                    Self::core_node(requester),
                    Msg::DataM { block, class },
                    true,
                );
            } else {
                self.add_sharer(key, requester.0);
                self.schedule(
                    now,
                    Self::core_node(requester),
                    Msg::DataS {
                        block,
                        exclusive: false,
                        class,
                    },
                    true,
                );
            }
        }
    }

    /// Makes `core` the block's sole owner, freeing the block's sharer slot
    /// if it had one.
    fn set_exclusive(&mut self, key: u64, core: u16) {
        if let Some(DirState::Shared(slot)) = self.entries.insert(key, DirState::Exclusive(core)) {
            self.sharers.release(slot);
        }
    }

    /// Adds `core` to the block's sharers; a block not yet `Shared` becomes
    /// shared by `core` alone.
    fn add_sharer(&mut self, key: u64, core: u16) {
        match self.entries.get(&key).copied() {
            Some(DirState::Shared(slot)) => self.sharers.insert(slot, core),
            _ => {
                let slot = self.sharers.single(core);
                self.entries.insert(key, DirState::Shared(slot));
            }
        }
    }

    /// Removes `core` from the sharers in `slot`, untracking the block when
    /// none remain.
    fn drop_sharer(&mut self, key: u64, slot: u32, core: u16) {
        if self.sharers.remove(slot, core) {
            self.sharers.release(slot);
            self.entries.remove(&key);
        }
    }

    /// Whether this bank has no in-flight work.
    pub fn is_quiescent(&self) -> bool {
        self.busy.is_empty()
            && self.pending.is_empty()
            && self.sends.is_empty()
            && self.deferred.values().all(VecDeque::is_empty)
    }

    /// Bank statistics.
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// DRAM statistics for this bank's channel.
    pub fn dram_stats(&self) -> &StatSet {
        self.dram.stats()
    }

    /// Number of blocks with directory entries (cached somewhere).
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Test/debug view: who shares `block`, if anyone.
    pub fn sharers_of(&self, block: BlockAddr) -> Vec<CoreId> {
        match self.entries.get(&block.as_u64()) {
            None => Vec::new(),
            Some(&DirState::Shared(slot)) => self.sharers.iter(slot).map(CoreId).collect(),
            Some(&DirState::Exclusive(o)) => vec![CoreId(o)],
        }
    }

    /// Test/debug view: whether the directory believes `core` owns `block`.
    pub fn is_owner(&self, block: BlockAddr, core: CoreId) -> bool {
        matches!(self.entries.get(&block.as_u64()), Some(DirState::Exclusive(o)) if *o == core.0)
    }
}
