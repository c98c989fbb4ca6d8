//! The per-core private-L1 cache controller: [`L1Controller`].
//!
//! The controller mediates between the core above it (which issues
//! [`AccessKind::Read`] / [`AccessKind::Write`] requests against byte-free
//! block addresses) and the directory protocol below it. It owns the L1
//! array, the MSHRs, a writeback buffer for in-flight evictions, and the
//! speculation mark bits the fence-speculation engine uses.

use std::collections::VecDeque;

use tenways_mem::{CacheArray, CacheParams, MshrFile};
use tenways_noc::Fabric;
use tenways_sim::{BlockAddr, BlockMap, CoreId, Cycle, MachineConfig, NodeId, StatSet};

use crate::line::{L1Line, L1State, SpecMark};
use crate::msg::{FillClass, Msg};

/// Token a core attaches to a memory request so it can match the
/// completion back to the originating instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

/// What the core wants from the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load: any valid state suffices.
    Read,
    /// Store or atomic: requires M (or E, silently upgraded).
    Write,
}

/// A finished memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request token.
    pub req: ReqId,
    /// Cycle at which the data/permission became available.
    pub at: Cycle,
    /// Where the data came from (stall attribution).
    pub class: FillClass,
}

/// Why a core request could not even be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// All MSHRs are busy with other blocks; retry next cycle.
    MshrFull,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::MshrFull => write!(f, "no free MSHR"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Why a speculation violation fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationCause {
    /// A remote writer invalidated a speculatively accessed block.
    RemoteInvalidation,
    /// A remote reader downgraded a speculatively *written* block.
    RemoteDowngrade,
    /// A speculatively accessed block was chosen as an eviction victim.
    Eviction,
}

impl ViolationCause {
    /// Stable label for stats.
    pub fn label(self) -> &'static str {
        match self {
            ViolationCause::RemoteInvalidation => "remote_inv",
            ViolationCause::RemoteDowngrade => "remote_downgrade",
            ViolationCause::Eviction => "eviction",
        }
    }
}

/// An event that must abort the current speculative epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecViolation {
    /// The conflicting block.
    pub block: BlockAddr,
    /// What happened to it.
    pub cause: ViolationCause,
    /// When it happened.
    pub at: Cycle,
}

/// Protocol options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Grant E on a read miss when no other cache holds the block (MESI);
    /// `false` gives plain MSI.
    pub grant_exclusive: bool,
    /// Issue a read prefetch for block N+1 on every demand miss fill of
    /// block N (a simple next-line prefetcher).
    pub prefetch_next_line: bool,
}

impl tenways_sim::json::ToJson for ProtocolConfig {
    fn to_json(&self) -> tenways_sim::json::Json {
        use tenways_sim::json::Json;
        Json::obj([
            ("grant_exclusive", Json::Bool(self.grant_exclusive)),
            ("prefetch_next_line", Json::Bool(self.prefetch_next_line)),
        ])
    }
}

impl ProtocolConfig {
    /// Overlays fields from a JSON object onto `self`. Absent keys keep
    /// their current value.
    pub fn apply_json(&mut self, doc: &tenways_sim::json::Json) -> Result<(), String> {
        let pairs = doc.as_object().ok_or_else(|| {
            format!(
                "protocol section must be an object, got {}",
                doc.type_name()
            )
        })?;
        for (key, value) in pairs {
            let flag = || {
                value
                    .as_bool()
                    .ok_or(format!("protocol.{key} must be a bool"))
            };
            match key.as_str() {
                "grant_exclusive" => self.grant_exclusive = flag()?,
                "prefetch_next_line" => self.prefetch_next_line = flag()?,
                other => return Err(format!("unknown protocol field `{other}`")),
            }
        }
        Ok(())
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            grant_exclusive: true,
            prefetch_next_line: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    req: ReqId,
    kind: AccessKind,
}

/// State of an eviction awaiting the directory's PutAck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WbState {
    /// Sent PutS; still logically a sharer.
    EvictShared,
    /// Sent PutM; still logically the owner. `dirty` mirrors the message.
    EvictOwned { dirty: bool },
    /// A probe already consumed the line; just waiting for PutAck.
    Defunct,
}

/// The private L1 + protocol controller for one core.
///
/// Drive it with [`request`](Self::request) (from the core) and
/// [`tick`](Self::tick) (once per cycle, after the fabric tick); collect
/// results with [`take_completions`](Self::take_completions) and
/// [`take_violations`](Self::take_violations).
#[derive(Debug)]
pub struct L1Controller {
    core: CoreId,
    node: NodeId,
    cores: usize,
    dir_banks: usize,
    hit_latency: u64,
    config: ProtocolConfig,
    cache: CacheArray<L1Line>,
    mshrs: MshrFile<Waiter>,
    /// For each outstanding miss: did we ask for M?
    want_m: BlockMap<bool>,
    wb: BlockMap<WbState>,
    /// Hit completions maturing after the hit latency (FIFO by time).
    hit_q: VecDeque<(Cycle, ReqId)>,
    /// Write waiters displaced by an S fill, to be re-requested.
    retry_q: VecDeque<(ReqId, AccessKind, BlockAddr)>,
    completions: Vec<Completion>,
    violations: Vec<SpecViolation>,
    /// Blocks that may carry speculation marks (superset; bits are truth).
    spec_marked: Vec<BlockAddr>,
    /// Stat keys bumped by *failed* `request` calls this cycle. A blocked
    /// core repeats the identical failed request every cycle of a quiescent
    /// gap, so fast-forward replays these keys once per skipped cycle.
    /// Cleared at the top of every [`tick`](Self::tick).
    idle_fx: Vec<&'static str>,
    /// A failed `request` this cycle had a one-time side effect (cleared a
    /// prefetched bit), so the cycle is not a uniform replica and must not
    /// seed a fast-forward jump.
    fx_once: bool,
    stats: StatSet,
}

impl L1Controller {
    /// Creates the controller for `core` under machine `cfg`.
    pub fn new(core: CoreId, cfg: &MachineConfig, protocol: ProtocolConfig) -> Self {
        let params = CacheParams::new(cfg.l1_sets, cfg.l1_ways)
            .expect("MachineConfig validated its cache geometry");
        L1Controller {
            core,
            node: NodeId::from(core),
            cores: cfg.cores,
            dir_banks: cfg.dir_banks,
            hit_latency: cfg.l1_hit_latency,
            config: protocol,
            cache: CacheArray::new(params),
            mshrs: MshrFile::new(cfg.mshrs),
            want_m: BlockMap::default(),
            wb: BlockMap::default(),
            hit_q: VecDeque::new(),
            retry_q: VecDeque::new(),
            completions: Vec::new(),
            violations: Vec::new(),
            spec_marked: Vec::new(),
            idle_fx: Vec::new(),
            fx_once: false,
            stats: StatSet::new(),
        }
    }

    /// This controller's core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    fn home_node(&self, block: BlockAddr) -> NodeId {
        let bank = (block.as_u64() % self.dir_banks as u64) as usize;
        NodeId((self.cores + bank) as u16)
    }

    /// Issues a memory request. On a hit the completion matures after the
    /// hit latency; on a miss it matures when the fill returns.
    ///
    /// # Errors
    ///
    /// [`RequestError::MshrFull`] when a new miss cannot be tracked; the
    /// caller must retry on a later cycle (a structural stall).
    pub fn request(
        &mut self,
        now: Cycle,
        req: ReqId,
        kind: AccessKind,
        block: BlockAddr,
        fabric: &mut Fabric<Msg>,
    ) -> Result<(), RequestError> {
        // Track the stat bumps of this attempt; a successful request is
        // progress (never replayed), so its record is discarded.
        let fx_mark = self.idle_fx.len();
        let r = self.request_inner(now, req, kind, block, fabric);
        if r.is_ok() {
            self.idle_fx.truncate(fx_mark);
        }
        r
    }

    fn request_inner(
        &mut self,
        now: Cycle,
        req: ReqId,
        kind: AccessKind,
        block: BlockAddr,
        fabric: &mut Fabric<Msg>,
    ) -> Result<(), RequestError> {
        let kind_key = match kind {
            AccessKind::Read => "l1.read_reqs",
            AccessKind::Write => "l1.write_reqs",
        };
        self.stats.bump(kind_key);
        self.idle_fx.push(kind_key);

        if let Some(line) = self.cache.get(block) {
            if line.prefetched {
                line.prefetched = false;
                self.stats.bump("l1.prefetch_useful");
                self.fx_once = true;
            }
            match kind {
                AccessKind::Read => {
                    self.stats.bump("l1.hits");
                    self.hit_q.push_back((now.after(self.hit_latency), req));
                    return Ok(());
                }
                AccessKind::Write if line.state.writable() => {
                    if line.state == L1State::Exclusive {
                        line.state = L1State::Modified;
                        self.stats.bump("l1.silent_e_to_m");
                    }
                    line.dirty = true;
                    self.stats.bump("l1.hits");
                    self.hit_q.push_back((now.after(self.hit_latency), req));
                    return Ok(());
                }
                AccessKind::Write => {
                    // S line: upgrade. Falls through to the miss path below;
                    // the line stays readable while the GetM is in flight.
                    self.stats.bump("l1.upgrades");
                    self.idle_fx.push("l1.upgrades");
                }
            }
        } else {
            self.stats.bump("l1.misses");
            self.idle_fx.push("l1.misses");
        }

        let primary = self
            .mshrs
            .allocate(block, Waiter { req, kind })
            .map_err(|_| RequestError::MshrFull)?;
        if primary {
            let want_m = kind == AccessKind::Write;
            self.want_m.insert(block.as_u64(), want_m);
            let msg = if want_m {
                Msg::GetM(block)
            } else {
                Msg::GetS(block)
            };
            fabric.send(now, self.node, self.home_node(block), msg);
        } else if kind == AccessKind::Write
            && !self.want_m.get(&block.as_u64()).copied().unwrap_or(false)
        {
            // A write merged into an outstanding GetS: the S fill will not
            // satisfy it; it is re-requested (as an upgrade) at fill time.
            self.stats.bump("l1.write_under_gets");
        }
        Ok(())
    }

    /// Marks a block as speculatively read/written. Returns `false` (and
    /// marks nothing) if the block is not resident — callers should treat
    /// that as a conservative violation.
    ///
    /// Marking [`SpecMark::Write`] on a dirty, not-yet-spec-written line
    /// first flushes the pre-speculation data to the L2 (a `CleanWb`
    /// message) so rollback can drop the line without losing data.
    pub fn mark_spec(
        &mut self,
        now: Cycle,
        mark: SpecMark,
        block: BlockAddr,
        fabric: &mut Fabric<Msg>,
    ) -> bool {
        let node = self.node;
        let home = self.home_node(block);
        let Some(line) = self.cache.peek_mut(block) else {
            return false;
        };
        match mark {
            SpecMark::Read => {
                if !line.spec_read {
                    line.spec_read = true;
                    self.spec_marked.push(block);
                    self.stats.bump("l1.spec_read_marks");
                }
            }
            SpecMark::Write => {
                if !line.state.writable() {
                    // The line was downgraded between the write completing
                    // and the mark being applied — report failure so the
                    // caller treats it as a (conservative) violation.
                    return false;
                }
                if !line.spec_write {
                    if line.dirty {
                        fabric.send(now, node, home, Msg::CleanWb(block));
                        self.stats.bump("l1.spec_clean_wb");
                    }
                    line.spec_write = true;
                    line.dirty = true;
                    self.spec_marked.push(block);
                    self.stats.bump("l1.spec_write_marks");
                }
            }
        }
        true
    }

    /// Commits the speculative epoch: flash-clears all mark bits. O(marked).
    pub fn commit_spec(&mut self) {
        for block in std::mem::take(&mut self.spec_marked) {
            if let Some(line) = self.cache.peek_mut(block) {
                line.spec_read = false;
                line.spec_write = false;
            }
        }
        self.stats.bump("l1.spec_commits");
    }

    /// Rolls back the speculative epoch: speculatively-written lines are
    /// dropped (their pre-speculation contents already live in the L2) and
    /// read marks are cleared. Returns the number of lines dropped.
    pub fn rollback_spec(&mut self, now: Cycle, fabric: &mut Fabric<Msg>) -> usize {
        let mut dropped = 0;
        for block in std::mem::take(&mut self.spec_marked) {
            let Some(line) = self.cache.peek_mut(block) else {
                continue;
            };
            if line.spec_write {
                self.cache.remove(block);
                fabric.send(
                    now,
                    self.node,
                    self.home_node(block),
                    Msg::PutM {
                        block,
                        dirty: false,
                    },
                );
                self.wb
                    .insert(block.as_u64(), WbState::EvictOwned { dirty: false });
                dropped += 1;
            } else {
                line.spec_read = false;
                line.spec_write = false;
            }
        }
        self.stats.bump("l1.spec_rollbacks");
        self.stats
            .bump_by("l1.spec_rollback_dropped", dropped as u64);
        dropped
    }

    /// Advances the controller: matures hit completions, retries displaced
    /// writes, and processes protocol messages delivered by the fabric.
    ///
    /// Returns `true` if anything moved (a hit matured, a retry was
    /// accepted, or a protocol message was processed) this cycle.
    pub fn tick(&mut self, now: Cycle, fabric: &mut Fabric<Msg>) -> bool {
        self.idle_fx.clear();
        self.fx_once = false;
        let mut progress = false;

        while let Some(&(at, req)) = self.hit_q.front() {
            if at > now {
                break;
            }
            self.hit_q.pop_front();
            progress = true;
            self.completions.push(Completion {
                req,
                at,
                class: FillClass::L1Hit,
            });
        }

        for _ in 0..self.retry_q.len() {
            let Some((req, kind, block)) = self.retry_q.pop_front() else {
                break;
            };
            if self.request(now, req, kind, block, fabric).is_err() {
                self.retry_q.push_back((req, kind, block));
            } else {
                progress = true;
            }
        }

        while let Some(env) = fabric.pop_inbox(self.node) {
            progress = true;
            self.handle_msg(now, env.payload, fabric);
        }
        progress
    }

    /// Earliest future cycle at which this controller will act on its own:
    /// the next maturing hit, or "immediately" while finished completions /
    /// violations await pickup by the core. Misses, writebacks and queued
    /// retries are unblocked by fabric deliveries, which surface through
    /// the fabric's horizon. `None` when none of those are pending.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.completions.is_empty() || !self.violations.is_empty() {
            return Some(now.after(1));
        }
        self.hit_q.front().map(|&(at, _)| at.max(now.after(1)))
    }

    /// Whether a failed request this cycle had a one-time side effect,
    /// making the cycle unsafe to use as a fast-forward template.
    pub fn took_one_time_fx(&self) -> bool {
        self.fx_once
    }

    /// Replays the stat bumps of the failed requests observed in the tick
    /// at `now` over `gap` skipped quiescent cycles, `now+1 ..= now+gap`
    /// (the blocked core and the retry queue would have repeated them
    /// identically every cycle). Same `skip_idle(now, gap)` contract as
    /// the fabric and the core; see DESIGN.md §2.
    pub fn skip_idle(&mut self, now: Cycle, gap: u64) {
        let _ = now; // the controller keeps no watermark; `now` documents the gap start
        for &key in &self.idle_fx {
            self.stats.bump_by(key, gap);
        }
    }

    fn handle_msg(&mut self, now: Cycle, msg: Msg, fabric: &mut Fabric<Msg>) {
        match msg {
            Msg::DataS {
                block,
                exclusive,
                class,
            } => {
                let state = if exclusive && self.config.grant_exclusive {
                    L1State::Exclusive
                } else {
                    L1State::Shared
                };
                self.fill(now, block, state, class, fabric);
            }
            Msg::DataM { block, class } => {
                self.fill(now, block, L1State::Modified, class, fabric);
            }
            Msg::Inv(block) => self.handle_inv(now, block, fabric),
            Msg::Recall(block) => self.handle_recall(now, block, fabric),
            Msg::Downgrade(block) => self.handle_downgrade(now, block, fabric),
            Msg::PutAck(block) => {
                self.wb.remove(&block.as_u64());
            }
            other => {
                debug_assert!(false, "L1 received unexpected message {other:?}");
                self.stats.bump("l1.unexpected_msgs");
            }
        }
    }

    /// Installs a fill and completes its waiters.
    fn fill(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        state: L1State,
        class: FillClass,
        fabric: &mut Fabric<Msg>,
    ) {
        self.want_m.remove(&block.as_u64());
        let entry = self.mshrs.complete(block);

        let demand = entry.as_ref().is_some_and(|e| !e.waiters.is_empty());

        // Preserve any existing line's flags (upgrade fill over an S copy).
        if let Some(line) = self.cache.peek_mut(block) {
            line.state = state;
        } else if let Some(evicted) = self.cache.insert(
            block,
            L1Line {
                prefetched: !demand,
                ..L1Line::fresh(state)
            },
        ) {
            self.evict(now, evicted.block, evicted.payload, fabric);
        }

        if demand && self.config.prefetch_next_line {
            self.maybe_prefetch(now, BlockAddr(block.as_u64().wrapping_add(1)), fabric);
        }

        let Some(mut entry) = entry else {
            // A fill with no MSHR entry should not happen under the blocking
            // directory; count it defensively.
            self.stats.bump("l1.orphan_fills");
            return;
        };

        let grants_write = state.writable();
        let mut wrote = false;
        for waiter in entry.waiters.drain(..) {
            match waiter.kind {
                AccessKind::Read => {
                    self.completions.push(Completion {
                        req: waiter.req,
                        at: now,
                        class,
                    });
                }
                AccessKind::Write if grants_write => {
                    wrote = true;
                    self.completions.push(Completion {
                        req: waiter.req,
                        at: now,
                        class,
                    });
                }
                AccessKind::Write => {
                    // S fill cannot satisfy a write: re-request as upgrade.
                    self.retry_q
                        .push_back((waiter.req, AccessKind::Write, block));
                }
            }
        }
        self.mshrs.recycle(entry);
        if wrote {
            if let Some(line) = self.cache.peek_mut(block) {
                if line.state == L1State::Exclusive {
                    line.state = L1State::Modified;
                    self.stats.bump("l1.silent_e_to_m");
                }
                line.dirty = true;
            }
        }
        self.stats.bump(match class {
            FillClass::L1Hit => "l1.fills_l1hit",
            FillClass::L2Hit => "l1.fills_l2",
            FillClass::DramCold => "l1.fills_cold",
            FillClass::DramCapacity => "l1.fills_capacity",
            FillClass::Coherence => "l1.fills_coherence",
        });
    }

    /// Issues a next-line read prefetch if the block is absent, untracked,
    /// and an MSHR is free.
    fn maybe_prefetch(&mut self, now: Cycle, block: BlockAddr, fabric: &mut Fabric<Msg>) {
        if self.cache.peek(block).is_some()
            || self.mshrs.contains(block)
            || self.wb.contains_key(&block.as_u64())
            || self.mshrs.is_full()
        {
            return;
        }
        if self.mshrs.allocate_prefetch(block).unwrap_or(false) {
            self.want_m.insert(block.as_u64(), false);
            fabric.send(now, self.node, self.home_node(block), Msg::GetS(block));
            self.stats.bump("l1.prefetches");
        }
    }

    /// Starts an eviction transaction for a victim line.
    fn evict(&mut self, now: Cycle, block: BlockAddr, line: L1Line, fabric: &mut Fabric<Msg>) {
        if line.is_spec() {
            self.violations.push(SpecViolation {
                block,
                cause: ViolationCause::Eviction,
                at: now,
            });
            self.stats.bump("l1.violation_eviction");
        }
        self.stats.bump("l1.evictions");
        let (msg, wb) = if line.state.owned() {
            (
                Msg::PutM {
                    block,
                    dirty: line.dirty,
                },
                WbState::EvictOwned { dirty: line.dirty },
            )
        } else {
            (Msg::PutS(block), WbState::EvictShared)
        };
        fabric.send(now, self.node, self.home_node(block), msg);
        let prev = self.wb.insert(block.as_u64(), wb);
        debug_assert!(prev.is_none(), "double eviction of {block}");
    }

    fn note_violation(&mut self, now: Cycle, block: BlockAddr, cause: ViolationCause) {
        self.violations.push(SpecViolation {
            block,
            cause,
            at: now,
        });
        self.stats.bump(match cause {
            ViolationCause::RemoteInvalidation => "l1.violation_remote_inv",
            ViolationCause::RemoteDowngrade => "l1.violation_remote_downgrade",
            ViolationCause::Eviction => "l1.violation_eviction",
        });
    }

    fn handle_inv(&mut self, now: Cycle, block: BlockAddr, fabric: &mut Fabric<Msg>) {
        if let Some(line) = self.cache.peek_mut(block) {
            let spec = line.is_spec();
            if spec {
                self.note_violation(now, block, ViolationCause::RemoteInvalidation);
            }
            self.cache.remove(block);
            self.stats.bump("l1.invalidations");
        } else if let Some(wb) = self.wb.get_mut(&block.as_u64()) {
            *wb = WbState::Defunct;
            self.stats.bump("l1.invalidations_in_wb");
        } else {
            self.stats.bump("l1.stale_inv");
        }
        fabric.send(now, self.node, self.home_node(block), Msg::InvAck(block));
    }

    fn handle_recall(&mut self, now: Cycle, block: BlockAddr, fabric: &mut Fabric<Msg>) {
        let dirty;
        if let Some(line) = self.cache.peek_mut(block) {
            let spec = line.is_spec();
            dirty = line.dirty;
            if spec {
                self.note_violation(now, block, ViolationCause::RemoteInvalidation);
            }
            self.cache.remove(block);
            self.stats.bump("l1.recalls");
        } else if let Some(wb) = self.wb.get_mut(&block.as_u64()) {
            dirty = matches!(*wb, WbState::EvictOwned { dirty: true });
            *wb = WbState::Defunct;
            self.stats.bump("l1.recalls_in_wb");
        } else {
            dirty = false;
            self.stats.bump("l1.stale_recall");
        }
        fabric.send(
            now,
            self.node,
            self.home_node(block),
            Msg::RecallAck { block, dirty },
        );
    }

    fn handle_downgrade(&mut self, now: Cycle, block: BlockAddr, fabric: &mut Fabric<Msg>) {
        let dirty;
        if let Some(line) = self.cache.peek_mut(block) {
            let spec_write = line.spec_write;
            dirty = line.dirty;
            line.state = L1State::Shared;
            line.dirty = false;
            if spec_write {
                self.note_violation(now, block, ViolationCause::RemoteDowngrade);
            }
            self.stats.bump("l1.downgrades");
        } else if let Some(wb) = self.wb.get_mut(&block.as_u64()) {
            dirty = matches!(*wb, WbState::EvictOwned { dirty: true });
            // We remain a (logical) sharer; our queued PutM will be treated
            // as a PutS by the directory.
            *wb = WbState::EvictShared;
            self.stats.bump("l1.downgrades_in_wb");
        } else {
            dirty = false;
            self.stats.bump("l1.stale_downgrade");
        }
        fabric.send(
            now,
            self.node,
            self.home_node(block),
            Msg::DowngradeAck { block, dirty },
        );
    }

    /// Moves the finished requests, sorted by completion time, into `out`,
    /// and keeps `out`'s old buffer, cleared, for the next ones: a caller
    /// that drains into the same buffer every cycle allocates nothing.
    pub fn take_completions(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        std::mem::swap(&mut self.completions, out);
        out.sort_by_key(|c| (c.at, c.req));
    }

    /// Drains speculation violations observed since the last call.
    pub fn take_violations(&mut self) -> Vec<SpecViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether any miss, eviction or retry is still in flight.
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.is_empty()
            && self.wb.is_empty()
            && self.hit_q.is_empty()
            && self.retry_q.is_empty()
    }

    /// Whether `block` is resident in any valid state.
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.cache.peek(block).is_some()
    }

    /// Whether `block` is resident in M.
    pub fn holds_modified(&self, block: BlockAddr) -> bool {
        self.cache
            .peek(block)
            .is_some_and(|l| l.state == L1State::Modified)
    }

    /// The stable coherence state of `block`, if resident.
    pub fn state_of(&self, block: BlockAddr) -> Option<L1State> {
        self.cache.peek(block).map(|l| l.state)
    }

    /// Whether `block` carries a speculation mark.
    pub fn is_spec_marked(&self, block: BlockAddr) -> bool {
        self.cache.peek(block).is_some_and(L1Line::is_spec)
    }

    /// Controller statistics.
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }
}
