//! The core pipeline model: [`Core`].
//!
//! An in-order-issue, out-of-order-completion core with a reorder buffer, a
//! FIFO store buffer, per-model consistency enforcement, and integrated
//! fence speculation (the [`tenways_core::SpecEngine`]).
//!
//! # Pipeline shape
//!
//! * **Fetch/issue** (in order, `width` per cycle): the next op is taken
//!   from the [`ThreadProgram`], staged, and issued when its consistency
//!   rule allows. A blocked stage stalls fetch — which is exactly how
//!   consistency enforcement costs cycles. When the block is an *ordering*
//!   stall (not a data or resource hazard), the speculation engine may
//!   elect to checkpoint and issue anyway.
//! * **Completion** (out of order): loads and atomics finish when the L1
//!   reports them; compute finishes after its latency.
//! * **Retire** (in order, `width` per cycle): completed ops pop from the
//!   ROB head; stores move into the store buffer at retirement and drain to
//!   the L1 one at a time (preserving TSO store order).
//!
//! Values live in the functional layer: loads resolve against the store
//! buffer, then the speculative overlay, then [`ArchMem`].

use std::collections::VecDeque;

use tenways_coherence::{
    AccessKind, Completion, FillClass, L1Controller, ReqId, RequestError, SpecMark,
};
use tenways_core::{DrainCond, SpecConfig, SpecEngine};
use tenways_noc::Fabric;
use tenways_sim::trace::{TraceCategory, Tracer};
use tenways_sim::{
    Addr, AtomicsConfig, BlockGeometry, CoreId, Cycle, Histogram, MachineConfig, StatSet,
};

use crate::account::{self, StallKind};
use crate::archmem::{MemBackend, SpecOverlay};
use crate::consistency::ConsistencyModel;
use crate::op::{FenceKind, MemTag, Op, ThreadProgram};

type CoherenceMsg = tenways_coherence::Msg;

#[derive(Debug)]
struct Slot {
    seq: u64,
    op: Op,
    /// Completion time; the slot is complete once `done <= now`.
    done: Option<Cycle>,
    /// Issued during a speculative epoch.
    spec: bool,
    /// Result value (loads / atomics).
    value: Option<u64>,
    /// Cycles this op blocked the ROB head (attributed at completion).
    waited: u64,
    /// The fill class of the memory completion, for attribution.
    class: Option<FillClass>,
    /// The L1 request a load or atomic waits on; its completion finds the
    /// slot by this id.
    req: Option<ReqId>,
}

impl Slot {
    fn complete(&self, now: Cycle) -> bool {
        self.done.is_some_and(|d| d <= now)
    }
}

#[derive(Debug)]
struct SbEntry {
    seq: u64,
    addr: Addr,
    value: u64,
    tag: MemTag,
    spec: bool,
    req: Option<ReqId>,
}

#[derive(Debug)]
struct Checkpoint {
    program: Box<dyn ThreadProgram>,
    replay_op: Op,
    start_seq: u64,
}

/// Outcome of the same-address ROB scan for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SameAddrHazard {
    /// No older same-address producer in flight.
    Clear,
    /// Forward this value from an older store.
    Forward(u64),
    /// An older atomic to the address is still in flight: wait.
    Wait,
}

/// What blocked the core this cycle, noted during issue/retire and consumed
/// by the end-of-cycle accountant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickBlock {
    None,
    Stall(StallKind, MemTag),
    RobFull,
    MshrFull,
    SpecCap,
    /// Same-address dependence on an older in-flight atomic or store.
    SameAddrDep,
}

/// One simulated core: pipeline + consistency enforcement + speculation.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    model: ConsistencyModel,
    width: usize,
    rob_cap: usize,
    sb_cap: usize,
    hit_latency: u64,
    atomics: AtomicsConfig,
    geometry: BlockGeometry,

    program: Box<dyn ThreadProgram>,
    fetch_done: bool,
    staged: Option<(u64, Op)>,
    /// Sequence number of a consume op whose value fetch is waiting on.
    awaiting: Option<u64>,
    pending_value: Option<u64>,
    next_seq: u64,

    rob: VecDeque<Slot>,
    sb: VecDeque<SbEntry>,
    /// The L1's completions, drained into one buffer every tick.
    completions: Vec<Completion>,
    next_req: u64,

    engine: SpecEngine,
    checkpoint: Option<Checkpoint>,
    overlay: SpecOverlay,
    clear_backoff_on: Option<u64>,

    block: TickBlock,
    /// Any non-stat state changed this cycle (op moved, flag flipped,
    /// message consumed). A cycle with no progress anywhere in the machine
    /// is a template for fast-forward replay.
    tick_progress: bool,
    /// Refused `request_speculation` calls this cycle (0 or 1: a refusal
    /// aborts the issue attempt, which ends the fetch loop).
    tick_refusals: u32,
    /// Granted epoch-*extension* calls this cycle whose op then failed to
    /// issue; replayed per skipped cycle.
    tick_ext_grants: u32,
    /// The store-buffer drain attempt failed on MSHRs this cycle.
    tick_sb_drain_stall: bool,
    /// Speculatively retired ops awaiting epoch commit (discarded on
    /// rollback so `retired_ops` only counts architecturally committed
    /// work).
    spec_retired_pending: u64,
    /// A speculative store overflowed the per-store tracking cap: the
    /// epoch must abort (capacity violation) or it deadlocks its own
    /// commit condition.
    overflow_abort: bool,
    acct: StatSet,
    sb_occ_hist: Histogram,
    retired_ops: u64,
    done_at: Option<Cycle>,

    tracer: Tracer,
    /// Open consistency-stall span: (kind, consecutive cycles so far).
    stall_run: Option<(StallKind, u64)>,
}

impl Core {
    /// Creates a core running `program` under `model`, with speculation
    /// configured by `spec`.
    pub fn new(
        id: CoreId,
        cfg: &MachineConfig,
        model: ConsistencyModel,
        spec: SpecConfig,
        atomics: AtomicsConfig,
        program: Box<dyn ThreadProgram>,
    ) -> Self {
        Core {
            id,
            model,
            width: cfg.width,
            rob_cap: cfg.rob_entries,
            sb_cap: cfg.sb_entries,
            hit_latency: cfg.l1_hit_latency,
            atomics,
            geometry: cfg.block_geometry(),
            program,
            fetch_done: false,
            staged: None,
            awaiting: None,
            pending_value: None,
            next_seq: 0,
            rob: VecDeque::new(),
            sb: VecDeque::new(),
            completions: Vec::new(),
            next_req: 0,
            engine: SpecEngine::new(spec),
            checkpoint: None,
            overlay: SpecOverlay::new(),
            clear_backoff_on: None,
            block: TickBlock::None,
            tick_progress: false,
            tick_refusals: 0,
            tick_ext_grants: 0,
            tick_sb_drain_stall: false,
            spec_retired_pending: 0,
            overflow_abort: false,
            acct: StatSet::new(),
            sb_occ_hist: Histogram::new(65, 1),
            retired_ops: 0,
            done_at: None,
            tracer: Tracer::disabled(),
            stall_run: None,
        }
    }

    /// Attaches an event tracer; consistency stalls become spans and
    /// rollbacks become instants on this core's timeline row.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The consistency model being enforced.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// Whether the thread has finished and all its effects have drained.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// Cycle at which the thread completed, if it has.
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// Dynamic operations retired so far.
    pub fn retired_ops(&self) -> u64 {
        self.retired_ops
    }

    /// The cycle-attribution buckets (sums to cycles ticked while active).
    pub fn accounting(&self) -> &StatSet {
        &self.acct
    }

    /// Store-buffer occupancy distribution (sampled every cycle).
    pub fn sb_occupancy(&self) -> &Histogram {
        &self.sb_occ_hist
    }

    /// The speculation engine (stats, histograms).
    pub fn engine(&self) -> &SpecEngine {
        &self.engine
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    // ---------------- condition predicates ----------------

    /// Whether `cond` holds over `rob` and `sb`. It takes the queues rather
    /// than the core so that `try_commit` can check conditions while the
    /// speculation engine is borrowed.
    fn holds(rob: &VecDeque<Slot>, sb: &VecDeque<SbEntry>, now: Cycle, cond: &DrainCond) -> bool {
        match *cond {
            DrainCond::NoStoresBefore(seq) => {
                !rob.iter()
                    .any(|s| s.seq < seq && matches!(s.op, Op::Store { .. }) && !s.complete(now))
                    && !sb.iter().any(|e| e.seq < seq)
            }
            DrainCond::NoLoadsBefore(seq) => !rob.iter().any(|s| {
                s.seq < seq && matches!(s.op, Op::Load { .. } | Op::Rmw { .. }) && !s.complete(now)
            }),
            // An op no longer in the ROB has retired.
            DrainCond::OpDone(seq) => rob
                .iter()
                .find(|s| s.seq == seq)
                .is_none_or(|s| s.complete(now)),
        }
    }

    fn cond_holds(&self, now: Cycle, cond: &DrainCond) -> bool {
        Self::holds(&self.rob, &self.sb, now, cond)
    }

    /// Same-address hazard resolution for a load at `seq`: scan ROB entries
    /// older than `seq` to the same address, youngest first.
    ///
    /// * youngest match is a completed or pending `Store` — its value is
    ///   known: forward it;
    /// * youngest match is an incomplete `Rmw` — the load must wait (its
    ///   value is unknowable until the atomic completes);
    /// * youngest match is a completed `Rmw` — memory already reflects it
    ///   (or the overlay does): no forwarding needed.
    fn same_addr_hazard(&self, now: Cycle, seq: u64, addr: Addr) -> SameAddrHazard {
        for s in self.rob.iter().rev() {
            if s.seq >= seq || s.op.addr() != Some(addr) {
                continue;
            }
            match s.op {
                Op::Store { value, .. } => return SameAddrHazard::Forward(value),
                Op::Rmw { .. } if !s.complete(now) => return SameAddrHazard::Wait,
                _ => return SameAddrHazard::Clear,
            }
        }
        SameAddrHazard::Clear
    }

    /// Whether an atomic at `seq` must wait for an older in-flight
    /// same-address ROB entry (its global read must observe them), or for
    /// a buffered same-address store to drain. The store-buffer half is
    /// per-location coherence, not ordering: an RMW that issued over a
    /// buffered store to the same word would write memory first and then
    /// be silently overwritten when the older store drains. Real machines
    /// never allow this (x86 drains the buffer before locked ops; LL/SC
    /// fails when the reservation is lost), so the gate applies under
    /// every consistency model.
    fn rmw_same_addr_blocked(&self, now: Cycle, seq: u64, addr: Addr) -> bool {
        self.rob.iter().any(|s| {
            s.seq < seq
                && s.op.addr() == Some(addr)
                && matches!(s.op, Op::Store { .. } | Op::Rmw { .. })
                && !s.complete(now)
        }) || self.sb.iter().any(|e| e.addr == addr)
    }

    /// The youngest incomplete Rmw older than `seq`, if any (TSO load rule).
    fn older_incomplete_rmw(&self, now: Cycle, seq: u64) -> Option<u64> {
        self.rob
            .iter()
            .filter(|s| s.seq < seq && matches!(s.op, Op::Rmw { .. }) && !s.complete(now))
            .map(|s| s.seq)
            .next_back()
    }

    // ---------------- main tick ----------------

    /// Advances the core one cycle against its L1 and the shared
    /// architectural memory. Call after the L1's own tick.
    ///
    /// Returns `true` if any non-stat state changed (an op completed,
    /// retired, issued, or a flag flipped). A `false` cycle is a pure
    /// waiting cycle whose side effects repeat identically until the next
    /// event — the contract fast-forward relies on.
    pub fn tick<M: MemBackend>(
        &mut self,
        now: Cycle,
        l1: &mut L1Controller,
        fabric: &mut Fabric<CoherenceMsg>,
        mem: &mut M,
    ) -> bool {
        if self.done_at.is_some() {
            return false;
        }
        self.block = TickBlock::None;
        self.tick_progress = false;
        self.tick_refusals = 0;
        self.tick_ext_grants = 0;
        self.tick_sb_drain_stall = false;

        self.process_completions(now, l1, fabric, mem);
        self.process_violations(now, l1, fabric);
        self.try_commit(now, l1, mem);
        let retired = self.retire(now, mem);
        if retired > 0 {
            self.tick_progress = true;
        }
        if std::mem::take(&mut self.overflow_abort) && self.engine.on_violation(now) {
            self.tick_progress = true;
            self.acct.bump("core.spec_cap_aborts");
            self.rollback(now, l1, fabric);
        }
        self.fetch_and_issue(now, l1, fabric);
        self.drain_sb(now, l1, fabric);
        self.try_commit(now, l1, mem);
        self.finish_check(now, l1, mem);
        self.account(now, retired);
        self.sb_occ_hist.record(self.sb.len() as u64);
        self.tick_progress
    }

    /// Earliest future cycle at which this core can make progress on its
    /// own: the next scheduled ROB completion (compute latency, forwarded
    /// hit) or the end of the engine's adaptive-suppression countdown.
    /// Ops waiting on the memory system surface through the L1 / fabric /
    /// directory horizons instead. `None` once the thread is done (or when
    /// the core is blocked purely on external events).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.done_at.is_some() {
            return None;
        }
        let mut horizon: Option<Cycle> = None;
        for s in &self.rob {
            if let Some(d) = s.done {
                if d > now {
                    horizon = Some(horizon.map_or(d, |h: Cycle| h.min(d)));
                }
            }
        }
        if self.tick_refusals > 0 {
            // A blocked op re-requests speculation every cycle; the
            // suppression counter grants it after `k` more refusals.
            if let Some(k) = self.engine.refusal_horizon() {
                let at = now.after(k.saturating_add(1));
                horizon = Some(horizon.map_or(at, |h| h.min(at)));
            }
        }
        horizon
    }

    /// Replays this cycle's waiting-side-effects over `gap` skipped
    /// quiescent cycles: accounting buckets, head-blocked attribution,
    /// store-buffer occupancy samples, engine refusals/extensions, and the
    /// store-drain stall counter. Must only be called right after a tick
    /// that reported no progress.
    pub fn skip_idle(&mut self, now: Cycle, gap: u64) {
        if self.done_at.is_some() || gap == 0 {
            return;
        }
        self.account_n(now, 0, gap);
        self.sb_occ_hist.record_n(self.sb.len() as u64, gap);
        if self.tick_refusals > 0 {
            debug_assert_eq!(self.tick_refusals, 1, "one refusal ends the issue attempt");
            self.engine.skip_idle_refusals(gap);
        }
        if self.tick_ext_grants > 0 {
            self.engine
                .skip_idle_extensions(u64::from(self.tick_ext_grants).saturating_mul(gap));
        }
        if self.tick_sb_drain_stall {
            self.acct.bump_by("core.sb_drain_mshr_stalls", gap);
        }
    }

    fn process_completions<M: MemBackend>(
        &mut self,
        now: Cycle,
        l1: &mut L1Controller,
        fabric: &mut Fabric<CoherenceMsg>,
        mem: &mut M,
    ) {
        let mut completions = std::mem::take(&mut self.completions);
        l1.take_completions(&mut completions);
        if !completions.is_empty() {
            self.tick_progress = true;
        }
        // A completion that matches no ROB slot and no store-buffer entry
        // belonged to an op a rollback discarded: it is dropped.
        for c in completions.drain(..) {
            if let Some(idx) = self.rob.iter().position(|s| s.req == Some(c.req)) {
                let (op, spec) = (self.rob[idx].op, self.rob[idx].spec);
                let value = match op {
                    Op::Load { addr, .. } => self.resolve_value(addr, mem),
                    Op::Rmw { addr, rmw, .. } => {
                        let old = self.resolve_value(addr, mem);
                        let new = rmw.apply(old);
                        if spec {
                            self.overlay.write(addr, new);
                        } else {
                            mem.write(addr, new);
                        }
                        old
                    }
                    _ => 0,
                };
                // An RMW pays the configured atomic penalty on top of its
                // fill, tiered by where the line came from (Schweizer-style
                // near/far costs). The functional write above still lands
                // at fill time — global serialization order is unchanged;
                // only this core's pipeline sees the extra latency.
                let extra = if matches!(op, Op::Rmw { .. }) {
                    self.rmw_penalty(c.class)
                } else {
                    0
                };
                let slot = &mut self.rob[idx];
                slot.done = Some(now.after(extra));
                slot.value = Some(value);
                slot.class = Some(c.class);
                if spec {
                    let mark = if matches!(op, Op::Rmw { .. }) {
                        SpecMark::Write
                    } else {
                        SpecMark::Read
                    };
                    let block = self.geometry.block_of(op.addr().expect("mem op"));
                    if !l1.mark_spec(now, mark, block, fabric) {
                        // Line vanished between fill and mark: conservative
                        // violation. Keep processing the remaining
                        // completions — pre-epoch ops must still finish.
                        self.acct.bump("core.mark_miss_violations");
                        if self.engine.on_violation(now) {
                            self.rollback(now, l1, fabric);
                        }
                    }
                }
            } else if let Some(pos) = self.sb.iter().position(|e| e.req == Some(c.req)) {
                // Store drain completed: it must be the SB head.
                debug_assert_eq!(pos, 0, "stores drain in order");
                let entry = self.sb.remove(pos).expect("position found");
                if entry.spec {
                    self.overlay.write(entry.addr, entry.value);
                    let block = self.geometry.block_of(entry.addr);
                    if !l1.mark_spec(now, SpecMark::Write, block, fabric) {
                        self.acct.bump("core.mark_miss_violations");
                        if self.engine.on_violation(now) {
                            self.rollback(now, l1, fabric);
                        }
                    }
                } else {
                    mem.write(entry.addr, entry.value);
                }
            }
        }
        self.completions = completions;
    }

    fn process_violations(
        &mut self,
        now: Cycle,
        l1: &mut L1Controller,
        fabric: &mut Fabric<CoherenceMsg>,
    ) {
        let violations = l1.take_violations();
        if violations.is_empty() {
            return;
        }
        self.tick_progress = true;
        if self.engine.on_violation(now) {
            self.rollback(now, l1, fabric);
        }
    }

    fn try_commit<M: MemBackend>(&mut self, now: Cycle, l1: &mut L1Controller, mem: &mut M) {
        if !self.engine.speculating() {
            return;
        }
        let (rob, sb) = (&self.rob, &self.sb);
        if self
            .engine
            .try_commit(now, &mut |c| Self::holds(rob, sb, now, c))
        {
            self.tick_progress = true;
            self.retired_ops += std::mem::take(&mut self.spec_retired_pending);
            l1.commit_spec();
            self.overlay.flush_into(mem);
            for e in &mut self.sb {
                e.spec = false;
            }
            for s in &mut self.rob {
                s.spec = false;
            }
            self.checkpoint = None;
        }
    }

    /// Retires completed ops from the ROB head; returns how many.
    fn retire<M: MemBackend>(&mut self, now: Cycle, _mem: &mut M) -> usize {
        let mut retired = 0;
        while retired < self.width {
            let Some(head) = self.rob.front() else { break };
            if matches!(head.op, Op::Store { .. }) && head.done.is_none() {
                // Store retires by moving into the store buffer.
                if self.sb.len() >= self.sb_cap {
                    self.block = TickBlock::Stall(StallKind::SbFull, head.op.tag());
                    break;
                }
                if head.spec && !self.engine.note_spec_store() {
                    // Capacity overflow: the epoch cannot grow, and waiting
                    // would deadlock (the commit may require this very
                    // store to drain). Abort the epoch like a violation.
                    self.block = TickBlock::SpecCap;
                    self.overflow_abort = true;
                    break;
                }
                let head = self.rob.pop_front().expect("peeked");
                self.attribute_wait(&head);
                let Op::Store { addr, value, tag } = head.op else {
                    unreachable!()
                };
                self.sb.push_back(SbEntry {
                    seq: head.seq,
                    addr,
                    value,
                    tag,
                    spec: head.spec,
                    req: None,
                });
                self.acct.bump("ops.store");
                if self.sb.back().is_some_and(|e| e.spec) {
                    self.spec_retired_pending += 1;
                } else {
                    self.retired_ops += 1;
                }
                retired += 1;
                continue;
            }
            if !head.complete(now) {
                break;
            }
            let head = self.rob.pop_front().expect("peeked");
            self.attribute_wait(&head);
            self.acct.bump(match head.op {
                Op::Compute(_) => "ops.compute",
                Op::Load { .. } => "ops.load",
                Op::Store { .. } => "ops.store",
                Op::Fence(_) => "ops.fence",
                Op::Rmw { .. } => "ops.rmw",
            });
            if head.op.consumes() {
                self.pending_value = head.value.or(Some(0));
                if self.awaiting == Some(head.seq) {
                    self.awaiting = None;
                }
            }
            if self.clear_backoff_on == Some(head.seq) {
                self.clear_backoff_on = None;
                self.engine.backoff_cleared();
            }
            if head.spec {
                self.spec_retired_pending += 1;
            } else {
                self.retired_ops += 1;
            }
            retired += 1;
        }
        retired
    }

    fn fetch_and_issue(
        &mut self,
        now: Cycle,
        l1: &mut L1Controller,
        fabric: &mut Fabric<CoherenceMsg>,
    ) {
        for _ in 0..self.width {
            if self.staged.is_none() {
                if self.awaiting.is_some() || self.fetch_done {
                    break;
                }
                match self.program.next_op(self.pending_value.take()) {
                    Some(op) => {
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.staged = Some((seq, op));
                        self.tick_progress = true;
                    }
                    None => {
                        self.fetch_done = true;
                        self.tick_progress = true;
                        break;
                    }
                }
            }
            if !self.try_issue_staged(now, l1, fabric) {
                break;
            }
            self.tick_progress = true;
        }
    }

    /// Attempts to issue the staged op. Returns `true` if it issued.
    fn try_issue_staged(
        &mut self,
        now: Cycle,
        l1: &mut L1Controller,
        fabric: &mut Fabric<CoherenceMsg>,
    ) -> bool {
        let (seq, op) = self.staged.expect("staged op present");
        if self.rob.len() >= self.rob_cap {
            self.block = TickBlock::RobFull;
            return false;
        }
        let speculating = self.engine.speculating();

        match op {
            Op::Compute(c) => {
                self.push_slot(seq, op, Some(now.after(c)), speculating, None);
                true
            }
            Op::Store { .. } => {
                // Stores always enter the ROB; ordering is enforced at
                // retirement (in-order SB entry).
                self.push_slot(seq, op, None, speculating, None);
                true
            }
            Op::Fence(kind) => {
                if !self.model.honors_fence(kind) {
                    self.push_slot(seq, op, Some(now), speculating, None);
                    return true;
                }
                let conds: &[DrainCond] = match kind {
                    FenceKind::Full => &[
                        DrainCond::NoLoadsBefore(seq),
                        DrainCond::NoStoresBefore(seq),
                    ],
                    // Acquire and (simplified) Release both wait on older
                    // loads; stores are already ordered by the in-order
                    // store buffer.
                    FenceKind::Acquire | FenceKind::Release => &[DrainCond::NoLoadsBefore(seq)],
                };
                if conds.iter().all(|c| self.cond_holds(now, c)) {
                    // An honored fence pays its configured execution
                    // latency (serialization cost over and above waiting
                    // for the drain conditions). Speculated-past fences
                    // stay free: speculation exists to elide fence cost.
                    let done = Some(now.after(self.fence_latency(kind)));
                    self.push_slot(seq, op, done, speculating, None);
                    return true;
                }
                if self.request_spec(now, seq, op, conds) {
                    self.push_slot(seq, op, Some(now), true, None);
                    return true;
                }
                self.block = TickBlock::Stall(StallKind::Fence, op.tag());
                false
            }
            Op::Load { addr, tag, .. } => {
                let ordering_ok = match self.model {
                    ConsistencyModel::Sc => {
                        self.cond_holds(now, &DrainCond::NoLoadsBefore(seq))
                            && self.cond_holds(now, &DrainCond::NoStoresBefore(seq))
                    }
                    ConsistencyModel::Tso => self.older_incomplete_rmw(now, seq).is_none(),
                    ConsistencyModel::Rmo => true,
                };
                let mut spec = speculating;
                if !ordering_ok {
                    let conds: &[DrainCond] = match self.model {
                        ConsistencyModel::Sc => &[
                            DrainCond::NoLoadsBefore(seq),
                            DrainCond::NoStoresBefore(seq),
                        ],
                        ConsistencyModel::Tso => &[DrainCond::OpDone(
                            self.older_incomplete_rmw(now, seq)
                                .expect("rule failed on rmw"),
                        )],
                        ConsistencyModel::Rmo => unreachable!("RMO loads never stall on ordering"),
                    };
                    if !self.request_spec(now, seq, op, conds) {
                        let kind = if self.model == ConsistencyModel::Sc {
                            StallKind::ScOrder
                        } else {
                            StallKind::Atomic
                        };
                        self.block = TickBlock::Stall(kind, tag);
                        return false;
                    }
                    spec = true;
                }
                // Same-core same-address ordering: forward from older ROB
                // stores, wait on older in-flight atomics (their value is
                // not known yet), then fall back to store-buffer forwarding.
                match self.same_addr_hazard(now, seq, addr) {
                    SameAddrHazard::Forward(v) => {
                        let done = Some(now.after(self.hit_latency));
                        let idx = self.push_slot(seq, op, done, spec, None);
                        self.rob[idx].value = Some(v);
                        self.rob[idx].class = Some(FillClass::L1Hit);
                        return true;
                    }
                    SameAddrHazard::Wait => {
                        self.block = TickBlock::SameAddrDep;
                        return false;
                    }
                    SameAddrHazard::Clear => {}
                }
                // Store-buffer forwarding (same word).
                if let Some(v) = self
                    .sb
                    .iter()
                    .rev()
                    .find(|e| e.addr == addr)
                    .map(|e| e.value)
                {
                    let done = Some(now.after(self.hit_latency));
                    let idx = self.push_slot(seq, op, done, spec, None);
                    self.rob[idx].value = Some(v);
                    self.rob[idx].class = Some(FillClass::L1Hit);
                    return true;
                }
                let req = self.fresh_req();
                match l1.request(
                    now,
                    req,
                    AccessKind::Read,
                    self.geometry.block_of(addr),
                    fabric,
                ) {
                    Ok(()) => {
                        self.push_slot(seq, op, None, spec, Some(req));
                        true
                    }
                    Err(RequestError::MshrFull) => {
                        self.block = TickBlock::MshrFull;
                        false
                    }
                }
            }
            Op::Rmw { addr, tag, .. } => {
                let ordering_ok = match self.model {
                    ConsistencyModel::Sc | ConsistencyModel::Tso => {
                        self.cond_holds(now, &DrainCond::NoLoadsBefore(seq))
                            && self.cond_holds(now, &DrainCond::NoStoresBefore(seq))
                    }
                    ConsistencyModel::Rmo => true,
                };
                let mut spec = speculating;
                if !ordering_ok {
                    let conds = [
                        DrainCond::NoLoadsBefore(seq),
                        DrainCond::NoStoresBefore(seq),
                    ];
                    if !self.request_spec(now, seq, op, &conds) {
                        let kind = if self.model == ConsistencyModel::Sc {
                            StallKind::ScOrder
                        } else {
                            StallKind::Atomic
                        };
                        self.block = TickBlock::Stall(kind, tag);
                        return false;
                    }
                    spec = true;
                }
                if self.rmw_same_addr_blocked(now, seq, addr) {
                    self.block = TickBlock::SameAddrDep;
                    return false;
                }
                let req = self.fresh_req();
                match l1.request(
                    now,
                    req,
                    AccessKind::Write,
                    self.geometry.block_of(addr),
                    fabric,
                ) {
                    Ok(()) => {
                        self.push_slot(seq, op, None, spec, Some(req));
                        true
                    }
                    Err(RequestError::MshrFull) => {
                        self.block = TickBlock::MshrFull;
                        false
                    }
                }
            }
        }
    }

    /// Extra completion cycles for an RMW whose fill was serviced by
    /// `class` — the [`AtomicsConfig`] near/far cost tiers.
    fn rmw_penalty(&self, class: FillClass) -> u64 {
        match class {
            FillClass::L1Hit => self.atomics.rmw_l1,
            FillClass::L2Hit | FillClass::Coherence => self.atomics.rmw_same_socket,
            FillClass::DramCold | FillClass::DramCapacity => self.atomics.rmw_cross_socket,
        }
    }

    /// Execution latency of an honored fence of `kind`.
    fn fence_latency(&self, kind: FenceKind) -> u64 {
        match kind {
            FenceKind::Full => self.atomics.fence_full,
            FenceKind::Acquire | FenceKind::Release => self.atomics.fence_oneway,
        }
    }

    /// Asks the engine to bypass an ordering stall; opens the checkpoint if
    /// this starts a new epoch.
    fn request_spec(&mut self, now: Cycle, seq: u64, op: Op, conds: &[DrainCond]) -> bool {
        let was_speculating = self.engine.speculating();
        let Some((&first, rest)) = conds.split_first() else {
            return false;
        };
        if !self.engine.request_speculation(now, seq, first) {
            self.tick_refusals += 1;
            return false;
        }
        if was_speculating {
            self.tick_ext_grants += 1;
        } else {
            // A new epoch opened: engine state changed, so this cycle can
            // never be skipped.
            self.tick_progress = true;
        }
        for &c in rest {
            if !self.engine.request_speculation(now, seq, c) {
                // Cap refusal mid-way: stay conservative and stall. The
                // already-added condition is harmless (it only delays
                // commit).
                self.tick_refusals += 1;
                return false;
            }
            if was_speculating {
                self.tick_ext_grants += 1;
            }
        }
        if !was_speculating {
            self.checkpoint = Some(Checkpoint {
                program: self.program.snapshot(),
                replay_op: op,
                start_seq: seq,
            });
        }
        true
    }

    fn push_slot(
        &mut self,
        seq: u64,
        op: Op,
        done: Option<Cycle>,
        spec: bool,
        req: Option<ReqId>,
    ) -> usize {
        self.rob.push_back(Slot {
            seq,
            op,
            done,
            spec,
            value: None,
            waited: 0,
            class: None,
            req,
        });
        self.staged = None;
        if op.consumes() {
            self.awaiting = Some(seq);
        }
        if self.engine.speculating() {
            self.engine.note_spec_op();
        }
        self.rob.len() - 1
    }

    fn drain_sb(&mut self, now: Cycle, l1: &mut L1Controller, fabric: &mut Fabric<CoherenceMsg>) {
        let Some(head) = self.sb.front_mut() else {
            return;
        };
        if head.req.is_some() {
            return; // drain in flight
        }
        let req = ReqId(self.next_req);
        let block = self.geometry.block_of(head.addr);
        match l1.request(now, req, AccessKind::Write, block, fabric) {
            Ok(()) => {
                self.next_req += 1;
                head.req = Some(req);
                self.tick_progress = true;
            }
            Err(RequestError::MshrFull) => {
                // Retry next cycle.
                self.tick_sb_drain_stall = true;
                self.acct.bump("core.sb_drain_mshr_stalls");
            }
        }
    }

    fn rollback(&mut self, now: Cycle, l1: &mut L1Controller, fabric: &mut Fabric<CoherenceMsg>) {
        self.tick_progress = true;
        let cp = self
            .checkpoint
            .take()
            .expect("engine reported an active epoch without a checkpoint");
        let start = cp.start_seq;

        // Discard speculative ROB slots and store-buffer entries. The
        // completions of their in-flight requests then match nothing and
        // are dropped.
        self.rob.retain(|s| s.seq < start);
        self.sb.retain(|e| e.seq < start);

        self.spec_retired_pending = 0;
        l1.rollback_spec(now, fabric);
        self.overlay.clear();

        // Restore the program and stage the speculation point for
        // non-speculative re-execution (backoff).
        self.program = cp.program;
        self.fetch_done = false;
        self.awaiting = None;
        self.pending_value = None;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.staged = Some((seq, cp.replay_op));
        self.clear_backoff_on = Some(seq);
        self.acct.bump("core.rollbacks");
        self.tracer.instant(
            now,
            u32::from(self.id.0),
            TraceCategory::Spec,
            "spec.rollback",
            start,
        );
    }

    fn finish_check<M: MemBackend>(&mut self, now: Cycle, l1: &mut L1Controller, mem: &mut M) {
        if self.done_at.is_some() {
            return;
        }
        let drained =
            self.fetch_done && self.staged.is_none() && self.rob.is_empty() && self.sb.is_empty();
        if !drained {
            return;
        }
        if self.engine.speculating() {
            // Final commit: everything has drained, so the epoch's
            // conditions hold vacuously (continuous mode may still be
            // holding out for its interval).
            l1.commit_spec();
            self.overlay.flush_into(mem);
            self.checkpoint = None;
            self.engine.drain_at_end();
        }
        self.retired_ops += std::mem::take(&mut self.spec_retired_pending);
        self.done_at = Some(now);
        self.tick_progress = true;
    }

    /// Charges a popped slot's accumulated head-blocked cycles to its
    /// memory bucket.
    fn attribute_wait(&mut self, slot: &Slot) {
        if slot.waited == 0 {
            return;
        }
        let bucket = slot
            .class
            .map(|c| account::mem_bucket(slot.op.tag(), c))
            .unwrap_or(account::MEM_UNRESOLVED);
        self.acct.bump_by(bucket, slot.waited);
    }

    /// Flushes attribution for slots still in flight when a run is cut off
    /// at its cycle limit. Call once at end of simulation.
    pub fn flush_accounting(&mut self) {
        let pending: u64 = self.rob.iter().map(|s| s.waited).sum();
        if pending > 0 {
            self.acct.bump_by(account::MEM_UNRESOLVED, pending);
            for s in &mut self.rob {
                s.waited = 0;
            }
        }
    }

    /// Extends or closes the current consistency-stall trace span by `n`
    /// cycles (more than one when `skip_idle` replays a slept gap). A
    /// stall span covers consecutive cycles blocked on the same
    /// [`StallKind`]; it is emitted when the kind changes.
    fn trace_stall(&mut self, now: Cycle, current: Option<StallKind>, n: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        match (self.stall_run, current) {
            (Some((kind, run)), Some(cur)) if kind == cur => {
                self.stall_run = Some((kind, run + n));
            }
            (open, cur) => {
                if let Some((kind, run)) = open {
                    let name = match kind {
                        StallKind::Fence => "stall.fence",
                        StallKind::ScOrder => "stall.sc_order",
                        StallKind::Atomic => "stall.atomic",
                        StallKind::SbFull => "stall.sb_full",
                    };
                    self.tracer.span(
                        now,
                        run,
                        u32::from(self.id.0),
                        TraceCategory::Fence,
                        name,
                        0,
                    );
                }
                self.stall_run = cur.map(|kind| (kind, n));
            }
        }
    }

    fn account(&mut self, now: Cycle, retired: usize) {
        self.account_n(now, retired, 1);
    }

    /// Cycle accounting, charged `n` times. `n == 1` is the normal per-tick
    /// path; fast-forward replays a quiescent cycle's attribution over the
    /// whole skipped gap with `n == gap` (the block/ROB/SB state it reads
    /// is provably constant across the gap).
    fn account_n(&mut self, now: Cycle, retired: usize, n: u64) {
        let stall = match self.block {
            TickBlock::Stall(kind, _) if retired == 0 => Some(kind),
            _ => None,
        };
        self.trace_stall(now, stall, n);
        if retired > 0 {
            self.acct.bump_by(account::BUSY, n);
            return;
        }
        let fallback = match self.block {
            TickBlock::Stall(kind, tag) => {
                self.acct.bump_by(account::stall_bucket(kind, tag), n);
                return;
            }
            TickBlock::SpecCap => {
                self.acct.bump_by(account::SPEC_CAP, n);
                return;
            }
            TickBlock::SameAddrDep => {
                self.acct.bump_by(account::SAME_ADDR_DEP, n);
                return;
            }
            // Capacity hazards (full ROB / MSHRs) are symptoms of waiting
            // on in-flight memory: attribute to the blocking ROB head when
            // one exists, so memory-bound phases read as memory-bound.
            TickBlock::RobFull => Some(account::ROB_FULL),
            TickBlock::MshrFull => Some(account::MSHR_FULL),
            TickBlock::None => None,
        };
        // Nothing issued or retired: the ROB head (or the SB drain) is the
        // bottleneck.
        if let Some(head) = self.rob.front_mut() {
            match head.op {
                Op::Compute(_) => self.acct.bump_by(account::COMPUTE, n),
                Op::Load { .. } | Op::Rmw { .. } | Op::Store { .. } => {
                    head.waited += n;
                }
                // A fence still counting down its execution latency is a
                // fence stall; a fence blocked for any other reason (e.g.
                // ROB-head bookkeeping on the retire edge) keeps the
                // legacy attribution so zero-latency runs are unchanged.
                Op::Fence(_) if !head.complete(now) => self.acct.bump_by(account::FENCE_EXEC, n),
                Op::Fence(_) => self.acct.bump_by(account::OTHER, n),
            }
            return;
        }
        if let Some(bucket) = fallback {
            self.acct.bump_by(bucket, n);
            return;
        }
        if !self.sb.is_empty() {
            // Only the store buffer is busy (post-program drain).
            let tag = self.sb.front().map(|e| e.tag).unwrap_or(MemTag::Data);
            self.acct
                .bump_by(account::stall_bucket(StallKind::SbFull, tag), n);
            return;
        }
        if self.done_at.is_some() || self.fetch_done {
            self.acct.bump_by(account::IDLE_DONE, n);
        } else {
            self.acct.bump_by(account::OTHER, n);
        }
    }

    /// Resolves the architectural value of `addr` as seen by this core:
    /// store buffer first, then the speculative overlay, then memory.
    fn resolve_value<M: MemBackend>(&self, addr: Addr, mem: &M) -> u64 {
        if let Some(e) = self.sb.iter().rev().find(|e| e.addr == addr) {
            return e.value;
        }
        if let Some(v) = self.overlay.read(addr) {
            return v;
        }
        mem.read(addr)
    }
}
