//! Deterministic wake-time tracking for the component-granular scheduler:
//! a bucketed timing wheel with a binary-heap overflow.
//!
//! [`WakeWheel`] maps a small, fixed population of components (fabric,
//! directory banks, core complexes) to the next cycle each is due to tick.
//! Near-term wakes (within `SLOTS` cycles of the wheel's base) land in a
//! circular slot array; far wakes (long DRAM round-trips, adaptive-backoff
//! countdowns) go to a min-heap so an empty window is skipped in O(log n)
//! instead of cycle-by-cycle.
//!
//! Determinism contract:
//!
//! * **Authoritative array.** `wake[comp]` is the single source of truth;
//!   slot and heap entries are hints, validated lazily (`entry.cycle ==
//!   wake[comp]`) and discarded when stale. Rescheduling never searches.
//! * **Tie-break by component index.** [`take_due`](WakeWheel::take_due)
//!   returns every component due at `t` sorted by its fixed index, so
//!   simultaneous wakes always tick in the machine's canonical order
//!   (fabric → directory banks → core complexes) and runs stay
//!   bit-for-bit reproducible.
//! * **Monotonicity.** Wake times are only ever set at or after the
//!   wheel's base (the last drained cycle); the debug build asserts it.
//!
//! `WakeLoop` is the scheduler built on the wheel. It is the one run loop
//! behind both [`SchedMode::ComponentWake`](crate::SchedMode::ComponentWake),
//! which drives it over the whole machine, and
//! [`SchedMode::ParallelEpoch`](crate::SchedMode::ParallelEpoch), whose
//! workers each drive one over their shard, a window at a time.

/// Slots in the near-term window. Covers L1 hit latencies, NoC hops and
/// directory latencies without touching the heap; anything longer (DRAM)
/// overflows. Must be a power of two so the modulo is a mask.
const SLOTS: usize = 64;

/// Sentinel wake time for a parked component (no self-scheduled work).
pub const NEVER: u64 = u64::MAX;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tenways_coherence::{DirectoryBank, L1Controller, Msg};
use tenways_noc::Fabric;
use tenways_sim::{Cycle, NodeId};

use crate::archmem::MemBackend;
use crate::core::Core;

/// A bucketed timing wheel over a fixed set of component indices.
#[derive(Debug)]
pub struct WakeWheel {
    /// Authoritative next-wake cycle per component (`NEVER` = parked).
    wake: Vec<u64>,
    /// Near-term buckets: entries `(cycle, comp)` with `cycle` in
    /// `[base, base + SLOTS)` live in `slots[cycle % SLOTS]`.
    slots: Vec<Vec<(u64, u32)>>,
    /// Far wakes, min-ordered by `(cycle, comp)`.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Earliest cycle representable in the slot window; advanced by
    /// [`take_due`](Self::take_due).
    base: u64,
}

impl WakeWheel {
    /// A wheel for `comps` components, all initially due at `first` (the
    /// first simulated cycle: every component ticks once before any can
    /// prove itself idle).
    pub fn new(comps: usize, first: u64) -> Self {
        let mut wheel = WakeWheel {
            wake: vec![NEVER; comps],
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            base: first,
        };
        for comp in 0..comps as u32 {
            wheel.set(comp, first);
        }
        wheel
    }

    /// The authoritative wake time of `comp` (`NEVER` when parked).
    pub fn wake_of(&self, comp: u32) -> u64 {
        self.wake[comp as usize]
    }

    /// Schedules (or reschedules) `comp` to wake at `at`. A previous
    /// pending entry is not searched for — it goes stale and is discarded
    /// when encountered.
    pub fn set(&mut self, comp: u32, at: u64) {
        debug_assert!(at >= self.base, "wake {at} before wheel base {}", self.base);
        self.wake[comp as usize] = at;
        if at == NEVER {
            return;
        }
        if at - self.base < SLOTS as u64 {
            self.slots[(at % SLOTS as u64) as usize].push((at, comp));
        } else {
            self.overflow.push(Reverse((at, comp)));
        }
    }

    /// Parks `comp`: no self-scheduled wake until [`set`](Self::set) again.
    pub fn park(&mut self, comp: u32) {
        self.wake[comp as usize] = NEVER;
    }

    /// Earliest cycle at which any component is due, or `None` when every
    /// component is parked. Ring-scans the window outward from `base` and
    /// stops at the first hit; stale entries are dropped as they surface.
    pub fn next_due(&mut self) -> Option<u64> {
        // Purge stale overflow tops so the heap min is a real wake.
        while let Some(&Reverse((cy, comp))) = self.overflow.peek() {
            if self.wake[comp as usize] == cy {
                break;
            }
            self.overflow.pop();
        }
        let heap_best = self.overflow.peek().map_or(NEVER, |&Reverse((cy, _))| cy);
        // A valid slot entry always satisfies `cy in [base, base+SLOTS)`
        // (pushes honour the window and `base` only grows), and slot
        // `cy % SLOTS` holds exactly one in-window cycle — so the slot at
        // ring offset `k` can only hold valid entries for `base + k`, and
        // the first non-empty slot in ring order is the window minimum.
        // In the common dense case (everything due next cycle) this probes
        // one or two slots instead of all of them.
        let wake = &self.wake;
        for k in 0..SLOTS as u64 {
            let cy = self.base + k;
            if cy >= heap_best {
                break;
            }
            let slot = &mut self.slots[(cy % SLOTS as u64) as usize];
            if slot.is_empty() {
                continue;
            }
            slot.retain(|&(c, comp)| c == cy && wake[comp as usize] == c);
            if !slot.is_empty() {
                return Some(cy);
            }
        }
        (heap_best != NEVER).then_some(heap_best)
    }

    /// Collects every component due exactly at `t` into `out`, sorted by
    /// component index (the deterministic tie-break) and deduplicated,
    /// then advances the window base to `t`. Components stay scheduled in
    /// `wake` until the caller re-[`set`](Self::set)s or
    /// [`park`](Self::park)s them after ticking.
    ///
    /// `t` must be the value returned by [`next_due`](Self::next_due) (no
    /// due component may be skipped past).
    pub fn take_due(&mut self, t: u64, out: &mut Vec<u32>) {
        debug_assert!(t >= self.base, "due cycle {t} before base {}", self.base);
        out.clear();
        let wake = &self.wake;
        let slot = &mut self.slots[(t % SLOTS as u64) as usize];
        slot.retain(|&(cy, comp)| {
            if cy == t && wake[comp as usize] == t {
                out.push(comp);
            }
            cy != t && wake[comp as usize] == cy
        });
        while let Some(&Reverse((cy, comp))) = self.overflow.peek() {
            if cy > t {
                break;
            }
            self.overflow.pop();
            if self.wake[comp as usize] == cy {
                debug_assert_eq!(cy, t, "overflow wake {cy} skipped past {t}");
                out.push(comp);
            }
        }
        out.sort_unstable();
        out.dedup();
        self.base = t;
    }
}

/// Wake-loop component index of the fabric (or a shard's fabric view).
const FABRIC_COMP: u32 = 0;

/// `comp_of_node` entry for a fabric node another shard owns.
const FOREIGN: u32 = u32::MAX;

/// The scheduling units one [`WakeLoop`] drives: the whole machine, or
/// one epoch shard's fabric view with the banks and core complexes it
/// owns. `l1s[i]` and `cores[i]` form one complex.
pub(crate) struct Units<'a> {
    pub(crate) fabric: &'a mut Fabric<Msg>,
    pub(crate) dirs: &'a mut [DirectoryBank],
    pub(crate) l1s: &'a mut [L1Controller],
    pub(crate) cores: &'a mut [Core],
}

/// The component-granular wake scheduler. Its components are the fabric
/// (0), then the directory banks, then the core complexes (L1 + core,
/// fused because they exchange state within a cycle), each in ascending
/// global order — the order naive stepping ticks them in.
#[derive(Debug)]
pub(crate) struct WakeLoop {
    wheel: WakeWheel,
    /// Cycle of each component's most recent real tick: the replay basis
    /// for the gap behind a wake.
    last_tick: Vec<Cycle>,
    /// Global fabric node → component (`FOREIGN` for other shards' nodes).
    comp_of_node: Vec<u32>,
    due: Vec<u32>,
    woken: Vec<NodeId>,
    /// The last cycle processed (the start cycle before the first).
    now: Cycle,
}

impl WakeLoop {
    /// A loop over the directory banks `dir_ids` and core complexes
    /// `core_ids` (global indices, ascending) of a machine with `n_cores`
    /// cores and `nodes` fabric nodes, whose first cycle is `start + 1`.
    /// Every component ticks that cycle: idleness is only ever proven by
    /// a real tick that reports no progress.
    pub(crate) fn new(
        start: Cycle,
        n_cores: usize,
        nodes: usize,
        dir_ids: impl IntoIterator<Item = usize>,
        core_ids: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut comp_of_node = vec![FOREIGN; nodes];
        let mut n_comps = 1;
        for b in dir_ids {
            comp_of_node[n_cores + b] = n_comps;
            n_comps += 1;
        }
        for c in core_ids {
            comp_of_node[c] = n_comps;
            n_comps += 1;
        }
        let n_comps = n_comps as usize;
        WakeLoop {
            wheel: WakeWheel::new(n_comps, start.as_u64() + 1),
            last_tick: vec![start; n_comps],
            comp_of_node,
            due: Vec::with_capacity(n_comps),
            woken: Vec::new(),
            now: start,
        }
    }

    /// Processes every due event through cycle `hi`. Each cycle with due
    /// work ticks exactly the due components, in the canonical fabric →
    /// directory banks → core complexes order, and puts each back to
    /// sleep until its own next event. A component woken after a gap
    /// first replays the stat-only effects of the no-progress ticks it
    /// slept through (`skip_idle`), so results stay bit-for-bit those of
    /// naive stepping.
    ///
    /// Returns `None` once nothing more is due by `hi`. With
    /// `stop_on_done` it stops earlier, as soon as every core in `u` is
    /// done, and returns the last cycle processed.
    pub(crate) fn run<M: MemBackend>(
        &mut self,
        u: &mut Units<'_>,
        mem: &mut M,
        hi: u64,
        stop_on_done: bool,
    ) -> Option<Cycle> {
        let n_dirs = u.dirs.len();
        loop {
            if stop_on_done && u.cores.iter().all(Core::is_done) {
                return Some(self.now);
            }
            let t = match self.wheel.next_due() {
                Some(at) if at <= hi => Cycle::new(at),
                _ => return None,
            };
            self.now = t;
            self.wheel.take_due(t.as_u64(), &mut self.due);

            // The fabric ticks first (component 0 sorts first). Its
            // deliveries this cycle wake the owning components *this*
            // cycle — in naive stepping they would drain their inboxes in
            // the same cycle the fabric filled them.
            if self.due.first() == Some(&FABRIC_COMP) {
                let basis = self.last_tick[0];
                let gap = t.as_u64() - 1 - basis.as_u64();
                if gap > 0 {
                    u.fabric.skip_idle(basis, gap);
                }
                self.woken.clear();
                u.fabric.tick_observed(t, &mut self.woken);
                self.last_tick[0] = t;
                let mut grew = false;
                for &dst in &self.woken {
                    let comp = self.comp_of_node[dst.index()];
                    debug_assert_ne!(comp, FOREIGN, "delivery to a foreign node");
                    if self.wheel.wake_of(comp) != t.as_u64() {
                        self.due.push(comp);
                        grew = true;
                    }
                }
                if grew {
                    self.due[1..].sort_unstable();
                    self.due.dedup();
                }
            }

            for &comp in &self.due {
                let comp = comp as usize;
                if comp == FABRIC_COMP as usize {
                    continue;
                }
                let basis = self.last_tick[comp];
                let gap = t.as_u64() - 1 - basis.as_u64();
                self.last_tick[comp] = t;
                let at = if comp <= n_dirs {
                    // Directory bank: an idle bank tick mutates nothing
                    // (see `DirectoryBank::next_event`), so slept cycles
                    // need no replay.
                    let dir = &mut u.dirs[comp - 1];
                    if dir.tick(t, u.fabric) {
                        t.as_u64() + 1
                    } else {
                        dir.next_event(t).map_or(NEVER, Cycle::as_u64)
                    }
                } else {
                    // Core complex: L1 then core, the per-cycle order of
                    // naive stepping.
                    let c = comp - 1 - n_dirs;
                    let (l1, core) = (&mut u.l1s[c], &mut u.cores[c]);
                    if gap > 0 {
                        l1.skip_idle(basis, gap);
                        core.skip_idle(basis, gap);
                    }
                    let mut progress = l1.tick(t, u.fabric);
                    progress |= core.tick(t, l1, u.fabric, mem);
                    // Core-driven requests land in the L1 after its own
                    // tick; a failed request can still consume one-shot
                    // state (e.g. clear a prefetched bit), which makes
                    // this cycle non-repeatable.
                    progress |= l1.took_one_time_fx();
                    if progress {
                        t.as_u64() + 1
                    } else {
                        let l1_at = l1.next_event(t).map_or(NEVER, Cycle::as_u64);
                        l1_at.min(core.next_event(t).map_or(NEVER, Cycle::as_u64))
                    }
                };
                self.wheel.set(comp as u32, at);
            }

            // Any component may have handed the fabric a message this
            // cycle (`pending_inject > 0` ⇒ `next_event` = t+1), so the
            // fabric's wake is recomputed unconditionally — O(1) with the
            // cached delivery minimum.
            let at = u.fabric.next_event(t).map_or(NEVER, Cycle::as_u64);
            self.wheel.set(FABRIC_COMP, at);
        }
    }

    /// Replays the stat-only effects of the cycles each component slept
    /// through between its last real tick and `fin`, the run's final
    /// cycle, so totals match naive stepping, which ticks everything up
    /// to it. Directory banks need no replay.
    pub(crate) fn replay_tail(&self, u: &mut Units<'_>, fin: Cycle) {
        let gap = fin - self.last_tick[0];
        if gap > 0 {
            u.fabric.skip_idle(self.last_tick[0], gap);
        }
        let complexes = u.l1s.iter_mut().zip(u.cores.iter_mut());
        for ((l1, core), &basis) in complexes.zip(&self.last_tick[1 + u.dirs.len()..]) {
            let gap = fin - basis;
            if gap > 0 {
                l1.skip_idle(basis, gap);
                core.skip_idle(basis, gap);
            }
        }
    }

    /// The next cycle any component is due (`NEVER` when all are parked).
    pub(crate) fn next_due(&mut self) -> u64 {
        self.wheel.next_due().unwrap_or(NEVER)
    }

    /// Re-reads the fabric's wake after messages were absorbed into it
    /// ahead of the window starting at `lo`: they may be due before the
    /// wake cached at its last tick (the stale-min hazard pinned in
    /// tenways-noc's tests). Every absorbed delivery is at or after `lo`,
    /// so the new wake never lands behind the wheel's base.
    pub(crate) fn rewake_fabric(&mut self, fabric: &Fabric<Msg>, lo: u64) {
        let at = fabric
            .next_event(Cycle::new(lo - 1))
            .map_or(NEVER, Cycle::as_u64);
        self.wheel.set(FABRIC_COMP, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut WakeWheel) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        while let Some(t) = wheel.next_due() {
            wheel.take_due(t, &mut due);
            for &c in &due {
                wheel.park(c);
            }
            out.push((t, due.clone()));
        }
        out
    }

    #[test]
    fn all_components_start_due_at_first_cycle() {
        let mut w = WakeWheel::new(3, 1);
        assert_eq!(w.next_due(), Some(1));
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        assert_eq!(due, vec![0, 1, 2], "ascending component order");
    }

    #[test]
    fn near_and_far_wakes_interleave_in_time_order() {
        let mut w = WakeWheel::new(4, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.set(0, 5); // in-window
        w.set(1, 5_000); // overflow (DRAM-scale)
        w.set(2, 7); // in-window
        w.park(3);
        assert_eq!(
            drain(&mut w),
            vec![(5, vec![0]), (7, vec![2]), (5_000, vec![1])]
        );
    }

    #[test]
    fn reschedule_makes_old_entries_stale() {
        let mut w = WakeWheel::new(2, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.set(0, 10);
        w.set(0, 400); // pushed out: the slot entry at 10 is now stale
        w.set(1, 4_000);
        w.set(1, 12); // pulled in: the overflow entry at 4000 is now stale
        assert_eq!(drain(&mut w), vec![(12, vec![1]), (400, vec![0])]);
    }

    #[test]
    fn simultaneous_wakes_tie_break_by_component_index() {
        let mut w = WakeWheel::new(5, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        // Schedule out of index order, mixing window and overflow (the
        // overflow entry collapses into the same cycle via reschedule).
        w.set(3, 9);
        w.set(1, 9);
        w.set(4, 9_999);
        w.set(4, 9);
        w.set(0, 9);
        w.park(2);
        w.set(0, 9); // duplicate entry for one comp must dedup
        assert_eq!(drain(&mut w), vec![(9, vec![0, 1, 3, 4])]);
    }

    #[test]
    fn window_advances_across_many_wraps() {
        let mut w = WakeWheel::new(1, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        let mut at = 1;
        for step in [1, SLOTS as u64 - 1, SLOTS as u64, 3 * SLOTS as u64 + 7, 1] {
            at += step;
            w.set(0, at);
            assert_eq!(w.next_due(), Some(at));
            w.take_due(at, &mut due);
            assert_eq!(due, vec![0]);
        }
    }

    #[test]
    fn parked_wheel_reports_no_due_cycle() {
        let mut w = WakeWheel::new(2, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.park(0);
        w.park(1);
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn window_boundary_splits_slot_and_overflow_paths() {
        // `base + SLOTS - 1` is the last representable slot cycle;
        // `base + SLOTS` must take the heap path — and both must fire at
        // the right cycle in the right order.
        let mut w = WakeWheel::new(2, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        let base = 1;
        w.set(0, base + SLOTS as u64); // first cycle past the window: heap
        w.set(1, base + SLOTS as u64 - 1); // last in-window cycle: slot
        assert_eq!(
            drain(&mut w),
            vec![
                (base + SLOTS as u64 - 1, vec![1]),
                (base + SLOTS as u64, vec![0]),
            ]
        );
    }

    #[test]
    fn stale_slot_entry_is_skipped_not_served() {
        // Lazy deletion in the ring: a rescheduled component's old slot
        // entry surfaces during next_due's scan and must be dropped, not
        // reported as a due cycle.
        let mut w = WakeWheel::new(1, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.set(0, 10);
        w.set(0, 5); // pulled in: entry at 10 is now stale
        assert_eq!(w.next_due(), Some(5));
        w.take_due(5, &mut due);
        assert_eq!(due, vec![0]);
        // The stale entry at 10 is still physically in its slot; the next
        // real wake is later, so the scan must purge it rather than wake
        // the component early.
        w.set(0, 12);
        assert_eq!(w.next_due(), Some(12));
        w.take_due(12, &mut due);
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn stale_overflow_top_is_purged_not_served() {
        // Lazy deletion in the heap: a far wake pulled into the window
        // leaves its heap entry behind; once the component is parked the
        // stale heap top must not resurrect a due cycle.
        let mut w = WakeWheel::new(1, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.set(0, 5_000); // heap
        w.set(0, 5); // pulled in: heap entry now stale
        assert_eq!(w.next_due(), Some(5));
        w.take_due(5, &mut due);
        assert_eq!(due, vec![0]);
        w.park(0);
        assert_eq!(w.next_due(), None, "stale heap top must be purged");
    }

    #[test]
    fn take_due_merges_overflow_and_window_sources_in_index_order() {
        // Two components land on the same cycle via different structures:
        // comp 1 was scheduled while the cycle was far away (heap), comp 4
        // after the base advanced near it (slot). take_due must merge both
        // sources and still report ascending component order, with the
        // slot-sourced higher index not jumping the queue.
        let mut w = WakeWheel::new(5, 1);
        let mut due = Vec::new();
        w.take_due(1, &mut due);
        w.set(1, 200); // 200 - 1 >= SLOTS: heap
        w.set(0, 150); // heap; used to advance the base
        w.park(2);
        w.park(3);
        w.park(4);
        assert_eq!(w.next_due(), Some(150));
        w.take_due(150, &mut due);
        assert_eq!(due, vec![0]);
        w.park(0);
        w.set(4, 200); // 200 - 150 < SLOTS: slot
        assert_eq!(w.next_due(), Some(200));
        w.take_due(200, &mut due);
        assert_eq!(due, vec![1, 4], "heap comp 1 before slot comp 4");
    }
}
