//! Interconnect substrate for `tenways`: a payload-generic crossbar
//! [`Fabric`] connecting cores, directory banks and any future endpoints.
//!
//! The fabric models the three first-order properties of an on-chip network
//! that the evaluation cares about:
//!
//! 1. **Latency** — every message takes a fixed one-way latency (a crossbar /
//!    low-diameter NoC abstraction; per-hop topologies only shift constants).
//! 2. **Bandwidth** — each endpoint may *inject* at most `inject_bw` and
//!    *accept* at most `accept_bw` messages per cycle; excess messages queue
//!    and their queueing delay is accounted (the "NoC contention" waste
//!    category).
//! 3. **Point-to-point ordering** — messages between the same (source,
//!    destination) pair are delivered in injection order. The coherence
//!    protocol relies on this invariant.
//!
//! The payload type is generic so this crate stays independent of the
//! coherence protocol that rides on it.
//!
//! # Example
//!
//! ```rust
//! use tenways_noc::Fabric;
//! use tenways_sim::{Cycle, NodeId};
//!
//! let mut fabric: Fabric<&str> = Fabric::new(4, 6, 1, 1);
//! fabric.send(Cycle::ZERO, NodeId(0), NodeId(3), "hello");
//! for cy in 1..=7 {
//!     fabric.tick(cy.into());
//! }
//! let delivered = fabric.pop_inbox(NodeId(3)).expect("delivered by cycle 7");
//! assert_eq!(delivered.payload, "hello");
//! assert!(fabric.pop_inbox(NodeId(3)).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use tenways_sim::trace::{TraceCategory, Tracer, NOC_TID};
use tenways_sim::{Cycle, NodeId, StatSet};

/// The fabric's statistics keys, all present (at zero) from construction,
/// so a run without queueing still reports its queueing counters.
const FABRIC_KEYS: [&str; 5] = [
    "noc.sent",
    "noc.delivered",
    "noc.total_delay_cycles",
    "noc.inject_queue_cycles",
    "noc.accept_queue_cycles",
];

/// Physical organization of the interconnect: determines per-message
/// latency as a function of the (source, destination) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Single-stage crossbar: every pair is `latency` apart.
    Crossbar {
        /// One-way latency in cycles.
        latency: u64,
    },
    /// 2-D mesh with XY routing: nodes are laid out row-major on a
    /// `width`-wide grid; latency is `router_latency + hop_latency *
    /// manhattan_distance(src, dst)`.
    Mesh {
        /// Grid width (nodes per row).
        width: usize,
        /// Per-hop link latency.
        hop_latency: u64,
        /// Fixed injection/ejection overhead.
        router_latency: u64,
    },
}

impl Topology {
    /// One-way latency between two nodes.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> u64 {
        match *self {
            Topology::Crossbar { latency } => latency,
            Topology::Mesh {
                width,
                hop_latency,
                router_latency,
            } => {
                let w = width.max(1);
                let (sx, sy) = (src.index() % w, src.index() / w);
                let (dx, dy) = (dst.index() % w, dst.index() / w);
                let hops = sx.abs_diff(dx) + sy.abs_diff(dy);
                router_latency + hop_latency * hops as u64
            }
        }
    }

    /// Worst-case latency across `nodes` endpoints.
    pub fn diameter_latency(&self, nodes: usize) -> u64 {
        (0..nodes as u16)
            .flat_map(|a| (0..nodes as u16).map(move |b| (a, b)))
            .map(|(a, b)| self.latency(NodeId(a), NodeId(b)))
            .max()
            .unwrap_or(0)
    }

    /// Smallest latency across any *distinct* pair of `nodes` endpoints:
    /// the conservative lookahead window for epoch-parallel scheduling. A
    /// message injected at cycle `t` cannot be delivered before
    /// `t + min_latency`, so shards that interact only through the fabric
    /// can free-run `min_latency` cycles between boundary exchanges.
    pub fn min_latency(&self, nodes: usize) -> u64 {
        (0..nodes as u16)
            .flat_map(|a| (0..nodes as u16).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| self.latency(NodeId(a), NodeId(b)))
            .min()
            .unwrap_or(0)
    }
}

/// A message travelling through the fabric, carrying its timing provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<P> {
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Cycle at which the sender handed the message to the fabric.
    pub sent: Cycle,
    /// Cycle at which the message was delivered into the inbox.
    pub delivered: Cycle,
    /// The protocol payload.
    pub payload: P,
}

impl<P> Envelope<P> {
    /// Total fabric delay experienced, including queueing.
    pub fn delay(&self) -> u64 {
        self.delivered - self.sent
    }
}

#[derive(Debug)]
struct InFlight<P> {
    deliver_at: Cycle,
    env: Envelope<P>,
}

/// A flight-queue insert captured while the fabric is in staging mode
/// (see [`Fabric::set_staging`]): the envelope plus the two keys that
/// order it against inserts staged by other shards. Sorting a merged
/// batch by `(inject_at, src)` — keeping the staged (per-source FIFO)
/// order for ties — reproduces the order a sequential injection scan
/// would have inserted them in.
#[derive(Debug)]
pub struct Staged<P> {
    /// Cycle the injection stage picked the message up.
    pub inject_at: Cycle,
    /// Cycle the message becomes due for delivery.
    pub deliver_at: Cycle,
    /// The message itself (`delivered` still unset).
    pub env: Envelope<P>,
}

/// A latency/bandwidth-modeled crossbar connecting `nodes` endpoints.
///
/// See the [crate docs](crate) for the modeled properties. All state is
/// deterministic: injection scans sources in index order and each queue is
/// FIFO, so a run is reproducible tick-for-tick.
#[derive(Debug)]
pub struct Fabric<P> {
    topology: Topology,
    inject_bw: usize,
    accept_bw: usize,
    /// Messages waiting at their source for an injection slot.
    inject_q: Vec<VecDeque<(Cycle, NodeId, P)>>,
    /// Messages in flight, per destination, ordered by deliver_at.
    flight: Vec<VecDeque<InFlight<P>>>,
    /// Delivered messages awaiting pickup by the destination component.
    inbox: Vec<VecDeque<Envelope<P>>>,
    /// Total messages across all `inject_q`s, so an idle tick can skip the
    /// per-source injection scan entirely.
    pending_inject: usize,
    /// Total messages across all `flight` queues, so an idle tick can skip
    /// the per-destination delivery scan entirely.
    in_flight: usize,
    /// Total messages across all `inbox` queues, so quiescence checks and
    /// `next_event` never scan the per-node inboxes.
    inbox_count: usize,
    /// Destinations with a non-empty flight queue, one bit per node, so
    /// the delivery stage visits only active endpoints, in ascending
    /// (deterministic) index order.
    active_dsts: Vec<u64>,
    /// Cached minimum `deliver_at` across every flight-queue head
    /// (`Cycle::NEVER` when nothing is in flight): min-updated on insert,
    /// recomputed over the active heads after each delivery stage.
    earliest_deliver: Cycle,
    /// When set, the injection stage records would-be flight inserts into
    /// `staged` instead of the flight queues (epoch-parallel mode).
    staging: bool,
    /// Inserts captured while staging, in injection order.
    staged: Vec<Staged<P>>,
    last_tick: Cycle,
    stats: StatSet,
    tracer: Tracer,
}

impl<P> Fabric<P> {
    /// Creates a fabric with `nodes` endpoints, one-way `latency`, and
    /// per-endpoint `inject_bw` / `accept_bw` messages per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `inject_bw` or `accept_bw` is zero.
    pub fn new(nodes: usize, latency: u64, inject_bw: usize, accept_bw: usize) -> Self {
        Fabric::with_topology(nodes, Topology::Crossbar { latency }, inject_bw, accept_bw)
    }

    /// Creates a fabric with an explicit [`Topology`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `inject_bw` or `accept_bw` is zero.
    pub fn with_topology(
        nodes: usize,
        topology: Topology,
        inject_bw: usize,
        accept_bw: usize,
    ) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        assert!(
            inject_bw > 0 && accept_bw > 0,
            "bandwidths must be non-zero"
        );
        Fabric {
            topology,
            inject_bw,
            accept_bw,
            inject_q: (0..nodes).map(|_| VecDeque::new()).collect(),
            flight: (0..nodes).map(|_| VecDeque::new()).collect(),
            inbox: (0..nodes).map(|_| VecDeque::new()).collect(),
            pending_inject: 0,
            in_flight: 0,
            inbox_count: 0,
            active_dsts: vec![0; nodes.div_ceil(64)],
            earliest_deliver: Cycle::NEVER,
            staging: false,
            staged: Vec::new(),
            last_tick: Cycle::ZERO,
            stats: FABRIC_KEYS.iter().map(|&k| (k, 0)).collect(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches an event tracer; queueing delays are recorded as spans on
    /// the fabric's timeline row.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Builds a fabric sized for a [`tenways_sim::MachineConfig`]; honors
    /// the config's mesh flag (grid width = ceil(sqrt(nodes)), per-hop
    /// latency derived from the crossbar latency so diameters are
    /// comparable).
    pub fn for_machine(cfg: &tenways_sim::MachineConfig) -> Self {
        let nodes = cfg.node_count();
        let topology = if cfg.noc_mesh {
            let width = (nodes as f64).sqrt().ceil() as usize;
            Topology::Mesh {
                width: width.max(1),
                hop_latency: (cfg.noc_latency / 2).max(1),
                router_latency: 2,
            }
        } else {
            Topology::Crossbar {
                latency: cfg.noc_latency,
            }
        };
        Fabric::with_topology(nodes, topology, cfg.noc_inject_bw, cfg.noc_accept_bw)
    }

    /// The configured topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.inbox.len()
    }

    /// Hands a message to the fabric at time `now`.
    ///
    /// The message leaves `src`'s injection queue subject to the injection
    /// bandwidth (starting with the *next* [`tick`](Self::tick)) and is
    /// delivered `latency` cycles after injection, subject to the acceptance
    /// bandwidth at `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, payload: P) {
        assert!(dst.index() < self.inbox.len(), "dst {dst} out of range");
        self.stats.bump("noc.sent");
        self.inject_q[src.index()].push_back((now, dst, payload));
        self.pending_inject += 1;
    }

    /// Advances the fabric to `now`: injects up to `inject_bw` messages per
    /// source, then delivers due messages (up to `accept_bw` per destination)
    /// into inboxes.
    ///
    /// Must be called once per cycle with a nondecreasing `now`. Returns
    /// `true` if any message moved (was injected or delivered) this cycle.
    pub fn tick(&mut self, now: Cycle) -> bool {
        self.tick_inner(now, None)
    }

    /// Like [`tick`](Self::tick), but also appends each destination that
    /// received at least one delivery this cycle to `woken` (ascending
    /// node order, no duplicates). The wake scheduler uses this to rouse
    /// exactly the endpoints whose inboxes just became non-empty.
    pub fn tick_observed(&mut self, now: Cycle, woken: &mut Vec<NodeId>) -> bool {
        self.tick_inner(now, Some(woken))
    }

    fn tick_inner(&mut self, now: Cycle, mut woken: Option<&mut Vec<NodeId>>) -> bool {
        debug_assert!(now >= self.last_tick, "fabric ticked backwards");
        self.last_tick = now;
        let mut moved = false;

        // Injection stage — skipped outright when nothing is queued.
        if self.pending_inject > 0 {
            for src in 0..self.inject_q.len() {
                for _ in 0..self.inject_bw {
                    let Some((sent, dst, payload)) = self.inject_q[src].pop_front() else {
                        break;
                    };
                    self.pending_inject -= 1;
                    moved = true;
                    let inject_wait = now - sent;
                    if inject_wait > 1 {
                        // A message sent at cycle t naturally injects at t+1;
                        // anything beyond that is contention.
                        self.stats
                            .bump_by("noc.inject_queue_cycles", inject_wait - 1);
                        self.tracer.span(
                            now,
                            inject_wait - 1,
                            NOC_TID,
                            TraceCategory::Noc,
                            "noc.inject_queue",
                            src as u64,
                        );
                    }
                    let deliver_at = now.after(self.topology.latency(NodeId(src as u16), dst));
                    let env = Envelope {
                        src: NodeId(src as u16),
                        dst,
                        sent,
                        delivered: Cycle::NEVER,
                        payload,
                    };
                    if self.staging {
                        // Epoch-parallel mode: defer the insert to the
                        // epoch boundary so shards can merge their
                        // inserts in canonical order. The delivery cannot
                        // be due inside the current epoch (`deliver_at >=
                        // now + min_latency`), so deferring is invisible
                        // to this shard's own delivery stage.
                        self.staged.push(Staged {
                            inject_at: now,
                            deliver_at,
                            env,
                        });
                        continue;
                    }
                    // Insert keeping the queue sorted by deliver time (stable:
                    // equal times keep injection order, which preserves the
                    // per-pair FIFO guarantee — same-pair messages have equal
                    // latency and monotone injection times).
                    self.mark_active(dst.index());
                    self.earliest_deliver = self.earliest_deliver.min(deliver_at);
                    let q = &mut self.flight[dst.index()];
                    let pos = q.partition_point(|f| f.deliver_at <= deliver_at);
                    q.insert(pos, InFlight { deliver_at, env });
                    self.in_flight += 1;
                }
            }
        }

        // Delivery stage — visits only destinations with flight traffic,
        // skipped outright when nothing is due yet.
        if self.in_flight > 0 && self.earliest_deliver <= now {
            let mut earliest = Cycle::NEVER;
            for word in 0..self.active_dsts.len() {
                let mut bits = self.active_dsts[word];
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let dst = word * 64 + bit;
                    moved |= self.deliver(now, dst, woken.as_deref_mut());
                    match self.flight[dst].front() {
                        Some(head) => earliest = earliest.min(head.deliver_at),
                        None => self.active_dsts[word] &= !(1 << bit),
                    }
                }
            }
            self.earliest_deliver = earliest;
        }
        moved
    }

    /// Moves up to `accept_bw` due messages from `dst`'s flight queue into
    /// its inbox, noting `dst` in `woken` if any moved. Returns whether any
    /// did.
    fn deliver(&mut self, now: Cycle, dst: usize, woken: Option<&mut Vec<NodeId>>) -> bool {
        let mut accepted = 0;
        while accepted < self.accept_bw {
            match self.flight[dst].front() {
                Some(head) if head.deliver_at <= now => {}
                _ => break,
            }
            let head = self.flight[dst].pop_front().expect("peeked above");
            self.in_flight -= 1;
            let accept_wait = now - head.deliver_at;
            if accept_wait > 0 {
                self.stats.bump_by("noc.accept_queue_cycles", accept_wait);
                self.tracer.span(
                    now,
                    accept_wait,
                    NOC_TID,
                    TraceCategory::Noc,
                    "noc.accept_queue",
                    dst as u64,
                );
            }
            let mut env = head.env;
            env.delivered = now;
            self.stats.bump("noc.delivered");
            self.stats.bump_by("noc.total_delay_cycles", env.delay());
            self.inbox[dst].push_back(env);
            self.inbox_count += 1;
            accepted += 1;
        }
        if accepted > 0 {
            if let Some(w) = woken {
                w.push(NodeId(dst as u16));
            }
        }
        accepted > 0
    }

    /// Notes that `dst`'s flight queue is non-empty.
    fn mark_active(&mut self, dst: usize) {
        self.active_dsts[dst / 64] |= 1 << (dst % 64);
    }

    /// Earliest future cycle at which this fabric can make progress, or
    /// `None` if it is drained (nothing queued, in flight, or awaiting
    /// pickup). Messages waiting for injection or pickup mean the very next
    /// cycle may act, so they report `now + 1`. O(1): counters plus the
    /// incrementally-maintained earliest in-flight `deliver_at`.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.pending_inject > 0 || self.inbox_count > 0 {
            return Some(now.after(1));
        }
        if self.in_flight > 0 {
            return Some(self.earliest_deliver.max(now.after(1)));
        }
        None
    }

    /// Replays `gap` skipped quiescent cycles following a tick at `now`
    /// (the unified `skip_idle(now, gap)` contract: `now` is the cycle of
    /// the last observed no-progress tick, the replay covers
    /// `now+1 ..= now+gap`).
    ///
    /// A fabric tick that moves no message mutates nothing except the
    /// monotonicity watermark, so the bulk replay is just that watermark.
    pub fn skip_idle(&mut self, now: Cycle, gap: u64) {
        debug_assert!(now >= self.last_tick, "fabric skipped backwards");
        self.last_tick = now.after(gap);
    }

    /// Switches deferred-insert (staging) mode on or off. While staging,
    /// the injection stage records would-be flight inserts into a side
    /// buffer (drained by [`take_staged`](Self::take_staged)) instead of
    /// the flight queues; bandwidth throttling, queueing statistics and
    /// delivery of already-inserted messages behave as usual.
    pub fn set_staging(&mut self, staging: bool) {
        self.staging = staging;
    }

    /// Drains the inserts captured while staging, in injection order
    /// (ascending inject cycle; within a cycle, ascending source node).
    pub fn take_staged(&mut self) -> Vec<Staged<P>> {
        std::mem::take(&mut self.staged)
    }

    /// Applies staged flight-queue inserts — typically captured by other
    /// shards' views — to this fabric. The caller supplies the batch in
    /// canonical sequential order (sorted by `(inject_at, src)`, ties in
    /// staged order), so the flight queues end up identical to a
    /// sequential run's. Refreshes the cached delivery minimum, so a
    /// later [`next_event`](Self::next_event) sees the absorbed messages:
    /// without that refresh a shard could sleep straight past a
    /// cross-shard delivery (the stale-min hazard).
    pub fn absorb_staged(&mut self, batch: impl IntoIterator<Item = Staged<P>>) {
        for st in batch {
            let dst = st.env.dst;
            self.mark_active(dst.index());
            self.earliest_deliver = self.earliest_deliver.min(st.deliver_at);
            let q = &mut self.flight[dst.index()];
            let pos = q.partition_point(|f| f.deliver_at <= st.deliver_at);
            q.insert(
                pos,
                InFlight {
                    deliver_at: st.deliver_at,
                    env: st.env,
                },
            );
            self.in_flight += 1;
        }
    }

    /// Splits the fabric into `shards` per-shard views for the
    /// epoch-parallel scheduler. Every view spans all nodes — component
    /// code needs no re-indexing and can inject toward any destination —
    /// but only the queues of the nodes `owner` assigns to a view carry
    /// state, and its counters and cached delivery minimum cover exactly
    /// those. View 0 inherits the accumulated statistics; the others
    /// start fresh sets, merged back by key in
    /// [`recompose`](Self::recompose).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `owner` maps a node out of range.
    pub fn split(mut self, shards: usize, owner: impl Fn(NodeId) -> usize) -> Vec<Fabric<P>> {
        assert!(shards > 0, "need at least one shard");
        debug_assert!(self.staged.is_empty(), "split with staged inserts pending");
        let nodes = self.nodes();
        let mut views: Vec<Fabric<P>> = (0..shards)
            .map(|_| {
                let mut v =
                    Fabric::with_topology(nodes, self.topology, self.inject_bw, self.accept_bw);
                v.last_tick = self.last_tick;
                v.tracer = self.tracer.clone();
                v
            })
            .collect();
        for n in 0..nodes {
            let s = owner(NodeId(n as u16));
            assert!(s < shards, "owner({n}) = {s} out of range");
            let v = &mut views[s];
            v.pending_inject += self.inject_q[n].len();
            v.inject_q[n] = std::mem::take(&mut self.inject_q[n]);
            v.in_flight += self.flight[n].len();
            v.flight[n] = std::mem::take(&mut self.flight[n]);
            v.inbox_count += self.inbox[n].len();
            v.inbox[n] = std::mem::take(&mut self.inbox[n]);
            if let Some(head) = v.flight[n].front() {
                v.earliest_deliver = v.earliest_deliver.min(head.deliver_at);
                v.mark_active(n);
            }
        }
        views[0].stats = self.stats;
        views
    }

    /// Reassembles one fabric from per-shard views produced by
    /// [`split`](Self::split). Node queues are disjoint by construction
    /// (each node's state lives only in its owner's view); statistics are
    /// merged by key.
    pub fn recompose(views: Vec<Fabric<P>>) -> Fabric<P> {
        let mut views = views.into_iter();
        let mut out = views.next().expect("recompose needs at least one view");
        out.staging = false;
        debug_assert!(out.staged.is_empty(), "recompose with staged inserts");
        for mut v in views {
            debug_assert!(v.staged.is_empty(), "recompose with staged inserts");
            for n in 0..out.nodes() {
                if !v.inject_q[n].is_empty() {
                    debug_assert!(out.inject_q[n].is_empty(), "overlapping views");
                    out.pending_inject += v.inject_q[n].len();
                    out.inject_q[n] = std::mem::take(&mut v.inject_q[n]);
                }
                if !v.flight[n].is_empty() {
                    debug_assert!(out.flight[n].is_empty(), "overlapping views");
                    out.in_flight += v.flight[n].len();
                    out.flight[n] = std::mem::take(&mut v.flight[n]);
                    out.mark_active(n);
                    let head = out.flight[n].front().expect("non-empty");
                    out.earliest_deliver = out.earliest_deliver.min(head.deliver_at);
                }
                if !v.inbox[n].is_empty() {
                    debug_assert!(out.inbox[n].is_empty(), "overlapping views");
                    out.inbox_count += v.inbox[n].len();
                    out.inbox[n] = std::mem::take(&mut v.inbox[n]);
                }
            }
            out.last_tick = out.last_tick.max(v.last_tick);
            out.stats.merge(&v.stats);
        }
        out
    }

    /// Takes the oldest delivered message waiting at `node`, if any.
    pub fn pop_inbox(&mut self, node: NodeId) -> Option<Envelope<P>> {
        let env = self.inbox[node.index()].pop_front()?;
        self.inbox_count -= 1;
        Some(env)
    }

    /// Number of delivered-but-unprocessed messages at `node`.
    pub fn inbox_len(&self, node: NodeId) -> usize {
        self.inbox[node.index()].len()
    }

    /// True if no message is queued, in flight, or awaiting pickup anywhere.
    pub fn is_quiescent(&self) -> bool {
        self.pending_inject == 0 && self.in_flight == 0 && self.inbox_count == 0
    }

    /// Fabric-wide statistics (sent/delivered counts, queueing delays).
    pub fn stats(&self) -> &StatSet {
        &self.stats
    }

    /// One-way latency parameter (crossbar) or router latency (mesh).
    pub fn latency(&self) -> u64 {
        match self.topology {
            Topology::Crossbar { latency } => latency,
            Topology::Mesh { router_latency, .. } => router_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(latency: u64, inj: usize, acc: usize) -> Fabric<u32> {
        Fabric::new(4, latency, inj, acc)
    }

    /// Runs the fabric until quiescent, returning (cycle, envelope) deliveries.
    fn drain_all(f: &mut Fabric<u32>, start: u64, horizon: u64) -> Vec<(u64, Envelope<u32>)> {
        let mut out = Vec::new();
        for cy in start..start + horizon {
            let now = Cycle::new(cy);
            f.tick(now);
            for n in 0..f.nodes() {
                while let Some(env) = f.pop_inbox(NodeId(n as u16)) {
                    out.push((cy, env));
                }
            }
            if f.is_quiescent() {
                break;
            }
        }
        out
    }

    #[test]
    fn delivers_after_latency() {
        let mut f = fabric(6, 1, 1);
        f.send(Cycle::ZERO, NodeId(0), NodeId(1), 7);
        let got = drain_all(&mut f, 1, 100);
        assert_eq!(got.len(), 1);
        // Injected at tick 1 (first tick after send), delivered 6 later.
        assert_eq!(got[0].0, 7);
        assert_eq!(got[0].1.payload, 7);
        assert_eq!(got[0].1.src, NodeId(0));
    }

    #[test]
    fn point_to_point_order_preserved() {
        let mut f = fabric(3, 2, 2);
        for i in 0..10 {
            f.send(Cycle::ZERO, NodeId(0), NodeId(2), i);
        }
        let got = drain_all(&mut f, 1, 100);
        let payloads: Vec<u32> = got.iter().map(|(_, e)| e.payload).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn inject_bandwidth_throttles() {
        let mut f = fabric(1, 1, 4);
        for i in 0..4 {
            f.send(Cycle::ZERO, NodeId(0), NodeId(1), i);
        }
        let got = drain_all(&mut f, 1, 100);
        // One injection per cycle => deliveries at consecutive cycles.
        let cycles: Vec<u64> = got.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5]);
        assert!(f.stats().get("noc.inject_queue_cycles") > 0);
    }

    #[test]
    fn accept_bandwidth_throttles() {
        let mut f = fabric(1, 4, 1);
        // Four different sources converge on node 3 in the same cycle.
        for s in 0..4u16 {
            f.send(Cycle::ZERO, NodeId(s), NodeId(3), u32::from(s));
        }
        let got = drain_all(&mut f, 1, 100);
        let cycles: Vec<u64> = got.iter().map(|(c, _)| *c).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5]);
        assert!(f.stats().get("noc.accept_queue_cycles") > 0);
    }

    #[test]
    fn delay_accounts_queueing() {
        let mut f = fabric(2, 1, 1);
        f.send(Cycle::ZERO, NodeId(0), NodeId(1), 1);
        f.send(Cycle::ZERO, NodeId(0), NodeId(1), 2);
        let got = drain_all(&mut f, 1, 100);
        assert!(got[1].1.delay() > got[0].1.delay());
    }

    #[test]
    fn quiescence_detection() {
        let mut f = fabric(4, 1, 1);
        assert!(f.is_quiescent());
        f.send(Cycle::ZERO, NodeId(1), NodeId(0), 9);
        assert!(!f.is_quiescent());
        drain_all(&mut f, 1, 100);
        assert!(f.is_quiescent());
    }

    #[test]
    fn stats_count_messages() {
        let mut f = fabric(1, 2, 2);
        for i in 0..5u64 {
            f.send(Cycle::new(i), NodeId(0), NodeId(1), i as u32);
            f.tick(Cycle::new(i));
        }
        drain_all(&mut f, 5, 50);
        assert_eq!(f.stats().get("noc.sent"), 5);
        assert_eq!(f.stats().get("noc.delivered"), 5);
    }

    #[test]
    fn next_event_tracks_message_lifecycle() {
        let mut f = fabric(6, 1, 1);
        assert_eq!(
            f.next_event(Cycle::ZERO),
            None,
            "empty fabric has no events"
        );
        f.send(Cycle::ZERO, NodeId(0), NodeId(1), 7);
        // Queued for injection: next cycle may act.
        assert_eq!(f.next_event(Cycle::ZERO), Some(Cycle::new(1)));
        assert!(f.tick(Cycle::new(1)), "injection counts as progress");
        // In flight, due at 1 + 6 = 7.
        assert_eq!(f.next_event(Cycle::new(1)), Some(Cycle::new(7)));
        assert!(!f.tick(Cycle::new(2)), "nothing moves before delivery");
        // Skip the quiescent cycles 3..=6 in bulk (unified contract:
        // `skip_idle(now, gap)` replays `now+1 ..= now+gap`).
        f.skip_idle(Cycle::new(2), 4);
        assert!(f.tick(Cycle::new(7)), "delivery counts as progress");
        // Delivered but unclaimed: still reports an immediate event.
        assert_eq!(f.next_event(Cycle::new(7)), Some(Cycle::new(8)));
        assert!(f.pop_inbox(NodeId(1)).is_some());
        assert_eq!(f.next_event(Cycle::new(7)), None);
        assert!(f.is_quiescent());
    }

    /// The incrementally-maintained earliest-`deliver_at` minimum must
    /// track inserts (min-updates), pops (recompute over remaining
    /// heads), and skipped gaps — `next_event` never rescans the flight
    /// queues, so any drift here would desynchronize the wake scheduler.
    #[test]
    fn incremental_min_tracks_insert_pop_and_skip() {
        let mut f = fabric(1, 4, 4);
        // Two messages to different destinations, staggered deadlines.
        f.send(Cycle::ZERO, NodeId(0), NodeId(2), 20);
        f.tick(Cycle::new(1)); // injected, due at 2
        assert_eq!(f.inbox_len(NodeId(2)), 0, "injected this cycle, not due");
        assert_eq!(f.next_event(Cycle::new(1)), Some(Cycle::new(2)));
        // Insert a second flight with a *later* source while the first is
        // still pending: the cached min must stay at the earlier deadline.
        f.send(Cycle::new(1), NodeId(1), NodeId(3), 30);
        f.skip_idle(Cycle::new(1), 0);
        f.tick(Cycle::new(2)); // delivers to 2, injects the second
        assert_eq!(f.inbox_len(NodeId(2)), 1);
        assert!(f.pop_inbox(NodeId(2)).is_some());
        // Only the second message remains in flight, due at 3.
        assert_eq!(f.next_event(Cycle::new(2)), Some(Cycle::new(3)));
        f.tick(Cycle::new(3));
        assert_eq!(f.inbox_len(NodeId(3)), 1);
        // Pickup pending: still an immediate event; drained: none.
        assert_eq!(f.next_event(Cycle::new(3)), Some(Cycle::new(4)));
        assert!(f.pop_inbox(NodeId(3)).is_some());
        assert_eq!(f.next_event(Cycle::new(3)), None);
        assert!(f.is_quiescent());
        // Skip a long idle stretch, then reuse the fabric: the min must
        // rebuild from scratch after having been fully drained.
        f.skip_idle(Cycle::new(3), 97);
        f.send(Cycle::new(100), NodeId(2), NodeId(0), 40);
        f.tick(Cycle::new(101));
        assert_eq!(f.next_event(Cycle::new(101)), Some(Cycle::new(102)));
        f.tick(Cycle::new(102));
        assert_eq!(f.pop_inbox(NodeId(0)).unwrap().payload, 40);
    }

    /// `tick_observed` reports exactly the destinations whose inboxes
    /// received a delivery, in ascending node order.
    #[test]
    fn tick_observed_reports_delivered_destinations() {
        let mut f = fabric(2, 4, 4);
        f.send(Cycle::ZERO, NodeId(0), NodeId(3), 1);
        f.send(Cycle::ZERO, NodeId(1), NodeId(2), 2);
        f.send(Cycle::ZERO, NodeId(2), NodeId(3), 3);
        let mut woken = Vec::new();
        assert!(f.tick_observed(Cycle::new(1), &mut woken), "injection");
        assert!(woken.is_empty(), "nothing delivered yet");
        f.tick_observed(Cycle::new(2), &mut woken);
        assert!(woken.is_empty());
        f.tick_observed(Cycle::new(3), &mut woken);
        assert_eq!(woken, vec![NodeId(2), NodeId(3)], "ascending, deduped");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut f = fabric(1, 1, 1);
        f.send(Cycle::ZERO, NodeId(0), NodeId(99), 0);
    }

    #[test]
    fn zero_latency_fabric_delivers_next_tick() {
        let mut f = fabric(0, 1, 1);
        f.send(Cycle::ZERO, NodeId(0), NodeId(1), 5);
        f.tick(Cycle::new(1));
        assert_eq!(f.inbox_len(NodeId(1)), 1);
    }

    #[test]
    fn cross_pair_interleave_is_deterministic() {
        let run = || {
            let mut f = fabric(2, 1, 1);
            f.send(Cycle::ZERO, NodeId(0), NodeId(3), 100);
            f.send(Cycle::ZERO, NodeId(1), NodeId(3), 200);
            f.send(Cycle::ZERO, NodeId(2), NodeId(3), 300);
            drain_all(&mut f, 1, 50)
                .into_iter()
                .map(|(c, e)| (c, e.payload))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn for_machine_matches_config() {
        let cfg = tenways_sim::MachineConfig::default();
        let f: Fabric<u8> = Fabric::for_machine(&cfg);
        assert_eq!(f.nodes(), cfg.node_count());
        assert_eq!(f.latency(), cfg.noc_latency);
    }
}

#[cfg(test)]
mod mesh_tests {
    use super::*;

    #[test]
    fn mesh_latency_is_manhattan() {
        let t = Topology::Mesh {
            width: 3,
            hop_latency: 2,
            router_latency: 1,
        };
        // Node layout: 0 1 2 / 3 4 5 / 6 7 8
        assert_eq!(t.latency(NodeId(0), NodeId(0)), 1);
        assert_eq!(t.latency(NodeId(0), NodeId(1)), 3);
        assert_eq!(t.latency(NodeId(0), NodeId(4)), 5);
        assert_eq!(t.latency(NodeId(0), NodeId(8)), 9);
        assert_eq!(t.latency(NodeId(8), NodeId(0)), 9, "symmetric");
    }

    #[test]
    fn crossbar_latency_is_uniform() {
        let t = Topology::Crossbar { latency: 6 };
        assert_eq!(t.latency(NodeId(0), NodeId(1)), 6);
        assert_eq!(t.latency(NodeId(3), NodeId(0)), 6);
        assert_eq!(t.diameter_latency(4), 6);
    }

    #[test]
    fn mesh_diameter_grows_with_size() {
        let t = Topology::Mesh {
            width: 4,
            hop_latency: 1,
            router_latency: 0,
        };
        assert_eq!(t.diameter_latency(16), 6, "corner to corner of 4x4");
        assert!(t.diameter_latency(16) > t.diameter_latency(4));
    }

    #[test]
    fn mesh_fabric_delivers_far_later_than_near() {
        let mut f: Fabric<u8> = Fabric::with_topology(
            9,
            Topology::Mesh {
                width: 3,
                hop_latency: 2,
                router_latency: 1,
            },
            2,
            2,
        );
        f.send(Cycle::ZERO, NodeId(1), NodeId(0), 1); // 1 hop: latency 3
        f.send(Cycle::ZERO, NodeId(8), NodeId(0), 8); // 4 hops: latency 9
        let mut got = Vec::new();
        for cy in 1..=15 {
            f.tick(Cycle::new(cy));
            while let Some(env) = f.pop_inbox(NodeId(0)) {
                got.push((cy, env.payload));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, 1, "near message arrives first");
        assert!(got[1].0 > got[0].0);
    }

    #[test]
    fn mesh_preserves_same_pair_fifo() {
        let mut f: Fabric<u32> = Fabric::with_topology(
            9,
            Topology::Mesh {
                width: 3,
                hop_latency: 2,
                router_latency: 1,
            },
            1,
            4,
        );
        for i in 0..6 {
            f.send(Cycle::ZERO, NodeId(8), NodeId(0), i);
        }
        let mut got = Vec::new();
        for cy in 1..=40 {
            f.tick(Cycle::new(cy));
            while let Some(env) = f.pop_inbox(NodeId(0)) {
                got.push(env.payload);
            }
        }
        assert_eq!(got, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn min_latency_is_adjacent_pair() {
        let t = Topology::Mesh {
            width: 3,
            hop_latency: 2,
            router_latency: 1,
        };
        assert_eq!(t.min_latency(9), 3, "one hop plus router");
        let column = Topology::Mesh {
            width: 1,
            hop_latency: 5,
            router_latency: 0,
        };
        assert_eq!(
            column.min_latency(4),
            5,
            "vertical neighbors on a 1-wide grid"
        );
        assert_eq!(Topology::Crossbar { latency: 6 }.min_latency(4), 6);
        assert_eq!(
            Topology::Crossbar { latency: 6 }.min_latency(1),
            0,
            "no pair"
        );
    }

    #[test]
    fn for_machine_honors_mesh_flag() {
        let cfg = tenways_sim::MachineConfig::builder()
            .mesh(true)
            .build()
            .unwrap();
        let f: Fabric<u8> = Fabric::for_machine(&cfg);
        assert!(matches!(f.topology(), Topology::Mesh { .. }));
        let cfg = tenways_sim::MachineConfig::builder()
            .mesh(false)
            .build()
            .unwrap();
        let f: Fabric<u8> = Fabric::for_machine(&cfg);
        assert!(matches!(f.topology(), Topology::Crossbar { .. }));
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;

    fn fabric(latency: u64) -> Fabric<u32> {
        Fabric::new(4, latency, 1, 1)
    }

    /// Drains every inbox after a tick, as `(cycle, dst, payload)`.
    fn deliveries(f: &mut Fabric<u32>, cy: u64) -> Vec<(u64, u16, u32)> {
        f.tick(Cycle::new(cy));
        let mut out = Vec::new();
        for n in 0..f.nodes() {
            while let Some(env) = f.pop_inbox(NodeId(n as u16)) {
                out.push((cy, n as u16, env.payload));
            }
        }
        out
    }

    /// Staging then absorbing the captured inserts reproduces the exact
    /// delivery schedule of a never-staged run, including cross-source
    /// ties into one destination.
    #[test]
    fn stage_and_absorb_matches_sequential() {
        let run = |staged: bool| {
            let mut f = fabric(2);
            f.send(Cycle::ZERO, NodeId(0), NodeId(3), 100);
            f.send(Cycle::ZERO, NodeId(1), NodeId(3), 200);
            f.send(Cycle::ZERO, NodeId(2), NodeId(1), 300);
            let mut got = Vec::new();
            for cy in 1..=10 {
                if staged {
                    f.set_staging(true);
                    got.extend(deliveries(&mut f, cy));
                    f.set_staging(false);
                    let mut batch = f.take_staged();
                    batch.sort_by_key(|s| (s.inject_at, s.env.src.index()));
                    f.absorb_staged(batch);
                } else {
                    got.extend(deliveries(&mut f, cy));
                }
            }
            got
        };
        let sequential = run(false);
        assert_eq!(sequential.len(), 3);
        assert_eq!(run(true), sequential);
    }

    /// Regression for the sharded stale-min hazard: a view with nothing
    /// in flight reports no next event; once a cross-shard insert is
    /// absorbed, `next_event` must surface its delivery cycle. If
    /// `absorb_staged` forgot to refresh `earliest_deliver` /
    /// `in_flight` / `active_dsts`, the owning shard would sleep
    /// straight past the delivery.
    #[test]
    fn absorb_refreshes_next_event_min() {
        // Shard A owns node 0 (the sender), shard B owns node 3.
        let mut a = fabric(6);
        let mut b = fabric(6);
        a.set_staging(true);
        a.send(Cycle::new(3), NodeId(0), NodeId(3), 7);
        a.tick(Cycle::new(4)); // injects: due at 4 + 6 = 10
        assert_eq!(a.next_event(Cycle::new(4)), None, "staged, not in flight");
        assert_eq!(b.next_event(Cycle::new(4)), None, "idle view would sleep");
        let staged = a.take_staged();
        assert_eq!(staged.len(), 1);
        assert_eq!(staged[0].inject_at, Cycle::new(4));
        assert_eq!(staged[0].deliver_at, Cycle::new(10));
        b.absorb_staged(staged);
        assert_eq!(
            b.next_event(Cycle::new(4)),
            Some(Cycle::new(10)),
            "absorbed delivery must wake the owner"
        );
        b.skip_idle(Cycle::new(4), 5);
        assert!(b.tick(Cycle::new(10)), "delivery happens on time");
        assert_eq!(b.pop_inbox(NodeId(3)).unwrap().payload, 7);
        assert!(b.is_quiescent());
        // Absorbing an *earlier* delivery than a local pending one must
        // pull the cached minimum down, not leave it stale.
        let mut c = fabric(6);
        c.send(Cycle::new(10), NodeId(1), NodeId(2), 1);
        c.tick(Cycle::new(11)); // due at 17
        assert_eq!(c.next_event(Cycle::new(11)), Some(Cycle::new(17)));
        let mut d = fabric(2);
        d.set_staging(true);
        d.send(Cycle::new(11), NodeId(0), NodeId(2), 2);
        d.tick(Cycle::new(12)); // due at 14
        c.absorb_staged(d.take_staged());
        assert_eq!(c.next_event(Cycle::new(12)), Some(Cycle::new(14)));
    }

    /// Split distributes queues by node owner and recompose restores a
    /// fabric whose later behavior and statistics match a never-split
    /// run.
    #[test]
    fn split_recompose_round_trips() {
        let build = || {
            let mut f = fabric(3);
            // One of each queue kind: delivered-awaiting-pickup at node
            // 1, in flight toward node 2, pending injection at node 3.
            f.send(Cycle::ZERO, NodeId(0), NodeId(1), 10);
            for cy in 1..=4 {
                f.tick(Cycle::new(cy));
            }
            f.send(Cycle::new(4), NodeId(0), NodeId(2), 20);
            f.tick(Cycle::new(5));
            f.send(Cycle::new(5), NodeId(3), NodeId(0), 30);
            f
        };
        let mut whole = build();
        let views = build().split(2, |n| n.index() % 2);
        assert_eq!(views.len(), 2);
        assert_eq!(
            views[0].next_event(Cycle::new(5)),
            Some(Cycle::new(8)),
            "even view holds exactly node 2's flight entry"
        );
        assert_eq!(
            views[1].next_event(Cycle::new(5)),
            Some(Cycle::new(6)),
            "odd view holds node 3's backlog and node 1's inbox"
        );
        let mut merged = Fabric::recompose(views);
        assert_eq!(
            merged.stats().get("noc.sent"),
            whole.stats().get("noc.sent")
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        for cy in 6..=12 {
            a.extend(deliveries(&mut whole, cy));
            b.extend(deliveries(&mut merged, cy));
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 3, "inbox backlog, flight and injected all arrive");
        assert!(whole.is_quiescent() && merged.is_quiescent());
        assert_eq!(
            merged.stats().get("noc.delivered"),
            whole.stats().get("noc.delivered")
        );
    }
}
