//! Conservative epoch-parallel scheduling: the engine behind
//! [`SchedMode::ParallelEpoch`](crate::machine::SchedMode::ParallelEpoch).
//!
//! The machine's scheduling units — fabric, directory banks, and fused
//! core+L1 complexes — interact *only* through fabric messages and the
//! architectural memory. Every fabric message takes at least
//! `Topology::min_latency` cycles (the lookahead window `W`), so a shard
//! of components can free-run its own wake wheel through a window of `W`
//! cycles without observing anything another shard does inside the same
//! window:
//!
//! * **Messages.** An injection at cycle `t ≥ lo` delivers at
//!   `t + W > lo + W - 1 = hi`, past the window — so *every* flight-queue
//!   insert (intra- and cross-shard alike) is staged and merged at the
//!   boundary, where sorting by `(inject_at, src)` byte-reproduces the
//!   order a sequential injection scan would have produced.
//! * **Memory.** A core can only read another core's write after the
//!   block's ownership crosses the fabric (recall, then grant) — at least
//!   `2W` cycles, i.e. at least one boundary merge, after the write. So
//!   each shard runs the window against a frozen base plus a private
//!   delta ([`EpochMem`]), and the deltas of one window are word-disjoint.
//!
//! Within a shard the loop *is* the sequential one: each worker drives a
//! [`WakeLoop`] over its local components, preserving the canonical
//! fabric → directory banks → core complexes tie-break; per-node fabric
//! state (injection is source-local, delivery destination-local) makes
//! the per-shard fabric views behave identically to one shared fabric.
//! Results are therefore bit-for-bit identical to every sequential mode,
//! at any worker count.
//!
//! Run termination needs one refinement: the sequential loop stops right
//! after the cycle `T` in which the last core finishes, leaving later
//! events unprocessed. A shard therefore *pauses* as soon as its local
//! cores are all done (phase 1); when every shard has paused, the true
//! `T` is the maximum local completion cycle and each shard is told to
//! continue through exactly `T` (phase 2). If any shard is still
//! running, paused shards are continued through the window end instead,
//! because the run — and therefore activity on their directories and
//! fabric nodes — goes on.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use tenways_coherence::{DirectoryBank, L1Controller};
use tenways_noc::{Fabric, Staged};
use tenways_sim::{Cycle, NodeId};

use crate::archmem::{ArchMem, EpochMem};
use crate::core::Core;
use crate::machine::{Machine, RunSummary};
use crate::wake::{Units, WakeLoop, NEVER};

type Msg = tenways_coherence::Msg;

/// Main-to-worker commands, one channel per shard.
enum Cmd {
    /// Run the window `[lo, hi]`, after absorbing `batch` (this shard's
    /// share of the staged inserts, already in canonical order) and
    /// installing `base`/`delta` as the window's memory view.
    Epoch {
        batch: Vec<Staged<Msg>>,
        base: Arc<ArchMem>,
        delta: ArchMem,
        lo: u64,
        hi: u64,
    },
    /// Resume a paused shard and process remaining events through `t`.
    Continue { t: u64 },
    /// Replay tail idle cycles up to `t` and ship the components back.
    Finish { t: u64 },
}

/// Worker-to-main replies, one shared channel tagged by shard index.
enum Reply {
    /// Phase-1 stop: every local core is done; `done_cycle` is the cycle
    /// the last one finished (possibly in an earlier window).
    Paused { done_cycle: u64 },
    /// Window complete: staged inserts, the window's write delta, and
    /// the shard's next due cycle (`NEVER` when fully idle).
    EpochDone {
        staged: Vec<Staged<Msg>>,
        delta: ArchMem,
        next_due: u64,
    },
    /// Response to [`Cmd::Finish`]: the shard, for reassembly into the
    /// machine.
    Finished(Box<Shard>),
}

/// One shard: a full-size fabric view holding only the owned nodes'
/// queues, and the owned directory banks and core complexes with their
/// global indices (ascending).
struct Shard {
    fabric: Fabric<Msg>,
    dirs: Vec<DirectoryBank>,
    dir_ids: Vec<usize>,
    l1s: Vec<L1Controller>,
    cores: Vec<Core>,
    core_ids: Vec<usize>,
}

impl Shard {
    fn units(&mut self) -> Units<'_> {
        Units {
            fabric: &mut self.fabric,
            dirs: &mut self.dirs,
            l1s: &mut self.l1s,
            cores: &mut self.cores,
        }
    }

    fn done_cycle(&self) -> u64 {
        self.cores
            .iter()
            .filter_map(Core::done_at)
            .map(Cycle::as_u64)
            .max()
            .unwrap_or(0)
    }
}

/// What a shard yields at an epoch boundary: its staged cross-shard
/// flights, its memory write delta, and its wheel's next due cycle.
type EpochYield = (Vec<Staged<Msg>>, ArchMem, u64);

/// Receives with a bounded spin before parking: epochs are a handful of
/// simulated cycles, so the channel round-trip dominates wall time if
/// every boundary pays a futex sleep/wake. Spinning only pays when every
/// participant has its own hardware thread — on an oversubscribed host a
/// spinner steals the quantum from the peer it is waiting for — so
/// `spin` is decided once per run from the host's parallelism.
fn spin_recv<T>(rx: &Receiver<T>, spin: bool) -> Result<T, std::sync::mpsc::RecvError> {
    use std::sync::mpsc::TryRecvError;
    if spin {
        for _ in 0..50_000 {
            match rx.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => return Err(std::sync::mpsc::RecvError),
            }
        }
    }
    rx.recv()
}

/// A worker thread's life: absorb, run the window through the shard's
/// wake loop, pause/continue as told, surrender the staged inserts and
/// write delta, repeat — until [`Cmd::Finish`] ships the shard back.
fn worker(
    mut shard: Shard,
    mut wake: WakeLoop,
    cmds: &Receiver<Cmd>,
    replies: &Sender<(usize, Reply)>,
    idx: usize,
    spin: bool,
) {
    while let Ok(cmd) = spin_recv(cmds, spin) {
        match cmd {
            Cmd::Epoch {
                batch,
                base,
                delta,
                lo,
                hi,
            } => {
                shard.fabric.absorb_staged(batch);
                wake.rewake_fabric(&shard.fabric, lo);
                let mut mem = EpochMem::new(base, delta);
                if wake.run(&mut shard.units(), &mut mem, hi, true).is_some() {
                    let done_cycle = shard.done_cycle();
                    replies
                        .send((idx, Reply::Paused { done_cycle }))
                        .expect("main thread alive");
                    match spin_recv(cmds, spin).expect("main thread alive") {
                        Cmd::Continue { t } => {
                            wake.run(&mut shard.units(), &mut mem, t, false);
                        }
                        _ => unreachable!("paused shard expects Continue"),
                    }
                }
                let staged = shard.fabric.take_staged();
                let next_due = wake.next_due();
                let (base, delta) = mem.into_parts();
                // Release the base handle *before* replying: once every
                // shard has replied, the main thread's handle is unique
                // and the boundary merge can mutate in place.
                drop(base);
                replies
                    .send((
                        idx,
                        Reply::EpochDone {
                            staged,
                            delta,
                            next_due,
                        },
                    ))
                    .expect("main thread alive");
            }
            Cmd::Continue { .. } => unreachable!("Continue outside a pause"),
            Cmd::Finish { t } => {
                wake.replay_tail(&mut shard.units(), Cycle::new(t));
                replies
                    .send((idx, Reply::Finished(Box::new(shard))))
                    .expect("main thread alive");
                return;
            }
        }
    }
}

/// Runs the machine under epoch-parallel scheduling. Falls back to the
/// sequential wake scheduler when the machine cannot shard (fewer than
/// two usable workers) or the topology's minimum latency is zero (no
/// lookahead window).
pub(crate) fn run(m: &mut Machine, limit: u64, workers: usize) -> RunSummary {
    let n_cores = m.cores.len();
    let shards_n = workers.max(1).min(n_cores);
    let window = m.fabric.topology().min_latency(m.fabric.nodes());
    if shards_n <= 1 || window == 0 {
        return m.run_wake(limit);
    }
    let start = m.clock.now();
    let end = start.after(limit).as_u64();

    // ---- shard the machine: nodes round-robin by kind ----
    let owner = move |node: NodeId| -> usize {
        if node.index() < n_cores {
            node.index() % shards_n
        } else {
            (node.index() - n_cores) % shards_n
        }
    };
    let nodes = m.fabric.nodes();
    let n_dirs = m.dirs.len();
    let placeholder = Fabric::new(1, 0, 1, 1);
    let views = std::mem::replace(&mut m.fabric, placeholder).split(shards_n, owner);
    let mut shards: Vec<Shard> = views
        .into_iter()
        .enumerate()
        .map(|(s, mut fabric)| {
            fabric.set_staging(true);
            Shard {
                fabric,
                dirs: Vec::new(),
                dir_ids: (s..n_dirs).step_by(shards_n).collect(),
                l1s: Vec::new(),
                cores: Vec::new(),
                core_ids: (s..n_cores).step_by(shards_n).collect(),
            }
        })
        .collect();
    for (b, dir) in m.dirs.drain(..).enumerate() {
        shards[b % shards_n].dirs.push(dir);
    }
    for (c, (l1, core)) in m.l1s.drain(..).zip(m.cores.drain(..)).enumerate() {
        let shard = &mut shards[c % shards_n];
        shard.l1s.push(l1);
        shard.cores.push(core);
    }

    let mut base = Arc::new(std::mem::take(&mut m.mem));
    let mut deltas: Vec<Option<ArchMem>> = vec![Some(ArchMem::new()); shards_n];
    let mut pending: Vec<Staged<Msg>> = Vec::new();
    let mut parts: Vec<Option<Shard>> = (0..shards_n).map(|_| None).collect();
    let mut t_final = start.as_u64();

    // Spin-wait at epoch boundaries only when every shard worker plus the
    // coordinating thread can hold its own hardware thread; otherwise a
    // spinner burns the quantum the peer it waits on needs to make
    // progress (a 1-CPU host regresses ~40x with unconditional spinning).
    let spin = std::thread::available_parallelism().map_or(1, |n| n.get()) > shards_n;

    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = channel::<(usize, Reply)>();
        let mut cmd_txs: Vec<Sender<Cmd>> = Vec::with_capacity(shards_n);
        for (idx, shard) in shards.drain(..).enumerate() {
            let wake = WakeLoop::new(
                start,
                n_cores,
                nodes,
                shard.dir_ids.iter().copied(),
                shard.core_ids.iter().copied(),
            );
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            cmd_txs.push(cmd_tx);
            let reply_tx = reply_tx.clone();
            scope.spawn(move || worker(shard, wake, &cmd_rx, &reply_tx, idx, spin));
        }

        let mut lo = start.as_u64() + 1;
        loop {
            if lo > end {
                // Nothing due before the cut-off (events past the limit,
                // a deadlock, or `limit == 0`): idle out the run.
                t_final = end;
                break;
            }
            let hi = (lo + window - 1).min(end);
            // Route the boundary-merged inserts to their destinations'
            // owners; `absorb_staged` only touches destination queues.
            let mut batches: Vec<Vec<Staged<Msg>>> = (0..shards_n).map(|_| Vec::new()).collect();
            for st in pending.drain(..) {
                batches[owner(st.env.dst)].push(st);
            }
            for (s, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Epoch {
                    batch: std::mem::take(&mut batches[s]),
                    base: Arc::clone(&base),
                    delta: deltas[s].take().expect("delta round-trips"),
                    lo,
                    hi,
                })
                .expect("worker alive");
            }

            // Round 1: exactly one reply per shard.
            let mut paused: Vec<Option<u64>> = vec![None; shards_n];
            let mut dones: Vec<Option<EpochYield>> = (0..shards_n).map(|_| None).collect();
            for _ in 0..shards_n {
                let (s, reply) = spin_recv(&reply_rx, spin).expect("worker alive");
                match reply {
                    Reply::Paused { done_cycle } => paused[s] = Some(done_cycle),
                    Reply::EpochDone {
                        staged,
                        delta,
                        next_due,
                    } => dones[s] = Some((staged, delta, next_due)),
                    Reply::Finished(_) => unreachable!("no Finish sent yet"),
                }
            }

            // A shard pauses iff its cores are done, so all-paused means
            // the run ends this window, at the last completion cycle;
            // otherwise the run goes on and paused shards must process
            // their remaining events through the window end.
            let all_paused = paused.iter().all(Option::is_some);
            let t = if all_paused {
                paused.iter().flatten().copied().max().expect("non-empty")
            } else {
                hi
            };
            let mut outstanding = 0;
            for (s, tx) in cmd_txs.iter().enumerate() {
                if paused[s].is_some() {
                    tx.send(Cmd::Continue { t }).expect("worker alive");
                    outstanding += 1;
                }
            }
            for _ in 0..outstanding {
                let (s, reply) = spin_recv(&reply_rx, spin).expect("worker alive");
                match reply {
                    Reply::EpochDone {
                        staged,
                        delta,
                        next_due,
                    } => dones[s] = Some((staged, delta, next_due)),
                    _ => unreachable!("continued shard replies EpochDone"),
                }
            }

            // Boundary: every worker has released its base handle, so
            // the main handle is unique and the deltas (word-disjoint by
            // the coherence argument) merge in place.
            let mut next_lo = NEVER;
            let base_mut = Arc::get_mut(&mut base).expect("workers released their handles");
            for (s, done) in dones.iter_mut().enumerate() {
                let (staged, mut delta, next_due) = done.take().expect("every shard replied");
                next_lo = next_lo.min(next_due);
                for st in &staged {
                    next_lo = next_lo.min(st.deliver_at.as_u64());
                }
                pending.extend(staged);
                base_mut.merge_delta(&mut delta);
                deltas[s] = Some(delta);
            }
            // Canonical sequential insert order: by injection cycle,
            // then source node; stable, so per-source FIFO order (the
            // order within each shard's batch) survives.
            pending.sort_by_key(|st| (st.inject_at, st.env.src.index()));

            if all_paused {
                t_final = t;
                break;
            }
            debug_assert!(next_lo > hi, "window left a due event behind");
            lo = next_lo;
        }

        for tx in &cmd_txs {
            tx.send(Cmd::Finish { t: t_final }).expect("worker alive");
        }
        for _ in 0..shards_n {
            let (s, reply) = spin_recv(&reply_rx, spin).expect("worker alive");
            match reply {
                Reply::Finished(p) => parts[s] = Some(*p),
                _ => unreachable!("final replies are Finished"),
            }
        }
    });

    // ---- reassemble the machine ----
    let mut fabric_views = Vec::with_capacity(shards_n);
    let mut dirs: Vec<(usize, DirectoryBank)> = Vec::new();
    let mut cores: Vec<(usize, (L1Controller, Core))> = Vec::new();
    for p in parts {
        let p = p.expect("every shard shipped its parts");
        fabric_views.push(p.fabric);
        dirs.extend(p.dir_ids.into_iter().zip(p.dirs));
        cores.extend(p.core_ids.into_iter().zip(p.l1s.into_iter().zip(p.cores)));
    }
    let mut fabric = Fabric::recompose(fabric_views);
    // In-flight messages staged at the final boundary belong in the
    // recomposed flight queues, exactly where a sequential run would
    // have left them.
    fabric.absorb_staged(pending);
    m.fabric = fabric;
    dirs.sort_unstable_by_key(|(b, _)| *b);
    m.dirs = dirs.into_iter().map(|(_, d)| d).collect();
    cores.sort_by_key(|(c, _)| *c);
    for (_, (l1, core)) in cores {
        m.l1s.push(l1);
        m.cores.push(core);
    }
    m.mem = Arc::try_unwrap(base).expect("workers exited with the scope");
    let now = m.clock.now().as_u64();
    if t_final > now {
        m.clock.advance_by(t_final - now);
    }
    m.finish(start)
}
