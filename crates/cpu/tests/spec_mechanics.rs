//! Focused tests of the speculation machinery inside the pipeline:
//! checkpoints, rollback/replay, backoff, overflow aborts, forwarding and
//! same-address hazards.

use tenways_cpu::{
    ConsistencyModel, FenceKind, Machine, MachineSpec, MemTag, Op, RmwOp, ScriptProgram,
    SpecConfig, ThreadProgram,
};
use tenways_sim::{Addr, CoreId, MachineConfig};

fn boxed(p: impl ThreadProgram + 'static) -> Box<dyn ThreadProgram> {
    Box::new(p)
}

fn machine(
    model: ConsistencyModel,
    spec: SpecConfig,
    programs: Vec<Box<dyn ThreadProgram>>,
) -> Machine {
    let cfg = MachineConfig::builder()
        .cores(programs.len())
        .build()
        .unwrap();
    let ms = MachineSpec::baseline(model)
        .with_machine(cfg)
        .with_spec(spec);
    Machine::new(&ms, programs)
}

/// A program that counts how many ops it was asked for — detects
/// re-execution after rollback.
#[derive(Debug, Clone)]
struct CountingProgram {
    ops: Vec<Op>,
    pos: usize,
    emitted: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ThreadProgram for CountingProgram {
    fn next_op(&mut self, _last: Option<u64>) -> Option<Op> {
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
            self.emitted
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        op
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }
}

#[test]
fn rollback_reexecutes_ops_from_the_checkpoint() {
    // Core 0 speculates past a fence while core 1 invalidates its marks.
    let emitted = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let shared = Addr(0x500);
    let mut ops = vec![Op::store(Addr(0x100), 1), Op::Fence(FenceKind::Full)];
    for i in 0..10 {
        ops.push(Op::load(shared.offset(i * 8))); // same block: conflict bait
    }
    let victim = CountingProgram {
        ops: ops.clone(),
        pos: 0,
        emitted: emitted.clone(),
    };
    let attacker = ScriptProgram::new(vec![
        Op::Compute(40),
        Op::store(shared, 99),
        Op::Compute(40),
        Op::store(shared, 100),
    ]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::on_demand(),
        vec![boxed(victim), boxed(attacker)],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    let stats = m.merged_stats();
    assert!(
        stats.get("spec.rollbacks") > 0,
        "the attacker must force a rollback"
    );
    // Program was asked for more ops than it has: re-execution happened.
    assert!(
        emitted.load(std::sync::atomic::Ordering::Relaxed) > ops.len() as u64,
        "rollback must re-drive the program: emitted {} of {}",
        emitted.load(std::sync::atomic::Ordering::Relaxed),
        ops.len()
    );
    // Retired op count is exact (no double retire).
    assert_eq!(m.core(CoreId(0)).retired_ops(), ops.len() as u64);
}

/// Plays `ops` in order and records every value a consuming load hands
/// back, replayed loads included.
#[derive(Debug, Clone)]
struct RecordingProgram {
    ops: Vec<Op>,
    pos: usize,
    consumed: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}

impl ThreadProgram for RecordingProgram {
    fn next_op(&mut self, last: Option<u64>) -> Option<Op> {
        if let Some(v) = last {
            self.consumed.lock().unwrap().push(v);
        }
        let op = self.ops.get(self.pos).copied();
        self.pos += usize::from(op.is_some());
        op
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }
}

#[test]
fn rollback_drops_fills_that_arrive_after_it() {
    // Far memory: every cold miss takes 400+ cycles. Core 0 buffers three
    // cold stores (drained one at a time, so its fence cannot commit for
    // ~1 200 cycles), speculates past the fence, consumes a load of
    // `shared`, and then sends three cold loads to far memory. Core 1's
    // store to `shared` lands while those loads are in flight: the
    // rollback discards them, and their fills arrive afterwards for ops
    // that no longer exist.
    let shared = Addr(0x500);
    let consumed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let ops = vec![
        Op::store(Addr(0x1000), 1),
        Op::store(Addr(0x2000), 2),
        Op::store(Addr(0x3000), 3),
        Op::Fence(FenceKind::Full),
        Op::Load {
            addr: shared,
            tag: MemTag::Data,
            consume: true,
        },
        Op::load(Addr(0x10000)),
        Op::load(Addr(0x20000)),
        Op::load(Addr(0x30000)),
    ];
    let victim = RecordingProgram {
        ops: ops.clone(),
        pos: 0,
        consumed: consumed.clone(),
    };
    let attacker = ScriptProgram::new(vec![Op::Compute(600), Op::store(shared, 99)]);
    let cfg = MachineConfig::builder()
        .cores(2)
        .dram(4, 400, 24)
        .build()
        .unwrap();
    let ms = MachineSpec::baseline(ConsistencyModel::Rmo)
        .with_machine(cfg)
        .with_spec(SpecConfig::on_demand());
    let mut m = Machine::new(&ms, vec![boxed(victim), boxed(attacker)]);
    let s = m.run(1_000_000);
    assert!(
        s.finished,
        "a fill for a discarded op must not wedge the core"
    );
    assert!(m.merged_stats().get("spec.rollbacks") > 0);
    assert_eq!(m.core(CoreId(0)).retired_ops(), ops.len() as u64);
    let consumed = consumed.lock().unwrap();
    assert_eq!(
        consumed.first(),
        Some(&0),
        "the speculative load read the old value"
    );
    assert_eq!(
        consumed.last(),
        Some(&99),
        "the replayed load consumes the conflicting store's value"
    );
    assert_eq!(m.mem().read(shared), 99);
    assert_eq!(m.mem().read(Addr(0x3000)), 3);
}

#[test]
fn backoff_reexecution_is_non_speculative() {
    // After a rollback, the replayed ordering point must stall for real:
    // spec.backoffs_cleared counts exactly the rollbacks that replayed.
    let shared = Addr(0x700);
    let mk_victim = || {
        let mut ops = vec![Op::store(Addr(0x100), 1), Op::Fence(FenceKind::Full)];
        for i in 0..8 {
            ops.push(Op::store(shared.offset((i % 2) * 8), i));
        }
        boxed(ScriptProgram::new(ops))
    };
    let attacker = ScriptProgram::new(vec![
        Op::Compute(30),
        Op::Load {
            addr: shared,
            tag: MemTag::Data,
            consume: false,
        },
        Op::Compute(30),
        Op::Load {
            addr: shared,
            tag: MemTag::Data,
            consume: false,
        },
    ]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::on_demand(),
        vec![mk_victim(), boxed(attacker)],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    let stats = m.merged_stats();
    assert_eq!(
        stats.get("spec.rollbacks"),
        stats.get("spec.backoffs_cleared"),
        "every rollback must complete its non-speculative replay"
    );
}

#[test]
fn overflow_abort_preserves_correctness() {
    // A tiny per-store CAM forces overflow aborts mid-epoch; the final
    // memory state must still be exact.
    let mut ops = vec![Op::Fence(FenceKind::Full)];
    for i in 0..24 {
        ops.push(Op::store(Addr(0x1000 + i * 64), i));
    }
    ops.push(Op::Fence(FenceKind::Full));
    for i in 0..24 {
        ops.push(Op::store(Addr(0x3000 + i * 64), 100 + i));
    }
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::per_store(2),
        vec![boxed(ScriptProgram::new(ops))],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    for i in 0..24 {
        assert_eq!(m.mem().read(Addr(0x1000 + i * 64)), i);
        assert_eq!(m.mem().read(Addr(0x3000 + i * 64)), 100 + i);
    }
}

#[test]
fn load_forwards_from_older_rob_store() {
    // A load right behind a store to the same address must return the
    // stored value even before the store drains.
    let a = Addr(0x2000);
    let p = ScriptProgram::new(vec![
        Op::store(a, 77),
        Op::Load {
            addr: a,
            tag: MemTag::Data,
            consume: true,
        },
        // The consumed value steers nothing here, but consume forces the
        // core to resolve it.
    ]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::disabled(),
        vec![boxed(p)],
    );
    let s = m.run(100_000);
    assert!(s.finished);
    assert_eq!(m.mem().read(a), 77);
}

#[test]
fn load_waits_for_older_same_address_rmw() {
    // load(gen) after rmw(gen) in the same thread must observe the rmw —
    // the regression behind the lu livelock.
    #[derive(Debug, Clone)]
    struct RmwThenRead {
        addr: Addr,
        phase: u8,
        observed: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl ThreadProgram for RmwThenRead {
        fn next_op(&mut self, last: Option<u64>) -> Option<Op> {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Some(Op::Rmw {
                        addr: self.addr,
                        rmw: RmwOp::FetchAdd(5),
                        tag: MemTag::Data,
                        consume: false,
                    })
                }
                1 => {
                    self.phase = 2;
                    Some(Op::Load {
                        addr: self.addr,
                        tag: MemTag::Data,
                        consume: true,
                    })
                }
                2 => {
                    self.observed.store(
                        last.expect("consumed value"),
                        std::sync::atomic::Ordering::Relaxed,
                    );
                    None
                }
                _ => None,
            }
        }
        fn snapshot(&self) -> Box<dyn ThreadProgram> {
            Box::new(self.clone())
        }
    }
    for model in ConsistencyModel::all() {
        for spec in [SpecConfig::disabled(), SpecConfig::on_demand()] {
            let observed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
            let p = RmwThenRead {
                addr: Addr(0x2040),
                phase: 0,
                observed: observed.clone(),
            };
            let mut m = machine(model, spec, vec![boxed(p)]);
            let s = m.run(100_000);
            assert!(s.finished);
            assert_eq!(
                observed.load(std::sync::atomic::Ordering::Relaxed),
                5,
                "under {model} {spec:?}"
            );
        }
    }
}

#[test]
fn epoch_cap_bounds_wasted_work() {
    // With a tiny epoch cap, no rollback can waste more than the cap.
    let shared = Addr(0x900);
    let mk = |base: u64| {
        let mut ops = Vec::new();
        for i in 0..40 {
            ops.push(Op::store(Addr(base + i * 64), i));
            ops.push(Op::Fence(FenceKind::Full));
            ops.push(Op::store(shared, i));
        }
        boxed(ScriptProgram::new(ops))
    };
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::on_demand()
            .with_max_epoch_ops(8)
            .without_adaptive_backoff(),
        vec![mk(0x4000), mk(0x8000)],
    );
    let s = m.run(2_000_000);
    assert!(s.finished);
    let stats = m.merged_stats();
    let rollbacks = stats.get("spec.rollbacks");
    if rollbacks > 0 {
        let mean_waste = stats.get("spec.wasted_ops") as f64 / rollbacks as f64;
        assert!(
            mean_waste <= 9.0,
            "mean wasted ops {mean_waste} exceeds cap+1"
        );
    }
}

#[test]
fn disabled_speculation_never_opens_epochs() {
    let p = ScriptProgram::new(vec![
        Op::store(Addr(0), 1),
        Op::Fence(FenceKind::Full),
        Op::load(Addr(0x100)),
    ]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::disabled(),
        vec![boxed(p)],
    );
    m.run(100_000);
    assert_eq!(m.merged_stats().get("spec.epochs"), 0);
}

#[test]
fn spec_depth_histogram_populates_under_sc() {
    let mut ops = Vec::new();
    for i in 0..32 {
        ops.push(Op::load(Addr(0x1000 + (i % 8) * 64)));
        ops.push(Op::store(Addr(0x2000 + (i % 8) * 64), i));
    }
    let mut m = machine(
        ConsistencyModel::Sc,
        SpecConfig::on_demand(),
        vec![boxed(ScriptProgram::new(ops))],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    let depth = m.spec_depth();
    assert!(depth.count() > 0, "committed epochs must record depths");
    assert!(depth.mean() > 0.0);
}

#[test]
fn sb_occupancy_histogram_tracks_pressure() {
    let mut ops = Vec::new();
    for i in 0..64 {
        ops.push(Op::store(Addr(0x1000 + i * 64), i));
    }
    let mut m = machine(
        ConsistencyModel::Tso,
        SpecConfig::disabled(),
        vec![boxed(ScriptProgram::new(ops))],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    let occ = m.sb_occupancy();
    assert!(
        occ.max() >= 2,
        "a store burst must fill the SB: max {}",
        occ.max()
    );
    assert!(occ.max() <= 16, "SB occupancy cannot exceed capacity");
}

#[test]
fn fence_kinds_have_ordered_costs_under_rmo() {
    // full >= release ~ acquire >= none, measured on a store+load pattern.
    let cycles = |fence: Option<FenceKind>| {
        let mut ops = Vec::new();
        for i in 0..16 {
            ops.push(Op::store(Addr(0x1000 + i * 64), i));
            if let Some(k) = fence {
                ops.push(Op::Fence(k));
            }
            ops.push(Op::load(Addr(0x9000 + i * 64)));
        }
        let mut m = machine(
            ConsistencyModel::Rmo,
            SpecConfig::disabled(),
            vec![boxed(ScriptProgram::new(ops))],
        );
        let s = m.run(1_000_000);
        assert!(s.finished);
        s.cycles
    };
    let none = cycles(None);
    let release = cycles(Some(FenceKind::Release));
    let acquire = cycles(Some(FenceKind::Acquire));
    let full = cycles(Some(FenceKind::Full));
    assert!(full >= release, "full {full} < release {release}");
    assert!(full >= acquire, "full {full} < acquire {acquire}");
    assert!(
        full > none,
        "full fence must cost something: {full} vs {none}"
    );
}

#[test]
fn continuous_mode_still_commits_at_program_end() {
    // A short program under continuous mode never reaches the commit
    // interval; the final commit must still flush the overlay.
    let a = Addr(0x3000);
    let p = ScriptProgram::new(vec![
        Op::store(Addr(0x100), 1),
        Op::Fence(FenceKind::Full), // opens an epoch under RMO
        Op::store(a, 42),
    ]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::continuous(),
        vec![boxed(p)],
    );
    let s = m.run(100_000);
    assert!(s.finished);
    assert_eq!(m.mem().read(a), 42, "final commit must publish the store");
}

#[test]
fn violations_on_committed_epochs_are_stale() {
    // Mark, commit, then remote write: no rollback should occur.
    let a = Addr(0x600);
    let reader = ScriptProgram::new(vec![
        Op::Fence(FenceKind::Full),
        Op::load(a),
        Op::Compute(500), // idle long enough for the commit to land
    ]);
    let writer = ScriptProgram::new(vec![Op::Compute(200), Op::store(a, 9)]);
    let mut m = machine(
        ConsistencyModel::Rmo,
        SpecConfig::on_demand(),
        vec![boxed(reader), boxed(writer)],
    );
    let s = m.run(1_000_000);
    assert!(s.finished);
    assert_eq!(m.mem().read(a), 9);
}
