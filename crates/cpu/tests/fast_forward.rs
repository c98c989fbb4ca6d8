//! Machine-level fast-forward invariants: run-limit semantics must be
//! exact even when the limit lands in the middle of a skipped quiescent
//! gap, and every [`SchedMode`] must agree with `run_naive` on summaries
//! and stats.

use tenways_cpu::{
    ConsistencyModel, Machine, MachineSpec, Op, SchedMode, ScriptProgram, ThreadProgram,
};
use tenways_sim::{Addr, MachineConfig};

/// Two cores doing cold strided loads against slow DRAM: almost every
/// cycle is a quiescent wait, so every fast-forward jump is exercised.
fn machine() -> Machine {
    let cfg = MachineConfig::builder()
        .cores(2)
        .dram(4, 150, 24)
        .build()
        .unwrap();
    let ms = MachineSpec::baseline(ConsistencyModel::Tso).with_machine(cfg);
    let programs: Vec<Box<dyn ThreadProgram>> = (0..2u64)
        .map(|c| {
            let ops: Vec<Op> = (0..6u64)
                .flat_map(|i| {
                    [
                        Op::load(Addr(0x1_0000 * (c + 1) + 0x400 * i)),
                        Op::Compute(3),
                        Op::store(Addr(0x2_0000 * (c + 1) + 0x400 * i), i),
                    ]
                })
                .collect();
            Box::new(ScriptProgram::new(ops)) as Box<dyn ThreadProgram>
        })
        .collect();
    Machine::new(&ms, programs)
}

/// The accelerated schedulers (component-granular wake scheduling, and
/// epoch-parallel at several worker counts — including counts above the
/// core count, which clamp) against the naive reference.
const FAST_MODES: [SchedMode; 4] = [
    SchedMode::ComponentWake,
    SchedMode::ParallelEpoch { workers: 1 },
    SchedMode::ParallelEpoch { workers: 2 },
    SchedMode::ParallelEpoch { workers: 4 },
];

#[test]
fn limit_is_exact_even_mid_quiescent_gap() {
    // Find the natural run length first, then sweep every cut-off point
    // (each of which may land inside a skipped gap or a slept stretch).
    let full = machine().run(1_000_000);
    assert!(full.finished, "workload must finish unconstrained");
    let len = full.cycles;
    assert!(len > 100, "workload too short to exercise gaps: {len}");

    // Sweeping every cut-off point is quadratic in run length; cover the
    // first DRAM round-trips densely and the rest with a coprime stride so
    // limits land at every phase within skipped gaps.
    let limits = (0..=200u64).chain((200..=len + 2).step_by(7));
    for limit in limits {
        let mut naive = machine();
        let b = naive.run_naive(limit);
        for mode in FAST_MODES {
            let mut ff = machine();
            ff.set_sched(mode);
            let a = ff.run(limit);
            assert!(
                a.cycles <= limit,
                "{mode:?} overshot limit {limit}: {}",
                a.cycles
            );
            assert_eq!(a, b, "{mode:?} summary diverged at limit {limit}");
            assert_eq!(
                ff.merged_stats(),
                naive.merged_stats(),
                "{mode:?} stats diverged at limit {limit}"
            );
        }
    }
}

#[test]
fn every_sched_mode_agrees_with_naive_end_to_end() {
    let mut naive = machine();
    let b = naive.run_naive(1_000_000);
    for mode in FAST_MODES {
        let mut ff = machine();
        ff.set_sched(mode);
        let a = ff.run(1_000_000);
        assert_eq!(a, b, "{mode:?} summary diverged");
        assert_eq!(ff.merged_stats(), naive.merged_stats(), "{mode:?} stats");
        assert_eq!(
            ff.sb_occupancy(),
            naive.sb_occupancy(),
            "{mode:?}: store-buffer occupancy histograms diverged"
        );
        for addr in [0x2_0000u64, 0x2_0400, 0x4_0000] {
            assert_eq!(
                ff.mem().read(Addr(addr)),
                naive.mem().read(Addr(addr)),
                "{mode:?} memory image diverged at {addr:#x}"
            );
        }
    }
}
