//! Property test: randomly drawn small configurations must produce
//! byte-identical `RunRecord` fingerprints under all run-loop schedulers
//! (naive stepping, component-granular wake scheduling, and
//! epoch-parallel sharding at several worker counts — one, a few, and one
//! per core).
//!
//! The point of drawing configurations from a [`DetRng`] instead of
//! enumerating a fixed matrix is coverage of the *interactions*: odd
//! thread counts against mesh topologies, long DRAM latencies under
//! continuous speculation, tiny cycle limits that cut runs mid-gap. The
//! stream is seeded, so a failure reproduces exactly; bump `CASES` locally
//! to fuzz harder.

use tenways_core::SpecConfig;
use tenways_cpu::ConsistencyModel;
use tenways_sim::{DetRng, MachineConfig};
use tenways_waste::{Experiment, SchedMode};
use tenways_workloads::{ContendedParams, WorkloadKind, WorkloadParams};

const CASES: usize = 14;

/// Draws one experiment from the RNG stream. Sizes are deliberately small
/// (threads ≤ 4, scale ≤ 2) so the three full runs per case stay cheap.
fn draw(rng: &mut DetRng, case: usize) -> (String, Experiment, usize) {
    let threads = rng.range(1, 5) as usize;
    let scale = rng.range(1, 3);
    let seed = rng.next_u64();
    let model = *rng
        .choose(&[
            ConsistencyModel::Sc,
            ConsistencyModel::Tso,
            ConsistencyModel::Rmo,
        ])
        .unwrap();
    let spec = *rng
        .choose(&[
            SpecConfig::disabled(),
            SpecConfig::on_demand(),
            SpecConfig::continuous(),
        ])
        .unwrap();
    let dram_latency = *rng.choose(&[60, 400, 2500]).unwrap();
    let noc_latency = rng.range(1, 9);
    let machine = MachineConfig::builder()
        .cores(threads)
        .dram(4, dram_latency, 24)
        .noc(noc_latency, 1, 1)
        .mesh(rng.chance(0.3))
        .build()
        .expect("drawn machine config is valid");
    // Small limits on some cases force the cut-off to land mid-gap.
    let cycle_limit = if rng.chance(0.25) {
        rng.range(500, 5_000)
    } else {
        2_000_000
    };
    let exp = if rng.chance(0.3) {
        Experiment::contended(ContendedParams {
            threads,
            ops_per_thread: 60 * scale,
            conflict_p: rng.unit_f64(),
            hot_blocks: 4,
            fence_period: rng.range(4, 12),
            seed,
        })
    } else {
        let kind = *rng.choose(&WorkloadKind::all()).unwrap();
        Experiment::new(kind).params(WorkloadParams {
            threads,
            scale,
            seed,
        })
    };
    let exp = exp
        .machine(machine)
        .model(model)
        .spec(spec)
        .cycle_limit(cycle_limit);
    let label = format!(
        "case {case}: t={threads} scale={scale} model={model:?} dram={dram_latency} noc={noc_latency} limit={cycle_limit}"
    );
    (label, exp, threads)
}

/// Every modern-sync workload (queue locks, RCU, hazard pointers, flat
/// combining, work stealing) must fingerprint identically under all
/// three run-loop schedulers — their long spin phases and RMW-heavy
/// handoffs are exactly the shapes that punish a scheduler that wakes a
/// component one cycle late. Priced atomics are part of the sweep: the cost model
/// shifts completion times, which must shift them identically everywhere.
#[test]
fn modern_sync_workloads_are_byte_identical_across_all_schedulers() {
    for kind in WorkloadKind::modern_sync() {
        for atomics in [
            tenways_sim::AtomicsConfig::off(),
            tenways_sim::AtomicsConfig::schweizer(),
        ] {
            let exp = Experiment::new(kind)
                .params(WorkloadParams {
                    threads: 3,
                    scale: 1,
                    seed: 0xfeed,
                })
                .model(ConsistencyModel::Rmo)
                .atomics(atomics)
                .cycle_limit(2_000_000);
            let label = format!("{} (atomics free: {})", kind.name(), atomics.is_free());
            let naive = exp
                .clone()
                .sched(SchedMode::Naive)
                .run()
                .unwrap_or_else(|e| panic!("{label}: naive run failed: {e}"))
                .fingerprint();
            for mode in [
                SchedMode::ComponentWake,
                SchedMode::ParallelEpoch { workers: 2 },
            ] {
                let fast = exp
                    .clone()
                    .sched(mode)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: {mode:?} run failed: {e}"))
                    .fingerprint();
                assert_eq!(fast, naive, "{label}: {mode:?} diverged from naive");
            }
        }
    }
}

#[test]
fn random_configs_are_byte_identical_across_all_schedulers() {
    let mut rng = DetRng::seed(0x7e57_0dd5);
    for case in 0..CASES {
        let (label, exp, threads) = draw(&mut rng, case);
        let naive = exp
            .clone()
            .sched(SchedMode::Naive)
            .run()
            .unwrap_or_else(|e| panic!("{label}: naive run failed: {e}"))
            .fingerprint();
        // Worker counts: degenerate (1 falls back to sequential wake),
        // small, larger-than-most-machines, and exactly one per core.
        let modes = [
            SchedMode::ComponentWake,
            SchedMode::ParallelEpoch { workers: 1 },
            SchedMode::ParallelEpoch { workers: 2 },
            SchedMode::ParallelEpoch { workers: 4 },
            SchedMode::ParallelEpoch { workers: threads },
        ];
        for mode in modes {
            let fast = exp
                .clone()
                .sched(mode)
                .run()
                .unwrap_or_else(|e| panic!("{label}: {mode:?} run failed: {e}"))
                .fingerprint();
            assert_eq!(fast, naive, "{label}: {mode:?} diverged from naive");
        }
    }
}

/// Tracing follows the configured scheduler: every workload must record
/// the same events, in the same order, under each of them. A slept gap
/// must extend an open stall span by its full length, and a traced
/// epoch-parallel run must not let shard threads interleave their pushes.
#[test]
fn traces_are_identical_across_all_schedulers() {
    for kind in WorkloadKind::all() {
        for spec in [SpecConfig::disabled(), SpecConfig::on_demand()] {
            let exp = Experiment::new(kind)
                .params(WorkloadParams {
                    threads: 2,
                    scale: 1,
                    seed: 7,
                })
                .model(ConsistencyModel::Sc)
                .spec(spec);
            let label = format!("{}/{:?}", kind.name(), spec.mode);
            let traced = |mode: SchedMode| {
                let (record, events) = exp
                    .clone()
                    .sched(mode)
                    .run_traced(1 << 20)
                    .unwrap_or_else(|e| panic!("{label}: {mode:?} run failed: {e}"));
                (record.fingerprint(), events)
            };
            let (naive, naive_events) = traced(SchedMode::Naive);
            assert!(!naive_events.is_empty(), "{label}: empty trace");
            for mode in [
                SchedMode::ComponentWake,
                SchedMode::ParallelEpoch { workers: 2 },
            ] {
                let (fast, events) = traced(mode);
                assert_eq!(fast, naive, "{label}: {mode:?} record diverged");
                // Not `assert_eq!`: a failure would print both traces.
                assert!(events == naive_events, "{label}: {mode:?} trace diverged");
            }
        }
    }
}
