//! Scheduler regression matrix: every accelerated run loop
//! (component-granular wake scheduling and epoch-parallel sharding) must
//! be **byte-for-byte** identical to naive per-cycle stepping — same
//! `RunRecord` fingerprint (stats, waste taxonomy, energy, summary;
//! everything except the scheduler's own provenance label) for every
//! workload under every consistency model, with speculation on and off.

use tenways_core::SpecConfig;
use tenways_cpu::ConsistencyModel;
use tenways_waste::{Experiment, SchedMode};
use tenways_workloads::{ContendedParams, WorkloadKind, WorkloadParams};

fn assert_ff_matches_naive(label: &str, exp: Experiment) {
    let naive = exp
        .clone()
        .sched(SchedMode::Naive)
        .run()
        .unwrap()
        .fingerprint();
    for mode in [
        SchedMode::ComponentWake,
        SchedMode::ParallelEpoch { workers: 2 },
    ] {
        let fast = exp.clone().sched(mode).run().unwrap();
        assert_eq!(
            fast.fingerprint(),
            naive,
            "{mode:?} diverged from naive stepping on {label}"
        );
    }
}

#[test]
fn ff_is_byte_identical_across_workloads_models_and_spec_modes() {
    let models = [
        ConsistencyModel::Sc,
        ConsistencyModel::Tso,
        ConsistencyModel::Rmo,
    ];
    let specs = [
        ("spec-off", SpecConfig::disabled()),
        ("spec-on", SpecConfig::on_demand()),
    ];
    for kind in WorkloadKind::all() {
        for model in models {
            for (spec_label, spec) in specs {
                let label = format!("{}/{:?}/{}", kind.name(), model, spec_label);
                let exp = Experiment::new(kind)
                    .params(WorkloadParams {
                        threads: 2,
                        scale: 1,
                        seed: 7,
                    })
                    .model(model)
                    .spec(spec);
                assert_ff_matches_naive(&label, exp);
            }
        }
    }
}

#[test]
fn ff_is_byte_identical_on_contended_microbenchmark() {
    // The contended kernel leans on locks, fences, and rollbacks — the
    // paths where skipped-cycle replay is most delicate.
    for spec in [SpecConfig::disabled(), SpecConfig::continuous()] {
        let exp = Experiment::contended(ContendedParams {
            threads: 4,
            ops_per_thread: 300,
            conflict_p: 0.3,
            hot_blocks: 4,
            fence_period: 8,
            seed: 11,
        })
        .model(ConsistencyModel::Sc)
        .spec(spec);
        assert_ff_matches_naive("contended/Sc", exp);
    }
}

#[test]
fn ff_is_byte_identical_under_high_dram_latency() {
    // Long quiescent gaps (the case fast-forward exists for): slow DRAM,
    // memory-bound scan workload.
    let machine = tenways_sim::MachineConfig::builder()
        .cores(2)
        .dram(4, 400, 48)
        .build()
        .unwrap();
    let exp = Experiment::new(WorkloadKind::DssLike)
        .params(WorkloadParams {
            threads: 2,
            scale: 2,
            seed: 3,
        })
        .machine(machine)
        .model(ConsistencyModel::Tso)
        .spec(SpecConfig::on_demand());
    assert_ff_matches_naive("dss/hi-dram", exp);
}
