//! Simulator throughput — host-side cost of simulation, and the wall-clock
//! win from the wake scheduler.
//!
//! Each configuration runs twice over the identical workload: naive
//! per-cycle stepping (the reference loop) and the component-granular
//! wake scheduler (the default). The binary *fails* (exit 1) if the wake
//! run's record is not byte-identical to naive, so a smoke run doubles as
//! the scheduler regression gate in CI. Rows report simulated cycles per
//! wall second and retired ops per wall second for both modes, plus the
//! wake scheduler's speedup over naive; results land in
//! `results/sim_throughput.json` and are mirrored to
//! `BENCH_sim_throughput.json` at the current directory.
//!
//! A final big-mesh section (256 cores on a 2-D mesh) benchmarks the
//! epoch-parallel scheduler at 2/4/8 shard workers against the wake
//! scheduler, gating both on record identity and — where the host has the
//! hardware threads to run the shards concurrently — on
//! `speedup_vs_component_wake >= 1.0` at 4 workers (`gate_speedup_ok`).
//! One worker is not timed: it runs the wake scheduler itself.
//!
//! A last pass, after the timed ones, counts allocations with this
//! binary's global allocator: per `Experiment::run` of `lu/tso` at 2
//! threads and scale 1, and per run at scales 8 and 32 (8 threads) of four
//! kernels, with the marginal allocations per retired op between the two.
//! The sizes and seed are fixed, so smoke and full runs count the same
//! runs, and `ci.sh` holds each count to its committed row within 1%.
//!
//! Every row records `host_threads`, the host's available parallelism.

use std::time::Instant;

use tenways_bench::{
    allocations, banner, write_results_json, write_text_atomic, CountingAlloc, SuiteConfig,
};
use tenways_cpu::{
    ConsistencyModel, Machine, MachineSpec, Op, ScriptProgram, SpecConfig, ThreadProgram,
};
use tenways_sim::json::Json;
use tenways_sim::{Addr, AtomicsConfig, MachineConfig};
use tenways_waste::{Experiment, SchedMode};
use tenways_workloads::{WorkloadKind, WorkloadParams};

const ID: &str = "sim_throughput";
const TITLE: &str = "simulator throughput: wake scheduling vs naive";

/// The allocation pass reads its counts off this allocator.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations one run of `exp` makes, and the ops it retires, counted
/// after an uncounted warm-up run so one-time set-up stays out.
fn allocs_per_run(exp: &Experiment) -> (u64, u64) {
    exp.run().expect("warm-up run");
    let before = allocations();
    let record = exp.run().expect("counted run");
    let allocs = allocations() - before;
    (allocs, record.summary.retired_ops)
}

/// The allocation-count rows: fixed sizes, seed 7.
fn alloc_rows() -> Vec<Json> {
    let run_row = |label: String, (allocs, ops): (u64, u64)| {
        println!("allocs    : {label:<26} {allocs:>8} per run ({ops} ops)");
        Json::obj([
            ("label", Json::from(label)),
            ("retired_ops", Json::U64(ops)),
            ("allocs_per_run", Json::U64(allocs)),
            ("host_threads", Json::from(host_threads())),
        ])
    };
    let sized = |kind, model, threads, scale| {
        Experiment::new(kind)
            .params(WorkloadParams {
                threads,
                scale,
                seed: 7,
            })
            .model(model)
    };
    let mut rows = vec![run_row(
        "allocs/lu/tso/2t/s1".into(),
        allocs_per_run(&sized(WorkloadKind::LuLike, ConsistencyModel::Tso, 2, 1)),
    )];
    for (name, kind, model) in [
        ("dss/tso", WorkloadKind::DssLike, ConsistencyModel::Tso),
        ("ocean/tso", WorkloadKind::OceanLike, ConsistencyModel::Tso),
        ("lu/tso", WorkloadKind::LuLike, ConsistencyModel::Tso),
        ("zeus/sc", WorkloadKind::ZeusLike, ConsistencyModel::Sc),
    ] {
        let small = allocs_per_run(&sized(kind, model, 8, 8));
        let large = allocs_per_run(&sized(kind, model, 8, 32));
        rows.push(run_row(format!("allocs/{name}/8t/s8"), small));
        rows.push(run_row(format!("allocs/{name}/8t/s32"), large));
        // Set-up costs the same at both sizes, so the difference is what
        // the extra simulated work allocates.
        let per_op = (large.0 as f64 - small.0 as f64) / (large.1 - small.1) as f64;
        let label = format!("allocs/{name}/8t/per_op");
        println!("allocs    : {label:<26} {per_op:>8.3} per retired op");
        rows.push(Json::obj([
            ("label", Json::from(label)),
            ("allocs_per_op", Json::F64(per_op)),
            ("host_threads", Json::from(host_threads())),
        ]));
    }
    rows
}

struct Timed {
    cycles: u64,
    retired_ops: u64,
    finished: bool,
    wall_s: f64,
    /// Full run state, stringified — equality across modes is the gate.
    fingerprint: String,
}

/// Runs the workload `REPEATS` times and keeps the best wall time (the
/// runs are deterministic, so repeats only shave scheduler noise off
/// sub-100ms measurements).
const REPEATS: usize = 3;

fn best_of<F: FnMut() -> Timed>(mut run: F) -> Timed {
    let mut best: Option<Timed> = None;
    for _ in 0..REPEATS {
        let t = run();
        if best.as_ref().is_none_or(|b| t.wall_s < b.wall_s) {
            best = Some(t);
        }
    }
    best.expect("at least one repeat")
}

fn timed_exp(exp: &Experiment, sched: SchedMode) -> Timed {
    let exp = exp.clone().sched(sched);
    best_of(|| {
        let t0 = Instant::now();
        let record = exp.run().unwrap_or_else(|e| panic!("run failed: {e}"));
        let wall_s = t0.elapsed().as_secs_f64();
        Timed {
            cycles: record.summary.cycles,
            retired_ops: record.summary.retired_ops,
            finished: record.summary.finished,
            wall_s,
            fingerprint: record.fingerprint(),
        }
    })
}

/// The wake scheduler's headline machine: one core computes the whole run
/// while the rest fetch a few cold lines from far memory and then sit
/// finished. The machine as a whole is never quiescent (core 0 always
/// makes progress), yet per-component wakeup parks the 15 done complexes
/// and the drained NoC and pays O(1 complex) per cycle instead of O(16).
///
/// Built on [`Machine`] directly because the workload suite has no kernel
/// with this shape: its spinners *poll* (busy), they do not park.
fn mixed_machine(busy_ops: u64, idle_cores: usize) -> Machine {
    let cores = idle_cores + 1;
    let cfg = MachineConfig::builder()
        .cores(cores)
        .dram(4, 4000, 48)
        .build()
        .expect("mixed machine config");
    let ms = MachineSpec::baseline(ConsistencyModel::Tso).with_machine(cfg);
    let mut programs: Vec<Box<dyn ThreadProgram>> = Vec::with_capacity(cores);
    // Core 0: pure compute, no memory traffic — busy every single cycle.
    let busy: Vec<Op> = (0..busy_ops).map(|_| Op::Compute(2)).collect();
    programs.push(Box::new(ScriptProgram::new(busy)));
    // Cores 1..: eight strided cold loads each against 4000-cycle DRAM,
    // then done for the rest of the run.
    for c in 1..cores as u64 {
        let ops: Vec<Op> = (0..8u64)
            .map(|i| Op::load(Addr(0x100_0000 * c + 0x400 * i)))
            .collect();
        programs.push(Box::new(ScriptProgram::new(ops)));
    }
    Machine::new(&ms, programs)
}

fn timed_mixed(busy_ops: u64, idle_cores: usize, sched: SchedMode) -> Timed {
    best_of(|| {
        let mut m = mixed_machine(busy_ops, idle_cores);
        m.set_sched(sched);
        let t0 = Instant::now();
        let summary = m.run(10_000_000);
        let wall_s = t0.elapsed().as_secs_f64();
        Timed {
            cycles: summary.cycles,
            retired_ops: summary.retired_ops,
            finished: summary.finished,
            wall_s,
            fingerprint: format!(
                "{summary:?}\n{:?}\n{:?}",
                m.merged_stats(),
                m.sb_occupancy()
            ),
        }
    })
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn mode_row(label: &str, mode: &str, t: &Timed, naive: Option<&Timed>) -> Json {
    let per_sec = |n: u64| {
        if t.wall_s > 0.0 {
            n as f64 / t.wall_s
        } else {
            0.0
        }
    };
    let mut fields = vec![
        ("label", Json::from(label)),
        ("mode", Json::from(mode)),
        ("cycles", Json::U64(t.cycles)),
        ("finished", Json::Bool(t.finished)),
        ("retired_ops", Json::U64(t.retired_ops)),
        ("wall_s", Json::F64(t.wall_s)),
        ("sim_cycles_per_sec", Json::F64(per_sec(t.cycles))),
        ("retired_ops_per_sec", Json::F64(per_sec(t.retired_ops))),
        ("host_threads", Json::from(host_threads())),
    ];
    if let Some(b) = naive.filter(|_| t.wall_s > 0.0) {
        fields.push(("speedup_vs_naive", Json::F64(b.wall_s / t.wall_s)));
    }
    Json::obj(fields)
}

fn main() {
    let cfg = SuiteConfig::from_env();
    banner(ID, TITLE, &cfg);
    let fast_smoke = std::env::var("TENWAYS_FAST").is_ok();

    let params = WorkloadParams {
        threads: cfg.threads(),
        scale: cfg.scale(),
        seed: cfg.seed(),
    };
    let hi_dram = MachineConfig::builder()
        .cores(cfg.threads())
        .dram(4, 400, 48)
        .build()
        .expect("hi-dram machine config");
    // Far-memory latencies (CXL/disaggregated, ~microseconds) at low
    // concurrency: quiescent gaps dominate the timeline, the regime the
    // wake scheduler is built for. Thread count is pinned so the row stays
    // latency-bound whatever TENWAYS_THREADS says.
    let remote_mem = MachineConfig::builder()
        .cores(2)
        .dram(4, 4000, 48)
        .build()
        .expect("remote-memory machine config");

    // A compute-leaning kernel, lock-heavy commercial kernels, and three
    // memory-latency-bound scans (default, slow, and far-memory DRAM) —
    // the last rows are where sleeping through gaps must pay off.
    let configs: Vec<(String, Experiment)> = vec![
        (
            "lu/tso".into(),
            Experiment::new(WorkloadKind::LuLike).params(params),
        ),
        (
            "ocean/tso".into(),
            Experiment::new(WorkloadKind::OceanLike).params(params),
        ),
        (
            "oltp/sc".into(),
            Experiment::new(WorkloadKind::OltpLike)
                .params(params)
                .model(ConsistencyModel::Sc),
        ),
        (
            "apache/sc+if".into(),
            Experiment::new(WorkloadKind::ApacheLike)
                .params(params)
                .model(ConsistencyModel::Sc)
                .spec(SpecConfig::on_demand()),
        ),
        (
            "dss/tso".into(),
            Experiment::new(WorkloadKind::DssLike).params(params),
        ),
        // A contended queue lock under priced atomics: every core fights
        // over one MCS tail word, so the run is all short spin phases and
        // cross-core handoffs — the sync-heavy shape whose scheduler cost
        // profile none of the scan rows exercise.
        (
            "mcs/rmo/schweizer".into(),
            Experiment::new(WorkloadKind::McsLock)
                .params(params)
                .model(ConsistencyModel::Rmo)
                .atomics(AtomicsConfig::schweizer()),
        ),
        (
            "dss/tso/dram400".into(),
            Experiment::new(WorkloadKind::DssLike)
                .params(params)
                .machine(hi_dram),
        ),
        (
            "dss/tso/2t/remote4000".into(),
            Experiment::new(WorkloadKind::DssLike)
                .params(WorkloadParams {
                    threads: 2,
                    scale: cfg.scale(),
                    seed: cfg.seed(),
                })
                .machine(remote_mem),
        ),
    ];
    // The mixed active/idle headline row: 1 busy core + 15 idle/waiting.
    let mixed_label = "mixed/1busy15idle/remote4000";
    // Long busy phase so the steady state (1 busy, 15 parked) dominates
    // the ~4000-cycle startup where the idle cores' misses are in flight.
    let mixed_busy_ops: u64 = if fast_smoke { 4_000 } else { 150_000 };
    const MIXED_IDLE_CORES: usize = 15;

    println!(
        "{:<30}{:>12}{:>11}{:>9}",
        "config", "cycles", "naive s", "wake"
    );
    let mut rows = Vec::new();
    let mut mismatches = 0usize;
    let mut bench = |label: &str, run: &mut dyn FnMut(SchedMode) -> Timed| {
        // Timing runs are serial on purpose: parallel siblings would steal
        // host cores and corrupt the wall-clock numbers.
        let naive = run(SchedMode::Naive);
        let wake = run(SchedMode::ComponentWake);
        if wake.fingerprint != naive.fingerprint {
            eprintln!("[{ID}] SCHEDULER MISMATCH on {label}/component_wake: run records differ");
            mismatches += 1;
        }
        let speedup = if wake.wall_s > 0.0 {
            naive.wall_s / wake.wall_s
        } else {
            0.0
        };
        println!(
            "{:<30}{:>12}{:>11.3}{:>8.1}x",
            label, naive.cycles, naive.wall_s, speedup,
        );
        rows.push(mode_row(label, "naive", &naive, None));
        rows.push(mode_row(label, "component_wake", &wake, Some(&naive)));
    };
    for (label, exp) in &configs {
        bench(label, &mut |sched| timed_exp(exp, sched));
    }
    bench(mixed_label, &mut |sched| {
        timed_mixed(mixed_busy_ops, MIXED_IDLE_CORES, sched)
    });

    // ---- Epoch-parallel scaling on a big mesh -------------------------
    //
    // 256 cores on a 2-D mesh is the machine the epoch scheduler is for:
    // enough scheduling units to shard, and a mesh topology whose minimum
    // hop latency gives a multi-cycle safe lookahead window. The scale is
    // pinned (not `cfg.scale()`) so the row measures the same ~40k-cycle
    // run everywhere.
    let big_mesh_label = "ocean/tso/256c/mesh";
    let big_mesh = MachineConfig::builder()
        .cores(256)
        .mesh(true)
        .build()
        .expect("big-mesh machine config");
    let big_exp = Experiment::new(WorkloadKind::OceanLike)
        .params(WorkloadParams {
            threads: 256,
            scale: 1,
            seed: cfg.seed(),
        })
        .machine(big_mesh);
    let host_threads = host_threads();
    const EPOCH_WORKERS: [usize; 3] = [2, 4, 8];
    const GATE_WORKERS: usize = 4;

    let wake = timed_exp(&big_exp, SchedMode::ComponentWake);
    rows.push(mode_row(big_mesh_label, "component_wake", &wake, None));
    println!(
        "{:<30}{:>12}{:>11.3}  (component_wake baseline, host_threads={host_threads})",
        big_mesh_label, wake.cycles, wake.wall_s
    );
    for workers in EPOCH_WORKERS {
        let t = timed_exp(&big_exp, SchedMode::ParallelEpoch { workers });
        if t.fingerprint != wake.fingerprint {
            eprintln!(
                "[{ID}] SCHEDULER MISMATCH on {big_mesh_label}/parallel-epoch w{workers}: \
                 run records differ"
            );
            mismatches += 1;
        }
        let speedup = if t.wall_s > 0.0 {
            wake.wall_s / t.wall_s
        } else {
            0.0
        };
        println!(
            "{:<30}{:>12}{:>11.3}  (parallel-epoch w{workers}, {speedup:.2}x vs wake)",
            big_mesh_label, t.cycles, t.wall_s
        );
        let mut fields = vec![
            ("label", Json::from(big_mesh_label)),
            ("mode", Json::from("parallel-epoch")),
            ("workers", Json::from(workers)),
            ("cycles", Json::U64(t.cycles)),
            ("finished", Json::Bool(t.finished)),
            ("retired_ops", Json::U64(t.retired_ops)),
            ("wall_s", Json::F64(t.wall_s)),
            ("sim_cycles_per_sec", Json::F64(t.cycles as f64 / t.wall_s)),
            ("speedup_vs_component_wake", Json::F64(speedup)),
            ("host_threads", Json::from(host_threads)),
        ];
        if workers == GATE_WORKERS {
            // The speedup gate binds only where it is physically
            // meaningful: the shard workers need their own hardware
            // threads to run concurrently. On smaller hosts (CI
            // containers are often 1-2 vCPUs) the row still proves
            // record identity, and the gate passes vacuously — the
            // `gate_host_capable` field records which case this was.
            let capable = host_threads > GATE_WORKERS;
            let ok = !capable || speedup >= 1.0;
            if !ok {
                eprintln!(
                    "[{ID}] SPEEDUP GATE FAILED on {big_mesh_label}: parallel-epoch \
                     w{GATE_WORKERS} is {speedup:.2}x vs component_wake on a \
                     {host_threads}-thread host"
                );
                mismatches += 1;
            }
            fields.push(("gate_host_capable", Json::Bool(capable)));
            fields.push(("gate_speedup_ok", Json::Bool(ok)));
        }
        rows.push(Json::obj(fields));
    }

    // A pass of its own after every timed one: its runs perturb no timing.
    rows.extend(alloc_rows());

    let path = write_results_json(ID, TITLE, &cfg, rows);
    let text = std::fs::read_to_string(&path).expect("re-read results JSON");
    write_text_atomic(std::path::Path::new("BENCH_sim_throughput.json"), &text)
        .expect("write BENCH_sim_throughput.json");
    println!("[results] wrote BENCH_sim_throughput.json");

    if mismatches > 0 {
        eprintln!("[{ID}] {mismatches} run(s) diverged across schedulers");
        std::process::exit(1);
    }
}
