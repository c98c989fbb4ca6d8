//! The simulator workloads: a fixed list of runs simulated pass after
//! pass for `--seconds`, each run's result checked against a reference.
//!
//! * `sim-dense` — every simulated core busy almost every cycle, so the
//!   core/L1/directory/fabric tick code does the work and the wake wheel
//!   is pure overhead.
//! * `sim-sparse` — mostly idle machines, so the wake wheel and the
//!   idle-gap replay do the work. A scheduler change that helps one of
//!   the pair and costs the other shows up across it.
//! * `sim-mesh` — 256 cores on a 2-D mesh: a big machine whose build,
//!   `Machine::new` and mesh routing weigh in. Its traced run also times
//!   `ParallelEpoch { workers: 2 }` against the wake scheduler; that
//!   comparison stays out of the end-to-end metrics because two shard
//!   threads on a shared 2-vCPU host swing 1.2–5.6 s per pass.
//!
//! The reference for seed 7 is the committed `seed7.digests` table (the
//! SHA-256 of each run's scheduler-free fingerprint under the naive
//! loop); for any other seed it is one naive run per experiment, made
//! before set-up. Each run may simulate at most 10× the cycles it needs
//! on seed 7, so a seed that livelocks costs seconds and counts as a
//! failed operation instead of hanging the benchmark.

use std::collections::BTreeMap;
use std::time::Instant;

use tenways_cpu::{
    ConsistencyModel, Machine, MachineSpec, Op, ScriptProgram, SpecConfig, ThreadProgram,
};
use tenways_sim::json::ToJson;
use tenways_sim::{sha256_hex, Addr, AtomicsConfig, MachineConfig};
use tenways_waste::{
    EnergyModel, EnergyReport, Experiment, RunRecord, SchedMode, WasteBreakdown, WasteCategory,
};
use tenways_workloads::{WorkloadKind, WorkloadParams};

use crate::loadgen::median;
use crate::trace::Tracer;
use crate::{host, Opts, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dense,
    Sparse,
    Mesh,
}

/// What a run simulates.
#[derive(Debug, Clone, Copy)]
enum Program {
    Kernel(WorkloadKind),
    /// One core computing every cycle while the rest fetch eight cold
    /// lines from far memory and finish: the shape the wake scheduler
    /// exists for. No suite kernel has it (their spinners poll).
    Mixed {
        busy_ops: u64,
    },
}

#[derive(Debug, Clone)]
struct RunSpec {
    label: &'static str,
    program: Program,
    threads: usize,
    scale: u64,
    machine: MachineConfig,
    model: ConsistencyModel,
    spec: SpecConfig,
    atomics: AtomicsConfig,
}

impl RunSpec {
    fn new(label: &'static str, program: Program, threads: usize, scale: u64) -> RunSpec {
        RunSpec {
            label,
            program,
            threads,
            scale,
            machine: machine(threads, None, false),
            model: ConsistencyModel::Tso,
            spec: SpecConfig::disabled(),
            atomics: AtomicsConfig::default(),
        }
    }
}

fn machine(cores: usize, dram_latency: Option<u64>, mesh: bool) -> MachineConfig {
    let mut b = MachineConfig::builder().cores(cores).mesh(mesh);
    if let Some(latency) = dram_latency {
        b = b.dram(4, latency, 48);
    }
    b.build().expect("benchmark machine configs are valid")
}

fn runs(workload: Workload) -> Vec<RunSpec> {
    match workload {
        Workload::Dense => vec![
            RunSpec {
                model: ConsistencyModel::Rmo,
                atomics: AtomicsConfig::schweizer(),
                ..RunSpec::new(
                    "mcs/rmo/schweizer",
                    Program::Kernel(WorkloadKind::McsLock),
                    8,
                    24,
                )
            },
            // `zeus` rather than `oltp`: both are lock-heavy commercial
            // kernels, but `oltp` livelocks on some seeds at this size.
            RunSpec {
                model: ConsistencyModel::Sc,
                ..RunSpec::new("zeus/sc", Program::Kernel(WorkloadKind::ZeusLike), 8, 512)
            },
            RunSpec::new(
                "ocean/tso",
                Program::Kernel(WorkloadKind::OceanLike),
                8,
                128,
            ),
            RunSpec {
                model: ConsistencyModel::Sc,
                spec: SpecConfig::on_demand(),
                ..RunSpec::new(
                    "apache/sc+if",
                    Program::Kernel(WorkloadKind::ApacheLike),
                    8,
                    512,
                )
            },
        ],
        Workload::Sparse => vec![
            RunSpec {
                machine: machine(2, Some(4000), false),
                ..RunSpec::new(
                    "dss/tso/2t/remote4000",
                    Program::Kernel(WorkloadKind::DssLike),
                    2,
                    128,
                )
            },
            RunSpec {
                machine: machine(8, Some(400), false),
                ..RunSpec::new(
                    "dss/tso/dram400",
                    Program::Kernel(WorkloadKind::DssLike),
                    8,
                    32,
                )
            },
            RunSpec {
                machine: machine(16, Some(4000), false),
                ..RunSpec::new(
                    "mixed/1busy15idle/remote4000",
                    Program::Mixed {
                        busy_ops: 1_500_000,
                    },
                    16,
                    1,
                )
            },
        ],
        Workload::Mesh => vec![RunSpec {
            machine: machine(256, None, true),
            ..RunSpec::new(
                "ocean/tso/256c/mesh",
                Program::Kernel(WorkloadKind::OceanLike),
                256,
                1,
            )
        }],
    }
}

fn programs(spec: &RunSpec, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
    match spec.program {
        Program::Kernel(kind) => kind.build(&WorkloadParams {
            threads: spec.threads,
            scale: spec.scale,
            seed,
        }),
        Program::Mixed { busy_ops } => {
            let mut programs: Vec<Box<dyn ThreadProgram>> = Vec::with_capacity(spec.threads);
            programs.push(Box::new(ScriptProgram::new(
                (0..busy_ops).map(|_| Op::Compute(2)).collect::<Vec<_>>(),
            )));
            for c in 1..spec.threads as u64 {
                programs.push(Box::new(ScriptProgram::new(
                    (0..8u64)
                        .map(|i| Op::load(Addr(0x100_0000 * c + 0x400 * i)))
                        .collect::<Vec<_>>(),
                )));
            }
            programs
        }
    }
}

/// One run through the layers one by one — build, `Machine::new`,
/// `Machine::run`, report — with a span around each. It does what
/// `Experiment::run` does, so the record (and its digest) is the same.
fn execute(
    spec: &RunSpec,
    seed: u64,
    sched: SchedMode,
    limit: u64,
    tr: &mut Tracer,
    id: u64,
) -> RunRecord {
    let programs = tr.span("workloads.build", id, |_| programs(spec, seed));
    let ms = MachineSpec::baseline(spec.model)
        .with_machine(spec.machine.clone())
        .with_spec(spec.spec)
        .with_atomics(spec.atomics);
    let mut m = tr.span("cpu.machine_new", id, |_| Machine::new(&ms, programs));
    m.set_sched(sched);
    let summary = tr.span("cpu.run", id, |_| m.run(limit));
    let (stats, breakdown, energy) = tr.span("waste.report", id, |_| {
        let stats = m.merged_stats();
        let breakdown = WasteBreakdown::from_stats(&stats);
        let energy = EnergyReport::from_stats(
            &EnergyModel::default(),
            &stats,
            summary.cycles,
            spec.threads,
            summary.retired_ops,
        );
        (stats, breakdown, energy)
    });
    let label = match spec.program {
        Program::Kernel(kind) => kind.name().to_string(),
        Program::Mixed { .. } => "mixed".to_string(),
    };
    RunRecord {
        label,
        model: spec.model,
        spec: spec.spec,
        atomics: spec.atomics,
        sched: sched.label(),
        summary,
        stats,
        breakdown,
        energy,
        sb_occupancy: m.sb_occupancy(),
        spec_depth: m.spec_depth(),
    }
}

/// One run the way users run it: `Experiment::run` for suite kernels,
/// the `Machine` API for the mixed machine.
fn run_plain(spec: &RunSpec, seed: u64, sched: SchedMode, limit: u64) -> Result<RunRecord, String> {
    match spec.program {
        Program::Kernel(kind) => Experiment::new(kind)
            .params(WorkloadParams {
                threads: spec.threads,
                scale: spec.scale,
                seed,
            })
            .machine(spec.machine.clone())
            .model(spec.model)
            .spec(spec.spec)
            .atomics(spec.atomics)
            .sched(sched)
            .cycle_limit(limit)
            .run()
            .map_err(|e| e.to_string()),
        Program::Mixed { .. } => Ok(execute(spec, seed, sched, limit, &mut Tracer::off(), 0)),
    }
}

pub fn digest(record: &RunRecord) -> String {
    sha256_hex(record.fingerprint().as_bytes())
}

/// `label → (cycles, digest)` of every run on seed 7, from the naive loop.
fn seed7_table() -> BTreeMap<&'static str, (u64, &'static str)> {
    include_str!("../seed7.digests")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed seed7.digests line `{l}`");
            (f[0], (f[1].parse().expect("cycle count"), f[2]))
        })
        .collect()
}

/// Simulated counts and host time of one pass over the run list.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    /// Host seconds inside the runs (checks excluded).
    wall_s: f64,
    /// Process CPU seconds over the whole pass (checks included: they
    /// cost well under 1% of it).
    cpu_s: f64,
    ops: u64,
    cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    dir_requests: u64,
    noc_sent: u64,
    dram: u64,
    useful: u64,
    attributed: u64,
}

impl Pass {
    fn add(&mut self, r: &RunRecord, wall_s: f64) {
        let s = &r.stats;
        self.wall_s += wall_s;
        self.ops += r.summary.retired_ops;
        self.cycles += r.summary.cycles;
        self.l1_hits += s.get("l1.hits");
        self.l1_misses += s.get("l1.misses");
        self.dir_requests += s.get("dir.requests");
        self.noc_sent += s.get("noc.sent");
        self.dram += s.get("dram.accesses");
        self.useful += r.breakdown.get(WasteCategory::Useful);
        self.attributed += r.breakdown.total();
    }

    fn events(&self) -> u64 {
        self.l1_hits + self.l1_misses + self.dir_requests + self.noc_sent
    }
}

/// A workload's runs with their references and cycle limits.
struct Bench {
    runs: Vec<RunSpec>,
    seed: u64,
    limits: Vec<u64>,
    refs: Vec<String>,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Result<Bench, String> {
        let runs = runs(workload);
        let table = seed7_table();
        let mut limits = Vec::new();
        let mut refs = Vec::new();
        for spec in &runs {
            let &(cycles, digest7) = table
                .get(spec.label)
                .ok_or_else(|| format!("no seed-7 digest for {}", spec.label))?;
            let limit = 10 * cycles;
            refs.push(if seed == 7 {
                digest7.to_string()
            } else {
                digest(&run_plain(spec, seed, SchedMode::Naive, limit)?)
            });
            limits.push(limit);
        }
        Ok(Bench {
            runs,
            seed,
            limits,
            refs,
        })
    }

    /// One pass under `sched`. With the tracer on, runs go through
    /// [`execute`] inside `sim.run` spans.
    fn pass(&self, sched: SchedMode, tr: &mut Tracer, id: u64, out: &mut Outcome) -> Pass {
        let mut pass = Pass::default();
        let cpu_before = host::process_cpu_s();
        tr.span("sim.pass", id, |tr| {
            for (i, spec) in self.runs.iter().enumerate() {
                let run_id = id * self.runs.len() as u64 + i as u64;
                let started = Instant::now();
                let result = if tr.is_on() {
                    Ok(tr.span("sim.run", run_id, |tr| {
                        execute(spec, self.seed, sched, self.limits[i], tr, run_id)
                    }))
                } else {
                    run_plain(spec, self.seed, sched, self.limits[i])
                };
                let wall_s = started.elapsed().as_secs_f64();
                out.attempted += 1;
                let record = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.fail(format!("({}, seed {}): {e}", spec.label, self.seed));
                        continue;
                    }
                };
                if tr.is_on() {
                    tr.span("sim.record_json", run_id, |_| record.to_json().to_string());
                }
                if !record.summary.finished {
                    out.fail(format!(
                        "unfinished run ({}, seed {}) at the {}-cycle limit",
                        spec.label, self.seed, self.limits[i]
                    ));
                } else if digest(&record) != self.refs[i] {
                    out.fail(format!(
                        "({}, seed {}) differs from its reference",
                        spec.label, self.seed
                    ));
                }
                pass.add(&record, wall_s);
            }
        });
        pass.cpu_s = host::process_cpu_s() - cpu_before;
        pass
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Alternating pairs of comparison passes in a traced run.
const COMPARE_PAIRS: usize = 2;

/// The default scheduler, which every measured pass uses.
const WAKE: SchedMode = SchedMode::ComponentWake;

/// The epoch-parallel scheduler the mesh's traced run compares against.
const EPOCH2: SchedMode = SchedMode::ParallelEpoch { workers: 2 };

pub fn run(workload: Workload, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let bench = Bench::new(workload, opts.seed)?;
    let mut off = Tracer::off();

    // Set-up is one discarded warm-up pass, checked like any other. Each
    // pass runs beside a canary, which scales its CPU time to the
    // reference host.
    let mut scaled_pass = |out: &mut Outcome, id: u64| {
        let canary = out.canary();
        let pass = bench.pass(WAKE, &mut off, id, out);
        (pass, host::ref_cpu_s(pass.cpu_s, canary))
    };
    let setups = if opts.trace { 1 } else { SETUPS };
    let setup: Vec<Pass> = (0..setups).map(|_| scaled_pass(out, 0).0).collect();
    out.setup_cpu_s.extend(setup.iter().map(|p| p.cpu_s));

    if !opts.trace {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds {
            passes.push(scaled_pass(out, passes.len() as u64));
        }
        let per = |f: fn(&(Pass, f64)) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        out.set("ops_per_ref_cpu_s", per(|(p, ref_s)| p.ops as f64 / ref_s));
        out.note(format!(
            "{} passes of {} runs; {} simulated ops and {} cycles per pass; median pass {:.1} ms wall, {:.0} simulated ops per wall second, {:.0} per CPU second; set-up {:.3} s wall, {:.3} s CPU",
            passes.len(),
            bench.runs.len(),
            passes[0].0.ops,
            passes[0].0.cycles,
            per(|(p, _)| p.wall_s) * 1e3,
            per(|(p, _)| p.ops as f64 / p.wall_s),
            per(|(p, _)| p.ops as f64 / p.cpu_s),
            median(&setup.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            median(&out.setup_cpu_s),
        ));
        return Ok(());
    }

    // Traced: plain passes alternate with passes decomposed by layer, so
    // both see the same host and their difference is the span overhead.
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds {
        out.canary();
        let id = (plain.len() + traced.len()) as u64;
        if id.is_multiple_of(2) {
            plain.push(bench.pass(WAKE, &mut off, id, out));
        } else {
            traced.push(bench.pass(WAKE, &mut tr, id, out));
        }
    }
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    out.set("host.trace_overhead_frac", traced_wall / plain_wall - 1.0);

    let sum = |f: fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    let st = tr.self_times();
    let run_ns = st.get("cpu.run").map_or(0, |s| s.self_ns) as f64;
    out.set("cpu.run_ns_per_op", run_ns / sum(|p| p.ops as f64));
    out.set("cpu.run_ns_per_cycle", run_ns / sum(|p| p.cycles as f64));
    out.set("cpu.run_ns_per_event", run_ns / sum(|p| p.events() as f64));
    let mean_ms = |name: &str| st.get(name).map_or(0.0, |s| s.mean(1e6));
    out.set("cpu.machine_new_ms", mean_ms("cpu.machine_new"));
    out.set("workloads.build_ms", mean_ms("workloads.build"));
    out.set("waste.report_ms", mean_ms("waste.report"));
    out.set("sim.record_json_ms", mean_ms("sim.record_json"));

    // Simulated counts of one pass: identical on every pass and under
    // every scheduler, so any perf change must leave them exactly equal.
    let p = traced[0];
    out.set("coherence.l1_accesses", (p.l1_hits + p.l1_misses) as f64);
    out.set(
        "coherence.l1_miss_frac",
        p.l1_misses as f64 / (p.l1_hits + p.l1_misses).max(1) as f64,
    );
    out.set("coherence.dir_requests", p.dir_requests as f64);
    out.set("noc.sent", p.noc_sent as f64);
    out.set("mem.dram_accesses", p.dram as f64);
    out.set(
        "waste.useful_frac",
        p.useful as f64 / p.attributed.max(1) as f64,
    );

    // Scheduler comparisons against the wake loop, in alternating pairs
    // so host drift cancels: the naive reference loop on dense and
    // sparse, two epoch-parallel shard workers on the mesh.
    let other = match workload {
        Workload::Mesh => EPOCH2,
        Workload::Dense | Workload::Sparse => SchedMode::Naive,
    };
    let (mut wake, mut others) = (Vec::new(), Vec::new());
    for pair in 0..COMPARE_PAIRS {
        let order = if pair % 2 == 0 {
            [WAKE, other]
        } else {
            [other, WAKE]
        };
        for sched in order {
            out.canary();
            let pass = bench.pass(sched, &mut off, 0, out);
            if sched == WAKE {
                wake.push(pass);
            } else {
                others.push(pass);
            }
        }
    }
    let wall = |v: &[Pass]| median(&v.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let wake_over_other = wall(&wake) / wall(&others);
    match workload {
        Workload::Mesh => {
            out.set("cpu.epoch_speedup", wake_over_other);
            let cpu: f64 = others.iter().map(|p| p.cpu_s).sum();
            let busy = cpu / (2.0 * others.iter().map(|p| p.wall_s).sum::<f64>());
            out.set("cpu.epoch_busy_frac", busy);
        }
        Workload::Dense | Workload::Sparse => out.set("cpu.wake_vs_naive", wake_over_other),
    }
    out.tracer = Some(tr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every run of every workload has a committed seed-7 reference, and
    /// the layer-by-layer path reproduces `Experiment::run` exactly.
    #[test]
    fn seed7_table_covers_every_run_and_execute_matches_experiment() {
        let table = seed7_table();
        for w in [Workload::Dense, Workload::Sparse, Workload::Mesh] {
            for spec in runs(w) {
                assert!(table.contains_key(spec.label), "{}", spec.label);
            }
        }
        let spec = &runs(Workload::Dense)[2];
        let limit = 10 * table[spec.label].0;
        let plain = run_plain(spec, 7, SchedMode::ComponentWake, limit).unwrap();
        let traced = execute(
            spec,
            7,
            SchedMode::ComponentWake,
            limit,
            &mut Tracer::off(),
            0,
        );
        assert_eq!(digest(&plain), digest(&traced));
        assert_eq!(digest(&plain), table[spec.label].1);
    }

    /// Regenerates `seed7.digests`:
    /// `cargo test --release -- --ignored print_seed7_digests --nocapture`.
    #[test]
    #[ignore]
    fn print_seed7_digests() {
        println!("# label cycles sha256(RunRecord::fingerprint) -- seed 7, naive loop");
        for w in [Workload::Dense, Workload::Sparse, Workload::Mesh] {
            for spec in runs(w) {
                let r = run_plain(&spec, 7, SchedMode::Naive, 50_000_000).unwrap();
                assert!(r.summary.finished, "{}", spec.label);
                println!("{} {} {}", spec.label, r.summary.cycles, digest(&r));
            }
        }
    }
}
