//! The tenways benchmark: one workload per process, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Every input derives from `--seed` (default 7). The run prints one
//! `name value unit` line per metric, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`], and the spans are written as Chrome trace-event JSON
//! under `out/`. See `README.md` beside this package for the workloads,
//! the metric glossary and how the bounds were calibrated.

mod host;
mod loadgen;
mod serve;
mod sim;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tenways_sim::json::Json;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "sim-dense",
    "sim-sparse",
    "sim-mesh",
    "serve-hot",
    "serve-churn",
];

/// `(name, unit)` of every end-to-end metric; each workload sets each one.
/// Throughput and set-up are in reference CPU seconds: process CPU time,
/// which leaves out the time a shared host steals, scaled by a canary
/// run beside each pass or slice (see [`host::canary_s`]). Raw CPU and
/// wall-clock figures print as context lines.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_ref_cpu_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A workload that never calls
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("cpu.run_ns_per_op", "ns"),
    ("cpu.run_ns_per_cycle", "ns"),
    ("cpu.run_ns_per_event", "ns"),
    ("cpu.wake_vs_naive", "ratio"),
    ("cpu.epoch_speedup", "ratio"),
    ("cpu.epoch_busy_frac", "ratio"),
    ("cpu.machine_new_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("waste.report_ms", "ms"),
    ("waste.experiment_ms", "ms"),
    ("waste.useful_frac", "ratio"),
    ("coherence.l1_accesses", "count"),
    ("coherence.l1_miss_frac", "ratio"),
    ("coherence.dir_requests", "count"),
    ("noc.sent", "count"),
    ("mem.dram_accesses", "count"),
    ("sim.config_parse_us", "us"),
    ("sim.cache_key_us", "us"),
    ("sim.json_parse_us", "us"),
    ("sim.json_serialize_us", "us"),
    ("sim.record_json_ms", "ms"),
    ("cache.mem_get_us", "us"),
    ("cache.disk_get_us", "us"),
    ("cache.put_ms", "ms"),
    ("cache.hit_frac", "ratio"),
    ("cache.disk_hit_frac", "ratio"),
    ("cache.evicted", "count"),
    ("serve.submit_hit_us", "us"),
    ("serve.http_direct_us", "us"),
    ("serve.sim_runs", "count"),
    ("serve.joined", "count"),
    ("serve.dedup_frac", "ratio"),
    ("serve.rejected", "count"),
    ("serve.peak_in_flight", "count"),
    ("serve.batch_p50_ms", "ms"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("router.rerouted", "count"),
    ("loadgen.samples", "count"),
    ("loadgen.lat_p50_ms", "ms"),
    ("loadgen.lat_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("host.steal_frac", "ratio"),
    ("host.canary_ms", "ms"),
    ("host.nproc", "count"),
    ("host.trace_overhead_frac", "ratio"),
];

/// How one invocation runs its workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    pub canary_ms: Vec<f64>,
    /// Process CPU seconds of each set-up.
    pub setup_cpu_s: Vec<f64>,
    /// Context lines printed before the metrics (sample counts, tails).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Runs the canary before a pass or slice; returns its CPU seconds.
    pub fn canary(&mut self) -> f64 {
        let s = host::canary_s();
        self.canary_ms.push(s * 1e3);
        s
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Where traces and the serve workloads' cache directories go: `out/`
/// beside this package, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload and adds the host record.
pub fn run_workload(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    // Before the workload allocates, so `peak_rss_mb` can take it out.
    host::canary_table();
    let cpu_before = host::cpu_stat();
    let mut out = Outcome::default();
    match workload {
        "sim-dense" => sim::run(sim::Workload::Dense, opts, &mut out)?,
        "sim-sparse" => sim::run(sim::Workload::Sparse, opts, &mut out)?,
        "sim-mesh" => sim::run(sim::Workload::Mesh, opts, &mut out)?,
        "serve-hot" => serve::run(&serve::HOT, opts, &mut out)?,
        "serve-churn" => serve::run(&serve::CHURN, opts, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    let steal = host::steal_frac(cpu_before, host::cpu_stat());
    let canary = loadgen::median(&out.canary_ms);
    // A set-up is too short to pair with a canary of its own: one taken
    // beside it read up to 1.6 times the run's median. It is scaled by the
    // median canary of the whole run instead.
    let setup_cpu_s = loadgen::median(&out.setup_cpu_s);
    out.set("setup_s", host::ref_cpu_s(setup_cpu_s, canary / 1e3));
    out.set("host.steal_frac", steal);
    out.set("host.canary_ms", canary);
    out.set("host.nproc", host::nproc() as f64);
    out.note(format!(
        "host: canary median {canary:.3} ms over {} samples, steal {steal:.3}",
        out.canary_ms.len()
    ));
    out.set(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    if let Some(tracer) = &out.tracer {
        let path = out_dir().join(format!("trace-{workload}-seed{}.json", opts.seed));
        tracer.write_chrome(&path)?;
        out.note(format!("trace written to {}", path.display()));
    }
    Ok(out)
}

/// The `name value unit` lines and the final JSON object.
pub fn report(out: &Outcome, trace: bool) -> Result<(Vec<String>, Json), String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut lines = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        lines.push(format!("{name} {value} {unit}"));
        metrics.push((
            name,
            Json::obj([("value", Json::F64(value)), ("unit", Json::from(unit))]),
        ));
    }
    let failed = out.failures.len() as u64;
    let doc = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    Ok((lines, doc))
}

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 7,
        seconds: 15.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let result = run_workload(&workload, &opts).and_then(|out| {
        let (lines, doc) = report(&out, opts.trace)?;
        Ok((out, lines, doc))
    });
    let (out, lines, doc) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={} wall_s={:.1}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::nproc(),
        started.elapsed().as_secs_f64()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in out.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "# fail_frac {} ({} of {} operations)",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    );
    for line in lines {
        println!("{line}");
    }
    println!("{doc}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and workload list must match `BENCHMARK.json`.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let (w, o) =
            parse_args(&args("--workload serve-hot --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (w.as_str(), o.seed, o.seconds, o.trace),
            ("serve-hot", 3, 2.0, true)
        );
        assert_eq!(parse_args(&args("--workload sim-dense")).unwrap().1.seed, 7);
        for bad in [
            "",
            "--workload nope",
            "--workload sim-dense --trace 2",
            "--workload sim-dense --seed",
            "--workload sim-dense --seconds 0",
            "--workload sim-dense --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    /// Every workload at 1/20 of the calibrated length: each metric of
    /// `BENCHMARK.json` prints, end-to-end ones are positive, and no
    /// operation fails. Run with `cargo test --release`.
    fn smoke(workload: &str) {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                seconds: 0.75,
                trace,
            };
            let out = run_workload(workload, &opts).unwrap();
            assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
            assert!(out.attempted > 0);
            let (lines, doc) = report(&out, trace).unwrap();
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(lines.len(), table.len());
            let metrics = doc.get("metrics").unwrap();
            for (name, _) in table {
                let v = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                assert!(v.is_some(), "{workload}: {name} missing");
                if !trace {
                    assert!(v.unwrap() > 0.0, "{workload}: {name} = {v:?}");
                }
            }
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn smoke_sim_dense() {
        smoke("sim-dense");
    }

    #[test]
    fn smoke_sim_sparse() {
        smoke("sim-sparse");
    }

    #[test]
    fn smoke_sim_mesh() {
        smoke("sim-mesh");
    }

    #[test]
    fn smoke_serve_hot() {
        smoke("serve-hot");
    }

    #[test]
    fn smoke_serve_churn() {
        smoke("serve-churn");
    }
}
