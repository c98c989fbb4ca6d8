//! Shared harness for the tenways benchmark binaries.
//!
//! Every table and figure of the evaluation is regenerated by one binary in
//! `src/bin/` (see DESIGN.md §3 for the index). This library holds what
//! they share: canonical sizing built on the unified
//! [`SimConfig`], environment overrides, the
//! fail-soft [`parallel_map`] (runs are independent simulations, so
//! they scale across host cores; one failing or panicking job costs only
//! its own row), the grid-sweep layer behind `tenways sweep`
//! ([`grid`]), and the machine-readable results emitter every binary uses
//! to mirror its text output into `results/<id>.json`.
//!
//! Environment knobs:
//!
//! * `TENWAYS_CONFIG` — path to a TOML/JSON [`SimConfig`] file
//! * `TENWAYS_THREADS` — simulated cores per run (default 8)
//! * `TENWAYS_SCALE` — per-thread work units (default 8)
//! * `TENWAYS_SEED` — run seed (default 7)
//! * `TENWAYS_FAST=1` — quarter-scale smoke-test mode
//! * `TENWAYS_RESULTS_DIR` — where JSON results land (default `results/`)
//!
//! Precedence, lowest to highest: defaults, `TENWAYS_FAST`, the
//! `TENWAYS_CONFIG` file, then the individual `TENWAYS_*` variables.

use std::path::{Path, PathBuf};

use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, RunRecord, SimConfig};
use tenways_workloads::WorkloadParams;

mod alloc_count;
pub mod cache;
pub mod grid;
pub mod http;
pub mod router;
pub mod serve;
pub mod sweep;

/// The DetRng mutator the parser fuzz tests share, for the fuzz targets
/// of the HTTP readers and the cache-entry decoder.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../sim/tests/common/mod.rs"]
mod mutator;

pub use alloc_count::{allocations, CountingAlloc};
pub use cache::{CacheCounters, CacheStats, Record, ResultCache, CACHE_ENTRY_SCHEMA_VERSION};
pub use grid::{run_sweep, run_sweep_server, SweepParams, SweepPoint, SweepReport, SweepSpec};
pub use http::{HttpClient, HttpReply};
pub use router::{
    route_http, Router, RouterOptions, CLUSTER_STATS_SCHEMA_VERSION, SERVE_CLUSTER_STATS_SCHEMA,
};
pub use serve::{
    batch_body, check_workers, serve_http_shutdown, Answer, BatchReport, BatchStatus, ServeError,
    ServeOptions, ShardedCounter, SimService, WarmReport, MAX_BATCH_ITEMS, MAX_WORKERS,
    SERVE_RESPONSE_SCHEMA_VERSION,
};
pub use sweep::parallel_map;

/// Version of the serialized bench-rows JSON layout written by
/// [`write_results_json`]; bumped on any breaking change. Mirrored in
/// `results/schema/bench_rows.v1.json`.
pub const BENCH_ROWS_SCHEMA_VERSION: u64 = 1;

/// Canonical configuration for the evaluation runs: one [`SimConfig`]
/// (each binary picks its own workloads, so the `workload` field is only a
/// default) plus the environment overrides layered on top.
#[derive(Debug, Clone, Default)]
pub struct SuiteConfig {
    /// The unified simulation configuration the binaries derive runs from.
    pub sim: SimConfig,
}

impl SuiteConfig {
    /// Reads the canonical configuration: defaults, then `TENWAYS_FAST`
    /// downscaling, then the `TENWAYS_CONFIG` file (if set), then the
    /// individual `TENWAYS_THREADS`/`TENWAYS_SCALE`/`TENWAYS_SEED`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics with the loader's message if `TENWAYS_CONFIG` names a file
    /// that cannot be read or decoded — a broken sweep config should stop
    /// the whole sweep, not silently fall back to defaults.
    pub fn from_env() -> Self {
        let mut sim = SimConfig::default();
        if std::env::var("TENWAYS_FAST").is_ok() {
            sim.scale = 2;
        }
        if let Ok(path) = std::env::var("TENWAYS_CONFIG") {
            sim =
                SimConfig::load(Path::new(&path)).unwrap_or_else(|e| panic!("TENWAYS_CONFIG: {e}"));
        }
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
        if let Some(t) = get("TENWAYS_THREADS") {
            sim.threads = t as usize;
        }
        if let Some(s) = get("TENWAYS_SCALE") {
            sim.scale = s;
        }
        if let Some(s) = get("TENWAYS_SEED") {
            sim.seed = s;
        }
        SuiteConfig { sim }
    }

    /// Simulated cores (= workload threads).
    pub fn threads(&self) -> usize {
        self.sim.threads
    }

    /// Per-thread work units.
    pub fn scale(&self) -> u64 {
        self.sim.scale
    }

    /// Run seed.
    pub fn seed(&self) -> u64 {
        self.sim.seed
    }

    /// The workload parameters these settings imply.
    pub fn params(&self) -> WorkloadParams {
        self.sim.params()
    }
}

/// Runs a batch of labelled experiments in parallel across host threads
/// on the fail-soft [`parallel_map`], returning results in input order.
///
/// A job that fails (or panics) costs only its own row: siblings keep
/// running and their results stay in the batch. Binaries that need every
/// row chain [`SweepBatch::require_all`], which preserves the completed
/// rows in the results JSON before exiting non-zero.
pub fn run_parallel(jobs: Vec<(String, Experiment)>) -> SweepBatch<RunRecord> {
    SweepBatch::map(jobs, |exp| exp.run().map_err(|e| e.to_string()))
}

/// A batch's labelled results in input order, as [`run_parallel`]
/// returns them.
#[derive(Debug)]
pub struct SweepBatch<T = RunRecord> {
    /// `(label, result)` per job; an error reads `failed: …` or
    /// `panicked: …`.
    pub results: Vec<(String, Result<T, String>)>,
}

impl<T: Send + Sync> SweepBatch<T> {
    /// Runs `job` on every labelled item through [`parallel_map`] (host
    /// parallelism) and pairs each result with its label, in input order.
    pub fn map<I: Sync>(
        jobs: Vec<(String, I)>,
        job: impl Fn(&I) -> Result<T, String> + Sync,
    ) -> Self {
        let results = parallel_map(&jobs, None, |(_, item)| job(item), |_, _| {});
        SweepBatch {
            results: jobs
                .into_iter()
                .map(|(label, _)| label)
                .zip(results)
                .collect(),
        }
    }
}

impl SweepBatch<RunRecord> {
    /// Unwraps a batch the figure binaries need complete: on success
    /// returns the `(label, record)` pairs in input order; on any failure
    /// prints every failure, writes the per-row status document (so the
    /// completed sibling rows are preserved on disk) and exits 1.
    pub fn require_all(self, id: &str, title: &str, cfg: &SuiteConfig) -> Vec<(String, RunRecord)> {
        self.require_all_with(id, title, cfg, record_row)
    }
}

impl<T> SweepBatch<T> {
    /// Per-row status JSON: `row(label, value)` renders completed jobs
    /// (the `status` key is appended); failed jobs become
    /// `{label, status, error}` rows, so no completed sibling work is
    /// ever dropped from the results document.
    pub fn status_rows_with(&self, row: impl Fn(&str, &T) -> Json) -> Vec<Json> {
        self.results
            .iter()
            .map(|(label, result)| {
                let mut pairs = match result.as_ref().map(|value| row(label, value)) {
                    Ok(Json::Obj(pairs)) => pairs,
                    Ok(other) => vec![
                        ("label".to_string(), Json::from(label.clone())),
                        ("value".to_string(), other),
                    ],
                    Err(_) => vec![("label".to_string(), Json::from(label.clone()))],
                };
                match result {
                    Ok(_) => pairs.push(("status".to_string(), Json::from("ok"))),
                    Err(e) => {
                        pairs.push(("status".to_string(), Json::from("failed")));
                        pairs.push(("error".to_string(), Json::from(e.clone())));
                    }
                }
                Json::Obj(pairs)
            })
            .collect()
    }

    /// [`SweepBatch::require_all`] for batches of custom row types:
    /// `row(label, value)` renders a completed job for the failure-path
    /// results document.
    pub fn require_all_with(
        self,
        id: &str,
        title: &str,
        cfg: &SuiteConfig,
        row: impl Fn(&str, &T) -> Json,
    ) -> Vec<(String, T)> {
        let failed = self.results.iter().filter(|(_, r)| r.is_err()).count();
        if failed == 0 {
            return self
                .results
                .into_iter()
                .filter_map(|(label, r)| r.ok().map(|value| (label, value)))
                .collect();
        }
        for (label, result) in &self.results {
            if let Err(e) = result {
                eprintln!("[{id}] job `{label}` {e}");
            }
        }
        write_results_json(id, title, cfg, self.status_rows_with(row));
        eprintln!(
            "[{id}] {failed} job(s) failed; {} completed row(s) preserved in the results JSON",
            self.results.len() - failed
        );
        std::process::exit(1);
    }
}

/// Prints the standard figure header.
pub fn banner(id: &str, title: &str, cfg: &SuiteConfig) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!(
        "threads={} scale={} seed={}  (override via TENWAYS_THREADS/SCALE/SEED/CONFIG)",
        cfg.threads(),
        cfg.scale(),
        cfg.seed()
    );
    println!("==================================================================");
}

/// The canonical per-run JSON row every benchmark binary emits: the
/// headline numbers of one [`RunRecord`] under a sweep-point `label`.
/// Read off the record's `run_record.v1` document by [`record_row_json`],
/// so a simulated row and a cached or served one cannot drift apart.
pub fn record_row(label: &str, r: &RunRecord) -> Json {
    record_row_json(label, &r.to_json())
}

/// [`record_row`] built from an already-serialized `run_record.v1`
/// document — the row a cached or served record yields without
/// re-running anything. The one spelling of the `bench_rows.v1` row
/// fields; a field missing from `record` reads as zero.
pub fn record_row_json(label: &str, record: &Json) -> Json {
    let field = |section: &str, name: &str| record.get(section).and_then(|s| s.get(name));
    let int = |section, name| field(section, name).and_then(Json::as_u64).unwrap_or(0);
    let num = |section, name| field(section, name).and_then(Json::as_f64).unwrap_or(0.0);
    let consistency = ["sc_ordering", "fence_stall", "atomic_stall"]
        .into_iter()
        .map(|name| int("breakdown", name))
        .sum();
    Json::obj([
        ("label", Json::from(label)),
        ("cycles", Json::U64(int("summary", "cycles"))),
        (
            "finished",
            Json::Bool(
                field("summary", "finished")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            ),
        ),
        ("retired_ops", Json::U64(int("summary", "retired_ops"))),
        ("throughput", Json::F64(num("summary", "throughput"))),
        (
            "useful_fraction",
            Json::F64(num("breakdown", "useful_fraction")),
        ),
        ("consistency_cycles", Json::U64(consistency)),
        ("rollbacks", Json::U64(int("stats", "spec.rollbacks"))),
        ("ops_per_uj", Json::F64(num("energy", "ops_per_uj"))),
        ("total_nj", Json::F64(num("energy", "total_nj"))),
    ])
}

/// Where [`write_results_json`] puts its files: `$TENWAYS_RESULTS_DIR`, or
/// `results/` under the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("TENWAYS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Atomically writes `text` to `path` via the temp-file + rename pattern:
/// the document lands under `<path>.tmp` first and is renamed into place,
/// so a crash mid-write can never leave a torn or half-written file at
/// `path` — readers see either the old complete document or the new one.
///
/// Every JSON emitter in the workspace (figure results, sweep finals and
/// the result cache store) funnels through this.
pub fn write_text_atomic(path: &Path, text: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

/// [`write_text_atomic`] for a [`Json`] document, pretty-printed with a
/// trailing newline (the workspace's on-disk JSON convention).
pub fn write_json_atomic(path: &Path, doc: &Json) -> Result<(), String> {
    let mut text = doc.pretty();
    text.push('\n');
    write_text_atomic(path, &text)
}

/// Writes one figure/table's machine-readable results to
/// `results/<id>.json` (creating the directory as needed) and announces the
/// path on stdout. The document layout is
/// `{schema_version, id, title, config, rows}` where `config` is the
/// serialized [`SimConfig`] and each row usually comes from [`record_row`]
/// (binaries may append extra derived keys). The write is atomic
/// ([`write_json_atomic`]): an interrupted run never leaves a torn
/// results file.
///
/// # Panics
///
/// Panics if the results directory or file cannot be written — a sweep
/// whose results vanish should fail loudly.
pub fn write_results_json(id: &str, title: &str, cfg: &SuiteConfig, rows: Vec<Json>) -> PathBuf {
    let doc = Json::obj([
        ("schema_version", Json::U64(BENCH_ROWS_SCHEMA_VERSION)),
        ("id", Json::from(id)),
        ("title", Json::from(title)),
        ("config", cfg.sim.to_json()),
        ("rows", Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{id}.json"));
    write_json_atomic(&path, &doc).unwrap_or_else(|e| panic!("{e}"));
    println!("[results] wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenways_workloads::WorkloadKind;

    #[test]
    fn run_parallel_keeps_input_order() {
        let jobs: Vec<(String, Experiment)> = [(2usize, 1u64), (3, 1), (2, 2)]
            .iter()
            .map(|&(threads, scale)| {
                (
                    format!("t{threads}s{scale}"),
                    Experiment::new(WorkloadKind::LuLike).params(WorkloadParams {
                        threads,
                        scale,
                        seed: 0,
                    }),
                )
            })
            .collect();
        let results = run_parallel(jobs).results;
        assert!(
            results.iter().all(|(_, r)| r.is_ok()),
            "all jobs complete: {results:?}"
        );
        let labels: Vec<&str> = results.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["t2s1", "t3s1", "t2s2"]);
        let record = results[1].1.as_ref().unwrap();
        assert_eq!(record.summary.core_done_at.len(), 3);
    }

    #[test]
    fn run_parallel_handles_empty_batch() {
        assert!(run_parallel(Vec::new()).results.is_empty());
    }

    #[test]
    fn run_parallel_failure_keeps_sibling_results() {
        // Regression: the old runner panicked on the first failing job,
        // poisoning the queue mutex and losing every sibling's work. A bad
        // experiment (unstartable machine) must now fail only its own row.
        let good = |label: &str| {
            (
                label.to_string(),
                Experiment::new(WorkloadKind::LuLike).params(WorkloadParams {
                    threads: 2,
                    scale: 1,
                    seed: 0,
                }),
            )
        };
        let bad = (
            "bad".to_string(),
            Experiment::new(WorkloadKind::LuLike).params(WorkloadParams {
                threads: 0,
                scale: 1,
                seed: 0,
            }),
        );
        let batch = run_parallel(vec![good("a"), bad, good("c")]);
        let failed = batch.results.iter().filter(|(_, r)| r.is_err()).count();
        assert_eq!(failed, 1);
        assert!(batch.results[0].1.is_ok());
        assert!(matches!(&batch.results[1].1, Err(e) if e.starts_with("failed: ")));
        assert!(batch.results[2].1.is_ok(), "sibling job must finish");
        let rows = batch.status_rows_with(record_row);
        assert_eq!(rows[1].get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(rows[2].get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn record_row_has_the_headline_keys() {
        let r = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 1,
                seed: 0,
            })
            .run()
            .unwrap();
        let row = record_row("lu", &r);
        for key in [
            "label",
            "cycles",
            "finished",
            "retired_ops",
            "throughput",
            "useful_fraction",
            "consistency_cycles",
            "rollbacks",
            "ops_per_uj",
            "total_nj",
        ] {
            assert!(row.get(key).is_some(), "row missing `{key}`");
        }
        assert_eq!(
            row.get("cycles").and_then(Json::as_u64),
            Some(r.summary.cycles)
        );
    }

    #[test]
    fn record_row_json_matches_record_row_field_for_field() {
        use tenways_cpu::{ConsistencyModel, SpecConfig};
        use tenways_workloads::ContendedParams;

        let lu = Experiment::new(WorkloadKind::LuLike).params(WorkloadParams {
            threads: 2,
            scale: 1,
            seed: 0,
        });
        let contended = Experiment::contended(ContendedParams {
            threads: 4,
            ops_per_thread: 300,
            conflict_p: 0.3,
            hot_blocks: 4,
            fence_period: 8,
            seed: 11,
        })
        .model(ConsistencyModel::Sc)
        .spec(SpecConfig::continuous());
        let runs = [
            ("finished", lu.clone().run().unwrap()),
            ("cut-off", lu.cycle_limit(500).run().unwrap()),
            ("contended", contended.run().unwrap()),
        ];
        assert!(runs[0].1.summary.finished);
        assert!(!runs[1].1.summary.finished, "cycle_limit must cut the run");
        assert!(runs[2].1.stats.get("spec.rollbacks") > 0, "needs rollbacks");
        for (label, r) in &runs {
            let from_record = Json::obj([
                ("label", Json::from(*label)),
                ("cycles", Json::U64(r.summary.cycles)),
                ("finished", Json::Bool(r.summary.finished)),
                ("retired_ops", Json::U64(r.summary.retired_ops)),
                ("throughput", Json::F64(r.summary.throughput())),
                ("useful_fraction", Json::F64(r.breakdown.useful_fraction())),
                (
                    "consistency_cycles",
                    Json::U64(r.breakdown.consistency_cycles()),
                ),
                ("rollbacks", Json::U64(r.stats.get("spec.rollbacks"))),
                ("ops_per_uj", Json::F64(r.energy.ops_per_uj())),
                ("total_nj", Json::F64(r.energy.total_nj())),
            ]);
            assert_eq!(record_row(label, r), from_record, "{label}");
            assert_eq!(
                record_row(label, r),
                record_row_json(label, &r.to_json()),
                "{label}"
            );
        }
    }
}
