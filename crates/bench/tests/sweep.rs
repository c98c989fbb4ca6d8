//! End-to-end tests for the grid sweep layer: failure containment,
//! degenerate grids, oversubscription, and resuming through the result
//! cache.

use std::path::{Path, PathBuf};

use tenways_bench::{run_sweep, SweepParams, SweepSpec};
use tenways_sim::json::Json;
use tenways_waste::{Experiment, SimConfig};

/// A fresh directory under the cargo-managed tmp dir for one test.
fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_params(dir: PathBuf) -> SweepParams {
    SweepParams {
        out_dir: dir,
        verbose: false,
        ..SweepParams::default()
    }
}

const TINY_GRID: &str = "workload = \"lu\"\nscale = 1\nseed = 3\n\n[sweep]\nid = \"tiny\"\n\n[grid]\nthreads = [2, 3]\nseed = [1, 2, 3, 4]\nmodel = [\"sc\", \"tso\"]\n";

#[test]
fn gridless_spec_runs_the_base_config_once() {
    let spec =
        SweepSpec::from_toml_str("workload = \"lu\"\nscale = 1\nthreads = 2\n", "solo").unwrap();
    let report = run_sweep(&spec, &quiet_params(out_dir("solo"))).unwrap();
    assert_eq!((report.ok, report.failed), (1, 0));
    let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("base"));
}

#[test]
fn empty_axis_writes_an_empty_document() {
    let spec =
        SweepSpec::from_toml_str("workload = \"lu\"\n\n[grid]\nthreads = []\n", "none").unwrap();
    let report = run_sweep(&spec, &quiet_params(out_dir("none"))).unwrap();
    assert_eq!((report.ok, report.failed), (0, 0));
    assert!(report.all_ok(), "an empty sweep has nothing to fail");
    let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
    assert!(rows.is_empty());
    assert!(report.path.exists());
}

#[test]
fn grid_larger_than_parallelism_completes_every_row() {
    // 16 points against 2 workers: more jobs than workers by construction,
    // and on most hosts more than available_parallelism would grant each.
    let spec = SweepSpec::from_toml_str(TINY_GRID, "x").unwrap();
    let points = spec.points().unwrap();
    assert_eq!(points.len(), 16);
    let params = SweepParams {
        workers: Some(2),
        ..quiet_params(out_dir("oversub"))
    };
    let report = run_sweep(&spec, &params).unwrap();
    assert_eq!((report.ok, report.failed), (16, 0));
    let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
    for (row, point) in rows.iter().zip(&points) {
        assert_eq!(
            row.get("label").and_then(Json::as_str),
            Some(point.label.as_str()),
            "rows stay in grid expansion order"
        );
        assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
        assert!(
            row.get("sim_ms").and_then(Json::as_f64).is_some(),
            "completed rows report their host wall time"
        );
        assert!(
            row.get("sim_cycles_per_sec")
                .and_then(Json::as_f64)
                .is_some(),
            "completed rows report simulation throughput"
        );
    }
}

#[test]
fn a_failing_point_costs_only_its_own_row() {
    // threads = 0 passes config typing but fails when the experiment
    // starts — the injected per-row failure.
    let grid = "workload = \"lu\"\nscale = 1\n\n[sweep]\nid = \"failsoft\"\n\n[grid]\nthreads = [2, 3, 4, 0]\n";
    let spec = SweepSpec::from_toml_str(grid, "x").unwrap();
    let dir = out_dir("failsoft");
    let report = run_sweep(&spec, &quiet_params(dir.clone())).unwrap();
    assert_eq!((report.ok, report.failed), (3, 1));
    let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 4, "failed points still get a row");
    let failed = &rows[3];
    assert_eq!(failed.get("status").and_then(Json::as_str), Some("failed"));
    assert!(failed.get("error").and_then(Json::as_str).is_some());
    assert!(failed.get("cycles").is_none(), "no fabricated metrics");
    for row in &rows[..3] {
        assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
        assert!(row.get("cycles").and_then(Json::as_u64).is_some());
    }
    // A rerun takes the three ok rows from the cache and runs only the
    // failing point again.
    let rerun = run_sweep(&spec, &quiet_params(dir)).unwrap();
    assert_eq!((rerun.ok, rerun.failed, rerun.cached), (3, 1, 3));
    let rows = rerun.doc.get("rows").and_then(Json::as_array).unwrap();
    assert!(rows[..3]
        .iter()
        .all(|row| row.get("cache").and_then(Json::as_str) == Some("hit")));
    assert_eq!(rows[3].get("status").and_then(Json::as_str), Some("failed"));
}

/// Renders a sweep document with its per-row host timing fields zeroed
/// and its cache markers removed. `sim_ms` / `sim_cycles_per_sec` measure
/// wall-clock on *this* host during *this* run, and a row answered from
/// the cache reads 0 for both and carries `"cache": "hit"`; everything
/// else must not differ between two runs of the same sweep.
fn masked(doc: &Json) -> String {
    let mut doc = doc.clone();
    if let Json::Obj(pairs) = &mut doc {
        if let Some((_, Json::Arr(rows))) = pairs.iter_mut().find(|(k, _)| k == "rows") {
            for row in rows {
                if let Json::Obj(fields) = row {
                    fields.retain(|(key, _)| key != "cache");
                    for (key, value) in fields.iter_mut() {
                        if key == "sim_ms" || key == "sim_cycles_per_sec" {
                            *value = Json::F64(0.0);
                        }
                    }
                }
            }
        }
    }
    doc.pretty()
}

/// The document a sweep wrote, parsed.
fn written(dir: &Path, id: &str) -> Json {
    let text = std::fs::read_to_string(dir.join(format!("{id}.json"))).unwrap();
    Json::parse(&text).unwrap()
}

#[test]
fn a_cut_sweep_resumes_from_the_cache_to_the_uninterrupted_document() {
    let spec = SweepSpec::from_toml_str(TINY_GRID, "x").unwrap();

    // Reference: one uninterrupted run.
    let full_dir = out_dir("resume_full");
    run_sweep(&spec, &quiet_params(full_dir.clone())).unwrap();
    let reference = written(&full_dir, "tiny");

    // Interrupted: a run of 6 of the 16 points under the same id and
    // cache, then the whole grid, which takes those 6 from the cache and
    // simulates the other 10.
    let cut_dir = out_dir("resume_cut");
    let part = TINY_GRID.replace("seed = [1, 2, 3, 4]", "seed = [1, 2, 3]");
    let part = part.replace("model = [\"sc\", \"tso\"]", "model = [\"tso\"]");
    let part = SweepSpec::from_toml_str(&part, "x").unwrap();
    let report = run_sweep(&part, &quiet_params(cut_dir.clone())).unwrap();
    assert_eq!((report.ok, report.failed), (6, 0));

    let report = run_sweep(&spec, &quiet_params(cut_dir.clone())).unwrap();
    assert_eq!((report.ok, report.failed), (16, 0));
    assert_eq!(report.cached, 6, "rows that ran before must not rerun");
    let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
    let simulated = rows.iter().filter(|row| row.get("cache").is_none());
    assert_eq!(simulated.count(), 10);
    assert_eq!(
        masked(&written(&cut_dir, "tiny")),
        masked(&reference),
        "a resumed sweep must equal the uninterrupted run apart from host \
         timing and cache markers"
    );
}

#[test]
fn a_changed_base_config_reruns_instead_of_resuming() {
    // Cut at scale 1 (only its threads = 2 point ran), then rerun the
    // same grid id over a scale-4 base: the cached scale-1 record must not
    // answer the scale-4 point.
    let grid = |scale: u64, threads: &str| {
        format!(
            "workload = \"lu\"\nscale = {scale}\n\n[sweep]\nid = \"stale\"\n\n\
             [grid]\nthreads = {threads}\n"
        )
    };
    let dir = out_dir("stale_base");
    let small = SweepSpec::from_toml_str(&grid(1, "[2]"), "x").unwrap();
    let report = run_sweep(&small, &quiet_params(dir.clone())).unwrap();
    assert_eq!((report.ok, report.failed), (1, 0));

    let large = SweepSpec::from_toml_str(&grid(4, "[2, 4]"), "x").unwrap();
    let rerun = run_sweep(&large, &quiet_params(dir)).unwrap();
    assert_eq!((rerun.ok, rerun.cached), (2, 0));
    let fresh = run_sweep(&large, &quiet_params(out_dir("stale_fresh"))).unwrap();
    assert_eq!(masked(&rerun.doc), masked(&fresh.doc));

    let cfg = SimConfig::from_toml_str("workload = \"lu\"\nthreads = 2\nscale = 4\n").unwrap();
    let record = Experiment::from_config(&cfg).unwrap().run().unwrap();
    let rows = rerun.doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(
        rows[0].get("cycles").and_then(Json::as_u64),
        Some(record.summary.cycles),
        "the threads=2 row must be the scale-4 run"
    );
}
