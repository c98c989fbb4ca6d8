//! Grid sweeps: expand one TOML file into many [`SimConfig`] points, run
//! them on the fail-soft [`parallel_map`], and keep each record in the
//! content-addressed [`ResultCache`], so an interrupted sweep resumes
//! instead of restarting.
//!
//! # Grid file format
//!
//! A grid file is an ordinary [`SimConfig`] TOML document plus two extra
//! sections:
//!
//! ```toml
//! # Base configuration: any SimConfig key, same as `tenways --config`.
//! workload = "oltp"
//! scale = 4
//!
//! [sweep]              # optional sweep metadata
//! id = "oltp-scaling"  # default: the file stem
//! title = "OLTP scaling sweep"
//!
//! [grid]               # the cross product of these axes is the sweep
//! threads = [2, 4, 8, 16]
//! model = ["sc", "tso"]
//! "machine.dram_latency" = [100, 200]
//! ```
//!
//! Every `[grid]` key names a `SimConfig` field (dotted keys reach into
//! sections); each point overlays one value per axis onto the base config.
//! Axes expand in document order, first axis outermost. A file with no
//! `[grid]` section is a single-point sweep of the base config.
//!
//! # Resume
//!
//! A local sweep remembers what it ran only through the result cache
//! (`<out>/cache` unless [`SweepParams::cache_dir`] names another). Each
//! record is stored there as its simulation completes, and a point whose
//! [`cache key`](SimConfig::cache_key) is stored becomes a row without
//! simulating. The key covers the whole config and the simulator's
//! semantics version, so a rerun after a sweep was cut short runs only
//! what is missing, and a rerun after the base config or the simulator
//! changed runs what changed. A resumed document equals an uninterrupted
//! one apart from each row's host timing and its `"cache": "hit"` marker.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, ExperimentError, RunRecord, SimConfig};

use crate::cache::ResultCache;
use crate::http::HttpClient;
use crate::serve::{batch_body, first_appearances, MAX_BATCH_ITEMS};
use crate::sweep::parallel_map;
use crate::{record_row, record_row_json, BENCH_ROWS_SCHEMA_VERSION};

/// A parsed sweep specification: base config plus grid axes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep identifier; names the output files.
    pub id: String,
    /// Human title for the results document.
    pub title: Option<String>,
    /// The base configuration every point starts from.
    pub base: SimConfig,
    /// Grid axes in document order: `(key, values)`.
    pub grid: Vec<(String, Vec<Json>)>,
}

/// One expanded grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the expansion (stable across runs).
    pub index: usize,
    /// `key=value` pairs joined with `,`, or `"base"` for a gridless file.
    pub label: String,
    /// The axis assignments this point overlays onto the base.
    pub overlay: Vec<(String, Json)>,
    /// The fully resolved configuration.
    pub config: SimConfig,
}

impl SweepSpec {
    /// Parses a grid document from TOML text. `fallback_id` is used when
    /// the file has no `[sweep] id`.
    pub fn from_toml_str(text: &str, fallback_id: &str) -> Result<SweepSpec, String> {
        let doc = tenways_sim::toml::parse_toml(text).map_err(|e| e.to_string())?;
        SweepSpec::from_json(&doc, fallback_id)
    }

    /// Builds a spec from an already-parsed document tree.
    pub fn from_json(doc: &Json, fallback_id: &str) -> Result<SweepSpec, String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| format!("grid file must be a table, got {}", doc.type_name()))?;
        let mut id = fallback_id.to_string();
        let mut title = None;
        let mut grid = Vec::new();
        let mut base_pairs = Vec::new();
        for (key, value) in pairs {
            match key.as_str() {
                "sweep" => {
                    for (k, v) in value.as_object().ok_or("`[sweep]` must be a table")?.iter() {
                        match k.as_str() {
                            "id" => {
                                id = v.as_str().ok_or("`sweep.id` must be a string")?.to_string()
                            }
                            "title" => {
                                title = Some(
                                    v.as_str()
                                        .ok_or("`sweep.title` must be a string")?
                                        .to_string(),
                                )
                            }
                            other => return Err(format!("unknown `[sweep]` key `{other}`")),
                        }
                    }
                }
                "grid" => {
                    for (axis, values) in value.as_object().ok_or("`[grid]` must be a table")? {
                        let values = match values {
                            Json::Arr(items) => items.clone(),
                            // A scalar axis pins one value (a 1-wide axis).
                            other => vec![other.clone()],
                        };
                        if values
                            .iter()
                            .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)))
                        {
                            return Err(format!("grid axis `{axis}` must hold scalars"));
                        }
                        grid.push((axis.clone(), values));
                    }
                }
                _ => base_pairs.push((key.clone(), value.clone())),
            }
        }
        let mut base = SimConfig::default();
        base.apply_json(&Json::Obj(base_pairs))?;
        if id.is_empty() {
            return Err("sweep id must not be empty".to_string());
        }
        Ok(SweepSpec {
            id,
            title,
            base,
            grid,
        })
    }

    /// Loads a grid file; `.json` parses as JSON, everything else as TOML.
    /// The default sweep id is the file stem.
    pub fn load(path: &Path) -> Result<SweepSpec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            let doc = Json::parse(&text).map_err(|e| e.to_string())?;
            SweepSpec::from_json(&doc, stem)
        } else {
            SweepSpec::from_toml_str(&text, stem)
        }
    }

    /// The document title used for the results file.
    pub fn resolved_title(&self) -> String {
        self.title
            .clone()
            .unwrap_or_else(|| format!("parameter sweep `{}`", self.id))
    }

    /// How many points [`SweepSpec::points`] expands to, without
    /// expanding them: the product of the axis lengths, `None` when it
    /// overflows `usize`.
    pub(crate) fn point_count(&self) -> Option<usize> {
        self.grid
            .iter()
            .try_fold(1usize, |n, (_, values)| n.checked_mul(values.len()))
    }

    /// Expands the grid's cross product into configured points, first axis
    /// outermost. A mistyped or unknown axis value, or a workload no kernel
    /// answers to, is an error here — a broken grid should stop the sweep
    /// before any cycles are spent.
    pub fn points(&self) -> Result<Vec<SweepPoint>, String> {
        let mut overlays: Vec<Vec<(String, Json)>> = vec![Vec::new()];
        for (key, values) in &self.grid {
            let mut next = Vec::with_capacity(overlays.len() * values.len());
            for overlay in &overlays {
                for value in values {
                    let mut o = overlay.clone();
                    o.push((key.clone(), value.clone()));
                    next.push(o);
                }
            }
            overlays = next;
        }
        overlays
            .into_iter()
            .enumerate()
            .map(|(index, overlay)| {
                let mut config = self.base.clone();
                for (key, value) in &overlay {
                    config
                        .apply_json(&nested_overlay(key, value.clone()))
                        .map_err(|e| format!("grid axis `{key}`: {e}"))?;
                }
                check_experiment(&config)?;
                Ok(SweepPoint {
                    index,
                    label: point_label(&overlay),
                    overlay,
                    config,
                })
            })
            .collect()
    }
}

/// Refuses a config [`Experiment::from_config`] refuses: a workload that
/// names no kernel, or a `scale` over
/// [`MAX_SCALE`](tenways_waste::MAX_SCALE). Every decoder of
/// outside configs (grid points, `POST /run`, a `POST /batch` config list)
/// checks this, so such a config is refused before it reaches a worker.
pub(crate) fn check_experiment(config: &SimConfig) -> Result<(), String> {
    match Experiment::from_config(config) {
        Ok(_) => Ok(()),
        Err(e @ ExperimentError::UnknownWorkload(_)) => {
            Err(format!("config field `workload`: {e}"))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Wraps `value` into nested objects along a dotted `path`
/// (`"machine.dram_latency"` → `{"machine":{"dram_latency":value}}`).
fn nested_overlay(path: &str, value: Json) -> Json {
    let mut doc = value;
    for part in path.rsplit('.') {
        doc = Json::obj([(part, doc)]);
    }
    doc
}

fn scalar_text(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

fn point_label(overlay: &[(String, Json)]) -> String {
    if overlay.is_empty() {
        return "base".to_string();
    }
    overlay
        .iter()
        .map(|(k, v)| format!("{k}={}", scalar_text(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// How [`run_sweep`] executes and persists a sweep.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// How many points simulate at once; `None` is the host's
    /// parallelism.
    pub workers: Option<usize>,
    /// Directory for the final document.
    pub out_dir: PathBuf,
    /// The content-addressed [`ResultCache`] a local sweep consults and
    /// fills: points whose key is stored become rows without simulating,
    /// and each fresh record is stored as it completes. `None` (the
    /// default) is `<out_dir>/cache`.
    pub cache_dir: Option<PathBuf>,
    /// Emit per-row progress lines on stderr.
    pub verbose: bool,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            workers: None,
            out_dir: crate::results_dir(),
            cache_dir: None,
            verbose: false,
        }
    }
}

/// What a finished [`run_sweep`] produced.
#[derive(Debug)]
pub struct SweepReport {
    /// Where the final document was written.
    pub path: PathBuf,
    /// The final document.
    pub doc: Json,
    /// Rows that completed (including cached ones).
    pub ok: usize,
    /// Rows that ran and failed.
    pub failed: usize,
    /// How many `ok` rows came from a result cache instead of simulating:
    /// local cache hits and repeated keys in [`run_sweep`], or
    /// server-side `cached` answers in [`run_sweep_server`].
    pub cached: usize,
}

impl SweepReport {
    /// Whether every row completed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

/// How [`run_sweep`] answers a distinct key.
enum Answer {
    /// The result cache held its record.
    Hit(Json),
    /// This job of the batch simulated it.
    Job(usize),
}

/// Runs a sweep fail-soft: every point gets a row with status
/// `ok`/`failed`, and the `bench_rows.v1`-compatible document
/// lands in `<out>/<id>.json`.
///
/// Each distinct key is answered once, at its first appearance: from the
/// result cache when it holds the key, otherwise by one simulation whose
/// record goes into the cache as soon as it completes. A repeated key's
/// row is rendered from that record, as a cache hit is.
///
/// Returns `Err` only for infrastructure problems (unwritable output or
/// cache directory, malformed grid); per-job failures are reported in the
/// rows.
pub fn run_sweep(spec: &SweepSpec, params: &SweepParams) -> Result<SweepReport, String> {
    let points = spec.points()?;
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    let final_path = params.out_dir.join(format!("{}.json", spec.id));
    let cache_dir = params
        .cache_dir
        .clone()
        .unwrap_or_else(|| params.out_dir.join("cache"));
    // A sweep reads each key once, so a memory tier would only hold copies.
    let mut cache = ResultCache::open_budgeted(cache_dir, 0, None)?;

    let keys: Vec<String> = points.iter().map(|p| p.config.cache_key()).collect();
    let mut answers: HashMap<&str, Answer> = HashMap::new();
    let mut todo: Vec<usize> = Vec::new();
    for i in first_appearances(keys.iter().map(String::as_str)) {
        let answer = match cache.get(&keys[i]) {
            Some(record) => {
                if params.verbose {
                    eprintln!("[sweep {}] cached {}", spec.id, points[i].label);
                }
                Answer::Hit(record.to_json())
            }
            None => {
                todo.push(i);
                Answer::Job(todo.len() - 1)
            }
        };
        answers.insert(&keys[i], answer);
    }

    // Each job carries its own wall time (milliseconds) alongside the
    // record so rows can report simulation throughput; timing inside the
    // job excludes queueing.
    let simulate = |&i: &usize| -> Result<(RunRecord, f64), String> {
        let t0 = std::time::Instant::now();
        let record = Experiment::from_config(&points[i].config)
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?;
        Ok((record, t0.elapsed().as_secs_f64() * 1e3))
    };
    let store = |j: usize, result: &Result<(RunRecord, f64), String>| {
        let i = todo[j];
        match result {
            Ok((record, sim_ms)) => {
                if params.verbose {
                    eprintln!(
                        "[sweep {}] ok {} ({} cycles, {sim_ms:.1} ms)",
                        spec.id, points[i].label, record.summary.cycles
                    );
                }
                if let Err(e) = cache.put(&keys[i], record.to_json()) {
                    eprintln!("[sweep {}] cache write failed: {e}", spec.id);
                }
            }
            Err(e) if params.verbose => {
                eprintln!("[sweep {}] failed {}: {e}", spec.id, points[i].label)
            }
            Err(_) => {}
        }
    };
    let results = parallel_map(&todo, params.workers, simulate, store);

    // Assemble the rows in point order.
    let mut cached = 0usize;
    let mut rows = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        rows.push(match &answers[keys[i].as_str()] {
            Answer::Hit(record) => {
                cached += 1;
                cached_row(point, record)
            }
            Answer::Job(j) => match &results[*j] {
                Ok((record, sim_ms)) if todo[*j] == i => ok_row(point, record, *sim_ms),
                Ok((record, _)) => {
                    cached += 1;
                    cached_row(point, &record.to_json())
                }
                Err(e) => err_row(point, e),
            },
        });
    }

    let (doc, ok, failed) = sweep_doc(spec, points.len(), rows);
    crate::write_json_atomic(&final_path, &doc)?;
    Ok(SweepReport {
        path: final_path,
        doc,
        ok,
        failed,
        cached,
    })
}

/// Assembles the final `bench_rows.v1` document and tallies `(ok,
/// failed)` rows.
fn sweep_doc(spec: &SweepSpec, total: usize, rows: Vec<Json>) -> (Json, usize, usize) {
    let ok = rows
        .iter()
        .filter(|row| row.get("status").and_then(Json::as_str) == Some("ok"))
        .count();
    let failed = rows.len() - ok;
    let doc = Json::obj([
        ("schema_version", Json::U64(BENCH_ROWS_SCHEMA_VERSION)),
        ("id", Json::from(spec.id.clone())),
        ("title", Json::from(spec.resolved_title())),
        ("config", spec.base.to_json()),
        (
            "grid",
            Json::obj(
                spec.grid
                    .iter()
                    .map(|(k, vs)| (k.clone(), Json::Arr(vs.clone()))),
            ),
        ),
        (
            "summary",
            Json::obj([
                ("total", Json::from(total)),
                ("ok", Json::from(ok)),
                ("failed", Json::from(failed)),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    (doc, ok, failed)
}

/// The row for a completed point: the standard headline metrics, the
/// host-side cost of producing them (`sim_ms` wall milliseconds and the
/// implied simulated cycles per wall second), the point's axis
/// assignments, and its status.
fn ok_row(point: &SweepPoint, record: &RunRecord, sim_ms: f64) -> Json {
    let mut pairs = match record_row(&point.label, record) {
        Json::Obj(pairs) => pairs,
        other => vec![("row".to_string(), other)],
    };
    pairs.push(("sim_ms".to_string(), Json::F64(sim_ms)));
    let cycles_per_sec = if sim_ms > 0.0 {
        record.summary.cycles as f64 / (sim_ms / 1e3)
    } else {
        0.0
    };
    pairs.push(("sim_cycles_per_sec".to_string(), Json::F64(cycles_per_sec)));
    if !point.overlay.is_empty() {
        pairs.push(("point".to_string(), Json::Obj(point.overlay.to_vec())));
    }
    pairs.push(("status".to_string(), Json::from("ok")));
    Json::Obj(pairs)
}

/// The row for a point answered from an already-serialized record (a
/// local cache hit or a server answer) — the standard metrics via
/// [`record_row_json`], zero host simulation cost, and a provenance
/// marker (`"cache": "hit"` locally, `"served": "cached"|"computed"`
/// in server mode).
fn record_json_row(point: &SweepPoint, record: &Json, origin: (&str, &str)) -> Json {
    let mut pairs = match record_row_json(&point.label, record) {
        Json::Obj(pairs) => pairs,
        other => vec![("row".to_string(), other)],
    };
    pairs.push(("sim_ms".to_string(), Json::F64(0.0)));
    pairs.push(("sim_cycles_per_sec".to_string(), Json::F64(0.0)));
    pairs.push((origin.0.to_string(), Json::from(origin.1)));
    if !point.overlay.is_empty() {
        pairs.push(("point".to_string(), Json::Obj(point.overlay.to_vec())));
    }
    pairs.push(("status".to_string(), Json::from("ok")));
    Json::Obj(pairs)
}

/// The row for a local [`ResultCache`] hit.
fn cached_row(point: &SweepPoint, record: &Json) -> Json {
    record_json_row(point, record, ("cache", "hit"))
}

/// The row for a point that has no record: it failed locally, or a
/// remote server could not answer it.
fn err_row(point: &SweepPoint, error: &str) -> Json {
    let mut pairs = vec![("label".to_string(), Json::from(point.label.clone()))];
    if !point.overlay.is_empty() {
        pairs.push(("point".to_string(), Json::Obj(point.overlay.to_vec())));
    }
    pairs.push(("status".to_string(), Json::from("failed")));
    pairs.push(("error".to_string(), Json::from(error)));
    Json::Obj(pairs)
}

/// [`run_sweep`] as a thin client of a running `tenways serve` instance
/// (or a `tenways route` router fronting several — the router answers
/// the identical `/batch` and `/stats` documents, so the address is
/// interchangeable):
/// the grid expands locally and goes to `POST /batch` once, in requests
/// of at most [`MAX_BATCH_ITEMS`] points, all over one connection (the
/// server canonicalizes, deduplicates, answers warm keys from its cache
/// and waits for the rest to simulate; dedup holds within a request).
/// The final document is the same `bench_rows.v1` layout `run_sweep`
/// writes, with each ok row marked `"served": "cached"` or
/// `"served": "computed"`.
///
/// # Errors
///
/// Returns a message for infrastructure problems: a malformed grid, an
/// unreachable server, a non-200 `/batch` answer, or an unwritable
/// output directory. Per-point failures (including a status this client
/// does not know) are reported in the rows, like every other sweep.
pub fn run_sweep_server(
    spec: &SweepSpec,
    addr: &str,
    params: &SweepParams,
) -> Result<SweepReport, String> {
    let points = spec.points()?;
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    let final_path = params.out_dir.join(format!("{}.json", spec.id));

    let mut rows: Vec<Json> = Vec::with_capacity(points.len());
    let mut cached = 0usize;
    let mut client = HttpClient::new(addr);
    for chunk in points.chunks(MAX_BATCH_ITEMS) {
        let body = batch_body(chunk.iter().map(|p| (&p.label, &p.config)));
        let reply = client.request("POST", "/batch", Some(("application/json", &body)))?;
        if reply.status != 200 {
            return Err(format!(
                "server {addr} answered {} to /batch: {}",
                reply.status, reply.body
            ));
        }
        let results = reply
            .body
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("server {addr} sent a /batch body without results"))?;
        if results.len() != chunk.len() {
            return Err(format!(
                "server {addr} answered {} results for {} configs",
                results.len(),
                chunk.len()
            ));
        }
        for (point, item) in chunk.iter().zip(results) {
            let verdict = item.get("status").and_then(Json::as_str).unwrap_or("?");
            if params.verbose {
                eprintln!("[sweep {}] server {verdict} {}", spec.id, point.label);
            }
            rows.push(match (verdict, item.get("record")) {
                ("cached", Some(record)) => {
                    cached += 1;
                    record_json_row(point, record, ("served", "cached"))
                }
                ("computed", Some(record)) => {
                    record_json_row(point, record, ("served", "computed"))
                }
                ("failed", _) => {
                    let error = item
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("server reported failure");
                    err_row(point, error)
                }
                (other, _) => err_row(
                    point,
                    &format!("unrecognized server batch status `{other}`"),
                ),
            });
        }
    }

    let (doc, ok, failed) = sweep_doc(spec, points.len(), rows);
    crate::write_json_atomic(&final_path, &doc)?;
    Ok(SweepReport {
        path: final_path,
        doc,
        ok,
        failed,
        cached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_http_shutdown, ServeOptions, SimService};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    const GRID: &str = "workload = \"lu\"\nscale = 1\nseed = 3\n\n[sweep]\nid = \"demo\"\n\n[grid]\nthreads = [2, 3]\nmodel = [\"sc\", \"rmo\"]\n";

    #[test]
    fn grid_expands_cross_product_in_document_order() {
        let spec = SweepSpec::from_toml_str(GRID, "fallback").unwrap();
        assert_eq!(spec.id, "demo");
        let points = spec.points().unwrap();
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "threads=2,model=sc",
                "threads=2,model=rmo",
                "threads=3,model=sc",
                "threads=3,model=rmo",
            ]
        );
        assert_eq!(points[2].config.threads, 3);
        assert_eq!(points[2].config.workload, "lu");
    }

    #[test]
    fn gridless_file_is_a_single_point() {
        let spec = SweepSpec::from_toml_str("workload = \"lu\"\n", "solo").unwrap();
        assert_eq!(spec.id, "solo");
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "base");
    }

    #[test]
    fn empty_axis_yields_an_empty_sweep() {
        let spec = SweepSpec::from_toml_str("[grid]\nthreads = []\n", "empty").unwrap();
        assert!(spec.points().unwrap().is_empty());
    }

    #[test]
    fn dotted_axes_reach_into_sections() {
        let spec = SweepSpec::from_toml_str("[grid]\n\"machine.dram_latency\" = [100, 250]\n", "d")
            .unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points[1].config.machine.dram_latency, 250);
        assert_eq!(points[1].label, "machine.dram_latency=250");
    }

    #[test]
    fn bad_axis_types_fail_the_whole_sweep() {
        for (grid, field) in [
            ("[grid]\nthreads = [\"many\"]\n", "threads"),
            ("[grid]\nnosuchfield = [1]\n", "nosuchfield"),
            ("[grid]\nworkload = [\"lu\", \"quake\"]\n", "workload"),
        ] {
            let spec = SweepSpec::from_toml_str(grid, "bad").unwrap();
            let error = spec.points().unwrap_err();
            assert!(error.contains(&format!("`{field}`")), "{grid:?}: {error}");
        }
    }

    #[test]
    fn scalar_axis_pins_one_value() {
        let spec = SweepSpec::from_toml_str("[grid]\nthreads = 4\nseed = [1, 2]\n", "p").unwrap();
        let points = spec.points().unwrap();
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.config.threads == 4));
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenways-grid-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Serves `svc` on an ephemeral port; the server thread returns once
    /// `connections` connections have been accepted and have ended.
    fn serve(
        svc: &Arc<SimService>,
        connections: u64,
    ) -> (String, std::thread::JoinHandle<Result<(), String>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let svc = Arc::clone(svc);
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = std::thread::spawn(move || {
            serve_http_shutdown(svc, listener, Some(connections), false, shutdown)
        });
        (addr, server)
    }

    #[test]
    fn local_cache_answers_warm_keys_without_resimulating() {
        let root = tmp_dir("cache");
        let spec = SweepSpec::from_toml_str(GRID, "demo").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            cache_dir: Some(root.join("cache")),
            ..SweepParams::default()
        };
        let cold = run_sweep(&spec, &params).unwrap();
        assert_eq!(cold.ok, 4);
        assert_eq!(cold.cached, 0, "first run has nothing cached");

        // Same grid, fresh output: every row must come from the cache,
        // carry the hit marker, and match the simulated metrics.
        let warm_params = SweepParams {
            out_dir: root.join("out2"),
            ..params.clone()
        };
        let warm = run_sweep(&spec, &warm_params).unwrap();
        assert_eq!(warm.ok, 4);
        assert_eq!(warm.cached, 4, "second run is all cache hits");
        let cold_rows = cold.doc.get("rows").and_then(Json::as_array).unwrap();
        let warm_rows = warm.doc.get("rows").and_then(Json::as_array).unwrap();
        for (c, w) in cold_rows.iter().zip(warm_rows) {
            assert_eq!(w.get("cache").and_then(Json::as_str), Some("hit"));
            for metric in ["label", "cycles", "retired_ops", "consistency_cycles"] {
                assert_eq!(
                    c.get(metric).map(Json::to_string),
                    w.get(metric).map(Json::to_string),
                    "cached row diverges on {metric}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_repeated_key_simulates_once() {
        let root = tmp_dir("repeat");
        let grid = "workload = \"lu\"\nscale = 1\n\n[grid]\nthreads = [2, 3, 3]\n";
        let spec = SweepSpec::from_toml_str(grid, "repeat").unwrap();
        let params = SweepParams {
            out_dir: root.clone(),
            ..SweepParams::default()
        };
        let report = run_sweep(&spec, &params).unwrap();
        assert_eq!((report.ok, report.cached), (3, 1));
        let entries = std::fs::read_dir(root.join("cache")).unwrap().count();
        assert_eq!(entries, 2, "one cache entry per distinct key");
        let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[2].get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(rows[2].get("sim_ms").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            rows[1].get("cycles").map(Json::to_string),
            rows[2].get("cycles").map(Json::to_string)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn server_mode_posts_the_grid_and_marks_served_rows() {
        let root = tmp_dir("server");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 2,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let (addr, server) = serve(&svc, 2);

        let spec = SweepSpec::from_toml_str(GRID, "demo").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            ..SweepParams::default()
        };
        let cold = run_sweep_server(&spec, &addr, &params).unwrap();
        assert_eq!(cold.ok, 4);
        assert_eq!(cold.cached, 0);
        assert_eq!(svc.sim_runs(), 4);
        let rows = cold.doc.get("rows").and_then(Json::as_array).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.get("served").and_then(Json::as_str) == Some("computed")));

        // Rerunning the same grid is answered entirely from the server's
        // cache: zero additional simulations, rows marked cached.
        let warm_params = SweepParams {
            out_dir: root.join("out2"),
            ..params
        };
        let warm = run_sweep_server(&spec, &addr, &warm_params).unwrap();
        assert_eq!(warm.ok, 4);
        assert_eq!(warm.cached, 4);
        assert_eq!(svc.sim_runs(), 4, "warm grid must not simulate");
        let warm_rows = warm.doc.get("rows").and_then(Json::as_array).unwrap();
        for (c, w) in rows.iter().zip(warm_rows) {
            assert_eq!(w.get("served").and_then(Json::as_str), Some("cached"));
            assert_eq!(
                c.get("cycles").map(Json::to_string),
                w.get("cycles").map(Json::to_string)
            );
        }
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_cold_batch_waits_its_turn_in_one_request() {
        // 320 distinct cold keys on one worker: every miss queues for the
        // worker, and the one post waits until all 320 records land.
        let root = tmp_dir("one-post");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 1,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let (addr, server) = serve(&svc, 1);

        let seeds: Vec<String> = (1..=320).map(|s| s.to_string()).collect();
        let grid = format!(
            "workload = \"lu\"\nthreads = 2\nscale = 1\n\n[grid]\nseed = [{}]\n",
            seeds.join(", ")
        );
        let spec = SweepSpec::from_toml_str(&grid, "one-post").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            ..SweepParams::default()
        };
        let report = run_sweep_server(&spec, &addr, &params).unwrap();
        server.join().unwrap().unwrap();
        assert_eq!((report.ok, report.failed), (320, 0));
        let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.get("served").and_then(Json::as_str) == Some("computed")));
        let stats = svc.stats_json();
        for (counter, value) in [("requests", 1), ("sim_runs", 320), ("queue_depth", 0)] {
            assert_eq!(stats.get(counter), Some(&Json::U64(value)), "{counter}");
        }
        assert!(stats.get("rejected").is_none(), "{stats}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn server_mode_posts_an_over_limit_grid_in_chunks() {
        // A cache-only server refuses every point without simulating, and
        // retires after one connection, which carries both posts.
        let root = tmp_dir("chunks");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 0,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let (addr, server) = serve(&svc, 1);

        let seeds: Vec<String> = (0..=MAX_BATCH_ITEMS).map(|s| s.to_string()).collect();
        let grid = format!(
            "workload = \"lu\"\nscale = 1\n\n[grid]\nseed = [{}]\n",
            seeds.join(", ")
        );
        let spec = SweepSpec::from_toml_str(&grid, "chunks").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            verbose: false,
            ..SweepParams::default()
        };
        let report = run_sweep_server(&spec, &addr, &params).unwrap();
        let rows = report.doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), MAX_BATCH_ITEMS + 1);
        assert_eq!(report.failed, MAX_BATCH_ITEMS + 1, "cache-only refuses all");
        server.join().unwrap().unwrap();
        let requests = svc.stats_json().get("requests").and_then(Json::as_u64);
        assert_eq!(requests, Some(2), "1 025 points go out in two posts");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_over_limit_grid_of_one_key_simulates_once_over_one_connection() {
        // 1 025 points of one key: the first post simulates it once, the
        // second finds it cached, and both share the sweep's connection.
        let root = tmp_dir("one-key");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 1,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let (addr, server) = serve(&svc, 1);
        let grid = format!(
            "workload = \"lu\"\nscale = 1\n\n[grid]\nthreads = [{}]\n",
            vec!["2"; MAX_BATCH_ITEMS + 1].join(", ")
        );
        let spec = SweepSpec::from_toml_str(&grid, "one-key").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            ..SweepParams::default()
        };
        let report = run_sweep_server(&spec, &addr, &params).unwrap();
        server.join().unwrap().unwrap();
        assert_eq!((report.ok, report.cached), (MAX_BATCH_ITEMS + 1, 1));
        let stats = svc.stats_json();
        for (counter, value) in [("connections", 1), ("requests", 2), ("sim_runs", 1)] {
            assert_eq!(stats.get(counter), Some(&Json::U64(value)), "{counter}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
