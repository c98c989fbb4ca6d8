//! Grid sweeps: expand one TOML file into many [`SimConfig`] points, run
//! them on the [`SweepRunner`], and checkpoint
//! completed rows so an interrupted sweep resumes instead of restarting.
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
//! # Checkpoint / resume
//!
//! While running, completed rows are periodically written to
//! `<out>/<id>.partial.json`. If that file exists when the sweep starts
//! (same id, same point count, same labels), its `ok` rows are reused and
//! only the remaining points run — so a sweep killed mid-run resumes
//! instead of restarting, and the final document is byte-identical to an
//! uninterrupted run. The checkpoint is removed once every row is `ok`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, SimConfig};

use crate::cache::ResultCache;
use crate::http::http_call;
use crate::serve::{batch_body, MAX_BATCH_ITEMS};
use crate::sweep::{JobOutcome, SweepError, SweepJob, SweepOptions, SweepRunner};
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
    /// outermost. A mistyped or unknown axis value is an error here — a
    /// broken grid should stop the sweep before any cycles are spent.
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
    /// Runner options (workers, fail-fast, job cap).
    pub options: SweepOptions,
    /// Directory for the final and checkpoint documents.
    pub out_dir: PathBuf,
    /// Write the checkpoint after every this-many completed rows
    /// (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Reuse `ok` rows from an existing checkpoint instead of rerunning.
    pub resume: bool,
    /// Consult (and fill) the content-addressed [`ResultCache`] at this
    /// directory: points whose key is already cached become rows without
    /// simulating, and freshly simulated records are stored for the next
    /// overlapping grid. `None` (the default) leaves caching off.
    pub cache_dir: Option<PathBuf>,
    /// Emit per-row progress lines on stderr.
    pub verbose: bool,
}

impl Default for SweepParams {
    fn default() -> Self {
        SweepParams {
            options: SweepOptions::default(),
            out_dir: crate::results_dir(),
            checkpoint_every: 1,
            resume: true,
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
    /// Rows that completed (including reused checkpoint rows).
    pub ok: usize,
    /// Rows that ran and failed.
    pub failed: usize,
    /// Rows skipped by cancellation or a job cap.
    pub skipped: usize,
    /// How many `ok` rows came from the checkpoint instead of running.
    pub reused: usize,
    /// How many `ok` rows came from a result cache (local
    /// [`SweepParams::cache_dir`] hits, or server-side `cached` answers
    /// in [`run_sweep_server`]) instead of simulating.
    pub cached: usize,
}

impl SweepReport {
    /// Whether every row completed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.skipped == 0
    }
}

/// Version of the checkpoint document layout.
const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// Runs a sweep fail-soft: every point gets a row with status
/// `ok`/`failed`/`skipped`, completed rows are checkpointed to
/// `<out>/<id>.partial.json` as the sweep progresses, and the final
/// `bench_rows.v1`-compatible document lands in `<out>/<id>.json`.
///
/// Returns `Err` only for infrastructure problems (unwritable output
/// directory, malformed grid); per-job failures are reported in the rows.
pub fn run_sweep(spec: &SweepSpec, params: &SweepParams) -> Result<SweepReport, String> {
    let points = spec.points()?;
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    let final_path = params.out_dir.join(format!("{}.json", spec.id));
    let partial_path = params.out_dir.join(format!("{}.partial.json", spec.id));

    // Reuse checkpointed rows where the checkpoint matches this sweep.
    let mut rows: Vec<Option<Json>> = vec![None; points.len()];
    let mut reused = 0usize;
    if params.resume && partial_path.exists() {
        match load_checkpoint(&partial_path, spec, &points) {
            Ok(restored) => {
                for (i, row) in restored {
                    if rows[i].is_none() {
                        rows[i] = Some(row);
                        reused += 1;
                    }
                }
                if params.verbose && reused > 0 {
                    eprintln!(
                        "[sweep {}] resuming: {} of {} rows restored from {}",
                        spec.id,
                        reused,
                        points.len(),
                        partial_path.display()
                    );
                }
            }
            Err(reason) => eprintln!(
                "[sweep {}] ignoring checkpoint {}: {reason}",
                spec.id,
                partial_path.display()
            ),
        }
    }

    // With a result cache configured, points whose content-address is
    // already stored become rows without simulating — overlapping grids
    // (or a grid warmed by `tenways serve`) only pay for the new keys.
    let cache = match &params.cache_dir {
        Some(dir) => Some(Mutex::new(ResultCache::open(dir, 64)?)),
        None => None,
    };
    let mut cached = 0usize;
    if let Some(cache) = &cache {
        let mut store = cache.lock().unwrap_or_else(|e| e.into_inner());
        for (i, point) in points.iter().enumerate() {
            if rows[i].is_some() {
                continue;
            }
            if let Some(record) = store.get(&point.config.cache_key()) {
                rows[i] = Some(cached_row(point, &record, "hit"));
                cached += 1;
                if params.verbose {
                    eprintln!("[sweep {}] cached {}", spec.id, point.label);
                }
            }
        }
        if cached > 0 && params.verbose {
            eprintln!(
                "[sweep {}] {cached} of {} rows served from the result cache",
                spec.id,
                points.len()
            );
        }
    }

    // Dispatch the points that still need to run. Each job carries its own
    // wall time (milliseconds) alongside the record so rows can report
    // simulation throughput; timing inside the closure excludes queueing.
    // Intra-run sharding (`[sched] mode = "parallel-epoch"`) multiplies
    // the sweep's across-run parallelism. An explicitly requested worker
    // count that oversubscribes the host is rejected (typed
    // `Oversubscribed`, surfaced as the sweep's infrastructure error);
    // the automatic default divides the host budget by the widest point
    // instead.
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_intra = points
        .iter()
        .map(|p| tenways_waste::intra_workers(p.config.sched))
        .max()
        .unwrap_or(1);
    let mut options = params.options.clone();
    match options.workers {
        Some(across) => {
            for point in &points {
                tenways_waste::check_host_budget(point.config.sched, across, host)
                    .map_err(|e| format!("{}: {e}", point.label))?;
            }
        }
        None if max_intra > 1 => options.workers = Some((host / max_intra).max(1)),
        None => {}
    }

    let todo: Vec<usize> = (0..points.len()).filter(|&i| rows[i].is_none()).collect();
    let jobs: Vec<SweepJob<(tenways_waste::RunRecord, f64)>> = todo
        .iter()
        .map(|&i| {
            let config = points[i].config.clone();
            SweepJob::new(points[i].label.clone(), move || {
                let t0 = std::time::Instant::now();
                let record = Experiment::from_config(&config)
                    .map_err(|e| e.to_string())?
                    .run()
                    .map_err(|e| e.to_string())?;
                Ok((record, t0.elapsed().as_secs_f64() * 1e3))
            })
        })
        .collect();

    let total = points.len();
    let state = Mutex::new((rows, 0usize)); // (rows, completions since checkpoint)
    let runner = SweepRunner::with_options(options);
    let batch = runner.run_observed(
        jobs,
        |j, outcome: &JobOutcome<(tenways_waste::RunRecord, f64)>| {
            let i = todo[j];
            if params.verbose {
                match &outcome.result {
                    Ok((r, sim_ms)) => eprintln!(
                        "[sweep {}] {} {} ({} cycles, {sim_ms:.1} ms)",
                        spec.id,
                        outcome.status().as_str(),
                        points[i].label,
                        r.summary.cycles
                    ),
                    Err(e) => eprintln!(
                        "[sweep {}] {} {}: {e}",
                        spec.id,
                        outcome.status().as_str(),
                        points[i].label
                    ),
                }
            }
            if let Ok((record, sim_ms)) = &outcome.result {
                if let Some(cache) = &cache {
                    let mut store = cache.lock().unwrap_or_else(|e| e.into_inner());
                    if let Err(e) = store.put(&points[i].config.cache_key(), record.to_json()) {
                        eprintln!("[sweep {}] cache write failed: {e}", spec.id);
                    }
                }
                let row = ok_row(&points[i], record, *sim_ms);
                let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                st.0[i] = Some(row);
                st.1 += 1;
                if params.checkpoint_every > 0 && st.1 >= params.checkpoint_every {
                    st.1 = 0;
                    if let Err(e) = write_checkpoint(&partial_path, spec, total, &st.0) {
                        eprintln!("[sweep {}] checkpoint write failed: {e}", spec.id);
                    }
                }
            }
        },
    );

    // Assemble the final rows in point order.
    let (mut rows, _) = state.into_inner().unwrap_or_else(|e| e.into_inner());
    for (j, outcome) in batch.outcomes.iter().enumerate() {
        let i = todo[j];
        if rows[i].is_none() {
            rows[i] = Some(err_row(&points[i], outcome));
        }
    }
    let rows: Vec<Json> = rows
        .into_iter()
        .map(|r| r.expect("every point has a row"))
        .collect();

    let (doc, ok, failed, skipped) = sweep_doc(spec, total, rows);
    crate::write_json_atomic(&final_path, &doc)?;

    // A fully-ok sweep needs no checkpoint; otherwise keep it so a later
    // run can reuse the completed rows while retrying the rest.
    if failed == 0 && skipped == 0 {
        let _ = std::fs::remove_file(&partial_path);
    }

    Ok(SweepReport {
        path: final_path,
        doc,
        ok,
        failed,
        skipped,
        reused,
        cached,
    })
}

/// Assembles the final `bench_rows.v1` document and tallies row statuses.
fn sweep_doc(spec: &SweepSpec, total: usize, rows: Vec<Json>) -> (Json, usize, usize, usize) {
    let (mut ok, mut failed, mut skipped) = (0usize, 0usize, 0usize);
    for row in &rows {
        match row.get("status").and_then(Json::as_str) {
            Some("ok") => ok += 1,
            Some("failed") => failed += 1,
            _ => skipped += 1,
        }
    }
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
                ("skipped", Json::from(skipped)),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    (doc, ok, failed, skipped)
}

/// The row for a completed point: the standard headline metrics, the
/// host-side cost of producing them (`sim_ms` wall milliseconds and the
/// implied simulated cycles per wall second), the point's axis
/// assignments, and its status. This exact JSON is what the checkpoint
/// stores, so resumed and fresh rows render identically — a resumed row
/// keeps the wall time of the run that actually produced it.
fn ok_row(point: &SweepPoint, record: &tenways_waste::RunRecord, sim_ms: f64) -> Json {
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

/// The row for a failed or skipped point.
fn err_row(point: &SweepPoint, outcome: &JobOutcome<(tenways_waste::RunRecord, f64)>) -> Json {
    let mut pairs = vec![("label".to_string(), Json::from(point.label.clone()))];
    if !point.overlay.is_empty() {
        pairs.push(("point".to_string(), Json::Obj(point.overlay.to_vec())));
    }
    pairs.push(("status".to_string(), Json::from(outcome.status().as_str())));
    if let Err(e) = &outcome.result {
        if !matches!(e, SweepError::Cancelled) {
            pairs.push(("error".to_string(), Json::from(e.to_string())));
        }
    }
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
fn cached_row(point: &SweepPoint, record: &Json, source: &str) -> Json {
    record_json_row(point, record, ("cache", source))
}

/// The row for a point a remote server could not answer.
fn server_err_row(point: &SweepPoint, status: &str, error: &str) -> Json {
    let mut pairs = vec![("label".to_string(), Json::from(point.label.clone()))];
    if !point.overlay.is_empty() {
        pairs.push(("point".to_string(), Json::Obj(point.overlay.to_vec())));
    }
    pairs.push(("status".to_string(), Json::from(status)));
    pairs.push(("error".to_string(), Json::from(error)));
    Json::Obj(pairs)
}

/// How often server mode polls `GET /jobs/<key>` for a queued point.
const JOB_POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(200);

/// How long server mode waits for one queued point before failing its
/// row.
const SERVER_ROW_BUDGET: std::time::Duration = std::time::Duration::from_secs(600);

/// How many times server mode re-submits points the server's admission
/// queue rejected, and the envelope of the jittered exponential backoff
/// between rounds (see [`rejection_backoff`]).
const REJECTION_ROUNDS: usize = 40;
const REJECTION_BACKOFF_BASE: std::time::Duration = std::time::Duration::from_millis(250);
const REJECTION_BACKOFF_CAP: std::time::Duration = std::time::Duration::from_secs(5);

/// The sleep before rejection-retry round `round` (1-based): exponential
/// from [`REJECTION_BACKOFF_BASE`] capped at [`REJECTION_BACKOFF_CAP`],
/// scaled by a deterministic per-client jitter factor in `[0.5, 1.5)`.
/// The jitter matters more than the curve: a fixed interval would march
/// every client rejected by the same saturated server (or router) back
/// in lockstep, re-saturating the queue each round — the thundering
/// herd this module exists to measure, not to cause. Hashing
/// `salt ^ round` (splitmix64) decorrelates clients without pulling in
/// a clock or an RNG dependency.
fn rejection_backoff(salt: u64, round: usize) -> std::time::Duration {
    let doublings = u32::try_from(round.saturating_sub(1))
        .unwrap_or(u32::MAX)
        .min(16);
    let base = REJECTION_BACKOFF_BASE
        .saturating_mul(1u32 << doublings.min(5))
        .min(REJECTION_BACKOFF_CAP);
    let mut z = salt ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    base.mul_f64(0.5 + unit)
}

/// A per-client jitter seed: the process id folded with the server
/// address, so concurrent sweep clients (and re-runs) spread out.
fn rejection_salt(addr: &str) -> u64 {
    addr.bytes().fold(u64::from(std::process::id()), |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    })
}

/// [`run_sweep`] as a thin client of a running `tenways serve` instance
/// (or a `tenways route` router fronting several — the router answers
/// the identical `/batch`, `/jobs/<key>`, and `/stats` documents, so the
/// address is interchangeable):
/// the grid expands locally and goes to `POST /batch` in requests of at
/// most [`MAX_BATCH_ITEMS`] points (the server canonicalizes,
/// deduplicates, and answers warm keys from its cache; dedup holds within
/// a request), points the server left `queued` are polled via
/// `GET /jobs/<key>`, and points its admission queue `rejected` are
/// re-submitted with backoff. The final document is the same
/// `bench_rows.v1` layout `run_sweep` writes, with each ok row marked
/// `"served": "cached"` or `"served": "computed"`.
///
/// # Errors
///
/// Returns a message for infrastructure problems: a malformed grid, an
/// unreachable server, a non-200 `/batch` answer, or an unwritable
/// output directory. Per-point failures (including rejection retries
/// running out) are reported in the rows, like every other sweep.
pub fn run_sweep_server(
    spec: &SweepSpec,
    addr: &str,
    params: &SweepParams,
) -> Result<SweepReport, String> {
    let points = spec.points()?;
    std::fs::create_dir_all(&params.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.out_dir.display()))?;
    let final_path = params.out_dir.join(format!("{}.json", spec.id));

    let mut rows: Vec<Option<Json>> = vec![None; points.len()];
    let mut cached = 0usize;
    let mut queued: Vec<(usize, String)> = Vec::new();
    let mut todo: Vec<usize> = (0..points.len()).collect();
    let mut rounds = 0usize;
    while !todo.is_empty() {
        let mut rejected: Vec<usize> = Vec::new();
        for chunk in todo.chunks(MAX_BATCH_ITEMS) {
            let body = batch_body(chunk.iter().map(|&i| (&points[i].label, &points[i].config)));
            let (status, doc) =
                http_call(addr, "POST", "/batch", Some(("application/json", &body)))?;
            if status != 200 {
                return Err(format!("server {addr} answered {status} to /batch: {doc}"));
            }
            let results = doc
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
            for (&i, item) in chunk.iter().zip(results) {
                let key = item.get("key").and_then(Json::as_str).unwrap_or("");
                let verdict = item.get("status").and_then(Json::as_str).unwrap_or("?");
                if params.verbose {
                    eprintln!("[sweep {}] server {verdict} {}", spec.id, points[i].label);
                }
                match (verdict, item.get("record")) {
                    ("cached", Some(record)) => {
                        rows[i] = Some(record_json_row(&points[i], record, ("served", "cached")));
                        cached += 1;
                    }
                    ("computed", Some(record)) => {
                        rows[i] = Some(record_json_row(&points[i], record, ("served", "computed")));
                    }
                    ("queued", _) => queued.push((i, key.to_string())),
                    ("rejected", _) => rejected.push(i),
                    ("failed", _) => {
                        let error = item
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("server reported failure");
                        rows[i] = Some(server_err_row(&points[i], "failed", error));
                    }
                    (other, _) => {
                        rows[i] = Some(server_err_row(
                            &points[i],
                            "failed",
                            &format!("unrecognized server batch status `{other}`"),
                        ));
                    }
                }
            }
        }
        if rejected.is_empty() {
            break;
        }
        rounds += 1;
        if rounds > REJECTION_ROUNDS {
            for i in rejected {
                rows[i] = Some(server_err_row(
                    &points[i],
                    "failed",
                    "server admission queue stayed full through every retry",
                ));
            }
            break;
        }
        std::thread::sleep(rejection_backoff(rejection_salt(addr), rounds));
        todo = rejected;
    }

    // Poll the points the server accepted but had not finished by its
    // sync timeout.
    for (i, key) in queued {
        let deadline = std::time::Instant::now() + SERVER_ROW_BUDGET;
        loop {
            let (status, doc) = http_call(addr, "GET", &format!("/jobs/{key}"), None)?;
            match doc.get("status").and_then(Json::as_str) {
                Some("done") => {
                    let record = doc
                        .get("record")
                        .ok_or_else(|| format!("server {addr} sent done without a record"))?;
                    rows[i] = Some(record_json_row(&points[i], record, ("served", "computed")));
                    break;
                }
                Some("failed") => {
                    let error = doc
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("server reported failure");
                    rows[i] = Some(server_err_row(&points[i], "failed", error));
                    break;
                }
                Some("pending" | "running") => {}
                other => {
                    rows[i] = Some(server_err_row(
                        &points[i],
                        "failed",
                        &format!("server answered {status} / {other:?} while polling {key}"),
                    ));
                    break;
                }
            }
            if std::time::Instant::now() >= deadline {
                rows[i] = Some(server_err_row(
                    &points[i],
                    "failed",
                    &format!(
                        "job {key} still unfinished after {}s",
                        SERVER_ROW_BUDGET.as_secs()
                    ),
                ));
                break;
            }
            std::thread::sleep(JOB_POLL_INTERVAL);
        }
    }

    let total = points.len();
    let rows: Vec<Json> = rows
        .into_iter()
        .map(|r| r.expect("every point has a row"))
        .collect();
    let (doc, ok, failed, skipped) = sweep_doc(spec, total, rows);
    crate::write_json_atomic(&final_path, &doc)?;
    Ok(SweepReport {
        path: final_path,
        doc,
        ok,
        failed,
        skipped,
        reused: 0,
        cached,
    })
}

/// Atomically writes the checkpoint document (write-then-rename, so a
/// sweep killed mid-write never leaves a truncated checkpoint).
fn write_checkpoint(
    path: &Path,
    spec: &SweepSpec,
    total: usize,
    rows: &[Option<Json>],
) -> Result<(), String> {
    let completed: Vec<Json> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| {
            row.as_ref()
                .map(|row| Json::obj([("index", Json::from(i)), ("row", row.clone())]))
        })
        .collect();
    let doc = Json::obj([
        ("schema_version", Json::U64(CHECKPOINT_SCHEMA_VERSION)),
        ("kind", Json::from("sweep_checkpoint")),
        ("id", Json::from(spec.id.clone())),
        ("total", Json::from(total)),
        ("completed", Json::Arr(completed)),
    ]);
    crate::write_json_atomic(path, &doc)
}

/// Loads and validates a checkpoint against this sweep's points. Returns
/// `(index, row)` pairs for rows that can be reused.
fn load_checkpoint(
    path: &Path,
    spec: &SweepSpec,
    points: &[SweepPoint],
) -> Result<Vec<(usize, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read checkpoint: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("malformed checkpoint: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("sweep_checkpoint") {
        return Err("not a sweep checkpoint".to_string());
    }
    if doc.get("id").and_then(Json::as_str) != Some(spec.id.as_str()) {
        return Err("checkpoint belongs to a different sweep id".to_string());
    }
    if doc.get("total").and_then(Json::as_u64) != Some(points.len() as u64) {
        return Err("grid size changed since the checkpoint was written".to_string());
    }
    let completed = doc
        .get("completed")
        .and_then(Json::as_array)
        .ok_or("checkpoint has no completed rows")?;
    let mut restored = Vec::with_capacity(completed.len());
    for entry in completed {
        let index = entry
            .get("index")
            .and_then(Json::as_u64)
            .ok_or("checkpoint row missing index")? as usize;
        let row = entry.get("row").ok_or("checkpoint row missing body")?;
        let point = points
            .get(index)
            .ok_or("checkpoint row index out of range")?;
        if row.get("label").and_then(Json::as_str) != Some(point.label.as_str()) {
            return Err(format!(
                "checkpoint row {index} labelled `{}` but the grid expands to `{}`",
                row.get("label").and_then(Json::as_str).unwrap_or("?"),
                point.label
            ));
        }
        if row.get("status").and_then(Json::as_str) == Some("ok") {
            restored.push((index, row.clone()));
        }
    }
    Ok(restored)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let spec = SweepSpec::from_toml_str("[grid]\nthreads = [\"many\"]\n", "bad").unwrap();
        assert!(spec.points().unwrap_err().contains("threads"));
        let spec = SweepSpec::from_toml_str("[grid]\nnosuchfield = [1]\n", "bad").unwrap();
        assert!(spec.points().unwrap_err().contains("nosuchfield"));
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

    #[test]
    fn local_cache_answers_warm_keys_without_resimulating() {
        let root = tmp_dir("cache");
        let spec = SweepSpec::from_toml_str(GRID, "demo").unwrap();
        let params = SweepParams {
            out_dir: root.join("out"),
            cache_dir: Some(root.join("cache")),
            resume: false,
            checkpoint_every: 0,
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
    fn server_mode_posts_the_grid_and_marks_served_rows() {
        use crate::serve::{serve_http, ServeOptions, SimService};
        use std::sync::Arc;

        let root = tmp_dir("server");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 2,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_http(svc, listener, Some(2), false))
        };

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
    fn server_mode_posts_an_over_limit_grid_in_chunks() {
        use crate::serve::{serve_http, ServeOptions, SimService};
        use std::sync::Arc;

        // A cache-only server refuses every point without simulating, and
        // retires after two connections: one per post, as `http_call`
        // opens a connection per request.
        let root = tmp_dir("chunks");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 0,
                cache_dir: root.join("srv-cache"),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_http(svc, listener, Some(2), false))
        };

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
    fn rejection_backoff_is_jittered_within_its_envelope() {
        // Every round stays inside [0.5, 1.5) of its exponential base,
        // the base caps, and distinct clients genuinely decorrelate.
        let base_ms = [250u64, 500, 1000, 2000, 4000, 5000, 5000, 5000];
        for (round, &base) in (1..=8).zip(&base_ms) {
            for salt in [rejection_salt("127.0.0.1:7417"), rejection_salt("router:9")] {
                let ms = rejection_backoff(salt, round).as_millis() as u64;
                assert!(
                    ms >= base / 2 && ms < base + base / 2,
                    "round {round}: {ms}ms outside [{}, {})",
                    base / 2,
                    base + base / 2
                );
            }
        }
        let a: Vec<_> = (1..=8).map(|r| rejection_backoff(1, r)).collect();
        let b: Vec<_> = (1..=8).map(|r| rejection_backoff(2, r)).collect();
        assert_ne!(a, b, "two clients must not sleep in lockstep");
    }
}
