//! Simulation-as-a-service: the engine behind `tenways serve`.
//!
//! The paper catalogs ways to waste a parallel computer; the most complete
//! waste this repo could commit is re-running a deterministic simulation
//! whose answer it already produced. This module turns determinism into
//! serving capacity — and keeps the service itself from wasting *its*
//! parallel computer under load:
//!
//! * [`SimService`] — accepts [`SimConfig`] jobs, answers repeats from the
//!   two-tier content-addressed [`ResultCache`] (keyed on
//!   [`SimConfig::cache_key`]), and dispatches misses onto a persistent
//!   worker pool whose jobs run once each under the [`SweepRunner`]'s
//!   fail-soft containment (`catch_unwind`), always under the default
//!   scheduler ([`SchedMode::default`]), whatever `[sched]` a request
//!   carries.
//!   Concurrent requests for the same key are **single-flighted**: one
//!   simulation runs, every waiter shares its result.
//! * a **bounded admission queue** in front of the pool
//!   ([`ServeOptions::queue_depth`]): a miss that cannot get a queue slot
//!   is refused immediately with HTTP 503 + `Retry-After` instead of
//!   silently pinning a connection thread — backpressure at the front
//!   door, not serialization behind it. Joining an in-flight key never
//!   needs a slot, so a hot-key burst is admitted no matter how deep.
//! * **batch submission** ([`SimService::submit_batch`], `POST /batch`):
//!   a grid or config list is canonicalized to keys, deduplicated within
//!   the batch *and* against in-flight singles, and answered with per-key
//!   `cached`/`computed`/`queued` status — K duplicate configs cost one
//!   simulation.
//! * **async job handles**: a miss outlasting
//!   [`ServeOptions::sync_timeout_ms`] answers `202 Accepted` with its
//!   key; `GET /jobs/<key>` polls `pending`/`running`/`done`/`failed`
//!   without pinning a connection thread on a long simulation.
//! * counters on the hot path are **atomic and sharded** (perfbook-style
//!   partitioned counting: writers stripe across padded cache lines,
//!   readers sum) and `GET /stats` reads cache gauges from
//!   [`CacheCounters`] — stats traffic never takes the cache lock, so
//!   observing the service cannot slow it down.
//!
//! [`serve_http_shutdown`] serves the service over the shared HTTP layer
//! ([`crate::http`]: keep-alive connections, drain on shutdown). The
//! service answers these endpoints (all responses JSON):
//!
//! | method & path     | body            | response                           |
//! |-------------------|-----------------|------------------------------------|
//! | `POST /run`       | `SimConfig` JSON (or TOML with a `toml` content type) | `200 {schema_version, key, cached, record}`, `202 {key, status}` past the sync timeout, or `503` + `Retry-After` when the queue is full |
//! | `POST /batch`     | `{configs: [...]}`, a bare JSON array, or a sweep-grid document, of at most [`MAX_BATCH_ITEMS`] items | `{schema_version, total, unique, results: [{label, key, status, ...}]}`, or `400` past the limit |
//! | `GET /jobs/<key>` | —               | `{schema_version, key, status: pending\|running\|done\|failed, ...}` |
//! | `GET /stats`      | —               | counters: hits/misses, queue depth, rejections, cache tiers |
//! | `GET /healthz`    | —               | `{"ok": true}`                     |
//!
//! A hit serves the byte-identical `run_record.v1` document of the
//! original run without simulating anything; with `workers = 0` the
//! service is cache-only and a miss is refused with HTTP 503 (this is how
//! the tests prove hits never simulate).

use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, SchedMode, SimConfig};

use crate::cache::{CacheCounters, ResultCache};
use crate::grid::SweepSpec;
use crate::http::{self, error_doc, Handler, HttpCounters, HttpRequest, Response};
use crate::sweep::{SweepJob, SweepOptions, SweepRunner};

/// Version of the serve response document layouts (`/run`, `/batch`,
/// `/jobs`, `/stats`); bumped on any breaking change. Mirrored in
/// `results/schema/serve_response.v2.json` (plus `serve_batch.v1.json`
/// and `serve_job.v1.json` for the batch and job-poll bodies).
pub const SERVE_RESPONSE_SCHEMA_VERSION: u64 = 2;

/// The most items one `POST /batch` may carry, as a config list or as
/// the points of a grid. Past it the body is refused with a 400 before
/// anything is decoded or expanded: every item costs its own decode, key
/// and record copy in the reply, so an unbounded batch let a 4 MiB body
/// claim gigabytes.
pub const MAX_BATCH_ITEMS: usize = 1024;

/// How many recent job failures `GET /jobs/<key>` can still report.
const FAILURE_MEMORY: usize = 64;

/// The `Retry-After` seconds a queue-full rejection advertises.
const RETRY_AFTER_S: u64 = 1;

/// Shards in a [`ShardedCounter`]. Power of two so the shard pick is a
/// mask, sized for more cores than this repo's CI hosts have.
const COUNTER_SHARDS: usize = 16;

/// One cache line worth of counter: padding keeps two shards from
/// false-sharing a line, which is exactly the waste (invalidation
/// ping-pong) the underlying paper catalogs.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// A perfbook-style partitioned counter: writers stripe over per-thread
/// shards (no shared cache line on the hot path), readers sum the shards.
/// Reads are racy-by-design snapshots — fine for monotonic stats.
#[derive(Debug, Default)]
pub struct ShardedCounter {
    shards: [PaddedCounter; COUNTER_SHARDS],
}

impl ShardedCounter {
    /// Increments this thread's shard.
    pub fn incr(&self) {
        self.shards[shard_index()].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Sums all shards (a racy snapshot of a monotonic count).
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Stable per-thread shard assignment: threads draw a ticket from a
/// global counter on first use, so long-lived worker and handler threads
/// spread evenly instead of hashing onto one line.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Tuning for a [`SimService`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads simulating cache misses. `0` makes the service
    /// **cache-only**: every miss is refused ([`ServeError::CacheOnly`]),
    /// which is also how tests prove a hit never simulates.
    pub workers: usize,
    /// In-memory LRU capacity (entries).
    pub mem_capacity: usize,
    /// Directory of the disk tier (entry files + index).
    pub cache_dir: PathBuf,
    /// Disk-tier byte budget (`None` = unbounded): on overflow the cache
    /// evicts least-recently-accessed entries.
    pub disk_budget: Option<u64>,
    /// Admission bound: how many misses may wait for a worker at once.
    /// A miss past this bound is refused with [`ServeError::Rejected`]
    /// (HTTP 503 + `Retry-After`) instead of queueing unboundedly.
    /// Joining an already-in-flight key never consumes a slot.
    pub queue_depth: usize,
    /// How long a synchronous `submit` waits for a fresh simulation
    /// before answering `202`/`queued` (`None` = wait forever, the
    /// pre-queue behaviour).
    pub sync_timeout_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_capacity: 128,
            cache_dir: crate::results_dir().join("cache"),
            disk_budget: None,
            queue_depth: 256,
            sync_timeout_ms: None,
        }
    }
}

/// Why a submitted job produced no record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service is cache-only (`workers = 0`) and the key missed.
    CacheOnly {
        /// The canonical key that missed.
        key: String,
    },
    /// The admission queue is full; retry after backing off.
    Rejected {
        /// The canonical key that was refused.
        key: String,
        /// The configured queue bound.
        queue_depth: usize,
    },
    /// The simulation ran and failed (message from the sweep containment:
    /// experiment error or panic).
    Sim(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::CacheOnly { key } => write!(
                f,
                "result {key} is not cached and the worker pool is disabled (workers = 0)"
            ),
            ServeError::Rejected { key, queue_depth } => write!(
                f,
                "admission queue full ({queue_depth} waiting); {key} rejected — retry later"
            ),
            ServeError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successfully answered job.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Canonical content-address of the request's configuration.
    pub key: String,
    /// Whether the record was served from the cache (`true`) or freshly
    /// simulated by this request (`false` — also the value joiners of an
    /// in-flight simulation see, since their request did trigger a wait).
    pub cached: bool,
    /// The `run_record.v1` document, byte-identical to the original run.
    pub record: Json,
}

impl Answer {
    /// The `POST /run` response document.
    pub fn to_response_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
            ("key", Json::from(self.key.clone())),
            ("cached", Json::Bool(self.cached)),
            ("record", self.record.clone()),
        ])
    }
}

/// One `GET /jobs/<key>` verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum JobView {
    /// Admitted, waiting for a worker.
    Pending,
    /// A worker is simulating it right now.
    Running,
    /// The record is in the cache.
    Done(Json),
    /// The simulation failed; the service remembers recent failures.
    Failed(String),
    /// The service has never seen this key (or has forgotten a failure).
    Unknown,
}

impl JobView {
    /// The schema string for this state.
    pub fn status(&self) -> &'static str {
        match self {
            JobView::Pending => "pending",
            JobView::Running => "running",
            JobView::Done(_) => "done",
            JobView::Failed(_) => "failed",
            JobView::Unknown => "unknown",
        }
    }

    /// The `GET /jobs/<key>` response document.
    pub fn to_response_json(&self, key: &str) -> Json {
        let mut pairs = vec![
            (
                "schema_version".to_string(),
                Json::U64(SERVE_RESPONSE_SCHEMA_VERSION),
            ),
            ("key".to_string(), Json::from(key)),
            ("status".to_string(), Json::from(self.status())),
        ];
        match self {
            JobView::Done(record) => pairs.push(("record".to_string(), record.clone())),
            JobView::Failed(e) => pairs.push(("error".to_string(), Json::from(e.clone()))),
            _ => {}
        }
        Json::Obj(pairs)
    }
}

/// Per-key status of one batch item.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchStatus {
    /// Served from the cache without simulating.
    Cached(Json),
    /// Simulated (or joined) within the batch deadline.
    Computed(Json),
    /// Admitted but not finished by the deadline; poll `/jobs/<key>`.
    Queued,
    /// The admission queue was full; the key was not admitted.
    Rejected,
    /// The simulation failed (or the service is cache-only).
    Failed(String),
}

impl BatchStatus {
    /// The schema string for this status.
    pub fn status(&self) -> &'static str {
        match self {
            BatchStatus::Cached(_) => "cached",
            BatchStatus::Computed(_) => "computed",
            BatchStatus::Queued => "queued",
            BatchStatus::Rejected => "rejected",
            BatchStatus::Failed(_) => "failed",
        }
    }

    /// The served record, when there is one.
    pub fn record(&self) -> Option<&Json> {
        match self {
            BatchStatus::Cached(r) | BatchStatus::Computed(r) => Some(r),
            _ => None,
        }
    }
}

/// One labelled input item of a batch, resolved.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The caller's label for this item (grid point label or `cfg[i]`).
    pub label: String,
    /// Canonical content-address of the item's configuration.
    pub key: String,
    /// What happened to the key.
    pub status: BatchStatus,
}

/// What [`SimService::submit_batch`] produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-input-item results, in input order (duplicates share a key and
    /// a status).
    pub items: Vec<BatchItem>,
    /// Distinct keys in the batch.
    pub unique: usize,
}

impl ToJson for BatchItem {
    /// One `results` entry of the `POST /batch` reply.
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label".to_string(), Json::from(self.label.as_str())),
            ("key".to_string(), Json::from(self.key.as_str())),
            ("status".to_string(), Json::from(self.status.status())),
        ];
        if let Some(record) = self.status.record() {
            pairs.push(("record".to_string(), record.clone()));
        }
        if let BatchStatus::Failed(e) = &self.status {
            pairs.push(("error".to_string(), Json::from(e.as_str())));
        }
        Json::Obj(pairs)
    }
}

impl BatchReport {
    /// The `POST /batch` response document.
    pub fn to_response_json(&self) -> Json {
        batch_reply(
            self.unique,
            self.items.iter().map(ToJson::to_json).collect(),
        )
    }
}

/// Service-level counters (monotonic since start). The request-path
/// counters are sharded; the rare-event ones are plain atomics.
#[derive(Debug, Default)]
struct Counters {
    http: HttpCounters,
    hits: ShardedCounter,
    misses: ShardedCounter,
    joined: ShardedCounter,
    rejected: AtomicU64,
    sim_runs: AtomicU64,
    sim_failures: AtomicU64,
    /// Gauge: misses admitted to the queue, not yet picked up by a worker.
    queued: AtomicU64,
    /// Gauge: simulations currently executing.
    in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    peak_in_flight: AtomicU64,
}

/// One in-flight simulation that waiters rendezvous on.
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<Result<Json, String>>>,
    done: Condvar,
    /// False while queued, true once a worker picked the job up.
    running: AtomicBool,
}

impl Flight {
    /// Waits until the flight lands, or until `deadline` passes (`None`
    /// waits forever); `None` on timeout (the flight keeps going — the
    /// caller polls later).
    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<Json, String>> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = &*slot {
                return Some(result.clone());
            }
            slot = match deadline {
                None => self.done.wait(slot).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let waited = self.done.wait_timeout(slot, deadline - now);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    fn fill(&self, result: Result<Json, String>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.done.notify_all();
    }
}

/// A persistent pool of worker threads draining submitted closures.
/// Dropping the pool closes the queue and joins every worker.
#[derive(Debug)]
struct WorkerPool {
    tx: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> WorkerPool {
        let (tx, rx) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let rx = Arc::new(Mutex::new(rx));
        let threads = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    let task = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    match task {
                        Ok(task) => task(),
                        Err(_) => break, // queue closed: pool is shutting down
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            threads,
        }
    }

    fn submit(&self, task: Box<dyn FnOnce() + Send>) -> Result<(), String> {
        self.tx
            .as_ref()
            .expect("pool queue alive until drop")
            .send(task)
            .map_err(|_| "worker pool is shut down".to_string())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx = None; // close the queue; workers drain and exit
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The simulation service: content-addressed cache in front of a bounded
/// admission queue and a persistent, fail-soft worker pool. See the
/// [module docs](self).
#[derive(Debug)]
pub struct SimService {
    cache: Arc<Mutex<ResultCache>>,
    cache_counters: Arc<CacheCounters>,
    disk_budget: Option<u64>,
    inflight: Arc<Mutex<HashMap<String, Arc<Flight>>>>,
    /// Recent failures, newest last, capped at [`FAILURE_MEMORY`].
    failures: Arc<Mutex<Vec<(String, String)>>>,
    counters: Arc<Counters>,
    runner: Arc<SweepRunner>,
    pool: Option<WorkerPool>,
    workers: usize,
    queue_depth: usize,
    sync_timeout: Option<Duration>,
}

impl SimService {
    /// Opens the cache and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn new(options: ServeOptions) -> Result<SimService, String> {
        let cache = ResultCache::open_budgeted(
            &options.cache_dir,
            options.mem_capacity,
            options.disk_budget,
        )?;
        let cache_counters = cache.counters();
        let runner = SweepRunner::with_options(SweepOptions {
            workers: Some(options.workers.max(1)),
            ..SweepOptions::default()
        });
        Ok(SimService {
            cache: Arc::new(Mutex::new(cache)),
            cache_counters,
            disk_budget: options.disk_budget,
            inflight: Arc::new(Mutex::new(HashMap::new())),
            failures: Arc::new(Mutex::new(Vec::new())),
            counters: Arc::new(Counters::default()),
            runner: Arc::new(runner),
            pool: (options.workers > 0).then(|| WorkerPool::new(options.workers)),
            workers: options.workers,
            queue_depth: options.queue_depth,
            sync_timeout: options.sync_timeout_ms.map(Duration::from_millis),
        })
    }

    /// The configured synchronous wait bound (`None` = wait forever).
    pub fn sync_timeout(&self) -> Option<Duration> {
        self.sync_timeout
    }

    /// Answers one job: cache hit, join of an identical in-flight
    /// simulation, or a fresh simulation on the worker pool. Blocks until
    /// the record is available, whatever the configured sync timeout.
    ///
    /// # Errors
    ///
    /// [`ServeError::CacheOnly`] on a miss with `workers = 0`,
    /// [`ServeError::Rejected`] when the admission queue is full,
    /// [`ServeError::Sim`] when the simulation itself fails.
    pub fn submit(&self, cfg: &SimConfig) -> Result<Answer, ServeError> {
        self.resolve_one(&cfg.cache_key(), cfg, None)
            .map(|answer| answer.expect("no deadline, never queued"))
    }

    /// Resolves a whole batch: every config is canonicalized, duplicate
    /// keys collapse onto one flight (within the batch and against any
    /// already-in-flight singles), cache hits answer immediately, and the
    /// admitted remainder is awaited until `timeout` (falling back to the
    /// service's sync timeout; `None` waits forever). Items not finished
    /// by the deadline report `queued` and stay pollable via
    /// [`SimService::job_status`].
    pub fn submit_batch(
        &self,
        configs: &[(String, SimConfig)],
        timeout: Option<Duration>,
    ) -> BatchReport {
        let keyed: Vec<(String, &SimConfig)> = configs
            .iter()
            .map(|(_, cfg)| (cfg.cache_key(), cfg))
            .collect();
        let resolved = self.resolve(&keyed, timeout.or(self.sync_timeout));
        let unique = resolved.len();
        let statuses: HashMap<&str, BatchStatus> = resolved
            .into_iter()
            .map(|(i, outcome)| {
                let status = match outcome {
                    Ok(Some(answer)) if answer.cached => BatchStatus::Cached(answer.record),
                    Ok(Some(answer)) => BatchStatus::Computed(answer.record),
                    Ok(None) => BatchStatus::Queued,
                    Err(ServeError::Rejected { .. }) => BatchStatus::Rejected,
                    // A failed simulation reports the runner's message
                    // bare; other errors read as they display.
                    Err(ServeError::Sim(e)) => BatchStatus::Failed(e),
                    Err(e) => BatchStatus::Failed(e.to_string()),
                };
                (keyed[i].0.as_str(), status)
            })
            .collect();
        let items = configs
            .iter()
            .zip(&keyed)
            .map(|((label, _), (key, _))| BatchItem {
                label: label.clone(),
                key: key.clone(),
                status: statuses[key.as_str()].clone(),
            })
            .collect();
        BatchReport { items, unique }
    }

    /// [`SimService::resolve`] for one config under its cache `key`:
    /// `Ok(None)` when it is still queued or running at the deadline.
    fn resolve_one(
        &self,
        key: &str,
        cfg: &SimConfig,
        timeout: Option<Duration>,
    ) -> Result<Option<Answer>, ServeError> {
        let mut resolved = self.resolve(&[(key.to_string(), cfg)], timeout);
        resolved.pop().expect("one key, one outcome").1
    }

    /// The one resolve routine behind [`SimService::submit`], `POST /run`
    /// and [`SimService::submit_batch`]. `keyed` pairs each config with
    /// its cache key. Every distinct key, in first-appearance order, is
    /// answered from the cache or joins or leads a flight; the flights
    /// are then awaited until `timeout` after admission (`None` waits
    /// forever). Returns one outcome per distinct key, beside the index
    /// of its first appearance: `Ok(None)` for a key still queued or
    /// running at the deadline.
    fn resolve(
        &self,
        keyed: &[(String, &SimConfig)],
        timeout: Option<Duration>,
    ) -> Vec<(usize, Result<Option<Answer>, ServeError>)> {
        let admitted: Vec<(usize, Result<Admitted, ServeError>)> =
            first_appearances(keyed.iter().map(|(key, _)| key.as_str()))
                .into_iter()
                .map(|i| (i, self.admit(&keyed[i].0, keyed[i].1)))
                .collect();
        let deadline = timeout.map(|t| Instant::now() + t);
        admitted
            .into_iter()
            .map(|(i, admitted)| {
                let answer = |cached, record| Answer {
                    key: keyed[i].0.clone(),
                    cached,
                    record,
                };
                let outcome = admitted.and_then(|admitted| match admitted {
                    Admitted::Hit(record) => Ok(Some(answer(true, record))),
                    Admitted::Flight(flight) => match flight.wait_until(deadline) {
                        Some(Ok(record)) => Ok(Some(answer(false, record))),
                        Some(Err(e)) => Err(ServeError::Sim(e)),
                        None => Ok(None),
                    },
                });
                (i, outcome)
            })
            .collect()
    }

    /// Where a key stands: queued, running, done (with the record),
    /// recently failed (with the error), or unknown. Reads are
    /// counter-neutral — polling a job does not skew hit/miss stats.
    pub fn job_status(&self, key: &str) -> JobView {
        // In-flight first: if present, it is pending or running. A flight
        // that lands between this check and the cache peek still answers
        // correctly (the cache peek below finds it).
        let flight = {
            let map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            map.get(key).cloned()
        };
        if let Some(flight) = flight {
            return if flight.running.load(Ordering::Relaxed) {
                JobView::Running
            } else {
                JobView::Pending
            };
        }
        let peeked = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.peek(key)
        };
        if let Some(record) = peeked {
            return JobView::Done(record);
        }
        let failures = self.failures.lock().unwrap_or_else(|e| e.into_inner());
        match failures.iter().rev().find(|(k, _)| k == key) {
            Some((_, e)) => JobView::Failed(e.clone()),
            None => JobView::Unknown,
        }
    }

    /// Admission: answer a cache hit, else join an existing flight for
    /// `key`, or lead a new one through the bounded queue. Leading
    /// requires a queue slot; joining never does.
    fn admit(&self, key: &str, cfg: &SimConfig) -> Result<Admitted, ServeError> {
        if let Some(record) = self.lookup(key) {
            self.counters.hits.incr();
            return Ok(Admitted::Hit(record));
        }
        let Some(pool) = &self.pool else {
            self.counters.misses.incr();
            return Err(ServeError::CacheOnly {
                key: key.to_string(),
            });
        };
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    // Between our cache miss and this lock the previous
                    // flight may have landed; re-check the cache before
                    // leading a duplicate simulation.
                    if let Some(record) = {
                        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                        cache.peek(key)
                    } {
                        self.counters.hits.incr();
                        return Ok(Admitted::Hit(record));
                    }
                    if !self.try_acquire_queue_slot() {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(ServeError::Rejected {
                            key: key.to_string(),
                            queue_depth: self.queue_depth,
                        });
                    }
                    let flight = Arc::new(Flight::default());
                    inflight.insert(key.to_string(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if leader {
            self.counters.misses.incr();
            let task = self.simulation_task(key.to_string(), cfg.clone(), Arc::clone(&flight));
            if let Err(e) = pool.submit(task) {
                // Unblock any joiners that raced in before the failure.
                self.release_queue_slot();
                self.remove_inflight(key);
                flight.fill(Err(e.clone()));
                return Err(ServeError::Sim(e));
            }
        } else {
            self.counters.joined.incr();
        }
        Ok(Admitted::Flight(flight))
    }

    /// Claims one admission-queue slot; `false` when the queue is full.
    /// CAS loop rather than blind increment so a refused request never
    /// transiently inflates the gauge.
    fn try_acquire_queue_slot(&self) -> bool {
        let queued = &self.counters.queued;
        let mut current = queued.load(Ordering::Relaxed);
        loop {
            if current >= self.queue_depth as u64 {
                return false;
            }
            match queued.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    fn release_queue_slot(&self) {
        self.counters.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// The closure a cache miss enqueues: simulate under the runner's
    /// containment, publish to the cache, then release the flight. The
    /// cache `put` happens *before* the in-flight entry is removed, so a
    /// late requester either joins the flight or hits the cache — never
    /// re-simulates.
    fn simulation_task(
        &self,
        key: String,
        cfg: SimConfig,
        flight: Arc<Flight>,
    ) -> Box<dyn FnOnce() + Send> {
        let cache = Arc::clone(&self.cache);
        let counters = Arc::clone(&self.counters);
        let runner = Arc::clone(&self.runner);
        let inflight = Arc::clone(&self.inflight);
        let failures = Arc::clone(&self.failures);
        Box::new(move || {
            // The job left the admission queue and entered execution.
            counters.queued.fetch_sub(1, Ordering::Relaxed);
            let running = counters.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            counters
                .peak_in_flight
                .fetch_max(running, Ordering::Relaxed);
            flight.running.store(true, Ordering::Relaxed);

            let job = SweepJob::new(key.clone(), move || simulate(&cfg));
            counters.sim_runs.fetch_add(1, Ordering::Relaxed);
            let outcome = runner.run_one(&job);
            let result = match outcome.result {
                Ok(record) => {
                    let put = {
                        let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
                        cache.put(&key, record.clone())
                    };
                    if let Err(e) = put {
                        // The record is still correct and still served;
                        // only persistence degraded.
                        eprintln!("[serve] cache write for {key} failed: {e}");
                    }
                    Ok(record)
                }
                Err(e) => {
                    counters.sim_failures.fetch_add(1, Ordering::Relaxed);
                    let message = e.to_string();
                    let mut recent = failures.lock().unwrap_or_else(|e| e.into_inner());
                    recent.retain(|(k, _)| k != &key);
                    recent.push((key.clone(), message.clone()));
                    let overflow = recent.len().saturating_sub(FAILURE_MEMORY);
                    recent.drain(..overflow);
                    Err(message)
                }
            };
            {
                let mut map = inflight.lock().unwrap_or_else(|e| e.into_inner());
                map.remove(&key);
            }
            counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            flight.fill(result);
        })
    }

    fn lookup(&self, key: &str) -> Option<Json> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.get(key)
    }

    fn remove_inflight(&self, key: &str) {
        let mut map = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(key);
    }

    /// Simulations started since the service came up. A pure-hit workload
    /// keeps this at zero — the bench and the CI gate assert on it.
    pub fn sim_runs(&self) -> u64 {
        self.counters.sim_runs.load(Ordering::Relaxed)
    }

    /// Misses refused by the admission bound since the service came up.
    pub fn rejected(&self) -> u64 {
        self.counters.rejected.load(Ordering::Relaxed)
    }

    /// The `GET /stats` document. Reads only atomics (service counters
    /// and the cache's shared [`CacheCounters`]) — never the cache lock —
    /// so stats traffic cannot contend with the request hot path.
    pub fn stats_json(&self) -> Json {
        let c = &self.counters;
        let cc = &self.cache_counters;
        let load = |a: &AtomicU64| Json::U64(a.load(Ordering::Relaxed));
        Json::obj([
            ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
            ("connections", Json::U64(c.http.connections.sum())),
            ("requests", Json::U64(c.http.requests.sum())),
            ("hits", Json::U64(c.hits.sum())),
            ("misses", Json::U64(c.misses.sum())),
            ("joined", Json::U64(c.joined.sum())),
            ("rejected", load(&c.rejected)),
            ("queue_depth", load(&c.queued)),
            ("queue_capacity", Json::from(self.queue_depth)),
            ("in_flight", load(&c.in_flight)),
            ("peak_in_flight", load(&c.peak_in_flight)),
            ("sim_runs", load(&c.sim_runs)),
            ("sim_failures", load(&c.sim_failures)),
            ("bad_requests", load(&c.http.bad_requests)),
            ("workers", Json::from(self.workers)),
            (
                "cache",
                Json::obj([
                    ("mem_entries", load(&cc.mem_entries)),
                    ("disk_entries", load(&cc.disk_entries)),
                    ("disk_bytes", load(&cc.disk_bytes)),
                    (
                        "disk_budget_bytes",
                        match self.disk_budget {
                            Some(b) => Json::U64(b),
                            None => Json::Null,
                        },
                    ),
                    ("mem_hits", load(&cc.mem_hits)),
                    ("disk_hits", load(&cc.disk_hits)),
                    ("corrupt_entries", load(&cc.corrupt_entries)),
                    ("mem_evictions", load(&cc.mem_evictions)),
                    ("evicted", load(&cc.disk_evictions)),
                ]),
            ),
        ])
    }

    /// Pre-populates the result cache with every point of a grid before
    /// the service takes traffic (`tenways serve --warm`). Duplicate
    /// keys collapse first; already-cached keys are skipped. Cold keys
    /// simulate on the sweep runner with up to `workers` threads (at
    /// least one — a cache-only service can still be warmed, that is the
    /// point of it) under the usual fail-soft containment; each job
    /// writes its record to the cache and keeps nothing. Bypasses the
    /// admission bound, and is traffic-counter-neutral by design:
    /// warming uses `peek`/`put` directly, so the request and hit/miss
    /// counters still read zero when the listener opens — only
    /// `sim_runs`/`sim_failures` count, because those simulations really
    /// ran.
    pub fn warm(&self, points: &[(String, SimConfig)]) -> WarmReport {
        let keys: Vec<String> = points.iter().map(|(_, cfg)| cfg.cache_key()).collect();
        let distinct = first_appearances(keys.iter().map(String::as_str));
        let mut report = WarmReport {
            unique: distinct.len(),
            ..WarmReport::default()
        };
        let jobs: Vec<SweepJob<()>> = distinct
            .into_iter()
            .filter(|&i| {
                let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                let cached = cache.peek(&keys[i]).is_some();
                report.skipped += usize::from(cached);
                !cached
            })
            .map(|i| {
                let (label, cfg) = (points[i].0.clone(), points[i].1.clone());
                let (key, cache) = (keys[i].clone(), Arc::clone(&self.cache));
                SweepJob::new(label, move || {
                    let record = simulate(&cfg)?;
                    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
                    cache.put(&key, record)
                })
            })
            .collect();
        let counters = &self.counters;
        let batch = self.runner.run_observed(jobs, |_, outcome| {
            counters.sim_runs.fetch_add(1, Ordering::Relaxed);
            if outcome.result.is_err() {
                counters.sim_failures.fetch_add(1, Ordering::Relaxed);
            }
        });
        for outcome in batch.outcomes {
            match outcome.result {
                Ok(()) => report.warmed += 1,
                Err(e) => report.failed.push((outcome.label, e.to_string())),
            }
        }
        report
    }
}

/// What [`SimService::warm`] did, point by point.
#[derive(Debug, Default, Clone)]
pub struct WarmReport {
    /// Distinct keys in the spec (duplicates collapse before warming).
    pub unique: usize,
    /// Keys freshly simulated and written to the cache.
    pub warmed: usize,
    /// Keys that were already cached.
    pub skipped: usize,
    /// `(label, error)` of points that failed to simulate (or persist).
    pub failed: Vec<(String, String)>,
}

/// What [`SimService::admit`] produced for a key.
enum Admitted {
    /// The cache answered: a hit, or a flight that landed during
    /// admission.
    Hit(Json),
    /// A flight to wait on (led or joined).
    Flight(Arc<Flight>),
}

/// The structured body of a queue-full rejection (paired with the
/// `Retry-After` header).
fn rejection_doc(key: &str, queue_depth: usize) -> Json {
    Json::obj([
        ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
        ("error", Json::from("admission queue full")),
        ("status", Json::from("rejected")),
        ("key", Json::from(key)),
        ("queue_depth", Json::from(queue_depth)),
        ("retry_after_s", Json::U64(RETRY_AFTER_S)),
    ])
}

/// Runs one config to its `run_record.v1` document under the default
/// scheduler. `[sched]` is not in the cache key, so the service, not the
/// request, picks it: a client cannot make a miss take more threads than
/// the pool's, and every client of a key reads the same record.
fn simulate(cfg: &SimConfig) -> Result<Json, String> {
    Experiment::from_config(cfg)
        .and_then(|experiment| experiment.sched(SchedMode::default()).run())
        .map(|record| record.to_json())
        .map_err(|e| e.to_string())
}

/// The index of each distinct key's first appearance, in input order —
/// the one dedup of labelled configs by cache key (batches, `warm`, and
/// the router's cluster-wide split).
pub(crate) fn first_appearances<'a>(keys: impl IntoIterator<Item = &'a str>) -> Vec<usize> {
    let mut seen = HashSet::new();
    keys.into_iter()
        .enumerate()
        .filter_map(|(i, key)| seen.insert(key).then_some(i))
        .collect()
}

/// Encodes labelled configs as a `POST /batch` body: the
/// `{"configs": [{"label", "config"}, ...]}` shape the service's batch
/// decoder reads back. Every batch client (the router's per-backend
/// sub-batches, `sweep --server`, `serve_bench`) posts through this.
pub fn batch_body<'a, L: AsRef<str>>(
    items: impl IntoIterator<Item = (L, &'a SimConfig)>,
) -> String {
    let configs = items
        .into_iter()
        .map(|(label, cfg)| {
            Json::obj([
                ("label", Json::from(label.as_ref())),
                ("config", cfg.to_json()),
            ])
        })
        .collect();
    Json::obj([("configs", Json::Arr(configs))]).to_string()
}

/// The `POST /batch` reply (`serve_batch.v1`) over its rendered result
/// items, in input order, of which `unique` distinct keys. The status
/// counts are read off the items, so a node's [`BatchReport`] and the
/// router's merge of its backends' replies render the same document.
pub(crate) fn batch_reply(unique: usize, results: Vec<Json>) -> Json {
    let count = |status: &str| {
        let matches = |item: &&Json| item.get("status").and_then(Json::as_str) == Some(status);
        Json::from(results.iter().filter(matches).count())
    };
    let total = results.len();
    Json::obj([
        ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
        ("total", Json::from(total)),
        ("unique", Json::from(unique)),
        ("deduplicated", Json::from(total - unique)),
        ("cached", count("cached")),
        ("computed", count("computed")),
        ("queued", count("queued")),
        ("rejected", count("rejected")),
        ("failed", count("failed")),
        ("results", Json::Arr(results)),
    ])
}

/// Parses a `POST /batch` body into labelled configs. Three accepted
/// shapes: a JSON object with a `configs` array (each element a bare
/// `SimConfig` object or a `{label, config}` wrapper), a bare JSON array
/// of the same, or a sweep-grid document (TOML, or JSON with a `grid`/
/// `sweep` section) expanded through [`SweepSpec`]. A batch of more than
/// [`MAX_BATCH_ITEMS`] items is refused before any item is decoded or
/// any grid point expanded.
pub(crate) fn parse_batch_body(
    content_type: &str,
    body: &str,
) -> Result<Vec<(String, SimConfig)>, String> {
    let doc = if content_type.contains("toml") {
        tenways_sim::toml::parse_toml(body).map_err(|e| e.to_string())?
    } else {
        Json::parse(body).map_err(|e| e.to_string())?
    };
    let items = match &doc {
        Json::Arr(items) => Some(items.as_slice()),
        Json::Obj(_) => doc.get("configs").and_then(Json::as_array),
        _ => {
            return Err(format!(
                "batch body must be an object or array, got {}",
                doc.type_name()
            ))
        }
    };
    let Some(items) = items else {
        // No config list: treat the document as a sweep grid.
        let spec = SweepSpec::from_json(&doc, "batch")?;
        within_batch_limit(spec.point_count())?;
        let points = spec.points()?;
        return Ok(points.into_iter().map(|p| (p.label, p.config)).collect());
    };
    within_batch_limit(Some(items.len()))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let (label, cfg_doc) = match item.get("config") {
                Some(cfg_doc) => (
                    item.get("label")
                        .and_then(Json::as_str)
                        .map_or_else(|| format!("cfg[{i}]"), str::to_string),
                    cfg_doc,
                ),
                None => (format!("cfg[{i}]"), item),
            };
            let mut cfg = SimConfig::default();
            cfg.apply_json(cfg_doc)
                .map_err(|e| format!("configs[{i}]: {e}"))?;
            Ok((label, cfg))
        })
        .collect()
}

/// Refuses a batch of more than [`MAX_BATCH_ITEMS`] items; `None` is a
/// grid whose point count overflows `usize`.
fn within_batch_limit(items: Option<usize>) -> Result<(), String> {
    let items = match items {
        Some(n) if n <= MAX_BATCH_ITEMS => return Ok(()),
        Some(n) => n.to_string(),
        None => format!("more than {}", usize::MAX),
    };
    Err(format!(
        "batch of {items} items is over the limit of {MAX_BATCH_ITEMS} per request"
    ))
}

/// Decodes a `POST /run` body: TOML under a `toml` content type, JSON
/// otherwise.
pub(crate) fn parse_run_body(content_type: &str, body: &str) -> Result<SimConfig, String> {
    let parsed = if content_type.contains("toml") {
        SimConfig::from_toml_str(body)
    } else {
        SimConfig::from_json_str(body)
    };
    parsed.map_err(|e| e.to_string())
}

impl Handler for SimService {
    const TAG: &'static str = "serve";

    fn http_counters(&self) -> &HttpCounters {
        &self.counters.http
    }

    fn handle(&self, request: &HttpRequest) -> Response {
        let plain = |status: u16, doc: Json| (status, Vec::new(), doc);
        let bad_request = |status, message: &str| self.counters.http.bad_request(status, message);
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/run") => {
                let cfg = match parse_run_body(&request.content_type, &request.body) {
                    Ok(cfg) => cfg,
                    Err(e) => return bad_request(400, &e),
                };
                let key = cfg.cache_key();
                match self.resolve_one(&key, &cfg, self.sync_timeout()) {
                    Ok(Some(answer)) => plain(200, answer.to_response_json()),
                    Ok(None) => plain(
                        202,
                        Json::obj([
                            ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
                            ("key", Json::from(key)),
                            ("status", Json::from("pending")),
                        ]),
                    ),
                    Err(ServeError::Rejected { key, queue_depth }) => (
                        503,
                        vec![("Retry-After", RETRY_AFTER_S.to_string())],
                        rejection_doc(&key, queue_depth),
                    ),
                    Err(e @ ServeError::CacheOnly { .. }) => plain(503, error_doc(&e.to_string())),
                    Err(e @ ServeError::Sim(_)) => plain(500, error_doc(&e.to_string())),
                }
            }
            ("POST", "/batch") => match parse_batch_body(&request.content_type, &request.body) {
                Ok(configs) => {
                    let report = self.submit_batch(&configs, self.sync_timeout());
                    plain(200, report.to_response_json())
                }
                Err(e) => bad_request(400, &e),
            },
            ("GET", "/stats") => plain(200, self.stats_json()),
            ("GET", "/healthz") => plain(200, Json::obj([("ok", Json::Bool(true))])),
            ("GET", path) if path.starts_with("/jobs/") => {
                let key = &path["/jobs/".len()..];
                let view = self.job_status(key);
                let status = if view == JobView::Unknown { 404 } else { 200 };
                plain(status, view.to_response_json(key))
            }
            (method, path) => bad_request(404, &format!("no such endpoint: {method} {path}")),
        }
    }
}

/// The accept loop: each connection is handled on its own thread (the
/// worker pool, not the connection count, bounds simulation concurrency).
/// With `max_requests` set the loop exits cleanly after that many
/// connections — how tests and the CI gate shut the server down.
pub fn serve_http(
    service: Arc<SimService>,
    listener: TcpListener,
    max_requests: Option<u64>,
    verbose: bool,
) -> Result<(), String> {
    serve_http_shutdown(
        service,
        listener,
        max_requests,
        verbose,
        Arc::new(AtomicBool::new(false)),
    )
}

/// [`serve_http`] with a drain switch: raising `shutdown` stops the
/// accept loop, lets requests already being handled finish, answers the
/// final response on every kept-alive socket with `Connection: close`,
/// and returns once all handler threads have exited. No request that
/// reached the server is dropped — this is the backend half of the
/// router's kill-and-reroute story.
pub fn serve_http_shutdown(
    service: Arc<SimService>,
    listener: TcpListener,
    max_requests: Option<u64>,
    verbose: bool,
    shutdown: Arc<AtomicBool>,
) -> Result<(), String> {
    http::serve(service, listener, max_requests, verbose, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{http_call, http_request, HttpClient};
    use crate::router::{route_http, Router, RouterOptions};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenways-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> SimConfig {
        SimConfig {
            workload: "lu".to_string(),
            threads: 2,
            scale: 1,
            ..SimConfig::default()
        }
    }

    /// A config that simulates long enough (~1–2 s in debug builds) to
    /// observe in-flight states and exercise admission rejection.
    /// Runtime at this scale is strongly seed-sensitive (some seeds run
    /// 50× longer) — callers pass only empirically-vetted fast seeds
    /// (1, 2, 4, 6, 7, 8).
    fn slow_cfg(seed: u64) -> SimConfig {
        SimConfig {
            workload: "oltp".to_string(),
            threads: 8,
            scale: 96,
            seed,
            ..SimConfig::default()
        }
    }

    fn service(dir: &std::path::Path, workers: usize) -> SimService {
        SimService::new(ServeOptions {
            workers,
            cache_dir: dir.to_path_buf(),
            ..ServeOptions::default()
        })
        .unwrap()
    }

    #[test]
    fn miss_then_hit_serves_identical_bytes_without_resimulating() {
        let dir = tmp_dir("hit");
        let svc = service(&dir, 1);
        let cfg = small_cfg();
        let cold = svc.submit(&cfg).unwrap();
        assert!(!cold.cached);
        assert_eq!(svc.sim_runs(), 1);
        let warm = svc.submit(&cfg).unwrap();
        assert!(warm.cached);
        assert_eq!(svc.sim_runs(), 1, "a hit must not simulate");
        assert_eq!(
            warm.record.to_string(),
            cold.record.to_string(),
            "hit must be byte-identical to the original record"
        );
        assert_eq!(warm.key, cold.key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_only_service_serves_hits_and_refuses_misses() {
        let dir = tmp_dir("cache-only");
        let cfg = small_cfg();
        let primed = {
            let svc = service(&dir, 1);
            svc.submit(&cfg).unwrap()
        };
        // Same cache dir, worker pool disabled: the hit must come back
        // byte-identical with zero simulations; any other config misses
        // and is refused.
        let svc = service(&dir, 0);
        let hit = svc.submit(&cfg).unwrap();
        assert!(hit.cached);
        assert_eq!(svc.sim_runs(), 0);
        assert_eq!(hit.record.to_string(), primed.record.to_string());
        let other = SimConfig {
            seed: 99,
            ..small_cfg()
        };
        match svc.submit(&other) {
            Err(ServeError::CacheOnly { key }) => assert_eq!(key, other.cache_key()),
            other => panic!("expected CacheOnly, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_requests_single_flight() {
        let dir = tmp_dir("joined");
        let svc = Arc::new(service(&dir, 2));
        let cfg = small_cfg();
        let answers: Vec<Answer> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let cfg = cfg.clone();
                    scope.spawn(move || svc.submit(&cfg).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // However the four requests interleaved, the simulation ran at
        // most... exactly once per cache fill: every response is identical.
        assert_eq!(svc.sim_runs(), 1, "identical requests share one run");
        let first = answers[0].record.to_string();
        for a in &answers {
            assert_eq!(a.record.to_string(), first);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_config_reports_sim_error_and_does_not_cache() {
        let dir = tmp_dir("fail");
        let svc = service(&dir, 1);
        let bad = SimConfig {
            workload: "no-such-kernel".to_string(),
            ..small_cfg()
        };
        match svc.submit(&bad) {
            Err(ServeError::Sim(msg)) => assert!(msg.contains("unknown workload"), "{msg}"),
            other => panic!("expected Sim error, got {other:?}"),
        }
        // Failures are not cached: a second submit fails again (runs again).
        assert_eq!(svc.sim_runs(), 1);
        assert!(svc.submit(&bad).is_err());
        assert_eq!(svc.sim_runs(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_full_rejects_immediately_without_deadlock() {
        // 1 worker, queue depth 1, and 2x-oversubscribed distinct cold
        // keys submitted concurrently: at most 1 running + 1 queued at any
        // moment, so some submits must be rejected — and every thread must
        // return (rejection is immediate, not a blocked connection).
        let dir = tmp_dir("queue-full");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 1,
                queue_depth: 1,
                cache_dir: dir.clone(),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let outcomes: Vec<Result<Answer, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [1u64, 2, 4, 6]
                .into_iter()
                .map(|seed| {
                    let svc = Arc::clone(&svc);
                    scope.spawn(move || svc.submit(&slow_cfg(seed)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        let rejected = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::Rejected { .. })))
            .count();
        assert_eq!(ok + rejected, 4, "every submit resolves: {outcomes:?}");
        assert!(rejected >= 1, "oversubscription must reject: {outcomes:?}");
        assert!(ok >= 1, "admitted work still completes");
        assert_eq!(svc.rejected(), rejected as u64);
        // The queue drains: a later submit of a fresh key is admitted.
        assert!(svc.submit(&small_cfg()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_key_joins_never_consume_queue_slots() {
        // queue_depth 1 with 4 identical concurrent requests: the leader
        // takes the only slot, the joiners join — nobody is rejected.
        let dir = tmp_dir("join-slots");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 1,
                queue_depth: 1,
                cache_dir: dir.clone(),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let cfg = small_cfg();
        let answers: Vec<Result<Answer, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let svc = Arc::clone(&svc);
                    let cfg = cfg.clone();
                    scope.spawn(move || svc.submit(&cfg))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(answers.iter().all(|a| a.is_ok()), "{answers:?}");
        assert_eq!(svc.rejected(), 0);
        assert_eq!(svc.sim_runs(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_lifecycle_pending_running_done_and_failed() {
        let dir = tmp_dir("jobs");
        let svc = service(&dir, 1);
        assert_eq!(svc.job_status("no-such-key"), JobView::Unknown);

        // A fast sync timeout turns a slow miss into a pending handle.
        let cfg = slow_cfg(7);
        let key = cfg.cache_key();
        let report = svc.submit_batch(
            &[("slow".to_string(), cfg.clone())],
            Some(Duration::from_millis(1)),
        );
        match &report.items[0].status {
            BatchStatus::Queued => assert_eq!(report.items[0].key, key),
            BatchStatus::Computed(_) => {
                // The host was fast enough to finish inside 1 ms; the
                // remaining lifecycle still holds.
            }
            other => panic!("expected queued or computed, got {other:?}"),
        }
        // Poll until done; in between the status must be one of the
        // in-flight states, never unknown.
        let deadline = Instant::now() + Duration::from_secs(60);
        let record = loop {
            match svc.job_status(&key) {
                JobView::Done(record) => break record,
                JobView::Pending | JobView::Running => {
                    assert!(Instant::now() < deadline, "job never completed");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("unexpected job state {other:?}"),
            }
        };
        // Done answers the byte-identical record and a repeat submit hits.
        let warm = svc.submit(&cfg).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.record.to_string(), record.to_string());
        assert_eq!(svc.sim_runs(), 1);

        // A failing config lands in the failure memory.
        let bad = SimConfig {
            workload: "no-such-kernel".to_string(),
            ..small_cfg()
        };
        let bad_key = bad.cache_key();
        assert!(svc.submit(&bad).is_err());
        match svc.job_status(&bad_key) {
            JobView::Failed(msg) => assert!(msg.contains("unknown workload"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_with_duplicate_keys_runs_exactly_one_simulation() {
        let dir = tmp_dir("batch-dedup");
        let svc = service(&dir, 2);
        let cfg = small_cfg();
        let configs: Vec<(String, SimConfig)> =
            (0..4).map(|i| (format!("dup{i}"), cfg.clone())).collect();
        let report = svc.submit_batch(&configs, None);
        assert_eq!(report.items.len(), 4);
        assert_eq!(report.unique, 1);
        assert_eq!(svc.sim_runs(), 1, "duplicates share one simulation");
        let first = report.items[0].status.record().unwrap().to_string();
        for item in &report.items {
            assert_eq!(item.status.status(), "computed");
            assert_eq!(item.status.record().unwrap().to_string(), first);
            assert_eq!(item.key, report.items[0].key);
        }
        // Resubmitting the same batch is all cached, still one sim total.
        let again = svc.submit_batch(&configs, None);
        assert!(again.items.iter().all(|i| i.status.status() == "cached"));
        assert_eq!(svc.sim_runs(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_mixes_cached_computed_and_failed() {
        let dir = tmp_dir("batch-mixed");
        let svc = service(&dir, 2);
        let warm = small_cfg();
        svc.submit(&warm).unwrap(); // prime one key
        let cold = SimConfig {
            seed: 41,
            ..small_cfg()
        };
        let bad = SimConfig {
            workload: "no-such-kernel".to_string(),
            ..small_cfg()
        };
        let report = svc.submit_batch(
            &[
                ("warm".to_string(), warm),
                ("cold".to_string(), cold),
                ("bad".to_string(), bad),
            ],
            None,
        );
        let statuses: Vec<&str> = report.items.iter().map(|i| i.status.status()).collect();
        assert_eq!(statuses, ["cached", "computed", "failed"]);
        assert_eq!(report.unique, 3);
        assert_eq!(svc.sim_runs(), 3, "warm key did not re-simulate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_deduplicates_against_inflight_singles() {
        let dir = tmp_dir("batch-inflight");
        let svc = Arc::new(service(&dir, 1));
        let cfg = slow_cfg(8);
        // Launch a single slow request, then batch the same config while
        // it is still in flight: the batch must join, not re-run.
        let single = {
            let svc = Arc::clone(&svc);
            let cfg = cfg.clone();
            std::thread::spawn(move || svc.submit(&cfg).unwrap())
        };
        // Wait until the single is actually in flight (bounded: the
        // slow config outlasts this by a wide margin).
        let key = cfg.cache_key();
        let deadline = Instant::now() + Duration::from_secs(30);
        while svc.job_status(&key) == JobView::Unknown && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = svc.submit_batch(&[("joined".to_string(), cfg.clone())], None);
        single.join().unwrap();
        assert_eq!(svc.sim_runs(), 1, "batch joined the in-flight single");
        let status = report.items[0].status.status();
        assert!(
            status == "computed" || status == "cached",
            "joined batch item resolves, got {status}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_round_trip_over_loopback() {
        let dir = tmp_dir("http");
        let svc = Arc::new(service(&dir, 1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_http(svc, listener, Some(6), false))
        };

        let body = r#"{"workload":"lu","threads":2,"scale":1}"#;
        let (status, first) =
            http_call(&addr, "POST", "/run", Some(("application/json", body))).unwrap();
        assert_eq!(status, 200);
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(
            first.get("schema_version").and_then(Json::as_u64),
            Some(SERVE_RESPONSE_SCHEMA_VERSION)
        );

        // Same config as TOML: canonicalization makes it the same key.
        let toml = "workload = \"lu\"\nthreads = 2\nscale = 1\n";
        let (status, second) =
            http_call(&addr, "POST", "/run", Some(("application/toml", toml))).unwrap();
        assert_eq!(status, 200);
        assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            second.get("key").and_then(Json::as_str),
            first.get("key").and_then(Json::as_str)
        );
        assert_eq!(
            second.get("record").unwrap().to_string(),
            first.get("record").unwrap().to_string()
        );

        // The completed job is pollable by key.
        let key = first.get("key").and_then(Json::as_str).unwrap();
        let (status, job) = http_call(&addr, "GET", &format!("/jobs/{key}"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(
            job.get("record").unwrap().to_string(),
            first.get("record").unwrap().to_string()
        );

        let (status, stats) = http_call(&addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("sim_runs").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("rejected").and_then(Json::as_u64), Some(0));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("disk_entries").and_then(Json::as_u64), Some(1));
        assert!(cache.get("disk_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(cache.get("evicted").and_then(Json::as_u64), Some(0));

        let (status, err) = http_call(
            &addr,
            "POST",
            "/run",
            Some(("application/json", r#"{"wrkload":"oops"}"#)),
        )
        .unwrap();
        assert_eq!(status, 400);
        assert!(err.get("error").is_some());

        let (status, _) = http_call(&addr, "GET", "/jobs/no-such-key", None).unwrap();
        assert_eq!(status, 404);

        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_service_not_the_request_picks_the_scheduler() {
        let dir = tmp_dir("sched");
        let svc = Arc::new(service(&dir, 1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_http(svc, listener, Some(2), false))
        };
        let run = |body: &str| {
            let (status, doc) =
                http_call(&addr, "POST", "/run", Some(("application/json", body))).unwrap();
            assert_eq!(status, 200, "{doc}");
            doc
        };
        let sharded = run(r#"{"workload":"lu","threads":2,"scale":1,"sched":"parallel-epoch:8"}"#);
        let plain = run(r#"{"workload":"lu","threads":2,"scale":1}"#);
        assert_eq!(
            sharded.get("key"),
            plain.get("key"),
            "[sched] is not in the key"
        );
        assert_eq!(svc.sim_runs(), 1, "one key, one simulation");
        let record = |doc: &Json| doc.get("record").unwrap().to_string();
        assert_eq!(record(&sharded), record(&plain));
        assert_eq!(
            sharded
                .get("record")
                .and_then(|r| r.get("sched"))
                .and_then(Json::as_str),
            Some("component-wake"),
            "the miss ran under the default scheduler, not the request's"
        );
        server.join().unwrap().unwrap();

        // `warm` simulates under the default scheduler too.
        let naive = SimConfig {
            seed: 3,
            sched: SchedMode::Naive,
            ..small_cfg()
        };
        svc.warm(&[("naive".to_string(), naive.clone())]);
        let warmed = svc.submit(&naive).unwrap();
        assert!(warmed.cached);
        assert_eq!(
            warmed.record.get("sched").and_then(Json::as_str),
            Some("component-wake")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_batch_dedups_and_rejection_carries_retry_after() {
        let dir = tmp_dir("http-batch");
        let svc = Arc::new(
            SimService::new(ServeOptions {
                workers: 1,
                queue_depth: 1,
                cache_dir: dir.clone(),
                ..ServeOptions::default()
            })
            .unwrap(),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || serve_http(svc, listener, Some(3), false))
        };

        // A batch of 4 duplicates (mixed bare and labelled forms) runs
        // exactly one simulation.
        let body = r#"{"configs": [
            {"workload":"lu","threads":2,"scale":1},
            {"label":"named","config":{"workload":"lu","threads":2,"scale":1}},
            {"workload":"lu","threads":2,"scale":1},
            {"workload":"lu","threads":2,"scale":1}
        ]}"#;
        let reply =
            http_request(&addr, "POST", "/batch", Some(("application/json", body))).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body.get("total").and_then(Json::as_u64), Some(4));
        assert_eq!(reply.body.get("unique").and_then(Json::as_u64), Some(1));
        assert_eq!(
            reply.body.get("deduplicated").and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(svc.sim_runs(), 1);
        let results = reply.body.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[1].get("label").and_then(Json::as_str),
            Some("named")
        );

        // A TOML grid body expands like a sweep and reuses the warm key.
        let grid = "workload = \"lu\"\nscale = 1\n\n[grid]\nthreads = [2]\n";
        let reply =
            http_request(&addr, "POST", "/batch", Some(("application/toml", grid))).unwrap();
        assert_eq!(reply.status, 200);
        let results = reply.body.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(
            results[0].get("status").and_then(Json::as_str),
            Some("cached")
        );
        assert_eq!(svc.sim_runs(), 1, "grid batch reused the warm key");

        // Queue-full rejection: saturate the 1-deep queue from inside
        // (occupy the worker, then the slot), then probe over HTTP. The
        // filler waits for the blocker to reach the worker — submitted
        // earlier it would race the blocker for the single queue slot and
        // be rejected itself. The slow configs hold worker and slot for
        // seconds; the bounds only guard against a pathological scheduler.
        let deadline = Instant::now() + Duration::from_secs(30);
        let blocker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let _ = svc.submit(&slow_cfg(1));
            })
        };
        while svc.counters.in_flight.load(Ordering::Relaxed) < 1 {
            assert!(
                Instant::now() < deadline,
                "blocker never reached the worker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let filler = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let _ = svc.submit(&slow_cfg(2));
            })
        };
        while svc.counters.queued.load(Ordering::Relaxed) < 1 {
            assert!(Instant::now() < deadline, "queue slot never filled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let probe = SimConfig::default();
        let probe_body = probe.to_json().to_string();
        let reply = http_request(
            &addr,
            "POST",
            "/run",
            Some(("application/json", &probe_body)),
        )
        .unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(
            reply.body.get("status").and_then(Json::as_str),
            Some("rejected")
        );
        assert!(reply.body.get("retry_after_s").is_some());
        blocker.join().unwrap();
        filler.join().unwrap();

        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The two front ends the shared request loop serves.
    #[derive(Debug, Clone, Copy)]
    enum Front {
        /// `serve` itself.
        Serve,
        /// `route` over one serve backend.
        Route,
    }

    /// A front end running on an ephemeral port.
    struct Running {
        addr: String,
        shutdown: Arc<AtomicBool>,
        server: std::thread::JoinHandle<Result<(), String>>,
        /// The serve backend behind a `Route` front end.
        backend: Option<Box<Running>>,
    }

    impl Running {
        fn start(front: Front, svc: Arc<SimService>, max_connections: Option<u64>) -> Running {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let shutdown = Arc::new(AtomicBool::new(false));
            let stop = Arc::clone(&shutdown);
            let (server, backend) = match front {
                Front::Serve => (
                    std::thread::spawn(move || {
                        serve_http_shutdown(svc, listener, max_connections, false, stop)
                    }),
                    None,
                ),
                Front::Route => {
                    let backend = Running::start(Front::Serve, svc, None);
                    let router = Arc::new(
                        Router::new(RouterOptions {
                            backends: vec![backend.addr.clone()],
                            ..RouterOptions::default()
                        })
                        .unwrap(),
                    );
                    (
                        std::thread::spawn(move || {
                            route_http(router, listener, max_connections, false, stop)
                        }),
                        Some(Box::new(backend)),
                    )
                }
            };
            Running {
                addr,
                shutdown,
                server,
                backend,
            }
        }

        /// Waits for the front end to return, then drains the backend
        /// behind a router. Returns how long the front end took.
        fn join(self) -> Duration {
            let begun = Instant::now();
            self.server.join().unwrap().unwrap();
            let took = begun.elapsed();
            if let Some(backend) = self.backend {
                backend.shutdown.store(true, Ordering::Relaxed);
                backend.join();
            }
            took
        }
    }

    #[test]
    fn keep_alive_connection_carries_many_requests() {
        for front in [Front::Serve, Front::Route] {
            let dir = tmp_dir(&format!("keep-alive-{front:?}"));
            // max_requests counts *connections*: the front end retires
            // after one socket, so every request below must share it.
            let running = Running::start(front, Arc::new(service(&dir, 1)), Some(1));

            let mut client = HttpClient::new(running.addr.clone());
            let body = small_cfg().to_json().to_string();
            let first = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(first.status, 200, "{front:?}");
            assert_eq!(first.header("connection"), Some("keep-alive"));
            let second = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(second.status, 200, "{front:?}");
            assert_eq!(
                second.body.get("cached").and_then(Json::as_bool),
                Some(true)
            );
            let stats = client.request("GET", "/stats", None).unwrap();
            let wire = match front {
                Front::Serve => &stats.body,
                Front::Route => stats.body.get("router").unwrap(),
            };
            assert_eq!(
                wire.get("connections").and_then(Json::as_u64),
                Some(1),
                "{front:?}: three requests, one TCP connection"
            );
            assert_eq!(
                wire.get("requests").and_then(Json::as_u64),
                Some(3),
                "{front:?}"
            );

            drop(client); // EOF ends the handler's request loop
            running.join();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn shutdown_drains_parked_keep_alive_sockets_promptly() {
        for front in [Front::Serve, Front::Route] {
            let dir = tmp_dir(&format!("drain-{front:?}"));
            let running = Running::start(front, Arc::new(service(&dir, 1)), None);

            // Park a keep-alive connection idle on the front end, then
            // drain: the handler must notice the flag long before the
            // 10 s idle window and the accept loop must join it.
            let mut client = HttpClient::new(running.addr.clone());
            let body = small_cfg().to_json().to_string();
            let reply = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200, "{front:?}");
            assert!(client.connected(), "client pooled the connection");

            running.shutdown.store(true, Ordering::Relaxed);
            let drained = running.join();
            assert!(
                drained < Duration::from_secs(2),
                "{front:?}: drain took {drained:?} with a parked keep-alive socket"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn hostile_nesting_gets_400_and_the_server_lives_on() {
        // 40 KB of nested arrays (20 000 deep) and its 10 KB TOML cousin:
        // before parsing bounded nesting, either overflowed the
        // connection thread's stack and aborted the whole process.
        let deep_json = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
        let deep_toml = format!("a = {}{}\n", "[".repeat(5_000), "]".repeat(5_000));
        // Batches just over the item limit: a 33 x 33 grid of values that
        // would not even decode, and 1 025 empty configs. Both must be
        // refused by count, before anything is expanded or decoded.
        let axis = vec!["\"x\""; 33].join(",");
        let over_grid = format!(r#"{{"grid": {{"threads": [{axis}], "seed": [{axis}]}}}}"#);
        let over_list = format!("[{}]", vec!["{}"; MAX_BATCH_ITEMS + 1].join(","));
        let nesting = "nesting deeper than";
        for front in [Front::Serve, Front::Route] {
            let dir = tmp_dir(&format!("hostile-{front:?}"));
            let running = Running::start(front, Arc::new(service(&dir, 1)), None);
            let mut client = HttpClient::new(running.addr.clone());
            for (path, content_type, body, expected) in [
                ("/run", "application/json", &deep_json, nesting),
                ("/run", "application/toml", &deep_toml, nesting),
                ("/batch", "application/json", &deep_json, nesting),
                (
                    "/batch",
                    "application/json",
                    &over_grid,
                    "batch of 1089 items is over the limit of 1024",
                ),
                (
                    "/batch",
                    "application/json",
                    &over_list,
                    "batch of 1025 items is over the limit of 1024",
                ),
            ] {
                let reply = client
                    .request("POST", path, Some((content_type, body)))
                    .unwrap();
                assert_eq!(reply.status, 400, "{front:?} {path} {content_type}");
                let error = reply.body.get("error").and_then(Json::as_str).unwrap();
                assert!(error.contains(expected), "{front:?}: {error}");
            }
            let health = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(health.status, 200, "{front:?}: the server must live on");

            drop(client);
            running.shutdown.store(true, Ordering::Relaxed);
            running.join();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn batch_body_round_trips_through_parse_batch_body() {
        let labels = [
            "plain",
            "quote \" and backslash \\",
            "control \n\t\u{1} bytes",
            "non-ASCII: déjà vu, 並列, 🧵",
            "",
        ];
        let items: Vec<(String, SimConfig)> = labels
            .iter()
            .zip(1u64..)
            .map(|(label, seed)| {
                let cfg = SimConfig {
                    seed,
                    threads: 1 + seed as usize,
                    ..small_cfg()
                };
                (label.to_string(), cfg)
            })
            .collect();
        let body = batch_body(items.iter().map(|(label, cfg)| (label, cfg)));
        let parsed = parse_batch_body("application/json", &body).unwrap();
        let labels_and_keys = |batch: &[(String, SimConfig)]| -> Vec<(String, String)> {
            batch
                .iter()
                .map(|(label, cfg)| (label.clone(), cfg.cache_key()))
                .collect()
        };
        assert_eq!(labels_and_keys(&parsed), labels_and_keys(&items));
    }

    #[test]
    fn warm_prepopulates_cache_and_stays_counter_neutral() {
        let dir = tmp_dir("warm");
        let svc = service(&dir, 2);
        let points = vec![
            ("a".to_string(), small_cfg()),
            (
                "b".to_string(),
                SimConfig {
                    seed: 11,
                    ..small_cfg()
                },
            ),
            ("a-again".to_string(), small_cfg()), // duplicate key
        ];
        let report = svc.warm(&points);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.unique, 2);
        assert_eq!(report.warmed, 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(svc.sim_runs(), 2);

        // Counter-neutral: the listener-facing stats still read zero.
        let stats = svc.stats_json();
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(0));

        // Warming again skips everything; a real submit is a pure hit.
        let again = svc.warm(&points);
        assert_eq!(again.warmed, 0);
        assert_eq!(again.skipped, 2);
        assert_eq!(svc.sim_runs(), 2);
        let answer = svc.submit(&small_cfg()).unwrap();
        assert!(answer.cached, "warmed key must be served from cache");
        assert_eq!(svc.sim_runs(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
