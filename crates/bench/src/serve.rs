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
//!   worker pool whose jobs run under the [`SweepRunner`]'s fail-soft
//!   containment (`catch_unwind`, retries, per-job wall budget).
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
//! | `POST /batch`     | `{configs: [...]}`, a bare JSON array, or a sweep-grid document | `{schema_version, total, unique, results: [{label, key, status, ...}]}` |
//! | `GET /jobs/<key>` | —               | `{schema_version, key, status: pending\|running\|done\|failed, ...}` |
//! | `GET /stats`      | —               | counters: hits/misses, queue depth, rejections, cache tiers |
//! | `GET /healthz`    | —               | `{"ok": true}`                     |
//!
//! A hit serves the byte-identical `run_record.v1` document of the
//! original run without simulating anything; with `workers = 0` the
//! service is cache-only and a miss is refused with HTTP 503 (this is how
//! the tests prove hits never simulate).

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, SimConfig};

use crate::cache::{CacheCounters, ResultCache};
use crate::grid::SweepSpec;
use crate::http::{self, error_doc, Handler, HttpCounters, HttpRequest, Response};
use crate::sweep::{SweepJob, SweepOptions, SweepRunner};

/// Version of the serve response document layouts (`/run`, `/batch`,
/// `/jobs`, `/stats`); bumped on any breaking change. Mirrored in
/// `results/schema/serve_response.v2.json` (plus `serve_batch.v1.json`
/// and `serve_job.v1.json` for the batch and job-poll bodies).
pub const SERVE_RESPONSE_SCHEMA_VERSION: u64 = 2;

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
    /// Extra attempts per failed simulation (SweepRunner retry policy).
    pub retries: u32,
    /// Per-job wall budget in milliseconds (cooperative, like sweeps).
    pub job_budget_ms: Option<u64>,
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
            retries: 0,
            job_budget_ms: None,
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
    /// experiment error, panic, or timeout).
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

/// What a deadline-bounded submit produced.
#[derive(Debug, Clone)]
pub enum Submission {
    /// The record is available (hit, join, or fresh simulation).
    Ready(Answer),
    /// The simulation is still queued/running past the sync timeout;
    /// poll `GET /jobs/<key>`.
    Pending {
        /// The canonical key to poll.
        key: String,
    },
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

impl BatchReport {
    /// The `POST /batch` response document.
    pub fn to_response_json(&self) -> Json {
        let count = |s: &str| self.items.iter().filter(|i| i.status.status() == s).count();
        Json::obj([
            ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
            ("total", Json::from(self.items.len())),
            ("unique", Json::from(self.unique)),
            ("deduplicated", Json::from(self.items.len() - self.unique)),
            ("cached", Json::from(count("cached"))),
            ("computed", Json::from(count("computed"))),
            ("queued", Json::from(count("queued"))),
            ("rejected", Json::from(count("rejected"))),
            ("failed", Json::from(count("failed"))),
            (
                "results",
                Json::Arr(
                    self.items
                        .iter()
                        .map(|item| {
                            let mut pairs = vec![
                                ("label".to_string(), Json::from(item.label.clone())),
                                ("key".to_string(), Json::from(item.key.clone())),
                                ("status".to_string(), Json::from(item.status.status())),
                            ];
                            if let Some(record) = item.status.record() {
                                pairs.push(("record".to_string(), record.clone()));
                            }
                            if let BatchStatus::Failed(e) = &item.status {
                                pairs.push(("error".to_string(), Json::from(e.clone())));
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
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
    fn wait(&self) -> Result<Json, String> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*slot {
                Some(result) => return result.clone(),
                None => slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    /// Waits until the flight lands or `deadline` passes; `None` on
    /// timeout (the flight keeps going — the caller polls later).
    fn wait_until(&self, deadline: Instant) -> Option<Result<Json, String>> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = &*slot {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            slot = guard;
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
            retries: options.retries,
            job_budget_ms: options.job_budget_ms,
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
    /// the record is available.
    ///
    /// # Errors
    ///
    /// [`ServeError::CacheOnly`] on a miss with `workers = 0`,
    /// [`ServeError::Rejected`] when the admission queue is full,
    /// [`ServeError::Sim`] when the simulation itself fails.
    pub fn submit(&self, cfg: &SimConfig) -> Result<Answer, ServeError> {
        match self.submit_with_deadline(cfg, None)? {
            Submission::Ready(answer) => Ok(answer),
            Submission::Pending { .. } => unreachable!("no deadline, no pending"),
        }
    }

    /// [`SimService::submit`] with an explicit synchronous wait bound:
    /// a miss still unfinished after `timeout` answers
    /// [`Submission::Pending`] (the simulation keeps running; poll
    /// [`SimService::job_status`]). `None` waits forever.
    ///
    /// # Errors
    ///
    /// Same as [`SimService::submit`].
    pub fn submit_with_deadline(
        &self,
        cfg: &SimConfig,
        timeout: Option<Duration>,
    ) -> Result<Submission, ServeError> {
        let key = cfg.cache_key();
        if let Some(record) = self.lookup(&key) {
            self.counters.hits.incr();
            return Ok(Submission::Ready(Answer {
                key,
                cached: true,
                record,
            }));
        }
        let flight = match self.admit(&key, cfg)? {
            Admitted::Flight(flight) => flight,
            Admitted::Raced(record) => {
                // The flight landed and was removed between our cache miss
                // and the in-flight check; the cache has it now.
                self.counters.hits.incr();
                return Ok(Submission::Ready(Answer {
                    key,
                    cached: true,
                    record,
                }));
            }
        };
        let result = match timeout {
            None => flight.wait(),
            Some(timeout) => match flight.wait_until(Instant::now() + timeout) {
                Some(result) => result,
                None => return Ok(Submission::Pending { key }),
            },
        };
        match result {
            Ok(record) => Ok(Submission::Ready(Answer {
                key,
                cached: false,
                record,
            })),
            Err(e) => Err(ServeError::Sim(e)),
        }
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
        // Resolve each distinct key once, in first-appearance order.
        let keyed: Vec<(String, String, &SimConfig)> = configs
            .iter()
            .map(|(label, cfg)| (label.clone(), cfg.cache_key(), cfg))
            .collect();
        let mut resolved: HashMap<String, BatchStatus> = HashMap::new();
        let mut flights: Vec<(String, Arc<Flight>)> = Vec::new();
        for (_, key, cfg) in &keyed {
            if resolved.contains_key(key) || flights.iter().any(|(k, _)| k == key) {
                continue;
            }
            if let Some(record) = self.lookup(key) {
                self.counters.hits.incr();
                resolved.insert(key.clone(), BatchStatus::Cached(record));
                continue;
            }
            match self.admit(key, cfg) {
                Ok(Admitted::Flight(flight)) => flights.push((key.clone(), flight)),
                Ok(Admitted::Raced(record)) => {
                    self.counters.hits.incr();
                    resolved.insert(key.clone(), BatchStatus::Cached(record));
                }
                Err(ServeError::Rejected { .. }) => {
                    resolved.insert(key.clone(), BatchStatus::Rejected);
                }
                Err(e) => {
                    resolved.insert(key.clone(), BatchStatus::Failed(e.to_string()));
                }
            }
        }

        // Await the admitted flights under one shared deadline.
        let deadline = timeout.or(self.sync_timeout).map(|t| Instant::now() + t);
        for (key, flight) in flights {
            let result = match deadline {
                None => Some(flight.wait()),
                Some(deadline) => flight.wait_until(deadline),
            };
            let status = match result {
                Some(Ok(record)) => BatchStatus::Computed(record),
                Some(Err(e)) => BatchStatus::Failed(e),
                None => BatchStatus::Queued,
            };
            resolved.insert(key, status);
        }

        let unique = resolved.len();
        let items = keyed
            .into_iter()
            .map(|(label, key, _)| BatchItem {
                status: resolved.get(&key).cloned().unwrap_or(BatchStatus::Queued),
                label,
                key,
            })
            .collect();
        BatchReport { items, unique }
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

    /// Single-flight admission: join an existing flight for `key`, or
    /// lead a new one through the bounded queue. Leading requires a queue
    /// slot; joining never does.
    fn admit(&self, key: &str, cfg: &SimConfig) -> Result<Admitted, ServeError> {
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
                        return Ok(Admitted::Raced(record));
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

            let job = SweepJob::new(key.clone(), move || {
                let record = Experiment::from_config(&cfg)
                    .map_err(|e| e.to_string())?
                    .run()
                    .map_err(|e| e.to_string())?;
                Ok(record.to_json())
            });
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
    /// simulate on up to `workers` scoped threads (at least one — a
    /// cache-only service can still be warmed, that is the point of it)
    /// under the usual fail-soft containment. Traffic-counter-neutral
    /// by design: warming uses `peek`/`put` directly, so the request
    /// and hit/miss counters still read zero when the listener opens —
    /// only `sim_runs`/`sim_failures` count, because those simulations
    /// really ran.
    pub fn warm(&self, points: &[(String, SimConfig)]) -> WarmReport {
        let mut unique: Vec<(String, String, &SimConfig)> = Vec::new();
        for (label, cfg) in points {
            let key = cfg.cache_key();
            if !unique.iter().any(|(_, k, _)| *k == key) {
                unique.push((label.clone(), key, cfg));
            }
        }
        let mut report = WarmReport {
            unique: unique.len(),
            ..WarmReport::default()
        };
        let cold: Vec<&(String, String, &SimConfig)> = unique
            .iter()
            .filter(|(_, key, _)| {
                let hit = {
                    let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                    cache.peek(key).is_some()
                };
                if hit {
                    report.skipped += 1;
                }
                !hit
            })
            .collect();
        let width = self.workers.max(1).min(cold.len().max(1));
        let next = AtomicUsize::new(0);
        let outcomes: Mutex<Vec<(String, Result<(), String>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((label, key, cfg)) = cold.get(i) else {
                        break;
                    };
                    let job = SweepJob::new(key.clone(), {
                        let cfg = (*cfg).clone();
                        move || {
                            let record = Experiment::from_config(&cfg)
                                .map_err(|e| e.to_string())?
                                .run()
                                .map_err(|e| e.to_string())?;
                            Ok(record.to_json())
                        }
                    });
                    self.counters.sim_runs.fetch_add(1, Ordering::Relaxed);
                    let outcome = match self.runner.run_one(&job).result {
                        Ok(record) => {
                            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
                            cache.put(key, record)
                        }
                        Err(e) => {
                            self.counters.sim_failures.fetch_add(1, Ordering::Relaxed);
                            Err(e.to_string())
                        }
                    };
                    let mut out = outcomes.lock().unwrap_or_else(|e| e.into_inner());
                    out.push((label.clone(), outcome));
                });
            }
        });
        for (label, outcome) in outcomes.into_inner().unwrap_or_else(|e| e.into_inner()) {
            match outcome {
                Ok(()) => report.warmed += 1,
                Err(e) => report.failed.push((label, e)),
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

/// What [`SimService::admit`] produced for a missed key.
enum Admitted {
    /// A flight to wait on (led or joined).
    Flight(Arc<Flight>),
    /// The previous flight landed during admission; here is its record.
    Raced(Json),
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

/// Parses a `POST /batch` body into labelled configs. Three accepted
/// shapes: a JSON object with a `configs` array (each element a bare
/// `SimConfig` object or a `{label, config}` wrapper), a bare JSON array
/// of the same, or a sweep-grid document (TOML, or JSON with a `grid`/
/// `sweep` section) expanded through [`SweepSpec`].
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
        Json::Arr(items) => Some(items.clone()),
        Json::Obj(_) => doc
            .get("configs")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec),
        _ => {
            return Err(format!(
                "batch body must be an object or array, got {}",
                doc.type_name()
            ))
        }
    };
    match items {
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let (label, cfg_doc) = match item.get("config") {
                    Some(cfg_doc) => (
                        item.get("label")
                            .and_then(Json::as_str)
                            .map_or_else(|| format!("cfg[{i}]"), str::to_string),
                        cfg_doc.clone(),
                    ),
                    None => (format!("cfg[{i}]"), item.clone()),
                };
                let mut cfg = SimConfig::default();
                cfg.apply_json(&cfg_doc)
                    .map_err(|e| format!("configs[{i}]: {e}"))?;
                Ok((label, cfg))
            })
            .collect(),
        None => {
            // No config list: treat the document as a sweep grid.
            let spec = SweepSpec::from_json(&doc, "batch")?;
            let points = spec.points()?;
            Ok(points.into_iter().map(|p| (p.label, p.config)).collect())
        }
    }
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
                match self.submit_with_deadline(&cfg, self.sync_timeout()) {
                    Ok(Submission::Ready(answer)) => plain(200, answer.to_response_json()),
                    Ok(Submission::Pending { key }) => plain(
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
        match svc
            .submit_with_deadline(&cfg, Some(Duration::from_millis(1)))
            .unwrap()
        {
            Submission::Pending { key: k } => assert_eq!(k, key),
            Submission::Ready(_) => {
                // The host was fast enough to finish inside 1 ms; the
                // remaining lifecycle still holds.
            }
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
