//! `tenways route`: a shard-by-key router fronting N serve backends.
//!
//! PR 9 took one `tenways serve` node to saturation; past that point the
//! single frontend is the serialization bottleneck — wasted parallelism
//! at the cluster layer. This router scales the service *out* with the
//! same discipline the per-node design used: partition by key so shards
//! never coordinate (perfbook's sharded-counter idea lifted to whole
//! nodes), rather than sharing state between backends.
//!
//! * **Rendezvous (HRW) sharding.** Every request resolves to the
//!   canonical SHA-256 cache key ([`tenways_waste::SimConfig::cache_key`]),
//!   which is uniform by construction. The owner of a key is the live
//!   backend with the highest weight `sha256(key "|" addr)` — no ring
//!   state, no rebalancing table, and removing a backend moves *only*
//!   that backend's keys (each orphaned key independently falls to its
//!   next-ranked survivor). Because duplicate configs canonicalize to
//!   the same key, they land on the same backend, whose single-flight
//!   admission collapses them: the cluster never simulates a config
//!   twice while membership is stable.
//! * **Health + drain.** A monitor thread probes each backend's
//!   `/healthz` every [`RouterOptions::health_interval`], flipping an
//!   `up` flag. A transport failure on a live forward marks the backend
//!   down immediately (the monitor brings it back when it recovers).
//!   Down backends drop out of the rendezvous ranking, so their keyspace
//!   re-routes to the survivors; requests in flight on a draining
//!   backend still finish (the serve side answers, then closes).
//! * **Bounded retry + backoff.** A forward that hits a connect failure
//!   or a 503 is retried up to [`RouterOptions::retries`] times with
//!   exponential backoff, re-resolving the owner each attempt so a retry
//!   after a mark-down lands on a survivor. Past the bound the router
//!   answers 503 — backpressure propagates, it does not amplify.
//! * **Pooled keep-alive connections.** Forwards go through a small
//!   per-backend pool of [`HttpClient`]s; a send failure on a pooled
//!   socket (the backend may have idle-closed it) is retried once on a
//!   fresh connection before counting as a backend failure.
//! * **Lock-free counters.** The router's own request counters are
//!   sharded/atomic ([`ShardedCounter`]); `GET /stats` aggregates them
//!   with each live backend's `/stats` into a `serve_cluster_stats.v1`
//!   document (per-backend detail + cluster totals).
//!
//! Endpoints: `POST /run` and `GET /jobs/<key>` proxy to the owning
//! shard; `POST /batch` splits into per-backend sub-batches, posts them
//! concurrently, and merges the per-key statuses back into input order;
//! `GET /stats` aggregates; `GET /healthz` answers locally with the
//! backend census. Clients need no changes: the router speaks the same
//! `serve_response.v2`/`serve_batch.v1` documents as a single backend
//! over the same HTTP layer ([`crate::http`]), so `tenways sweep
//! --server` points at a router transparently.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tenways_sim::json::{Json, ToJson};
use tenways_sim::Sha256;
use tenways_waste::SimConfig;

use crate::http::{
    self, connect, error_doc, exchange, Handler, HttpClient, HttpCounters, HttpReply, HttpRequest,
    Response,
};
use crate::serve::{
    parse_batch_body, parse_run_body, ShardedCounter, SERVE_RESPONSE_SCHEMA_VERSION,
};

/// Version of the `GET /stats` aggregation document; bumped on any
/// breaking change. Mirrored in `results/schema/serve_cluster_stats.v1.json`.
pub const CLUSTER_STATS_SCHEMA_VERSION: u64 = 1;

/// File name of the published cluster-stats schema under `results/schema/`.
pub const SERVE_CLUSTER_STATS_SCHEMA: &str = "serve_cluster_stats.v1.json";

/// Health-probe connect timeout: a probe is cheap and frequent, so it
/// gives up fast — the next interval retries anyway.
const PROBE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Health-probe socket timeout (read + write).
const PROBE_SOCKET_TIMEOUT: Duration = Duration::from_millis(500);

/// Granularity of the monitor thread's interruptible sleep.
const MONITOR_SLICE: Duration = Duration::from_millis(25);

/// Idle keep-alive connections pooled per backend; excess connections
/// are simply closed (the backend reclaims its handler thread).
const POOL_CAP: usize = 16;

/// The `Retry-After` seconds a router-level 503 advertises.
const ROUTE_RETRY_AFTER_S: u64 = 1;

/// Tuning for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// The serve backends to shard over (`host:port` each). At least one.
    pub backends: Vec<String>,
    /// How often the monitor probes each backend's `/healthz`.
    pub health_interval: Duration,
    /// Extra attempts per forwarded request on 503 / connect failure.
    pub retries: u32,
    /// Base backoff between attempts, doubled each retry.
    pub backoff: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            backends: Vec::new(),
            health_interval: Duration::from_millis(500),
            retries: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One backend's routing state: liveness flag, per-backend counters,
/// and the pool of idle keep-alive connections to it.
#[derive(Debug)]
struct Backend {
    addr: String,
    up: AtomicBool,
    /// Requests forwarded to this backend (attempts, not successes).
    forwarded: ShardedCounter,
    /// Transport failures observed talking to this backend.
    errors: AtomicU64,
    /// Up/down flips (initial probe included when it finds the backend
    /// down).
    transitions: AtomicU64,
    pool: Mutex<Vec<HttpClient>>,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            up: AtomicBool::new(true),
            forwarded: ShardedCounter::default(),
            errors: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// A pooled client holding an open connection, else a fresh client.
    fn client(&self) -> HttpClient {
        let pooled = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
        pooled.unwrap_or_else(|| HttpClient::new(self.addr.clone()))
    }

    /// Returns a client to the pool when it still holds a connection.
    fn pool_push(&self, client: HttpClient) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if client.connected() && pool.len() < POOL_CAP {
            pool.push(client);
        }
    }

    fn pool_clear(&self) {
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Router-level counters (monotonic since start); hot-path ones sharded,
/// rare-event ones plain atomics. All lock-free — `/stats` never blocks
/// a forward.
#[derive(Debug, Default)]
struct RouterCounters {
    http: HttpCounters,
    /// Backend responses successfully relayed to a client.
    proxied: ShardedCounter,
    /// Extra forward attempts taken (503 or transport failure).
    retries: AtomicU64,
    /// Requests answered by a backend other than their full-membership
    /// rendezvous owner (i.e. served by a survivor during an outage).
    rerouted: AtomicU64,
    /// Requests the router gave up on (no live backend / retry budget
    /// exhausted) and answered 503 itself.
    rejected: AtomicU64,
}

/// The shard-by-key router. See the [module docs](self).
#[derive(Debug)]
pub struct Router {
    backends: Vec<Arc<Backend>>,
    retries: u32,
    backoff: Duration,
    counters: RouterCounters,
    shutdown: Arc<AtomicBool>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Builds the router, probes every backend once (so routing starts
    /// with an honest liveness picture), and starts the health monitor.
    ///
    /// # Errors
    ///
    /// Returns a message when `options.backends` is empty or contains a
    /// duplicate address (duplicates would corrupt the rendezvous
    /// ranking).
    pub fn new(options: RouterOptions) -> Result<Router, String> {
        if options.backends.is_empty() {
            return Err("router needs at least one backend".to_string());
        }
        for (i, addr) in options.backends.iter().enumerate() {
            if options.backends[..i].contains(addr) {
                return Err(format!("duplicate backend address {addr}"));
            }
        }
        let backends: Vec<Arc<Backend>> = options
            .backends
            .iter()
            .map(|addr| Arc::new(Backend::new(addr.clone())))
            .collect();
        for b in &backends {
            let up = probe(&b.addr);
            b.up.store(up, Ordering::Relaxed);
            if !up {
                b.transitions.fetch_add(1, Ordering::Relaxed);
                eprintln!("[route] backend {} is down at startup", b.addr);
            }
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let monitor = {
            let backends = backends.clone();
            let shutdown = Arc::clone(&shutdown);
            let interval = options.health_interval;
            std::thread::spawn(move || monitor_loop(&backends, interval, &shutdown))
        };
        Ok(Router {
            backends,
            retries: options.retries,
            backoff: options.backoff,
            counters: RouterCounters::default(),
            shutdown,
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// The configured backend addresses, in configuration order.
    pub fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    /// How many backends the monitor currently considers up.
    pub fn backends_up(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.up.load(Ordering::Relaxed))
            .count()
    }

    /// All backend indices ranked by rendezvous weight for `key`,
    /// heaviest first. The ranking ignores liveness — it is the stable
    /// fallback order; [`Router::owner`] applies the up/down filter.
    pub fn rank(&self, key: &str) -> Vec<usize> {
        let mut ranked: Vec<(u64, usize)> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, b)| (hrw_weight(key, &b.addr), i))
            .collect();
        ranked.sort_by(|a, b| b.cmp(a));
        ranked.into_iter().map(|(_, i)| i).collect()
    }

    /// The live owner of `key`: the highest-ranked backend currently up
    /// (`None` when every backend is down).
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.rank(key)
            .into_iter()
            .find(|&i| self.backends[i].up.load(Ordering::Relaxed))
    }

    /// Marks a backend down after a transport failure (the monitor
    /// brings it back up when `/healthz` answers again).
    fn mark_down(&self, idx: usize) {
        let b = &self.backends[idx];
        if b.up.swap(false, Ordering::Relaxed) {
            b.transitions.fetch_add(1, Ordering::Relaxed);
            b.pool_clear();
            eprintln!("[route] backend {} marked down", b.addr);
        }
    }

    /// Forwards one keyed request to its owner, retrying with backoff on
    /// 503 and transport failure. The owner is re-resolved each attempt,
    /// so a mark-down re-routes the retry to the key's next-ranked live
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns a message when no backend is live or the retry budget is
    /// exhausted on transport failures (a relayed 503 is an `Ok` reply).
    fn forward(
        &self,
        key: &str,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
    ) -> Result<HttpReply, String> {
        let home = self.rank(key)[0];
        let mut backoff = self.backoff;
        let mut attempt = 0u32;
        loop {
            let Some(idx) = self.owner(key) else {
                return Err("no live backend".to_string());
            };
            match self.backend_request(&self.backends[idx], method, path, body) {
                Ok(reply) if reply.status == 503 && attempt < self.retries => {
                    // Backend backpressure (full admission queue): back
                    // off and retry; the backend is alive, so the owner
                    // stays the same unless the monitor says otherwise.
                }
                Ok(reply) => {
                    if idx != home {
                        self.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                    }
                    self.counters.proxied.incr();
                    return Ok(reply);
                }
                Err(e) => {
                    self.mark_down(idx);
                    if attempt >= self.retries {
                        return Err(format!("backend {}: {e}", self.backends[idx].addr));
                    }
                }
            }
            attempt += 1;
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
    }

    /// One request to one backend through its client pool. A failure on
    /// a pooled connection gets one fresh-connection retry
    /// ([`HttpClient::request`]: the backend may have idle-closed it); a
    /// failure on a fresh connection counts as a backend error.
    fn backend_request(
        &self,
        b: &Backend,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
    ) -> Result<HttpReply, String> {
        b.forwarded.incr();
        let mut client = b.client();
        let outcome = client.request(method, path, body);
        if outcome.is_ok() {
            b.pool_push(client);
        } else {
            b.errors.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Splits a batch into per-owner sub-batches, posts them to their
    /// backends concurrently, and merges the per-key statuses back into
    /// input order. A sub-batch whose backend fails mid-post is
    /// re-grouped over the survivors (the failed backend is already
    /// marked down) for up to `retries` extra rounds; keys that still
    /// cannot be placed report `rejected`.
    fn forward_batch(&self, configs: &[(String, SimConfig)]) -> Json {
        /// One batch item: (label, cache key, config).
        type Item<'a> = (String, String, &'a SimConfig);
        let keyed: Vec<Item> = configs
            .iter()
            .map(|(label, cfg)| (label.clone(), cfg.cache_key(), cfg))
            .collect();
        // Distinct keys, first-appearance order: the cluster-wide dedup
        // (each key is posted to exactly one backend, whose own
        // single-flight admission handles any racing singles).
        let mut todo: Vec<Item> = Vec::new();
        for item in &keyed {
            if !todo.iter().any(|(_, k, _)| *k == item.1) {
                todo.push(item.clone());
            }
        }
        let unique = todo.len();
        let mut statuses: HashMap<String, Json> = HashMap::new();
        let mut backoff = self.backoff;
        for round in 0..=self.retries {
            if todo.is_empty() {
                break;
            }
            if round > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            // Group the remaining keys by their current live owner.
            let mut groups: HashMap<usize, Vec<Item>> = HashMap::new();
            let mut unroutable = Vec::new();
            for item in todo.drain(..) {
                match self.owner(&item.1) {
                    Some(idx) => groups.entry(idx).or_default().push(item),
                    None => unroutable.push(item),
                }
            }
            // Post the sub-batches concurrently — this fan-out is where
            // the cluster simulates shards in parallel.
            let outcomes: Vec<(Vec<Item>, Result<HttpReply, String>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|(idx, group)| {
                            scope.spawn(move || {
                                let body = sub_batch_body(&group);
                                let reply = self.backend_request(
                                    &self.backends[idx],
                                    "POST",
                                    "/batch",
                                    Some(("application/json", &body)),
                                );
                                if reply.is_err() {
                                    self.mark_down(idx);
                                }
                                (group, reply)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
            todo = unroutable;
            for (group, outcome) in outcomes {
                match outcome {
                    Ok(reply) if reply.status == 200 => {
                        self.counters.proxied.incr();
                        let mut by_key: HashMap<String, Json> = HashMap::new();
                        if let Some(results) = reply.body.get("results").and_then(Json::as_array) {
                            for item in results {
                                if let Some(key) = item.get("key").and_then(Json::as_str) {
                                    by_key.insert(key.to_string(), item.clone());
                                }
                            }
                        }
                        for item in group {
                            match by_key.remove(&item.1) {
                                Some(doc) => {
                                    statuses.insert(item.1.clone(), doc);
                                }
                                // The backend's report is missing the key
                                // (should not happen): try again.
                                None => todo.push(item),
                            }
                        }
                    }
                    // A non-200 batch response or a transport failure:
                    // the whole group re-groups over the survivors.
                    Ok(_) | Err(_) => todo.extend(group),
                }
            }
        }
        for (_, key, _) in &todo {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            statuses.insert(
                key.clone(),
                Json::obj([
                    ("key", Json::from(key.as_str())),
                    ("status", Json::from("rejected")),
                    ("error", Json::from("no live backend")),
                ]),
            );
        }
        merge_batch_doc(&keyed, unique, &statuses)
    }

    /// The `GET /stats` aggregation: router counters, per-backend detail
    /// (with each live backend's own `/stats` embedded), and cluster
    /// totals summed across the live backends.
    pub fn cluster_stats_json(&self) -> Json {
        let c = &self.counters;
        let load = |a: &AtomicU64| Json::U64(a.load(Ordering::Relaxed));
        let router = Json::obj([
            ("connections", Json::U64(c.http.connections.sum())),
            ("requests", Json::U64(c.http.requests.sum())),
            ("proxied", Json::U64(c.proxied.sum())),
            ("retries", load(&c.retries)),
            ("rerouted", load(&c.rerouted)),
            ("rejected", load(&c.rejected)),
            ("bad_requests", load(&c.http.bad_requests)),
        ]);
        const SUMMED: [&str; 8] = [
            "requests",
            "hits",
            "misses",
            "joined",
            "rejected",
            "sim_runs",
            "sim_failures",
            "connections",
        ];
        let mut totals: HashMap<&str, u64> = SUMMED.iter().map(|k| (*k, 0)).collect();
        let mut up_count = 0usize;
        let backends: Vec<Json> = self
            .backends
            .iter()
            .map(|b| {
                let up = b.up.load(Ordering::Relaxed);
                let stats = if up {
                    self.backend_request(b, "GET", "/stats", None)
                        .ok()
                        .filter(|r| r.status == 200)
                        .map(|r| r.body)
                } else {
                    None
                };
                if let Some(stats) = &stats {
                    up_count += 1;
                    for k in SUMMED {
                        if let Some(n) = stats.get(k).and_then(Json::as_u64) {
                            *totals.get_mut(k).expect("seeded") += n;
                        }
                    }
                }
                Json::obj([
                    ("addr", Json::from(b.addr.as_str())),
                    ("up", Json::Bool(up && stats.is_some())),
                    ("forwarded", Json::U64(b.forwarded.sum())),
                    ("errors", load(&b.errors)),
                    ("transitions", load(&b.transitions)),
                    ("stats", stats.unwrap_or(Json::Null)),
                ])
            })
            .collect();
        let mut cluster = vec![
            (
                "backends_total".to_string(),
                Json::from(self.backends.len()),
            ),
            ("backends_up".to_string(), Json::from(up_count)),
        ];
        for k in SUMMED {
            cluster.push((k.to_string(), Json::U64(totals[k])));
        }
        Json::obj([
            ("schema_version", Json::U64(CLUSTER_STATS_SCHEMA_VERSION)),
            ("router", router),
            ("backends", Json::Arr(backends)),
            ("cluster", Json::Obj(cluster)),
        ])
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let handle = {
            let mut monitor = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
            monitor.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The rendezvous weight of `addr` for `key`: the first 8 bytes of
/// `sha256(key "|" addr)` as a big-endian integer. SHA-256 keys are
/// uniform, so weights are too — expected load imbalance across N
/// backends is O(sqrt(keys/N)), with no placement table to maintain.
fn hrw_weight(key: &str, addr: &str) -> u64 {
    let mut h = Sha256::new();
    h.update(key.as_bytes());
    h.update(b"|");
    h.update(addr.as_bytes());
    let digest = h.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("sha256 digest is 32 bytes"))
}

/// One synchronous `/healthz` probe (its own short-timeout, one-shot
/// `Connection: close` connection — probes never borrow the forwarding
/// pool, and never park a backend's keep-alive handler).
fn probe(addr: &str) -> bool {
    connect(addr, PROBE_CONNECT_TIMEOUT, PROBE_SOCKET_TIMEOUT)
        .and_then(|mut stream| exchange(&mut stream, addr, "GET", "/healthz", None, false))
        .is_ok_and(|reply| reply.status == 200)
}

/// The monitor loop: probe every backend each interval, flip `up` flags
/// on change, and exit promptly when the router shuts down.
fn monitor_loop(backends: &[Arc<Backend>], interval: Duration, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        for b in backends {
            let up = probe(&b.addr);
            let was = b.up.swap(up, Ordering::Relaxed);
            if was != up {
                b.transitions.fetch_add(1, Ordering::Relaxed);
                if !up {
                    b.pool_clear();
                }
                eprintln!(
                    "[route] backend {} is {}",
                    b.addr,
                    if up { "up" } else { "down" }
                );
            }
        }
        let slept = Instant::now();
        while slept.elapsed() < interval && !shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(MONITOR_SLICE.min(interval));
        }
    }
}

/// Renders one per-backend sub-batch body (labelled canonical configs).
fn sub_batch_body(group: &[(String, String, &SimConfig)]) -> String {
    let configs: Vec<Json> = group
        .iter()
        .map(|(label, _, cfg)| {
            Json::obj([
                ("label", Json::from(label.as_str())),
                ("config", cfg.to_json()),
            ])
        })
        .collect();
    Json::obj([("configs", Json::Arr(configs))]).to_string()
}

/// Merges resolved per-key statuses back into input order and rebuilds
/// the `serve_batch.v1` counts — the same document shape a single
/// backend answers, so batch clients cannot tell a cluster from a node.
fn merge_batch_doc(
    keyed: &[(String, String, &SimConfig)],
    unique: usize,
    statuses: &HashMap<String, Json>,
) -> Json {
    let items: Vec<Json> = keyed
        .iter()
        .map(|(label, key, _)| {
            let resolved = statuses.get(key).cloned().unwrap_or_else(|| {
                Json::obj([
                    ("key", Json::from(key.as_str())),
                    ("status", Json::from("rejected")),
                    ("error", Json::from("no live backend")),
                ])
            });
            // The backend echoed the first-appearance label; restore
            // this item's own. Every other byte passes through.
            let Json::Obj(pairs) = resolved else {
                return resolved;
            };
            let mut relabelled: Vec<(String, Json)> =
                vec![("label".to_string(), Json::from(label.as_str()))];
            relabelled.extend(pairs.into_iter().filter(|(name, _)| name != "label"));
            Json::Obj(relabelled)
        })
        .collect();
    let count = |s: &str| {
        items
            .iter()
            .filter(|i| i.get("status").and_then(Json::as_str) == Some(s))
            .count()
    };
    Json::obj([
        ("schema_version", Json::U64(SERVE_RESPONSE_SCHEMA_VERSION)),
        ("total", Json::from(keyed.len())),
        ("unique", Json::from(unique)),
        ("deduplicated", Json::from(keyed.len() - unique)),
        ("cached", Json::from(count("cached"))),
        ("computed", Json::from(count("computed"))),
        ("queued", Json::from(count("queued"))),
        ("rejected", Json::from(count("rejected"))),
        ("failed", Json::from(count("failed"))),
        ("results", Json::Arr(items)),
    ])
}

/// Relays a backend reply to the client, preserving `Retry-After`.
fn relay(reply: HttpReply) -> Response {
    let mut headers = Vec::new();
    if let Some(v) = reply.header("retry-after") {
        headers.push(("Retry-After", v.to_string()));
    }
    (reply.status, headers, reply.body)
}

impl Handler for Router {
    const TAG: &'static str = "route";

    fn http_counters(&self) -> &HttpCounters {
        &self.counters.http
    }

    fn handle(&self, request: &HttpRequest) -> Response {
        let plain = |status: u16, doc: Json| (status, Vec::new(), doc);
        let bad_request = |status, message: &str| self.counters.http.bad_request(status, message);
        let give_up = |e: String| {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            (
                503,
                vec![("Retry-After", ROUTE_RETRY_AFTER_S.to_string())],
                error_doc(&e),
            )
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/run") => {
                let cfg = match parse_run_body(&request.content_type, &request.body) {
                    Ok(cfg) => cfg,
                    Err(e) => return bad_request(400, &e),
                };
                // Forward the canonical JSON rendering: the backend derives
                // the same cache key from it by construction, so router and
                // shard agree on ownership.
                let key = cfg.cache_key();
                let body = cfg.to_json().to_string();
                match self.forward(&key, "POST", "/run", Some(("application/json", &body))) {
                    Ok(reply) => relay(reply),
                    Err(e) => give_up(e),
                }
            }
            ("POST", "/batch") => match parse_batch_body(&request.content_type, &request.body) {
                Ok(configs) => plain(200, self.forward_batch(&configs)),
                Err(e) => bad_request(400, &e),
            },
            ("GET", "/stats") => plain(200, self.cluster_stats_json()),
            ("GET", "/healthz") => {
                let up = self.backends_up();
                plain(
                    200,
                    Json::obj([
                        ("ok", Json::Bool(up > 0)),
                        ("backends_up", Json::from(up)),
                        ("backends_total", Json::from(self.backends.len())),
                    ]),
                )
            }
            ("GET", path) if path.starts_with("/jobs/") => {
                let key = &path["/jobs/".len()..];
                match self.forward(key, "GET", path, None) {
                    Ok(reply) => relay(reply),
                    Err(e) => give_up(e),
                }
            }
            (method, path) => bad_request(404, &format!("no such endpoint: {method} {path}")),
        }
    }
}

/// Serves the router over the same HTTP layer as
/// [`serve_http_shutdown`](crate::serve_http_shutdown) (`max_requests`
/// counts accepted connections; raising `shutdown` drains and returns).
///
/// # Errors
///
/// Returns a message when the listener cannot be made pollable.
pub fn route_http(
    router: Arc<Router>,
    listener: TcpListener,
    max_requests: Option<u64>,
    verbose: bool,
    shutdown: Arc<AtomicBool>,
) -> Result<(), String> {
    http::serve(router, listener, max_requests, verbose, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_http_shutdown, ServeOptions, SimService};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenways-route-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            workload: "lu".to_string(),
            threads: 2,
            scale: 1,
            seed,
            ..SimConfig::default()
        }
    }

    /// One in-process serve backend on an ephemeral port.
    struct TestBackend {
        svc: Arc<SimService>,
        addr: String,
        shutdown: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<Result<(), String>>>,
        dir: PathBuf,
    }

    impl TestBackend {
        fn start(tag: &str) -> TestBackend {
            let dir = tmp_dir(tag);
            let svc = Arc::new(
                SimService::new(ServeOptions {
                    workers: 1,
                    cache_dir: dir.clone(),
                    ..ServeOptions::default()
                })
                .unwrap(),
            );
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let shutdown = Arc::new(AtomicBool::new(false));
            let thread = {
                let svc = Arc::clone(&svc);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    serve_http_shutdown(svc, listener, None, false, shutdown)
                })
            };
            TestBackend {
                svc,
                addr,
                shutdown,
                thread: Some(thread),
                dir,
            }
        }

        /// Kills the backend: drain, close every socket, free the port.
        fn stop(&mut self) {
            self.shutdown.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                thread.join().unwrap().unwrap();
            }
        }
    }

    impl Drop for TestBackend {
        fn drop(&mut self) {
            self.stop();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// A router + N backends wired together, plus the router's own
    /// HTTP frontend.
    struct TestCluster {
        backends: Vec<TestBackend>,
        router: Arc<Router>,
        addr: String,
        shutdown: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<Result<(), String>>>,
    }

    impl TestCluster {
        fn start(tag: &str, n: usize) -> TestCluster {
            let backends: Vec<TestBackend> = (0..n)
                .map(|i| TestBackend::start(&format!("{tag}-b{i}")))
                .collect();
            let router = Arc::new(
                Router::new(RouterOptions {
                    backends: backends.iter().map(|b| b.addr.clone()).collect(),
                    health_interval: Duration::from_millis(50),
                    retries: 4,
                    backoff: Duration::from_millis(10),
                })
                .unwrap(),
            );
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let shutdown = Arc::new(AtomicBool::new(false));
            let thread = {
                let router = Arc::clone(&router);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || route_http(router, listener, None, false, shutdown))
            };
            TestCluster {
                backends,
                router,
                addr,
                shutdown,
                thread: Some(thread),
            }
        }

        fn total_sim_runs(&self) -> u64 {
            self.backends.iter().map(|b| b.svc.sim_runs()).sum()
        }
    }

    impl Drop for TestCluster {
        fn drop(&mut self) {
            self.shutdown.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                thread.join().unwrap().unwrap();
            }
        }
    }

    #[test]
    fn rendezvous_ranking_is_stable_and_minimally_disruptive() {
        let addrs = ["10.0.0.1:9000", "10.0.0.2:9000", "10.0.0.3:9000"];
        let keys: Vec<String> = (0..200).map(|i| format!("key-{i}")).collect();

        // Deterministic: the same key always ranks the same way.
        for key in &keys {
            let mut ranked: Vec<&str> = addrs.to_vec();
            ranked.sort_by_key(|addr| std::cmp::Reverse(hrw_weight(key, addr)));
            let mut again: Vec<&str> = addrs.to_vec();
            again.sort_by_key(|addr| std::cmp::Reverse(hrw_weight(key, addr)));
            assert_eq!(ranked, again);
        }

        // Uniform enough: every backend owns a nontrivial share.
        let mut owned = [0usize; 3];
        for key in &keys {
            let owner = (0..3).max_by_key(|&i| hrw_weight(key, addrs[i])).unwrap();
            owned[owner] += 1;
        }
        for (i, count) in owned.iter().enumerate() {
            assert!(
                *count > keys.len() / 10,
                "backend {i} owns only {count}/{} keys: {owned:?}",
                keys.len()
            );
        }

        // Minimal disruption: removing one backend moves only its own
        // keys — every other key keeps its owner.
        for (removed, _) in addrs.iter().enumerate() {
            for key in &keys {
                let full = (0..3).max_by_key(|&i| hrw_weight(key, addrs[i])).unwrap();
                let survivors: Vec<usize> = (0..3).filter(|&i| i != removed).collect();
                let reduced = survivors
                    .iter()
                    .copied()
                    .max_by_key(|&i| hrw_weight(key, addrs[i]))
                    .unwrap();
                if full != removed {
                    assert_eq!(full, reduced, "key {key} moved without losing its owner");
                }
            }
        }
    }

    #[test]
    fn same_key_routes_to_same_backend_and_never_duplicates_a_simulation() {
        let cluster = TestCluster::start("stable", 2);
        let mut client = HttpClient::new(cluster.addr.clone());
        let body = small_cfg(1).to_json().to_string();

        let first = client
            .request("POST", "/run", Some(("application/json", &body)))
            .unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(
            first.body.get("cached").and_then(Json::as_bool),
            Some(false)
        );

        let second = client
            .request("POST", "/run", Some(("application/json", &body)))
            .unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(
            second.body.get("cached").and_then(Json::as_bool),
            Some(true),
            "same key must land on the same (warm) backend"
        );
        assert_eq!(
            second.body.get("record").unwrap().to_string(),
            first.body.get("record").unwrap().to_string()
        );
        assert_eq!(cluster.total_sim_runs(), 1, "exactly one backend simulated");

        // The key's owner is stable and the job is pollable through the
        // router on the owning shard.
        let key = first.body.get("key").and_then(Json::as_str).unwrap();
        let job = client
            .request("GET", &format!("/jobs/{key}"), None)
            .unwrap();
        assert_eq!(job.status, 200);
        assert_eq!(job.body.get("status").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn failover_reroutes_a_dead_backends_keyspace_with_no_lost_request() {
        let mut cluster = TestCluster::start("failover", 2);
        let configs: Vec<SimConfig> = (0..6).map(small_cfg).collect();
        let mut client = HttpClient::new(cluster.addr.clone());

        // Warm every key through the router and remember who owns what.
        for cfg in &configs {
            let body = cfg.to_json().to_string();
            let reply = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200);
        }
        assert_eq!(cluster.total_sim_runs(), 6);
        let victim_keys: Vec<String> = configs
            .iter()
            .map(|cfg| cfg.cache_key())
            .filter(|key| cluster.router.rank(key)[0] == 0)
            .collect();
        assert!(
            !victim_keys.is_empty() && victim_keys.len() < 6,
            "test wants both backends owning keys: {}/6 on backend 0",
            victim_keys.len()
        );

        // Kill backend 0 mid-cluster: every key must still answer 200 —
        // the victim's keyspace re-routes to the survivor, which
        // re-simulates what it never cached.
        cluster.backends[0].stop();
        for cfg in &configs {
            let body = cfg.to_json().to_string();
            let reply = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200, "no request may be lost across the kill");
        }
        assert_eq!(cluster.router.backends_up(), 1);
        let rerouted = cluster.router.counters.rerouted.load(Ordering::Relaxed);
        assert!(
            rerouted >= victim_keys.len() as u64,
            "the victim's {} keys must be rerouted (saw {rerouted})",
            victim_keys.len()
        );
        // The survivor now holds every key: its original share plus the
        // orphaned victim keys, which it re-simulated afresh.
        assert_eq!(cluster.backends[1].svc.sim_runs(), 6);
        assert_eq!(cluster.backends[0].svc.sim_runs(), victim_keys.len() as u64);
    }

    #[test]
    fn batch_splits_by_owner_and_merges_statuses_byte_identically() {
        let cluster = TestCluster::start("batch", 2);
        let configs: Vec<(String, SimConfig)> = (0..4)
            .flat_map(|seed| {
                // Two labelled duplicates per seed: dedup must be
                // cluster-wide, labels must survive the merge.
                vec![
                    (format!("s{seed}-a"), small_cfg(seed)),
                    (format!("s{seed}-b"), small_cfg(seed)),
                ]
            })
            .collect();
        let body = Json::obj([(
            "configs",
            Json::Arr(
                configs
                    .iter()
                    .map(|(label, cfg)| {
                        Json::obj([
                            ("label", Json::from(label.as_str())),
                            ("config", cfg.to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
        .to_string();
        let mut client = HttpClient::new(cluster.addr.clone());
        let reply = client
            .request("POST", "/batch", Some(("application/json", &body)))
            .unwrap();
        assert_eq!(reply.status, 200);
        let doc = &reply.body;
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get("unique").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("deduplicated").and_then(Json::as_u64), Some(4));
        assert_eq!(
            cluster.total_sim_runs(),
            4,
            "cluster-wide dedup: one simulation per distinct key"
        );
        assert!(
            cluster.backends.iter().all(|b| b.svc.sim_runs() > 0)
                || cluster.backends.iter().any(|b| b.svc.sim_runs() == 4),
            "the batch was split across owners (or one owner owns all)"
        );

        // Byte-level fidelity: each merged record is identical to what
        // the owning backend serves directly for that key.
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 8);
        for (item, (label, cfg)) in results.iter().zip(&configs) {
            assert_eq!(
                item.get("label").and_then(Json::as_str),
                Some(label.as_str())
            );
            assert_eq!(
                item.get("key").and_then(Json::as_str),
                Some(cfg.cache_key().as_str())
            );
            let status = item.get("status").and_then(Json::as_str).unwrap();
            assert!(status == "computed" || status == "cached", "got {status}");
            let key = cfg.cache_key();
            let owner = cluster.router.owner(&key).unwrap();
            let direct = crate::http::http_request(
                &cluster.backends[owner].addr,
                "GET",
                &format!("/jobs/{key}"),
                None,
            )
            .unwrap();
            assert_eq!(
                item.get("record").unwrap().to_string(),
                direct.body.get("record").unwrap().to_string(),
                "merged record must be byte-identical to the shard's"
            );
        }
    }

    #[test]
    fn cluster_stats_aggregate_per_backend_counters() {
        let cluster = TestCluster::start("stats", 2);
        let mut client = HttpClient::new(cluster.addr.clone());
        for seed in 0..4 {
            let body = small_cfg(seed).to_json().to_string();
            let reply = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200);
        }
        let stats = client.request("GET", "/stats", None).unwrap();
        assert_eq!(stats.status, 200);
        let doc = &stats.body;
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(CLUSTER_STATS_SCHEMA_VERSION)
        );
        let cluster_doc = doc.get("cluster").unwrap();
        assert_eq!(
            cluster_doc.get("backends_up").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            cluster_doc.get("sim_runs").and_then(Json::as_u64),
            Some(cluster.total_sim_runs())
        );
        // The cluster totals are exactly the sum of the embedded
        // per-backend stats — aggregation is arithmetic, not sampling.
        let backends = doc.get("backends").and_then(Json::as_array).unwrap();
        assert_eq!(backends.len(), 2);
        for field in ["sim_runs", "hits", "misses", "requests"] {
            let summed: u64 = backends
                .iter()
                .filter_map(|b| b.get("stats").and_then(|s| s.get(field)))
                .filter_map(Json::as_u64)
                .sum();
            assert_eq!(
                cluster_doc.get(field).and_then(Json::as_u64),
                Some(summed),
                "cluster.{field} must equal the per-backend sum"
            );
        }
        // The router section counts its own traffic: 4 runs + 1 stats
        // over one keep-alive connection.
        let router_doc = doc.get("router").unwrap();
        assert_eq!(
            router_doc.get("connections").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(router_doc.get("requests").and_then(Json::as_u64), Some(5));
        assert_eq!(router_doc.get("proxied").and_then(Json::as_u64), Some(4));
        assert_eq!(router_doc.get("rejected").and_then(Json::as_u64), Some(0));
    }
}
