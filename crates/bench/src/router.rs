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
//!   which is uniform by construction. The owner of a key is the eligible
//!   backend with the highest weight `sha256(key "|" addr)` — no ring
//!   state, no rebalancing table, and removing a backend moves *only*
//!   that backend's keys (each orphaned key independently falls to its
//!   next-ranked survivor). Because duplicate configs canonicalize to
//!   the same key, they land on the same backend, whose single-flight
//!   admission collapses them: the cluster never simulates a config
//!   twice while membership is stable.
//! * **Liveness from traffic.** Liveness is partitioned like the keys:
//!   each backend's liveness is kept from the router's own exchanges
//!   with that backend, with no poller beside it. Every `/run` forward,
//!   `/batch` sub-batch and `/stats` census call marks the backend up
//!   when its reply is accepted and down when it fails or is refused. A
//!   backend no request has reached counts as up. A down backend sits
//!   out `DOWN_RETRY` (the client's connect timeout); after that it is
//!   eligible again, and a request sent to it restarts the wait before
//!   it goes out, so requests that come while that trial is out pass the
//!   backend over. Backends sitting out drop out of the rendezvous
//!   ranking, so their keyspace re-routes to the survivors; requests in
//!   flight on a draining backend still finish (the serve side answers,
//!   then closes).
//! * **Each backend at most once.** A `/run` forward tries the key's
//!   ranked eligible backends in order and relays the first reply it gets,
//!   whatever its status: a backend's 503 is as deterministic as its
//!   200, so asking again would only add latency. A transport failure
//!   marks that backend down and moves on to the next; with none left
//!   the router answers 503 itself. Nothing sleeps.
//! * **Pooled keep-alive connections.** Forwards go through a small
//!   per-backend pool of [`HttpClient`]s; a send failure on a pooled
//!   socket (the backend may have idle-closed it) is retried once on a
//!   fresh connection before counting as a backend failure.
//! * **Lock-free counters.** The router's own request counters are
//!   sharded/atomic ([`ShardedCounter`]); `GET /stats` aggregates them
//!   with each eligible backend's `/stats` into a `serve_cluster_stats.v2`
//!   document (per-backend detail + cluster totals).
//!
//! Endpoints: `POST /run` proxies to the owning shard, relaying its
//! status and body text unchanged. A routed `/run` builds
//! no JSON tree: the router decodes the config once, renders its
//! canonical text ([`SimConfig::canonical_text`]), keys it by
//! that text's SHA-256 and forwards the same text as the backend's body,
//! and it reads the reply with a validating scan ([`Json::validate`])
//! instead of a parse, so a malformed body is still a transport failure
//! that marks the backend down, but no reply is built into a tree only to
//! be dropped. `POST /batch` splits into
//! per-backend sub-batches, posts them concurrently, and merges the
//! parsed per-key statuses back into input order (a sub-batch that fails
//! marks its backend down and only its keys regroup over the backends
//! this batch has not failed on);
//! `GET /stats` aggregates; `GET /healthz` answers locally with the
//! backends' up flags. Clients need no changes: the router speaks the same
//! `serve_response.v4`/`serve_batch.v1` documents as a single backend
//! over the same HTTP layer ([`crate::http`]), so `tenways sweep
//! --server` points at a router transparently.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tenways_sim::json::Json;
use tenways_sim::Sha256;
use tenways_waste::{cache_key_of, SimConfig};

use crate::http::{
    self, error_doc, reply, Handler, HttpClient, HttpCounters, HttpReply, HttpRequest, ReplyBody,
    Response, CONNECT_TIMEOUT,
};
use crate::serve::{
    batch_body, batch_reply, first_appearances, parse_batch_body, parse_run_body, ShardedCounter,
};

/// Version of the `GET /stats` aggregation document; bumped on any
/// breaking change. Mirrored in `results/schema/serve_cluster_stats.v2.json`.
pub const CLUSTER_STATS_SCHEMA_VERSION: u64 = 2;

/// File name of the published cluster-stats schema under `results/schema/`.
pub const SERVE_CLUSTER_STATS_SCHEMA: &str = "serve_cluster_stats.v2.json";

/// How long a backend marked down sits out before a request may try it
/// again: the client's connect timeout. A trial restarts the wait as it
/// goes out, so against a single-address host that drops connection
/// attempts the trial gives up about when the next one may start; a
/// shorter wait would let such trials pile up, and a longer one would
/// keep a recovered backend out for longer than one connect attempt.
const DOWN_RETRY: Duration = CONNECT_TIMEOUT;

/// Idle keep-alive connections pooled per backend; excess connections
/// are simply closed (the backend reclaims its handler thread).
const POOL_CAP: usize = 16;

/// Tuning for a [`Router`].
#[derive(Debug, Clone, Default)]
pub struct RouterOptions {
    /// The serve backends to shard over (`host:port` each). At least one.
    pub backends: Vec<String>,
}

/// One backend's routing state: liveness, per-backend counters, and the
/// pool of idle keep-alive connections to it.
#[derive(Debug)]
struct Backend {
    addr: String,
    /// 0 while the backend is up: the router's last exchange with it
    /// succeeded, or there was none yet. While it is down, the end of its
    /// wait in nanoseconds since the router's `epoch`, which is never 0
    /// (a wait ends `DOWN_RETRY` after it starts). One word, so every
    /// liveness change is one atomic operation.
    down_until: AtomicU64,
    /// `/run` forwards and `/batch` sub-batches sent to this backend
    /// (attempts, not successes).
    forwarded: ShardedCounter,
    /// Transport failures observed talking to this backend.
    errors: AtomicU64,
    /// Up/down flips.
    transitions: AtomicU64,
    pool: Mutex<Vec<HttpClient>>,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            down_until: AtomicU64::new(0),
            forwarded: ShardedCounter::default(),
            errors: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Whether the router's last exchange with this backend succeeded
    /// (or there was none yet).
    fn up(&self) -> bool {
        self.down_until.load(Ordering::Relaxed) == 0
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
    /// Re-forwards after a mark-down: a `/run` moving on to its next
    /// eligible backend, or a batch round regrouping a failed sub-batch's
    /// keys.
    retries: AtomicU64,
    /// Requests answered by a backend other than their full-membership
    /// rendezvous owner (i.e. served by a survivor during an outage).
    rerouted: AtomicU64,
    /// Requests the router answered 503 itself: no eligible backend was
    /// left to try.
    rejected: AtomicU64,
}

/// The shard-by-key router. See the [module docs](self).
#[derive(Debug)]
pub struct Router {
    backends: Vec<Backend>,
    counters: RouterCounters,
    /// The clock origin of every backend's `down_until`.
    epoch: Instant,
}

impl Router {
    /// Builds the router over `options.backends`, every one up. Contacts
    /// no backend: liveness comes from the requests the router sends.
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
        Ok(Router {
            backends: options.backends.into_iter().map(Backend::new).collect(),
            counters: RouterCounters::default(),
            epoch: Instant::now(),
        })
    }

    /// How many backends are up: the router's last exchange with each
    /// succeeded, or no request has reached it yet.
    pub fn backends_up(&self) -> usize {
        self.backends.iter().filter(|b| b.up()).count()
    }

    /// All backend indices ranked by rendezvous weight for `key`,
    /// heaviest first. The ranking ignores liveness — it is the stable
    /// fallback order; [`Router::owner`] applies the eligibility filter.
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

    /// The owner of `key`: the highest-ranked eligible backend (`None`
    /// when every backend is sitting out its wait).
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.rank(key).into_iter().find(|&i| self.eligible(i))
    }

    /// `at` in nanoseconds since the router's epoch.
    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether requests may go to backend `idx`: it is up, or its wait
    /// since it was marked down is over. Checking changes nothing: only
    /// sending to a down backend restarts its wait.
    fn eligible(&self, idx: usize) -> bool {
        let until = self.backends[idx].down_until.load(Ordering::Relaxed);
        until == 0 || self.nanos(Instant::now()) >= until
    }

    /// Records what an exchange with backend `b` showed. A reply the
    /// router accepted marks it up; a transport failure or a refused reply
    /// marks it down and starts its wait. Each flip counts in
    /// `transitions` and is logged, and marking a backend down clears its
    /// pool.
    fn observe(&self, b: &Backend, accepted: bool) {
        if accepted {
            // Reading first keeps the common case, an up backend, free of
            // writes to the shared word.
            if !b.up() && b.down_until.swap(0, Ordering::Relaxed) != 0 {
                b.transitions.fetch_add(1, Ordering::Relaxed);
                eprintln!("[route] backend {} marked up", b.addr);
            }
        } else {
            let until = self.nanos(Instant::now() + DOWN_RETRY);
            if b.down_until.swap(until, Ordering::Relaxed) == 0 {
                b.transitions.fetch_add(1, Ordering::Relaxed);
                b.pool_clear();
                eprintln!("[route] backend {} marked down", b.addr);
            }
        }
    }

    /// Forwards one `POST /run` body, the canonical text keyed `key`, and
    /// returns the reply to relay (its body validated, not parsed). The
    /// key's ranked eligible backends are tried in order, each at most
    /// once: the first reply, whatever its status, is relayed and marks
    /// its backend up, and a transport failure marks that backend down and
    /// moves on to the next.
    ///
    /// # Errors
    ///
    /// Returns a message when no eligible backend is left to try: the last
    /// transport failure, or `no live backend` when none was eligible.
    fn forward(&self, key: &str, body: &str) -> Result<HttpReply, String> {
        let ranked = self.rank(key);
        let mut failure = None;
        for &idx in &ranked {
            if !self.eligible(idx) {
                continue;
            }
            if failure.is_some() {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            let backend = &self.backends[idx];
            backend.forwarded.incr();
            let run = Some(("application/json", body));
            // Every reply is relayed, so every reply is accepted.
            match self.backend_request(idx, ReplyBody::Validate, "POST", "/run", run, Some) {
                Ok(reply) => {
                    if idx != ranked[0] {
                        self.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                    }
                    self.counters.proxied.incr();
                    return Ok(reply);
                }
                Err(e) => failure = Some(format!("backend {}: {e}", backend.addr)),
            }
        }
        Err(failure.unwrap_or_else(|| "no live backend".to_string()))
    }

    /// One exchange with backend `idx` through its client pool: sends the
    /// request, lets `accept` take what it needs from the reply (`None`
    /// refuses the reply), and records the outcome ([`Router::observe`]).
    ///
    /// A request to a down backend is a trial: it restarts the backend's
    /// wait before it is sent, so requests that come while it is out pass
    /// the backend over. A failure on a pooled connection gets one
    /// fresh-connection retry ([`HttpClient::request`]: the backend may
    /// have idle-closed it); a failure on a fresh connection counts as a
    /// backend error.
    fn backend_request<T>(
        &self,
        idx: usize,
        read: ReplyBody,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
        accept: impl FnOnce(HttpReply) -> Option<T>,
    ) -> Result<T, String> {
        let b = &self.backends[idx];
        let until = b.down_until.load(Ordering::Relaxed);
        if until != 0 {
            // Should another exchange have moved the word since, its
            // verdict stands: this one only restarts the wait it read.
            let restart = self.nanos(Instant::now() + DOWN_RETRY);
            let relaxed = Ordering::Relaxed;
            let _ = b
                .down_until
                .compare_exchange(until, restart, relaxed, relaxed);
        }
        let mut client = b.client();
        let outcome = client.request_as(read, method, path, body);
        let accepted = match outcome {
            Ok(reply) => {
                b.pool_push(client);
                accept(reply).ok_or_else(|| "refused its reply".to_string())
            }
            Err(e) => {
                b.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        };
        self.observe(b, accepted.is_ok());
        accepted
    }

    /// Splits a batch into per-owner sub-batches, posts them to their
    /// backends concurrently, and merges the per-key statuses back into
    /// input order. A sub-batch whose reply is a 200 answering every key
    /// it was sent marks its backend up; any other outcome marks it down,
    /// and only its keys regroup over the eligible backends this call has
    /// not failed on. Like a `/run` forward, each key tries each backend
    /// at most once, so one round per backend places every key or runs
    /// out of backends; keys left with none report `failed`. Returns the
    /// rendered reply.
    fn forward_batch(&self, configs: &[(String, SimConfig)]) -> String {
        let keys: Vec<String> = configs.iter().map(|(_, cfg)| cfg.cache_key()).collect();
        // Distinct keys, first-appearance order: the cluster-wide dedup
        // (each key is posted to exactly one backend, whose own
        // single-flight admission handles any racing singles).
        let mut todo = first_appearances(keys.iter().map(String::as_str));
        let unique = todo.len();
        let mut statuses: HashMap<&str, Json> = HashMap::new();
        // Keys whose ranking holds no backend left to try.
        let mut stranded = Vec::new();
        // Backends whose sub-batch failed in this call. A backend's wait
        // can end while a slow sub-batch elsewhere holds the round up, so
        // eligibility alone could hand it its keys again; this set keeps
        // each round from asking a backend that already failed them, and
        // each round that leaves keys over adds a backend to it.
        let mut failed = vec![false; self.backends.len()];
        for round in 0..self.backends.len() {
            if todo.is_empty() {
                break;
            }
            if round > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            // Group the remaining keys by their highest-ranked eligible
            // backend that has not failed them.
            let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
            for i in todo.drain(..) {
                let to = self
                    .rank(&keys[i])
                    .into_iter()
                    .find(|&idx| !failed[idx] && self.eligible(idx));
                match to {
                    Some(idx) => groups.entry(idx).or_default().push(i),
                    None => stranded.push(i),
                }
            }
            // Post the sub-batches concurrently — this fan-out is where
            // the cluster simulates shards in parallel.
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|(idx, group)| {
                        let keys = &keys;
                        scope.spawn(move || {
                            let body =
                                batch_body(group.iter().map(|&i| (&configs[i].0, &configs[i].1)));
                            let sent: Vec<&str> = group.iter().map(|&i| keys[i].as_str()).collect();
                            self.backends[idx].forwarded.incr();
                            let items = self.backend_request(
                                idx,
                                ReplyBody::Parse,
                                "POST",
                                "/batch",
                                Some(("application/json", &body)),
                                |reply| batch_items(&reply, &sent),
                            );
                            (idx, group, sent, items)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (idx, group, sent, items) in outcomes {
                match items {
                    Ok(items) => {
                        self.counters.proxied.incr();
                        statuses.extend(sent.into_iter().zip(items));
                    }
                    Err(_) => {
                        failed[idx] = true;
                        todo.extend(group);
                    }
                }
            }
        }
        for i in stranded.into_iter().chain(todo) {
            statuses.insert(
                &keys[i],
                Json::obj([
                    ("key", Json::from(keys[i].as_str())),
                    ("status", Json::from("failed")),
                    ("error", Json::from("no live backend")),
                ]),
            );
        }
        // Every distinct key now has a status. The backend echoed the
        // first-appearance label; each item gets its own back, and every
        // other member passes through.
        let results: Vec<(&str, String)> = configs
            .iter()
            .zip(&keys)
            .map(|((label, _), key)| {
                let status = &statuses[key.as_str()];
                let mut item = vec![("label".to_string(), Json::from(label.as_str()))];
                if let Json::Obj(pairs) = status {
                    item.extend(pairs.iter().filter(|(name, _)| name != "label").cloned());
                }
                let name = status.get("status").and_then(Json::as_str).unwrap_or("");
                (name, Json::Obj(item).to_string())
            })
            .collect();
        batch_reply(unique, &results)
    }

    /// The `GET /stats` aggregation: router counters, per-backend detail
    /// (with each eligible backend's own `/stats` embedded), and cluster
    /// totals summed across the backends that answered. Each `/stats`
    /// call is an exchange like a forward: a 200 marks its backend up,
    /// anything else marks it down.
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
        const SUMMED: [&str; 7] = [
            "requests",
            "hits",
            "misses",
            "joined",
            "sim_runs",
            "sim_failures",
            "connections",
        ];
        let mut totals: HashMap<&str, u64> = SUMMED.iter().map(|k| (*k, 0)).collect();
        let mut up_count = 0usize;
        let backends: Vec<Json> = self
            .backends
            .iter()
            .enumerate()
            .map(|(idx, b)| {
                let stats = if self.eligible(idx) {
                    let census = |r: HttpReply| (r.status == 200).then_some(r.body);
                    self.backend_request(idx, ReplyBody::Parse, "GET", "/stats", None, census)
                        .ok()
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
                    ("up", Json::Bool(stats.is_some())),
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

/// The result items of a backend's `/batch` reply for the keys it was
/// `sent`, in that order: `None` unless the reply is a 200 answering
/// every one of them.
fn batch_items(reply: &HttpReply, sent: &[&str]) -> Option<Vec<Json>> {
    if reply.status != 200 {
        return None;
    }
    let mut by_key: HashMap<&str, &Json> = HashMap::new();
    for item in reply.body.get("results").and_then(Json::as_array)? {
        if let Some(key) = item.get("key").and_then(Json::as_str) {
            by_key.insert(key, item);
        }
    }
    sent.iter()
        .map(|key| by_key.get(key).map(|&item| item.clone()))
        .collect()
}

/// Relays a backend reply to the client: its status and its body text
/// as received.
fn relay(reply: HttpReply) -> Response {
    (reply.status, reply.text)
}

impl Handler for Router {
    const TAG: &'static str = "route";

    fn http_counters(&self) -> &HttpCounters {
        &self.counters.http
    }

    fn handle(&self, request: &HttpRequest) -> Response {
        let bad_request = |status, message: &str| self.counters.http.bad_request(status, message);
        let give_up = |e: String| {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            reply(503, error_doc(&e))
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/run") => {
                let cfg = match parse_run_body(&request.content_type, &request.body) {
                    Ok(cfg) => cfg,
                    Err(e) => return bad_request(400, &e),
                };
                // Forward the canonical text: the backend decodes it back to
                // this config and keys it by the same text, so router and
                // shard agree on ownership. Its key (`SimConfig::cache_key`)
                // is computed once here.
                let body = cfg.canonical_text();
                let key = cache_key_of(&body);
                match self.forward(&key, &body) {
                    Ok(reply) => relay(reply),
                    Err(e) => give_up(e),
                }
            }
            ("POST", "/batch") => match parse_batch_body(&request.content_type, &request.body) {
                Ok(configs) => reply(200, self.forward_batch(&configs)),
                Err(e) => bad_request(400, &e),
            },
            ("GET", "/stats") => reply(200, self.cluster_stats_json().to_string()),
            ("GET", "/healthz") => {
                let up = self.backends_up();
                reply(
                    200,
                    Json::obj([
                        ("ok", Json::Bool(up > 0)),
                        ("backends_up", Json::from(up)),
                        ("backends_total", Json::from(self.backends.len())),
                    ])
                    .to_string(),
                )
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
    http::serve(&*router, listener, max_requests, verbose, &shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve_http_shutdown, ServeOptions, SimService};
    use std::path::PathBuf;
    use tenways_sim::json::ToJson;

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

    /// One in-process serve backend on an ephemeral port, with `workers`
    /// simulation workers (`0` is cache-only).
    struct TestBackend {
        svc: Arc<SimService>,
        addr: String,
        shutdown: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<Result<(), String>>>,
        dir: PathBuf,
    }

    impl TestBackend {
        fn start(tag: &str, workers: usize) -> TestBackend {
            let dir = tmp_dir(tag);
            let svc = Arc::new(
                SimService::new(ServeOptions {
                    workers,
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
                .map(|i| TestBackend::start(&format!("{tag}-b{i}"), 1))
                .collect();
            let router = Arc::new(
                Router::new(RouterOptions {
                    backends: backends.iter().map(|b| b.addr.clone()).collect(),
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

        // A request waits for its record, so there is no job handle to
        // proxy: the router knows no `/jobs` endpoint, even for a cached key.
        let key = first.body.get("key").and_then(Json::as_str).unwrap();
        let job = client
            .request("GET", &format!("/jobs/{key}"), None)
            .unwrap();
        assert_eq!(job.status, 404);
        let error = job.body.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with("no such endpoint"), "{error}");
    }

    #[test]
    fn failover_reroutes_a_dead_backends_keyspace_with_no_lost_request() {
        let mut cluster = TestCluster::start("failover", 2);
        // Ownership depends on the ephemeral ports, so pick the keys
        // against this cluster's ranking: three owned by each backend.
        let mut owned: [Vec<SimConfig>; 2] = Default::default();
        for cfg in (0..).map(small_cfg) {
            let owner = cluster.router.rank(&cfg.cache_key())[0];
            if owned[owner].len() < 3 {
                owned[owner].push(cfg);
            }
            if owned.iter().all(|keys| keys.len() == 3) {
                break;
            }
        }
        let configs: Vec<SimConfig> = owned.concat();
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
            let owner = cluster.router.owner(&cfg.cache_key()).unwrap();
            let body = cfg.to_json().to_string();
            let direct = HttpClient::new(cluster.backends[owner].addr.clone())
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(
                direct.body.get("cached").and_then(Json::as_bool),
                Some(true),
                "the owner answers from its cache"
            );
            assert_eq!(
                item.get("record").unwrap().to_string(),
                direct.body.get("record").unwrap().to_string(),
                "merged record must be byte-identical to the shard's"
            );
        }
    }

    #[test]
    fn batch_reply_through_a_router_is_byte_identical_to_a_nodes() {
        let cluster = TestCluster::start("identity", 1);
        let twin = TestBackend::start("identity-twin", 1);
        let configs = [
            ("a", small_cfg(1)),
            (
                "broken",
                SimConfig {
                    threads: 0,
                    ..small_cfg(1)
                },
            ),
            ("b", small_cfg(2)),
            ("a-again", small_cfg(1)),
            ("b-again", small_cfg(2)),
        ];
        let body = batch_body(configs.iter().map(|(label, cfg)| (label, cfg)));
        let post = |addr: &str| {
            let reply = HttpClient::new(addr.to_string())
                .request("POST", "/batch", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200, "{addr}");
            reply.body
        };
        let routed = post(&cluster.addr);
        let direct = post(&twin.addr);
        assert_eq!(routed.get("deduplicated").and_then(Json::as_u64), Some(2));
        assert_eq!(routed.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(routed.to_string(), direct.to_string());
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
        // `forwarded` counts the 4 runs only: neither read's census calls
        // to the backends' `/stats` is a forward.
        let again = client.request("GET", "/stats", None).unwrap();
        let forwarded: u64 = again
            .body
            .get("backends")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|b| b.get("forwarded").and_then(Json::as_u64))
            .sum();
        assert_eq!(forwarded, 4, "{}", again.text);
    }

    #[test]
    fn relayed_replies_are_byte_identical_to_the_owners() {
        let cluster = TestCluster::start("relay", 1);
        let body = small_cfg(1).to_json().to_string();
        let mut routed = HttpClient::new(cluster.addr.clone());
        let mut direct = HttpClient::new(cluster.backends[0].addr.clone());
        let post = |client: &mut HttpClient| {
            let reply = client
                .request("POST", "/run", Some(("application/json", &body)))
                .unwrap();
            assert_eq!(reply.status, 200);
            reply
        };
        post(&mut routed);
        // Both answers are now hits of the same key.
        let (via_router, from_owner) = (post(&mut routed), post(&mut direct));
        assert_eq!(via_router.text, from_owner.text);
        assert!(via_router.text.ends_with("}\n"), "one trailing newline");
    }

    /// A `POST` of `body` to `path`, as the request loop hands it over.
    fn post(path: &str, body: String) -> HttpRequest {
        HttpRequest {
            method: "POST".to_string(),
            path: path.to_string(),
            content_type: "application/json".to_string(),
            body,
            keep_alive: true,
        }
    }

    #[test]
    fn a_backends_503_is_relayed_after_one_forward() {
        // A cache-only backend refuses a miss, and would refuse it again:
        // the router relays the refusal at once instead of asking again.
        let backend = TestBackend::start("cache-only", 0);
        let router = Router::new(RouterOptions {
            backends: vec![backend.addr.clone()],
        })
        .unwrap();
        let body = small_cfg(1).to_json().to_string();
        let direct = HttpClient::new(backend.addr.clone())
            .request("POST", "/run", Some(("application/json", &body)))
            .unwrap();
        assert_eq!(direct.status, 503, "{}", direct.text);
        let (status, text) = router.handle(&post("/run", body));
        assert_eq!(status, 503, "{text}");
        assert_eq!(text, direct.text, "the backend's body, relayed");
        assert_eq!(router.counters.retries.load(Ordering::Relaxed), 0);
        assert_eq!(router.backends[0].forwarded.sum(), 1);
        assert_eq!(router.counters.rejected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_router_contacts_no_backend_until_a_request_needs_one() {
        let backend = TestBackend::start("no-contact", 1);
        let router = Router::new(RouterOptions {
            backends: vec![backend.addr.clone()],
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let stats = backend.svc.stats_json();
        assert_eq!(stats.get("connections").and_then(Json::as_u64), Some(0));
        assert_eq!(router.backends_up(), 1, "a backend starts up");
    }

    #[test]
    fn a_batch_with_no_live_backend_fails_at_once() {
        // Nothing listens on either address. Both start up, and the first
        // round's sub-batches find them dead: each is tried at most once,
        // and no key is left with a backend to go to.
        let dead: Vec<String> = (0..2)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                listener.local_addr().unwrap().to_string()
            })
            .collect();
        let router = Router::new(RouterOptions { backends: dead }).unwrap();
        let body = batch_body([("a", &small_cfg(1)), ("b", &small_cfg(2))]);
        let (status, text) = router.handle(&post("/batch", body));
        assert_eq!(status, 200, "{text}");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(2), "{text}");
        for item in doc.get("results").and_then(Json::as_array).unwrap() {
            assert_eq!(
                item.get("error").and_then(Json::as_str),
                Some("no live backend")
            );
        }
        assert!(router.backends.iter().all(|b| b.forwarded.sum() <= 1));
        assert_eq!(router.backends_up(), 0);
    }

    /// A serve backend that holds its first `/batch` reply past
    /// `DOWN_RETRY`.
    struct Slow {
        svc: SimService,
        held: AtomicBool,
    }

    impl Handler for Slow {
        const TAG: &'static str = "slow";

        fn http_counters(&self) -> &HttpCounters {
            self.svc.http_counters()
        }

        fn handle(&self, request: &HttpRequest) -> Response {
            if request.path == "/batch" && !self.held.swap(true, Ordering::Relaxed) {
                std::thread::sleep(DOWN_RETRY + Duration::from_millis(200));
            }
            self.svc.handle(request)
        }
    }

    #[test]
    fn a_batch_outlasting_a_dead_backends_wait_places_every_key() {
        // Nothing listens on backend 0, and backend 1 holds its first
        // sub-batch until backend 0's wait is over. Backend 0's keys then
        // regroup onto backend 1: the batch has already failed on
        // backend 0, so it does not ask it again.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let dir = tmp_dir("slow");
        let slow = Arc::new(Slow {
            svc: SimService::new(ServeOptions {
                workers: 1,
                cache_dir: dir.clone(),
                ..ServeOptions::default()
            })
            .unwrap(),
            held: AtomicBool::new(false),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            let slow = Arc::clone(&slow);
            std::thread::spawn(move || http::serve(&*slow, listener, None, false, &stop))
        };
        let router = Router::new(RouterOptions {
            backends: vec![dead, addr],
        })
        .unwrap();
        // Ownership depends on the ephemeral ports: two keys per backend.
        let mut owned: [Vec<SimConfig>; 2] = Default::default();
        for cfg in (0..).map(small_cfg) {
            let owner = router.rank(&cfg.cache_key())[0];
            if owned[owner].len() < 2 {
                owned[owner].push(cfg);
            }
            if owned.iter().all(|keys| keys.len() == 2) {
                break;
            }
        }
        let configs: Vec<(String, SimConfig)> = owned
            .concat()
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| (format!("k{i}"), cfg))
            .collect();
        let body = batch_body(configs.iter().map(|(label, cfg)| (label, cfg)));
        let (status, text) = router.handle(&post("/batch", body));
        assert_eq!(status, 200, "{text}");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{text}");
        for item in doc.get("results").and_then(Json::as_array).unwrap() {
            assert_eq!(
                item.get("status").and_then(Json::as_str),
                Some("computed"),
                "{text}"
            );
        }
        assert_eq!(router.backends[0].forwarded.sum(), 1, "tried once");
        assert_eq!(router.backends[1].forwarded.sum(), 2);
        assert_eq!(router.backends_up(), 1);
        assert_eq!(slow.svc.sim_runs(), 4);
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A backend double that answers every request with a 200 whose body
    /// is not JSON while `garbling` is set, and with a JSON body once it
    /// is cleared.
    struct Garbled {
        http: HttpCounters,
        garbling: AtomicBool,
    }

    impl Handler for Garbled {
        const TAG: &'static str = "garbled";

        fn http_counters(&self) -> &HttpCounters {
            &self.http
        }

        fn handle(&self, _request: &HttpRequest) -> Response {
            if self.garbling.load(Ordering::Relaxed) {
                return (200, "not json from the backend\n".to_string());
            }
            reply(200, r#"{"ok":true}"#.to_string())
        }
    }

    /// Serves a garbling [`Garbled`] on an ephemeral port until `stop` is
    /// raised.
    fn start_garbled(
        stop: &Arc<AtomicBool>,
    ) -> (
        String,
        Arc<Garbled>,
        std::thread::JoinHandle<Result<(), String>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let garbled = Arc::new(Garbled {
            http: HttpCounters::default(),
            garbling: AtomicBool::new(true),
        });
        let server = {
            let stop = Arc::clone(stop);
            let garbled = Arc::clone(&garbled);
            std::thread::spawn(move || http::serve(&*garbled, listener, None, false, &stop))
        };
        (addr, garbled, server)
    }

    #[test]
    fn a_backend_answering_malformed_bodies_is_marked_down() {
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, _garbled, server) = start_garbled(&stop);
        let run = small_cfg(1).to_json().to_string();
        let batch = batch_body([("a", &small_cfg(1))]);
        for (path, body) in [("/run", run), ("/batch", batch)] {
            let router = Router::new(RouterOptions {
                backends: vec![addr.clone()],
            })
            .unwrap();
            let (status, text) = router.handle(&post(path, body));
            assert!(
                !text.contains("not json"),
                "{path}: the body reached the client: {text}"
            );
            let doc = Json::parse(&text).unwrap();
            if path == "/run" {
                assert_eq!(status, 503, "{text}");
            } else {
                // The failed sub-batch's key has no backend left.
                assert_eq!(status, 200, "{text}");
                let item = &doc.get("results").and_then(Json::as_array).unwrap()[0];
                assert_eq!(item.get("status").and_then(Json::as_str), Some("failed"));
                assert_eq!(
                    item.get("error").and_then(Json::as_str),
                    Some("no live backend")
                );
            }
            let backend = &router.backends[0];
            assert!(backend.errors.load(Ordering::Relaxed) >= 1, "{path}");
            assert_eq!(
                backend.transitions.load(Ordering::Relaxed),
                1,
                "{path}: the backend was marked down"
            );
            assert_eq!(router.backends_up(), 0, "{path}");
        }
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn a_down_backend_rejoins_through_the_first_request_after_its_wait() {
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, garbled, server) = start_garbled(&stop);
        let router = Router::new(RouterOptions {
            backends: vec![addr],
        })
        .unwrap();
        let run = || router.handle(&post("/run", small_cfg(1).to_json().to_string()));
        let transitions = || router.backends[0].transitions.load(Ordering::Relaxed);
        let reached = || garbled.http.requests.sum();

        let (status, text) = run();
        assert_eq!(status, 503, "{text}");
        assert_eq!(transitions(), 1, "a malformed reply marks it down");
        assert_eq!(reached(), 1);

        // Recovered, but still sitting out its wait: the router answers
        // without sending.
        garbled.garbling.store(false, Ordering::Relaxed);
        let (status, text) = run();
        assert_eq!(status, 503, "{text}");
        assert!(text.contains("no live backend"), "{text}");
        assert_eq!(reached(), 1, "no request reached the backend");

        // After the wait the next request reaches it, is relayed, and
        // marks it up.
        std::thread::sleep(DOWN_RETRY);
        let (status, text) = run();
        assert_eq!(status, 200, "{text}");
        assert_eq!(reached(), 2);
        assert_eq!(transitions(), 2);
        assert_eq!(router.backends_up(), 1);

        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    }
}
