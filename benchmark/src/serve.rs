//! The serve workloads: a rendezvous router in front of two single-worker
//! backends, all in this process on loopback. An untraced run drives them
//! with a closed loop over one connection, cut into one-second slices
//! that each run beside the host canary; a traced run drives them with
//! the open-loop generator instead, for latency and the layer spans.
//!
//! * `serve-hot` — a 512-key keyspace simulated once into a disk cache
//!   the backends restart over, Zipf(1.0) `/run` requests, open-loop
//!   arrivals at 200/s. Nothing simulates: the time goes to config
//!   parsing, key hashing, the memory and disk cache tiers, JSON, HTTP
//!   and the router hop. With 64 memory slots per backend over a third
//!   of the hits fall through to disk.
//! * `serve-churn` — a cold 4096-key keyspace, Zipf(1.1), open-loop
//!   arrivals at 100/s with one in 20 a `/batch` of 8 (the closed loop
//!   sends only `/run`), 32 memory slots and 512 KiB of disk per
//!   backend. About a third of `/run` requests miss, so simulation,
//!   single-flight, admission, disk puts, index rewrites and eviction
//!   are on the path.
//!
//! Every reply is checked: a 200 carrying the client's own cache key and
//! a finished record. After the measured phase a fixed sample of 64
//! keys must match, byte for byte, an in-process `Experiment::run` made
//! before set-up.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tenways_bench::{
    route_http, serve_http_shutdown, HttpClient, ResultCache, Router, RouterOptions, ServeOptions,
    SimService,
};
use tenways_sim::json::{Json, ToJson};
use tenways_waste::{Experiment, SimConfig};

use crate::loadgen::{
    check_run, closed_loop, keyspace, median, open_loop, percentile, schedule, Arrival, Key, Req,
    SplitMix64, Weyl, Window, Zipf, CONNECTIONS,
};
use crate::trace::Tracer;
use crate::{host, Opts, Outcome};

/// One serve workload's traffic and cache sizing.
#[derive(Debug)]
pub struct Profile {
    name: &'static str,
    keys: usize,
    zipf_s: f64,
    mem_capacity: usize,
    disk_budget: Option<u64>,
    /// Open-loop arrivals per second.
    rate: f64,
    /// `(every, size)`: every `every`-th arrival is a `/batch` of `size`.
    batch: Option<(usize, usize)>,
    /// Whether the keyspace is simulated once, before the set-ups, into a
    /// disk cache that every backend of every set-up opens: a restart over
    /// a persistent cache, which answers every key from its first request.
    /// Nothing is written to it after that, as nothing misses, so the
    /// backends can share it.
    warm: bool,
    /// `/run` requests of the discarded warm-up pass that ends each
    /// set-up, drawn like the measured ones; every set-up sends the same.
    warmup: usize,
}

pub const HOT: Profile = Profile {
    name: "serve-hot",
    keys: 512,
    zipf_s: 1.0,
    mem_capacity: 64,
    disk_budget: None,
    rate: 200.0,
    batch: None,
    warm: true,
    warmup: 64,
};

/// The warm-up pass takes the keyspace's first-touch misses, so the
/// measured windows see the steady state of eviction churn.
pub const CHURN: Profile = Profile {
    name: "serve-churn",
    keys: 4096,
    zipf_s: 1.1,
    mem_capacity: 32,
    disk_budget: Some(512 * 1024),
    rate: 100.0,
    batch: Some((20, 8)),
    warm: false,
    warmup: 256,
};

const BACKENDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Keys whose served record must match an in-process run byte for byte.
const SAMPLE_KEYS: usize = 64;
/// `/run` arrivals replayed through the in-process layer calls when traced.
const REPLAY_REQUESTS: usize = 500;
/// Direct-vs-routed request pairs timed when traced.
const HOP_PAIRS: usize = 300;
/// Length of one closed-loop slice.
const SLICE_S: f64 = 1.0;

/// Purposes of the splitmix streams drawn from `--seed`.
const KEYSPACE: u64 = 1;
const WARMUP: u64 = 2;
const OPEN: u64 = 3;
const CLOSED: u64 = 4;

/// One in-process serve backend on an ephemeral loopback port.
struct Node {
    service: Arc<SimService>,
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

/// The router and its backends.
struct Cluster {
    nodes: Vec<Node>,
    router: Arc<Router>,
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<(), String>>,
}

fn listen() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    Ok((listener, addr))
}

impl Cluster {
    /// Starts the backends, each over a cache directory of its own or
    /// all over the shared `cache` when given, and the router in front of
    /// them.
    fn start(dir: &Path, p: &Profile, cache: Option<&Path>) -> Result<Cluster, String> {
        let mut nodes = Vec::new();
        for i in 0..BACKENDS {
            let cache_dir =
                cache.map_or_else(|| dir.join(format!("backend{i}")), Path::to_path_buf);
            let service = Arc::new(SimService::new(ServeOptions {
                workers: 1,
                mem_capacity: p.mem_capacity,
                cache_dir,
                disk_budget: p.disk_budget,
                ..ServeOptions::default()
            })?);
            let (listener, addr) = listen()?;
            let shutdown = Arc::new(AtomicBool::new(false));
            let thread = {
                let service = Arc::clone(&service);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    serve_http_shutdown(service, listener, None, false, shutdown)
                })
            };
            nodes.push(Node {
                service,
                addr,
                shutdown,
                thread,
            });
        }
        let router = Arc::new(Router::new(RouterOptions {
            backends: nodes.iter().map(|n| n.addr.clone()).collect(),
            ..RouterOptions::default()
        })?);
        let (listener, addr) = listen()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || route_http(router, listener, None, false, shutdown))
        };
        Ok(Cluster {
            nodes,
            router,
            addr,
            shutdown,
            thread,
        })
    }

    fn owner(&self, key: &str) -> usize {
        self.router.owner(key).unwrap_or(0)
    }

    /// Drains the router, then the backends; every thread is joined.
    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        let routed = self.thread.join().map_err(|_| "router thread panicked")?;
        drop(self.router);
        for node in self.nodes {
            node.shutdown.store(true, Ordering::Relaxed);
            node.thread
                .join()
                .map_err(|_| "backend thread panicked")??;
        }
        routed
    }
}

/// Backend counters summed (or, for the peak, maxed) over the cluster,
/// plus the router's own.
#[derive(Debug, Default)]
struct Stats {
    hits: f64,
    misses: f64,
    joined: f64,
    rejected: f64,
    sim_runs: f64,
    peak_in_flight: f64,
    mem_hits: f64,
    disk_hits: f64,
    evicted: f64,
    retries: f64,
    rerouted: f64,
}

impl Cluster {
    fn stats(&self) -> Stats {
        let num = |doc: &Json, path: &[&str]| {
            path.iter()
                .try_fold(doc, |d, k| d.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let mut s = Stats::default();
        for node in &self.nodes {
            let doc = node.service.stats_json();
            s.hits += num(&doc, &["hits"]);
            s.misses += num(&doc, &["misses"]);
            s.joined += num(&doc, &["joined"]);
            s.rejected += num(&doc, &["rejected"]);
            s.sim_runs += num(&doc, &["sim_runs"]);
            s.peak_in_flight = s.peak_in_flight.max(num(&doc, &["peak_in_flight"]));
            s.mem_hits += num(&doc, &["cache", "mem_hits"]);
            s.disk_hits += num(&doc, &["cache", "disk_hits"]);
            s.evicted += num(&doc, &["cache", "evicted"]);
        }
        let cluster = self.router.cluster_stats_json();
        s.retries = num(&cluster, &["router", "retries"]);
        s.rerouted = num(&cluster, &["router", "rerouted"]);
        s
    }
}

/// Counts a window's operations and failures into the outcome.
fn tally(out: &mut Outcome, window: &Window) {
    out.attempted += window.attempted;
    out.failures.extend(window.failures.iter().cloned());
}

/// Simulates the whole keyspace into a fresh disk cache at `dir` with
/// `SimService::warm`, one worker per backend.
fn warm_cache(dir: &Path, p: &Profile, keys: &[Key], out: &mut Outcome) -> Result<(), String> {
    let service = SimService::new(ServeOptions {
        workers: BACKENDS,
        mem_capacity: p.mem_capacity,
        cache_dir: dir.to_path_buf(),
        disk_budget: p.disk_budget,
        ..ServeOptions::default()
    })?;
    let points: Vec<(String, SimConfig)> = keys
        .iter()
        .map(|k| (k.key.clone(), k.cfg.clone()))
        .collect();
    out.attempted += keys.len() as u64;
    let failed = service.warm(&points).failed;
    out.failures.extend(
        failed
            .into_iter()
            .map(|(label, e)| format!("warming {label}: {e}")),
    );
    Ok(())
}

/// Starts a cluster, over the shared `cache` when given, and brings it to
/// the state the measured phase starts from: through one discarded
/// warm-up pass, a closed loop like the measured one.
fn set_up(
    dir: &Path,
    p: &Profile,
    cache: Option<&Path>,
    keys: &[Key],
    zipf: &Zipf,
    seed: u64,
    out: &mut Outcome,
) -> Result<Cluster, String> {
    let cluster = Cluster::start(dir, p, cache)?;
    let mut client = HttpClient::new(cluster.addr.clone());
    let mut draws = Weyl::new(&mut SplitMix64::stream(seed, WARMUP));
    let warmup = closed_loop(&mut client, keys, zipf, &mut draws, |w| {
        w.attempted >= p.warmup as u64
    });
    tally(out, &warmup);
    Ok(cluster)
}

/// A scratch directory for this run's caches, inside the checkout.
fn scratch_dir(p: &Profile) -> PathBuf {
    crate::out_dir().join(format!("{}-{}", p.name, std::process::id()))
}

pub fn run(p: &Profile, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let dir = scratch_dir(p);
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(p, opts, &dir, out);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(p: &Profile, opts: &Opts, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    // Inputs: the keyspace, its popularity, and the reference sample.
    let keys = keyspace(opts.seed, KEYSPACE, p.keys);
    let zipf = Zipf::new(p.keys, p.zipf_s);
    let sample: Vec<(usize, String)> = (0..SAMPLE_KEYS)
        .map(|j| {
            let i = j * p.keys / SAMPLE_KEYS;
            let record = Experiment::from_config(&keys[i].cfg)
                .and_then(|e| e.run())
                .map_err(|e| format!("reference run: {e}"))?;
            Ok((i, record.to_json().to_string()))
        })
        .collect::<Result<_, String>>()?;

    let warm_dir = dir.join("warm");
    if p.warm {
        warm_cache(&warm_dir, p, &keys, out)?;
    }
    let cache = p.warm.then_some(warm_dir.as_path());

    let setups = if opts.trace { 1 } else { SETUPS };
    let mut setup_wall_s = Vec::new();
    let mut cluster = None;
    for n in 0..setups {
        if let Some(previous) = cluster.take() {
            Cluster::stop(previous)?;
        }
        host::trim_heap();
        let (started, cpu_before) = (Instant::now(), host::process_cpu_s());
        cluster = Some(set_up(
            &dir.join(format!("setup{n}")),
            p,
            cache,
            &keys,
            &zipf,
            opts.seed,
            out,
        )?);
        out.setup_cpu_s.push(host::process_cpu_s() - cpu_before);
        setup_wall_s.push(started.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");

    if opts.trace {
        let arrivals = schedule(
            &mut SplitMix64::stream(opts.seed, OPEN),
            &zipf,
            p.rate,
            opts.seconds,
            p.batch,
        );
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..CONNECTIONS)
            .map(|c| Tracer::new(true, epoch, 1 + c as u32))
            .collect();
        out.canary();
        let open = open_loop(&cluster.addr, &keys, &arrivals, &mut tracers);
        tally(out, &open);
        let lat = open.latencies(false);
        let batch_lat = open.latencies(true);
        let lags = open.lags();
        out.set("loadgen.samples", lat.len() as f64);
        out.set("loadgen.lat_p50_ms", percentile(&lat, 0.5));
        out.set("loadgen.lat_p99_ms", percentile(&lat, 0.99));
        out.set("loadgen.lag_p99_ms", percentile(&lags, 0.99));
        out.set("serve.batch_p50_ms", percentile(&batch_lat, 0.5));
        out.note(format!(
            "open loop: {} /run samples at {}/s ({:.1}% missed): p50 {:.3} ms, p99 {:.3} ms; {} /batch samples: p50 {:.3} ms; generator lag p99 {:.3} ms",
            lat.len(),
            p.rate,
            100.0 * open.miss_frac(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.99),
            batch_lat.len(),
            percentile(&batch_lat, 0.5),
            percentile(&lags, 0.99),
        ));
        let traced_p50 = percentile(&open.run_latencies(true), 0.5);
        let plain_p50 = percentile(&open.run_latencies(false), 0.5);
        out.set("host.trace_overhead_frac", traced_p50 / plain_p50 - 1.0);
        let mut tr = Tracer::new(true, epoch, 0);
        for t in tracers {
            tr.absorb(t);
        }
        traced(p, dir, &cluster, &keys, &arrivals, &mut tr, out)?;
        out.tracer = Some(tr);
    } else {
        // Closed loop over one connection, cut into slices that each run
        // beside a canary. The throughput pools all slices rather than
        // taking the median one: a slice's rate swings with how many of
        // its requests happened to miss.
        let mut client = HttpClient::new(cluster.addr.clone());
        let mut draws = Weyl::new(&mut SplitMix64::stream(opts.seed, CLOSED));
        let started = Instant::now();
        let (mut rates, mut ref_s, mut closed) = (Vec::new(), 0.0, Window::default());
        while rates.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds {
            let canary = out.canary();
            let cpu_before = host::process_cpu_s();
            let until = Instant::now() + Duration::from_secs_f64(SLICE_S);
            let slice = closed_loop(&mut client, &keys, &zipf, &mut draws, |_| {
                Instant::now() >= until
            });
            let slice_ref_s = host::ref_cpu_s(host::process_cpu_s() - cpu_before, canary);
            rates.push(slice.samples.len() as f64 / slice_ref_s);
            ref_s += slice_ref_s;
            closed.absorb(slice);
        }
        drop(client);
        tally(out, &closed);
        let done = closed.samples.len() as f64;
        out.set("ops_per_ref_cpu_s", done / ref_s);
        rates.sort_by(f64::total_cmp);
        out.note(format!(
            "closed loop: {done} /run completions over 1 connection in {:.2} s ({:.0}/s wall, {:.1}% missed); per reference CPU second over {} slices: q1 {:.0}, median {:.0}, q3 {:.0}; set-up {:.3} s wall, {:.3} s CPU",
            closed.wall_s,
            done / closed.wall_s,
            100.0 * closed.miss_frac(),
            rates.len(),
            percentile(&rates, 0.25),
            percentile(&rates, 0.5),
            percentile(&rates, 0.75),
            median(&setup_wall_s),
            median(&out.setup_cpu_s),
        ));
    }

    // Byte-for-byte check of the fixed sample through the router.
    let mut client = HttpClient::new(cluster.addr.clone());
    for (i, expect) in &sample {
        out.attempted += 1;
        let k = &keys[*i];
        let checked = client
            .request("POST", "/run", Some(("application/json", &k.body)))
            .and_then(|reply| {
                check_run(&reply, k)?;
                match reply.body.get("record").map(Json::to_string) {
                    Some(got) if got == *expect => Ok(()),
                    _ => Err(format!("record for {} differs from Experiment::run", k.key)),
                }
            });
        if let Err(e) = checked {
            out.fail(format!("sample key {i}: {e}"));
        }
    }
    drop(client);

    let s = cluster.stats();
    let lookups = s.hits + s.misses + s.joined;
    out.set("cache.hit_frac", s.hits / lookups.max(1.0));
    out.set(
        "cache.disk_hit_frac",
        s.disk_hits / (s.mem_hits + s.disk_hits).max(1.0),
    );
    out.set("cache.evicted", s.evicted);
    out.set("serve.sim_runs", s.sim_runs);
    out.set("serve.joined", s.joined);
    out.set("serve.dedup_frac", s.joined / s.misses.max(1.0));
    out.set("serve.rejected", s.rejected);
    out.set("serve.peak_in_flight", s.peak_in_flight);
    out.set("router.retries", s.retries);
    out.set("router.rerouted", s.rerouted);
    out.note(format!(
        "backends: {} hits ({} from disk), {} misses, {} joined, {} simulations, {} evicted",
        s.hits, s.disk_hits, s.misses, s.joined, s.sim_runs, s.evicted
    ));
    cluster.stop()
}

/// The in-process part of a traced serve run: the first scheduled `/run`
/// arrivals replayed through the layer calls, then direct-vs-routed
/// request pairs.
fn traced(
    p: &Profile,
    dir: &Path,
    cluster: &Cluster,
    keys: &[Key],
    arrivals: &[Arrival],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let replayed = replay(p, dir, cluster, keys, arrivals, tr, out)?;

    // Direct to the owning backend vs through the router, alternating
    // which goes first.
    let mut direct: Vec<HttpClient> = cluster
        .nodes
        .iter()
        .map(|n| HttpClient::new(n.addr.clone()))
        .collect();
    let mut routed = HttpClient::new(cluster.addr.clone());
    let (mut direct_us, mut routed_us) = (Vec::new(), Vec::new());
    for j in 0..HOP_PAIRS {
        let k = &keys[replayed[j % replayed.len()]];
        let owner = cluster.owner(&k.key);
        for via_router in [j % 2 == 1, j % 2 == 0] {
            let (client, name, times) = if via_router {
                (&mut routed, "router.http_routed", &mut routed_us)
            } else {
                (&mut direct[owner], "serve.http_direct", &mut direct_us)
            };
            out.attempted += 1;
            let t0 = Instant::now();
            let reply = client.request("POST", "/run", Some(("application/json", &k.body)));
            let t1 = Instant::now();
            tr.leaf(name, j as u64, t0, t1);
            match reply.and_then(|r| check_run(&r, k)) {
                Ok(()) => times.push((t1 - t0).as_secs_f64() * 1e6),
                Err(e) => out.fail(format!("hop pair {j}: {e}")),
            }
        }
    }
    out.set("serve.http_direct_us", median(&direct_us));
    out.set("router.hop_us", median(&routed_us) - median(&direct_us));

    let st = tr.self_times();
    let mean = |name: &str, unit_ns: f64| st.get(name).map_or(0.0, |s| s.mean(unit_ns));
    out.set("sim.config_parse_us", mean("sim.config_parse", 1e3));
    out.set("sim.cache_key_us", mean("sim.cache_key", 1e3));
    out.set("sim.json_parse_us", mean("sim.json_parse", 1e3));
    out.set("sim.json_serialize_us", mean("sim.json_serialize", 1e3));
    out.set("sim.record_json_ms", mean("sim.record_json", 1e6));
    out.set("cache.mem_get_us", mean("cache.mem_get", 1e3));
    out.set("cache.disk_get_us", mean("cache.disk_get", 1e3));
    out.set("cache.put_ms", mean("cache.put", 1e6));
    out.set("waste.experiment_ms", mean("waste.experiment", 1e6));
    out.set("serve.submit_hit_us", mean("serve.submit_hit", 1e3));
    Ok(())
}

/// Replays the first [`REPLAY_REQUESTS`] `/run` arrivals through the
/// layers a routed request crosses, one public call at a time: config
/// parse, cache key, owner choice, a cache get on a replica of the
/// owner's cache (simulate, serialize and put on a miss), the owner's
/// `SimService::submit`, and the reply's serialize and parse. Returns the
/// replayed key indices.
fn replay(
    p: &Profile,
    dir: &Path,
    cluster: &Cluster,
    keys: &[Key],
    arrivals: &[Arrival],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<usize>, String> {
    let mut replicas = (0..BACKENDS)
        .map(|i| {
            ResultCache::open_budgeted(
                dir.join(format!("replica{i}")),
                p.mem_capacity,
                p.disk_budget,
            )
        })
        .collect::<Result<Vec<_>, String>>()?;
    if p.warm {
        for k in keys {
            let owner = cluster.owner(&k.key);
            let answer = cluster.nodes[owner]
                .service
                .submit(&k.cfg)
                .map_err(|e| e.to_string())?;
            replicas[owner].put(&k.key, answer.record)?;
        }
    }
    let runs: Vec<(usize, usize)> = arrivals
        .iter()
        .enumerate()
        .filter_map(|(id, a)| match a.req {
            Req::Run(i) => Some((id, i)),
            Req::Batch(_) => None,
        })
        .take(REPLAY_REQUESTS)
        .collect();
    for &(id, i) in &runs {
        let id = id as u64;
        let k = &keys[i];
        out.attempted += 1;
        let result = tr.span("serve.request", id, |tr| -> Result<(), String> {
            let cfg = tr
                .span("sim.config_parse", id, |_| {
                    SimConfig::from_json_str(&k.body)
                })
                .map_err(|e| e.to_string())?;
            let key = tr.span("sim.cache_key", id, |_| cfg.cache_key());
            let owner = tr.span("router.owner", id, |_| cluster.owner(&key));
            let replica = &mut replicas[owner];
            let before = replica.stats();
            let t0 = Instant::now();
            let got = replica.get(&key);
            let t1 = Instant::now();
            let after = replica.stats();
            let tier = if after.mem_hits > before.mem_hits {
                "cache.mem_get"
            } else if after.disk_hits > before.disk_hits {
                "cache.disk_get"
            } else {
                "cache.miss_get"
            };
            tr.leaf(tier, id, t0, t1);
            if got.is_none() {
                let record = tr
                    .span("waste.experiment", id, |_| {
                        Experiment::from_config(&cfg).and_then(|e| e.run())
                    })
                    .map_err(|e| e.to_string())?;
                let json = tr.span("sim.record_json", id, |_| {
                    let json = record.to_json();
                    std::hint::black_box(json.to_string());
                    json
                });
                tr.span("cache.put", id, |_| replica.put(&key, json))?;
            }
            let t0 = Instant::now();
            let answer = cluster.nodes[owner]
                .service
                .submit(&cfg)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let submit = if answer.cached {
                "serve.submit_hit"
            } else {
                "serve.submit_miss"
            };
            tr.leaf(submit, id, t0, t1);
            let text = tr.span("sim.json_serialize", id, |_| {
                answer.to_response_json().to_string()
            });
            let parsed = tr
                .span("sim.json_parse", id, |_| Json::parse(&text))
                .map_err(|e| e.to_string())?;
            if parsed.get("key").and_then(Json::as_str) != Some(k.key.as_str()) {
                return Err(format!("in-process answer for {} has another key", k.key));
            }
            Ok(())
        });
        if let Err(e) = result {
            out.fail(format!("replayed arrival {id}: {e}"));
        }
    }
    Ok(runs.into_iter().map(|(_, i)| i).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cluster starts, answers a routed request, and stops with every
    /// thread joined.
    #[test]
    fn cluster_round_trip() {
        let dir = std::env::temp_dir().join(format!("tenways-benchmark-{}", std::process::id()));
        let cluster = Cluster::start(&dir, &CHURN, None).unwrap();
        let k = &keyspace(3, KEYSPACE, 1)[0];
        let mut client = HttpClient::new(cluster.addr.clone());
        let reply = client
            .request("POST", "/run", Some(("application/json", &k.body)))
            .unwrap();
        check_run(&reply, k).unwrap();
        drop(client);
        assert_eq!(cluster.stats().sim_runs, 1.0);
        cluster.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
