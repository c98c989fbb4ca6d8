//! Deterministic load generation: a splitmix64 stream, a Zipf sampler, the
//! serve keyspace, Poisson arrival schedules, and the open- and closed-loop
//! senders that play them over keep-alive connections.
//!
//! Everything a serve workload sends derives from `--seed`: the keyspace
//! (which configurations exist), the arrival times, and which key each
//! arrival asks for. The program under test receives only the requests.

use std::time::{Duration, Instant};

use tenways_bench::{HttpClient, HttpReply};
use tenways_sim::json::Json;
use tenways_waste::SimConfig;

use crate::trace::Tracer;

/// Client threads and keep-alive connections of the open loop: one per
/// host CPU of the 2-vCPU machine the benchmark was calibrated on, so the
/// generator never oversubscribes it.
pub const CONNECTIONS: usize = 2;

/// The splitmix64 generator: tiny, fast, and the same stream on every host.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[cfg(test)]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (keyspace, schedule, one
    /// client thread, ...), so adding draws to one never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
        let mut root = SplitMix64(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03));
        SplitMix64(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has probability proportional to
/// `1 / (k + 1)^s`. Sampling is a binary search of the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.rank(rng.next_f64())
    }

    /// The rank whose slice of the cumulative table holds `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of rank `k`.
    #[cfg(test)]
    pub fn pmf(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }
}

/// A golden-ratio (Weyl) sequence in `[0, 1)` from a seeded start, for
/// the serve closed loops: read through [`Zipf::rank`], it asks
/// for each rank in proportion to its probability over any stretch of
/// requests, not just on average, so a run's hit and miss mix hardly
/// depends on the seed. With independent draws serve-churn's miss share
/// moved between 26% and 31% from seed to seed, and its throughput with
/// it.
#[derive(Debug, Clone)]
pub struct Weyl(f64);

impl Weyl {
    pub fn new(rng: &mut SplitMix64) -> Weyl {
        Weyl(rng.next_f64())
    }

    pub fn next_f64(&mut self) -> f64 {
        // 1/phi: the step whose multiples spread most evenly over [0, 1).
        self.0 = (self.0 + 0.618_033_988_749_894_9).fract();
        self.0
    }
}

/// One configuration of a serve keyspace, as the client sends it.
#[derive(Debug, Clone)]
pub struct Key {
    /// The request body: a partial JSON config, overlaid on the defaults
    /// by the server exactly as [`SimConfig::from_json_str`] does here.
    pub body: String,
    pub cfg: SimConfig,
    /// The cache key the server must answer with.
    pub key: String,
}

/// Small kernels whose runs take a few milliseconds and finish on every
/// seed. `oltp` is left out: it livelocks on some seeds.
const KEY_KERNELS: [&str; 7] = ["lu", "radix", "barnes", "ocean", "zeus", "apache", "rcu"];
const KEY_MODELS: [&str; 3] = ["sc", "tso", "rmo"];
const KEY_THREADS: [usize; 2] = [2, 4];

/// `n` distinct configurations: the kernel × model × threads grid at
/// scale 1, cycled, each point with its own run seed drawn from `seed`.
pub fn keyspace(seed: u64, purpose: u64, n: usize) -> Vec<Key> {
    let mut rng = SplitMix64::stream(seed, purpose);
    (0..n)
        .map(|i| {
            let kernel = KEY_KERNELS[i % KEY_KERNELS.len()];
            let model = KEY_MODELS[(i / KEY_KERNELS.len()) % KEY_MODELS.len()];
            let threads =
                KEY_THREADS[(i / (KEY_KERNELS.len() * KEY_MODELS.len())) % KEY_THREADS.len()];
            // 53 bits, so every JSON reader holds the seed exactly.
            let run_seed = rng.next_u64() >> 11;
            let body = format!(
                r#"{{"workload":"{kernel}","model":"{model}","threads":{threads},"scale":1,"seed":{run_seed}}}"#
            );
            let cfg = SimConfig::from_json_str(&body).expect("keyspace configs are valid");
            let key = cfg.cache_key();
            Key { body, cfg, key }
        })
        .collect()
}

/// What one arrival asks for: indices into the keyspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Run(usize),
    Batch(Vec<usize>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Intended send time, seconds after the window opens.
    pub at_s: f64,
    pub req: Req,
}

/// A Poisson arrival process at `rate` per second over `duration_s`, keys
/// drawn from `zipf`. With `batch` = `Some((every, size))`, every
/// `every`-th arrival is a `/batch` of `size` keys instead of a `/run`.
pub fn schedule(
    rng: &mut SplitMix64,
    zipf: &Zipf,
    rate: f64,
    duration_s: f64,
    batch: Option<(usize, usize)>,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut at_s = 0.0;
    loop {
        at_s += -(1.0 - rng.next_f64()).ln() / rate;
        if at_s >= duration_s {
            return arrivals;
        }
        let req = match batch {
            Some((every, size)) if arrivals.len() % every == every - 1 => {
                Req::Batch((0..size).map(|_| zipf.sample(rng)).collect())
            }
            _ => Req::Run(zipf.sample(rng)),
        };
        arrivals.push(Arrival { at_s, req });
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub batch: bool,
    /// Whether a `/run` was answered from the cache.
    pub cached: bool,
    /// Whether the request was sent inside a span.
    pub traced: bool,
    /// From the intended send time (open loop) or the actual send time
    /// (closed loop) to the parsed reply.
    pub lat_ms: f64,
    /// How late the generator sent it.
    pub lag_ms: f64,
}

/// What a load window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub wall_s: f64,
}

impl Window {
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.wall_s += other.wall_s;
    }

    /// Sorted latencies of the `/run` (or `/batch`) samples.
    pub fn latencies(&self, batch: bool) -> Vec<f64> {
        self.sorted(|s| s.batch == batch)
    }

    /// Sorted latencies of the `/run` samples sent with or without a span.
    pub fn run_latencies(&self, traced: bool) -> Vec<f64> {
        self.sorted(|s| !s.batch && s.traced == traced)
    }

    fn sorted(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.lat_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Share of the `/run` samples answered by a simulation.
    pub fn miss_frac(&self) -> f64 {
        let runs = self.samples.iter().filter(|s| !s.batch);
        let (n, missed) = runs.fold((0, 0), |(n, m), s| (n + 1, m + usize::from(!s.cached)));
        missed as f64 / f64::from(n.max(1))
    }

    pub fn lags(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.lag_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sends one arrival and checks the reply; `Ok` says whether a `/run`
/// was a cache hit. `Err` is a failed operation.
pub fn send(client: &mut HttpClient, keys: &[Key], req: &Req) -> Result<bool, String> {
    match req {
        Req::Run(i) => {
            let k = &keys[*i];
            let reply = client.request("POST", "/run", Some(("application/json", &k.body)))?;
            check_run(&reply, k)?;
            Ok(reply.body.get("cached").and_then(Json::as_bool) == Some(true))
        }
        Req::Batch(items) => {
            let configs: Vec<String> = items
                .iter()
                .enumerate()
                .map(|(n, i)| format!(r#"{{"label":"b{n}","config":{}}}"#, keys[*i].body))
                .collect();
            let body = format!(r#"{{"configs":[{}]}}"#, configs.join(","));
            let reply = client.request("POST", "/batch", Some(("application/json", &body)))?;
            check_batch(&reply, keys, items)?;
            Ok(false)
        }
    }
}

/// A `/run` reply is correct when it is a 200 carrying the client's own
/// cache key and a finished run record.
pub fn check_run(reply: &HttpReply, k: &Key) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("/run answered {}", reply.status));
    }
    check_item(&reply.body, k)
}

fn check_item(item: &Json, k: &Key) -> Result<(), String> {
    if item.get("key").and_then(Json::as_str) != Some(k.key.as_str()) {
        return Err(format!("reply key differs from the client's {}", k.key));
    }
    let finished = item
        .get("record")
        .and_then(|r| r.get("summary"))
        .and_then(|s| s.get("finished"))
        .and_then(Json::as_bool);
    if finished != Some(true) {
        return Err(format!("record for {} is missing or unfinished", k.key));
    }
    Ok(())
}

fn check_batch(reply: &HttpReply, keys: &[Key], items: &[usize]) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("/batch answered {}", reply.status));
    }
    let results = reply
        .body
        .get("results")
        .and_then(Json::as_array)
        .ok_or("batch reply has no results")?;
    if results.len() != items.len() {
        return Err(format!(
            "batch of {} answered {} items",
            items.len(),
            results.len()
        ));
    }
    for (item, i) in results.iter().zip(items) {
        match item.get("status").and_then(Json::as_str) {
            Some("cached" | "computed") => check_item(item, &keys[*i])?,
            other => return Err(format!("batch item status {other:?}")),
        }
    }
    Ok(())
}

/// Plays `arrivals` open loop against `addr`: arrival `i` goes out on
/// connection `i % CONNECTIONS` at its intended time (or as soon as that
/// connection is free, when it is late), and is timed from the intended
/// time, so a stall also counts against the requests queued behind it.
/// With tracers on, every other request of each connection is sent inside
/// a `loadgen.request` span, so traced and untraced requests share one
/// window and their difference is the tracing overhead.
pub fn open_loop(addr: &str, keys: &[Key], arrivals: &[Arrival], tracers: &mut [Tracer]) -> Window {
    let start = Instant::now();
    let mut window = Window::default();
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(conn, tracer)| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut part = Window::default();
                    for (i, arrival) in arrivals.iter().enumerate().skip(conn).step_by(CONNECTIONS)
                    {
                        let due = start + Duration::from_secs_f64(arrival.at_s);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let traced = tracer.is_on() && (i / CONNECTIONS) % 2 == 1;
                        let sent = Instant::now();
                        part.attempted += 1;
                        let result = if traced {
                            tracer.span("loadgen.request", i as u64, |_| {
                                send(&mut client, keys, &arrival.req)
                            })
                        } else {
                            send(&mut client, keys, &arrival.req)
                        };
                        let done = Instant::now();
                        match result {
                            Ok(cached) => part.samples.push(Sample {
                                batch: matches!(arrival.req, Req::Batch(_)),
                                cached,
                                traced,
                                lat_ms: ms(done.saturating_duration_since(due)),
                                lag_ms: ms(sent.saturating_duration_since(due)),
                            }),
                            Err(e) => part.failures.push(format!("arrival {i}: {e}")),
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread"))
            .collect()
    });
    for part in parts {
        window.absorb(part);
    }
    window.wall_s = start.elapsed().as_secs_f64();
    window
}

/// Closed loop over one keep-alive connection: the next `/run` goes out
/// as soon as the previous one is answered, until `done` says the window
/// has sent enough. Keys come from `zipf`, drawn by `draws`. One
/// connection keeps the order of cache lookups, puts and evictions the
/// same on every run of a seed.
pub fn closed_loop(
    client: &mut HttpClient,
    keys: &[Key],
    zipf: &Zipf,
    draws: &mut Weyl,
    mut done: impl FnMut(&Window) -> bool,
) -> Window {
    let start = Instant::now();
    let mut window = Window::default();
    while !done(&window) {
        let req = Req::Run(zipf.rank(draws.next_f64()));
        let sent = Instant::now();
        window.attempted += 1;
        match send(client, keys, &req) {
            Ok(cached) => window.samples.push(Sample {
                batch: false,
                cached,
                traced: false,
                lat_ms: ms(sent.elapsed()),
                lag_ms: 0.0,
            }),
            Err(e) => window.failures.push(format!("closed loop: {e}")),
        }
    }
    window.wall_s = start.elapsed().as_secs_f64();
    window
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let zipf = Zipf::new(1024, 1.0);
        let make = |seed| schedule(&mut SplitMix64::new(seed), &zipf, 100.0, 5.0, Some((20, 8)));
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
        let a = make(7);
        assert!((400..600).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].at_s < w[1].at_s));
        let batches = a.iter().filter(|x| matches!(x.req, Req::Batch(_))).count();
        assert_eq!(batches, a.len() / 20);
    }

    #[test]
    fn keyspace_keys_are_distinct_and_match_the_server_parse() {
        let keys = keyspace(7, 1, 4096);
        let mut seen: Vec<&str> = keys.iter().map(|k| k.key.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), keys.len());
        assert_eq!(keyspace(7, 1, 16)[5].body, keys[5].body);
        for k in &keys[..8] {
            let parsed = SimConfig::from_json_str(&k.body).unwrap();
            assert_eq!(parsed.cache_key(), k.key);
        }
    }

    #[test]
    fn zipf_rank_frequencies_follow_theory() {
        for (n, s) in [(1024, 1.0), (4096, 0.9)] {
            let zipf = Zipf::new(n, s);
            let mut rng = SplitMix64::new(11);
            let draws = 400_000;
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[zipf.sample(&mut rng)] += 1;
            }
            for k in [0, 1, 2, 4, 9, 19] {
                let expect = zipf.pmf(k) * draws as f64;
                let rel = (counts[k] as f64 - expect).abs() / expect;
                assert!(
                    rel < 0.06,
                    "n={n} s={s} rank {k}: {} vs {expect:.0}",
                    counts[k]
                );
            }
            let theory = 1.0 / (1.0 + 1.0f64).powf(s);
            assert!((zipf.pmf(1) / zipf.pmf(0) - theory).abs() < 1e-9);
        }
    }

    #[test]
    fn weyl_draws_follow_zipf_closely_on_every_seed() {
        let zipf = Zipf::new(4096, 1.1);
        let draws = 3000;
        for seed in 1..=10 {
            let mut weyl = Weyl::new(&mut SplitMix64::new(seed));
            let mut counts = vec![0u64; 4096];
            for _ in 0..draws {
                counts[zipf.rank(weyl.next_f64())] += 1;
            }
            for k in [0, 1, 2, 4, 9, 19, 49] {
                let expect = zipf.pmf(k) * draws as f64;
                assert!(
                    (counts[k] as f64 - expect).abs() <= 3.0,
                    "seed {seed} rank {k}: {} vs {expect:.1}",
                    counts[k]
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
