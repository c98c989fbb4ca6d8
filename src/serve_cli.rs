//! The `tenways serve` subcommand: simulation-as-a-service over loopback
//! (or any address) with a content-addressed result cache.
//!
//! Server mode binds a [`std::net::TcpListener`], answers `POST /run`
//! jobs from the two-tier cache, and simulates misses on a persistent
//! worker pool (see [`tenways::bench::SimService`]). Client mode
//! (`--post`, `--stats`, `--health`) speaks the same protocol from the
//! same binary, so scripts and CI need no external HTTP client.
//!
//! Exit code 0 on success (server: clean shutdown; client: HTTP 200),
//! 1 when a client request is refused, 2 for usage or startup errors.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use tenways::bench::{
    http_call, serve_http, write_text_atomic, ServeOptions, SimService, SweepSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: tenways serve [options]                      start the server
       tenways serve --post <cfg> [--addr <a>]      submit one job
       tenways serve --batch <cfg> [--addr <a>]     submit a config list/grid
       tenways serve --job <key> [--addr <a>]       poll an async job
       tenways serve --stats [--addr <a>]           print server counters
       tenways serve --health [--addr <a>]          probe liveness

server options:
  --addr <host:port>    bind address (default 127.0.0.1:7417; port 0
                        picks an ephemeral port — pair with --port-file)
  --cache-dir <path>    result cache directory (default
                        $TENWAYS_RESULTS_DIR/cache or results/cache)
  --workers <n>         simulation worker threads (default: host
                        parallelism; 0 = cache-only, misses get HTTP 503)
  --mem-capacity <n>    in-memory LRU entries (default 128)
  --disk-budget-mb <n>  disk-tier byte budget in MiB; on overflow the
                        least-recently-accessed entries are evicted
                        (default: unbounded)
  --queue-depth <n>     admission bound: misses waiting for a worker
                        beyond this are refused with HTTP 503 +
                        Retry-After (default 256; joining an in-flight
                        key never consumes a slot)
  --sync-timeout-ms <n> a miss still simulating after this long answers
                        HTTP 202 + key instead of blocking; poll it with
                        GET /jobs/<key> (default: block until done)
  --warm <grid>         pre-populate the result cache from a sweep spec
                        (TOML or JSON) before binding the listener;
                        reports warmed/skipped counts on stderr
  --max-requests <n>    exit cleanly after n connections (for scripts/CI)
  --port-file <path>    write the actual bound address to this file once
                        listening (atomic write; for ephemeral ports)
  --verbose             log each request to stderr

client options:
  --addr <host:port>    server to contact (default 127.0.0.1:7417)
  --post <path|->       read a SimConfig (TOML, or JSON when the path
                        ends in .json or the text opens with '{{'; `-`
                        reads stdin) and POST it to /run
  --batch <path|->      read a config list ({{configs: [...]}} or a bare
                        array) or a sweep grid document and POST it to
                        /batch — duplicate keys cost one simulation
  --job <key>           GET /jobs/<key> ({{pending|running|done|failed}})
  --stats               GET /stats
  --health              GET /healthz

POST /run answers {{schema_version, key, cached, record}} where `key` is
the canonical content-address of the config and `record` the run_record.v1
document — byte-identical on a hit, freshly simulated on a miss. A full
admission queue answers 503 + Retry-After; a miss past --sync-timeout-ms
answers 202 + key for later polling. Each miss simulates once, under the
default scheduler: a request's [sched] section is ignored."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tenways serve: {msg}");
    std::process::exit(2);
}

/// What the invocation asked for.
enum Mode {
    Server,
    Post(String),
    Batch(String),
    Job(String),
    Stats,
    Health,
}

/// Runs the subcommand; `argv` excludes the leading `serve` token.
pub fn main(argv: &[String]) -> ! {
    let mut addr = "127.0.0.1:7417".to_string();
    let mut options = ServeOptions::default();
    let mut max_requests: Option<u64> = None;
    let mut warm: Option<PathBuf> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut verbose = false;
    let mut mode = Mode::Server;

    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let number = |i: &mut usize| -> u64 {
        let v = value(i);
        v.parse()
            .unwrap_or_else(|_| fail(format!("not a number: {v}")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" | "-a" => addr = value(&mut i),
            "--cache-dir" => options.cache_dir = PathBuf::from(value(&mut i)),
            "--workers" => options.workers = number(&mut i) as usize,
            "--mem-capacity" => options.mem_capacity = number(&mut i) as usize,
            "--disk-budget-mb" => options.disk_budget = Some(number(&mut i) * 1024 * 1024),
            "--queue-depth" => options.queue_depth = number(&mut i) as usize,
            "--sync-timeout-ms" => options.sync_timeout_ms = Some(number(&mut i)),
            "--warm" => warm = Some(PathBuf::from(value(&mut i))),
            "--max-requests" => max_requests = Some(number(&mut i)),
            "--port-file" => port_file = Some(PathBuf::from(value(&mut i))),
            "--verbose" => verbose = true,
            "--post" => mode = Mode::Post(value(&mut i)),
            "--batch" => mode = Mode::Batch(value(&mut i)),
            "--job" => mode = Mode::Job(value(&mut i)),
            "--stats" => mode = Mode::Stats,
            "--health" => mode = Mode::Health,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }

    match mode {
        Mode::Server => run_server(&addr, options, warm, max_requests, port_file, verbose),
        Mode::Post(source) => run_client_post(&addr, "/run", &source),
        Mode::Batch(source) => run_client_post(&addr, "/batch", &source),
        Mode::Job(key) => run_get(&addr, &format!("/jobs/{key}")),
        Mode::Stats => run_get(&addr, "/stats"),
        Mode::Health => run_get(&addr, "/healthz"),
    }
}

fn run_server(
    addr: &str,
    options: ServeOptions,
    warm: Option<PathBuf>,
    max_requests: Option<u64>,
    port_file: Option<PathBuf>,
    verbose: bool,
) -> ! {
    let workers = options.workers;
    let cache_dir = options.cache_dir.clone();
    let service = SimService::new(options).unwrap_or_else(|e| fail(e));
    // Warm before binding: clients that can connect always see the
    // cache the spec promised them.
    if let Some(spec_path) = &warm {
        let spec = SweepSpec::load(spec_path).unwrap_or_else(|e| fail(e));
        let points: Vec<_> = spec
            .points()
            .unwrap_or_else(|e| fail(e))
            .into_iter()
            .map(|p| (p.label, p.config))
            .collect();
        eprintln!(
            "[serve] warming cache from {} ({} point{})",
            spec_path.display(),
            points.len(),
            if points.len() == 1 { "" } else { "s" }
        );
        let report = service.warm(&points);
        for (label, error) in &report.failed {
            eprintln!("[serve] warm {label} failed: {error}");
        }
        eprintln!(
            "[serve] warm done: {} unique, {} warmed, {} already cached, {} failed",
            report.unique,
            report.warmed,
            report.skipped,
            report.failed.len()
        );
    }
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail(format!("bind {addr}: {e}")));
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    if let Some(path) = &port_file {
        let mut text = bound.clone();
        text.push('\n');
        write_text_atomic(path, &text).unwrap_or_else(|e| fail(e));
    }
    eprintln!(
        "[serve] listening on {bound} ({} worker{}, cache {})",
        workers,
        if workers == 1 { "" } else { "s" },
        cache_dir.display()
    );
    serve_http(Arc::new(service), listener, max_requests, verbose).unwrap_or_else(|e| fail(e));
    eprintln!("[serve] done");
    std::process::exit(0);
}

/// POSTs one document (a config for `/run`, a config list or grid for
/// `/batch`) and prints the response. Exit 0 covers both immediate
/// answers (200) and accepted-for-later (202).
fn run_client_post(addr: &str, path: &str, source: &str) -> ! {
    let text = if source == "-" {
        std::io::read_to_string(std::io::stdin())
            .unwrap_or_else(|e| fail(format!("cannot read stdin: {e}")))
    } else {
        std::fs::read_to_string(source)
            .unwrap_or_else(|e| fail(format!("cannot read {source}: {e}")))
    };
    let trimmed = text.trim_start();
    let looks_json =
        source.ends_with(".json") || trimmed.starts_with('{') || trimmed.starts_with('[');
    let content_type = if looks_json {
        "application/json"
    } else {
        "application/toml"
    };
    let (status, doc) =
        http_call(addr, "POST", path, Some((content_type, &text))).unwrap_or_else(|e| fail(e));
    println!("{}", doc.pretty());
    std::process::exit(if status == 200 || status == 202 { 0 } else { 1 });
}

/// GETs a diagnostic endpoint and prints the response document.
fn run_get(addr: &str, path: &str) -> ! {
    let (status, doc) = http_call(addr, "GET", path, None).unwrap_or_else(|e| fail(e));
    println!("{}", doc.pretty());
    std::process::exit(if status == 200 { 0 } else { 1 });
}
