//! The `tenways serve` subcommand: simulation-as-a-service over loopback
//! (or any address) with a content-addressed result cache.
//!
//! Server mode binds a [`std::net::TcpListener`], answers `POST /run`
//! jobs from the two-tier cache, and simulates misses on a persistent
//! worker pool (see [`tenways::bench::SimService`]); a miss waits for a
//! worker, however many are queued before it. Client mode
//! (`--post`, `--stats`, `--health`) speaks the same protocol from the
//! same binary, so scripts and CI need no external HTTP client.
//!
//! Exit code 0 on success (server: clean shutdown; client: HTTP 200),
//! 1 when a client request is refused, 2 for usage or startup errors.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tenways::bench::{
    check_workers, serve_http_shutdown, write_text_atomic, HttpClient, ServeOptions, SimService,
};

fn usage() -> ! {
    eprintln!(
        "usage: tenways serve [options]                      start the server
       tenways serve --post <cfg> [--addr <a>]      submit one job
       tenways serve --batch <cfg> [--addr <a>]     submit a config list/grid
       tenways serve --stats [--addr <a>]           print server counters
       tenways serve --health [--addr <a>]          probe liveness

server options:
  --addr <host:port>    bind address (default 127.0.0.1:7417; port 0
                        picks an ephemeral port — pair with --port-file)
  --cache-dir <path>    result cache directory (default
                        $TENWAYS_RESULTS_DIR/cache or results/cache);
                        `tenways sweep --cache <path>` fills the same
                        store, so a sweep warms a server before it starts
  --workers <n>         simulation worker threads, at most 1024 (default:
                        host parallelism; 0 = cache-only, misses get
                        HTTP 503)
  --mem-capacity <n>    in-memory LRU entries (default 128)
  --disk-budget-mb <n>  disk-tier byte budget in MiB; on overflow the
                        least-recently-accessed entries are evicted
                        (default: unbounded)
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
  --stats               GET /stats
  --health              GET /healthz

POST /run answers {{schema_version, key, cached, record}} where `key` is
the canonical content-address of the config and `record` the run_record.v1
document — byte-identical on a hit, freshly simulated on a miss; the
request waits until its record exists, queued behind the misses before
it. Each miss simulates once. A config with an unknown field, such as a
[sched] section, answers 400."
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
    Stats,
    Health,
}

/// Runs the subcommand; `argv` excludes the leading `serve` token.
pub fn main(argv: &[String]) -> ! {
    let mut addr = "127.0.0.1:7417".to_string();
    let mut options = ServeOptions::default();
    let mut max_requests: Option<u64> = None;
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
            "--workers" => {
                options.workers = number(&mut i) as usize;
                check_workers(options.workers).unwrap_or_else(|e| fail(format!("--workers: {e}")));
            }
            "--mem-capacity" => options.mem_capacity = number(&mut i) as usize,
            "--disk-budget-mb" => {
                let mb = number(&mut i);
                let bytes = mb.checked_mul(1024 * 1024).unwrap_or_else(|| {
                    fail(format!(
                        "--disk-budget-mb {mb} is more bytes than a u64 holds"
                    ))
                });
                options.disk_budget = Some(bytes);
            }
            "--max-requests" => max_requests = Some(number(&mut i)),
            "--port-file" => port_file = Some(PathBuf::from(value(&mut i))),
            "--verbose" => verbose = true,
            "--post" => mode = Mode::Post(value(&mut i)),
            "--batch" => mode = Mode::Batch(value(&mut i)),
            "--stats" => mode = Mode::Stats,
            "--health" => mode = Mode::Health,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }

    match mode {
        Mode::Server => run_server(&addr, options, max_requests, port_file, verbose),
        Mode::Post(source) => run_client_post(&addr, "/run", &source),
        Mode::Batch(source) => run_client_post(&addr, "/batch", &source),
        Mode::Stats => run_get(&addr, "/stats"),
        Mode::Health => run_get(&addr, "/healthz"),
    }
}

fn run_server(
    addr: &str,
    options: ServeOptions,
    max_requests: Option<u64>,
    port_file: Option<PathBuf>,
    verbose: bool,
) -> ! {
    let workers = options.workers;
    let cache_dir = options.cache_dir.clone();
    let service = SimService::new(options).unwrap_or_else(|e| fail(e));
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
    let shutdown = Arc::new(AtomicBool::new(false));
    serve_http_shutdown(Arc::new(service), listener, max_requests, verbose, shutdown)
        .unwrap_or_else(|e| fail(e));
    eprintln!("[serve] done");
    std::process::exit(0);
}

/// POSTs one document (a config for `/run`, a config list or grid for
/// `/batch`) and prints the response. Exit 0 on a 200 answer.
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
    let reply = HttpClient::new(addr)
        .request("POST", path, Some((content_type, &text)))
        .unwrap_or_else(|e| fail(e));
    println!("{}", reply.body.pretty());
    std::process::exit(if reply.status == 200 { 0 } else { 1 });
}

/// GETs a diagnostic endpoint and prints the response document.
fn run_get(addr: &str, path: &str) -> ! {
    let reply = HttpClient::new(addr)
        .request("GET", path, None)
        .unwrap_or_else(|e| fail(e));
    println!("{}", reply.body.pretty());
    std::process::exit(if reply.status == 200 { 0 } else { 1 });
}
