//! The `tenways route` subcommand: a shard-by-key router fronting N
//! `tenways serve` backends (see [`tenways::bench::Router`]).
//!
//! The router speaks the same HTTP protocol as a single serve node —
//! `POST /run`, `POST /batch`, `GET /healthz` — so
//! every serve client (including `tenways sweep --server`) points at it
//! unchanged. Requests shard by the canonical cache key via rendezvous
//! hashing; `GET /stats` answers the aggregated `serve_cluster_stats.v2`
//! document instead of a single node's counters. A forward relays the
//! first reply a backend gives, whatever its status, and moves on to the
//! key's next live backend only when one cannot be reached. A backend's
//! liveness is what the router's own requests to it last showed.
//!
//! Exit code 0 on clean shutdown, 2 for usage or startup errors.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use tenways::bench::{route_http, write_text_atomic, Router, RouterOptions};

fn usage() -> ! {
    eprintln!(
        "usage: tenways route --backend <host:port> [--backend <host:port> ...] [options]

Fronts N `tenways serve` backends behind one address, sharding every
request by its canonical cache key (rendezvous hashing): the same config
always lands on the same live backend, so duplicate work is deduplicated
cluster-wide. Serve clients work unchanged, including
`tenways sweep --server <router-addr>`.

options:
  --backend <host:port>     a serve backend (repeat once per backend;
                            at least one required)
  --addr <host:port>        bind address (default 127.0.0.1:7418; port 0
                            picks an ephemeral port — pair with --port-file)
  --max-requests <n>        exit cleanly after n connections (for
                            scripts/CI)
  --port-file <path>        write the actual bound address to this file
                            once listening (atomic write)
  --verbose                 log each routed request to stderr

endpoints: POST /run (owner shard), POST /batch (split per owner,
merged), GET /stats (serve_cluster_stats.v2 aggregate), GET /healthz
(how many backends the router last found up)."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tenways route: {msg}");
    std::process::exit(2);
}

/// Runs the subcommand; `argv` excludes the leading `route` token.
pub fn main(argv: &[String]) -> ! {
    let mut addr = "127.0.0.1:7418".to_string();
    let mut options = RouterOptions::default();
    let mut max_requests: Option<u64> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut verbose = false;

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
            "--backend" | "-b" => options.backends.push(value(&mut i)),
            "--addr" | "-a" => addr = value(&mut i),
            "--max-requests" => max_requests = Some(number(&mut i)),
            "--port-file" => port_file = Some(PathBuf::from(value(&mut i))),
            "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    if options.backends.is_empty() {
        usage();
    }

    let backends = options.backends.clone();
    let router = Arc::new(Router::new(options).unwrap_or_else(|e| fail(e)));
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| fail(format!("bind {addr}: {e}")));
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.clone());
    if let Some(path) = &port_file {
        let mut text = bound.clone();
        text.push('\n');
        write_text_atomic(path, &text).unwrap_or_else(|e| fail(e));
    }
    eprintln!(
        "[route] listening on {bound}, sharding over {} backend{}: {}",
        backends.len(),
        if backends.len() == 1 { "" } else { "s" },
        backends.join(", ")
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    route_http(router, listener, max_requests, verbose, shutdown).unwrap_or_else(|e| fail(e));
    eprintln!("[route] done");
    std::process::exit(0);
}
