//! The `tenways sweep` subcommand: expand a grid file into many
//! [`SimConfig`](tenways::waste::SimConfig) points, run them fail-soft on
//! the [`SweepRunner`](tenways::bench::SweepRunner), and write a
//! `bench_rows.v1`-compatible document with per-row status.
//!
//! Exit code 0 when every row is `ok`, 1 when any row failed or was
//! skipped (completed rows are still on disk), 2 for usage or
//! configuration errors.

use std::path::PathBuf;

use tenways::bench::{run_sweep, run_sweep_server, SweepOptions, SweepParams, SweepSpec};

fn usage() -> ! {
    eprintln!(
        "usage: tenways sweep --config <grid.toml> [options]
  --config <path>        grid file: base SimConfig keys, optional [sweep]
                         id/title, and a [grid] table of axis arrays
                         (dotted keys like \"machine.dram_latency\" reach
                         into sections); .json parses as JSON
  --id <name>            sweep id (default: [sweep] id, else the file stem)
  --out <dir>            output directory (default $TENWAYS_RESULTS_DIR
                         or results/)
  --workers <n>          across-run worker threads: how many grid points
                         run concurrently (default: host parallelism,
                         divided by the widest point's sched.workers).
                         Intra-run sharding is configured separately via
                         [sched] in the grid file; when a point shards
                         (sched.workers > 1), an explicit --workers that
                         oversubscribes the host (workers x sched.workers
                         > hardware threads) is rejected
  --fail-fast            skip the rest of the grid after the first failure
  --max-jobs <n>         start at most n fresh jobs this invocation
  --checkpoint-every <n> checkpoint after every n completed rows
                         (default 1; 0 disables checkpointing)
  --fresh                ignore an existing checkpoint and start over
  --cache [<dir>]        consult (and fill) the content-addressed result
                         cache before simulating: points already cached
                         become rows without running (marked
                         \"cache\": \"hit\"). The optional directory
                         defaults to $TENWAYS_RESULTS_DIR/cache or
                         results/cache — the same store `tenways serve`
                         uses, so a warm server warms local sweeps too
  --server <host:port>   client mode: POST the whole grid to a running
                         `tenways serve` instance's /batch endpoint (the
                         server canonicalizes, deduplicates, and answers
                         warm keys from its cache), poll queued keys via
                         GET /jobs/<key>, and write the same document
                         with rows marked \"served\": cached|computed;
                         a `tenways route` router address works here
                         unchanged (same protocol, sharded backends),
                         and rejected keys retry with jittered backoff
  --quiet                suppress per-row progress on stderr

Completed rows are checkpointed to <out>/<id>.partial.json; rerunning the
same sweep resumes from the checkpoint. The final document is
<out>/<id>.json with per-row status ok / failed / skipped."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tenways sweep: {msg}");
    std::process::exit(2);
}

/// Runs the subcommand; `argv` excludes the leading `sweep` token.
pub fn main(argv: &[String]) -> ! {
    let mut config: Option<PathBuf> = None;
    let mut id: Option<String> = None;
    let mut server: Option<String> = None;
    let mut params = SweepParams::default();
    let mut options = SweepOptions::default();
    params.verbose = true;

    let mut i = 0;
    let value = |i: &mut usize| -> &String {
        *i += 1;
        argv.get(*i).unwrap_or_else(|| usage())
    };
    let number = |i: &mut usize| -> u64 {
        let v = value(i);
        v.parse()
            .unwrap_or_else(|_| fail(format!("`{v}` is not a number")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--config" | "-c" => config = Some(PathBuf::from(value(&mut i))),
            "--id" => id = Some(value(&mut i).clone()),
            "--out" => params.out_dir = PathBuf::from(value(&mut i)),
            "--workers" => options.workers = Some(number(&mut i).max(1) as usize),
            "--fail-fast" => options.fail_fast = true,
            "--max-jobs" => options.max_jobs = Some(number(&mut i) as usize),
            "--checkpoint-every" => params.checkpoint_every = number(&mut i) as usize,
            "--fresh" => params.resume = false,
            "--cache" => {
                // Optional directory operand: consume it only when the
                // next token is not another flag.
                let dir = match argv.get(i + 1) {
                    Some(next) if !next.starts_with('-') => {
                        i += 1;
                        PathBuf::from(next)
                    }
                    _ => tenways::bench::results_dir().join("cache"),
                };
                params.cache_dir = Some(dir);
            }
            "--server" => server = Some(value(&mut i).clone()),
            "--quiet" | "-q" => params.verbose = false,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    params.options = options;

    let Some(config) = config else {
        eprintln!("tenways sweep: --config is required\n");
        usage()
    };
    let mut spec = SweepSpec::load(&config).unwrap_or_else(|e| fail(e));
    if let Some(id) = id {
        spec.id = id;
    }

    let report = match &server {
        Some(addr) => run_sweep_server(&spec, addr, &params).unwrap_or_else(|e| fail(e)),
        None => run_sweep(&spec, &params).unwrap_or_else(|e| fail(e)),
    };
    let total = report.ok + report.failed + report.skipped;
    println!(
        "[sweep {}] {total} point(s): {} ok ({} reused, {} cached), {} failed, {} skipped",
        spec.id, report.ok, report.reused, report.cached, report.failed, report.skipped
    );
    println!("[sweep {}] wrote {}", spec.id, report.path.display());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
