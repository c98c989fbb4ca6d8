//! The `tenways sweep` subcommand: expand a grid file into many
//! [`SimConfig`](tenways::waste::SimConfig) points, run them fail-soft on
//! the [`parallel_map`](tenways::bench::parallel_map), and write a
//! `bench_rows.v1`-compatible document with per-row status.
//!
//! Exit code 0 when every row is `ok`, 1 when any row failed (completed
//! rows are still on disk), 2 for usage or configuration errors.

use std::path::PathBuf;

use tenways::bench::{run_sweep, run_sweep_server, SweepParams, SweepSpec};

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
  --workers <n>          worker threads: how many grid points run
                         concurrently (default: host parallelism)
  --cache <dir>          a local sweep's result cache (default
                         <out>/cache, which without --out is the store
                         `tenways serve` uses by default)
  --server <host:port>   client mode: POST the whole grid to a running
                         `tenways serve` instance's /batch endpoint (the
                         server canonicalizes, deduplicates, answers
                         warm keys from its cache and simulates the
                         rest before it replies), and write the same
                         document with rows marked
                         \"served\": cached|computed;
                         a `tenways route` router address works here
                         unchanged (same protocol, sharded backends)
  --quiet                suppress per-row progress on stderr

Every local sweep consults and fills the content-addressed result cache:
a point whose config the cache holds becomes a row without simulating
(marked \"cache\": \"hit\"), a config repeated in the grid simulates once,
and each record is stored as it completes, so rerunning a cut sweep
resumes it. `tenways serve --cache-dir <dir>` answers from a directory a
sweep filled. The final document is <out>/<id>.json with per-row status
ok / failed."
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
    let mut params = SweepParams {
        verbose: true,
        ..SweepParams::default()
    };

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
            "--workers" => params.workers = Some(number(&mut i).max(1) as usize),
            "--cache" => params.cache_dir = Some(PathBuf::from(value(&mut i))),
            "--server" => server = Some(value(&mut i).clone()),
            "--quiet" | "-q" => params.verbose = false,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }

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
    println!(
        "[sweep {}] {} point(s): {} ok ({} cached), {} failed",
        spec.id,
        report.ok + report.failed,
        report.ok,
        report.cached,
        report.failed
    );
    println!("[sweep {}] wrote {}", spec.id, report.path.display());
    std::process::exit(if report.all_ok() { 0 } else { 1 });
}
