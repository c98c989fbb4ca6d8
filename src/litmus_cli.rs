//! The `tenways litmus` subcommand: run the in-tree litmus corpus (or
//! `.litmus` files) through the exploration engine and report verdicts.
//!
//! The report is a bench-rows-style document
//! (`{schema_version, id, title, config, rows}`) with one row per
//! `(test, model)`; a row's `status` is `failed` if a forbidden state was
//! observed, the speculation-on and speculation-off state sets differ, or
//! any grid run failed. Exit code 0 when every row is `ok`, 1 when any
//! failed, 2 for usage errors.

use std::path::PathBuf;

use tenways::bench::{results_dir, BENCH_ROWS_SCHEMA_VERSION};
use tenways::cpu::ConsistencyModel;
use tenways::litmus::{corpus, explore, judge, ExploreOptions, LitmusTest};
use tenways::sim::json::{Json, ToJson};

fn usage() -> ! {
    eprintln!(
        "usage: tenways litmus [--corpus] [options]
       tenways litmus --file <test.litmus> [--file ...] [options]
  --corpus            run the in-tree corpus (default when no --file given)
  --file <path>       run a .litmus file (repeatable, adds to the corpus
                      when --corpus is also given)
  --list              list corpus test names and exit
  --models <list>     comma-separated subset of sc,tso,rmo (default all)
  --points <n>        grid points per (model, spec mode) cell (default 32)
  --seed <n>          grid base seed (default 7)
  --workers <n>       worker threads: how many grid points run
                      concurrently (default: host parallelism)
  --cycle-limit <n>   per-run cycle limit; a run that exceeds it fails
                      (default 1000000)
  --json <path|->     also write the report JSON to a path (- for stdout)
  --out <dir>         results directory for litmus.json (default
                      $TENWAYS_RESULTS_DIR or results/)
  --quiet             suppress per-test progress on stderr

Each test runs across the same deterministic grid for every consistency
model x speculation mode (disabled, on-demand, continuous). Verdicts fail
on any observed `forbidden` state and on any difference between the
speculation-on and speculation-off observable-state sets; failures carry
a replayable {{test, model, spec, seed, point}} repro."
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tenways litmus: {msg}");
    std::process::exit(2);
}

/// Runs the subcommand; `argv` excludes the leading `litmus` token.
pub fn main(argv: &[String]) -> ! {
    let mut use_corpus = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut models: Vec<ConsistencyModel> = ConsistencyModel::all().to_vec();
    let mut opts = ExploreOptions::default();
    let mut json: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut quiet = false;

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
            "--corpus" => use_corpus = true,
            "--file" | "-f" => files.push(PathBuf::from(value(&mut i))),
            "--list" => {
                for test in corpus() {
                    println!("{}", test.name);
                }
                std::process::exit(0);
            }
            "--models" | "-m" => {
                let list = value(&mut i);
                models = list
                    .split(',')
                    .map(|m| {
                        ConsistencyModel::from_label(m.trim())
                            .unwrap_or_else(|| fail(format!("unknown model `{m}`")))
                    })
                    .collect();
                models.dedup();
                if models.is_empty() {
                    fail("--models needs at least one model");
                }
            }
            "--points" => opts.points = number(&mut i).max(1) as usize,
            "--seed" => opts.seed = number(&mut i),
            "--workers" => opts.workers = Some(number(&mut i).max(1) as usize),
            "--cycle-limit" => opts.cycle_limit = number(&mut i).max(1),
            "--json" | "-j" => json = Some(value(&mut i).clone()),
            "--out" => out = Some(PathBuf::from(value(&mut i))),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let mut tests: Vec<LitmusTest> = Vec::new();
    if use_corpus || files.is_empty() {
        tests.extend(corpus());
    }
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {}: {e}", path.display())));
        let test =
            LitmusTest::parse(&text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        tests.push(test);
    }

    let mut rows: Vec<Json> = Vec::new();
    let mut failed = 0usize;
    let mut total_runs = 0usize;
    for test in &tests {
        let ex = explore(test, &models, &opts);
        total_runs += ex.runs;
        let verdicts = judge(test, &ex);
        if !quiet {
            let cells: Vec<String> = verdicts
                .iter()
                .map(|v| {
                    format!(
                        "{} {}",
                        v.model.label(),
                        if v.passed() { "ok" } else { "FAILED" }
                    )
                })
                .collect();
            let allowed_hits = verdicts
                .iter()
                .flat_map(|v| &v.allowed)
                .filter(|a| a.hit)
                .count();
            let allowed_total: usize = verdicts.iter().map(|v| v.allowed.len()).sum();
            eprintln!(
                "[litmus] {:<12} {} (allowed sampled {allowed_hits}/{allowed_total})",
                test.name,
                cells.join(", ")
            );
        }
        for verdict in verdicts {
            if !verdict.passed() {
                failed += 1;
                for violation in &verdict.forbidden_violations {
                    eprintln!(
                        "[litmus] {}/{}: FORBIDDEN state `{}` observed (predicate `{}`), repro {}",
                        verdict.test,
                        verdict.model.label(),
                        violation.state,
                        violation.predicate,
                        violation.repro.to_json()
                    );
                }
                for divergence in &verdict.spec_divergences {
                    eprintln!(
                        "[litmus] {}/{}: speculation {} state `{}`, repro {}",
                        verdict.test,
                        verdict.model.label(),
                        if divergence.leaked {
                            "LEAKED"
                        } else {
                            "SUPPRESSED"
                        },
                        divergence.state,
                        divergence.repro.to_json()
                    );
                }
                for (spec, point, err) in &verdict.run_failures {
                    eprintln!(
                        "[litmus] {}/{}: run failed at point {point} (spec {}): {err}",
                        verdict.test,
                        verdict.model.label(),
                        spec.label()
                    );
                }
            }
            rows.push(verdict.to_json());
        }
    }

    let doc = Json::obj([
        ("schema_version", Json::U64(BENCH_ROWS_SCHEMA_VERSION)),
        ("id", Json::from("litmus")),
        (
            "title",
            Json::from(
                "Weak-memory litmus conformance: forbidden states and speculation transparency",
            ),
        ),
        (
            "config",
            Json::obj([
                ("points", Json::from(opts.points)),
                ("seed", Json::from(opts.seed)),
                ("cycle_limit", Json::from(opts.cycle_limit)),
                ("models", Json::arr(models.iter().map(|m| m.to_json()))),
                ("tests", Json::from(tests.len())),
                ("runs", Json::from(total_runs)),
            ]),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    let mut text = doc.pretty();
    text.push('\n');

    let dir = out.unwrap_or_else(results_dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    let path = dir.join("litmus.json");
    tenways::bench::write_text_atomic(&path, &text).unwrap_or_else(|e| fail(e));

    if let Some(dest) = &json {
        if dest == "-" {
            print!("{text}");
        } else {
            tenways::bench::write_text_atomic(std::path::Path::new(dest), &text)
                .unwrap_or_else(|e| fail(e));
        }
    }

    let total = tests.len() * models.len();
    eprintln!(
        "[litmus] {} test(s) x {} model(s): {} ok, {failed} failed ({total_runs} runs); wrote {}",
        tests.len(),
        models.len(),
        total - failed,
        path.display()
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
