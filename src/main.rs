//! The `tenways` command-line driver: run one experiment from the shell,
//! or a whole grid of them with the `sweep` subcommand.
//!
//! ```text
//! tenways --workload oltp --model sc --spec on-demand --threads 8 --scale 8
//! tenways --config sweep.toml --json results/run.json --trace trace.json
//! tenways sweep --config grid.toml
//! tenways litmus --corpus
//! tenways serve --addr 127.0.0.1:7417
//! tenways --list
//! ```
//!
//! Settings layer lowest-to-highest: built-in defaults, the `--config`
//! file (TOML or JSON [`SimConfig`]), then individual flags.

use std::io::Write as _;
use std::path::PathBuf;

use tenways::prelude::*;
use tenways::sim::json::ToJson;
use tenways::sim::trace::chrome_trace;
use tenways::waste::report;

mod litmus_cli;
mod route_cli;
mod serve_cli;
mod sweep_cli;

fn usage() -> ! {
    eprintln!(
        "usage: tenways [options]                            run one experiment
       tenways sweep --config <grid.toml> [options]  run a config grid
                                                     (see tenways sweep --help)
       tenways litmus [--corpus] [options]           weak-memory conformance
                                                     (see tenways litmus --help)
       tenways serve [options]                       simulation service with a
                                                     content-addressed result
                                                     cache (see tenways serve
                                                     --help)
       tenways route --backend <a> [...]             shard-by-key router over N
                                                     serve backends (see
                                                     tenways route --help)
  --config <path>     load a SimConfig file first (.json is JSON, else TOML)
  --workload <name>   one of: {} | contended (default oltp)
  --model <m>         sc | tso | rmo (default tso)
  --spec <s>          off | on-demand | continuous | per-store:<N> (default off)
  --threads <n>       simulated cores (default 8)
  --scale <n>         per-thread work units (default 8)
  --seed <n>          run seed (default 7)
  --conflict <p>      contended workload conflict probability (default 0.05)
  --mesh              use a 2-D mesh interconnect instead of the crossbar
  --msi               use MSI instead of MESI coherence
  --prefetch          enable the next-line L1 prefetcher
  --atomics <preset>  RMW/fence latency model: off | schweizer (default
                      off; schweizer = Haswell-calibrated near/far costs)
  --json <path|->     write the run record as JSON (- for stdout)
  --trace <path>      record an event trace (Chrome trace_event JSON)
  --breakdown         print the ten-ways cycle breakdown
  --energy            print the energy report
  --stats             dump all raw counters
  --list              list workloads and exit",
        WorkloadKind::all().map(|k| k.name()).join(" | ")
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    usage()
}

struct Args {
    cfg: SimConfig,
    json: Option<String>,
    trace: Option<PathBuf>,
    breakdown: bool,
    energy: bool,
    stats: bool,
}

/// Capacity of the trace ring buffer (events); the newest events win when
/// a run overflows it.
const TRACE_CAPACITY: usize = 1 << 20;

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();

    // Subcommand dispatch: `tenways sweep ...` and `tenways litmus ...`
    // have their own flag sets.
    match argv.first().map(String::as_str) {
        Some("sweep") => sweep_cli::main(&argv[1..]),
        Some("litmus") => litmus_cli::main(&argv[1..]),
        Some("serve") => serve_cli::main(&argv[1..]),
        Some("route") => route_cli::main(&argv[1..]),
        _ => {}
    }

    // Pass 1: the config file establishes the base layer.
    let mut cfg = SimConfig::default();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--config" || argv[i] == "-c" {
            let path = argv.get(i + 1).unwrap_or_else(|| usage());
            cfg = SimConfig::load(std::path::Path::new(path)).unwrap_or_else(|e| fail(e));
        }
        i += 1;
    }

    // Pass 2: flags override the loaded config field-by-field.
    let mut args = Args {
        cfg,
        json: None,
        trace: None,
        breakdown: false,
        energy: false,
        stats: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--config" | "-c" => {
                i += 1; // consumed in pass 1
            }
            "--workload" | "-w" => args.cfg.workload = value(&mut i),
            "--model" | "-m" => {
                let v = value(&mut i);
                args.cfg.model = ConsistencyModel::from_label(&v)
                    .unwrap_or_else(|| fail(format!("unknown model: {v}")));
            }
            "--spec" | "-s" => {
                args.cfg.spec = SpecConfig::from_flag(&value(&mut i)).unwrap_or_else(|e| fail(e));
            }
            "--threads" | "-t" => {
                args.cfg.threads = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--scale" => args.cfg.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.cfg.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--conflict" => args.cfg.conflict = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--atomics" => {
                let v = value(&mut i);
                args.cfg.atomics = match v.as_str() {
                    "off" => AtomicsConfig::off(),
                    "schweizer" => AtomicsConfig::schweizer(),
                    other => fail(format!("unknown atomics preset: {other} (off | schweizer)")),
                };
            }
            "--mesh" => args.cfg.machine.noc_mesh = true,
            "--msi" => args.cfg.protocol.grant_exclusive = false,
            "--prefetch" => args.cfg.protocol.prefetch_next_line = true,
            "--json" | "-j" => args.json = Some(value(&mut i)),
            "--trace" => args.trace = Some(PathBuf::from(value(&mut i))),
            "--breakdown" => args.breakdown = true,
            "--energy" => args.energy = true,
            "--stats" => args.stats = true,
            "--list" => {
                for k in WorkloadKind::all() {
                    println!("{}", k.name());
                }
                println!("contended");
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let experiment = Experiment::from_config(&args.cfg).unwrap_or_else(|e| fail(e));

    let (record, events) = if args.trace.is_some() {
        let (record, events) = experiment.run_traced(TRACE_CAPACITY).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        (record, Some(events))
    } else {
        let record = experiment.run().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        (record, None)
    };

    if let (Some(path), Some(events)) = (&args.trace, &events) {
        let mut text = chrome_trace(events).to_string();
        text.push('\n');
        tenways::bench::write_text_atomic(path, &text).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        eprintln!("[trace] wrote {} ({} events)", path.display(), events.len());
    }

    if let Some(dest) = &args.json {
        let mut text = record.to_json().pretty();
        text.push('\n');
        if dest == "-" {
            std::io::stdout()
                .write_all(text.as_bytes())
                .expect("stdout");
        } else {
            tenways::bench::write_text_atomic(std::path::Path::new(dest), &text).unwrap_or_else(
                |e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                },
            );
            eprintln!("[json] wrote {dest}");
        }
    }

    let s = &record.summary;
    // With `--json -`, stdout is the machine channel: emit only the JSON
    // document so the output pipes straight into jq & co.
    if args.json.as_deref() == Some("-") {
        if !s.finished {
            std::process::exit(1);
        }
        return;
    }
    println!(
        "{} | {} | spec {:?}",
        record.label,
        record.model.label(),
        record.spec.mode
    );
    println!(
        "cycles {}  finished {}  retired {}  throughput {:.3} ops/cycle",
        s.cycles,
        s.finished,
        s.retired_ops,
        s.throughput()
    );
    println!(
        "useful {:.1}%  consistency-waste {} cy  rollbacks {}  ops/uJ {:.1}",
        100.0 * record.breakdown.useful_fraction(),
        record.breakdown.consistency_cycles(),
        record.stats.get("spec.rollbacks"),
        record.energy.ops_per_uj()
    );
    if args.breakdown {
        println!();
        print!("{}", report::breakdown_table(std::slice::from_ref(&record)));
    }
    if args.energy {
        println!();
        print!("{}", report::energy_table(std::slice::from_ref(&record)));
    }
    if args.stats {
        println!("\n{}", record.stats);
    }
    if !s.finished {
        std::process::exit(1);
    }
}
