//! Figure 12 (extension) — lock-algorithm ablation: TTAS vs ticket vs the
//! queue locks (MCS, CLH), under the Schweizer-calibrated atomics cost
//! model.
//!
//! Expected shape: the *unfair* TTAS lock wins raw throughput because a
//! releasing core can immediately re-acquire from its still-resident
//! M-state line (lock capture), while the ticket lock forces a FIFO
//! cross-core handoff — paying a coherence round trip per critical
//! section — in exchange for starvation freedom. The queue locks pay an
//! RMW on the tail per acquire but spin *locally* on a private node, so
//! their invalidation traffic stays flat as threads grow. The waste
//! columns split the price three ways: spin cycles burnt on lock words,
//! coherence cycles prying data lines loose, and fence cycles from the
//! priced full-fence drains.

use tenways_bench::{banner, write_results_json, SuiteConfig, SweepBatch};
use tenways_cpu::{ConsistencyModel, Machine, MachineSpec};
use tenways_sim::json::Json;
use tenways_sim::{AtomicsConfig, MachineConfig};
use tenways_waste::{WasteBreakdown, WasteCategory};
use tenways_workloads::{lock_bench_programs, LockBenchParams, LockKind};

/// The measurements one lock-bench run contributes to the figure.
struct LockRow {
    cycles: u64,
    finished: bool,
    retired_ops: u64,
    throughput: f64,
    invalidations: u64,
    fairness: f64,
    /// Fraction of cycles burnt on lock words (spins and their misses).
    spin_frac: f64,
    /// Fraction of cycles waiting on data coherence transfers.
    coherence_frac: f64,
    /// Fraction of cycles in fence stalls (ordering + priced execution).
    fence_frac: f64,
}

fn lock_row_json(label: &str, r: &LockRow) -> Json {
    Json::obj([
        ("label", Json::from(label)),
        ("cycles", Json::U64(r.cycles)),
        ("finished", Json::Bool(r.finished)),
        ("retired_ops", Json::U64(r.retired_ops)),
        ("throughput", Json::F64(r.throughput)),
        ("invalidations", Json::U64(r.invalidations)),
        ("fairness", Json::F64(r.fairness)),
        ("spin_frac", Json::F64(r.spin_frac)),
        ("coherence_frac", Json::F64(r.coherence_frac)),
        ("fence_frac", Json::F64(r.fence_frac)),
    ])
}

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// One lock-bench run: `threads` cores contending on a `kind` lock under
/// `model`, checked for mutual exclusion on the protected counter.
fn lock_run(
    model: ConsistencyModel,
    threads: usize,
    kind: LockKind,
    scale: u64,
) -> Result<LockRow, String> {
    let params = LockBenchParams {
        threads,
        rounds: 20 * scale,
        cs_compute: 8,
        think_compute: 4,
        kind,
    };
    let (programs, layout) = lock_bench_programs(&params);
    let machine_cfg = MachineConfig::builder()
        .cores(threads)
        .build()
        .map_err(|e| e.to_string())?;
    let spec = MachineSpec::baseline(model)
        .with_machine(machine_cfg)
        .with_atomics(AtomicsConfig::schweizer());
    let mut m = Machine::new(&spec, programs);
    let s = m.run(100_000_000);
    if !s.finished {
        return Err(format!("{kind:?} hung"));
    }
    let expect = threads as u64 * params.rounds;
    let got = m.mem().read(layout.counter);
    if got != expect {
        return Err(format!(
            "mutual exclusion broken: counter {got}, expected {expect}"
        ));
    }
    let stats = m.merged_stats();
    let breakdown = WasteBreakdown::from_stats(&stats);
    // Fairness: earliest finisher / latest finisher (1.0 = all cores
    // finish together; small = some core starved).
    let done: Vec<u64> = s.core_done_at.iter().map(|d| d.unwrap_or(0)).collect();
    let min = *done.iter().min().unwrap_or(&0) as f64;
    let max = *done.iter().max().unwrap_or(&1) as f64;
    Ok(LockRow {
        cycles: s.cycles,
        finished: s.finished,
        retired_ops: s.retired_ops,
        throughput: s.throughput(),
        invalidations: stats.get("l1.invalidations") + stats.get("l1.recalls"),
        fairness: if max == 0.0 { 1.0 } else { min / max },
        spin_frac: breakdown.fraction(WasteCategory::LockSpin),
        coherence_frac: breakdown.fraction(WasteCategory::CoherenceMiss),
        fence_frac: breakdown.fraction(WasteCategory::FenceStall),
    })
}

fn main() {
    let cfg = SuiteConfig::from_env();
    banner(
        "Figure 12",
        "lock ablation: TTAS vs ticket vs MCS vs CLH (priced atomics)",
        &cfg,
    );

    let scale = cfg.scale();
    let mut jobs = Vec::new();
    for model in ConsistencyModel::all() {
        for threads in THREAD_COUNTS {
            for kind in LockKind::all() {
                let label = format!("{}/{}t/{}", model.label(), threads, kind.name());
                jobs.push((label, (model, threads, kind)));
            }
        }
    }
    let batch = SweepBatch::map(jobs, |&(model, threads, kind)| {
        lock_run(model, threads, kind, scale)
    });
    let results = batch.require_all_with(
        "fig12_lock_ablation",
        "lock ablation: TTAS vs ticket vs MCS vs CLH (priced atomics)",
        &cfg,
        lock_row_json,
    );

    println!(
        "{:>8}{:>8}{:>8}{:>12}{:>10}{:>10}{:>8}{:>8}{:>8}",
        "model", "threads", "lock", "cycles", "invals", "fair", "spin%", "coh%", "fence%"
    );
    for (label, r) in &results {
        let mut parts = label.split('/');
        let (model, threads, kind) = (
            parts.next().unwrap_or("?"),
            parts.next().unwrap_or("?"),
            parts.next().unwrap_or("?"),
        );
        println!(
            "{:>8}{:>8}{:>8}{:>12}{:>10}{:>10.3}{:>8.1}{:>8.1}{:>8.1}",
            model,
            threads,
            kind,
            r.cycles,
            r.invalidations,
            r.fairness,
            100.0 * r.spin_frac,
            100.0 * r.coherence_frac,
            100.0 * r.fence_frac,
        );
    }

    let json_rows = results.iter().map(|(l, r)| lock_row_json(l, r)).collect();
    write_results_json(
        "fig12_lock_ablation",
        "lock ablation: TTAS vs ticket vs MCS vs CLH (priced atomics)",
        &cfg,
        json_rows,
    );
    println!(
        "\n(TTAS wins throughput via lock capture — the releaser re-acquires its \
              own M-state line; ticket pays a cross-core handoff per CS but keeps \
              every thread progressing; the queue locks trade a priced tail RMW \
              for local spinning — watch invalidations stay flat with threads)"
    );
}
