//! Table 1 — the simulated system configuration.

use tenways_bench::{write_results_json, SuiteConfig};
use tenways_sim::json::Json;
use tenways_sim::MachineConfig;

fn main() {
    let suite = SuiteConfig::from_env();
    let cfg = MachineConfig {
        cores: suite.threads(),
        ..MachineConfig::default()
    };
    let rows: Vec<(&str, String)> = vec![
        ("cores", cfg.cores.to_string()),
        ("fetch/retire width", format!("{} ops/cycle", cfg.width)),
        ("ROB", format!("{} entries", cfg.rob_entries)),
        ("store buffer", format!("{} entries", cfg.sb_entries)),
        ("MSHRs", format!("{} per core", cfg.mshrs)),
        ("block size", format!("{} B", cfg.block_bytes)),
        (
            "L1 (private)",
            format!(
                "{} KiB, {}-way, {}-cycle hit",
                cfg.l1_bytes() / 1024,
                cfg.l1_ways,
                cfg.l1_hit_latency
            ),
        ),
        (
            "directory / L2",
            format!(
                "{} banks, full-map, {}-cycle access, 2 MiB slice per bank",
                cfg.dir_banks, cfg.dir_latency
            ),
        ),
        (
            "DRAM",
            format!(
                "{} banks/channel, {}-cycle access, {}-cycle bank occupancy",
                cfg.dram_banks, cfg.dram_latency, cfg.dram_occupancy
            ),
        ),
        (
            "interconnect",
            format!(
                "crossbar, {}-cycle one-way, {}/{} inject/accept msgs per cycle",
                cfg.noc_latency, cfg.noc_inject_bw, cfg.noc_accept_bw
            ),
        ),
        (
            "coherence",
            "blocking full-map directory MESI (MSI mode available)".to_string(),
        ),
        (
            "speculation state",
            "2 bits/L1 line + 1 register checkpoint (~1 KB per core)".to_string(),
        ),
    ];
    println!("Table 1: simulated system configuration");
    println!("----------------------------------------");
    for (k, v) in &rows {
        println!("{k:<22} {v}");
    }
    let json_rows = rows
        .iter()
        .map(|(k, v)| Json::obj([("label", Json::from(*k)), ("value", Json::from(v.as_str()))]))
        .collect();
    write_results_json(
        "table1_config",
        "simulated system configuration",
        &suite,
        json_rows,
    );
}
