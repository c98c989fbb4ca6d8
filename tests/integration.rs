//! Cross-crate integration tests driven through the `tenways` facade.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tenways::prelude::*;

fn small(threads: usize, scale: u64) -> WorkloadParams {
    WorkloadParams {
        threads,
        scale,
        seed: 13,
    }
}

#[test]
fn facade_reexports_compose() {
    // The prelude alone is enough to run an experiment end to end.
    let r = Experiment::new(WorkloadKind::RadixLike)
        .params(small(2, 2))
        .model(ConsistencyModel::Tso)
        .run()
        .unwrap();
    assert!(r.summary.finished);
    assert!(r.breakdown.total() > 0);
}

#[test]
fn headline_shape_sc_speculation_approaches_rmo() {
    // The reproduction's central claim, checked end to end on two kernels.
    for kind in [WorkloadKind::OltpLike, WorkloadKind::ApacheLike] {
        let sc = Experiment::new(kind)
            .params(small(4, 4))
            .model(ConsistencyModel::Sc)
            .run()
            .unwrap();
        let sc_if = Experiment::new(kind)
            .params(small(4, 4))
            .model(ConsistencyModel::Sc)
            .spec(SpecConfig::on_demand())
            .run()
            .unwrap();
        let rmo = Experiment::new(kind)
            .params(small(4, 4))
            .model(ConsistencyModel::Rmo)
            .run()
            .unwrap();
        assert!(
            sc_if.summary.cycles < sc.summary.cycles,
            "{}: speculation must beat the SC baseline ({} vs {})",
            kind.name(),
            sc_if.summary.cycles,
            sc.summary.cycles
        );
        let gap_closed = (sc.summary.cycles as f64 - sc_if.summary.cycles as f64)
            / (sc.summary.cycles as f64 - rmo.summary.cycles as f64).max(1.0);
        assert!(
            gap_closed > 0.4,
            "{}: speculation should close most of the SC-RMO gap, closed {:.0}%",
            kind.name(),
            100.0 * gap_closed
        );
    }
}

#[test]
fn speculation_reduces_consistency_waste_category() {
    let base = Experiment::new(WorkloadKind::OltpLike)
        .params(small(4, 4))
        .model(ConsistencyModel::Tso)
        .run()
        .unwrap();
    let spec = Experiment::new(WorkloadKind::OltpLike)
        .params(small(4, 4))
        .model(ConsistencyModel::Tso)
        .spec(SpecConfig::on_demand())
        .run()
        .unwrap();
    assert!(
        spec.breakdown.consistency_cycles() < base.breakdown.consistency_cycles(),
        "consistency waste must shrink: {} -> {}",
        base.breakdown.consistency_cycles(),
        spec.breakdown.consistency_cycles()
    );
}

#[test]
fn mesi_beats_msi_on_private_write_heavy_work() {
    // Barnes walks (loads) tree nodes and then updates them in place: with
    // E-grants the load-then-store pattern upgrades silently.
    let msi = Experiment::new(WorkloadKind::BarnesLike)
        .params(small(2, 3))
        .protocol(ProtocolConfig {
            grant_exclusive: false,
            ..ProtocolConfig::default()
        })
        .run()
        .unwrap();
    let mesi = Experiment::new(WorkloadKind::BarnesLike)
        .params(small(2, 3))
        .protocol(ProtocolConfig {
            grant_exclusive: true,
            ..ProtocolConfig::default()
        })
        .run()
        .unwrap();
    assert!(
        mesi.stats.get("l1.silent_e_to_m") > 0,
        "MESI must exercise silent E->M upgrades"
    );
    assert!(
        mesi.stats.get("l1.upgrades") <= msi.stats.get("l1.upgrades"),
        "MESI should not need more upgrade transactions than MSI"
    );
}

#[test]
fn waste_fractions_sum_to_one() {
    let r = Experiment::new(WorkloadKind::BarnesLike)
        .params(small(2, 2))
        .run()
        .unwrap();
    let sum: f64 = WasteCategory::all()
        .iter()
        .map(|&c| r.breakdown.fraction(c))
        .sum();
    assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
}

#[test]
fn energy_totals_are_consistent() {
    let r = Experiment::new(WorkloadKind::DssLike)
        .params(small(2, 3))
        .run()
        .unwrap();
    let e = &r.energy;
    let parts = e.l1_nj + e.l2_nj + e.dram_nj + e.noc_nj + e.core_dynamic_nj + e.static_nj;
    assert!((parts - e.total_nj()).abs() < 1e-6);
    assert!(e.dram_nj > 0.0, "dss must touch DRAM");
    assert!(e.ops_per_uj() > 0.0);
}

#[test]
fn experiments_are_deterministic_across_invocations() {
    let go = || {
        let r = Experiment::new(WorkloadKind::ApacheLike)
            .params(small(4, 3))
            .spec(SpecConfig::on_demand())
            .run()
            .unwrap();
        (
            r.summary.cycles,
            r.summary.retired_ops,
            r.stats.get("spec.rollbacks"),
        )
    };
    assert_eq!(go(), go());
}

#[test]
fn different_seeds_change_timing_but_not_correctness() {
    let cycles = |seed| {
        let r = Experiment::new(WorkloadKind::BarnesLike)
            .params(WorkloadParams {
                threads: 4,
                scale: 3,
                seed,
            })
            .run()
            .unwrap();
        assert!(r.summary.finished);
        r.summary.cycles
    };
    // Not all seeds need differ, but across several at least one must.
    let base = cycles(1);
    assert!(
        (2..6).any(|s| cycles(s) != base),
        "timing insensitive to seed"
    );
}

#[test]
fn storage_model_backs_the_one_kilobyte_claim() {
    use tenways::spec::storage;
    let cfg = MachineConfig::default();
    let blocks = (cfg.l1_bytes() / cfg.block_bytes as usize) as u64;
    let bits = storage::block_granularity(blocks);
    let bytes = bits.bytes_at_depth(u64::MAX >> 1);
    assert!(
        bytes <= 1024,
        "block-granularity state is {bytes} B (> 1 KiB)"
    );
}

#[test]
fn continuous_mode_commits_less_often_than_on_demand() {
    let run = |spec: SpecConfig| {
        Experiment::new(WorkloadKind::OceanLike)
            .params(small(4, 4))
            .model(ConsistencyModel::Sc)
            .spec(spec)
            .run()
            .unwrap()
    };
    let od = run(SpecConfig::on_demand());
    let ct = run(SpecConfig::continuous());
    assert!(od.summary.finished && ct.summary.finished);
    let od_rate = od.stats.get("spec.commits") as f64 / od.summary.cycles.max(1) as f64;
    let ct_rate = ct.stats.get("spec.commits") as f64 / ct.summary.cycles.max(1) as f64;
    assert!(
        ct_rate <= od_rate,
        "continuous must not commit more often per cycle: {ct_rate} vs {od_rate}"
    );
}

#[test]
fn cut_off_runs_report_unfinished_rather_than_lying() {
    let r = Experiment::new(WorkloadKind::DssLike)
        .params(small(2, 50))
        .cycle_limit(500)
        .run()
        .unwrap();
    assert!(!r.summary.finished);
    assert_eq!(r.summary.cycles, 500);
}

#[test]
fn raw_machine_api_exposes_memory_and_stats() {
    let cfg = MachineConfig::builder().cores(1).build().unwrap();
    let spec = MachineSpec::baseline(ConsistencyModel::Tso).with_machine(cfg);
    let programs: Vec<Box<dyn ThreadProgram>> = vec![Box::new(ScriptProgram::new(vec![
        Op::store(Addr(0x100), 5),
        Op::load(Addr(0x100)),
    ]))];
    let mut m = Machine::new(&spec, programs);
    m.poke(Addr(0x200), 99);
    let s = m.run(100_000);
    assert!(s.finished);
    assert_eq!(m.mem().read(Addr(0x100)), 5);
    assert_eq!(m.mem().read(Addr(0x200)), 99);
    assert!(m.merged_stats().get("cyc.busy") > 0);
}

#[test]
fn mesh_interconnect_runs_every_kernel() {
    let machine = MachineConfig::builder()
        .cores(4)
        .mesh(true)
        .build()
        .unwrap();
    for kind in [
        WorkloadKind::OceanLike,
        WorkloadKind::OltpLike,
        WorkloadKind::DssLike,
    ] {
        let r = Experiment::new(kind)
            .params(small(4, 2))
            .machine(machine.clone())
            .spec(SpecConfig::on_demand())
            .run()
            .unwrap();
        assert!(r.summary.finished, "{} hung on the mesh", kind.name());
    }
}

#[test]
fn mesh_is_slower_than_crossbar_on_coherence_heavy_work() {
    let xbar = Experiment::new(WorkloadKind::OltpLike)
        .params(small(8, 4))
        .run()
        .unwrap();
    let mesh = Experiment::new(WorkloadKind::OltpLike)
        .params(small(8, 4))
        .machine(MachineConfig::builder().mesh(true).build().unwrap())
        .run()
        .unwrap();
    assert!(
        mesh.summary.cycles >= xbar.summary.cycles,
        "mesh {} should not beat the crossbar {}",
        mesh.summary.cycles,
        xbar.summary.cycles
    );
}

#[test]
fn prefetcher_helps_scans_at_machine_level() {
    let pf = Experiment::new(WorkloadKind::DssLike)
        .params(small(2, 4))
        .protocol(ProtocolConfig {
            grant_exclusive: true,
            prefetch_next_line: true,
        })
        .run()
        .unwrap();
    assert!(pf.stats.get("l1.prefetches") > 0, "prefetcher never fired");
    // Next-line prefetch on a one-word-per-block scan is not guaranteed to
    // win cycles (timing races), but it must never break the run and must
    // land some useful prefetches.
    assert!(pf.summary.finished);
    assert!(pf.stats.get("l1.prefetch_useful") > 0);
}

#[test]
fn noc_queue_overlay_is_populated_under_load() {
    let r = Experiment::new(WorkloadKind::RadixLike)
        .params(small(8, 4))
        .run()
        .unwrap();
    // All-to-all scatter bursts should queue at endpoints at least sometimes.
    assert!(
        r.breakdown.noc_queue_overlay > 0,
        "radix's scatter phase should exhibit NoC queueing"
    );
}

#[test]
fn lockbench_layout_counter_is_protected() {
    use tenways::workloads::{lock_bench_programs, LockBenchParams, LockKind};
    for kind in [LockKind::Ttas, LockKind::Ticket] {
        let params = LockBenchParams {
            threads: 3,
            rounds: 15,
            kind,
            ..Default::default()
        };
        let (programs, layout) = lock_bench_programs(&params);
        let cfg = MachineConfig::builder().cores(3).build().unwrap();
        let ms = MachineSpec::baseline(ConsistencyModel::Rmo)
            .with_machine(cfg)
            .with_spec(SpecConfig::on_demand());
        let mut m = Machine::new(&ms, programs);
        let s = m.run(10_000_000);
        assert!(s.finished);
        assert_eq!(
            m.mem().read(layout.counter),
            45,
            "{kind:?} lost updates under speculation"
        );
    }
}

/// A fresh scratch directory for one CLI test.
fn cli_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tenways-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the `tenways` binary and returns its exit code and stderr. A
/// process still running after 60 s is killed and fails the test, so a
/// command that should refuse its arguments cannot hang the suite.
fn run_tenways(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tenways"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tenways");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll tenways").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("tenways {args:?} was still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("tenways stderr");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn oversized_numeric_flags_exit_2_before_binding() {
    let dir = cli_dir("numeric");
    let (port, cache) = (dir.join("port"), dir.join("cache"));
    // 2^44 MiB is 2^64 bytes: one past what the budget can hold.
    let args = [
        "serve",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--disk-budget-mb",
        "17592186044416",
        "--addr",
        "127.0.0.1:0",
        "--port-file",
        port.to_str().unwrap(),
    ];
    let (code, stderr) = run_tenways(&args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("--disk-budget-mb"), "{args:?}: {stderr}");
    assert!(!port.exists(), "{args:?} bound a listener before refusing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_route_refuse_removed_flags() {
    // A miss waits its turn: serve refuses no miss for load, and the
    // router relays a backend's answer instead of asking again. The
    // router learns liveness from its own requests, so it has no probe
    // interval to set. Each flag is refused before anything binds.
    let dir = cli_dir("removed-flags");
    let port = dir.join("port");
    for flag in [
        ["serve", "--queue-depth", "1"],
        ["route", "--retries", "1"],
        ["route", "--backoff-ms", "1"],
        ["route", "--health-interval-ms", "500"],
    ] {
        let args = [
            flag[0],
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port.to_str().unwrap(),
            flag[1],
            flag[2],
        ];
        let (code, stderr) = run_tenways(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let refusal = format!("unknown argument: {}", flag[1]);
        assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
        assert!(!port.exists(), "{args:?} bound a listener");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_has_no_async_job_flags() {
    // A request waits for its record, so there is no sync timeout to set
    // and no job handle to poll: both flags are refused before anything
    // binds or connects.
    let dir = cli_dir("jobs");
    let port = dir.join("port");
    for flag in [["--sync-timeout-ms", "5"], ["--job", "0123abcd"]] {
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port.to_str().unwrap(),
            flag[0],
            flag[1],
        ];
        let (code, stderr) = run_tenways(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let refusal = format!("unknown argument: {}", flag[0]);
        assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
        assert!(!port.exists(), "{args:?} bound a listener");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_has_no_fail_fast_or_job_cap_flags() {
    // Every point of a sweep runs once; a rerun into the same --out
    // resumes through the result cache. Both flags are refused before
    // anything runs or is written.
    let dir = cli_dir("sweep-flags");
    let grid = dir.join("grid.toml");
    std::fs::write(
        &grid,
        "workload = \"lu\"\nscale = 1\n[sweep]\nid = \"flags\"\n[grid]\nthreads = [2]\n",
    )
    .unwrap();
    let out = dir.join("out");
    for flag in [&["--fail-fast"][..], &["--max-jobs", "3"]] {
        let mut args = vec![
            "sweep",
            "--config",
            grid.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--quiet",
        ];
        args.extend(flag);
        let (code, stderr) = run_tenways(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let refusal = format!("unknown argument: {}", flag[0]);
        assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
        assert!(
            !out.join("flags.json").exists(),
            "{args:?} wrote a document"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn configs_that_would_overflow_or_panic_exit_2_naming_the_field() {
    let dir = cli_dir("refused");
    let cfg = dir.join("cfg.toml");
    std::fs::write(
        &cfg,
        "threads = 2\nscale = 1\n[machine]\ndram_occupancy = 0\n",
    )
    .unwrap();
    for (args, field) in [
        (
            vec!["--workload", "contended", "--scale", "18446744073709551615"],
            "scale",
        ),
        (vec!["--config", cfg.to_str().unwrap()], "dram_occupancy"),
    ] {
        let (code, stderr) = run_tenways(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(field), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_run_loop_is_not_a_cli_or_config_setting() {
    let dir = cli_dir("sched");
    let cfg = dir.join("cfg.toml");
    std::fs::write(&cfg, "workload = \"lu\"\n[sched]\nmode = \"naive\"\n").unwrap();
    let grid = dir.join("grid.toml");
    std::fs::write(
        &grid,
        "workload = \"lu\"\nscale = 1\n[sched]\nmode = \"naive\"\n[grid]\nthreads = [2]\n",
    )
    .unwrap();
    let (cfg, grid, out) = (
        cfg.to_str().unwrap(),
        grid.to_str().unwrap(),
        dir.to_str().unwrap(),
    );
    // `--list` exits 0 once the arguments before it are accepted.
    for (args, refusal) in [
        (
            vec!["--sched", "naive", "--list"],
            "unknown argument: --sched",
        ),
        (
            vec!["--sched-workers", "2", "--list"],
            "unknown argument: --sched-workers",
        ),
        (
            vec!["litmus", "--sched", "naive", "--list"],
            "unknown argument: --sched",
        ),
        (
            vec!["--config", cfg, "--list"],
            "unknown config field `sched`",
        ),
        (
            vec!["sweep", "--config", grid, "--out", out, "--quiet"],
            "unknown config field `sched`",
        ),
    ] {
        let (code, stderr) = run_tenways(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(refusal), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `tenways serve` or `tenways route` child on an ephemeral port,
/// killed when dropped.
#[cfg(target_os = "linux")]
struct Listening {
    child: std::process::Child,
    addr: String,
}

#[cfg(target_os = "linux")]
impl Listening {
    /// Runs `command` (its arguments end with `--port-file <port>`) and
    /// waits up to 30 s for the address it binds.
    fn start(mut command: Command, port: &std::path::Path) -> Listening {
        let child = command.stdin(Stdio::null()).spawn().expect("spawn tenways");
        let mut listening = Listening {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while listening.addr.is_empty() {
            assert!(Instant::now() < deadline, "no port file after 30 s");
            std::thread::sleep(Duration::from_millis(20));
            listening.addr = std::fs::read_to_string(port).unwrap_or_default();
        }
        listening.addr = listening.addr.trim().to_string();
        listening
    }

    /// One `GET /healthz` on a connection of its own, read to its close.
    fn health(&self) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    }

    /// How many memory mappings the child holds.
    fn mappings(&self) -> usize {
        let maps = std::fs::read_to_string(format!("/proc/{}/maps", self.child.id())).unwrap();
        maps.lines().count()
    }
}

#[cfg(target_os = "linux")]
impl Drop for Listening {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_connection_thread_is_freed_when_its_connection_ends() {
    // A thread kept joinable until the server stops holds its stack,
    // two mappings, for every connection ever accepted. The router
    // answers /healthz itself, so its backend is never contacted.
    let dir = cli_dir("connection-threads");
    let cache = dir.join("cache");
    for (front, args) in [
        (
            "serve",
            vec!["--workers", "0", "--cache-dir", cache.to_str().unwrap()],
        ),
        ("route", vec!["--backend", "127.0.0.1:1"]),
    ] {
        let port = dir.join(format!("{front}.port"));
        let mut command = Command::new(env!("CARGO_BIN_EXE_tenways"));
        command
            .arg(front)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port)
            .stderr(Stdio::null());
        let server = Listening::start(command, &port);
        let mut after_100 = 0;
        for n in 1..=1000 {
            let reply = server.health();
            assert!(reply.starts_with("HTTP/1.1 200"), "{front} #{n}: {reply}");
            if n == 100 {
                after_100 = server.mappings();
            }
        }
        let grown = server.mappings().saturating_sub(after_100);
        assert!(
            grown < 50,
            "{front}: {grown} more mappings after 900 more connections"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(target_os = "linux")]
#[test]
fn a_server_out_of_descriptors_backs_off_and_accepts_again() {
    // With 24 descriptors, 40 held connections leave accept failing on
    // every call. The server must wait between tries, log the run of
    // failures once, and accept again once the connections close.
    let dir = cli_dir("accept-backoff");
    let (port, cache, log) = (dir.join("port"), dir.join("cache"), dir.join("stderr"));
    let mut command = Command::new("sh");
    command
        .args(["-c", "ulimit -n 24; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_tenways"))
        .args(["serve", "--workers", "0", "--addr", "127.0.0.1:0"])
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--port-file")
        .arg(&port)
        .stderr(std::fs::File::create(&log).unwrap());
    let server = Listening::start(command, &port);
    let held: Vec<_> = (0..40)
        .map(|_| std::net::TcpStream::connect(&server.addr).unwrap())
        .collect();
    let lines = || std::fs::read_to_string(&log).unwrap().lines().count();
    std::thread::sleep(Duration::from_millis(300));
    let before = lines();
    std::thread::sleep(Duration::from_secs(1));
    let grown = lines() - before;
    assert!(
        grown < 10,
        "{grown} log lines in one second out of descriptors"
    );
    drop(held);
    let reply = server.health();
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
