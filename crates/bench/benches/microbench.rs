//! Microbenchmarks of the simulator substrate: cache array operations,
//! fabric throughput, DRAM scheduling, protocol transactions, and
//! whole-machine simulation rate.
//!
//! Self-contained timer harness (`cargo bench` — no external framework):
//! each benchmark is warmed up, then timed over enough iterations to
//! smooth scheduler noise, reporting mean wall time per iteration.

use std::hint::black_box;
use std::time::Instant;

use tenways_coherence::{sandbox::ProtocolSandbox, AccessKind};
use tenways_cpu::{ConsistencyModel, Machine, MachineSpec, SpecConfig};
use tenways_mem::{CacheArray, CacheParams, DramBanks, DramParams};
use tenways_noc::Fabric;
use tenways_sim::{Addr, BlockAddr, CoreId, Cycle, MachineConfig, NodeId};
use tenways_workloads::{WorkloadKind, WorkloadParams};

/// Times `f` over `iters` iterations after `warmup` untimed ones and
/// prints the mean per-iteration wall time.
fn bench(name: &str, warmup: u32, iters: u32, mut f: impl FnMut()) {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    println!("{name:<28} {per_iter:>12.2?}/iter   ({iters} iters, {total:.2?} total)");
}

fn bench_cache_array() {
    let params = CacheParams::new(128, 4).unwrap();
    bench("cache_array_insert_get", 3, 200, || {
        let mut cache = CacheArray::<u64>::new(params);
        for i in 0..1024u64 {
            cache.insert(BlockAddr(i * 7 % 640), i);
            black_box(cache.get(BlockAddr(i * 3 % 640)));
        }
        black_box(&cache);
    });
}

fn bench_fabric() {
    bench("fabric_throughput_1k_msgs", 3, 100, || {
        let mut fabric = Fabric::<u32>::new(12, 6, 2, 2);
        let mut cy = 0u64;
        for i in 0..1_000u32 {
            fabric.send(
                Cycle::new(cy),
                NodeId((i % 8) as u16),
                NodeId(8 + (i % 4) as u16),
                i,
            );
            cy += 1;
            fabric.tick(Cycle::new(cy));
            for n in 0..12u16 {
                while let Some(env) = fabric.pop_inbox(NodeId(n)) {
                    black_box(env);
                }
            }
        }
        black_box(&fabric);
    });
}

fn bench_dram() {
    bench("dram_schedule_10k", 3, 100, || {
        let mut dram = DramBanks::new(DramParams::new(4, 120, 24).unwrap());
        for i in 0..10_000u64 {
            black_box(dram.access(Cycle::new(i), BlockAddr(i % 64)));
        }
        black_box(&dram);
    });
}

fn bench_protocol() {
    let cfg = MachineConfig::builder().cores(2).build().unwrap();
    bench("protocol_ping_pong_64", 3, 200, || {
        let mut sb = ProtocolSandbox::new(&cfg);
        for i in 0..64 {
            let core = CoreId((i % 2) as u16);
            black_box(sb.access_and_wait(core, AccessKind::Write, Addr(0x1000)));
        }
        black_box(&sb);
    });
}

fn bench_full_machine() {
    bench("machine/ocean_2c_tso", 1, 10, || {
        let params = WorkloadParams {
            threads: 2,
            scale: 2,
            seed: 1,
        };
        let spec = MachineSpec::baseline(ConsistencyModel::Tso)
            .with_machine(MachineConfig::builder().cores(2).build().unwrap());
        let mut m = Machine::new(&spec, WorkloadKind::OceanLike.build(&params));
        black_box(m.run(5_000_000));
    });
    bench("machine/oltp_4c_sc_spec", 1, 10, || {
        let params = WorkloadParams {
            threads: 4,
            scale: 2,
            seed: 1,
        };
        let spec = MachineSpec::baseline(ConsistencyModel::Sc)
            .with_machine(MachineConfig::builder().cores(4).build().unwrap())
            .with_spec(SpecConfig::on_demand());
        let mut m = Machine::new(&spec, WorkloadKind::OltpLike.build(&params));
        black_box(m.run(5_000_000));
    });
}

fn main() {
    println!("tenways substrate microbenchmarks (mean wall time per iteration)");
    println!("----------------------------------------------------------------");
    bench_cache_array();
    bench_fabric();
    bench_dram();
    bench_protocol();
    bench_full_machine();
}
