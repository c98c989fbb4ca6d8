//! End-to-end protocol tests driven through the sandbox.

use tenways_coherence::{
    sandbox::ProtocolSandbox, AccessKind, FillClass, L1State, ProtocolConfig, SpecMark,
    ViolationCause,
};
use tenways_sim::{Addr, CoreId, MachineConfig};

fn machine(cores: usize) -> MachineConfig {
    MachineConfig::builder().cores(cores).build().unwrap()
}

fn msi_sandbox(cores: usize) -> ProtocolSandbox {
    ProtocolSandbox::with_protocol(
        &machine(cores),
        ProtocolConfig {
            grant_exclusive: false,
            ..ProtocolConfig::default()
        },
    )
}

fn mesi_sandbox(cores: usize) -> ProtocolSandbox {
    ProtocolSandbox::new(&machine(cores))
}

const A: Addr = Addr(0x1000);
const B: Addr = Addr(0x2000);

#[test]
fn cold_read_fills_shared_or_exclusive() {
    let mut sb = msi_sandbox(2);
    let c = sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    assert_eq!(c.class, FillClass::DramCold);
    assert_eq!(
        sb.l1(CoreId(0)).state_of(sb.block(A)),
        Some(L1State::Shared)
    );

    let mut sb = mesi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    assert_eq!(
        sb.l1(CoreId(0)).state_of(sb.block(A)),
        Some(L1State::Exclusive)
    );
}

#[test]
fn second_reader_joins_sharers() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    let c = sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    // Second read is a capacity-free L2 hit.
    assert_eq!(c.class, FillClass::L2Hit);
    sb.settle(1000);
    let sharers = sb.home_of(sb.block(A)).sharers_of(sb.block(A));
    assert_eq!(sharers.len(), 2);
    sb.assert_coherent(sb.block(A));
}

#[test]
fn mesi_second_reader_downgrades_exclusive_owner() {
    let mut sb = mesi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    assert_eq!(
        sb.l1(CoreId(0)).state_of(sb.block(A)),
        Some(L1State::Exclusive)
    );
    let c = sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    assert_eq!(c.class, FillClass::Coherence, "data pried from E owner");
    sb.settle(1000);
    assert_eq!(
        sb.l1(CoreId(0)).state_of(sb.block(A)),
        Some(L1State::Shared)
    );
    assert_eq!(
        sb.l1(CoreId(1)).state_of(sb.block(A)),
        Some(L1State::Shared)
    );
    sb.assert_coherent(sb.block(A));
}

#[test]
fn write_invalidates_sharers() {
    let mut sb = msi_sandbox(4);
    for c in 0..4u16 {
        sb.access_and_wait(CoreId(c), AccessKind::Read, A);
    }
    let c = sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert_eq!(c.class, FillClass::Coherence);
    sb.settle(1000);
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
    for c in 1..4u16 {
        assert!(
            !sb.l1(CoreId(c)).holds(sb.block(A)),
            "core{c} not invalidated"
        );
    }
    sb.assert_coherent(sb.block(A));
}

#[test]
fn sharers_past_one_word_and_256_cores_are_tracked_in_core_order() {
    let readers = [0u16, 63, 64, 255, 256, 299].map(CoreId);
    for mut sb in [msi_sandbox(300), mesi_sandbox(300)] {
        let block = sb.block(A);
        for &core in &readers {
            sb.access_and_wait(core, AccessKind::Read, A);
        }
        sb.settle(10_000);
        assert_eq!(sb.home_of(block).sharers_of(block), readers);
        sb.assert_coherent(block);

        let invs_before = sb.home_of(block).stats().get("dir.invs_sent");
        sb.access_and_wait(CoreId(5), AccessKind::Write, A);
        sb.settle(10_000);
        assert_eq!(
            sb.home_of(block).stats().get("dir.invs_sent") - invs_before,
            6
        );
        for &core in &readers {
            assert!(!sb.l1(core).holds(block), "{core} not invalidated");
        }
        assert!(sb.l1(CoreId(5)).holds_modified(block));
        assert_eq!(sb.home_of(block).sharers_of(block), [CoreId(5)]);
        sb.assert_coherent(block);
    }
}

#[test]
fn write_recalls_modified_owner() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
    let c = sb.access_and_wait(CoreId(1), AccessKind::Write, A);
    assert_eq!(c.class, FillClass::Coherence);
    sb.settle(1000);
    assert!(sb.l1(CoreId(1)).holds_modified(sb.block(A)));
    assert!(!sb.l1(CoreId(0)).holds(sb.block(A)));
    sb.assert_coherent(sb.block(A));
}

#[test]
fn read_downgrades_modified_owner_and_preserves_data_path() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    let c = sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    assert_eq!(c.class, FillClass::Coherence);
    sb.settle(1000);
    assert_eq!(
        sb.l1(CoreId(0)).state_of(sb.block(A)),
        Some(L1State::Shared)
    );
    assert_eq!(
        sb.l1(CoreId(1)).state_of(sb.block(A)),
        Some(L1State::Shared)
    );
    // Writeback must have landed at the directory.
    assert!(sb.home_of(sb.block(A)).stats().get("dir.writebacks") >= 1);
    sb.assert_coherent(sb.block(A));
}

#[test]
fn upgrade_from_shared_requires_no_data() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    let c = sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert_eq!(c.class, FillClass::Coherence, "had to invalidate core 1");
    sb.settle(1000);
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
    assert!(!sb.l1(CoreId(1)).holds(sb.block(A)));
    sb.assert_coherent(sb.block(A));
}

#[test]
fn sole_sharer_upgrade_is_local_to_directory() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    let c = sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    // No other sharer: no coherence traffic beyond the GetM round trip.
    assert_eq!(c.class, FillClass::L2Hit);
    sb.settle(1000);
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
}

#[test]
fn mesi_store_to_exclusive_is_silent() {
    let mut sb = mesi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    let before = sb.fabric().stats().get("noc.sent");
    let c = sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert_eq!(c.class, FillClass::L1Hit, "E→M upgrade is a hit");
    assert_eq!(
        sb.fabric().stats().get("noc.sent"),
        before,
        "no messages for E→M"
    );
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
}

#[test]
fn write_after_write_same_core_hits() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    let c = sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert_eq!(c.class, FillClass::L1Hit);
}

#[test]
fn capacity_eviction_writes_back_dirty_data() {
    // Tiny L1: 2 sets x 1 way. Blocks 0 and 2 (same set) conflict.
    let cfg = MachineConfig::builder().cores(1).l1(2, 1).build().unwrap();
    let mut sb = ProtocolSandbox::with_protocol(
        &cfg,
        ProtocolConfig {
            grant_exclusive: false,
            ..ProtocolConfig::default()
        },
    );
    let a = Addr(0); // block 0, set 0
    let b = Addr(128); // block 2, set 0
    sb.access_and_wait(CoreId(0), AccessKind::Write, a);
    sb.access_and_wait(CoreId(0), AccessKind::Read, b); // evicts dirty a
    sb.settle(2000);
    assert!(!sb.l1(CoreId(0)).holds(sb.block(a)));
    assert!(sb.l1(CoreId(0)).holds(sb.block(b)));
    assert!(sb.home_of(sb.block(a)).stats().get("dir.writebacks") >= 1);
    // Re-reading A comes back from L2, not DRAM (writeback landed there).
    let c = sb.access_and_wait(CoreId(0), AccessKind::Read, a);
    assert_eq!(c.class, FillClass::L2Hit);
}

#[test]
fn refetch_after_eviction_is_capacity_classified_when_l2_also_lost_it() {
    // Force an L2 conflict too? L2 is large; instead verify the cold/refill
    // distinction: first touch is cold, refetch is not cold.
    let cfg = MachineConfig::builder().cores(1).l1(2, 1).build().unwrap();
    let mut sb = ProtocolSandbox::new(&cfg);
    let a = Addr(0);
    let c1 = sb.access_and_wait(CoreId(0), AccessKind::Read, a);
    assert_eq!(c1.class, FillClass::DramCold);
    sb.access_and_wait(CoreId(0), AccessKind::Read, Addr(128));
    sb.settle(2000);
    let c2 = sb.access_and_wait(CoreId(0), AccessKind::Read, a);
    assert_ne!(c2.class, FillClass::DramCold, "second touch is never cold");
}

#[test]
fn distinct_blocks_are_independent() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    sb.access_and_wait(CoreId(1), AccessKind::Write, B);
    sb.settle(1000);
    assert!(sb.l1(CoreId(0)).holds_modified(sb.block(A)));
    assert!(sb.l1(CoreId(1)).holds_modified(sb.block(B)));
    sb.assert_coherent(sb.block(A));
    sb.assert_coherent(sb.block(B));
}

#[test]
fn concurrent_writers_serialize() {
    let mut sb = msi_sandbox(4);
    // All four cores write the same block "simultaneously".
    let reqs: Vec<_> = (0..4u16)
        .map(|c| sb.access(CoreId(c), AccessKind::Write, A))
        .collect();
    for r in reqs {
        sb.run_until_complete(r, 20_000);
    }
    sb.settle(2000);
    // Exactly one owner at the end.
    let owners: Vec<_> = (0..4u16)
        .filter(|&c| sb.l1(CoreId(c)).holds_modified(sb.block(A)))
        .collect();
    assert_eq!(owners.len(), 1, "owners: {owners:?}");
    sb.assert_coherent(sb.block(A));
}

#[test]
fn reader_writer_storm_stays_coherent() {
    let mut sb = mesi_sandbox(4);
    let mut reqs = Vec::new();
    for round in 0..6 {
        for c in 0..4u16 {
            let kind = if (round + c as usize).is_multiple_of(3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            reqs.push(sb.access(CoreId(c), kind, A));
        }
        for r in reqs.drain(..) {
            sb.run_until_complete(r, 30_000);
        }
    }
    sb.settle(3000);
    sb.assert_coherent(sb.block(A));
}

#[test]
fn false_sharing_same_block_conflicts() {
    let mut sb = msi_sandbox(2);
    // Two different byte addresses in the same 64B block.
    let a0 = Addr(0x3000);
    let a1 = Addr(0x3020);
    assert_eq!(sb.block(a0), sb.block(a1));
    sb.access_and_wait(CoreId(0), AccessKind::Write, a0);
    sb.access_and_wait(CoreId(1), AccessKind::Write, a1);
    sb.settle(1000);
    assert!(
        !sb.l1(CoreId(0)).holds(sb.block(a0)),
        "false sharing invalidated core 0"
    );
}

// ---------------- speculation hook tests ----------------

#[test]
fn spec_read_mark_violated_by_remote_write() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    assert!(sb.mark_spec(CoreId(0), SpecMark::Read, A));
    sb.access_and_wait(CoreId(1), AccessKind::Write, A);
    sb.settle(1000);
    let v = sb.take_violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].0, CoreId(0));
    assert_eq!(v[0].1.cause, ViolationCause::RemoteInvalidation);
}

#[test]
fn spec_read_mark_not_violated_by_remote_read() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    assert!(sb.mark_spec(CoreId(0), SpecMark::Read, A));
    sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    sb.settle(1000);
    assert!(sb.take_violations().is_empty(), "read-read never conflicts");
}

#[test]
fn spec_write_mark_violated_by_remote_read() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    assert!(sb.mark_spec(CoreId(0), SpecMark::Write, A));
    sb.access_and_wait(CoreId(1), AccessKind::Read, A);
    sb.settle(1000);
    let v = sb.take_violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].1.cause, ViolationCause::RemoteDowngrade);
}

#[test]
fn spec_write_on_dirty_line_flushes_clean_copy() {
    let mut sb = msi_sandbox(1);
    sb.access_and_wait(CoreId(0), AccessKind::Write, A); // dirty
    assert!(sb.mark_spec(CoreId(0), SpecMark::Write, A));
    sb.settle(1000);
    assert!(sb.home_of(sb.block(A)).stats().get("dir.clean_writebacks") >= 1);
}

#[test]
fn commit_clears_marks() {
    let mut sb = msi_sandbox(2);
    sb.access_and_wait(CoreId(0), AccessKind::Read, A);
    sb.mark_spec(CoreId(0), SpecMark::Read, A);
    assert!(sb.l1(CoreId(0)).is_spec_marked(sb.block(A)));
    sb.l1_mut(CoreId(0)).commit_spec();
    assert!(!sb.l1(CoreId(0)).is_spec_marked(sb.block(A)));
    // After commit, remote writes no longer violate.
    sb.access_and_wait(CoreId(1), AccessKind::Write, A);
    sb.settle(1000);
    assert!(sb.take_violations().is_empty());
}

#[test]
fn rollback_drops_spec_written_lines() {
    let cfg = machine(2);
    let mut sb = ProtocolSandbox::with_protocol(
        &cfg,
        ProtocolConfig {
            grant_exclusive: false,
            ..ProtocolConfig::default()
        },
    );
    sb.access_and_wait(CoreId(0), AccessKind::Write, A);
    sb.mark_spec(CoreId(0), SpecMark::Write, A);
    // Roll back: the line must be gone and ownership surrendered.
    {
        // Access to internals through the sandbox.
        let block = sb.block(A);
        let _ = block;
    }
    sb_rollback(&mut sb, CoreId(0));
    sb.settle(2000);
    assert!(!sb.l1(CoreId(0)).holds(sb.block(A)));
    assert!(sb.home_of(sb.block(A)).sharers_of(sb.block(A)).is_empty());
    // Another core can then take the block cleanly.
    sb.access_and_wait(CoreId(1), AccessKind::Write, A);
    sb.settle(2000);
    sb.assert_coherent(sb.block(A));
}

/// Helper: rollback through the public L1 API (the sandbox has no direct
/// rollback wrapper; exercise the controller like the spec engine would).
fn sb_rollback(sb: &mut ProtocolSandbox, core: CoreId) {
    // The controller needs the fabric; route through a tiny shim in the
    // sandbox: marking API exists, rollback goes through l1_mut + step.
    sb.rollback_spec(core);
}

#[test]
fn spec_eviction_raises_violation() {
    let cfg = MachineConfig::builder().cores(1).l1(2, 1).build().unwrap();
    let mut sb = ProtocolSandbox::new(&cfg);
    let a = Addr(0);
    let b = Addr(128); // same set
    sb.access_and_wait(CoreId(0), AccessKind::Read, a);
    sb.mark_spec(CoreId(0), SpecMark::Read, a);
    sb.access_and_wait(CoreId(0), AccessKind::Read, b); // evicts a
    sb.settle(2000);
    let v = sb.take_violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].1.cause, ViolationCause::Eviction);
}

#[test]
fn mark_spec_on_absent_block_fails() {
    let mut sb = msi_sandbox(1);
    assert!(!sb.mark_spec(CoreId(0), SpecMark::Read, A));
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut sb = mesi_sandbox(4);
        let mut log = Vec::new();
        for i in 0..8u64 {
            let core = CoreId((i % 4) as u16);
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let addr = Addr(0x1000 + (i % 3) * 64);
            let c = sb.access_and_wait(core, kind, addr);
            log.push((c.at.as_u64(), c.class));
        }
        sb.settle(2000);
        log
    };
    assert_eq!(run(), run());
}

#[test]
fn many_blocks_many_cores_fuzz_stays_coherent() {
    let mut sb = mesi_sandbox(4);
    // Deterministic pseudo-random access pattern.
    let mut x: u64 = 0x12345;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..200 {
        let r = step();
        let core = CoreId((r % 4) as u16);
        let addr = Addr(0x4000 + (r >> 3) % 16 * 64);
        let kind = if r & 4 == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let req = sb.access(core, kind, addr);
        sb.run_until_complete(req, 30_000);
    }
    sb.settle(5000);
    for blk in 0..16u64 {
        sb.assert_coherent(sb.block(Addr(0x4000 + blk * 64)));
    }
}

// ---------------- prefetcher tests ----------------

fn prefetch_sandbox(cores: usize) -> ProtocolSandbox {
    ProtocolSandbox::with_protocol(
        &machine(cores),
        ProtocolConfig {
            grant_exclusive: true,
            prefetch_next_line: true,
        },
    )
}

#[test]
fn next_line_prefetch_fills_the_neighbour() {
    let mut sb = prefetch_sandbox(1);
    let a = Addr(0x1000); // block X
    let next = Addr(0x1040); // block X+1
    sb.access_and_wait(CoreId(0), AccessKind::Read, a);
    sb.settle(5_000);
    assert!(
        sb.l1(CoreId(0)).holds(sb.block(next)),
        "next line must be prefetched"
    );
    // The prefetched line serves the demand as a hit.
    let c = sb.access_and_wait(CoreId(0), AccessKind::Read, next);
    assert_eq!(c.class, FillClass::L1Hit);
    assert!(sb.l1(CoreId(0)).stats().get("l1.prefetch_useful") >= 1);
}

#[test]
fn prefetch_disabled_does_not_fill_neighbours() {
    let cfg = machine(1);
    let mut sb = ProtocolSandbox::new(&cfg);
    sb.access_and_wait(CoreId(0), AccessKind::Read, Addr(0x1000));
    sb.settle(5_000);
    assert!(!sb.l1(CoreId(0)).holds(sb.block(Addr(0x1040))));
}

#[test]
fn prefetched_lines_stay_coherent() {
    let mut sb = prefetch_sandbox(2);
    let a = Addr(0x1000);
    let next = Addr(0x1040);
    sb.access_and_wait(CoreId(0), AccessKind::Read, a); // prefetches next
    sb.settle(5_000);
    // Core 1 writes the prefetched block: core 0's copy must be purged.
    sb.access_and_wait(CoreId(1), AccessKind::Write, next);
    sb.settle(5_000);
    assert!(!sb.l1(CoreId(0)).holds(sb.block(next)));
    sb.assert_coherent(sb.block(next));
    sb.assert_coherent(sb.block(a));
}

#[test]
fn prefetch_streams_ahead_on_sequential_scans() {
    let mut sb = prefetch_sandbox(1);
    let mut useful = 0;
    for i in 0..16u64 {
        let c = sb.access_and_wait(CoreId(0), AccessKind::Read, Addr(0x2000 + i * 64));
        if c.class == FillClass::L1Hit && i > 0 {
            useful += 1;
        }
        sb.settle(5_000);
    }
    assert!(
        useful >= 8,
        "sequential scan should mostly hit prefetched lines: {useful}"
    );
}
