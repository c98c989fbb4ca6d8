//! What the host did during a run, so that a slow host can be told
//! from slow code: CPU count, peak memory, stolen CPU time, process CPU
//! time, and a fixed canary computation timed before every pass or
//! slice, by which CPU times are scaled to a reference host.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::sync::OnceLock;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) in MiB, less the canary's table once it
/// is built.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let table_bytes = CANARY_TABLE
        .get()
        .map_or(0, |t| std::mem::size_of_val(t.as_slice()));
    Some((kib * 1024.0 - table_bytes as f64) / (1024.0 * 1024.0))
}

/// The all-CPU line of `/proc/stat`: stolen and total jiffies.
#[derive(Debug, Clone, Copy)]
pub struct CpuStat {
    steal: u64,
    total: u64,
}

pub fn cpu_stat() -> Option<CpuStat> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    Some(CpuStat {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    })
}

/// Share of all CPU time the hypervisor gave to someone else between two
/// snapshots.
pub fn steal_frac(a: Option<CpuStat>, b: Option<CpuStat>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if b.total > a.total => {
            b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links; no crate needed.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free pages back to the kernel. Memory freed by
/// the threads of a stopped serve cluster otherwise stays resident in
/// their arenas, and each set-up would add its leftovers to the next
/// one's peak.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and may be called from any
    // thread at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of this process, every thread (exited ones too), to the
/// nanosecond. Time the hypervisor steals is not in it.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Text records the canary formats, parses and indexes: allocation,
/// string and tree work like the serve path's JSON.
const CANARY_RECORDS: u64 = 20_000;
/// Slots of the table the canary chases through: 8 MiB of `u32`, four
/// times the 2 MiB L2 of the calibration host, so the chase waits on the
/// shared last-level cache like the 256-core mesh does.
const CANARY_SLOTS: usize = 1 << 21;
const CANARY_STEPS: usize = 200_000;

/// The canary's CPU time on the reference host: 40 ms, about what it
/// takes on the calibration host under its usual load.
const CANARY_REF_S: f64 = 0.040;

/// Runs the canary, a fixed piece of work defined here and no other
/// code of the repository, and returns the CPU seconds the calling
/// thread spent on it.
///
/// A shared host slows this process without stealing its time: for
/// minutes at a time the neighbours' load makes each instruction slower,
/// by up to 2x for the cache-hungry mesh. Run beside every pass or
/// slice, the canary measures that slowdown: a sort alone tracked the
/// simulator but not the serve path, and a small table not the mesh;
/// this mix of allocation, text and tree work with a pointer chase
/// through the last-level cache tracked the five workloads best, though
/// no fixed work slows exactly like each of them in every host state.
pub fn canary_s() -> f64 {
    let next = canary_table();
    let start = thread_cpu_s();
    let mut text = String::new();
    for i in 0..CANARY_RECORDS {
        let _ = write!(text, "{{\"k{}\":{}.{}}},", i * 7919 % 10007, i, i % 97);
    }
    let mut map = BTreeMap::new();
    for record in text.split(',') {
        if let Some((k, v)) = record.split_once(':') {
            let v: f64 = v.trim_end_matches('}').parse().unwrap_or(0.0);
            map.insert(k.to_string(), v);
        }
    }
    black_box(&map);
    let mut p = 0u32;
    for _ in 0..CANARY_STEPS {
        p = next[p as usize];
    }
    black_box(p);
    thread_cpu_s() - start
}

static CANARY_TABLE: OnceLock<Vec<u32>> = OnceLock::new();

/// The table the canary chases through: a full-period LCG over its
/// indices, so one cycle visits every slot in an order the prefetcher
/// cannot follow. Built on first use and kept, every page written: its
/// resident size is a constant, which [`peak_rss_mb`] takes out. Call it
/// before the workload allocates, so that holds for the whole run.
pub fn canary_table() -> &'static [u32] {
    CANARY_TABLE.get_or_init(|| {
        let mask = CANARY_SLOTS as u64 - 1;
        (0..CANARY_SLOTS as u64)
            .map(|i| {
                (i.wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(0x9e37_79b9)
                    & mask) as u32
            })
            .collect()
    })
}

/// `cpu_s` in reference CPU seconds: what it would have taken on the
/// reference host, given that the canary took `canary_s` beside it.
pub fn ref_cpu_s(cpu_s: f64, canary_s: f64) -> f64 {
    cpu_s * CANARY_REF_S / canary_s
}
