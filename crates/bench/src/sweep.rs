//! Fail-soft parallel map: [`parallel_map`], with the per-job
//! containment `contain` beside it.
//!
//! The old `run_parallel` pulled jobs from a `Mutex<iterator>` and panicked
//! on the first failing experiment; the unwind inside `std::thread::scope`
//! poisoned the queue mutex, so every sibling worker then panicked on
//! `lock().unwrap()`, masking the root error and throwing away all finished
//! work. The map instead claims jobs off a single atomic counter (no lock
//! on the claim path, perfbook's partitioned work queue), and every job
//! produces its own `Result`:
//!
//! * a job that returns `Err` or **panics** fails *only itself* — the
//!   panic is contained with [`std::panic::catch_unwind`] and becomes that
//!   job's `panicked: …` error; siblings keep running;
//! * every job runs **exactly once**. The jobs are deterministic
//!   simulations: a retry would re-run an identical failure, and a
//!   wall-clock budget would throw a correct result away. A run's bound
//!   is its config's `cycle_limit`, which ends it as `finished: false`.
//!
//! Results come back in input order; [`SweepBatch`](crate::SweepBatch)
//! pairs them with labels for the figure binaries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Runs `job` once on the calling thread, containing its failure: an
/// `Err(e)` becomes `failed: e` and a panic `panicked: <message>`. The
/// `tenways serve` worker pool runs each cache miss through this: the
/// pool owns the threads, this owns the containment policy.
pub(crate) fn contain<T>(job: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(format!("failed: {e}")),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// Runs `job` on every item exactly once, on up to `workers` scoped
/// threads (`None` is the host's parallelism; never more threads than
/// items), each `Err` or panic contained to its own result as
/// `failed: …` or `panicked: …`.
/// `on_result(i, result)` sees each result as it lands, one call at a
/// time, which makes it a safe place to store completed work; the
/// results come back in input order.
pub fn parallel_map<I: Sync, T: Send + Sync>(
    items: &[I],
    workers: Option<usize>,
    job: impl Fn(&I) -> Result<T, String> + Sync,
    on_result: impl FnMut(usize, &Result<T, String>) + Send,
) -> Vec<Result<T, String>> {
    let workers = workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, String>>> = items.iter().map(|_| OnceLock::new()).collect();
    let on_result = Mutex::new(on_result);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = contain(|| job(item));
                (on_result
                    .lock()
                    .expect("an earlier on_result call panicked"))(i, &result);
                let _ = slots[i].set(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepBatch;
    use std::sync::atomic::AtomicU32;
    use tenways_sim::json::Json;

    /// Maps `jobs` in parallel, counting every call of each job in that
    /// job's own slot of the returned counters.
    fn counted(jobs: &[fn() -> Result<u32, String>]) -> (Vec<Result<u32, String>>, Vec<AtomicU32>) {
        let calls: Vec<AtomicU32> = jobs.iter().map(|_| AtomicU32::new(0)).collect();
        let indexed: Vec<usize> = (0..jobs.len()).collect();
        let results = parallel_map(
            &indexed,
            None,
            |&i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                jobs[i]()
            },
            |_, _| {},
        );
        (results, calls)
    }

    fn called_once_each(calls: &[AtomicU32]) -> bool {
        calls.iter().all(|c| c.load(Ordering::SeqCst) == 1)
    }

    fn failed(results: &[Result<u32, String>]) -> usize {
        results.iter().filter(|r| r.is_err()).count()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u32> = (0..32).collect();
        let results = parallel_map(&items, None, |&v| Ok(v), |_, _| {});
        let values: Vec<u32> = results.iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(values, items);
        assert_eq!(failed(&results), 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let results = parallel_map(&[] as &[u32], None, |&v| Ok(v), |_, _| {});
        assert!(results.is_empty());
    }

    #[test]
    fn an_err_job_fails_alone_and_siblings_complete() {
        let (results, calls) = counted(&[|| Ok(1), || Err("boom".to_string()), || Ok(3)]);
        assert_eq!(failed(&results), 1);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("failed: boom".to_string()));
        assert_eq!(results[2], Ok(3));
        assert!(called_once_each(&calls), "each job runs once: {calls:?}");
    }

    #[test]
    fn a_panicking_job_fails_alone_and_siblings_complete() {
        let (results, calls) = counted(&[|| Ok(1), || panic!("workload exploded"), || Ok(3)]);
        assert_eq!(failed(&results), 1);
        match &results[1] {
            Err(msg) => assert!(msg.starts_with("panicked: ") && msg.contains("workload exploded")),
            other => panic!("expected a panic, got {other:?}"),
        }
        assert_eq!(results[2], Ok(3));
        assert!(called_once_each(&calls), "each job runs once: {calls:?}");
    }

    #[test]
    fn observer_sees_every_outcome() {
        let mut seen = Vec::new();
        let items: Vec<u32> = (0..8).collect();
        parallel_map(&items, None, |&v| Ok(v), |i, r| seen.push((i, r.is_ok())));
        seen.sort_unstable();
        assert_eq!(seen, (0..8).map(|i| (i, true)).collect::<Vec<_>>());
    }

    #[test]
    fn status_rows_carry_status_and_error() {
        let jobs = vec![
            ("good".to_string(), Ok(7)),
            ("bad".to_string(), Err("nope".to_string())),
        ];
        let batch = SweepBatch::map(jobs, Result::clone);
        let rows = batch.status_rows_with(|label, v: &u32| {
            Json::obj([
                ("label", Json::from(label)),
                ("value", Json::U64(*v as u64)),
            ])
        });
        assert_eq!(
            rows[0].get("status").and_then(Json::as_str),
            Some("ok"),
            "{rows:?}"
        );
        assert_eq!(rows[0].get("value").and_then(Json::as_u64), Some(7));
        assert_eq!(rows[1].get("status").and_then(Json::as_str), Some("failed"));
        assert!(rows[1]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("nope"));
    }
}
