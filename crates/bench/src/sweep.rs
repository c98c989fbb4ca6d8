//! Fail-soft parallel sweep engine: [`SweepRunner`].
//!
//! The old `run_parallel` pulled jobs from a `Mutex<iterator>` and panicked
//! on the first failing experiment; the unwind inside `std::thread::scope`
//! poisoned the queue mutex, so every sibling worker then panicked on
//! `lock().unwrap()`, masking the root error and throwing away all finished
//! work. This module replaces that with a work queue dispatched off a
//! single atomic counter (no lock on the claim path) where every job
//! produces its own `Result`:
//!
//! * a job that returns `Err` or **panics** fails *only itself* — the
//!   panic is contained with [`std::panic::catch_unwind`] and surfaced as
//!   [`SweepError::Panicked`]; siblings keep running;
//! * every job runs **exactly once**. The jobs are deterministic
//!   simulations: a retry would re-run an identical failure, and a
//!   wall-clock budget would throw a correct result away. A run's bound
//!   is its config's `cycle_limit`, which ends it as `finished: false`;
//! * **cancellation** is cooperative: once a [`CancelToken`] fires (or
//!   [`SweepOptions::fail_fast`] trips it on the first failure), jobs that
//!   have not started yet complete immediately as
//!   [`SweepError::Cancelled`] and report as skipped.
//!
//! Results come back in input order as a [`SweepBatch`], which knows how to
//! render per-row status JSON (`ok` / `failed` / `skipped`) for the
//! results emitter.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tenways_sim::json::Json;
use tenways_waste::{Experiment, RunRecord};

/// Why one sweep job produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The job ran and returned an error.
    Failed(String),
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The batch was cancelled before this job started.
    Cancelled,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Failed(e) => write!(f, "failed: {e}"),
            SweepError::Panicked(e) => write!(f, "panicked: {e}"),
            SweepError::Cancelled => write!(f, "cancelled before start"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The per-row status the results schema reports for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job completed and its result is available.
    Ok,
    /// The job ran and produced no result.
    Failed,
    /// The job never started (cancellation or a `max_jobs` cutoff).
    Skipped,
}

impl JobStatus {
    /// The schema string for this status (`"ok"` / `"failed"` /
    /// `"skipped"`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Skipped => "skipped",
        }
    }
}

/// A cooperative cancellation flag shared between a sweep and its owner.
///
/// Cancelling never interrupts a job mid-run; jobs that have not started
/// yet finish immediately as [`SweepError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token: jobs not yet started will be skipped.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One unit of work: a label plus the closure that computes it.
///
/// The closure is `Fn` so a worker can call it through the shared job
/// list; the runner calls it exactly once.
pub struct SweepJob<T> {
    /// Display / results label for the job.
    pub label: String,
    run: Box<dyn Fn() -> Result<T, String> + Send + Sync>,
}

impl<T> SweepJob<T> {
    /// Wraps a closure as a job.
    pub fn new(
        label: impl Into<String>,
        run: impl Fn() -> Result<T, String> + Send + Sync + 'static,
    ) -> Self {
        SweepJob {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

impl SweepJob<RunRecord> {
    /// A job that runs one [`Experiment`].
    pub fn experiment(label: impl Into<String>, exp: Experiment) -> Self {
        SweepJob::new(label, move || exp.run().map_err(|e| e.to_string()))
    }
}

impl<T> std::fmt::Debug for SweepJob<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// Tuning knobs for a [`SweepRunner`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses `std::thread::available_parallelism`.
    pub workers: Option<usize>,
    /// Cancel the rest of the batch as soon as one job fails.
    pub fail_fast: bool,
    /// Start at most this many jobs; the rest report as skipped. Used for
    /// incremental sweeps and for exercising checkpoint/resume.
    pub max_jobs: Option<usize>,
}

/// What happened to one job, in input order inside a [`SweepBatch`].
#[derive(Debug)]
pub struct JobOutcome<T> {
    /// The job's label.
    pub label: String,
    /// The job's result, or why there is none.
    pub result: Result<T, SweepError>,
}

impl<T> JobOutcome<T> {
    /// The schema status for this outcome.
    pub fn status(&self) -> JobStatus {
        match &self.result {
            Ok(_) => JobStatus::Ok,
            Err(SweepError::Cancelled) => JobStatus::Skipped,
            Err(_) => JobStatus::Failed,
        }
    }
}

/// The fail-soft batch executor. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SweepRunner {
    options: SweepOptions,
    cancel: CancelToken,
}

impl SweepRunner {
    /// A runner with default options.
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// A runner with explicit options.
    pub fn with_options(options: SweepOptions) -> Self {
        SweepRunner {
            options,
            cancel: CancelToken::new(),
        }
    }

    /// The runner's cancellation token (clone it to cancel from outside).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs a batch, returning outcomes in input order.
    pub fn run<T: Send + Sync>(&self, jobs: Vec<SweepJob<T>>) -> SweepBatch<T> {
        self.run_observed(jobs, |_, _| {})
    }

    /// Runs a batch, invoking `observer` after each job completes (ok or
    /// not). Observer calls are serialized (never concurrent), which makes
    /// it a safe place to checkpoint completed rows; the job *dispatch*
    /// path stays lock-free.
    pub fn run_observed<T: Send + Sync>(
        &self,
        jobs: Vec<SweepJob<T>>,
        observer: impl Fn(usize, &JobOutcome<T>) + Sync,
    ) -> SweepBatch<T> {
        if jobs.is_empty() {
            return SweepBatch {
                outcomes: Vec::new(),
            };
        }
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let workers = self.options.workers.unwrap_or(parallelism).max(1);
        let workers = workers.min(jobs.len());

        // The whole dispatch path is this one counter: a worker claims the
        // next job with a single uncontended fetch_add — no shared lock to
        // poison, no cache line ping-pong beyond the counter itself.
        let next = AtomicUsize::new(0);
        let started = AtomicUsize::new(0);
        let slots: Vec<OnceLock<JobOutcome<T>>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let observe = Mutex::new(&observer);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let claimed = match self.options.max_jobs {
                        Some(max) => {
                            // Claim a start slot; over-budget claims are
                            // rolled back so a later resume sees an exact
                            // count.
                            let n = started.fetch_add(1, Ordering::Relaxed);
                            if n >= max {
                                started.fetch_sub(1, Ordering::Relaxed);
                                false
                            } else {
                                true
                            }
                        }
                        None => true,
                    };
                    let outcome = self.start(job, claimed);
                    if self.options.fail_fast && outcome.status() == JobStatus::Failed {
                        self.cancel.cancel();
                    }
                    {
                        let guard = observe.lock().unwrap_or_else(|e| e.into_inner());
                        guard(i, &outcome);
                    }
                    let _ = slots[i].set(outcome);
                });
            }
        });

        SweepBatch {
            outcomes: slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every claimed slot is filled"))
                .collect(),
        }
    }

    /// Runs one job on the calling thread with the fail-soft
    /// containment: `catch_unwind` panic capture and cancellation. This
    /// is what the `tenways serve` worker pool uses per cache miss: the
    /// pool owns the threads, the runner owns the containment policy.
    pub fn run_one<T>(&self, job: &SweepJob<T>) -> JobOutcome<T> {
        self.start(job, true)
    }

    /// Runs `job` once, or skips it as [`SweepError::Cancelled`] when it
    /// holds no start slot under `max_jobs` (`claimed` is false) or the
    /// batch was cancelled.
    fn start<T>(&self, job: &SweepJob<T>, claimed: bool) -> JobOutcome<T> {
        let result = if !claimed || self.cancel.is_cancelled() {
            Err(SweepError::Cancelled)
        } else {
            match catch_unwind(AssertUnwindSafe(|| (job.run)())) {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(e)) => Err(SweepError::Failed(e)),
                Err(payload) => Err(SweepError::Panicked(panic_message(payload.as_ref()))),
            }
        };
        JobOutcome {
            label: job.label.clone(),
            result,
        }
    }
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

/// The outcomes of one batch, in input order.
#[derive(Debug)]
pub struct SweepBatch<T = RunRecord> {
    /// Per-job outcomes, in the order jobs were submitted.
    pub outcomes: Vec<JobOutcome<T>>,
}

impl<T> SweepBatch<T> {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Whether every job completed successfully.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// `(ok, failed, skipped)` job counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o.status() {
                JobStatus::Ok => c.0 += 1,
                JobStatus::Failed => c.1 += 1,
                JobStatus::Skipped => c.2 += 1,
            }
        }
        c
    }

    /// Iterates `(label, error)` for every job that did not complete.
    pub fn failures(&self) -> impl Iterator<Item = (&str, &SweepError)> + '_ {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err().map(|e| (o.label.as_str(), e)))
    }

    /// Per-row status JSON: `row(label, value)` renders completed jobs
    /// (the `status` key is appended); failed and skipped jobs become
    /// `{label, status, error}` rows, so no completed sibling work is
    /// ever dropped from the results document.
    pub fn status_rows_with(&self, row: impl Fn(&str, &T) -> Json) -> Vec<Json> {
        self.outcomes
            .iter()
            .map(|o| {
                let mut pairs = match &o.result {
                    Ok(value) => match row(&o.label, value) {
                        Json::Obj(pairs) => pairs,
                        other => vec![
                            ("label".to_string(), Json::from(o.label.clone())),
                            ("value".to_string(), other),
                        ],
                    },
                    Err(_) => vec![("label".to_string(), Json::from(o.label.clone()))],
                };
                pairs.push((
                    "status".to_string(),
                    Json::from(o.status().as_str().to_string()),
                ));
                if let Err(e) = &o.result {
                    if !matches!(e, SweepError::Cancelled) {
                        pairs.push(("error".to_string(), Json::from(e.to_string())));
                    }
                }
                Json::Obj(pairs)
            })
            .collect()
    }

    /// Consumes the batch into `(label, value)` pairs, or `None` if any
    /// job did not complete.
    pub fn into_results(self) -> Option<Vec<(String, T)>> {
        if !self.all_ok() {
            return None;
        }
        Some(
            self.outcomes
                .into_iter()
                .map(|o| {
                    let value = o.result.unwrap_or_else(|_| unreachable!("checked all_ok"));
                    (o.label, value)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn ok_job(label: &str, v: u32) -> SweepJob<u32> {
        SweepJob::new(label, move || Ok(v))
    }

    /// `jobs` with every call of each closure counted in that job's own
    /// slot of the returned counters.
    fn counted(jobs: Vec<SweepJob<u32>>) -> (Vec<SweepJob<u32>>, Arc<Vec<AtomicU32>>) {
        let calls: Arc<Vec<AtomicU32>> = Arc::new(jobs.iter().map(|_| AtomicU32::new(0)).collect());
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let calls = Arc::clone(&calls);
                SweepJob::new(job.label, move || {
                    calls[i].fetch_add(1, Ordering::SeqCst);
                    (job.run)()
                })
            })
            .collect();
        (jobs, calls)
    }

    fn called_once_each(calls: &[AtomicU32]) -> bool {
        calls.iter().all(|c| c.load(Ordering::SeqCst) == 1)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let jobs = (0..32).map(|i| ok_job(&format!("j{i}"), i)).collect();
        let batch = SweepRunner::new().run(jobs);
        let values: Vec<u32> = batch
            .outcomes
            .iter()
            .map(|o| *o.result.as_ref().unwrap())
            .collect();
        assert_eq!(values, (0..32).collect::<Vec<_>>());
        assert!(batch.all_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = SweepRunner::new().run(Vec::<SweepJob<u32>>::new());
        assert!(batch.is_empty());
        assert!(batch.all_ok());
    }

    #[test]
    fn an_err_job_fails_alone_and_siblings_complete() {
        let (jobs, calls) = counted(vec![
            ok_job("a", 1),
            SweepJob::new("bad", || Err::<u32, _>("boom".to_string())),
            ok_job("c", 3),
        ]);
        let batch = SweepRunner::new().run(jobs);
        assert_eq!(batch.counts(), (2, 1, 0));
        assert_eq!(batch.outcomes[0].result, Ok(1));
        assert_eq!(
            batch.outcomes[1].result,
            Err(SweepError::Failed("boom".to_string()))
        );
        assert_eq!(batch.outcomes[2].result, Ok(3));
        assert!(called_once_each(&calls), "each job runs once: {calls:?}");
    }

    #[test]
    fn a_panicking_job_fails_alone_and_siblings_complete() {
        let (jobs, calls) = counted(vec![
            ok_job("a", 1),
            SweepJob::new("kaboom", || -> Result<u32, String> {
                panic!("workload exploded")
            }),
            ok_job("c", 3),
        ]);
        let batch = SweepRunner::new().run(jobs);
        assert_eq!(batch.counts(), (2, 1, 0));
        match &batch.outcomes[1].result {
            Err(SweepError::Panicked(msg)) => assert!(msg.contains("workload exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(batch.outcomes[2].result, Ok(3));
        assert!(called_once_each(&calls), "each job runs once: {calls:?}");
    }

    #[test]
    fn fail_fast_skips_the_rest_of_the_batch() {
        let jobs = vec![
            SweepJob::new("bad", || Err::<u32, _>("first".to_string())),
            ok_job("b", 2),
            ok_job("c", 3),
        ];
        let runner = SweepRunner::with_options(SweepOptions {
            workers: Some(1),
            fail_fast: true,
            ..SweepOptions::default()
        });
        let batch = runner.run(jobs);
        assert_eq!(batch.counts(), (0, 1, 2));
        assert_eq!(batch.outcomes[1].result, Err(SweepError::Cancelled));
        assert_eq!(batch.outcomes[1].status(), JobStatus::Skipped);
    }

    #[test]
    fn cancel_token_skips_unstarted_jobs() {
        let runner = SweepRunner::with_options(SweepOptions {
            workers: Some(1),
            ..SweepOptions::default()
        });
        let token = runner.cancel_token();
        let jobs = vec![
            SweepJob::new("first", move || {
                token.cancel();
                Ok(1u32)
            }),
            ok_job("second", 2),
        ];
        let batch = runner.run(jobs);
        assert_eq!(batch.outcomes[0].result, Ok(1));
        assert_eq!(batch.outcomes[1].result, Err(SweepError::Cancelled));
    }

    #[test]
    fn max_jobs_caps_fresh_starts() {
        let jobs = (0..6).map(|i| ok_job(&format!("j{i}"), i)).collect();
        let runner = SweepRunner::with_options(SweepOptions {
            workers: Some(1),
            max_jobs: Some(2),
            ..SweepOptions::default()
        });
        let batch = runner.run(jobs);
        assert_eq!(batch.counts(), (2, 0, 4));
    }

    #[test]
    fn observer_sees_every_outcome() {
        let seen = Mutex::new(Vec::new());
        let jobs = (0..8).map(|i| ok_job(&format!("j{i}"), i)).collect();
        SweepRunner::new().run_observed(jobs, |i, o: &JobOutcome<u32>| {
            seen.lock().unwrap().push((i, o.status()));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(i, _)| *i);
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().all(|(_, s)| *s == JobStatus::Ok));
    }

    #[test]
    fn status_rows_carry_status_and_error() {
        let jobs = vec![
            ok_job("good", 7),
            SweepJob::new("bad", || Err::<u32, _>("nope".to_string())),
        ];
        let batch = SweepRunner::new().run(jobs);
        let rows = batch.status_rows_with(|label, v| {
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
