//! The experiment runner: [`Experiment`] configures one simulation and
//! [`RunRecord`] carries everything the report layer needs.

use tenways_coherence::ProtocolConfig;
use tenways_cpu::{ConsistencyModel, Machine, MachineSpec, RunSummary, SchedMode, SpecConfig};
use tenways_sim::config::ConfigError;
use tenways_sim::json::{Json, ToJson};
use tenways_sim::trace::{TraceEvent, Tracer};
use tenways_sim::{AtomicsConfig, AtomicsError, Histogram, MachineConfig, StatSet};
use tenways_workloads::{contended_programs, ContendedParams, WorkloadKind, WorkloadParams};

use crate::config::SimConfig;
use crate::energy::{EnergyModel, EnergyReport};
use crate::taxonomy::WasteBreakdown;

/// Version of the serialized [`RunRecord`] JSON layout; bumped on any
/// breaking change. Mirrored in `results/schema/run_record.v1.json`.
pub const RUN_RECORD_SCHEMA_VERSION: u64 = 1;

/// The largest `scale` [`Experiment::from_config`] accepts. The kernels
/// size their work by multiplying `scale` by small constants (`200` for
/// `contended`, `256` in `dss`) and by the thread count, which
/// [`MachineConfig::validate`] keeps under 2^16; under this bound every
/// such product fits in a `u64`.
pub const MAX_SCALE: u64 = 1 << 32;

/// Why an [`Experiment`] could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The configured workload name matches no kernel (and isn't
    /// `"contended"`).
    UnknownWorkload(String),
    /// The machine description is invalid (after the runner overrode its
    /// core count with the thread count).
    InvalidMachine(ConfigError),
    /// The atomics cost model is inconsistent (see [`AtomicsError`]).
    Atomics(AtomicsError),
    /// Any other configuration problem.
    Config(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            ExperimentError::InvalidMachine(e) => write!(f, "invalid machine: {e}"),
            ExperimentError::Atomics(e) => write!(f, "invalid atomics config: {e}"),
            ExperimentError::Config(e) => write!(f, "invalid experiment: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// What to simulate.
#[derive(Debug, Clone)]
enum Input {
    Kind(WorkloadKind),
    Contended(ContendedParams),
}

/// A configured experiment (builder).
#[derive(Debug, Clone)]
pub struct Experiment {
    input: Input,
    params: WorkloadParams,
    machine: MachineConfig,
    model: ConsistencyModel,
    spec: SpecConfig,
    protocol: ProtocolConfig,
    atomics: AtomicsConfig,
    energy: EnergyModel,
    cycle_limit: u64,
    sched: SchedMode,
}

impl Experiment {
    /// An experiment on one of the suite kernels with default settings
    /// (8 threads, TSO baseline, default machine).
    pub fn new(kind: WorkloadKind) -> Self {
        Experiment {
            input: Input::Kind(kind),
            params: WorkloadParams::default(),
            machine: MachineConfig::default(),
            model: ConsistencyModel::Tso,
            spec: SpecConfig::disabled(),
            protocol: ProtocolConfig::default(),
            atomics: AtomicsConfig::default(),
            energy: EnergyModel::default(),
            cycle_limit: 50_000_000,
            sched: SchedMode::default(),
        }
    }

    /// An experiment on the contended microbenchmark.
    pub fn contended(params: ContendedParams) -> Self {
        let threads = params.threads;
        let mut e = Experiment::new(WorkloadKind::BarnesLike);
        e.input = Input::Contended(params);
        e.params.threads = threads;
        e
    }

    /// Builds an experiment from a unified [`SimConfig`].
    ///
    /// The config's `workload` selects a suite kernel by name, or the
    /// contended microbenchmark when it is `"contended"` (sized
    /// `ops_per_thread = 200 * scale`, matching the CLI's long-standing
    /// mapping).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] naming `scale` if it is over
    /// [`MAX_SCALE`], [`ExperimentError::UnknownWorkload`] if the name
    /// matches nothing.
    pub fn from_config(cfg: &SimConfig) -> Result<Experiment, ExperimentError> {
        if cfg.scale > MAX_SCALE {
            return Err(ExperimentError::Config(format!(
                "scale {} exceeds {MAX_SCALE}",
                cfg.scale
            )));
        }
        let base = if cfg.workload == "contended" {
            Experiment::contended(ContendedParams {
                threads: cfg.threads,
                ops_per_thread: 200 * cfg.scale,
                conflict_p: cfg.conflict,
                hot_blocks: 4,
                fence_period: 8,
                seed: cfg.seed,
            })
        } else {
            let kind = WorkloadKind::all()
                .into_iter()
                .find(|k| k.name() == cfg.workload)
                .ok_or_else(|| ExperimentError::UnknownWorkload(cfg.workload.clone()))?;
            Experiment::new(kind).params(cfg.params())
        };
        Ok(base
            .machine(cfg.machine.clone())
            .model(cfg.model)
            .spec(cfg.spec)
            .protocol(cfg.protocol)
            .atomics(cfg.atomics)
            .energy(cfg.energy)
            .cycle_limit(cfg.cycle_limit))
    }

    /// Sets workload sizing (threads/scale/seed). Thread count must match
    /// the machine's core count at [`run`](Self::run) time; the runner
    /// resizes the machine automatically.
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the machine description (core count is overridden to match the
    /// workload's thread count).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Sets the consistency model.
    pub fn model(mut self, model: ConsistencyModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the speculation configuration.
    pub fn spec(mut self, spec: SpecConfig) -> Self {
        self.spec = spec;
        self
    }

    /// Sets coherence protocol options (MSI/MESI).
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the atomic RMW / fence cost model (validated at run time).
    pub fn atomics(mut self, atomics: AtomicsConfig) -> Self {
        self.atomics = atomics;
        self
    }

    /// Sets the energy constants.
    pub fn energy(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Sets the cycle limit (runs are cut off, not failed, at the limit).
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Selects the run-loop scheduling strategy (component-granular wake
    /// scheduling by default). Only code picks the loop: a [`SimConfig`]
    /// has no scheduler field, so [`from_config`](Self::from_config)
    /// leaves the default.
    /// Every [`SchedMode`] produces byte-identical results — including
    /// [`SchedMode::ParallelEpoch`] at any worker count — so it cannot
    /// change what a run measures, only how fast the host simulates it.
    /// The record's [`RunRecord::fingerprint`] strips the mode label for
    /// cross-scheduler equivalence checks.
    pub fn sched(mut self, sched: SchedMode) -> Self {
        self.sched = sched;
        self
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::InvalidMachine`] if the machine description is
    /// invalid once its core count is overridden by the thread count (e.g.
    /// zero threads), [`ExperimentError::Config`] for other bad sizings.
    pub fn run(&self) -> Result<RunRecord, ExperimentError> {
        self.run_with_tracer(Tracer::disabled())
    }

    /// Runs the experiment with event tracing enabled, returning the run
    /// record together with the recorded events (oldest first, bounded by
    /// `capacity` — the newest events win when the ring overflows).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::run`].
    pub fn run_traced(
        &self,
        capacity: usize,
    ) -> Result<(RunRecord, Vec<TraceEvent>), ExperimentError> {
        let tracer = Tracer::enabled(capacity);
        let record = self.run_with_tracer(tracer.clone())?;
        Ok((record, tracer.drain()))
    }

    fn run_with_tracer(&self, tracer: Tracer) -> Result<RunRecord, ExperimentError> {
        self.atomics.validate().map_err(ExperimentError::Atomics)?;
        let threads = match &self.input {
            Input::Kind(_) => self.params.threads,
            Input::Contended(p) => p.threads,
        };
        let mut machine_cfg = self.machine.clone();
        machine_cfg.cores = threads;
        machine_cfg
            .validate()
            .map_err(ExperimentError::InvalidMachine)?;
        let programs = match &self.input {
            Input::Kind(kind) => {
                let mut p = self.params;
                p.threads = threads;
                kind.build(&p)
            }
            Input::Contended(p) => contended_programs(p),
        };
        if programs.len() != threads {
            return Err(ExperimentError::Config(format!(
                "workload built {} programs for {} threads",
                programs.len(),
                threads
            )));
        }
        let ms = MachineSpec {
            machine: machine_cfg,
            model: self.model,
            spec: self.spec,
            protocol: self.protocol,
            atomics: self.atomics,
        };
        let mut machine = Machine::new(&ms, programs);
        machine.set_sched(self.sched);
        machine.set_tracer(tracer);
        let summary = machine.run(self.cycle_limit);
        let stats = machine.merged_stats();
        let breakdown = WasteBreakdown::from_stats(&stats);
        let energy = EnergyReport::from_stats(
            &self.energy,
            &stats,
            summary.cycles,
            threads,
            summary.retired_ops,
        );
        Ok(RunRecord {
            label: match &self.input {
                Input::Kind(k) => k.name().to_string(),
                Input::Contended(p) => format!("contended(p={})", p.conflict_p),
            },
            model: self.model,
            spec: self.spec,
            atomics: self.atomics,
            sched: self.sched.label(),
            summary,
            stats,
            breakdown,
            energy,
            sb_occupancy: machine.sb_occupancy(),
            spec_depth: machine.spec_depth(),
        })
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload label.
    pub label: String,
    /// Consistency model used.
    pub model: ConsistencyModel,
    /// Speculation configuration used.
    pub spec: SpecConfig,
    /// Atomics cost model used.
    pub atomics: AtomicsConfig,
    /// Run-loop scheduler label ([`SchedMode::label`]). Provenance only:
    /// excluded from [`fingerprint`](Self::fingerprint), because every
    /// scheduler produces identical results.
    pub sched: &'static str,
    /// Timing summary.
    pub summary: RunSummary,
    /// Merged raw statistics.
    pub stats: StatSet,
    /// The ten-ways cycle breakdown.
    pub breakdown: WasteBreakdown,
    /// The energy report.
    pub energy: EnergyReport,
    /// Store-buffer occupancy distribution.
    pub sb_occupancy: Histogram,
    /// Speculation epoch depth distribution.
    pub spec_depth: Histogram,
}

impl ToJson for RunRecord {
    /// The versioned results-schema layout (`schema_version` is
    /// [`RUN_RECORD_SCHEMA_VERSION`]).
    fn to_json(&self) -> Json {
        Json::obj(self.fields(true))
    }
}

impl RunRecord {
    fn fields(&self, with_sched: bool) -> Vec<(&'static str, Json)> {
        let mut pairs = vec![
            ("schema_version", Json::U64(RUN_RECORD_SCHEMA_VERSION)),
            ("label", Json::from(self.label.clone())),
            ("model", self.model.to_json()),
            ("spec", self.spec.to_json()),
            ("atomics", self.atomics.to_json()),
        ];
        if with_sched {
            pairs.push(("sched", Json::from(self.sched.to_string())));
        }
        pairs.extend([
            ("summary", self.summary.to_json()),
            ("breakdown", self.breakdown.to_json()),
            ("energy", self.energy.to_json()),
            ("sb_occupancy", self.sb_occupancy.to_json()),
            ("spec_depth", self.spec_depth.to_json()),
            ("stats", self.stats.to_json()),
        ]);
        pairs
    }

    /// The serialized record minus scheduler provenance: two runs of the
    /// same experiment must produce *equal fingerprints* under any
    /// [`SchedMode`] and worker count. The equivalence suite and the CI
    /// gate compare these, so a scheduler change that perturbs results
    /// (rather than just its own label) still fails byte comparison.
    pub fn fingerprint(&self) -> String {
        Json::obj(self.fields(false)).to_string()
    }

    /// Runtime normalized to `baseline` (1.0 = same speed; >1 = slower).
    pub fn runtime_vs(&self, baseline: &RunRecord) -> f64 {
        if baseline.summary.cycles == 0 {
            return 0.0;
        }
        self.summary.cycles as f64 / baseline.summary.cycles as f64
    }

    /// Speedup over `baseline` (>1 = faster).
    pub fn speedup_vs(&self, baseline: &RunRecord) -> f64 {
        if self.summary.cycles == 0 {
            return 0.0;
        }
        baseline.summary.cycles as f64 / self.summary.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_runs_and_reports() {
        let r = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 3,
            })
            .run()
            .unwrap();
        assert!(r.summary.finished);
        assert!(r.breakdown.total() > 0);
        assert!(r.energy.total_nj() > 0.0);
        assert_eq!(r.label, "lu");
    }

    #[test]
    fn contended_experiment_runs() {
        let r = Experiment::contended(ContendedParams {
            threads: 2,
            ops_per_thread: 100,
            ..ContendedParams::default()
        })
        .run()
        .unwrap();
        assert!(r.summary.finished);
        assert!(r.label.starts_with("contended"));
    }

    #[test]
    fn speedup_math() {
        let fast = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 3,
            })
            .model(ConsistencyModel::Rmo)
            .run()
            .unwrap();
        let slow = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 3,
            })
            .model(ConsistencyModel::Sc)
            .run()
            .unwrap();
        assert!(slow.runtime_vs(&fast) >= 1.0);
        assert!(fast.speedup_vs(&slow) >= 1.0);
    }

    #[test]
    fn machine_cores_follow_thread_count() {
        let r = Experiment::new(WorkloadKind::DssLike)
            .params(WorkloadParams {
                threads: 3,
                scale: 1,
                seed: 0,
            })
            .run()
            .unwrap();
        assert_eq!(r.summary.core_done_at.len(), 3);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let err = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 0,
                scale: 1,
                seed: 0,
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::InvalidMachine(_)), "{err:?}");
    }

    #[test]
    fn from_config_rejects_unknown_workload() {
        let cfg = SimConfig {
            workload: "quake".to_string(),
            ..SimConfig::default()
        };
        assert_eq!(
            Experiment::from_config(&cfg).unwrap_err(),
            ExperimentError::UnknownWorkload("quake".to_string())
        );
    }

    #[test]
    fn from_config_refuses_a_scale_over_the_bound_by_name() {
        let cfg = |scale| SimConfig {
            workload: "contended".to_string(),
            scale,
            ..SimConfig::default()
        };
        assert!(Experiment::from_config(&cfg(MAX_SCALE)).is_ok());
        for scale in [MAX_SCALE + 1, u64::MAX] {
            let err = Experiment::from_config(&cfg(scale)).unwrap_err();
            assert!(matches!(err, ExperimentError::Config(_)), "{err:?}");
            assert!(err.to_string().contains("scale"), "{err}");
        }
    }

    #[test]
    fn from_config_matches_builder_run() {
        let cfg = SimConfig {
            workload: "lu".to_string(),
            threads: 2,
            scale: 2,
            seed: 3,
            ..SimConfig::default()
        };
        let via_config = Experiment::from_config(&cfg).unwrap().run().unwrap();
        let via_builder = Experiment::new(WorkloadKind::LuLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 3,
            })
            .run()
            .unwrap();
        assert_eq!(via_config.summary, via_builder.summary);
        assert_eq!(
            via_config.to_json().to_string(),
            via_builder.to_json().to_string()
        );
    }

    #[test]
    fn atomics_cost_model_slows_sync_heavy_runs() {
        // CLH: a full publication fence plus a tail swap per acquire, so
        // both the fence and the RMW price must be visible.
        let base = Experiment::new(WorkloadKind::ClhLock).params(WorkloadParams {
            threads: 2,
            scale: 2,
            seed: 3,
        });
        let free = base.clone().run().unwrap();
        let priced = base
            .clone()
            .atomics(AtomicsConfig::schweizer())
            .run()
            .unwrap();
        assert!(free.summary.finished && priced.summary.finished);
        // Contended handoff order can shift either way, so the strict
        // slowdown claim is made uncontended, where every priced cycle
        // adds directly to the critical path.
        let solo = base.clone().params(WorkloadParams {
            threads: 1,
            scale: 2,
            seed: 3,
        });
        let solo_free = solo.clone().run().unwrap();
        let solo_priced = solo.atomics(AtomicsConfig::schweizer()).run().unwrap();
        assert!(
            solo_priced.summary.cycles > solo_free.summary.cycles,
            "charging atomics must lengthen an uncontended lock run ({} vs {})",
            solo_priced.summary.cycles,
            solo_free.summary.cycles
        );
        // The fence execution latency lands in the fence-stall category
        // (asserted uncontended: under contention the handoff reshuffle
        // can trade ordering-stall cycles against execution cycles).
        assert!(
            solo_priced
                .breakdown
                .get(crate::taxonomy::WasteCategory::FenceStall)
                > solo_free
                    .breakdown
                    .get(crate::taxonomy::WasteCategory::FenceStall),
            "priced fences must show up as fence waste"
        );
        for r in [&free, &solo_free] {
            assert_eq!(r.stats.get("cyc.stall.fence_exec"), 0);
        }
        for r in [&priced, &solo_priced] {
            assert!(r.stats.get("cyc.stall.fence_exec") > 0);
        }
        // Provenance: the record carries the cost model, and it changes
        // the fingerprint.
        assert_eq!(
            priced.to_json().get("atomics").and_then(|a| a
                .get("rmw_cross_socket")
                .and_then(tenways_sim::json::Json::as_u64)),
            Some(90)
        );
        assert_ne!(free.fingerprint(), priced.fingerprint());
    }

    #[test]
    fn invalid_atomics_is_a_typed_error() {
        let err = Experiment::new(WorkloadKind::OltpLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 1,
                seed: 0,
            })
            .atomics(AtomicsConfig {
                rmw_l1: 80,
                rmw_same_socket: 40,
                ..AtomicsConfig::off()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Atomics(_)), "{err:?}");
    }

    #[test]
    fn run_record_json_round_trips_and_is_versioned() {
        let r = Experiment::new(WorkloadKind::RadixLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 1,
            })
            .run()
            .unwrap();
        let doc = r.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(RUN_RECORD_SCHEMA_VERSION)
        );
        // Value-level round trip: parse(render(doc)) == doc. (RunRecord
        // holds `&'static str` stat keys, so the typed direction is not
        // reconstructible — the JSON tree is the canonical serialized form.)
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("cycles"))
                .and_then(Json::as_u64),
            Some(r.summary.cycles)
        );
    }

    #[test]
    fn identical_configs_produce_identical_json() {
        let cfg = SimConfig {
            workload: "ocean".to_string(),
            threads: 2,
            scale: 2,
            ..SimConfig::default()
        };
        let a = Experiment::from_config(&cfg).unwrap().run().unwrap();
        let b = Experiment::from_config(&cfg).unwrap().run().unwrap();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn traced_run_yields_events_and_same_record() {
        let exp = Experiment::new(WorkloadKind::OltpLike)
            .params(WorkloadParams {
                threads: 2,
                scale: 2,
                seed: 1,
            })
            .model(ConsistencyModel::Sc);
        let (traced, events) = exp.run_traced(1 << 16).unwrap();
        let untraced = exp.run().unwrap();
        assert_eq!(
            traced.summary, untraced.summary,
            "tracing must not perturb timing"
        );
        assert_eq!(
            traced.to_json().to_string(),
            untraced.to_json().to_string(),
            "tracing must not perturb the record"
        );
        assert!(
            !events.is_empty(),
            "an SC oltp run must produce stall events"
        );
        assert!(
            events
                .windows(2)
                .all(|w| w[0].cycle <= w[1].cycle + w[1].dur + 1_000_000),
            "events are roughly time-ordered"
        );
    }
}
