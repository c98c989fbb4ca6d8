//! Whole-machine assembly: [`Machine`] wires cores, L1s, directory banks,
//! the fabric and the functional memory into one steppable simulator.

use tenways_coherence::{DirectoryBank, L1Controller, ProtocolConfig};
use tenways_core::SpecConfig;
use tenways_noc::Fabric;
use tenways_sim::trace::Tracer;
use tenways_sim::{AtomicsConfig, Clock, CoreId, Cycle, Histogram, MachineConfig, StatSet};

use crate::archmem::ArchMem;
use crate::consistency::ConsistencyModel;
use crate::core::Core;
use crate::op::ThreadProgram;
use crate::wake::{Units, WakeLoop};

type CoherenceMsg = tenways_coherence::Msg;

/// How [`Machine::run`] advances time. Every mode produces bit-for-bit
/// identical results; they differ only in host wall-clock cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Tick every component every cycle. The reference loop.
    Naive,
    /// Component-granular wake scheduling: each cycle, tick only the
    /// components whose wake time is due; idle components sleep and have
    /// their stat-only cycle effects replayed lazily on wake. The default.
    #[default]
    ComponentWake,
    /// Conservative epoch-parallel scheduling: the scheduling units
    /// (fabric, directory banks, fused core+L1 complexes) are sharded
    /// across `workers` threads; each shard runs the wake loop over its
    /// own components through windows of the minimum NoC latency and
    /// exchanges fabric messages only at window boundaries (see
    /// `crate::epoch`). Falls back to
    /// [`ComponentWake`](SchedMode::ComponentWake) when the machine is too
    /// small to shard, the minimum latency is zero, or a tracer is
    /// attached.
    ParallelEpoch {
        /// Worker threads to shard across (clamped to the core count;
        /// `0` behaves as `1`).
        workers: usize,
    },
}

impl SchedMode {
    /// Stable label for configs, CLI flags and run records.
    pub fn label(&self) -> &'static str {
        match self {
            SchedMode::Naive => "naive",
            SchedMode::ComponentWake => "component-wake",
            SchedMode::ParallelEpoch { .. } => "parallel-epoch",
        }
    }
}

impl tenways_sim::json::ToJson for SchedMode {
    /// The `[sched]` config section: `{"mode": label}`, plus `workers`
    /// for [`SchedMode::ParallelEpoch`].
    fn to_json(&self) -> tenways_sim::json::Json {
        use tenways_sim::json::Json;
        let mut pairs = vec![("mode", Json::from(self.label()))];
        if let SchedMode::ParallelEpoch { workers } = self {
            pairs.push(("workers", Json::from(*workers)));
        }
        Json::obj(pairs)
    }
}

/// Everything that defines a run besides the workload itself.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Hardware description.
    pub machine: MachineConfig,
    /// Consistency model all cores enforce.
    pub model: ConsistencyModel,
    /// Fence-speculation configuration.
    pub spec: SpecConfig,
    /// Coherence protocol options.
    pub protocol: ProtocolConfig,
    /// Atomic RMW / fence cost model (default: all-zero, i.e. off).
    pub atomics: AtomicsConfig,
}

impl MachineSpec {
    /// A spec with default hardware, the given model, and no speculation.
    pub fn baseline(model: ConsistencyModel) -> Self {
        MachineSpec {
            machine: MachineConfig::default(),
            model,
            spec: SpecConfig::disabled(),
            protocol: ProtocolConfig::default(),
            atomics: AtomicsConfig::default(),
        }
    }

    /// Replaces the hardware description.
    pub fn with_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Replaces the speculation configuration.
    pub fn with_spec(mut self, spec: SpecConfig) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the protocol options.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the atomics cost model.
    pub fn with_atomics(mut self, atomics: AtomicsConfig) -> Self {
        self.atomics = atomics;
        self
    }
}

/// Result of a [`Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether every thread finished before the limit.
    pub finished: bool,
    /// Per-core completion cycle (None if cut off).
    pub core_done_at: Vec<Option<u64>>,
    /// Total dynamic operations retired across cores.
    pub retired_ops: u64,
}

impl tenways_sim::json::ToJson for RunSummary {
    fn to_json(&self) -> tenways_sim::json::Json {
        use tenways_sim::json::Json;
        Json::obj([
            ("cycles", Json::U64(self.cycles)),
            ("finished", Json::Bool(self.finished)),
            (
                "core_done_at",
                Json::Arr(
                    self.core_done_at
                        .iter()
                        .map(|d| d.map_or(Json::Null, Json::U64))
                        .collect(),
                ),
            ),
            ("retired_ops", Json::U64(self.retired_ops)),
            ("throughput", Json::F64(self.throughput())),
        ])
    }
}

impl RunSummary {
    /// Retired operations per cycle across the whole machine.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_ops as f64 / self.cycles as f64
        }
    }
}

/// The assembled multicore simulator.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) clock: Clock,
    pub(crate) fabric: Fabric<CoherenceMsg>,
    pub(crate) dirs: Vec<DirectoryBank>,
    pub(crate) l1s: Vec<L1Controller>,
    pub(crate) cores: Vec<Core>,
    pub(crate) mem: ArchMem,
    /// Run-loop scheduling strategy (bit-for-bit identical results across
    /// all modes; non-default modes exist for regression comparison,
    /// benchmarking, and multi-worker wall-clock scaling).
    sched: SchedMode,
    /// Whether an enabled tracer is attached (see [`Machine::set_tracer`]).
    traced: bool,
}

impl Machine {
    /// Builds a machine running one program per core.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the configured core count.
    pub fn new(spec: &MachineSpec, programs: Vec<Box<dyn ThreadProgram>>) -> Self {
        assert_eq!(
            programs.len(),
            spec.machine.cores,
            "need exactly one program per core"
        );
        let cfg = spec.machine.clone();
        let l1s = cfg
            .core_ids()
            .map(|c| L1Controller::new(c, &cfg, spec.protocol))
            .collect();
        let dirs = (0..cfg.dir_banks)
            .map(|b| DirectoryBank::with_protocol(b, &cfg, spec.protocol))
            .collect();
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                Core::new(
                    CoreId(i as u16),
                    &cfg,
                    spec.model,
                    spec.spec,
                    spec.atomics,
                    p,
                )
            })
            .collect();
        Machine {
            fabric: Fabric::for_machine(&cfg),
            cfg,
            clock: Clock::new(),
            dirs,
            l1s,
            cores,
            mem: ArchMem::new(),
            sched: SchedMode::default(),
            traced: false,
        }
    }

    /// Selects the run-loop scheduling strategy (default:
    /// [`SchedMode::ComponentWake`]). All modes produce identical results.
    pub fn set_sched(&mut self, sched: SchedMode) {
        self.sched = sched;
    }

    /// The machine description.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Attaches an event tracer to every instrumented component (cores,
    /// directory banks, fabric). Clones of the handle share one buffer.
    /// Every scheduler records the same events in the same order, except
    /// that a traced [`SchedMode::ParallelEpoch`] run takes the sequential
    /// wake loop: shard threads would push into the one buffer in a
    /// nondeterministic order.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.traced = tracer.is_enabled();
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        for dir in &mut self.dirs {
            dir.set_tracer(tracer.clone());
        }
        self.fabric.set_tracer(tracer);
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// The functional memory (inspect end-of-run values).
    pub fn mem(&self) -> &ArchMem {
        &self.mem
    }

    /// Seeds a functional memory value before the run (workload init).
    pub fn poke(&mut self, addr: tenways_sim::Addr, value: u64) {
        self.mem.write(addr, value);
    }

    /// One core (stats access).
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// One L1 controller (stats access).
    pub fn l1(&self, id: CoreId) -> &L1Controller {
        &self.l1s[id.index()]
    }

    /// Whether every thread has finished and drained.
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(Core::is_done)
    }

    /// Runs until every thread finishes or `limit` cycles elapse, using
    /// the configured [`SchedMode`] (component-granular wake scheduling by
    /// default). Results are bit-for-bit identical to [`Machine::run_naive`].
    pub fn run(&mut self, limit: u64) -> RunSummary {
        match self.sched {
            SchedMode::Naive => self.run_naive(limit),
            SchedMode::ParallelEpoch { workers } if !self.traced => {
                crate::epoch::run(self, limit, workers)
            }
            SchedMode::ComponentWake | SchedMode::ParallelEpoch { .. } => self.run_wake(limit),
        }
    }

    /// The component-granular wake scheduler: the whole machine as one
    /// [`WakeLoop`], run to the cycle limit.
    pub(crate) fn run_wake(&mut self, limit: u64) -> RunSummary {
        let start = self.clock.now();
        let end = start.after(limit);
        let mut wake = WakeLoop::new(
            start,
            self.cores.len(),
            self.fabric.nodes(),
            0..self.dirs.len(),
            0..self.cores.len(),
        );
        let mut units = Units {
            fabric: &mut self.fabric,
            dirs: &mut self.dirs,
            l1s: &mut self.l1s,
            cores: &mut self.cores,
        };
        // The loop stops once every core is done, at the cycle the last
        // one finished; otherwise nothing was due before the limit
        // (deadlock, or events past the cut-off) and the run idles out.
        let fin = wake
            .run(&mut units, &mut self.mem, end.as_u64(), true)
            .unwrap_or(end);
        wake.replay_tail(&mut units, fin);
        self.clock.advance_by(fin - start);
        self.finish(start)
    }

    /// Runs with plain one-cycle-at-a-time stepping, ticking every
    /// component every cycle. Reference loop for regression tests and
    /// benchmark baselines.
    pub fn run_naive(&mut self, limit: u64) -> RunSummary {
        let start = self.clock.now();
        while !self.all_done() && self.clock.now() - start < limit {
            let now = self.clock.advance();
            self.fabric.tick(now);
            for dir in &mut self.dirs {
                dir.tick(now, &mut self.fabric);
            }
            for (l1, core) in self.l1s.iter_mut().zip(&mut self.cores) {
                l1.tick(now, &mut self.fabric);
                core.tick(now, l1, &mut self.fabric, &mut self.mem);
            }
        }
        self.finish(start)
    }

    pub(crate) fn finish(&mut self, start: Cycle) -> RunSummary {
        for c in &mut self.cores {
            c.flush_accounting();
        }
        RunSummary {
            cycles: self.clock.now() - start,
            finished: self.all_done(),
            core_done_at: self
                .cores
                .iter()
                .map(|c| c.done_at().map(Cycle::as_u64))
                .collect(),
            retired_ops: self.cores.iter().map(Core::retired_ops).sum(),
        }
    }

    /// Merges every component's statistics into one set. Prefixes keep the
    /// sources apart (`cyc.*` core accounting, `l1.*`, `dir.*`, `dram.*`,
    /// `noc.*`, `spec.*`).
    pub fn merged_stats(&self) -> StatSet {
        let mut out = StatSet::new();
        for c in &self.cores {
            out.merge(c.accounting());
            out.merge(c.engine().stats());
        }
        for l1 in &self.l1s {
            out.merge(l1.stats());
        }
        for d in &self.dirs {
            out.merge(d.stats());
            out.merge(d.dram_stats());
        }
        out.merge(self.fabric.stats());
        out
    }

    /// Merged store-buffer occupancy histogram across cores.
    pub fn sb_occupancy(&self) -> Histogram {
        let mut h = Histogram::new(65, 1);
        for c in &self.cores {
            h.merge(c.sb_occupancy());
        }
        h
    }

    /// Merged speculation-depth histogram across cores.
    pub fn spec_depth(&self) -> Histogram {
        let mut h = Histogram::new(256, 1);
        for c in &self.cores {
            h.merge(c.engine().depth_histogram());
        }
        h
    }
}
