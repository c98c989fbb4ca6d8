//! Interleaving exploration: runs one litmus test across a deterministic
//! grid of timing perturbations and collects the observed final states.
//!
//! A single run of a litmus test observes one interleaving; the
//! interesting outcomes (store-buffer reordering, stale forwarding) only
//! appear under particular relative timings. The grid perturbs everything
//! that changes relative timing without changing program semantics:
//! per-thread start skews, DRAM/NoC/directory latencies, store-buffer
//! capacity, fetch width and topology. All draws come from a [`DetRng`]
//! keyed by `(seed, test name, point index)`, so a grid point is
//! replayable from `{test, seed, index}` alone.
//!
//! Every `(model, speculation mode)` cell runs the *same* grid, which is
//! what makes the speculation-transparency comparison in
//! [`crate::verdict`] meaningful: any difference between the
//! speculation-on and speculation-off state sets is attributable to
//! speculation, not to sampling different timings.

use std::collections::BTreeMap;

use tenways_bench::parallel_map;
use tenways_core::{SpecConfig, SpecMode};
use tenways_cpu::{ConsistencyModel, Machine, MachineSpec, SchedMode};
use tenways_sim::json::{Json, ToJson};
use tenways_sim::{DetRng, MachineConfig};

use crate::compile::{compile, loc_addr};
use crate::parse::LitmusTest;

/// A final state: every register's value (in [`LitmusTest::registers`]
/// order) followed by every location's final memory value.
pub type FinalState = Vec<u64>;

/// One replayable point of the exploration grid.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Index of the point within the grid.
    pub index: usize,
    /// The base seed the grid was derived from.
    pub seed: u64,
    /// Per-thread start skews, in thread order.
    pub skews: Vec<u64>,
    /// The perturbed hardware description.
    pub machine: MachineConfig,
}

impl ToJson for GridPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::from(self.index)),
            ("seed", Json::from(self.seed)),
            (
                "skews",
                Json::arr(self.skews.iter().map(|&s| Json::from(s))),
            ),
            ("machine", self.machine.to_json()),
        ])
    }
}

/// Exploration tuning knobs.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Grid points per `(model, spec mode)` cell.
    pub points: usize,
    /// Base seed for the grid.
    pub seed: u64,
    /// *Across-run* worker threads for the sweep: how many grid points
    /// run concurrently (`None` = available parallelism). Distinct from
    /// `sched`, which may shard each individual run.
    pub workers: Option<usize>,
    /// Per-run cycle limit; a run that does not finish is a failure.
    pub cycle_limit: u64,
    /// Run-loop scheduler for each individual run. Litmus verdicts are
    /// scheduler-independent (every [`SchedMode`] is byte-identical);
    /// non-default modes exist for conformance gating of the schedulers
    /// themselves.
    pub sched: SchedMode,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            points: 32,
            seed: 7,
            workers: None,
            cycle_limit: 1_000_000,
            sched: SchedMode::default(),
        }
    }
}

/// The observations of one `(model, speculation mode)` cell.
#[derive(Debug)]
pub struct ExploreCell {
    /// The consistency model this cell ran under.
    pub model: ConsistencyModel,
    /// The speculation mode this cell ran under.
    pub spec: SpecMode,
    /// Every distinct observed final state, mapped to the first grid-point
    /// index that produced it (the repro handle).
    pub states: BTreeMap<FinalState, usize>,
    /// Failed runs as `(grid-point index, error)`.
    pub failures: Vec<(usize, String)>,
}

/// The full result of exploring one test.
#[derive(Debug)]
pub struct Exploration {
    /// The grid, shared by every cell.
    pub grid: Vec<GridPoint>,
    /// One cell per `(model, spec mode)`, models outer, spec modes inner
    /// in [`SPEC_MODES`] order.
    pub cells: Vec<ExploreCell>,
    /// Total simulator runs dispatched.
    pub runs: usize,
}

impl Exploration {
    /// The cell for `(model, spec)`, if that model was explored.
    pub fn cell(&self, model: ConsistencyModel, spec: SpecMode) -> Option<&ExploreCell> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.spec == spec)
    }
}

/// The speculation modes every test is explored under. `Disabled` is the
/// transparency reference; the other two must not change the observable
/// state set.
pub const SPEC_MODES: [SpecMode; 3] =
    [SpecMode::Disabled, SpecMode::OnDemand, SpecMode::Continuous];

/// Staggered-probe start delay: comfortably more than a store drain plus
/// a fenced load round trip at the default latencies (DRAM 120, NoC 6,
/// directory 12), so the undelayed threads finish before the delayed one
/// starts.
pub const PROBE_SKEW: u64 = 600;

fn spec_config(mode: SpecMode) -> SpecConfig {
    match mode {
        SpecMode::Disabled => SpecConfig::disabled(),
        SpecMode::OnDemand => SpecConfig::on_demand(),
        SpecMode::Continuous => SpecConfig::continuous(),
    }
}

/// Builds the deterministic grid for `test`.
///
/// Point 0 is the unperturbed default machine with zero skews. Points
/// `1..=threads` are *staggered-start probes*: thread `i-1` alone starts
/// [`PROBE_SKEW`] cycles late — long enough for the other threads to run
/// to completion first at default latencies — so every "thread `i` loses
/// the race" outcome is sampled deterministically. Without these, the
/// speculation-on and speculation-off sides (which run the same point at
/// different effective timings) can each sample a different subset of
/// the legal states and trip the transparency oracle spuriously.
/// Remaining points draw from `DetRng(seed → test name → index)`.
pub fn build_grid(test: &LitmusTest, seed: u64, points: usize) -> Vec<GridPoint> {
    let cores = test.threads.len();
    let root = DetRng::seed(seed).split(&test.name);
    (0..points.max(1))
        .map(|index| {
            let mut skews = vec![0u64; cores];
            let mut builder = MachineConfig::builder().cores(cores);
            if (1..=cores).contains(&index) {
                skews[index - 1] = PROBE_SKEW;
            } else if index > 0 {
                let mut rng = root.split_index(index as u64);
                for skew in skews.iter_mut() {
                    *skew = rng.below(161);
                }
                let dram_latency = *rng.choose(&[30u64, 120, 400]).unwrap();
                let noc_latency = *rng.choose(&[1u64, 6, 24]).unwrap();
                let dir_latency = *rng.choose(&[4u64, 12]).unwrap();
                let sb_entries = *rng.choose(&[1usize, 2, 4, 16]).unwrap();
                let width = *rng.choose(&[1usize, 2]).unwrap();
                builder = builder
                    .dram(4, dram_latency, 24)
                    .noc(noc_latency, 2, 2)
                    .directory(4, dir_latency)
                    .sb_entries(sb_entries)
                    .width(width)
                    .mesh(rng.chance(0.25));
            }
            GridPoint {
                index,
                seed,
                skews,
                machine: builder
                    .build()
                    .expect("grid draws stay within valid config space"),
            }
        })
        .collect()
}

/// Runs `test` once at `point` under `(model, spec)` and returns the
/// final state.
///
/// # Errors
///
/// Returns a message if the run hits the cycle limit without finishing.
pub fn run_point(
    test: &LitmusTest,
    point: &GridPoint,
    model: ConsistencyModel,
    spec: SpecMode,
    cycle_limit: u64,
    sched: SchedMode,
) -> Result<FinalState, String> {
    let compiled = compile(test, &point.skews);
    let ms = MachineSpec::baseline(model)
        .with_machine(point.machine.clone())
        .with_spec(spec_config(spec));
    let mut machine = Machine::new(&ms, compiled.programs);
    machine.set_sched(sched);
    for &(loc, value) in &test.init {
        machine.poke(loc_addr(loc), value);
    }
    let summary = machine.run(cycle_limit);
    if !summary.finished {
        return Err(format!(
            "hung: {} not finished after {} cycles (point {}, {model}, spec {})",
            test.name,
            summary.cycles,
            point.index,
            spec.label(),
        ));
    }
    let mut state: FinalState = compiled
        .registers
        .iter()
        .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    for loc in 0..test.locations.len() {
        state.push(machine.mem().read(loc_addr(loc)));
    }
    Ok(state)
}

/// Explores `test` across `models` × [`SPEC_MODES`] × the grid, fanning
/// runs out on the fail-soft [`parallel_map`] (a hung or panicked run is
/// recorded as that cell's failure, siblings keep going).
pub fn explore(
    test: &LitmusTest,
    models: &[ConsistencyModel],
    opts: &ExploreOptions,
) -> Exploration {
    let grid = build_grid(test, opts.seed, opts.points);
    let mut cells = Vec::new();
    for &model in models {
        for spec in SPEC_MODES {
            cells.push(ExploreCell {
                model,
                spec,
                states: BTreeMap::new(),
                failures: Vec::new(),
            });
        }
    }
    let jobs: Vec<(usize, &GridPoint)> = (0..cells.len())
        .flat_map(|cell| grid.iter().map(move |point| (cell, point)))
        .collect();
    let results = parallel_map(
        &jobs,
        opts.workers,
        |&(cell, point)| {
            let (model, spec) = (cells[cell].model, cells[cell].spec);
            run_point(test, point, model, spec, opts.cycle_limit, opts.sched)
        },
        |_, _| {},
    );
    let runs = jobs.len();
    for (&(cell, point), result) in jobs.iter().zip(results) {
        match result {
            Ok(state) => {
                cells[cell].states.entry(state).or_insert(point.index);
            }
            Err(err) => cells[cell].failures.push((point.index, err)),
        }
    }
    Exploration { grid, cells, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> LitmusTest {
        LitmusTest::parse(
            "test SB\nthread P0\nstore x 1\nr0 = load y\nthread P1\nstore y 1\nr1 = load x\nforbidden sc : r0=0 & r1=0\nallowed tso rmo : r0=0 & r1=0\n",
        )
        .unwrap()
    }

    #[test]
    fn grid_is_deterministic_and_point_zero_is_unperturbed() {
        let t = sb();
        let a = build_grid(&t, 7, 8);
        let b = build_grid(&t, 7, 8);
        assert_eq!(a.len(), 8);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.skews, pb.skews);
            assert_eq!(pa.machine, pb.machine);
        }
        assert_eq!(a[0].skews, vec![0, 0]);
        assert_eq!(
            a[0].machine,
            MachineConfig::builder().cores(2).build().unwrap()
        );
        // Points 1..=threads are the staggered-start probes.
        assert_eq!(a[1].skews, vec![PROBE_SKEW, 0]);
        assert_eq!(a[2].skews, vec![0, PROBE_SKEW]);
        assert_eq!(a[1].machine, a[0].machine);
        assert!(
            a.iter().skip(3).any(|p| p.skews.iter().any(|&s| s > 0)),
            "perturbed points should draw nonzero skews"
        );
    }

    #[test]
    fn different_seeds_draw_different_grids() {
        let t = sb();
        let a = build_grid(&t, 7, 8);
        let b = build_grid(&t, 8, 8);
        assert!(a
            .iter()
            .zip(&b)
            .skip(1)
            .any(|(pa, pb)| pa.skews != pb.skews || pa.machine != pb.machine),);
    }

    #[test]
    fn run_point_replays_to_the_same_state() {
        let t = sb();
        let grid = build_grid(&t, 7, 3);
        for point in &grid {
            let a = run_point(
                &t,
                point,
                ConsistencyModel::Sc,
                SpecMode::Disabled,
                1_000_000,
                SchedMode::default(),
            )
            .unwrap();
            let b = run_point(
                &t,
                point,
                ConsistencyModel::Sc,
                SpecMode::Disabled,
                1_000_000,
                SchedMode::ParallelEpoch { workers: 2 },
            )
            .unwrap();
            assert_eq!(a, b, "point {} must replay deterministically", point.index);
            // Layout: r0, r1, then final x, y — both stores always land.
            assert_eq!(a.len(), 4);
            assert_eq!(&a[2..], &[1, 1]);
        }
    }

    #[test]
    fn explore_covers_every_cell() {
        let t = sb();
        let opts = ExploreOptions {
            points: 4,
            ..ExploreOptions::default()
        };
        let ex = explore(&t, &ConsistencyModel::all(), &opts);
        assert_eq!(ex.cells.len(), 9);
        assert_eq!(ex.runs, 36);
        for cell in &ex.cells {
            assert!(cell.failures.is_empty(), "{:?}", cell.failures);
            assert!(!cell.states.is_empty());
        }
        assert!(ex.cell(ConsistencyModel::Sc, SpecMode::OnDemand).is_some());
    }
}
