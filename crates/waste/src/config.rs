//! One unified, serializable simulation configuration: [`SimConfig`].
//!
//! `SimConfig` gathers everything that defines a run — workload selection
//! and sizing, consistency model, speculation, machine description,
//! protocol options, energy constants, and the cycle limit — into a single
//! struct that can be:
//!
//! * defaulted ([`SimConfig::default`]),
//! * loaded from a TOML or JSON file ([`SimConfig::load`] /
//!   [`SimConfig::from_toml_str`] / [`SimConfig::from_json_str`]),
//! * overlaid field-by-field from a JSON tree ([`SimConfig::apply_json`] —
//!   partial documents are fine, absent keys keep their values),
//! * serialized back out ([`ToJson`]) for embedding in run records, and
//! * turned into a runnable [`Experiment`](crate::Experiment) via
//!   [`Experiment::from_config`](crate::Experiment::from_config).
//!
//! The CLI and the bench harness both build on this struct, so a config
//! file, a `TENWAYS_*` environment override, and a command-line flag all
//! funnel through the same decode path.
//!
//! ```rust
//! use tenways_waste::SimConfig;
//!
//! let cfg = SimConfig::from_toml_str(r#"
//! workload = "oltp"
//! threads = 4
//!
//! [spec]
//! mode = "on-demand"
//! "#).unwrap();
//! assert_eq!(cfg.threads, 4);
//! let exp = tenways_waste::Experiment::from_config(&cfg).unwrap();
//! let record = exp.run().unwrap();
//! assert_eq!(record.label, "oltp");
//! ```

use tenways_coherence::ProtocolConfig;
use tenways_core::SpecConfig;
use tenways_cpu::{ConsistencyModel, SchedMode};
use tenways_sim::json::{Json, JsonError, ToJson};
use tenways_sim::toml::parse_toml;
use tenways_sim::{AtomicsConfig, MachineConfig};
use tenways_workloads::WorkloadParams;

use crate::energy::EnergyModel;

/// Across-run parallelism times intra-run shard workers would pin more
/// threads than the host has (see [`check_host_budget`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oversubscribed {
    /// Total threads the combination would pin.
    pub requested: usize,
    /// Hardware threads actually available.
    pub available: usize,
}

impl std::fmt::Display for Oversubscribed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oversubscribed: --workers x --sched-workers pins {} threads \
             but the host has {}; lower one of them",
            self.requested, self.available
        )
    }
}

impl std::error::Error for Oversubscribed {}

/// Fallback intra-run worker count when `workers` is unset.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// Overlays a `[sched]` mode label and worker count onto `current`, the
/// scheduler configured so far; either may be absent. An absent label
/// keeps `current`'s mode. An absent count keeps `current`'s workers
/// when it already shards, and otherwise means the host's available
/// parallelism. The `--sched`/`--sched-workers` flags and the section's
/// keys all decode here, so their order never matters.
///
/// `workers` is the number of *intra-run* threads that shard one
/// `parallel-epoch` run. It is distinct from the sweep/litmus `--workers`
/// flag, which fans independent runs out *across* threads; see
/// [`check_host_budget`] for the combination rule.
///
/// # Errors
///
/// An unknown mode label, `workers = 0`, or `workers` with a sequential
/// mode.
pub fn overlay_sched(
    current: SchedMode,
    label: Option<&str>,
    workers: Option<usize>,
) -> Result<SchedMode, String> {
    if workers == Some(0) {
        return Err("sched.workers must be at least 1".to_string());
    }
    match (label.unwrap_or(current.label()), workers) {
        ("naive", None) => Ok(SchedMode::Naive),
        ("component-wake", None) => Ok(SchedMode::ComponentWake),
        ("parallel-epoch", Some(workers)) => Ok(SchedMode::ParallelEpoch { workers }),
        ("parallel-epoch", None) => Ok(SchedMode::ParallelEpoch {
            workers: match current {
                SchedMode::ParallelEpoch { workers } => workers,
                _ => host_parallelism(),
            },
        }),
        (mode @ ("naive" | "component-wake"), Some(_)) => Err(format!(
            "sched.workers only applies to mode `parallel-epoch` (mode is `{mode}`); \
             use the sweep-level --workers for across-run parallelism"
        )),
        (other, _) => Err(format!("unknown sched mode `{other}`")),
    }
}

/// Threads one run pins under `sched` (1 for sequential modes).
pub fn intra_workers(sched: SchedMode) -> usize {
    match sched {
        SchedMode::ParallelEpoch { workers } => workers.max(1),
        _ => 1,
    }
}

/// Rejects the combination of *across-run* parallelism (the sweep and
/// litmus `--workers` flag: how many independent runs execute
/// concurrently) with `sched`'s *intra-run* workers when it would pin
/// more threads than the host offers.
///
/// The check only binds when `sched` actually shards runs
/// (`intra_workers(sched) > 1`): plain across-run oversubscription of
/// sequential runs is long-supported (merely slow), but multiplying it by
/// intra-run shard teams is never what the user meant.
///
/// # Errors
///
/// [`Oversubscribed`] when `intra_workers(sched) > 1` and
/// `across * intra_workers(sched) > host`.
pub fn check_host_budget(
    sched: SchedMode,
    across: usize,
    host: usize,
) -> Result<(), Oversubscribed> {
    let intra = intra_workers(sched);
    let requested = across.saturating_mul(intra);
    if intra > 1 && requested > host {
        return Err(Oversubscribed {
            requested,
            available: host,
        });
    }
    Ok(())
}

/// Overlays a `sched` value onto `sched`: either the section object
/// (`{"mode": "...", "workers": N}`, absent keys keeping their values) or
/// the CLI shorthand string (`"parallel-epoch"` / `"parallel-epoch:4"`),
/// which replaces the whole section.
fn apply_sched_json(sched: &mut SchedMode, value: &Json) -> Result<(), String> {
    if let Some(text) = value.as_str() {
        let (label, workers) = match text.split_once(':') {
            Some((label, n)) => {
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("bad sched worker count `{n}`"))?;
                (label, Some(n))
            }
            None => (text, None),
        };
        *sched = overlay_sched(SchedMode::default(), Some(label), workers)?;
        return Ok(());
    }
    let pairs = value.as_object().ok_or_else(|| {
        format!(
            "sched must be an object or string, got {}",
            value.type_name()
        )
    })?;
    let (mut label, mut workers) = (None, None);
    for (key, value) in pairs {
        match key.as_str() {
            "mode" => label = Some(value.as_str().ok_or("sched.mode must be a string")?),
            "workers" => {
                workers = Some(value.as_u64().ok_or("sched.workers must be an integer")? as usize)
            }
            other => return Err(format!("unknown sched field `{other}`")),
        }
    }
    *sched = overlay_sched(*sched, label, workers)?;
    Ok(())
}

/// Complete, serializable description of one simulation run.
///
/// See the [module docs](self) for the loading pipeline. Field semantics
/// match the long-standing CLI flags: `workload` is a kernel name (or
/// `"contended"`), `threads` sets both the workload's thread count and the
/// machine's core count, and `conflict` only affects the contended
/// microbenchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Workload name: one of the suite kernels or `"contended"`.
    pub workload: String,
    /// Simulated cores (= workload threads).
    pub threads: usize,
    /// Per-thread work units.
    pub scale: u64,
    /// Run seed.
    pub seed: u64,
    /// Conflict probability for the contended microbenchmark.
    pub conflict: f64,
    /// Consistency model all cores enforce.
    pub model: ConsistencyModel,
    /// Fence-speculation configuration.
    pub spec: SpecConfig,
    /// Hardware description (its core count is overridden by `threads` at
    /// run time).
    pub machine: MachineConfig,
    /// Coherence protocol options.
    pub protocol: ProtocolConfig,
    /// Atomic RMW / fence cost model (all-zero by default, i.e. the
    /// legacy free-atomics behavior; `"schweizer"` selects the measured
    /// calibration).
    pub atomics: AtomicsConfig,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Run-loop scheduler (the `[sched]` section: `mode`, and `workers`
    /// for `parallel-epoch`). Cannot change results — every mode is
    /// byte-identical — only wall-clock speed.
    pub sched: SchedMode,
    /// Runs are cut off (not failed) at this many cycles.
    pub cycle_limit: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            workload: "oltp".to_string(),
            threads: 8,
            scale: 8,
            seed: 7,
            conflict: 0.05,
            model: ConsistencyModel::Tso,
            spec: SpecConfig::disabled(),
            machine: MachineConfig::default(),
            protocol: ProtocolConfig::default(),
            atomics: AtomicsConfig::default(),
            energy: EnergyModel::default(),
            sched: SchedMode::default(),
            cycle_limit: 50_000_000,
        }
    }
}

/// An error loading or decoding a [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigLoadError {
    /// The file could not be read.
    Io(String),
    /// The document did not parse as TOML or JSON.
    Parse(String),
    /// The document parsed but a field was unknown or mistyped.
    Invalid(String),
}

impl std::fmt::Display for ConfigLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigLoadError::Io(e) => write!(f, "cannot read config: {e}"),
            ConfigLoadError::Parse(e) => write!(f, "cannot parse config: {e}"),
            ConfigLoadError::Invalid(e) => write!(f, "invalid config: {e}"),
        }
    }
}

impl std::error::Error for ConfigLoadError {}

impl From<JsonError> for ConfigLoadError {
    fn from(e: JsonError) -> Self {
        ConfigLoadError::Parse(e.to_string())
    }
}

impl SimConfig {
    /// Decodes a full JSON document, overlaying it onto the defaults.
    pub fn from_json_str(text: &str) -> Result<SimConfig, ConfigLoadError> {
        let doc = Json::parse(text)?;
        let mut cfg = SimConfig::default();
        cfg.apply_json(&doc).map_err(ConfigLoadError::Invalid)?;
        Ok(cfg)
    }

    /// Decodes a TOML document, overlaying it onto the defaults.
    pub fn from_toml_str(text: &str) -> Result<SimConfig, ConfigLoadError> {
        let doc = parse_toml(text).map_err(|e| ConfigLoadError::Parse(e.to_string()))?;
        let mut cfg = SimConfig::default();
        cfg.apply_json(&doc).map_err(ConfigLoadError::Invalid)?;
        Ok(cfg)
    }

    /// Loads a config file, choosing the format by extension (`.json` is
    /// JSON, everything else is treated as TOML).
    pub fn load(path: &std::path::Path) -> Result<SimConfig, ConfigLoadError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigLoadError::Io(format!("{}: {e}", path.display())))?;
        if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            SimConfig::from_json_str(&text)
        } else {
            SimConfig::from_toml_str(&text)
        }
    }

    /// Overlays fields from a (possibly partial) JSON object onto `self`.
    /// Unknown keys and mistyped values are errors; absent keys keep their
    /// current value. Section values (`machine`, `spec`, `protocol`,
    /// `energy`, `sched`) are themselves overlaid field-by-field.
    pub fn apply_json(&mut self, doc: &Json) -> Result<(), String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| format!("config must be an object, got {}", doc.type_name()))?;
        for (key, value) in pairs {
            match key.as_str() {
                "workload" => {
                    self.workload = value
                        .as_str()
                        .ok_or("workload must be a string")?
                        .to_string()
                }
                "threads" => {
                    self.threads = value.as_u64().ok_or("threads must be an integer")? as usize
                }
                "scale" => self.scale = value.as_u64().ok_or("scale must be an integer")?,
                "seed" => self.seed = value.as_u64().ok_or("seed must be an integer")?,
                "conflict" => self.conflict = value.as_f64().ok_or("conflict must be a number")?,
                "model" => {
                    let label = value.as_str().ok_or("model must be a string")?;
                    self.model = ConsistencyModel::from_label(label)
                        .ok_or_else(|| format!("unknown model `{label}`"))?;
                }
                "spec" => self.spec.apply_json(value)?,
                "machine" => self.machine.apply_json(value)?,
                "protocol" => self.protocol.apply_json(value)?,
                "atomics" => {
                    self.atomics.apply_json(value)?;
                    self.atomics.validate().map_err(|e| e.to_string())?;
                }
                "energy" => self.energy.apply_json(value)?,
                "sched" => apply_sched_json(&mut self.sched, value)?,
                "cycle_limit" => {
                    self.cycle_limit = value.as_u64().ok_or("cycle_limit must be an integer")?
                }
                other => return Err(format!("unknown config field `{other}`")),
            }
        }
        Ok(())
    }

    /// The workload sizing parameters these settings imply.
    pub fn params(&self) -> WorkloadParams {
        WorkloadParams {
            threads: self.threads,
            scale: self.scale,
            seed: self.seed,
        }
    }

    /// The canonical JSON document of this configuration: the full
    /// serialization (every field explicit, so defaulted and
    /// explicitly-set-to-default fields render identically) with keys
    /// sorted recursively, minus the non-semantic `sched` section.
    ///
    /// Because loading normalizes every source — TOML vs JSON text, key
    /// order, CLI flag overlays, partial documents overlaid onto defaults
    /// — into this one struct, any two semantically equal configs produce
    /// a byte-identical canonical document. The scheduler is excluded for
    /// the same reason [`RunRecord::fingerprint`](crate::RunRecord::fingerprint)
    /// excludes it: every [`SchedMode`] produces byte-identical results,
    /// so a result computed under any scheduler answers all of them.
    pub fn canonical_json(&self) -> Json {
        let doc = self.to_json();
        let pairs = match doc {
            Json::Obj(pairs) => pairs.into_iter().filter(|(k, _)| k != "sched").collect(),
            other => return tenways_sim::hash::canonical(&other),
        };
        tenways_sim::hash::canonical(&Json::Obj(pairs))
    }

    /// The content-address of this configuration: the SHA-256 hex digest
    /// of [`canonical_json`](Self::canonical_json)'s compact rendering.
    /// This is the key of the `tenways serve` result cache — equal keys
    /// mean interchangeable (deterministic, byte-identical) results.
    pub fn cache_key(&self) -> String {
        tenways_sim::hash::sha256_hex(self.canonical_json().to_string().as_bytes())
    }
}

impl ToJson for SimConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.clone())),
            ("threads", Json::from(self.threads)),
            ("scale", Json::from(self.scale)),
            ("seed", Json::from(self.seed)),
            ("conflict", Json::from(self.conflict)),
            ("model", self.model.to_json()),
            ("spec", self.spec.to_json()),
            ("machine", self.machine.to_json()),
            ("protocol", self.protocol.to_json()),
            ("atomics", self.atomics.to_json()),
            ("energy", self.energy.to_json()),
            ("sched", self.sched.to_json()),
            ("cycle_limit", Json::from(self.cycle_limit)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tenways_core::SpecMode;

    #[test]
    fn default_round_trips_through_json() {
        let cfg = SimConfig::default();
        let text = cfg.to_json().to_string();
        let back = SimConfig::from_json_str(&text).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn non_default_round_trips_through_json() {
        let mut cfg = SimConfig {
            workload: "contended".to_string(),
            threads: 16,
            conflict: 0.25,
            model: ConsistencyModel::Sc,
            spec: SpecConfig::per_store(12),
            ..SimConfig::default()
        };
        cfg.machine.noc_mesh = true;
        cfg.machine.dram_latency = 200;
        cfg.protocol.grant_exclusive = false;
        cfg.energy.dram_access_nj = 25.5;
        cfg.cycle_limit = 1_000;
        let back = SimConfig::from_json_str(&cfg.to_json().to_string()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn partial_toml_overlays_defaults() {
        let cfg = SimConfig::from_toml_str(
            "workload = \"radix\"\nseed = 0x7ea5\n\n[spec]\nmode = \"continuous\"\n\n[machine]\ncores = 4\n",
        )
        .unwrap();
        assert_eq!(cfg.workload, "radix");
        assert_eq!(cfg.seed, 0x7ea5);
        assert_eq!(cfg.spec.mode, SpecMode::Continuous);
        assert_eq!(cfg.machine.cores, 4);
        // Untouched fields keep their defaults.
        assert_eq!(cfg.threads, SimConfig::default().threads);
        assert_eq!(
            cfg.machine.dram_latency,
            SimConfig::default().machine.dram_latency
        );
    }

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(matches!(
            SimConfig::from_json_str(r#"{"wrkload":"oltp"}"#),
            Err(ConfigLoadError::Invalid(_))
        ));
        assert!(matches!(
            SimConfig::from_json_str(r#"{"threads":"many"}"#),
            Err(ConfigLoadError::Invalid(_))
        ));
        assert!(matches!(
            SimConfig::from_json_str("not json"),
            Err(ConfigLoadError::Parse(_))
        ));
    }

    #[test]
    fn spec_accepts_cli_shorthand_string() {
        let cfg = SimConfig::from_json_str(r#"{"spec":"per-store:9"}"#).unwrap();
        assert_eq!(cfg.spec, SpecConfig::per_store(9));
    }

    #[test]
    fn sched_section_parses_from_toml_and_shorthand() {
        let cfg =
            SimConfig::from_toml_str("[sched]\nmode = \"parallel-epoch\"\nworkers = 4\n").unwrap();
        assert_eq!(cfg.sched, SchedMode::ParallelEpoch { workers: 4 });
        // Key order within the section does not matter.
        let cfg =
            SimConfig::from_json_str(r#"{"sched":{"workers":3,"mode":"parallel-epoch"}}"#).unwrap();
        assert_eq!(cfg.sched, SchedMode::ParallelEpoch { workers: 3 });

        let cfg = SimConfig::from_json_str(r#"{"sched":"naive"}"#).unwrap();
        assert_eq!(cfg.sched, SchedMode::Naive);
        let cfg = SimConfig::from_json_str(r#"{"sched":"parallel-epoch:2"}"#).unwrap();
        assert_eq!(cfg.sched, SchedMode::ParallelEpoch { workers: 2 });
        let back = SimConfig::from_json_str(&cfg.to_json().to_string()).unwrap();
        assert_eq!(back, cfg);
        // An absent worker count means the host's parallelism.
        let cfg = SimConfig::from_json_str(r#"{"sched":{"mode":"parallel-epoch"}}"#).unwrap();
        assert_eq!(
            cfg.sched,
            SchedMode::ParallelEpoch {
                workers: host_parallelism()
            }
        );
    }

    #[test]
    fn sched_overlay_keeps_what_it_is_not_given() {
        let sharded = SchedMode::ParallelEpoch { workers: 4 };
        assert_eq!(overlay_sched(sharded, None, None), Ok(sharded));
        assert_eq!(
            overlay_sched(sharded, Some("parallel-epoch"), None),
            Ok(sharded)
        );
        assert_eq!(
            overlay_sched(sharded, None, Some(2)),
            Ok(SchedMode::ParallelEpoch { workers: 2 })
        );
        assert_eq!(
            overlay_sched(sharded, Some("naive"), None),
            Ok(SchedMode::Naive)
        );
        assert_eq!(
            overlay_sched(SchedMode::Naive, Some("parallel-epoch"), Some(3)),
            Ok(SchedMode::ParallelEpoch { workers: 3 })
        );
    }

    #[test]
    fn sched_section_is_validated_at_decode() {
        for bad in [
            "[sched]\nmode = \"component-wake\"\nworkers = 4\n",
            "[sched]\nmode = \"parallel-epoch\"\nworkers = 0\n",
            "[sched]\nworkers = 2\n",
            "[sched]\nwrkers = 2\n",
        ] {
            let err = SimConfig::from_toml_str(bad).unwrap_err();
            assert!(matches!(err, ConfigLoadError::Invalid(_)), "{bad}: {err:?}");
        }
        let err = SimConfig::from_json_str(r#"{"sched":"warp-drive"}"#).unwrap_err();
        assert_eq!(
            err,
            ConfigLoadError::Invalid("unknown sched mode `warp-drive`".to_string())
        );
        assert!(SimConfig::from_json_str(r#"{"sched":"parallel-epoch:0"}"#).is_err());
    }

    #[test]
    fn atomics_section_parses_from_toml_and_shorthand() {
        let cfg = SimConfig::from_toml_str(
            "[atomics]\nrmw_l1 = 15\nrmw_same_socket = 40\nrmw_cross_socket = 90\nfence_full = 33\n",
        )
        .unwrap();
        assert_eq!(
            cfg.atomics,
            AtomicsConfig {
                fence_oneway: 0,
                ..AtomicsConfig::schweizer()
            }
        );

        let cfg = SimConfig::from_json_str(r#"{"atomics":"schweizer"}"#).unwrap();
        assert_eq!(cfg.atomics, AtomicsConfig::schweizer());
        assert!(!cfg.atomics.is_free());
        let back = SimConfig::from_json_str(&cfg.to_json().to_string()).unwrap();
        assert_eq!(back, cfg);

        let cfg = SimConfig::from_json_str(r#"{"atomics":"off"}"#).unwrap();
        assert!(cfg.atomics.is_free());
    }

    #[test]
    fn atomics_section_is_validated_at_decode() {
        // Non-monotonic: nearer tier dearer than the farther one.
        let err =
            SimConfig::from_toml_str("[atomics]\nrmw_l1 = 50\nrmw_same_socket = 40\n").unwrap_err();
        assert!(matches!(err, ConfigLoadError::Invalid(_)), "{err:?}");
        assert!(SimConfig::from_json_str(r#"{"atomics":"haswell"}"#).is_err());
        assert!(SimConfig::from_json_str(r#"{"atomics":{"rmw_l9":3}}"#).is_err());
    }

    #[test]
    fn host_budget_combines_across_and_intra_workers() {
        let sharded = SchedMode::ParallelEpoch { workers: 4 };
        assert_eq!(intra_workers(sharded), 4);
        assert_eq!(check_host_budget(sharded, 2, 8), Ok(()));
        assert_eq!(
            check_host_budget(sharded, 3, 8),
            Err(Oversubscribed {
                requested: 12,
                available: 8
            })
        );
        // Sequential modes never trip the budget: across-run
        // oversubscription alone is supported (merely slow).
        let seq = SchedMode::default();
        assert_eq!(intra_workers(seq), 1);
        assert_eq!(check_host_budget(seq, 8, 8), Ok(()));
        assert_eq!(check_host_budget(seq, 64, 1), Ok(()));
    }
}
