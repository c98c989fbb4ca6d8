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
//! The run loop is not a setting. Every [`SchedMode`](crate::SchedMode)
//! gives a byte-identical record, so a config holds only what a run
//! measures, and a `[sched]` section is refused like any other unknown
//! field. Library code picks a loop with
//! [`Experiment::sched`](crate::Experiment::sched).
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
use tenways_cpu::ConsistencyModel;
use tenways_sim::json::{write_escaped, write_f64, Json, JsonError, ToJson};
use tenways_sim::toml::parse_toml;
use tenways_sim::{AtomicsConfig, MachineConfig, Sha256};
use tenways_workloads::WorkloadParams;

use crate::energy::EnergyModel;

/// Complete, serializable description of one simulation run.
///
/// The loading pipeline is [`SimConfig::load`], [`SimConfig::from_toml_str`],
/// [`SimConfig::from_json_str`] and [`SimConfig::apply_json`]. Field semantics
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
    /// `atomics`, `energy`) are themselves overlaid field-by-field.
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

    /// The canonical text of this configuration: the compact JSON
    /// document of the full serialization (every field explicit, so
    /// defaulted and explicitly-set-to-default fields render identically)
    /// with keys sorted bytewise at every level, written straight from the
    /// struct into one `String`. It is byte for byte
    /// `tenways_sim::hash::canonical(&self.to_json()).to_string()`, the
    /// tree rendering that defines the form, without building either tree.
    ///
    /// Because loading normalizes every source — TOML vs JSON text, key
    /// order, CLI flag overlays, partial documents overlaid onto defaults
    /// — into this one struct, any two semantically equal configs produce
    /// byte-identical canonical text. It is also a complete JSON config:
    /// [`from_json_str`](Self::from_json_str) reads it back to `self`
    /// whenever every float is finite, so the router forwards it as the
    /// body a backend decodes.
    pub fn canonical_text(&self) -> String {
        let mut out = String::with_capacity(1024 + self.workload.len());
        let w = &mut out;
        // Every object's keys are listed in sorted order.
        w.push('{');
        let a = &self.atomics;
        open(w, "atomics");
        uint(w, "fence_full", a.fence_full);
        uint(w, "fence_oneway", a.fence_oneway);
        uint(w, "rmw_cross_socket", a.rmw_cross_socket);
        uint(w, "rmw_l1", a.rmw_l1);
        uint(w, "rmw_same_socket", a.rmw_same_socket);
        w.push('}');
        float(w, "conflict", self.conflict);
        uint(w, "cycle_limit", self.cycle_limit);
        let e = &self.energy;
        open(w, "energy");
        float(w, "core_busy_cycle_nj", e.core_busy_cycle_nj);
        float(w, "core_static_cycle_nj", e.core_static_cycle_nj);
        float(w, "dram_access_nj", e.dram_access_nj);
        float(w, "l1_access_nj", e.l1_access_nj);
        float(w, "l2_access_nj", e.l2_access_nj);
        float(w, "noc_msg_nj", e.noc_msg_nj);
        w.push('}');
        let m = &self.machine;
        open(w, "machine");
        uint(w, "block_bytes", m.block_bytes.into());
        uint(w, "cores", m.cores as u64);
        uint(w, "dir_banks", m.dir_banks as u64);
        uint(w, "dir_latency", m.dir_latency);
        uint(w, "dram_banks", m.dram_banks as u64);
        uint(w, "dram_latency", m.dram_latency);
        uint(w, "dram_occupancy", m.dram_occupancy);
        uint(w, "l1_hit_latency", m.l1_hit_latency);
        uint(w, "l1_sets", m.l1_sets as u64);
        uint(w, "l1_ways", m.l1_ways as u64);
        uint(w, "mshrs", m.mshrs as u64);
        uint(w, "noc_accept_bw", m.noc_accept_bw as u64);
        uint(w, "noc_inject_bw", m.noc_inject_bw as u64);
        uint(w, "noc_latency", m.noc_latency);
        boolean(w, "noc_mesh", m.noc_mesh);
        uint(w, "rob_entries", m.rob_entries as u64);
        uint(w, "sb_entries", m.sb_entries as u64);
        uint(w, "width", m.width as u64);
        w.push('}');
        // `to_json` lowercases the model's label.
        key(w, "model");
        w.push('"');
        w.extend(self.model.label().chars().map(|c| c.to_ascii_lowercase()));
        w.push('"');
        let p = &self.protocol;
        open(w, "protocol");
        boolean(w, "grant_exclusive", p.grant_exclusive);
        boolean(w, "prefetch_next_line", p.prefetch_next_line);
        w.push('}');
        uint(w, "scale", self.scale);
        uint(w, "seed", self.seed);
        let s = &self.spec;
        open(w, "spec");
        boolean(w, "adaptive_backoff", s.adaptive_backoff);
        uint(w, "commit_interval", s.commit_interval);
        uint(w, "max_epoch_ops", s.max_epoch_ops);
        match s.max_spec_stores {
            Some(n) => uint(w, "max_spec_stores", n),
            None => {
                key(w, "max_spec_stores");
                w.push_str("null");
            }
        }
        key(w, "mode");
        write_escaped(w, s.mode.label());
        w.push('}');
        uint(w, "threads", self.threads as u64);
        key(w, "workload");
        write_escaped(w, &self.workload);
        w.push('}');
        out
    }

    /// The content-address of this configuration:
    /// [`cache_key_of`] its [`canonical_text`](Self::canonical_text). This
    /// is the key of every result cache (`tenways serve`, `tenways sweep`)
    /// — equal keys mean interchangeable (deterministic, byte-identical)
    /// results.
    pub fn cache_key(&self) -> String {
        cache_key_of(&self.canonical_text())
    }
}

/// The version of the simulator's semantics: which record a
/// configuration produces. Every cache key hashes it, so a change that
/// alters any record bumps it, and caches filled before the change stop
/// answering. The golden table in `crates/waste/tests/cache_key.rs`
/// fails on such a change.
pub const SEMANTICS_VERSION: u64 = 1;

/// The cache key of a configuration's
/// [canonical text](SimConfig::canonical_text): the SHA-256 hex digest of
/// [`SEMANTICS_VERSION`] as 8 big-endian bytes followed by the text. The
/// one recipe for a key; the router keys the text it forwards with it.
pub fn cache_key_of(canonical_text: &str) -> String {
    let mut h = Sha256::new();
    h.update(&SEMANTICS_VERSION.to_be_bytes());
    h.update(canonical_text.as_bytes());
    h.finalize_hex()
}

/// Starts an object member of `out`: a comma unless it is the object's
/// first member, then the key.
fn key(out: &mut String, name: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_escaped(out, name);
    out.push(':');
}

/// A member whose value is an object, left open for its own members.
fn open(out: &mut String, name: &str) {
    key(out, name);
    out.push('{');
}

fn uint(out: &mut String, name: &str, v: u64) {
    use std::fmt::Write;
    key(out, name);
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{v}");
}

fn float(out: &mut String, name: &str, v: f64) {
    key(out, name);
    write_f64(out, v);
}

fn boolean(out: &mut String, name: &str, v: bool) {
    key(out, name);
    out.push_str(if v { "true" } else { "false" });
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
        // The run loop is chosen in code, not in a config.
        for sched in [
            SimConfig::from_toml_str("[sched]\nmode = \"parallel-epoch\"\nworkers = 4\n"),
            SimConfig::from_json_str(r#"{"sched":"naive"}"#),
        ] {
            assert_eq!(
                sched,
                Err(ConfigLoadError::Invalid(
                    "unknown config field `sched`".to_string()
                ))
            );
        }
    }

    #[test]
    fn spec_accepts_cli_shorthand_string() {
        let cfg = SimConfig::from_json_str(r#"{"spec":"per-store:9"}"#).unwrap();
        assert_eq!(cfg.spec, SpecConfig::per_store(9));
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
}
