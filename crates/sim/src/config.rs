//! The machine description shared by every subsystem: [`MachineConfig`].
//!
//! A `MachineConfig` is validated at construction (via [`MachineConfigBuilder`])
//! so downstream components can rely on its invariants — non-zero core counts,
//! power-of-two cache organizations, and a consistent interconnect topology.

use crate::ids::{BlockGeometry, CoreId, NodeId};
use crate::json::{Json, ToJson};

/// Errors produced when building an invalid [`MachineConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be non-zero was zero.
    Zero(&'static str),
    /// A field that must be a power of two was not.
    NotPowerOfTwo(&'static str),
    /// Core count exceeds what a `u16` node id can address.
    TooManyCores(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "{field} must be non-zero"),
            ConfigError::NotPowerOfTwo(field) => write!(f, "{field} must be a power of two"),
            ConfigError::TooManyCores(n) => write!(f, "core count {n} exceeds addressable limit"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete description of the simulated machine.
///
/// Construct via [`MachineConfig::builder`]; the defaults describe a
/// contemporary small CMP (8 cores, 32 KB 4-way L1s, 4 directory banks, 4
/// DRAM banks) and are the configuration printed as Table 1 of the
/// evaluation.
///
/// # Example
///
/// ```rust
/// use tenways_sim::MachineConfig;
///
/// let cfg = MachineConfig::builder()
///     .cores(4)
///     .l1_kib(16)
///     .build()?;
/// assert_eq!(cfg.l1_sets * cfg.l1_ways * cfg.block_geometry().block_bytes() as usize, 16 * 1024);
/// # Ok::<(), tenways_sim::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores (each with a private L1).
    pub cores: usize,
    /// Cache block size in bytes (power of two).
    pub block_bytes: u32,
    /// L1 sets (power of two).
    pub l1_sets: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Number of address-interleaved directory banks (power of two).
    pub dir_banks: usize,
    /// Directory/L2 tag access latency in cycles.
    pub dir_latency: u64,
    /// Number of DRAM banks behind each directory bank (power of two).
    pub dram_banks: usize,
    /// DRAM access latency in cycles (row activation + transfer, flattened).
    pub dram_latency: u64,
    /// DRAM bank busy time per access (limits bank throughput).
    pub dram_occupancy: u64,
    /// Interconnect one-way latency in cycles.
    pub noc_latency: u64,
    /// Messages one endpoint may inject per cycle.
    pub noc_inject_bw: usize,
    /// Messages one endpoint may accept per cycle.
    pub noc_accept_bw: usize,
    /// Use a 2-D mesh topology instead of the default crossbar.
    pub noc_mesh: bool,
    /// Reorder-buffer capacity per core.
    pub rob_entries: usize,
    /// Store-buffer capacity per core.
    pub sb_entries: usize,
    /// Instructions fetched / retired per cycle.
    pub width: usize,
    /// Maximum outstanding L1 misses per core (MSHRs).
    pub mshrs: usize,
}

impl MachineConfig {
    /// Starts a builder initialized with the default machine.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: MachineConfig::default(),
        }
    }

    /// The block geometry implied by [`Self::block_bytes`].
    pub fn block_geometry(&self) -> BlockGeometry {
        BlockGeometry::new(self.block_bytes).expect("validated at build time")
    }

    /// L1 capacity in bytes.
    pub fn l1_bytes(&self) -> usize {
        self.l1_sets * self.l1_ways * self.block_bytes as usize
    }

    /// The interconnect topology implied by this machine.
    pub fn node_ids(&self) -> NodeLayout {
        NodeLayout {
            cores: self.cores,
            dir_banks: self.dir_banks,
        }
    }

    /// Total interconnect endpoints (cores + directory banks).
    pub fn node_count(&self) -> usize {
        self.cores + self.dir_banks
    }

    /// Iterator over all core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.cores as u16).map(CoreId)
    }

    /// Checks the configuration invariants (also enforced by
    /// [`MachineConfigBuilder::build`]). Useful after mutating a validated
    /// config, e.g. when a runner overrides the core count.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field if any
    /// count is zero, any power-of-two field isn't, or the machine is too
    /// large to address.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = self;
        for (v, name) in [
            (c.cores, "cores"),
            (c.l1_sets, "l1_sets"),
            (c.l1_ways, "l1_ways"),
            (c.dir_banks, "dir_banks"),
            (c.dram_banks, "dram_banks"),
            (c.rob_entries, "rob_entries"),
            (c.sb_entries, "sb_entries"),
            (c.width, "width"),
            (c.mshrs, "mshrs"),
            (c.noc_inject_bw, "noc_inject_bw"),
            (c.noc_accept_bw, "noc_accept_bw"),
        ] {
            if v == 0 {
                return Err(ConfigError::Zero(name));
            }
        }
        if c.block_bytes == 0 || !c.block_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo("block_bytes"));
        }
        if !c.l1_sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo("l1_sets"));
        }
        if !c.dir_banks.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo("dir_banks"));
        }
        if !c.dram_banks.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo("dram_banks"));
        }
        if c.cores + c.dir_banks > u16::MAX as usize {
            return Err(ConfigError::TooManyCores(c.cores));
        }
        Ok(())
    }
}

impl ToJson for MachineConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::from(self.cores)),
            ("block_bytes", Json::from(self.block_bytes)),
            ("l1_sets", Json::from(self.l1_sets)),
            ("l1_ways", Json::from(self.l1_ways)),
            ("l1_hit_latency", Json::from(self.l1_hit_latency)),
            ("dir_banks", Json::from(self.dir_banks)),
            ("dir_latency", Json::from(self.dir_latency)),
            ("dram_banks", Json::from(self.dram_banks)),
            ("dram_latency", Json::from(self.dram_latency)),
            ("dram_occupancy", Json::from(self.dram_occupancy)),
            ("noc_latency", Json::from(self.noc_latency)),
            ("noc_inject_bw", Json::from(self.noc_inject_bw)),
            ("noc_accept_bw", Json::from(self.noc_accept_bw)),
            ("noc_mesh", Json::from(self.noc_mesh)),
            ("rob_entries", Json::from(self.rob_entries)),
            ("sb_entries", Json::from(self.sb_entries)),
            ("width", Json::from(self.width)),
            ("mshrs", Json::from(self.mshrs)),
        ])
    }
}

impl MachineConfig {
    /// Overlays fields from a JSON object onto `self`. Unknown keys and
    /// mistyped values are errors; absent keys keep their current value.
    /// Invariants are *not* re-checked here — call [`Self::validate`] after
    /// the last overlay.
    pub fn apply_json(&mut self, doc: &Json) -> Result<(), String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| format!("machine section must be an object, got {}", doc.type_name()))?;
        for (key, value) in pairs {
            let uint = || {
                value
                    .as_u64()
                    .ok_or_else(|| format!("machine.{key} must be an integer"))
            };
            match key.as_str() {
                "cores" => self.cores = uint()? as usize,
                "block_bytes" => {
                    self.block_bytes = u32::try_from(uint()?)
                        .map_err(|_| format!("machine.block_bytes must be at most {}", u32::MAX))?
                }
                "l1_sets" => self.l1_sets = uint()? as usize,
                "l1_ways" => self.l1_ways = uint()? as usize,
                "l1_hit_latency" => self.l1_hit_latency = uint()?,
                "dir_banks" => self.dir_banks = uint()? as usize,
                "dir_latency" => self.dir_latency = uint()?,
                "dram_banks" => self.dram_banks = uint()? as usize,
                "dram_latency" => self.dram_latency = uint()?,
                "dram_occupancy" => self.dram_occupancy = uint()?,
                "noc_latency" => self.noc_latency = uint()?,
                "noc_inject_bw" => self.noc_inject_bw = uint()? as usize,
                "noc_accept_bw" => self.noc_accept_bw = uint()? as usize,
                "noc_mesh" => {
                    self.noc_mesh = value
                        .as_bool()
                        .ok_or_else(|| "machine.noc_mesh must be a bool".to_string())?
                }
                "rob_entries" => self.rob_entries = uint()? as usize,
                "sb_entries" => self.sb_entries = uint()? as usize,
                "width" => self.width = uint()? as usize,
                "mshrs" => self.mshrs = uint()? as usize,
                other => return Err(format!("unknown machine field `{other}`")),
            }
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            block_bytes: 64,
            l1_sets: 128,
            l1_ways: 4,
            l1_hit_latency: 2,
            dir_banks: 4,
            dir_latency: 12,
            dram_banks: 4,
            dram_latency: 120,
            dram_occupancy: 24,
            noc_latency: 6,
            noc_inject_bw: 2,
            noc_accept_bw: 2,
            noc_mesh: false,
            rob_entries: 64,
            sb_entries: 16,
            width: 2,
            mshrs: 8,
        }
    }
}

/// Errors produced when validating an [`AtomicsConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicsError {
    /// RMW latencies must not shrink with distance: an atomic serviced
    /// from farther away cannot be cheaper than a closer one.
    NotMonotonic {
        /// The nearer tier.
        near: &'static str,
        /// The farther (but configured cheaper) tier.
        far: &'static str,
    },
    /// A latency exceeds [`AtomicsConfig::MAX_LATENCY`] (almost certainly
    /// a units mistake: these are cycles, not nanoseconds × 1000).
    TooLarge(&'static str),
}

impl std::fmt::Display for AtomicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtomicsError::NotMonotonic { near, far } => {
                write!(f, "atomics.{far} must be >= atomics.{near}")
            }
            AtomicsError::TooLarge(field) => write!(
                f,
                "atomics.{field} exceeds {} cycles",
                AtomicsConfig::MAX_LATENCY
            ),
        }
    }
}

impl std::error::Error for AtomicsError {}

/// Cost model for atomic read-modify-writes and fences, calibrated against
/// the measured same-socket / cross-socket atomics latencies of Schweizer,
/// Besta and Hoefler, *Evaluating the Cost of Atomic Operations on Modern
/// Architectures* (PACT 2015).
///
/// Each field is an *extra* completion latency in cycles, added on top of
/// the coherence fill the operation already paid. The default is all-zero
/// — atomics complete at fill time, byte-identical to the legacy
/// behavior — so the cost model is strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicsConfig {
    /// Extra cycles for an RMW whose line was already in the local L1
    /// (lock-prefixed ALU + local serialization).
    pub rmw_l1: u64,
    /// Extra cycles for an RMW serviced same-socket (another L1 or the
    /// shared directory/L2 level).
    pub rmw_same_socket: u64,
    /// Extra cycles for an RMW serviced cross-socket / from memory.
    pub rmw_cross_socket: u64,
    /// Execution latency of an honored full fence (store-buffer drain
    /// serialization, MFENCE-style).
    pub fence_full: u64,
    /// Execution latency of an honored acquire or release fence.
    pub fence_oneway: u64,
}

impl Default for AtomicsConfig {
    fn default() -> Self {
        AtomicsConfig::off()
    }
}

impl AtomicsConfig {
    /// Upper bound accepted for any latency field.
    pub const MAX_LATENCY: u64 = 1_000_000;

    /// The zero cost model: atomics and fences complete at fill/issue
    /// time, exactly as before the model existed.
    pub fn off() -> Self {
        AtomicsConfig {
            rmw_l1: 0,
            rmw_same_socket: 0,
            rmw_cross_socket: 0,
            fence_full: 0,
            fence_oneway: 0,
        }
    }

    /// Haswell-era calibration from Schweizer et al.: an atomic on an
    /// L1-resident line costs ~15 cycles over a plain hit, a same-socket
    /// cache-to-cache atomic ~40, a cross-socket / in-memory atomic ~90,
    /// and MFENCE ~33 cycles; acquire/release fences are plain-op cheap
    /// on x86 and modeled free.
    pub fn schweizer() -> Self {
        AtomicsConfig {
            rmw_l1: 15,
            rmw_same_socket: 40,
            rmw_cross_socket: 90,
            fence_full: 33,
            fence_oneway: 0,
        }
    }

    /// Whether every latency is zero (the legacy fast path).
    pub fn is_free(&self) -> bool {
        *self == AtomicsConfig::off()
    }

    /// Checks the cost-model invariants: latencies bounded and
    /// monotonically non-decreasing with distance.
    ///
    /// # Errors
    ///
    /// Returns an [`AtomicsError`] naming the first offending field pair.
    pub fn validate(&self) -> Result<(), AtomicsError> {
        for (v, name) in [
            (self.rmw_l1, "rmw_l1"),
            (self.rmw_same_socket, "rmw_same_socket"),
            (self.rmw_cross_socket, "rmw_cross_socket"),
            (self.fence_full, "fence_full"),
            (self.fence_oneway, "fence_oneway"),
        ] {
            if v > Self::MAX_LATENCY {
                return Err(AtomicsError::TooLarge(name));
            }
        }
        if self.rmw_same_socket < self.rmw_l1 {
            return Err(AtomicsError::NotMonotonic {
                near: "rmw_l1",
                far: "rmw_same_socket",
            });
        }
        if self.rmw_cross_socket < self.rmw_same_socket {
            return Err(AtomicsError::NotMonotonic {
                near: "rmw_same_socket",
                far: "rmw_cross_socket",
            });
        }
        Ok(())
    }

    /// Overlays fields from a JSON object — or a preset name: the string
    /// `"off"` or `"schweizer"` replaces the whole config. Unknown keys
    /// and mistyped values are errors; absent keys keep their value.
    /// Invariants are *not* re-checked here — call [`Self::validate`]
    /// after the last overlay.
    pub fn apply_json(&mut self, doc: &Json) -> Result<(), String> {
        if let Some(name) = doc.as_str() {
            *self = match name {
                "off" => AtomicsConfig::off(),
                "schweizer" => AtomicsConfig::schweizer(),
                other => {
                    return Err(format!(
                        "unknown atomics preset `{other}` (expected `off` or `schweizer`)"
                    ))
                }
            };
            return Ok(());
        }
        let pairs = doc
            .as_object()
            .ok_or_else(|| format!("atomics section must be an object, got {}", doc.type_name()))?;
        for (key, value) in pairs {
            let uint = || {
                value
                    .as_u64()
                    .ok_or_else(|| format!("atomics.{key} must be an integer"))
            };
            match key.as_str() {
                "rmw_l1" => self.rmw_l1 = uint()?,
                "rmw_same_socket" => self.rmw_same_socket = uint()?,
                "rmw_cross_socket" => self.rmw_cross_socket = uint()?,
                "fence_full" => self.fence_full = uint()?,
                "fence_oneway" => self.fence_oneway = uint()?,
                other => return Err(format!("unknown atomics field `{other}`")),
            }
        }
        Ok(())
    }
}

impl ToJson for AtomicsConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rmw_l1", Json::from(self.rmw_l1)),
            ("rmw_same_socket", Json::from(self.rmw_same_socket)),
            ("rmw_cross_socket", Json::from(self.rmw_cross_socket)),
            ("fence_full", Json::from(self.fence_full)),
            ("fence_oneway", Json::from(self.fence_oneway)),
        ])
    }
}

/// Mapping from logical components to interconnect [`NodeId`]s.
///
/// Cores occupy nodes `0..cores`; directory banks follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    cores: usize,
    dir_banks: usize,
}

impl NodeLayout {
    /// Node id of a core's L1 controller.
    pub fn core_node(&self, core: CoreId) -> NodeId {
        debug_assert!(core.index() < self.cores);
        NodeId(core.0)
    }

    /// Node id of directory bank `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= dir_banks`.
    pub fn dir_node(&self, bank: usize) -> NodeId {
        assert!(bank < self.dir_banks, "directory bank {bank} out of range");
        NodeId((self.cores + bank) as u16)
    }

    /// The directory bank owning a block (address-interleaved).
    pub fn bank_of(&self, block: crate::ids::BlockAddr) -> usize {
        (block.as_u64() % self.dir_banks as u64) as usize
    }

    /// Inverse of [`Self::core_node`] / [`Self::dir_node`].
    pub fn classify(&self, node: NodeId) -> NodeKind {
        let idx = node.index();
        if idx < self.cores {
            NodeKind::Core(CoreId(node.0))
        } else if idx < self.cores + self.dir_banks {
            NodeKind::Directory(idx - self.cores)
        } else {
            NodeKind::Unknown
        }
    }
}

/// What kind of component lives at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A core / private-L1 controller.
    Core(CoreId),
    /// A directory bank (index within the directory).
    Directory(usize),
    /// Past the end of the topology.
    Unknown,
}

/// Builder for [`MachineConfig`]; see [`MachineConfig::builder`].
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the core count.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cfg.cores = cores;
        self
    }

    /// Sets the cache block size in bytes.
    pub fn block_bytes(mut self, bytes: u32) -> Self {
        self.cfg.block_bytes = bytes;
        self
    }

    /// Sets the L1 organization directly.
    pub fn l1(mut self, sets: usize, ways: usize) -> Self {
        self.cfg.l1_sets = sets;
        self.cfg.l1_ways = ways;
        self
    }

    /// Sets the L1 capacity in KiB, keeping the current associativity.
    pub fn l1_kib(mut self, kib: usize) -> Self {
        let blocks = kib * 1024 / self.cfg.block_bytes as usize;
        self.cfg.l1_sets = (blocks / self.cfg.l1_ways).max(1);
        self
    }

    /// Sets the L1 hit latency.
    pub fn l1_hit_latency(mut self, cycles: u64) -> Self {
        self.cfg.l1_hit_latency = cycles;
        self
    }

    /// Sets directory bank count and access latency.
    pub fn directory(mut self, banks: usize, latency: u64) -> Self {
        self.cfg.dir_banks = banks;
        self.cfg.dir_latency = latency;
        self
    }

    /// Sets DRAM bank count, latency and per-access occupancy.
    pub fn dram(mut self, banks: usize, latency: u64, occupancy: u64) -> Self {
        self.cfg.dram_banks = banks;
        self.cfg.dram_latency = latency;
        self.cfg.dram_occupancy = occupancy;
        self
    }

    /// Sets interconnect latency and per-endpoint bandwidths.
    pub fn noc(mut self, latency: u64, inject_bw: usize, accept_bw: usize) -> Self {
        self.cfg.noc_latency = latency;
        self.cfg.noc_inject_bw = inject_bw;
        self.cfg.noc_accept_bw = accept_bw;
        self
    }

    /// Selects a 2-D mesh interconnect instead of the crossbar.
    pub fn mesh(mut self, mesh: bool) -> Self {
        self.cfg.noc_mesh = mesh;
        self
    }

    /// Sets the ROB capacity.
    pub fn rob_entries(mut self, entries: usize) -> Self {
        self.cfg.rob_entries = entries;
        self
    }

    /// Sets the store buffer capacity.
    pub fn sb_entries(mut self, entries: usize) -> Self {
        self.cfg.sb_entries = entries;
        self
    }

    /// Sets fetch/retire width.
    pub fn width(mut self, width: usize) -> Self {
        self.cfg.width = width;
        self
    }

    /// Sets the per-core MSHR count.
    pub fn mshrs(mut self, mshrs: usize) -> Self {
        self.cfg.mshrs = mshrs;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first offending field if any
    /// count is zero, any power-of-two field isn't, or the machine is too
    /// large to address.
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockAddr;

    #[test]
    fn default_config_is_valid() {
        let cfg = MachineConfig::builder().build().unwrap();
        assert_eq!(cfg, MachineConfig::default());
        assert_eq!(cfg.l1_bytes(), 32 * 1024);
    }

    #[test]
    fn zero_fields_are_rejected() {
        assert_eq!(
            MachineConfig::builder().cores(0).build(),
            Err(ConfigError::Zero("cores"))
        );
        assert_eq!(
            MachineConfig::builder().width(0).build(),
            Err(ConfigError::Zero("width"))
        );
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert_eq!(
            MachineConfig::builder().l1(100, 4).build(),
            Err(ConfigError::NotPowerOfTwo("l1_sets"))
        );
        assert_eq!(
            MachineConfig::builder().block_bytes(48).build(),
            Err(ConfigError::NotPowerOfTwo("block_bytes"))
        );
    }

    #[test]
    fn l1_kib_recomputes_sets() {
        let cfg = MachineConfig::builder().l1_kib(8).build().unwrap();
        assert_eq!(cfg.l1_bytes(), 8 * 1024);
    }

    #[test]
    fn node_layout_roundtrips() {
        let cfg = MachineConfig::builder()
            .cores(4)
            .directory(2, 10)
            .build()
            .unwrap();
        let layout = cfg.node_ids();
        assert_eq!(layout.core_node(CoreId(3)), NodeId(3));
        assert_eq!(layout.dir_node(0), NodeId(4));
        assert_eq!(layout.dir_node(1), NodeId(5));
        assert_eq!(layout.classify(NodeId(2)), NodeKind::Core(CoreId(2)));
        assert_eq!(layout.classify(NodeId(5)), NodeKind::Directory(1));
        assert_eq!(layout.classify(NodeId(6)), NodeKind::Unknown);
    }

    #[test]
    fn banks_interleave_blocks() {
        let cfg = MachineConfig::builder().directory(4, 10).build().unwrap();
        let layout = cfg.node_ids();
        let banks: Vec<usize> = (0..8).map(|b| layout.bank_of(BlockAddr(b))).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dir_node_bounds_checked() {
        let cfg = MachineConfig::default();
        cfg.node_ids().dir_node(99);
    }

    #[test]
    fn config_clone_eq() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.clone(), cfg);
    }

    #[test]
    fn validate_matches_builder() {
        let mut cfg = MachineConfig::builder().cores(4).build().unwrap();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::Zero("cores")));
    }

    #[test]
    fn json_round_trip() {
        let cfg = MachineConfig::builder()
            .cores(16)
            .mesh(true)
            .build()
            .unwrap();
        let doc = cfg.to_json();
        let mut decoded = MachineConfig::default();
        decoded.apply_json(&doc).unwrap();
        assert_eq!(decoded, cfg);
        assert!(decoded
            .apply_json(&crate::json::Json::obj([("bogus", 1u64.into())]))
            .is_err());
        // 2^32 + 64 must not truncate to a valid 64-byte block.
        let err = decoded
            .apply_json(&Json::obj([("block_bytes", Json::U64(4_294_967_360))]))
            .unwrap_err();
        assert!(err.contains("machine.block_bytes"), "{err}");
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn atomics_default_is_free_and_valid() {
        let a = AtomicsConfig::default();
        assert!(a.is_free());
        assert_eq!(a.validate(), Ok(()));
        assert!(!AtomicsConfig::schweizer().is_free());
        assert_eq!(AtomicsConfig::schweizer().validate(), Ok(()));
    }

    #[test]
    fn atomics_monotonicity_enforced() {
        let a = AtomicsConfig {
            rmw_l1: 50,
            rmw_same_socket: 10,
            ..AtomicsConfig::off()
        };
        assert_eq!(
            a.validate(),
            Err(AtomicsError::NotMonotonic {
                near: "rmw_l1",
                far: "rmw_same_socket",
            })
        );
        let b = AtomicsConfig {
            rmw_same_socket: 40,
            rmw_cross_socket: 20,
            ..AtomicsConfig::off()
        };
        assert_eq!(
            b.validate(),
            Err(AtomicsError::NotMonotonic {
                near: "rmw_same_socket",
                far: "rmw_cross_socket",
            })
        );
        let c = AtomicsConfig {
            fence_full: AtomicsConfig::MAX_LATENCY + 1,
            ..AtomicsConfig::off()
        };
        assert_eq!(c.validate(), Err(AtomicsError::TooLarge("fence_full")));
    }

    #[test]
    fn atomics_json_round_trip_and_presets() {
        let a = AtomicsConfig::schweizer();
        let mut decoded = AtomicsConfig::off();
        decoded.apply_json(&a.to_json()).unwrap();
        assert_eq!(decoded, a);

        let mut preset = AtomicsConfig::off();
        preset.apply_json(&Json::from("schweizer")).unwrap();
        assert_eq!(preset, AtomicsConfig::schweizer());
        preset.apply_json(&Json::from("off")).unwrap();
        assert!(preset.is_free());
        assert!(preset.apply_json(&Json::from("fast")).is_err());
        assert!(preset
            .apply_json(&Json::obj([("bogus", 1u64.into())]))
            .is_err());
        assert!(preset
            .apply_json(&Json::obj([("rmw_l1", Json::from("x"))]))
            .is_err());
    }
}
