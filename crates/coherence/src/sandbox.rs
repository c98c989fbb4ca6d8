//! A self-contained protocol test rig: [`ProtocolSandbox`].
//!
//! The sandbox wires `cores` L1 controllers, the directory banks and a
//! fabric together and lets tests (and curious users) drive individual
//! accesses synchronously, inspect cache/directory state, and check global
//! coherence invariants. The cpu crate builds the real simulator around the
//! same components; this rig exists so the protocol can be exercised and
//! verified in isolation.

use tenways_noc::Fabric;
use tenways_sim::{Addr, BlockAddr, BlockGeometry, Clock, CoreId, Cycle, MachineConfig};

use crate::l1::{AccessKind, Completion, L1Controller, ProtocolConfig, ReqId, SpecViolation};
use crate::msg::Msg;
use crate::DirectoryBank;

/// A miniature machine: L1s + directory + fabric, driven one access at a
/// time.
#[derive(Debug)]
pub struct ProtocolSandbox {
    clock: Clock,
    geometry: BlockGeometry,
    l1s: Vec<L1Controller>,
    dirs: Vec<DirectoryBank>,
    fabric: Fabric<Msg>,
    next_req: u64,
    completions: Vec<(CoreId, Completion)>,
    violations: Vec<(CoreId, SpecViolation)>,
}

impl ProtocolSandbox {
    /// Builds a sandbox for `cfg` with the default protocol options.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::with_protocol(cfg, ProtocolConfig::default())
    }

    /// Builds a sandbox with explicit protocol options (e.g. MSI vs MESI).
    pub fn with_protocol(cfg: &MachineConfig, protocol: ProtocolConfig) -> Self {
        ProtocolSandbox {
            clock: Clock::new(),
            geometry: cfg.block_geometry(),
            l1s: cfg
                .core_ids()
                .map(|c| L1Controller::new(c, cfg, protocol))
                .collect(),
            dirs: (0..cfg.dir_banks)
                .map(|b| DirectoryBank::with_protocol(b, cfg, protocol))
                .collect(),
            fabric: Fabric::for_machine(cfg),
            next_req: 0,
            completions: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// The block containing `addr` under this machine's geometry.
    pub fn block(&self, addr: Addr) -> BlockAddr {
        self.geometry.block_of(addr)
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Immutable view of a core's L1.
    pub fn l1(&self, core: CoreId) -> &L1Controller {
        &self.l1s[core.index()]
    }

    /// Mutable access to a core's L1 (for spec marking etc.).
    pub fn l1_mut(&mut self, core: CoreId) -> &mut L1Controller {
        &mut self.l1s[core.index()]
    }

    /// The home directory bank of a block.
    pub fn home_of(&self, block: BlockAddr) -> &DirectoryBank {
        &self.dirs[(block.as_u64() % self.dirs.len() as u64) as usize]
    }

    /// The fabric (for stats inspection).
    pub fn fabric(&self) -> &Fabric<Msg> {
        &self.fabric
    }

    /// Issues an access from `core` and returns its request token.
    ///
    /// # Panics
    ///
    /// Panics if the L1 rejects the request (MSHRs full) — sandbox drivers
    /// issue few enough requests that this indicates a test bug.
    pub fn access(&mut self, core: CoreId, kind: AccessKind, addr: Addr) -> ReqId {
        let req = ReqId(self.next_req);
        self.next_req += 1;
        let block = self.geometry.block_of(addr);
        let now = self.clock.now();
        self.l1s[core.index()]
            .request(now, req, kind, block, &mut self.fabric)
            .expect("sandbox request rejected (MSHRs full)");
        req
    }

    /// Marks a block speculatively at a core (must be resident).
    pub fn mark_spec(&mut self, core: CoreId, mark: crate::SpecMark, addr: Addr) -> bool {
        let block = self.geometry.block_of(addr);
        let now = self.clock.now();
        self.l1s[core.index()].mark_spec(now, mark, block, &mut self.fabric)
    }

    /// Commits a core's speculative epoch (clears all marks).
    pub fn commit_spec(&mut self, core: CoreId) {
        self.l1s[core.index()].commit_spec();
    }

    /// Rolls back a core's speculative epoch; returns dropped line count.
    pub fn rollback_spec(&mut self, core: CoreId) -> usize {
        let now = self.clock.now();
        self.l1s[core.index()].rollback_spec(now, &mut self.fabric)
    }

    /// Advances the machine one cycle.
    pub fn step(&mut self) {
        let now = self.clock.advance();
        self.fabric.tick(now);
        for dir in &mut self.dirs {
            dir.tick(now, &mut self.fabric);
        }
        for l1 in &mut self.l1s {
            l1.tick(now, &mut self.fabric);
        }
        for l1 in &mut self.l1s {
            let core = l1.core();
            let mut done = Vec::new();
            l1.take_completions(&mut done);
            self.completions.extend(done.into_iter().map(|c| (core, c)));
            for v in l1.take_violations() {
                self.violations.push((core, v));
            }
        }
    }

    /// Steps until a specific request completes (or panics after `limit`
    /// cycles — a stuck protocol).
    pub fn run_until_complete(&mut self, req: ReqId, limit: u64) -> Completion {
        for _ in 0..limit {
            if let Some(pos) = self.completions.iter().position(|(_, c)| c.req == req) {
                return self.completions.remove(pos).1;
            }
            self.step();
        }
        if let Some(pos) = self.completions.iter().position(|(_, c)| c.req == req) {
            return self.completions.remove(pos).1;
        }
        panic!("request {req:?} did not complete within {limit} cycles");
    }

    /// Convenience: issue an access and run it to completion.
    pub fn access_and_wait(&mut self, core: CoreId, kind: AccessKind, addr: Addr) -> Completion {
        let req = self.access(core, kind, addr);
        self.run_until_complete(req, 10_000)
    }

    /// Steps until every component is quiescent (no in-flight work).
    ///
    /// # Panics
    ///
    /// Panics if the machine does not settle within `limit` cycles.
    pub fn settle(&mut self, limit: u64) {
        for _ in 0..limit {
            if self.is_quiescent() {
                return;
            }
            self.step();
        }
        assert!(
            self.is_quiescent(),
            "machine did not settle within {limit} cycles"
        );
    }

    /// Whether all L1s, banks and the fabric are idle.
    pub fn is_quiescent(&self) -> bool {
        self.fabric.is_quiescent()
            && self.l1s.iter().all(L1Controller::is_quiescent)
            && self.dirs.iter().all(DirectoryBank::is_quiescent)
    }

    /// Drains recorded violations.
    pub fn take_violations(&mut self) -> Vec<(CoreId, SpecViolation)> {
        std::mem::take(&mut self.violations)
    }

    /// Checks the single-writer / multiple-reader coherence invariant for
    /// `block` across all caches, and that the directory's view matches.
    ///
    /// Only meaningful when the machine [is quiescent](Self::is_quiescent).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violation, if any.
    pub fn assert_coherent(&self, block: BlockAddr) {
        let mut owners = Vec::new();
        let mut sharers = Vec::new();
        for l1 in &self.l1s {
            match l1.state_of(block) {
                Some(crate::L1State::Modified) | Some(crate::L1State::Exclusive) => {
                    owners.push(l1.core());
                }
                Some(crate::L1State::Shared) => sharers.push(l1.core()),
                None => {}
            }
        }
        assert!(owners.len() <= 1, "{block}: multiple owners {owners:?}");
        assert!(
            owners.is_empty() || sharers.is_empty(),
            "{block}: owner {owners:?} coexists with sharers {sharers:?}"
        );
        let dir_view = self.home_of(block).sharers_of(block);
        for core in owners.iter().chain(&sharers) {
            assert!(
                dir_view.contains(core),
                "{block}: directory lost track of {core} (dir view: {dir_view:?})"
            );
        }
    }
}
