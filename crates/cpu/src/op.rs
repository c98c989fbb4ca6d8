//! The instruction vocabulary ([`Op`]) and the reactive program interface
//! ([`ThreadProgram`]).
//!
//! Workloads are *reactive state machines*, not instruction traces: the
//! core asks for the next operation and feeds back the values of loads and
//! atomics the program asked to consume. This is what lets spin locks,
//! barriers and data-dependent traversals emerge from the simulated memory
//! system instead of being scripted around it.

use tenways_sim::Addr;

/// Why a memory operation exists, for stall attribution.
///
/// A cycle lost to a contended lock and a cycle lost to a data miss are
/// both "memory waits" to the pipeline; the tag lets the waste taxonomy
/// tell them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTag {
    /// Ordinary program data.
    Data,
    /// Lock word accesses (acquire spins, releases).
    Lock,
    /// Barrier counters and generation flags.
    Barrier,
}

impl MemTag {
    /// Stable label for stats.
    pub fn label(self) -> &'static str {
        match self {
            MemTag::Data => "data",
            MemTag::Lock => "lock",
            MemTag::Barrier => "barrier",
        }
    }
}

/// Fence strength, with release-consistency semantics under RMO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Order everything before against everything after.
    Full,
    /// Later operations wait until all earlier loads complete (lock
    /// acquisition).
    Acquire,
    /// Later stores wait until all earlier operations complete (lock
    /// release).
    Release,
}

/// A read-modify-write function applied atomically at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `new = old + n`; returns `old`.
    FetchAdd(u64),
    /// `new = v`; returns `old`.
    Swap(u64),
    /// `if old == expected { new = desired }`; returns `old`.
    Cas {
        /// Value the location must hold for the exchange to happen.
        expected: u64,
        /// Value stored on success.
        desired: u64,
    },
}

impl RmwOp {
    /// Applies the operation to `old`, returning the new stored value.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            RmwOp::FetchAdd(n) => old.wrapping_add(n),
            RmwOp::Swap(v) => v,
            RmwOp::Cas { expected, desired } => {
                if old == expected {
                    desired
                } else {
                    old
                }
            }
        }
    }
}

/// One dynamic operation emitted by a [`ThreadProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `cycles` of pure computation (pipelined; models IPC between memory
    /// operations).
    Compute(u64),
    /// A load. If `consume` is set the program's next operation depends on
    /// the loaded value: fetch stalls until the load completes and the
    /// value is passed to [`ThreadProgram::next_op`].
    Load {
        /// Byte address.
        addr: Addr,
        /// Stall-attribution tag.
        tag: MemTag,
        /// Whether the program needs the value to continue.
        consume: bool,
    },
    /// A store of `value`.
    Store {
        /// Byte address.
        addr: Addr,
        /// Value stored (functional layer).
        value: u64,
        /// Stall-attribution tag.
        tag: MemTag,
    },
    /// A memory fence.
    Fence(FenceKind),
    /// An atomic read-modify-write; returns the *old* value when consumed.
    Rmw {
        /// Byte address.
        addr: Addr,
        /// The atomic function.
        rmw: RmwOp,
        /// Stall-attribution tag.
        tag: MemTag,
        /// Whether the program needs the old value to continue.
        consume: bool,
    },
}

impl Op {
    /// Whether the op touches memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. } | Op::Rmw { .. })
    }

    /// The address touched, if any.
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Rmw { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// Whether the program asked to consume this op's result.
    pub fn consumes(&self) -> bool {
        matches!(
            self,
            Op::Load { consume: true, .. } | Op::Rmw { consume: true, .. }
        )
    }

    /// The attribution tag (Data for non-memory ops).
    pub fn tag(&self) -> MemTag {
        match *self {
            Op::Load { tag, .. } | Op::Store { tag, .. } | Op::Rmw { tag, .. } => tag,
            _ => MemTag::Data,
        }
    }

    /// Convenience: an untagged, unconsumed data load.
    pub fn load(addr: Addr) -> Op {
        Op::Load {
            addr,
            tag: MemTag::Data,
            consume: false,
        }
    }

    /// Convenience: an untagged data store.
    pub fn store(addr: Addr, value: u64) -> Op {
        Op::Store {
            addr,
            value,
            tag: MemTag::Data,
        }
    }
}

/// A reactive per-thread program.
///
/// The core calls [`next_op`](Self::next_op) whenever it has a fetch slot;
/// `last_value` carries the result of the most recent `consume`-marked
/// operation (and is `None` otherwise). Returning `None` ends the thread.
///
/// Programs must be deterministic state machines and must implement
/// [`snapshot`](Self::snapshot): the fence-speculation engine checkpoints
/// the program at each speculation point and restores the snapshot on
/// rollback, re-executing from there.
///
/// Programs are `Send` so the epoch-parallel scheduler can move a core
/// (and the program it owns) onto a worker thread; they are still driven
/// by exactly one thread at a time.
pub trait ThreadProgram: std::fmt::Debug + Send {
    /// Produces the next operation, given the consumed value if the
    /// previous op requested one.
    fn next_op(&mut self, last_value: Option<u64>) -> Option<Op>;

    /// A deep copy of the current program state (for checkpointing).
    fn snapshot(&self) -> Box<dyn ThreadProgram>;

    /// A short name for reports.
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// A scripted program that plays a fixed operation sequence (tests and
/// microbenchmarks). The script is shared: a snapshot bumps a reference
/// count instead of copying it.
#[derive(Debug, Clone)]
pub struct ScriptProgram {
    ops: std::sync::Arc<Vec<Op>>,
    pos: usize,
    /// Values received for consume ops, observable by tests.
    pub consumed: Vec<u64>,
}

impl ScriptProgram {
    /// Creates a program that emits `ops` in order, then finishes. A
    /// `Vec` is kept as it is, not copied.
    pub fn new(ops: impl Into<Vec<Op>>) -> Self {
        ScriptProgram {
            ops: std::sync::Arc::new(ops.into()),
            pos: 0,
            consumed: Vec::new(),
        }
    }
}

impl ThreadProgram for ScriptProgram {
    fn next_op(&mut self, last_value: Option<u64>) -> Option<Op> {
        if let Some(v) = last_value {
            self.consumed.push(v);
        }
        let op = self.ops.get(self.pos).copied();
        if op.is_some() {
            self.pos += 1;
        }
        op
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "script"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwOp::FetchAdd(3).apply(4), 7);
        assert_eq!(RmwOp::Swap(9).apply(4), 9);
        assert_eq!(
            RmwOp::Cas {
                expected: 4,
                desired: 1
            }
            .apply(4),
            1
        );
        assert_eq!(
            RmwOp::Cas {
                expected: 5,
                desired: 1
            }
            .apply(4),
            4
        );
        assert_eq!(RmwOp::FetchAdd(1).apply(u64::MAX), 0, "wrapping");
    }

    #[test]
    fn script_keeps_the_callers_buffer() {
        let ops = vec![Op::Compute(1); 4096];
        let buffer = ops.as_ptr();
        let program = ScriptProgram::new(ops);
        assert_eq!(program.ops.as_ptr(), buffer, "the script was copied");
        let snapshot = program.clone();
        assert_eq!(
            snapshot.ops.as_ptr(),
            buffer,
            "a snapshot copied the script"
        );
    }

    #[test]
    fn op_classification() {
        let l = Op::load(Addr(8));
        assert!(l.is_mem());
        assert_eq!(l.addr(), Some(Addr(8)));
        assert!(!l.consumes());
        assert_eq!(l.tag(), MemTag::Data);
        assert!(!Op::Compute(3).is_mem());
        assert_eq!(Op::Fence(FenceKind::Full).addr(), None);
        let c = Op::Rmw {
            addr: Addr(0),
            rmw: RmwOp::Swap(1),
            tag: MemTag::Lock,
            consume: true,
        };
        assert!(c.consumes());
        assert_eq!(c.tag(), MemTag::Lock);
    }

    #[test]
    fn script_program_plays_and_finishes() {
        let mut p = ScriptProgram::new(vec![Op::Compute(1), Op::load(Addr(0))]);
        assert_eq!(p.next_op(None), Some(Op::Compute(1)));
        assert_eq!(p.next_op(None), Some(Op::load(Addr(0))));
        assert_eq!(p.next_op(None), None);
        assert_eq!(p.next_op(None), None, "stays finished");
    }

    #[test]
    fn script_program_records_consumed_values() {
        let mut p = ScriptProgram::new(vec![Op::Compute(1)]);
        p.next_op(Some(42));
        assert_eq!(p.consumed, vec![42]);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut p = ScriptProgram::new(vec![Op::Compute(1), Op::Compute(2)]);
        p.next_op(None);
        let snap = p.snapshot();
        p.next_op(None);
        // Restore from snapshot: continues from op index 1.
        let mut restored = snap;
        assert_eq!(restored.next_op(None), Some(Op::Compute(2)));
    }

    #[test]
    fn tag_labels() {
        assert_eq!(MemTag::Data.label(), "data");
        assert_eq!(MemTag::Lock.label(), "lock");
        assert_eq!(MemTag::Barrier.label(), "barrier");
    }
}
