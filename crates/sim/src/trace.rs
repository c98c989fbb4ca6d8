//! Cycle-attributed event tracing.
//!
//! Components record [`TraceEvent`]s into a shared bounded [`TraceBuffer`]
//! through a cheap cloneable handle, [`Tracer`]. A disabled tracer (the
//! default) is a `None` and costs one branch per call site, so simulation
//! speed is unaffected unless a trace was requested.
//!
//! Events carry the simulated cycle, an optional duration (making them
//! spans rather than instants), the node they occurred on, a category, and
//! a static name. [`chrome_trace`] renders a buffer in the Chrome
//! `trace_event` JSON array format, loadable in `chrome://tracing` /
//! Perfetto, with one timeline row per simulated component ("tid") — cores
//! and directory banks get their own rows, cycle count is used as the
//! microsecond timestamp.
//!
//! ```rust
//! use tenways_sim::trace::{chrome_trace, TraceCategory, Tracer};
//! use tenways_sim::Cycle;
//!
//! let tracer = Tracer::enabled(1024);
//! tracer.span(Cycle::new(10), 5, 0, TraceCategory::Fence, "fence.stall", 0);
//! tracer.instant(Cycle::new(20), 0, TraceCategory::Spec, "rollback", 3);
//! let events = tracer.drain();
//! assert_eq!(events.len(), 2);
//! let json = chrome_trace(&events);
//! assert!(json.to_string().contains("fence.stall"));
//! ```

use crate::cycle::Cycle;
use crate::json::Json;
use std::sync::{Arc, Mutex};

/// What subsystem an event belongs to; becomes the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Fence / consistency stalls in the core pipeline.
    Fence,
    /// Speculation lifecycle: epochs, rollbacks.
    Spec,
    /// Coherence directory activity: transitions, invalidations, recalls.
    Coherence,
    /// Interconnect queueing and backpressure.
    Noc,
    /// Run-level markers (start / finish).
    Run,
}

impl TraceCategory {
    /// The category label used in exported traces.
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Fence => "fence",
            TraceCategory::Spec => "spec",
            TraceCategory::Coherence => "coherence",
            TraceCategory::Noc => "noc",
            TraceCategory::Run => "run",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event (or span) started.
    pub cycle: u64,
    /// Span length in cycles; 0 marks an instant event.
    pub dur: u64,
    /// Timeline row: core id, or `DIR_TID_BASE + bank` for directories.
    pub tid: u32,
    /// Subsystem.
    pub cat: TraceCategory,
    /// Event name (e.g. `"fence.stall"`, `"dir.inv"`).
    pub name: &'static str,
    /// One free-form numeric payload (address block, sharer count, …).
    pub arg: u64,
}

/// Timeline-row offset for directory banks in exported traces, so bank
/// rows sort after core rows.
pub const DIR_TID_BASE: u32 = 1000;
/// Timeline row for fabric-wide events.
pub const NOC_TID: u32 = 2000;
/// Timeline row for run-level markers.
pub const RUN_TID: u32 = 3000;

/// A bounded ring of trace events.
///
/// When full, the **oldest** events are overwritten: the tail of a run is
/// usually the interesting part, and a hard cap keeps long simulations from
/// exhausting memory. The number of events dropped this way is reported so
/// exports can say the trace is truncated.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the logically-oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            ring: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// How many events were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let head = std::mem::take(&mut self.head);
        let mut ring = std::mem::take(&mut self.ring);
        ring.rotate_left(head);
        ring
    }
}

/// A cheap, cloneable handle to an optional [`TraceBuffer`].
///
/// `Tracer::default()` is disabled — every record call is a single branch,
/// so the sharing container below is never touched on the hot path.
/// Handles are `Arc`-shared within one simulated machine; the lock only
/// matters to the epoch-parallel scheduler, which must be able to move
/// components (each holding a tracer clone) onto worker threads. A traced
/// run never shards (it takes the sequential wake loop instead), so the
/// mutex is never contended.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TraceBuffer>>>);

impl Tracer {
    /// A tracer recording into a fresh buffer of `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        Tracer(Some(Arc::new(Mutex::new(TraceBuffer::new(capacity)))))
    }

    /// A disabled tracer; all record calls are no-ops.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a span of `dur` cycles ending *at* `now` (i.e. it started at
    /// `now - dur`). Components usually detect span ends, not starts.
    pub fn span(
        &self,
        now: Cycle,
        dur: u64,
        tid: u32,
        cat: TraceCategory,
        name: &'static str,
        arg: u64,
    ) {
        if let Some(buf) = &self.0 {
            let start = now.as_u64().saturating_sub(dur);
            buf.lock().expect("tracer lock").push(TraceEvent {
                cycle: start,
                dur,
                tid,
                cat,
                name,
                arg,
            });
        }
    }

    /// Records an instant event at `now`.
    pub fn instant(&self, now: Cycle, tid: u32, cat: TraceCategory, name: &'static str, arg: u64) {
        if let Some(buf) = &self.0 {
            buf.lock().expect("tracer lock").push(TraceEvent {
                cycle: now.as_u64(),
                dur: 0,
                tid,
                cat,
                name,
                arg,
            });
        }
    }

    /// Takes all recorded events (oldest first). Empty for disabled tracers.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.0 {
            Some(buf) => buf.lock().expect("tracer lock").drain(),
            None => Vec::new(),
        }
    }

    /// Events overwritten due to the ring capacity.
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |buf| buf.lock().expect("tracer lock").dropped())
    }
}

/// Renders events in Chrome `trace_event` JSON array format.
///
/// One simulated cycle maps to one microsecond of trace time. Spans become
/// `"ph":"X"` complete events, instants become `"ph":"i"`. The numeric
/// payload is exposed as `args.v`.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        let mut fields = vec![
            ("name".to_string(), Json::Str(ev.name.to_string())),
            ("cat".to_string(), Json::Str(ev.cat.label().to_string())),
            (
                "ph".to_string(),
                Json::Str(if ev.dur > 0 { "X" } else { "i" }.to_string()),
            ),
            ("ts".to_string(), Json::U64(ev.cycle)),
        ];
        if ev.dur > 0 {
            fields.push(("dur".to_string(), Json::U64(ev.dur)));
        } else {
            fields.push(("s".to_string(), Json::Str("t".to_string())));
        }
        fields.push(("pid".to_string(), Json::U64(1)));
        fields.push(("tid".to_string(), Json::U64(u64::from(ev.tid))));
        fields.push(("args".to_string(), Json::obj([("v", Json::U64(ev.arg))])));
        out.push(Json::Obj(fields));
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            cycle,
            dur: 0,
            tid: 0,
            cat: TraceCategory::Run,
            name,
            arg: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.instant(Cycle::new(1), 0, TraceCategory::Fence, "x", 0);
        assert!(!t.is_enabled());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..5 {
            buf.push(ev(i, "e"));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let cycles: Vec<u64> = buf.drain().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn span_subtracts_duration() {
        let t = Tracer::enabled(8);
        t.span(
            Cycle::new(100),
            30,
            2,
            TraceCategory::Fence,
            "fence.stall",
            7,
        );
        let evs = t.drain();
        assert_eq!(evs[0].cycle, 70);
        assert_eq!(evs[0].dur, 30);
        assert_eq!(evs[0].tid, 2);
    }

    #[test]
    fn chrome_format_shape() {
        let t = Tracer::enabled(8);
        t.span(Cycle::new(10), 4, 1, TraceCategory::Coherence, "dir.inv", 2);
        t.instant(Cycle::new(12), 0, TraceCategory::Spec, "rollback", 0);
        let json = chrome_trace(&t.drain());
        let arr = json.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(arr[0].get("dur").and_then(Json::as_u64), Some(4));
        assert_eq!(arr[0].get("ts").and_then(Json::as_u64), Some(6));
        assert_eq!(arr[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            arr[1]
                .get("args")
                .and_then(|a| a.get("v"))
                .and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn tracer_handles_share_one_buffer() {
        let a = Tracer::enabled(8);
        let b = a.clone();
        a.instant(Cycle::new(1), 0, TraceCategory::Noc, "q", 0);
        b.instant(Cycle::new(2), 0, TraceCategory::Noc, "q", 0);
        assert_eq!(a.drain().len(), 2);
    }
}
