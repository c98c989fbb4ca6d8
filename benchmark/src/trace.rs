//! Spans around the benchmark's calls into each layer, kept in memory and
//! written at exit as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). A layer's self time is its span minus its child spans.
//!
//! A disabled tracer records nothing: [`Tracer::span`] just calls its
//! closure, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tenways_sim::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The run (sim) or request (serve) the span belongs to.
    pub id: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for one thread; every tracer of a run shares `epoch`.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            id,
            tid: self.tid,
            start_ns: nanos(start - self.epoch),
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = nanos(start.elapsed());
        out
    }

    /// Records a span timed by the caller, for a call whose layer is
    /// known only once it returns (a cache get that hit memory or disk).
    pub fn leaf(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                tid: self.tid,
                start_ns: nanos(start - self.epoch),
                dur_ns: nanos(end - start),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ns()) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += s.dur_ns.saturating_sub(children);
        }
        out
    }

    /// Per span, the summed durations of its direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        child_ns
    }

    /// Writes every span as a complete (`"ph": "X"`) trace event.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let events = self.spans.iter().zip(self.child_ns()).map(|(s, children)| {
            Json::obj([
                ("name", Json::from(s.name)),
                (
                    "cat",
                    Json::from(s.name.split('.').next().unwrap_or(s.name)),
                ),
                ("ph", Json::from("X")),
                ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                ("dur", Json::F64(s.dur_ns as f64 / 1e3)),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(u64::from(s.tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::U64(s.id)),
                        (
                            "parent",
                            s.parent
                                .map_or(Json::Null, |p| Json::from(self.spans[p].name)),
                        ),
                        (
                            "self_us",
                            Json::F64(s.dur_ns.saturating_sub(children) as f64 / 1e3),
                        ),
                    ]),
                ),
            ])
        });
        let doc = Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
        });
        let st = t.self_times();
        // Exact arithmetic, not sleep lengths: a loaded host oversleeps.
        assert_eq!(st["outer"].self_ns, t.spans[0].dur_ns - t.spans[1].dur_ns);
        assert_eq!(st["inner"].self_ns, t.spans[1].dur_ns);
        assert!(st["outer"].self_ns >= 4_000_000 && st["inner"].self_ns >= 6_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, |_| 5), 5);
        t.leaf("y", 0, Instant::now(), Instant::now());
        assert!(t.self_times().is_empty());
    }
}
