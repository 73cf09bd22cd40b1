//! Spans recorded by the benchmark around each public call into a layer of
//! the program. A span has a name, a start and an end (ns since the run's
//! epoch), a parent span and an op id. Spans are kept in memory for the
//! whole run and reduced (or written out) when it ends.
//!
//! Layer self time is a span's duration minus its children's durations:
//! spans of one thread nest properly, so the children's durations are the
//! part of the interval they cover. The op's root span (`bench.op`) keeps,
//! as self time, whatever no layer span covers — the unattributed share.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub const ROOT: &str = "bench.op";
const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// A per-thread span recorder. When off, [`Tracer::begin`] and
/// [`Tracer::end`] only read a flag, so the untraced run pays nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts an op: opens the root span every layer span of the op nests in.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.begin(ROOT);
    }

    pub fn end_op(&mut self) {
        self.end();
        debug_assert!(self.stack.is_empty(), "unbalanced spans in an op");
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans in a run");
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end() matches a begin()");
        self.spans[idx as usize].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: total self time (ns).
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, u64>,
    /// Total duration of the root spans (the traced ops' wall time).
    pub op_total_ns: u64,
    pub ops: u64,
}

impl SelfTimes {
    /// Self time of `name` in ns summed over every span of that name.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Mean self time of `name` per traced op, in ms.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns(name) as f64 / 1e6 / self.ops as f64
    }

    /// Share of op time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.op_total_ns == 0 {
            return 0.0;
        }
        self.self_ns(ROOT) as f64 / self.op_total_ns as f64
    }
}

/// Reduces the spans of one thread (or several, each list self-contained)
/// to per-name self times.
pub fn self_times<'a>(lists: impl IntoIterator<Item = &'a [Span]>) -> SelfTimes {
    let mut out = SelfTimes::default();
    for spans in lists {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            *out.by_name.entry(s.name).or_default() += dur.saturating_sub(covered);
            if s.parent == NONE {
                out.op_total_ns += dur;
                out.ops += 1;
            }
        }
    }
    out
}

/// Writes spans as JSON lines: `{"name","start_ns","end_ns","parent","op"}`
/// with `parent` an index into the same list (or null for a root).
pub fn write_jsonl(path: &std::path::Path, lists: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in lists.iter().enumerate() {
        for s in spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                r#"{{"thread":{thread},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_root_keeps_the_gaps() {
        let spans = vec![
            Span {
                name: ROOT,
                start_ns: 0,
                end_ns: 100,
                parent: NONE,
                op: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 60,
                parent: 0,
                op: 0,
            },
            Span {
                name: "b",
                start_ns: 20,
                end_ns: 30,
                parent: 1,
                op: 0,
            },
            Span {
                name: "c",
                start_ns: 70,
                end_ns: 90,
                parent: 0,
                op: 0,
            },
        ];
        let t = self_times([spans.as_slice()]);
        assert_eq!(t.self_ns("a"), 40);
        assert_eq!(t.self_ns("b"), 10);
        assert_eq!(t.self_ns("c"), 20);
        assert_eq!(t.self_ns(ROOT), 30);
        assert_eq!(t.ops, 1);
        assert!((t.unattributed_share() - 0.3).abs() < 1e-12);
        let sum: u64 = t.by_name.values().sum();
        assert_eq!(sum, t.op_total_ns, "self times partition the op");
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op(1);
        t.span("x", || ());
        t.end_op();
        assert!(t.into_spans().is_empty());
    }
}
