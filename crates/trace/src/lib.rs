//! # pumpkin-trace
//!
//! Zero-dependency structured tracing and metrics for the repair pipeline.
//!
//! The paper's artifact reports one wall-clock number per case study; a
//! production repair service needs to answer *where the time went* — per
//! wave, per worker, per constant, per kernel call — without
//! perturbing the hot path it measures. This crate supplies that substrate
//! under the same no-external-crates discipline as the rest of the
//! workspace:
//!
//! * [`Event`] / [`EventKind`] — the typed event taxonomy (run/wave/merge
//!   spans, per-constant lift spans, `whnf`/`conv` calls, rollbacks),
//!   each stamped with a monotonic nanosecond offset
//!   and a worker id.
//! * [`Tracer`] — a thread-confined event buffer. A disabled tracer is a
//!   single `Option` discriminant check per probe (no allocation, no
//!   timestamp read), so instrumented code pays effectively nothing when
//!   observability is off. Parallel workers get forked tracers
//!   ([`Tracer::fork_worker`]) sharing the run's epoch; their buffers are
//!   merged back at wave barriers ([`Tracer::absorb`]) — no locks anywhere.
//! * [`sink`] — the [`sink::EventSink`] output trait with two built-ins: a
//!   hand-rolled JSON-lines writer ([`sink::JsonLinesSink`], schema in
//!   DESIGN.md §11) and a flamegraph-style text summariser
//!   ([`sink::SummarySink`] / [`summary::render`]).
//! * [`metrics`] — a counter/histogram registry ([`metrics::Metrics`]),
//!   derivable from an event stream and mergeable across runs.
//! * [`json`] — the workspace's one JSON [`json::Value`] (deterministic
//!   writer, depth-capped parser), backing the sink, the golden-file
//!   round-trip tests and the `pumpkin-wire` protocol.
//! * [`prov`] — the versioned `prov` event family: per-subterm attribution
//!   of every rewrite to the configuration rule that fired (paper §4).
//! * [`report`] — offline trace analysis (`pumpkin trace-report`):
//!   critical-path extraction, hottest lifts, per-constant kernel calls,
//!   structural diff of two traces, schema lint.

pub mod json;
pub mod metrics;
pub mod prov;
pub mod report;
pub mod serve_stats;
pub mod sink;
pub mod summary;

use std::cell::{Cell, RefCell};
use std::time::Instant;

pub use metrics::{Histogram, Metrics};
pub use sink::{EventSink, JsonLinesSink, SummarySink};

/// Version stamp carried by the `auto_candidate`/`auto_verdict` event
/// family (like [`prov::PROV_SCHEMA_VERSION`] for the `prov` family);
/// readers treat other versions as [`EventKind::Unknown`].
pub const AUTO_SCHEMA_VERSION: u32 = 1;

/// The typed event taxonomy. Span-shaped kinds (run, wave, merge, lift)
/// carry their duration on the enclosing [`Event`]; instant kinds have
/// `dur_ns == 0`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Span over one whole repair run (the `Repairer` front door).
    Run {
        /// Worker cap the run was configured with.
        jobs: u32,
    },
    /// Instant marker at the start of a scheduler wave.
    WaveStart {
        /// Wave index, starting at 0.
        wave: u32,
        /// Constants in the wave.
        width: u32,
    },
    /// Span over a whole scheduler wave (workers + merge barrier).
    Wave {
        /// Wave index, starting at 0.
        wave: u32,
        /// Constants in the wave.
        width: u32,
    },
    /// Span over a wave's merge barrier (admitting worker deltas and
    /// folding caches back into the master).
    WaveMerge {
        /// Wave index, starting at 0.
        wave: u32,
    },
    /// Span over the repair of one constant (nested spans mark on-demand
    /// dependency repairs).
    LiftConstant {
        /// The source constant being repaired.
        name: Box<str>,
    },
    /// Instant: one non-trivial weak-head-normalisation call.
    Whnf,
    /// Instant: one non-trivial conversion call.
    Conv,
    /// Instant: a failing wave's declarations were rolled back.
    Rollback {
        /// Declarations dropped.
        dropped: u32,
    },
    /// Instant: incremental accounting for a differential run — how many
    /// work-list inputs changed since the digest snapshot, how many
    /// constants were re-lifted fresh, and how many were skipped
    /// (persist-cache replays or already-mapped constants).
    Incr {
        /// Inputs whose source digest changed.
        changed: u64,
        /// Constants re-lifted fresh (the invalidated closure).
        replayed: u64,
        /// Constants not re-lifted.
        skipped: u64,
    },
    /// Instant (`serve_*` family): one daemon request that exceeded the
    /// `--slow-ms` threshold, with its lifecycle breakdown. `t_ns` is the
    /// offset of the frame's arrival since the daemon's epoch and `dur_ns`
    /// is the full accept-to-reply-write wall time; the payload splits it.
    ServeSlow {
        /// The request id echoed to the client as `req_id`.
        req_id: u64,
        /// The RPC method name.
        method: Box<str>,
        /// Nanoseconds spent queued between enqueue and worker pickup.
        queue_wait_ns: u64,
        /// Nanoseconds inside the session handling the request.
        service_ns: u64,
        /// Nanoseconds writing the reply frame back to the socket.
        write_ns: u64,
    },
    /// Instant (`prov` family, versioned): header for one repaired
    /// constant's provenance tree; followed by `sites` [`EventKind::ProvSite`]
    /// events.
    ProvConst {
        /// The source constant.
        name: Box<str>,
        /// Its repaired name.
        to: Box<str>,
        /// How many `prov_site` events follow for this constant.
        sites: u32,
    },
    /// Instant (`prov` family, versioned): one rewrite site inside a
    /// repaired constant — at `path`, `rule` rewrote `src` into `dst`.
    ProvSite {
        /// The source constant this site belongs to.
        constant: Box<str>,
        /// Dotted canonical subterm path (`""` = declaration root; see
        /// [`prov`] module docs).
        path: Box<str>,
        /// The configuration rule that fired.
        rule: prov::Rule,
        /// Pretty-printed (truncated) source subterm.
        src: Box<str>,
        /// Pretty-printed (truncated) produced subterm.
        dst: Box<str>,
    },
    /// Instant (`auto` family, versioned): the automatic repair search is
    /// about to run one candidate configuration through the kernel oracle.
    AutoCandidate {
        /// Candidate index in enumeration (ranked) order, starting at 0.
        index: u32,
        /// Human-readable candidate description (mapping + toggles).
        config: Box<str>,
    },
    /// Instant (`auto` family, versioned): the oracle's verdict on one
    /// candidate — `accepted`, `rejected`, or `skipped_cache`.
    AutoVerdict {
        /// Candidate index, matching the preceding [`EventKind::AutoCandidate`].
        index: u32,
        /// `accepted`, `rejected`, or `skipped_cache`.
        verdict: Box<str>,
        /// The failure's error class; empty for accepted candidates.
        class: Box<str>,
    },
    /// A schema-valid line whose `kind` (or `prov`/`auto` schema version)
    /// this reader does not know. The raw line is preserved verbatim so
    /// re-serialising a trace written by a newer producer is lossless.
    Unknown {
        /// The wire `kind` string we did not recognise.
        kind: Box<str>,
        /// The original line, byte for byte.
        raw: Box<str>,
    },
}

impl EventKind {
    /// The stable wire name used in the JSON-lines schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Run { .. } => "run",
            EventKind::WaveStart { .. } => "wave_start",
            EventKind::Wave { .. } => "wave",
            EventKind::WaveMerge { .. } => "wave_merge",
            EventKind::LiftConstant { .. } => "lift_constant",
            EventKind::Whnf => "whnf",
            EventKind::Conv => "conv",
            EventKind::Rollback { .. } => "rollback",
            EventKind::Incr { .. } => "incr",
            EventKind::ServeSlow { .. } => "serve_slow",
            EventKind::ProvConst { .. } => "prov_const",
            EventKind::ProvSite { .. } => "prov_site",
            EventKind::AutoCandidate { .. } => "auto_candidate",
            EventKind::AutoVerdict { .. } => "auto_verdict",
            // The preserved wire kind lives in the variant's `kind` field;
            // this is the reader-side taxonomy name.
            EventKind::Unknown { .. } => "unknown",
        }
    }
}

/// One trace event: a typed kind, a monotonic start offset in nanoseconds
/// since the run's epoch, a duration (0 for instants), and the id of the
/// worker whose thread-confined buffer recorded it (0 = the master).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// Start offset, nanoseconds since the tracer's epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
    /// Recording worker (0 = master; workers are numbered from 1 per wave).
    pub worker: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serialises the event as one JSON object (no trailing newline),
    /// following the schema documented in DESIGN.md §11. Key order is
    /// stable: `t_ns`, `dur_ns`, `worker`, `kind`, then kind-specific
    /// fields. [`EventKind::Unknown`] events re-serialise as their
    /// preserved raw line, byte for byte.
    pub fn to_json(&self) -> String {
        if let EventKind::Unknown { raw, .. } = &self.kind {
            return raw.to_string();
        }
        let mut s = String::with_capacity(96);
        s.push_str("{\"t_ns\":");
        s.push_str(&self.t_ns.to_string());
        s.push_str(",\"dur_ns\":");
        s.push_str(&self.dur_ns.to_string());
        s.push_str(",\"worker\":");
        s.push_str(&self.worker.to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push('"');
        match &self.kind {
            EventKind::Run { jobs } => {
                s.push_str(",\"jobs\":");
                s.push_str(&jobs.to_string());
            }
            EventKind::WaveStart { wave, width } | EventKind::Wave { wave, width } => {
                s.push_str(",\"wave\":");
                s.push_str(&wave.to_string());
                s.push_str(",\"width\":");
                s.push_str(&width.to_string());
            }
            EventKind::WaveMerge { wave } => {
                s.push_str(",\"wave\":");
                s.push_str(&wave.to_string());
            }
            EventKind::LiftConstant { name } => {
                s.push_str(",\"name\":");
                json::escape_into(name, &mut s);
            }
            EventKind::Rollback { dropped } => {
                s.push_str(",\"dropped\":");
                s.push_str(&dropped.to_string());
            }
            EventKind::Incr {
                changed,
                replayed,
                skipped,
            } => {
                s.push_str(",\"changed\":");
                s.push_str(&changed.to_string());
                s.push_str(",\"replayed\":");
                s.push_str(&replayed.to_string());
                s.push_str(",\"skipped\":");
                s.push_str(&skipped.to_string());
            }
            EventKind::ServeSlow {
                req_id,
                method,
                queue_wait_ns,
                service_ns,
                write_ns,
            } => {
                s.push_str(",\"req_id\":");
                s.push_str(&req_id.to_string());
                s.push_str(",\"method\":");
                json::escape_into(method, &mut s);
                s.push_str(",\"queue_wait_ns\":");
                s.push_str(&queue_wait_ns.to_string());
                s.push_str(",\"service_ns\":");
                s.push_str(&service_ns.to_string());
                s.push_str(",\"write_ns\":");
                s.push_str(&write_ns.to_string());
            }
            EventKind::ProvConst { name, to, sites } => {
                s.push_str(",\"v\":");
                s.push_str(&prov::PROV_SCHEMA_VERSION.to_string());
                s.push_str(",\"name\":");
                json::escape_into(name, &mut s);
                s.push_str(",\"to\":");
                json::escape_into(to, &mut s);
                s.push_str(",\"sites\":");
                s.push_str(&sites.to_string());
            }
            EventKind::ProvSite {
                constant,
                path,
                rule,
                src,
                dst,
            } => {
                s.push_str(",\"v\":");
                s.push_str(&prov::PROV_SCHEMA_VERSION.to_string());
                s.push_str(",\"const\":");
                json::escape_into(constant, &mut s);
                s.push_str(",\"path\":");
                json::escape_into(path, &mut s);
                s.push_str(",\"rule\":\"");
                s.push_str(rule.as_str());
                s.push('"');
                s.push_str(",\"src\":");
                json::escape_into(src, &mut s);
                s.push_str(",\"dst\":");
                json::escape_into(dst, &mut s);
            }
            EventKind::AutoCandidate { index, config } => {
                s.push_str(",\"v\":");
                s.push_str(&AUTO_SCHEMA_VERSION.to_string());
                s.push_str(",\"index\":");
                s.push_str(&index.to_string());
                s.push_str(",\"config\":");
                json::escape_into(config, &mut s);
            }
            EventKind::AutoVerdict {
                index,
                verdict,
                class,
            } => {
                s.push_str(",\"v\":");
                s.push_str(&AUTO_SCHEMA_VERSION.to_string());
                s.push_str(",\"index\":");
                s.push_str(&index.to_string());
                s.push_str(",\"verdict\":");
                json::escape_into(verdict, &mut s);
                s.push_str(",\"class\":");
                json::escape_into(class, &mut s);
            }
            EventKind::Whnf | EventKind::Conv => {}
            EventKind::Unknown { .. } => unreachable!("handled above"),
        }
        s.push('}');
        s
    }

    /// Parses one JSON line produced by [`Event::to_json`] (or any JSON
    /// object with the same fields, in any key order). Returns `None`
    /// only on malformed input (bad JSON, missing base fields, or a known
    /// kind with broken payload); a structurally valid line with an
    /// *unrecognised* `kind` — or a `prov` event from a newer schema
    /// version — parses to [`EventKind::Unknown`], preserving the raw line
    /// so forward-compatible round-trips are lossless.
    pub fn from_json(line: &str) -> Option<Event> {
        let obj = json::Value::parse(line).ok()?;
        let num = |k: &str| -> Option<u64> { obj.get(k)?.as_u64() };
        let st = |k: &str| -> Option<&str> { obj.get(k)?.as_str() };
        let unknown = |kind: &str| EventKind::Unknown {
            kind: kind.into(),
            raw: line.into(),
        };
        let kind = match st("kind")? {
            "run" => EventKind::Run {
                jobs: num("jobs")? as u32,
            },
            "wave_start" => EventKind::WaveStart {
                wave: num("wave")? as u32,
                width: num("width")? as u32,
            },
            "wave" => EventKind::Wave {
                wave: num("wave")? as u32,
                width: num("width")? as u32,
            },
            "wave_merge" => EventKind::WaveMerge {
                wave: num("wave")? as u32,
            },
            "lift_constant" => EventKind::LiftConstant {
                name: st("name")?.into(),
            },
            "whnf" => EventKind::Whnf,
            "conv" => EventKind::Conv,
            "rollback" => EventKind::Rollback {
                dropped: num("dropped")? as u32,
            },
            "incr" => EventKind::Incr {
                changed: num("changed")?,
                replayed: num("replayed")?,
                skipped: num("skipped")?,
            },
            "serve_slow" => EventKind::ServeSlow {
                req_id: num("req_id")?,
                method: st("method")?.into(),
                queue_wait_ns: num("queue_wait_ns")?,
                service_ns: num("service_ns")?,
                write_ns: num("write_ns")?,
            },
            k @ ("prov_const" | "prov_site")
                if num("v") != Some(u64::from(prov::PROV_SCHEMA_VERSION)) =>
            {
                // A future (or missing) prov schema version: preserve, don't
                // guess at field meanings.
                unknown(k)
            }
            "prov_const" => EventKind::ProvConst {
                name: st("name")?.into(),
                to: st("to")?.into(),
                sites: num("sites")? as u32,
            },
            "prov_site" => EventKind::ProvSite {
                constant: st("const")?.into(),
                path: st("path")?.into(),
                rule: prov::Rule::from_str_opt(st("rule")?)?,
                src: st("src")?.into(),
                dst: st("dst")?.into(),
            },
            k @ ("auto_candidate" | "auto_verdict")
                if num("v") != Some(u64::from(AUTO_SCHEMA_VERSION)) =>
            {
                // A future (or missing) auto schema version: preserve, don't
                // guess at field meanings.
                unknown(k)
            }
            "auto_candidate" => EventKind::AutoCandidate {
                index: num("index")? as u32,
                config: st("config")?.into(),
            },
            "auto_verdict" => EventKind::AutoVerdict {
                index: num("index")? as u32,
                verdict: st("verdict")?.into(),
                class: st("class")?.into(),
            },
            k => unknown(k),
        };
        Some(Event {
            t_ns: num("t_ns")?,
            dur_ns: num("dur_ns")?,
            worker: num("worker")? as u32,
            kind,
        })
    }
}

/// An in-flight span handle from [`Tracer::begin`]; close it with
/// [`Tracer::end`]. Carries the start offset (`None` when the tracer is
/// disabled, making the whole begin/end pair free).
#[derive(Clone, Copy, Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct SpanStart(Option<u64>);

#[derive(Debug)]
struct TracerInner {
    /// The run's shared monotonic epoch; forked workers keep it so event
    /// timestamps are comparable across threads.
    epoch: Instant,
    /// This buffer's worker id (0 = master).
    worker: u32,
    /// While paused, probes are dropped (used to hide debug-only
    /// re-typechecking from the event stream so debug and release traces
    /// agree).
    paused: Cell<bool>,
    /// The thread-confined event buffer.
    buf: RefCell<Vec<Event>>,
}

/// A thread-confined trace event buffer.
///
/// A `Tracer` is either *disabled* (the [`Default`], a single `None` — every
/// probe is one branch, no timestamp read, no allocation) or *enabled*
/// (owns an epoch and an event buffer). It deliberately has no
/// synchronisation: each tracer belongs to one thread, mirroring the
/// kernel `Env` cache-confinement rule. Cross-thread aggregation is
/// explicit — fork with [`Tracer::fork_worker`], move the fork onto the
/// worker thread, ship the events back as plain data, and fold them in
/// with [`Tracer::absorb`] at the barrier.
///
/// Cloning an enabled tracer yields an enabled tracer with the same epoch,
/// worker id, and pause state but an **empty** buffer: events belong to
/// the buffer that recorded them, never to copies (this is what makes
/// `Env::clone` snapshots for workers trace-safe by default).
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Box<TracerInner>>,
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        match &self.inner {
            None => Tracer { inner: None },
            Some(i) => Tracer {
                inner: Some(Box::new(TracerInner {
                    epoch: i.epoch,
                    worker: i.worker,
                    paused: Cell::new(i.paused.get()),
                    buf: RefCell::new(Vec::new()),
                })),
            },
        }
    }
}

impl Tracer {
    /// An enabled tracer for the master (worker 0) with a fresh epoch.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Box::new(TracerInner {
                epoch: Instant::now(),
                worker: 0,
                paused: Cell::new(false),
                buf: RefCell::new(Vec::new()),
            })),
        }
    }

    /// A disabled tracer: every operation is a no-op costing one branch.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Is this tracer recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh, empty tracer for a parallel worker: shares this tracer's
    /// epoch (so timestamps are comparable) but records under `worker`.
    /// Disabled tracers fork disabled tracers.
    pub fn fork_worker(&self, worker: u32) -> Tracer {
        match &self.inner {
            None => Tracer { inner: None },
            Some(i) => Tracer {
                inner: Some(Box::new(TracerInner {
                    epoch: i.epoch,
                    worker,
                    paused: Cell::new(false),
                    buf: RefCell::new(Vec::new()),
                })),
            },
        }
    }

    /// Pauses or resumes recording. Paused probes are dropped entirely;
    /// used to keep debug-only re-typechecking (e.g. `Env::admit_checked`'s
    /// debug re-check) out of the stream so debug and release traces are
    /// identical.
    pub fn pause(&self, paused: bool) {
        if let Some(i) = &self.inner {
            i.paused.set(paused);
        }
    }

    /// Nanoseconds since this tracer's epoch (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Records an instant event.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        let Some(i) = &self.inner else { return };
        if i.paused.get() {
            return;
        }
        let t_ns = i.epoch.elapsed().as_nanos() as u64;
        i.buf.borrow_mut().push(Event {
            t_ns,
            dur_ns: 0,
            worker: i.worker,
            kind,
        });
    }

    /// Opens a span: captures the start timestamp (or nothing when
    /// disabled). Close it with [`Tracer::end`].
    #[inline]
    pub fn begin(&self) -> SpanStart {
        match &self.inner {
            None => SpanStart(None),
            Some(i) => {
                if i.paused.get() {
                    SpanStart(None)
                } else {
                    SpanStart(Some(i.epoch.elapsed().as_nanos() as u64))
                }
            }
        }
    }

    /// Closes a span opened by [`Tracer::begin`], recording one event whose
    /// `t_ns` is the span's start and whose `dur_ns` is the elapsed time.
    #[inline]
    pub fn end(&self, span: SpanStart, kind: EventKind) {
        let (Some(i), Some(start)) = (&self.inner, span.0) else {
            return;
        };
        if i.paused.get() {
            return;
        }
        let now = i.epoch.elapsed().as_nanos() as u64;
        i.buf.borrow_mut().push(Event {
            t_ns: start,
            dur_ns: now.saturating_sub(start),
            worker: i.worker,
            kind,
        });
    }

    /// Folds a batch of events (a worker's shipped buffer) into this
    /// tracer, preserving their timestamps and worker ids. No-op when
    /// disabled.
    pub fn absorb(&self, events: Vec<Event>) {
        if let Some(i) = &self.inner {
            i.buf.borrow_mut().extend(events);
        }
    }

    /// Takes the recorded events out, leaving the buffer empty.
    pub fn drain(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(i) => std::mem::take(&mut i.buf.borrow_mut()),
        }
    }

    /// Consumes the tracer, returning its events.
    pub fn into_events(self) -> Vec<Event> {
        self.drain()
    }

    /// Number of buffered events (0 when disabled).
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(i) => i.buf.borrow().len(),
        }
    }

    /// Is the buffer empty (always true when disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.emit(EventKind::Whnf);
        let sp = t.begin();
        t.end(sp, EventKind::Run { jobs: 1 });
        assert!(!t.enabled());
        assert!(t.is_empty());
    }

    #[test]
    fn spans_carry_start_and_duration() {
        let t = Tracer::new();
        let sp = t.begin();
        t.emit(EventKind::Whnf);
        t.end(
            sp,
            EventKind::LiftConstant {
                name: "Old.rev".into(),
            },
        );
        let events = t.into_events();
        assert_eq!(events.len(), 2);
        let lift = &events[1];
        assert_eq!(lift.kind.as_str(), "lift_constant");
        // The span started before the instant event inside it.
        assert!(lift.t_ns <= events[0].t_ns);
        assert!(lift.t_ns + lift.dur_ns >= events[0].t_ns);
    }

    #[test]
    fn fork_shares_epoch_and_absorb_merges() {
        let master = Tracer::new();
        master.emit(EventKind::Whnf);
        let worker = master.fork_worker(3);
        worker.emit(EventKind::Conv);
        let worker_events = worker.into_events();
        assert_eq!(worker_events[0].worker, 3);
        master.absorb(worker_events);
        let all = master.into_events();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].worker, 0);
        assert_eq!(all[1].worker, 3);
        // Shared epoch: the worker's event is not before the master's.
        assert!(all[1].t_ns >= all[0].t_ns);
    }

    #[test]
    fn clone_keeps_config_but_not_events() {
        let t = Tracer::new();
        t.emit(EventKind::Whnf);
        let c = t.clone();
        assert!(c.enabled());
        assert!(c.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pause_drops_probes() {
        let t = Tracer::new();
        t.pause(true);
        t.emit(EventKind::Whnf);
        let sp = t.begin();
        t.end(sp, EventKind::Conv);
        t.pause(false);
        t.emit(EventKind::Conv);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn every_kind_round_trips_through_json() {
        let kinds = vec![
            EventKind::Run { jobs: 4 },
            EventKind::WaveStart { wave: 0, width: 6 },
            EventKind::Wave { wave: 2, width: 1 },
            EventKind::WaveMerge { wave: 2 },
            EventKind::LiftConstant {
                name: "Old.rev_app_distr \"quoted\\\"".into(),
            },
            EventKind::Whnf,
            EventKind::Conv,
            EventKind::Rollback { dropped: 7 },
            EventKind::Incr {
                changed: 1,
                replayed: 2,
                skipped: 11,
            },
            EventKind::ServeSlow {
                req_id: 42,
                method: "repair_module".into(),
                queue_wait_ns: 1_000,
                service_ns: 2_000_000,
                write_ns: 50,
            },
            EventKind::ProvConst {
                name: "Old.rev".into(),
                to: "New.rev".into(),
                sites: 3,
            },
            EventKind::ProvSite {
                constant: "Old.rev".into(),
                path: "1.0.2".into(),
                rule: prov::Rule::DepConstr,
                src: "Old.cons nat".into(),
                dst: "New.cons nat".into(),
            },
            EventKind::AutoCandidate {
                index: 3,
                config: "mapping#1 eta=off smart_elim=on".into(),
            },
            EventKind::AutoVerdict {
                index: 3,
                verdict: "rejected".into(),
                class: "kernel".into(),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = Event {
                t_ns: 1000 + i as u64,
                dur_ns: i as u64,
                worker: i as u32,
                kind,
            };
            let line = e.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|| panic!("unparsable: {line}"));
            assert_eq!(e, back, "round trip failed for {line}");
        }
    }

    #[test]
    fn from_json_rejects_malformed_lines() {
        assert_eq!(Event::from_json(""), None);
        assert_eq!(Event::from_json("{}"), None);
        assert_eq!(Event::from_json("not json at all"), None);
        // A known kind with a broken payload is malformed, not unknown.
        assert_eq!(
            Event::from_json("{\"t_ns\":1,\"dur_ns\":0,\"worker\":0,\"kind\":\"rollback\"}"),
            None
        );
    }

    #[test]
    fn unknown_kinds_are_preserved_and_round_trip_verbatim() {
        let line = "{\"t_ns\":1,\"dur_ns\":0,\"worker\":0,\"kind\":\"nope\",\"extra\":42}";
        let e = Event::from_json(line).expect("unknown kinds parse, not reject");
        assert_eq!(e.t_ns, 1);
        match &e.kind {
            EventKind::Unknown { kind, raw } => {
                assert_eq!(&**kind, "nope");
                assert_eq!(&**raw, line);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert_eq!(e.to_json(), line, "raw line preserved byte for byte");
    }

    #[test]
    fn retired_cache_probe_lines_parse_as_unknown() {
        // Traces written while per-probe cache events existed still read
        // back, verbatim.
        let line =
            "{\"t_ns\":5,\"dur_ns\":0,\"worker\":0,\"kind\":\"cache_hit\",\"table\":\"lift\"}";
        let e = Event::from_json(line).expect("old lines parse");
        assert!(matches!(&e.kind, EventKind::Unknown { kind, .. } if &**kind == "cache_hit"));
        assert_eq!(e.to_json(), line);
    }

    #[test]
    fn future_auto_schema_versions_parse_as_unknown() {
        let future = format!(
            "{{\"t_ns\":0,\"dur_ns\":0,\"worker\":0,\"kind\":\"auto_verdict\",\"v\":{},\
             \"index\":0,\"verdict\":\"accepted\",\"class\":\"\"}}",
            AUTO_SCHEMA_VERSION + 1
        );
        let e = Event::from_json(&future).expect("future auto events parse");
        assert!(matches!(e.kind, EventKind::Unknown { .. }));
        assert_eq!(e.to_json(), future);
    }

    #[test]
    fn future_prov_schema_versions_parse_as_unknown() {
        let future = format!(
            "{{\"t_ns\":0,\"dur_ns\":0,\"worker\":0,\"kind\":\"prov_const\",\"v\":{},\
             \"name\":\"a\",\"to\":\"b\",\"sites\":0}}",
            prov::PROV_SCHEMA_VERSION + 1
        );
        let e = Event::from_json(&future).expect("future prov events parse");
        assert!(matches!(e.kind, EventKind::Unknown { .. }));
        assert_eq!(e.to_json(), future);
    }
}
