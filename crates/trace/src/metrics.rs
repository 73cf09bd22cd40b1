//! The counter/histogram metrics registry.
//!
//! [`Metrics`] aggregates what the event stream (or instrumented code
//! directly) observed: monotonically increasing counters and log-linear
//! nanosecond histograms ([`Histogram`]). Registries derive from an event
//! batch ([`Metrics::from_events`]), merge across runs
//! ([`Metrics::merge`]), and render as an aligned text table
//! ([`Metrics::to_text`]) or one flat JSON object per entry
//! ([`Metrics::to_json_lines`]) for the same trajectory files the bench
//! harness writes.

use std::collections::BTreeMap;
use std::fmt;

use crate::{json, Event, EventKind};

/// Values below `SUB` are their own bucket; above, each octave
/// `[2^k, 2^(k+1))` splits into `SUB` linear sub-buckets of width
/// `2^(k-4)`.
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// Octaves are tracked up to `2^48` ns (~78 hours); larger values share
/// the last bucket.
const TOP_BITS: u32 = 48;
/// Bucket count: `SUB` exact slots, then `SUB` per octave from `2^4` to
/// `2^48`.
const SLOTS: usize = SUB + (TOP_BITS - SUB_BITS) as usize * SUB;

/// A log-linear histogram of nanosecond durations with a fixed footprint
/// (`SLOTS` = 720 counters, no allocation).
///
/// Values below 16 are recorded exactly; above that, 16 sub-buckets per
/// octave bound the width of a bucket at 1/16 of its lower edge, and a
/// quantile reports its bucket's midpoint — within 1/32 (3.1%) of the
/// exact order statistic, clamped to the observed min and max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count.
    count: u64,
    /// Sum of observed values (for the mean).
    sum: u64,
    /// Smallest observation (u64::MAX until the first).
    min: u64,
    /// Largest observation.
    max: u64,
    buckets: [u64; SLOTS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; SLOTS],
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let value = value.min((1 << TOP_BITS) - 1);
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) as usize & (SUB - 1);
        SUB + (octave - SUB_BITS) as usize * SUB + sub
    }

    /// The midpoint of bucket `i`: its lower edge plus half its width.
    fn bucket_midpoint(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let shift = ((i - SUB) / SUB) as u32;
        let width = 1u64 << shift;
        let lower = (1u64 << (shift + SUB_BITS)) + (i % SUB) as u64 * width;
        lower + width / 2
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate nearest-rank quantile (`q` in `[0, 1]`): the midpoint
    /// of the bucket holding the `q`-th observation, clamped to the
    /// observed range — within 3.1% of the exact order statistic for
    /// values below `2^48`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_midpoint(i).clamp(self.min, self.max));
            }
        }
        self.max()
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

impl Histogram {
    /// Renders `n=… mean=… p50≈… max=…`. With `as_ns`, values are
    /// formatted as durations ([`fmt_ns`]); otherwise as plain numbers
    /// (for dimensionless histograms like `wave.width`).
    pub fn summary(&self, as_ns: bool) -> String {
        if self.count == 0 {
            return "(empty)".to_string();
        }
        let val = |v: u64| if as_ns { fmt_ns(v) } else { v.to_string() };
        format!(
            "n={} mean={} p50≈{} max={}",
            self.count,
            val(self.mean().unwrap_or(0.0) as u64),
            val(self.quantile(0.5).unwrap_or(0)),
            val(self.max),
        )
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary(true))
    }
}

/// Renders nanoseconds with a human unit (ns / µs / ms / s).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A registry of named counters and histograms.
///
/// Names are dotted paths (`events.whnf`, `lift.constant.ns`); the
/// `.ns` suffix marks histograms of nanosecond durations by convention.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &str, by: u64) {
        if by > 0 {
            *self.counters.entry(name.to_string()).or_insert(0) += by;
        }
    }

    /// Records `value_ns` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value_ns: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value_ns);
    }

    /// The counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Is the registry entirely empty?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one (counters add, histograms
    /// merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The standard derivation from an event batch: event-kind counters
    /// (`events.whnf`, `prov.sites`, …) and span-duration histograms
    /// (`lift.constant.ns`, `wave.ns`, `wave.merge.ns`, `run.ns`).
    pub fn from_events(events: &[Event]) -> Metrics {
        let mut m = Metrics::new();
        m.incr("events.total", events.len() as u64);
        for e in events {
            match &e.kind {
                EventKind::Run { .. } => m.observe("run.ns", e.dur_ns),
                EventKind::WaveStart { .. } => {}
                EventKind::Wave { width, .. } => {
                    m.incr("schedule.waves", 1);
                    m.observe("wave.ns", e.dur_ns);
                    m.observe("wave.width", u64::from(*width));
                }
                EventKind::WaveMerge { .. } => m.observe("wave.merge.ns", e.dur_ns),
                EventKind::LiftConstant { .. } => {
                    m.incr("lift.constants", 1);
                    m.observe("lift.constant.ns", e.dur_ns);
                }
                EventKind::Whnf => m.incr("events.whnf", 1),
                EventKind::Conv => m.incr("events.conv", 1),
                EventKind::Rollback { dropped } => {
                    m.incr("rollback.count", 1);
                    m.incr("rollback.dropped", u64::from(*dropped));
                }
                EventKind::Incr {
                    changed,
                    replayed,
                    skipped,
                } => {
                    m.incr("incr.changed", *changed);
                    m.incr("incr.replayed", *replayed);
                    m.incr("incr.skipped", *skipped);
                }
                EventKind::ServeSlow {
                    method,
                    queue_wait_ns,
                    service_ns,
                    ..
                } => {
                    m.incr("serve.slow", 1);
                    m.incr(&format!("serve.slow.{method}"), 1);
                    m.observe("serve.slow.queue_wait.ns", *queue_wait_ns);
                    m.observe("serve.slow.service.ns", *service_ns);
                }
                EventKind::AutoCandidate { .. } => m.incr("auto.candidates", 1),
                EventKind::AutoVerdict { verdict, .. } => {
                    m.incr(&format!("auto.verdict.{verdict}"), 1);
                    m.observe("auto.candidate.ns", e.dur_ns);
                }
                EventKind::ProvConst { .. } => m.incr("prov.constants", 1),
                EventKind::ProvSite { rule, .. } => {
                    m.incr("prov.sites", 1);
                    m.incr(&format!("prov.rule.{rule}"), 1);
                }
                EventKind::Unknown { .. } => m.incr("events.unknown", 1),
            }
        }
        m
    }

    /// Folds the registry into a job-count-invariant canonical form.
    ///
    /// Kernel call counts (`events.whnf`, `events.conv`) legitimately vary
    /// with the worker count: each worker forks its own nf/ty memo tables,
    /// so the recursion they prune differs run to run (see
    /// `semantic_events_agree_across_worker_counts` in the integration
    /// tests). The same goes for timing histograms and for provenance
    /// *site* counts (a worker that misses the lift cache re-expands a
    /// subtree's sites; `rule.cached` absorbs the difference).
    ///
    /// Canonicalization keeps the semantic counters verbatim
    /// (`schedule.waves`, `lift.constants`, `prov.constants`,
    /// `rollback.*`) plus the dimensionless `wave.width` histogram, and
    /// folds each job-variant family into a presence flag:
    /// `kernel.whnf.used`, `kernel.conv.used`, `prov.recorded` (1 when any
    /// probe of that family fired). Two runs of the same repair at
    /// different `--jobs` canonicalize identically.
    pub fn canonicalize(&self) -> Metrics {
        let mut m = Metrics::new();
        for (k, &v) in &self.counters {
            if k == "schedule.waves"
                || k == "lift.constants"
                || k == "prov.constants"
                || k == "events.unknown"
                || k.starts_with("rollback.")
            {
                m.incr(k, v);
            }
        }
        if self.counter("events.whnf") > 0 {
            m.incr("kernel.whnf.used", 1);
        }
        if self.counter("events.conv") > 0 {
            m.incr("kernel.conv.used", 1);
        }
        if self.counter("prov.sites") > 0 {
            m.incr("prov.recorded", 1);
        }
        if let Some(h) = self.histogram("wave.width") {
            m.histograms.insert("wave.width".to_string(), h.clone());
        }
        m
    }

    /// Renders an aligned, name-ordered text table (counters first, then
    /// histogram summaries).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k:<width$}  {}\n", h.summary(k.ends_with(".ns"))));
        }
        out
    }

    /// Renders the registry as JSON lines: one flat object per entry,
    /// `{"metric":NAME,"type":"counter","value":N}` or
    /// `{"metric":NAME,"type":"histogram","count":…,"sum_ns":…,"min_ns":…,
    /// "max_ns":…,"p50_ns":…}`.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!(
                "{{\"metric\":{},\"type\":\"counter\",\"value\":{v}}}\n",
                json::escape(k)
            ));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"metric\":{},\"type\":\"histogram\",\"count\":{},\"sum_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{},\"p50_ns\":{}}}\n",
                json::escape(k),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.quantile(0.5).unwrap_or(0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        for v in [100, 200, 400, 800, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100_000));
        // The median (400) lands in the sub-bucket [400, 416), reported
        // at its midpoint.
        assert_eq!(h.quantile(0.5), Some(408));
        // The top sub-bucket's midpoint (100_352) is clamped to the max.
        assert_eq!(h.quantile(1.0), Some(100_000));
    }

    /// Nearest-rank order statistic over a sorted sample: the oracle.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// Seeded latency-like samples from 1 ns to 2^40 ns, spread across
    /// orders of magnitude.
    fn samples(rng: &mut pumpkin_testkit::Rng) -> Vec<u64> {
        let n = rng.range(1, 2_000) as usize;
        (0..n)
            .map(|_| {
                let magnitude = rng.range(1, 41);
                rng.below(1 << magnitude).max(1)
            })
            .collect()
    }

    #[test]
    fn quantiles_are_within_five_percent_of_exact_order_statistics() {
        pumpkin_testkit::check(64, |rng| {
            let mut values = samples(rng);
            let mut h = Histogram::default();
            for &v in &values {
                h.observe(v);
            }
            values.sort_unstable();
            for q in [0.5, 0.95, 0.99] {
                let approx = h.quantile(q).expect("non-empty") as f64;
                let truth = exact(&values, q) as f64;
                let err = (approx - truth).abs() / truth;
                assert!(
                    err <= 0.05,
                    "q={q}: approx {approx} vs exact {truth} (error {err})"
                );
            }
        });
    }

    #[test]
    fn merging_any_split_equals_recording_everything() {
        pumpkin_testkit::check(64, |rng| {
            let values = samples(rng);
            let mut all = Histogram::default();
            let mut parts = vec![Histogram::default(); rng.range(1, 6) as usize];
            for &v in &values {
                all.observe(v);
                let part = rng.index(parts.len());
                parts[part].observe(v);
            }
            let mut merged = Histogram::default();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, all);
        });
    }

    #[test]
    fn footprint_is_fixed() {
        // Counters plus 720 buckets, whatever is recorded: the registry's
        // memory does not grow with the number of observations.
        assert_eq!(SLOTS, 720);
        assert_eq!(std::mem::size_of::<Histogram>(), (4 + SLOTS) * 8);
        assert_eq!(Histogram::bucket_index(u64::MAX), SLOTS - 1);
    }

    #[test]
    fn histogram_merge_equals_combined_observations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [10, 20, 30] {
            a.observe(v);
            both.observe(v);
        }
        for v in [1000, 2000] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn from_events_derives_standard_names() {
        let ev = |kind: EventKind, dur: u64| Event {
            t_ns: 0,
            dur_ns: dur,
            worker: 0,
            kind,
        };
        let events = vec![
            ev(EventKind::Whnf, 0),
            ev(EventKind::Whnf, 0),
            ev(EventKind::Conv, 0),
            ev(
                EventKind::LiftConstant {
                    name: "Old.rev".into(),
                },
                5_000,
            ),
            ev(EventKind::Wave { wave: 0, width: 3 }, 9_000),
            ev(EventKind::Run { jobs: 2 }, 20_000),
        ];
        let m = Metrics::from_events(&events);
        assert_eq!(m.counter("events.whnf"), 2);
        assert_eq!(m.counter("events.conv"), 1);
        assert_eq!(m.counter("lift.constants"), 1);
        assert_eq!(m.counter("schedule.waves"), 1);
        assert_eq!(m.histogram("lift.constant.ns").unwrap().sum(), 5_000);
        assert_eq!(m.histogram("run.ns").unwrap().count(), 1);
    }

    #[test]
    fn text_and_json_renderings_cover_all_entries() {
        let mut m = Metrics::new();
        m.incr("a.count", 3);
        m.observe("b.ns", 1234);
        let text = m.to_text();
        assert!(text.contains("a.count"));
        assert!(text.contains("b.ns"));
        for line in m.to_json_lines().lines() {
            let obj = json::Value::parse(line).expect("metric lines are valid JSON");
            assert!(obj.get("metric").is_some());
        }
    }

    #[test]
    fn canonicalize_folds_job_variant_counters_into_presence_flags() {
        let mut fast = Metrics::new(); // e.g. jobs=1: warm shared memos
        let mut slow = Metrics::new(); // e.g. jobs=4: forked per-worker memos
        for m in [&mut fast, &mut slow] {
            m.incr("schedule.waves", 4);
            m.incr("lift.constants", 18);
            m.incr("prov.constants", 18);
            m.observe("wave.width", 6);
        }
        fast.incr("events.whnf", 100);
        fast.incr("prov.sites", 40);
        fast.incr("prov.rule.dep_constr", 30);
        fast.incr("prov.rule.cached", 10);
        fast.observe("run.ns", 1_000_000);
        slow.incr("events.whnf", 400);
        slow.incr("prov.sites", 55);
        slow.incr("prov.rule.dep_constr", 30);
        slow.incr("prov.rule.cached", 25);
        slow.observe("run.ns", 700_000);

        assert_ne!(fast, slow);
        let (a, b) = (fast.canonicalize(), slow.canonicalize());
        assert_eq!(a, b, "canonical forms are job-count-invariant");
        assert_eq!(a.counter("lift.constants"), 18);
        assert_eq!(a.counter("kernel.whnf.used"), 1);
        assert_eq!(a.counter("prov.recorded"), 1);
        assert_eq!(a.counter("kernel.conv.used"), 0);
        assert!(a.histogram("run.ns").is_none(), "timings dropped");
        assert_eq!(a.histogram("wave.width").unwrap().count(), 1);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Metrics::new();
        a.incr("x", 1);
        let mut b = Metrics::new();
        b.incr("x", 2);
        b.incr("y", 5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
    }
}
