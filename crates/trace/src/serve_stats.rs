//! Service-side observability for pumpkind: per-method latency and
//! queue-wait histograms, the cumulative repair [`Metrics`], and daemon
//! gauges, designed to sit on the request hot path.
//!
//! The repair engine's tracing ([`crate::Tracer`]) is thread-confined and
//! per-run; a daemon needs the opposite shape — one registry shared by
//! every connection thread and worker, alive for the process, readable at
//! any moment by the `stats` RPC. [`ServeStats`] gets there lock-light:
//!
//! * **Histograms are sharded.** Recording locks one of [`SHARDS`] small
//!   mutexes chosen by the caller's lane (connection id for request
//!   latencies, worker index for repair metrics), so concurrent recorders
//!   contend only when they hash to the same shard. A
//!   [`ServeStats::snapshot`] merges the shards on the *read* side — the
//!   `stats` RPC pays the merge, not the request path. Log-linear buckets
//!   ([`Histogram`]) keep each shard entry at a fixed 720-slot footprint.
//! * **Gauges are atomics.** Counters (busy rejections, cache traffic)
//!   and level gauges (workers busy, live sessions) are plain relaxed
//!   `AtomicU64`s; the queue-depth high-water mark is a `fetch_max`.
//!
//! The snapshot renders to the versioned `stats` RPC schema
//! ([`STATS_SCHEMA`]) in `pumpkin-serve`; this module owns only the data
//! structure so it can be property-tested against exact order statistics
//! without a daemon.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::metrics::{Histogram, Metrics};

/// Version tag carried by the `stats` RPC reply; bump on any shape change
/// so `pumpkin top` and scrapers can fail fast on skew.
pub const STATS_SCHEMA: &str = "pumpkin-serve-stats/2";

/// Histogram shard count. Eight is comfortably above the daemon's default
/// worker count; lanes (connection ids) spread across shards modulo this.
pub const SHARDS: usize = 8;

/// Per-method request statistics: end-to-end latency (parse → reply
/// written) and time spent queued between enqueue and worker pickup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Accept-to-reply-write latency, nanoseconds.
    pub latency: Histogram,
    /// Queue wait, nanoseconds. Control methods answered inline never
    /// queue, so this can have a lower count than `latency`.
    pub queue_wait: Histogram,
}

impl MethodStats {
    /// Folds another method's shard into this one.
    pub fn merge(&mut self, other: &MethodStats) {
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
    }
}

/// The gauge/counter block, all relaxed atomics. Field names are the wire
/// names in the `stats` reply's `"gauges"` object.
#[derive(Debug, Default)]
pub struct Gauges {
    /// Auto-search candidate configurations run through the kernel oracle.
    pub auto_candidates_tried: AtomicU64,
    /// Auto-search candidates skipped by the process-wide failure cache.
    pub auto_failure_cache_hits: AtomicU64,
    /// High-water mark of the work queue depth (post-enqueue).
    pub queue_depth_hwm: AtomicU64,
    /// `busy` replies because the work queue was full.
    pub busy_queue_full: AtomicU64,
    /// `busy` replies because the session cap was reached.
    pub busy_session_cap: AtomicU64,
    /// Workers currently executing a job (not waiting on the queue).
    pub workers_busy: AtomicU64,
    /// Connections currently admitted (accept to close).
    pub live_sessions: AtomicU64,
    /// Session config-cache hits (configured equivalence reused).
    pub config_cache_hits: AtomicU64,
    /// Session config-cache misses (equivalence built fresh).
    pub config_cache_misses: AtomicU64,
    /// Constants replayed from the persistent lift cache.
    pub persist_hits: AtomicU64,
    /// Persist-cache probes that fell back to a fresh lift.
    pub persist_misses: AtomicU64,
    /// Incremental runs: inputs whose digest changed.
    pub incr_changed: AtomicU64,
    /// Incremental runs: constants re-lifted fresh.
    pub incr_replayed: AtomicU64,
    /// Incremental runs: constants not re-lifted.
    pub incr_skipped: AtomicU64,
    /// Requests that crossed the `--slow-ms` threshold and were logged.
    pub slow_logged: AtomicU64,
}

impl Gauges {
    /// The gauge block as (wire name, value) pairs, in stable order.
    pub fn read(&self) -> Vec<(&'static str, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("auto_candidates_tried", g(&self.auto_candidates_tried)),
            ("auto_failure_cache_hits", g(&self.auto_failure_cache_hits)),
            ("busy_queue_full", g(&self.busy_queue_full)),
            ("busy_session_cap", g(&self.busy_session_cap)),
            ("config_cache_hits", g(&self.config_cache_hits)),
            ("config_cache_misses", g(&self.config_cache_misses)),
            ("incr_changed", g(&self.incr_changed)),
            ("incr_replayed", g(&self.incr_replayed)),
            ("incr_skipped", g(&self.incr_skipped)),
            ("live_sessions", g(&self.live_sessions)),
            ("persist_hits", g(&self.persist_hits)),
            ("persist_misses", g(&self.persist_misses)),
            ("queue_depth_hwm", g(&self.queue_depth_hwm)),
            ("slow_logged", g(&self.slow_logged)),
            ("workers_busy", g(&self.workers_busy)),
        ]
    }
}

/// One shard, behind its own mutex: method name → stats, plus the
/// repair metrics recorded on this lane.
#[derive(Debug, Default)]
struct Shard {
    methods: BTreeMap<String, MethodStats>,
    metrics: Metrics,
}

/// A point-in-time merge of every shard, plus the gauge block.
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    /// Per-method histograms, merged across shards, name-ordered.
    pub methods: BTreeMap<String, MethodStats>,
    /// Cumulative repair counters and histograms, merged across shards.
    pub metrics: Metrics,
    /// Gauge (wire name, value) pairs, stable order.
    pub gauges: Vec<(&'static str, u64)>,
}

impl StatsSnapshot {
    /// A named gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// The daemon-wide stats registry. One per server process, shared by
/// `Arc`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct ServeStats {
    shards: [Mutex<Shard>; SHARDS],
    /// The gauge/counter block.
    pub gauges: Gauges,
}

impl ServeStats {
    /// A fresh registry with empty histograms and zeroed gauges.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    fn shard(&self, lane: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(lane % SHARDS as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one completed request: `lane` picks the shard (pass the
    /// connection id — stable per connection, spread across connections),
    /// `latency_ns` is the parse-to-reply-write wall time, and
    /// `queue_wait_ns` is `Some` only for requests that went through the
    /// work queue (control methods answered inline pass `None`).
    pub fn record(&self, lane: u64, method: &str, latency_ns: u64, queue_wait_ns: Option<u64>) {
        let mut shard = self.shard(lane);
        let entry = shard.methods.entry(method.to_string()).or_default();
        entry.latency.observe(latency_ns);
        if let Some(wait) = queue_wait_ns {
            entry.queue_wait.observe(wait);
        }
    }

    /// Folds one repair's metrics into the cumulative registry; `lane`
    /// picks the shard (pass the worker index).
    pub fn record_metrics(&self, lane: u64, metrics: &Metrics) {
        self.shard(lane).metrics.merge(metrics);
    }

    /// Raises the queue-depth high-water mark to `depth` if higher.
    pub fn raise_queue_depth(&self, depth: u64) {
        self.gauges
            .queue_depth_hwm
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Merges every shard and reads every gauge. This is the read-side
    /// cost center; request recording never pays it.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            gauges: self.gauges.read(),
            ..StatsSnapshot::default()
        };
        for lane in 0..SHARDS as u64 {
            let shard = self.shard(lane);
            for (name, stats) in &shard.methods {
                snap.methods.entry(name.clone()).or_default().merge(stats);
            }
            snap.metrics.merge(&shard.metrics);
        }
        snap
    }
}

/// Bumps a relaxed counter by 1 (the idiom for every counter in
/// [`Gauges`]; level gauges pair it with [`dec`]).
pub fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Adds `by` to a relaxed counter.
pub fn add(counter: &AtomicU64, by: u64) {
    if by > 0 {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Decrements a relaxed level gauge, saturating at zero.
pub fn dec(counter: &AtomicU64) {
    // fetch_update never fails with a Some-returning closure.
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let stats = ServeStats::new();
        stats.record(0, "repair", 1_000, Some(100));
        stats.record(1, "repair", 2_000, Some(200));
        stats.record(2, "ping", 500, None);
        inc(&stats.gauges.busy_queue_full);
        stats.raise_queue_depth(7);
        stats.raise_queue_depth(3); // lower: must not regress the HWM
        let mut repair = Metrics::new();
        repair.incr("lift.constants", 2);
        repair.observe("run.ns", 5_000);
        stats.record_metrics(0, &repair);
        stats.record_metrics(3, &repair);

        let snap = stats.snapshot();
        let repair = &snap.methods["repair"];
        assert_eq!(repair.latency.count(), 2);
        assert_eq!(repair.queue_wait.count(), 2);
        let ping = &snap.methods["ping"];
        assert_eq!(ping.latency.count(), 1);
        assert_eq!(ping.queue_wait.count(), 0, "inline methods never queue");
        assert_eq!(snap.gauge("busy_queue_full"), 1);
        assert_eq!(snap.gauge("queue_depth_hwm"), 7);
        assert_eq!(snap.gauge("busy_session_cap"), 0);
        assert_eq!(snap.metrics.counter("lift.constants"), 4);
        assert_eq!(
            snap.metrics.histogram("run.ns").map(Histogram::count),
            Some(2)
        );
    }

    #[test]
    fn level_gauges_saturate_at_zero() {
        let g = Gauges::default();
        inc(&g.workers_busy);
        dec(&g.workers_busy);
        dec(&g.workers_busy);
        assert_eq!(g.workers_busy.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let stats = std::sync::Arc::new(ServeStats::new());
        std::thread::scope(|s| {
            for lane in 0..16u64 {
                let stats = std::sync::Arc::clone(&stats);
                s.spawn(move || {
                    for i in 0..100 {
                        stats.record(lane, "repair", 1_000 + i, Some(i));
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.methods["repair"].latency.count(), 1_600);
        assert_eq!(snap.methods["repair"].queue_wait.count(), 1_600);
    }

    /// Satellite: sharded-merge percentiles equal single-shard percentiles
    /// over random samples — sharding is an implementation detail that
    /// must be invisible in the snapshot.
    #[test]
    fn sharded_merge_percentiles_equal_single_shard() {
        pumpkin_testkit::check(32, |rng| {
            let sharded = ServeStats::new();
            let single = ServeStats::new();
            let n = rng.range(1, 500);
            for i in 0..n {
                // Skew across several orders of magnitude, like latencies.
                let magnitude = rng.range(1, 32);
                let v = rng.below(1 << magnitude);
                sharded.record(i, "repair", v, Some(v / 2));
                single.record(0, "repair", v, Some(v / 2));
            }
            let a = &sharded.snapshot().methods["repair"];
            let b = &single.snapshot().methods["repair"];
            assert_eq!(a, b, "snapshot must be shard-count invariant");
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(a.latency.quantile(q), b.latency.quantile(q));
                assert_eq!(a.queue_wait.quantile(q), b.queue_wait.quantile(q));
            }
        });
    }
}
