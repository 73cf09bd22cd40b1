//! `pumpkin loadgen` — a seed-replayable load generator for pumpkind.
//!
//! Drives a daemon over loopback with many concurrent simulated clients
//! and reports tail latency (p50/p95/p99) and throughput in the
//! `pumpkin-bench/v1` JSON-lines schema, so `bench_guard.sh` can gate
//! service-level regressions the same way it gates micro-benchmarks.
//!
//! Two arrival disciplines:
//!
//! * **closed loop** — each client issues its next request as soon as
//!   the previous reply lands; latency is request-to-reply (including
//!   `busy` retries), throughput is completed requests over wall time.
//!   This measures the pipe's capacity.
//! * **open loop** — requests arrive on a fixed schedule regardless of
//!   how the server is doing, and each latency is measured from the
//!   request's *scheduled* start, not from when a thread got around to
//!   sending it. This avoids coordinated omission: a stalled server
//!   inflates the recorded tail instead of silently slowing the
//!   generator down.
//!
//! The request stream is a pure function of `seed`: request `i` of
//! client `c` (closed loop) or scheduled slot `i` (open loop) is derived
//! from a [`pumpkin_testkit::Rng`] keyed on those indices alone, so a
//! run is replayable regardless of thread interleaving. Requests are
//! `repair`/`repair_module` calls over the stdlib swap-module constants
//! with `"deterministic": true` — the same warm-cache-friendly workload
//! the daemon is built to amortize.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pumpkin_core::trace::Histogram;
use pumpkin_serve::{Client, ClientError, Server, ServerConfig};
use pumpkin_testkit::{json_lines, Rng, Sample};
use pumpkin_wire::{LiftSpec, Value};

/// Arrival discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Each client sends its next request when the previous reply lands.
    Closed,
    /// Requests arrive on a fixed schedule; latency is measured from the
    /// scheduled start.
    Open,
}

/// Knobs for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Address of a running daemon; `None` spawns an in-process server
    /// on a loopback port (and drains it afterwards).
    pub connect: Option<String>,
    pub mode: Mode,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client (closed loop only).
    pub requests: usize,
    /// Total arrival rate in requests/second (open loop only).
    pub rate: f64,
    /// Schedule length (open loop only).
    pub duration_ms: u64,
    /// Replay seed for the request stream.
    pub seed: u64,
    /// Worker threads for the in-process server.
    pub workers: usize,
    /// Work-queue bound for the in-process server.
    pub queue_depth: usize,
    /// Per-request repair job cap.
    pub jobs: usize,
    /// Measurement passes. Every row gets one time per trial, so guard
    /// medians are taken over real repetition instead of a single
    /// observation; the spawned server (and its warm caches) is reused
    /// across trials, and each trial replays the identical seeded request
    /// stream.
    pub trials: usize,
    /// Incremental-repair mix: with `touch_rate` in (0, 1], every request
    /// asks for `"incremental": true` *except* a `touch_rate` fraction,
    /// which go out cold — simulating an editor touching the module and
    /// forcing a fresh diff. Zero (the default) keeps the classic
    /// all-cold stream byte-identical to previous releases.
    pub touch_rate: f64,
    /// Broken-module mix: a `fail_rate` fraction of requests are
    /// `repair_auto` calls over a seed-derived *broken* module (a name
    /// collision no candidate configuration can repair), so the stream
    /// exercises the automatic search's exhaustion path and its
    /// process-wide failure cache under load. The expected
    /// `auto_exhausted` replies count as completions (that *is* the
    /// service's answer), and their latencies land in separate
    /// `serve_load/auto_*` rows. Zero (the default) keeps the classic
    /// stream.
    pub fail_rate: f64,
    /// Snapshot the daemon's `stats` RPC after the trials and emit the
    /// server-side latency/queue-wait percentiles as extra
    /// `serve_load/server_*` rows — the server's own view of the same
    /// load, so client-vs-server tail comparisons ride the bench schema.
    pub server_stats: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connect: None,
            mode: Mode::Closed,
            clients: 32,
            requests: 8,
            rate: 50.0,
            duration_ms: 2000,
            seed: 0xD06_F00D,
            workers: 2,
            queue_depth: 32,
            jobs: 1,
            trials: 3,
            touch_rate: 0.0,
            fail_rate: 0.0,
            server_stats: false,
        }
    }
}

/// What a run measured. Totals aggregate over every trial; the per-trial
/// measurements behind the multi-sample rows are kept separately.
#[derive(Debug)]
pub struct LoadgenReport {
    pub mode: Mode,
    pub clients: usize,
    /// Successful replies across all trials (the latency population).
    pub completed: usize,
    /// `busy` refusals observed (retried in closed loop, dropped in open
    /// loop).
    pub busy: usize,
    /// Requests abandoned on non-`busy` errors.
    pub errors: usize,
    /// Expected `auto_exhausted` replies from the broken-module mix
    /// (completions, counted separately for the summary).
    pub exhausted: usize,
    /// Wall time summed over trials.
    pub elapsed: Duration,
    /// All latencies merged across trials (drives [`LoadgenReport::summary`]).
    pub hist: Histogram,
    trials: Vec<Trial>,
    /// Server-side `serve_load/server_*` rows (empty unless
    /// [`LoadgenConfig::server_stats`] asked for them).
    server_rows: Vec<Sample>,
}

/// A latency quantile in nanoseconds (0 for an empty population).
fn quantile(h: &Histogram, q: f64) -> u64 {
    h.quantile(q).unwrap_or(0)
}

/// One measurement pass.
#[derive(Debug)]
struct Trial {
    hist: Histogram,
    auto_hist: Histogram,
    elapsed: Duration,
}

impl LoadgenReport {
    /// The guard-facing rows: one time per trial per row, so the guard's
    /// median is over genuine repetition rather than a single observation.
    /// Throughput is encoded as *nanoseconds per completed request* so
    /// `bench_guard.sh`'s higher-is-worse median rule applies to it
    /// unchanged.
    pub fn rows(&self) -> Vec<Sample> {
        let mut p50s = Vec::with_capacity(self.trials.len());
        let mut p95s = Vec::with_capacity(self.trials.len());
        let mut p99s = Vec::with_capacity(self.trials.len());
        let mut thrs = Vec::with_capacity(self.trials.len());
        for trial in &self.trials {
            p50s.push(quantile(&trial.hist, 0.5));
            p95s.push(quantile(&trial.hist, 0.95));
            p99s.push(quantile(&trial.hist, 0.99));
            thrs.push(if trial.hist.count() == 0 {
                0
            } else {
                u64::try_from(trial.elapsed.as_nanos() / u128::from(trial.hist.count()))
                    .unwrap_or(u64::MAX)
            });
        }
        let mut rows = vec![
            Sample::from_times("serve_load/p50", p50s),
            Sample::from_times("serve_load/p95", p95s),
            Sample::from_times("serve_load/p99", p99s),
            Sample::from_times("serve_load/throughput", thrs),
        ];
        // Broken-module mix rows, present only when a fail-rate run put
        // `repair_auto` latencies in every trial's auto population.
        if self.trials.iter().all(|t| t.auto_hist.count() > 0) && !self.trials.is_empty() {
            let a50s = self
                .trials
                .iter()
                .map(|t| quantile(&t.auto_hist, 0.5))
                .collect();
            let a99s = self
                .trials
                .iter()
                .map(|t| quantile(&t.auto_hist, 0.99))
                .collect();
            rows.push(Sample::from_times("serve_load/auto_p50", a50s));
            rows.push(Sample::from_times("serve_load/auto_p99", a99s));
        }
        rows.extend(self.server_rows.iter().cloned());
        rows
    }

    /// The full `pumpkin-bench/v1` report (header plus rows).
    pub fn to_json_lines(&self) -> String {
        json_lines(self.completed, &self.rows())
    }

    /// A human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let rps = if self.elapsed.as_secs_f64() > 0.0 {
            self.completed as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        };
        format!(
            "loadgen: mode={:?} clients={} completed={} busy={} errors={} exhausted={}\n\
             loadgen: p50 {:.2} ms | p95 {:.2} ms | p99 {:.2} ms | max {:.2} ms\n\
             loadgen: {:.1} req/s over {:.2} s",
            self.mode,
            self.clients,
            self.completed,
            self.busy,
            self.errors,
            self.exhausted,
            ms(quantile(&self.hist, 0.5)),
            ms(quantile(&self.hist, 0.95)),
            ms(quantile(&self.hist, 0.99)),
            ms(self.hist.max().unwrap_or(0)),
            rps,
            self.elapsed.as_secs_f64(),
        )
    }
}

/// The request mix: mostly single-constant `repair`, some small
/// `repair_module` lists, all over the swap-module constants so every
/// request shares one lifting spec (the daemon's warm path). With
/// `fail_rate > 0`, that fraction of requests become `repair_auto` calls
/// over a seed-derived broken module instead.
fn request_for(rng: &mut Rng, touch_rate: f64, fail_rate: f64) -> (&'static str, Value) {
    if fail_rate > 0.0 && rng.chance((fail_rate * 1000.0).round() as u64, 1000) {
        return auto_request_for(rng);
    }
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let pool = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;
    let mut params = vec![
        ("lifting".to_string(), spec.to_value()),
        ("deterministic".to_string(), Value::Bool(true)),
    ];
    // Incremental mix: untouched requests ride the session's digest
    // snapshot and replay from the persist cache; "touched" ones stay
    // cold, modeling an edit that invalidates the module.
    if touch_rate > 0.0 {
        let touched = rng.chance((touch_rate * 1000.0).round() as u64, 1000);
        if !touched {
            params.push(("incremental".to_string(), Value::Bool(true)));
        }
    }
    if rng.chance(7, 10) {
        params.push(("name".into(), Value::str(*rng.pick(pool))));
        ("repair", Value::Obj(params))
    } else {
        let count = rng.range(2, 4) as usize;
        let start = rng.index(pool.len());
        let names: Vec<Value> = (0..count)
            .map(|k| Value::str(pool[(start + k) % pool.len()]))
            .collect();
        params.push(("names".into(), Value::Arr(names)));
        ("repair_module", Value::Obj(params))
    }
}

/// A `repair_auto` request over a broken module: the `Old.` constant's
/// repaired name collides with a `New.` constant the module already
/// defines, so every candidate configuration fails the kernel oracle and
/// the daemon answers `auto_exhausted`. The clash id is drawn from a
/// small pool so repeats hit the process-wide failure cache — the warm
/// path this mix is meant to exercise. Minimization is off (the module
/// is already minimal) and the budget is small to bound cold-search
/// cost under load.
fn auto_request_for(rng: &mut Rng) -> (&'static str, Value) {
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let id = rng.index(8);
    // The Old constant's type mentions Old.list, so every candidate
    // lifts it to a list-typed New.lg_clash_N — clashing with the
    // nat-typed one the module already declares.
    let source = format!(
        "Definition New.lg_clash_{id} : nat := O.\n\
         Definition Old.lg_clash_{id} : forall (T : Type 1), Old.list T -> Old.list T := \
         fun (T : Type 1) (l : Old.list T) => l.\n"
    );
    let params = vec![
        ("lifting".to_string(), spec.to_value()),
        ("deterministic".to_string(), Value::Bool(true)),
        ("source".to_string(), Value::str(&source)),
        ("budget".to_string(), Value::UInt(2)),
        ("minimize".to_string(), Value::Bool(false)),
    ];
    ("repair_auto", Value::Obj(params))
}

/// Mixes run seed and request coordinates into one RNG seed (splitmix64
/// finisher — the indices are tiny, the mix spreads them).
fn seed_for(seed: u64, client: usize, req: usize) -> u64 {
    let mut z = seed ^ ((client as u64) << 32) ^ req as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-thread tally, merged under one lock at thread exit.
#[derive(Default)]
struct Tally {
    hist: Histogram,
    /// Latencies of the `repair_auto` broken-module requests, kept out
    /// of the main population so the classic rows stay comparable.
    auto_hist: Histogram,
    busy: usize,
    errors: usize,
    exhausted: usize,
}

impl Tally {
    fn record(&mut self, method: &str, ns: u64) {
        if method == "repair_auto" {
            self.auto_hist.observe(ns);
        } else {
            self.hist.observe(ns);
        }
    }
}

/// One call with `busy`-retry (closed loop): `busy` means backpressure,
/// not failure, so the client backs off and retries — reconnecting when
/// the server closed the connection (the session-cap refusal does).
/// Latency spans the retries; queueing is part of the service time.
fn call_until_ok(
    addr: &str,
    conn: &mut Option<Client>,
    method: &str,
    params: &Value,
    tally: &mut Tally,
) -> bool {
    for _ in 0..10_000 {
        if conn.is_none() {
            match Client::connect(addr) {
                Ok(c) => *conn = Some(c),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let client = conn.as_mut().expect("just connected");
        match client.call(method, params.clone()) {
            Ok(_) => return true,
            // The broken-module mix *expects* exhaustion: that reply is
            // the search's complete answer, so it completes the request.
            Err(ClientError::Server { code, .. }) if code == "auto_exhausted" => {
                tally.exhausted += 1;
                return true;
            }
            Err(ClientError::Server { code, .. }) if code == "busy" => {
                tally.busy += 1;
                // The queue-full refusal keeps the connection; the
                // session-cap one closes it. Reconnecting covers both.
                *conn = None;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(ClientError::Io(_)) => {
                *conn = None;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                tally.errors += 1;
                return false;
            }
        }
    }
    tally.errors += 1;
    false
}

fn run_closed(addr: &str, cfg: &LoadgenConfig, merged: &Mutex<Tally>) {
    std::thread::scope(|s| {
        for c in 0..cfg.clients {
            s.spawn(move || {
                let mut tally = Tally::default();
                let mut conn: Option<Client> = None;
                for r in 0..cfg.requests {
                    let mut rng = Rng::new(seed_for(cfg.seed, c, r));
                    let (method, params) = request_for(&mut rng, cfg.touch_rate, cfg.fail_rate);
                    let t0 = Instant::now();
                    if call_until_ok(addr, &mut conn, method, &params, &mut tally) {
                        tally.record(
                            method,
                            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                }
                merge(merged, tally);
            });
        }
    });
}

fn run_open(addr: &str, cfg: &LoadgenConfig, merged: &Mutex<Tally>) {
    let total = ((cfg.rate * cfg.duration_ms as f64) / 1000.0)
        .round()
        .max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / cfg.rate.max(0.001));
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..cfg.clients {
            let next = &next;
            s.spawn(move || {
                let mut tally = Tally::default();
                let mut conn: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let scheduled = start + interval * u32::try_from(i).unwrap_or(u32::MAX);
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let mut rng = Rng::new(seed_for(cfg.seed, 0, i));
                    let (method, params) = request_for(&mut rng, cfg.touch_rate, cfg.fail_rate);
                    if conn.is_none() {
                        conn = Client::connect(addr).ok();
                    }
                    let Some(client) = conn.as_mut() else {
                        tally.errors += 1;
                        continue;
                    };
                    match client.call(method, params) {
                        Ok(_) => tally.record(
                            method,
                            u64::try_from(scheduled.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        ),
                        Err(ClientError::Server { code, .. }) if code == "auto_exhausted" => {
                            tally.exhausted += 1;
                            tally.record(
                                method,
                                u64::try_from(scheduled.elapsed().as_nanos()).unwrap_or(u64::MAX),
                            );
                        }
                        // Open loop: a refused arrival is load the server
                        // shed, not a request to retry later.
                        Err(ClientError::Server { code, .. }) if code == "busy" => {
                            tally.busy += 1;
                            conn = None;
                        }
                        Err(_) => {
                            tally.errors += 1;
                            conn = None;
                        }
                    }
                }
                merge(merged, tally);
            });
        }
    });
}

fn merge(merged: &Mutex<Tally>, tally: Tally) {
    let mut m = merged.lock().expect("tally lock poisoned");
    m.hist.merge(&tally.hist);
    m.auto_hist.merge(&tally.auto_hist);
    m.busy += tally.busy;
    m.errors += tally.errors;
    m.exhausted += tally.exhausted;
}

/// Runs one load generation pass.
///
/// # Errors
///
/// Returns a message when the in-process server cannot bind or an
/// external address never answers a ping.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    // Self-hosted mode: bind a worker-pool server on a free loopback
    // port and drain it before returning. The session cap is sized to
    // the client count — connection-level admission is not what this
    // tool measures; queue backpressure is.
    let mut spawned: Option<std::thread::JoinHandle<()>> = None;
    let addr = match &cfg.connect {
        Some(a) => a.clone(),
        None => {
            // An incremental mix needs a persist cache for replays to
            // land; give the spawned server a per-process scratch one.
            let cache_dir = (cfg.touch_rate > 0.0).then(|| {
                std::env::temp_dir().join(format!("pumpkin-loadgen-{}", std::process::id()))
            });
            let server = Server::bind(ServerConfig {
                listen: "127.0.0.1:0".into(),
                jobs: cfg.jobs,
                workers: cfg.workers,
                queue_depth: cfg.queue_depth,
                max_sessions: cfg.clients + 8,
                cache_dir,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("cannot bind loopback server: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("cannot read bound address: {e}"))?
                .to_string();
            spawned = Some(std::thread::spawn(move || {
                let _ = server.run();
            }));
            addr
        }
    };
    // One warm-up ping so connect failures surface as an error, not as a
    // uniformly-failed run.
    let mut probe = Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    probe
        .call("ping", Value::Obj(vec![]))
        .map_err(|e| format!("daemon at {addr} does not answer ping: {e}"))?;
    drop(probe);

    // Measurement passes: the server (spawned or external) and its warm
    // caches persist across trials; each trial replays the same seeded
    // request stream and lands one time in every row.
    let mut trials = Vec::with_capacity(cfg.trials.max(1));
    let mut merged_hist = Histogram::default();
    let mut completed_auto = 0u64;
    let (mut busy, mut errors, mut exhausted) = (0usize, 0usize, 0usize);
    let mut elapsed = Duration::ZERO;
    for _ in 0..cfg.trials.max(1) {
        let merged = Mutex::new(Tally::default());
        let t0 = Instant::now();
        match cfg.mode {
            Mode::Closed => run_closed(&addr, cfg, &merged),
            Mode::Open => run_open(&addr, cfg, &merged),
        }
        let trial_elapsed = t0.elapsed();
        let tally = merged.into_inner().expect("tally lock poisoned");
        merged_hist.merge(&tally.hist);
        completed_auto += tally.auto_hist.count();
        busy += tally.busy;
        errors += tally.errors;
        exhausted += tally.exhausted;
        elapsed += trial_elapsed;
        trials.push(Trial {
            hist: tally.hist,
            auto_hist: tally.auto_hist,
            elapsed: trial_elapsed,
        });
    }

    // Server-side view of the load just generated, snapshotted before
    // the shutdown tears the registry down with the daemon.
    let mut server_rows = Vec::new();
    if cfg.server_stats {
        server_rows = fetch_server_rows(&addr)?;
    }

    if let Some(handle) = spawned {
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.call("shutdown", Value::Obj(vec![]));
        }
        let _ = handle.join();
    }

    Ok(LoadgenReport {
        mode: cfg.mode,
        clients: cfg.clients,
        completed: (merged_hist.count() + completed_auto) as usize,
        busy,
        errors,
        exhausted,
        elapsed,
        hist: merged_hist,
        trials,
        server_rows,
    })
}

/// Reads the daemon's `stats` snapshot and lifts its whole-population
/// (`total`) latency and queue-wait percentiles into bench rows. Daemon
/// and loadgen record into the same log-linear [`Histogram`], so both
/// sides' quantiles are sub-bucket midpoints within 3.1% of exact —
/// `bench_guard.sh`'s 1.1x server-vs-client gate allows for that.
fn fetch_server_rows(addr: &str) -> Result<Vec<Sample>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect failed: {e}"))?;
    let stats = c
        .call("stats", Value::Obj(vec![]))
        .map_err(|e| format!("stats call failed: {e}"))?;
    let field = |block: &str, q: &str| {
        stats
            .get("total")
            .and_then(|t| t.get(block))
            .and_then(|b| b.get(q))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Ok(vec![
        Sample::single("serve_load/server_p50", field("latency", "p50_ns")),
        Sample::single("serve_load/server_p99", field("latency", "p99_ns")),
        Sample::single("serve_load/server_queue_p50", field("queue_wait", "p50_ns")),
        Sample::single("serve_load/server_queue_p99", field("queue_wait", "p99_ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed() {
        for (c, r) in [(0usize, 0usize), (3, 1), (200, 7)] {
            let a = request_for(&mut Rng::new(seed_for(42, c, r)), 0.0, 0.0);
            let b = request_for(&mut Rng::new(seed_for(42, c, r)), 0.0, 0.0);
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_string(), b.1.to_string());
        }
        // Different coordinates decorrelate (not all identical).
        let reqs: Vec<String> = (0..16)
            .map(|r| {
                request_for(&mut Rng::new(seed_for(42, 0, r)), 0.0, 0.0)
                    .1
                    .to_string()
            })
            .collect();
        assert!(reqs.iter().any(|x| *x != reqs[0]));
    }

    #[test]
    fn fail_rate_one_turns_every_request_into_repair_auto() {
        for r in 0..8 {
            let (method, params) = request_for(&mut Rng::new(seed_for(9, 0, r)), 0.0, 1.0);
            assert_eq!(method, "repair_auto");
            let src = params
                .get("source")
                .and_then(Value::as_str)
                .expect("auto request carries a module source");
            assert!(src.contains("Definition New.lg_clash_"), "{src}");
            assert!(src.contains("Definition Old.lg_clash_"), "{src}");
        }
    }

    #[test]
    fn closed_loop_smoke_measures_latency_and_throughput() {
        let report = run(&LoadgenConfig {
            clients: 4,
            requests: 2,
            workers: 2,
            server_stats: true,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");
        // 4 clients x 2 requests x 3 trials (the default).
        assert_eq!(report.completed, 24, "{}", report.summary());
        assert_eq!(report.errors, 0, "{}", report.summary());
        let rows = report.rows();
        // Client-side rows carry one time per trial, never a single
        // sample; server-side rows are one cumulative snapshot.
        let ids: Vec<&str> = rows.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "serve_load/p50",
                "serve_load/p95",
                "serve_load/p99",
                "serve_load/throughput",
                "serve_load/server_p50",
                "serve_load/server_p99",
                "serve_load/server_queue_p50",
                "serve_load/server_queue_p99",
            ]
        );
        assert!(rows[..4].iter().all(|s| s.times_ns.len() == 3), "{rows:?}");
        assert!(rows.iter().all(|s| s.median().as_nanos() > 0));
        let json = report.to_json_lines();
        assert!(
            json.starts_with(r#"{"schema":"pumpkin-bench/v1""#),
            "{json}"
        );
    }

    #[test]
    fn fail_rate_mix_counts_exhaustions_and_emits_auto_rows() {
        let report = run(&LoadgenConfig {
            clients: 2,
            requests: 2,
            workers: 2,
            trials: 2,
            fail_rate: 1.0,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");
        // Every request is a broken-module repair_auto: the expected
        // exhaustion replies complete the requests instead of erroring.
        assert_eq!(report.completed, 8, "{}", report.summary());
        assert_eq!(report.errors, 0, "{}", report.summary());
        assert_eq!(report.exhausted, 8, "{}", report.summary());
        let rows = report.rows();
        let ids: Vec<&str> = rows.iter().map(|s| s.id.as_str()).collect();
        assert!(ids.contains(&"serve_load/auto_p50"), "{ids:?}");
        assert!(ids.contains(&"serve_load/auto_p99"), "{ids:?}");
        let auto_p50 = rows
            .iter()
            .find(|s| s.id == "serve_load/auto_p50")
            .expect("auto row present");
        assert_eq!(auto_p50.times_ns.len(), 2, "{auto_p50:?}");
    }

    #[test]
    fn open_loop_smoke_respects_the_schedule() {
        let report = run(&LoadgenConfig {
            mode: Mode::Open,
            clients: 4,
            rate: 40.0,
            duration_ms: 500,
            workers: 2,
            trials: 1,
            ..LoadgenConfig::default()
        })
        .expect("loadgen run");
        // 40 req/s over 0.5 s = 20 scheduled arrivals; every one either
        // completed, was shed as busy, or failed — none vanish.
        assert_eq!(
            report.completed + report.busy + report.errors,
            20,
            "{}",
            report.summary()
        );
        assert!(report.completed > 0, "{}", report.summary());
    }
}
