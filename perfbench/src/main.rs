//! The benchmark of record for pumpkin-pi-rs.
//!
//! ```text
//! perfbench --workload <cold_module|serve_closed|edit_incremental>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-out <path>]
//! perfbench --all [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run builds its inputs from `--seed`, sets up (reported as `setup_s`,
//! kept out of the timed phase), then runs ops in a closed loop for
//! `--seconds`, checking every answer. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! every other op records spans around each call into the program and the
//! metrics are the per-layer ones. `--all` runs every workload both ways,
//! each run in a child process, and prints every metric by name with its
//! unit. See README.md for what
//! each workload is for and which layer metric should move which
//! end-to-end metric.

mod check;
mod cold;
mod edit;
mod gen;
mod serve;
mod span;
mod stats;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use gen::InputDigest;
use span::Span;

pub const WORKLOADS: &[&str] = &["cold_module", "serve_closed", "edit_incremental"];

/// Timed ops after which `peak_rss_mb` is read. A fixed count of ops, not
/// the end of the run, so that a faster program, which gets further into
/// its seeded stream (and, on `edit_incremental`, adds more never-seen
/// definitions), does not report more memory for it.
pub const RSS_AFTER_OPS: u64 = 1000;

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run (persist cache), inside the checkout.
    pub work: PathBuf,
    /// Corrupt every `n`-th op's answer before checking it (0: never).
    pub plant_every: u64,
}

impl Cfg {
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// In a traced run, every other op records spans; the rest measure the
    /// same work untraced, so tracing overhead is a paired difference.
    pub fn traced_op(&self, i: u64) -> bool {
        self.trace && i.is_multiple_of(2)
    }

    pub fn plant(&self, i: u64) -> bool {
        self.plant_every > 0 && i % self.plant_every == self.plant_every - 1
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Latency (ms) of untraced ops, failed ones included.
    pub lat_ms: Vec<f64>,
    /// Latency (ms) of traced ops.
    pub traced_lat_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub active_s: f64,
    /// Repaired constants that passed the kernel re-check.
    pub constants: u64,
    pub setup_s: f64,
    /// `VmHWM` (MiB) once [`RSS_AFTER_OPS`] ops were recorded; 0 before.
    pub peak_rss_mb: f64,
    pub spans: Vec<Vec<Span>>,
    /// Counter sums over every timed op (see [`Outcome::add`]).
    pub sums: BTreeMap<&'static str, f64>,
    /// Per-layer values a workload computes itself (not per-op sums).
    pub layer: BTreeMap<&'static str, f64>,
    pub digest: InputDigest,
    pub first_failure: Option<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// A set-up step answered wrongly: the run cannot be correct, so it
    /// counts as one failed op.
    pub fn setup_failed(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.fail(format!("set-up: {why}"));
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// `num / den` over the run's sums, 0 when nothing was probed.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.sum(den);
        if d == 0.0 {
            0.0
        } else {
            self.sum(num) / d
        }
    }

    pub fn per_op(&self, key: &str) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.sum(key) / self.attempted as f64
        }
    }

    pub fn record(&mut self, ms: f64, traced: bool, result: Result<u64, String>) {
        self.attempted += 1;
        match result {
            Ok(n) => self.constants += n,
            Err(e) => {
                self.failed += 1;
                self.fail(e);
            }
        }
        if traced {
            self.traced_lat_ms.push(ms);
        } else {
            self.lat_ms.push(ms);
        }
        if self.attempted == RSS_AFTER_OPS {
            self.peak_rss_mb = stats::peak_rss_mb();
        }
    }

    /// Folds one repair's kernel and lift counters into the sums.
    pub fn add_report(&mut self, r: &pumpkin_core::RepairReport) {
        let k = &r.kernel;
        self.add("kernel.whnf_calls", k.whnf_calls as f64);
        self.add("kernel.conv_calls", k.conv_calls as f64);
        self.add("kernel.infer_calls", k.infer_calls as f64);
        self.add("kernel.reduction_steps", k.reduction_steps() as f64);
        self.add("kernel.whnf_hits", k.whnf_cache_hits as f64);
        self.add(
            "kernel.whnf_probes",
            (k.whnf_cache_hits + k.whnf_cache_misses) as f64,
        );
        self.add("kernel.conv_hits", k.conv_cache_hits as f64);
        self.add(
            "kernel.conv_probes",
            (k.conv_cache_hits + k.conv_cache_misses) as f64,
        );
        let l = &r.lift;
        self.add("lift.constants_lifted", l.constants_lifted as f64);
        self.add("lift.visits", l.visits as f64);
        self.add("lift.cache_hits", l.cache_hits as f64);
        self.add("lift.cache_probes", (l.cache_hits + l.cache_misses) as f64);
        self.add("lift.persist_hits", l.persist_hits as f64);
        self.add(
            "lift.persist_probes",
            (l.persist_hits + l.persist_misses) as f64,
        );
        if let Some(i) = r.incr {
            self.add("incr.changed", i.changed as f64);
            self.add("incr.replayed", i.replayed as f64);
            self.add("incr.skipped", i.skipped as f64);
            self.add(
                "incr.constants",
                (i.changed + i.replayed + i.skipped) as f64,
            );
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. The median op
/// latency is a per-layer metric (`bench.latency_p50_ms`), not one of
/// these: on a shared host it swings between the host's fast and slow
/// spells about twice as far as throughput does (see README.md).
fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let ok = (o.attempted - o.failed) as f64;
    vec![
        ("latency_p99_ms", "ms", stats::quantile(&o.lat_ms, 0.99)),
        ("throughput_ops_s", "1/s", ok / o.active_s),
        ("constants_per_s", "1/s", o.constants as f64 / o.active_s),
        (
            "peak_rss_mb",
            "MiB",
            // A run too short to reach the count reads it at the end.
            if o.peak_rss_mb > 0.0 {
                o.peak_rss_mb
            } else {
                stats::peak_rss_mb()
            },
        ),
        ("setup_s", "s", o.setup_s),
    ]
}

/// Span name → (per-layer metric, unit, scale from ms).
const SPAN_METRICS: &[(&str, &str, &str, f64)] = &[
    ("lang.load_source", "lang.load_source_ms", "ms", 1.0),
    ("core.configure", "core.configure_ms", "ms", 1.0),
    ("kernel.env_clone", "kernel.env_clone_us", "us", 1e3),
    ("kernel.env_drop", "kernel.env_drop_us", "us", 1e3),
    ("core.repair", "core.repair_ms", "ms", 1.0),
    ("core.source_free", "core.source_free_ms", "ms", 1.0),
    ("kernel.check", "kernel.check_ms", "ms", 1.0),
    ("tactics.decompile", "tactics.decompile_ms", "ms", 1.0),
    ("tactics.second_pass", "tactics.second_pass_ms", "ms", 1.0),
    ("tactics.prove", "tactics.prove_ms", "ms", 1.0),
    ("incr.capture", "incr.capture_ms", "ms", 1.0),
    ("core.auto", "auto.driver_ms", "ms", 1.0),
    ("wire.encode", "wire.client_encode_us", "us", 1e3),
    ("wire.decode", "wire.client_decode_us", "us", 1e3),
    ("serve.call", "serve.call_ms", "ms", 1.0),
    ("bench.verify", "bench.verify_ms", "ms", 1.0),
];

/// Per-op sums reported as per-op means.
const PER_OP: &[&str] = &[
    "kernel.whnf_calls",
    "kernel.conv_calls",
    "kernel.infer_calls",
    "kernel.reduction_steps",
    "lift.constants_lifted",
    "lift.visits",
    "incr.changed",
    "incr.replayed",
    "incr.skipped",
];

/// Values a workload sets itself in [`Outcome::layer`], with units; a
/// workload that lacks the layer reports 0.
const WORKLOAD_LAYER: &[(&str, &str)] = &[
    ("persist.stores", "count"),
    ("persist.bytes_on_disk", "bytes"),
    ("auto.tried", "count"),
    ("auto.skipped_cache", "count"),
    ("auto.ms", "ms"),
    ("minimize.ms", "ms"),
    ("minimize.steps", "count"),
    ("auto_verdict_p50_ms", "ms"),
    ("auto.repeat_share", "ratio"),
    ("wire.reply_bytes", "bytes"),
    ("serve.repair_wall_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.busy", "count"),
];

fn per_layer(o: &Outcome, calib_ms: f64) -> Vec<(&'static str, &'static str, f64)> {
    let times = span::self_times(o.spans.iter().map(Vec::as_slice));
    let mut m = Vec::new();
    for &(span, name, unit, scale) in SPAN_METRICS {
        m.push((name, unit, times.per_op_ms(span) * scale));
    }
    for &key in PER_OP {
        m.push((key, "count", o.per_op(key)));
    }
    m.push((
        "kernel.whnf_hit_ratio",
        "ratio",
        o.ratio("kernel.whnf_hits", "kernel.whnf_probes"),
    ));
    m.push((
        "kernel.conv_hit_ratio",
        "ratio",
        o.ratio("kernel.conv_hits", "kernel.conv_probes"),
    ));
    m.push((
        "lift.cache_hit_ratio",
        "ratio",
        o.ratio("lift.cache_hits", "lift.cache_probes"),
    ));
    m.push((
        "lift.persist_hit_ratio",
        "ratio",
        o.ratio("lift.persist_hits", "lift.persist_probes"),
    ));
    m.push((
        "tactics.validated_ratio",
        "ratio",
        o.ratio("tactics.validated", "tactics.decompiled"),
    ));
    m.push((
        "incr.skip_ratio",
        "ratio",
        o.ratio("incr.skipped", "incr.constants"),
    ));
    for &(key, unit) in WORKLOAD_LAYER {
        m.push((key, unit, o.layer.get(key).copied().unwrap_or(0.0)));
    }
    let traced_p50 = stats::median(&o.traced_lat_ms);
    let untraced_p50 = stats::median(&o.lat_ms);
    m.push((
        "bench.unattributed_share",
        "ratio",
        times.unattributed_share(),
    ));
    m.push(("bench.trace_overhead", "ms", traced_p50 - untraced_p50));
    m.push(("bench.latency_p50_ms", "ms", untraced_p50));
    m.push(("bench.traced_ops", "count", times.ops as f64));
    m.push(("bench.calib_ms", "ms", calib_ms));
    m.push((
        "bench.fail_share",
        "ratio",
        o.failed as f64 / o.attempted.max(1) as f64,
    ));
    m
}

fn json_line(o: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

pub fn run_workload(name: &str, cfg: &Cfg) -> Outcome {
    match name {
        "cold_module" => cold::run(cfg),
        "serve_closed" => serve::run(cfg),
        "edit_incremental" => edit::run(cfg),
        other => unreachable!("workload `{other}` was validated"),
    }
}

/// `--all`: every workload, untraced then traced, as one table. Each run
/// is a child process of its own, as the runs of record are: the interner
/// and the auto failure cache are process-global, and a second run in the
/// same process would start warm.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable's path");
    let mut all_ok = true;
    println!("{:<18} {:<28} {:>14} unit", "workload", "metric", "value");
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let run = std::process::Command::new(&exe)
                .args(["--workload", w, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output();
            let stdout = match run {
                Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
                Err(e) => {
                    eprintln!("perfbench: cannot run {w}: {e}");
                    all_ok = false;
                    continue;
                }
            };
            let lines: Vec<&str> = stdout.lines().collect();
            let Some((last, info)) = lines.split_last() else {
                eprintln!("perfbench: {w} printed no result");
                all_ok = false;
                continue;
            };
            info.iter().for_each(|l| println!("{w:<18} {l}"));
            let result = pumpkin_wire::Value::parse(last).unwrap_or(pumpkin_wire::Value::Null);
            all_ok &= result.get("correct").and_then(|c| c.as_bool()) == Some(true);
            let metrics = result
                .get("metrics")
                .and_then(|m| m.as_obj())
                .unwrap_or(&[]);
            for (name, m) in metrics {
                let value = match m.get("value") {
                    Some(pumpkin_wire::Value::Num(v)) => *v,
                    Some(v) => v.as_i64().map_or(f64::NAN, |i| i as f64),
                    None => f64::NAN,
                };
                let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("?");
                println!("{w:<18} {name:<28} {value:>14.4} {unit}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--spans-out" => a.spans_out = Some(value()?.into()),
            "--all" => a.all = true,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if a.workload.is_none() && !a.all {
        return Err("give --workload <name> or --all".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = std::env::current_dir()
        .expect("a current directory")
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    let cfg = |trace| Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        work: work.clone(),
        plant_every: 0,
    };
    let code = if args.all {
        run_all(&args)
    } else {
        let name = args.workload.as_deref().expect("checked in parse_args");
        let cfg = cfg(args.trace);
        let o = run_workload(name, &cfg);
        if let Some(path) = &args.spans_out {
            if let Err(e) = span::write_jsonl(path, &o.spans) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        if let Some(why) = &o.first_failure {
            eprintln!("perfbench: first failure: {why}");
        }
        println!(
            "workload={name} seed={} input_digest={} samples={} traced_samples={}",
            cfg.seed,
            o.digest.hex(),
            o.lat_ms.len(),
            o.traced_lat_ms.len(),
        );
        let metrics = if cfg.trace {
            per_layer(&o, stats::calib_ms())
        } else {
            end_to_end(&o)
        };
        println!("{}", json_line(&o, &metrics));
        ExitCode::SUCCESS
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only succeeds once no other run is using the directory.
        let _ = std::fs::remove_dir(parent);
    }
    code
}
