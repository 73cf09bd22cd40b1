//! Per-worker request handling.
//!
//! A [`Session`] owns a clone of the daemon's warm environment and
//! serves requests against *throwaway* copies of it: every repair
//! request re-clones the configured snapshot, so replies are pure
//! functions of the request (plus the persistent cache, which only
//! changes *how fast* a reply is computed, never its content). This is
//! what makes the daemon's replies byte-identical to one-shot runs and
//! lets concurrent workers proceed without sharing mutable kernel
//! state.
//!
//! The one piece of cross-request state inside a session is the
//! *configuration cache*: running a search procedure (`configure`) is
//! expensive, so the session keeps up to [`MAX_CONFIGS`] recent `(spec
//! digest, configured environment, lifting)` entries and reuses them
//! while clients keep asking for the same recipes. Under the worker-pool
//! server each worker owns one long-lived session, so this warm state
//! survives across connections instead of dying with each one.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pumpkin_core::trace::serve_stats::{self, ServeStats, STATS_SCHEMA};
use pumpkin_core::trace::{Histogram, Metrics};
use pumpkin_core::wire::{term_from_envelope, term_to_envelope, LiftSpec, TermDigest, WireError};
use pumpkin_core::{
    AutoPolicy, CancelToken, DigestMap, LiftState, Lifting, NameMap, RepairError, RepairReport,
    Repairer,
};
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_wire::Value;

use crate::proto::{self, code, Request, PROTO_VERSION};

/// What the connection loop should do after writing the reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading frames.
    Continue,
    /// The client asked the server to drain; close after this reply.
    Shutdown,
}

/// Upper bound on cached configurations per session. Eight recipes cover
/// every lifting kind in the tree with room to spare; beyond that the
/// least recently used entry (and its configured environment) is dropped.
const MAX_CONFIGS: usize = 8;

/// Every method the daemon serves, announced by `hello` so clients can
/// negotiate before committing to a workload.
pub const METHODS: &[&str] = &[
    "hello",
    "ping",
    "stats",
    "shutdown",
    "repair",
    "repair_module",
    "repair_batch",
    "repair_auto",
    "explain",
    "trace_report",
    "eval",
];

/// One cached configuration, keyed by its spec digest.
struct Configured {
    digest: TermDigest,
    /// The warm environment *after* the search procedure ran (holds the
    /// equivalence constants); cloned per request.
    env: Env,
    lifting: Lifting,
    /// Source-digest snapshot from the last repair under this
    /// configuration; `"incremental": true` requests diff against it and
    /// replay unchanged constants from the persist cache.
    snapshot: Option<DigestMap>,
}

/// One worker's worth of request-handling state.
pub struct Session {
    base: Env,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    /// Size budget for the persist cache (None = unbounded).
    cache_max_bytes: Option<u64>,
    /// Most-recently-used first, at most [`MAX_CONFIGS`] entries.
    configured: Vec<Configured>,
    /// Server-wide service stats (per-method histograms, repair metrics,
    /// gauges). The session records each repair's event-derived metrics
    /// and its gauge traffic (config-cache, persist-cache, incremental
    /// totals); latency recording lives in the server's connection
    /// threads. Standalone sessions get a private registry.
    stats: Arc<ServeStats>,
    /// The stats shard this session records its repair metrics into.
    lane: u64,
    /// Lifecycle id for the next request this session fronts itself
    /// (standalone use; the daemon stamps ids server-side).
    next_req_id: u64,
}

/// A structured method error: the machine-readable code, the human
/// message, and an optional machine-readable `data` payload (a
/// `repair_auto` exhaustion carries its full accounting object there).
/// Most sites build the data-free form through the tuple conversion.
pub(crate) struct MethodError {
    code: &'static str,
    message: String,
    data: Option<Value>,
}

impl MethodError {
    /// Renders the error reply envelope for `id`.
    pub(crate) fn reply(&self, id: &Value) -> Value {
        match &self.data {
            Some(d) => proto::err_reply_value_data(id, self.code, &self.message, d.clone()),
            None => proto::err_reply_value(id, self.code, &self.message),
        }
    }
}

impl From<(&'static str, String)> for MethodError {
    fn from((code, message): (&'static str, String)) -> MethodError {
        MethodError {
            code,
            message,
            data: None,
        }
    }
}

pub(crate) type MethodResult = Result<(Value, Control), MethodError>;

/// Handles the environment-free control methods — `ping`, `hello`,
/// `stats`, `shutdown` — or returns `None` for anything else. Shared
/// between [`Session::dispatch`] and the server's connection threads,
/// which answer these inline so they stay responsive (and
/// byte-identical) while the worker pool is saturated.
pub(crate) fn control_result(method: &str, stats: &ServeStats) -> Option<MethodResult> {
    match method {
        "ping" => Some(Ok((
            Value::Obj(vec![
                ("pong".into(), Value::Bool(true)),
                ("proto".into(), Value::UInt(u64::from(PROTO_VERSION))),
                ("wire".into(), Value::str(pumpkin_wire::WIRE_TAG)),
            ]),
            Control::Continue,
        ))),
        "hello" => Some(Ok((
            Value::Obj(vec![
                (
                    "proto_version".into(),
                    Value::UInt(u64::from(PROTO_VERSION)),
                ),
                ("wire_version".into(), Value::str(pumpkin_wire::WIRE_TAG)),
                (
                    "methods".into(),
                    Value::Arr(METHODS.iter().map(|m| Value::str(*m)).collect()),
                ),
                (
                    "limits".into(),
                    Value::Obj(vec![
                        (
                            "max_frame_bytes".into(),
                            Value::UInt(proto::MAX_FRAME as u64),
                        ),
                        (
                            "max_payload_bytes".into(),
                            Value::UInt(pumpkin_wire::term::MAX_PAYLOAD as u64),
                        ),
                    ]),
                ),
            ]),
            Control::Continue,
        ))),
        "stats" => Some(Ok((stats_result(stats), Control::Continue))),
        "shutdown" => Some(Ok((
            Value::Obj(vec![("draining".into(), Value::Bool(true))]),
            Control::Shutdown,
        ))),
        _ => None,
    }
}

/// Renders one histogram as the `stats` reply's summary object. Empty
/// histograms report zeros (not nulls), so scrapers read one shape.
/// `unit` suffixes the value fields: `"_ns"` for durations, `""` for
/// dimensionless histograms such as `wave.width`.
fn histogram_value(h: &Histogram, unit: &str) -> Value {
    let field = |name: &str, v: u64| (format!("{name}{unit}"), Value::UInt(v));
    Value::Obj(vec![
        ("count".into(), Value::UInt(h.count())),
        field("mean", h.mean().unwrap_or(0.0) as u64),
        field("p50", h.quantile(0.5).unwrap_or(0)),
        field("p95", h.quantile(0.95).unwrap_or(0)),
        field("p99", h.quantile(0.99).unwrap_or(0)),
        field("max", h.max().unwrap_or(0)),
    ])
}

/// The `stats` RPC result: a versioned snapshot of the service registry —
/// per-method latency and queue-wait summaries, the gauge block, and the
/// cumulative repair counters and histograms.
fn stats_result(stats: &ServeStats) -> Value {
    let snap = stats.snapshot();
    let methods: Vec<(String, Value)> = snap
        .methods
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Value::Obj(vec![
                    ("count".into(), Value::UInt(m.latency.count())),
                    ("latency".into(), histogram_value(&m.latency, "_ns")),
                    ("queue_wait".into(), histogram_value(&m.queue_wait, "_ns")),
                ]),
            )
        })
        .collect();
    // Whole-population summaries (every method merged) — what loadgen's
    // `--server-stats` rows and capacity planning read; a per-method
    // quantile is not comparable to a client-side all-requests quantile.
    let mut total = serve_stats::MethodStats::default();
    for m in snap.methods.values() {
        total.merge(m);
    }
    let gauges: Vec<(String, Value)> = snap
        .gauges
        .iter()
        .map(|&(name, v)| (name.to_string(), Value::UInt(v)))
        .collect();
    let counters: Vec<(String, Value)> = snap
        .metrics
        .counters()
        .map(|(name, v)| (name.to_string(), Value::UInt(v)))
        .collect();
    // `.ns` marks duration histograms, as in `Metrics::to_text`.
    let histograms: Vec<(String, Value)> = snap
        .metrics
        .histograms()
        .map(|(name, h)| {
            let unit = if name.ends_with(".ns") { "_ns" } else { "" };
            (name.to_string(), histogram_value(h, unit))
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::str(STATS_SCHEMA)),
        ("methods".into(), Value::Obj(methods)),
        (
            "total".into(),
            Value::Obj(vec![
                ("latency".into(), histogram_value(&total.latency, "_ns")),
                (
                    "queue_wait".into(),
                    histogram_value(&total.queue_wait, "_ns"),
                ),
            ]),
        ),
        ("gauges".into(), Value::Obj(gauges)),
        ("counters".into(), Value::Obj(counters)),
        ("histograms".into(), Value::Obj(histograms)),
    ])
}

impl Session {
    /// A session over a (cloned, warm) base environment. `jobs` is the
    /// per-request worker cap; `cache_dir` enables the persistent lift
    /// cache.
    pub fn new(base: Env, jobs: usize, cache_dir: Option<PathBuf>) -> Session {
        Session {
            base,
            jobs: jobs.max(1),
            cache_dir,
            cache_max_bytes: None,
            configured: Vec::new(),
            stats: Arc::new(ServeStats::new()),
            lane: 0,
            next_req_id: 0,
        }
    }

    /// Caps the persist cache's on-disk size (oldest entries are evicted
    /// past the budget). `None` — the default — means unbounded.
    #[must_use]
    pub fn cache_max_bytes(mut self, max: Option<u64>) -> Session {
        self.cache_max_bytes = max;
        self
    }

    /// Shares the server-wide service-stats registry (the daemon passes
    /// its own so every worker's metrics and gauge traffic land in one
    /// place; the default is a private registry for standalone sessions).
    /// `lane` picks the shard this session's repair metrics go to.
    #[must_use]
    pub fn serve_stats(mut self, stats: Arc<ServeStats>, lane: u64) -> Session {
        self.stats = stats;
        self.lane = lane;
        self
    }

    /// The next lifecycle request id for a request this session fronts
    /// itself (1-based, deterministic per session — the golden transcript
    /// relies on this).
    fn next_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// Handles one frame: parses, dispatches, and renders the reply line
    /// (without trailing newline). Never panics on malformed input —
    /// errors become structured replies and the connection stays open.
    /// Every frame — parse failures included — consumes one lifecycle
    /// request id, echoed as `"req_id"` in the reply.
    pub fn handle_line(&mut self, line: &str) -> (String, Control) {
        let req_id = self.next_req_id();
        match proto::parse_request(line) {
            Ok(req) => self.handle_request_traced(&req, None, req_id),
            Err(msg) => {
                let mut reply = proto::err_reply_value(&Value::Null, code::PARSE, &msg);
                proto::stamp_req_id(&mut reply, req_id);
                (reply.to_string(), Control::Continue)
            }
        }
    }

    /// Handles an already-parsed request, optionally under an externally
    /// owned cancel token. The worker pool creates the token at enqueue
    /// time (so a request's deadline budget covers its time in the
    /// queue); standalone callers pass `None` and per-request
    /// `deadline_ms` params behave as before. The reply bytes are
    /// identical either way — the token only decides *when* a run is
    /// cancelled, never what a completed run reports. The `req_id` stamp
    /// comes from this session's own counter; the daemon uses
    /// [`Session::handle_request_traced`] to stamp its server-wide id.
    pub fn handle_request(
        &mut self,
        req: &Request,
        cancel: Option<&CancelToken>,
    ) -> (String, Control) {
        let req_id = self.next_req_id();
        self.handle_request_traced(req, cancel, req_id)
    }

    /// [`Session::handle_request`] with an externally assigned lifecycle
    /// request id (the daemon assigns ids at frame parse, server-wide,
    /// so `req_id` orders requests across connections).
    pub fn handle_request_traced(
        &mut self,
        req: &Request,
        cancel: Option<&CancelToken>,
        req_id: u64,
    ) -> (String, Control) {
        let (mut reply, ctl) = match self.dispatch(req, cancel) {
            Ok((result, ctl)) => (proto::ok_reply_value(&req.id, result), ctl),
            Err(e) => (e.reply(&req.id), Control::Continue),
        };
        proto::stamp_req_id(&mut reply, req_id);
        (reply.to_string(), ctl)
    }

    fn dispatch(&mut self, req: &Request, cancel: Option<&CancelToken>) -> MethodResult {
        match req.method.as_str() {
            "repair" => self.repair(&req.params, true, cancel),
            "repair_module" => self.repair(&req.params, false, cancel),
            "repair_batch" => self.repair_batch(&req.params, cancel),
            "repair_auto" => self.repair_auto(&req.params, cancel),
            "explain" => self.explain(&req.params, cancel),
            "trace_report" => self.trace_report(&req.params, cancel),
            "eval" => self.eval(&req.params),
            other => control_result(other, &self.stats).unwrap_or_else(|| {
                Err((code::UNKNOWN_METHOD, format!("unknown method `{other}`")).into())
            }),
        }
    }

    /// `repair` (single constant) and `repair_module` (explicit list).
    fn repair(
        &mut self,
        params: &Value,
        single: bool,
        cancel: Option<&CancelToken>,
    ) -> MethodResult {
        let names = request_names(params, single)?;
        let deterministic = flag(params, "deterministic");
        let (report, _env) = self.run_repairer(params, &names, false, cancel)?;
        let mut wire = report.to_wire();
        if deterministic {
            wire.wall_ns = 0;
        }
        let mut fields = vec![("report".into(), wire.to_value())];
        if single {
            let to = report
                .renamed(&names[0])
                .map(|n| Value::str(n.as_str()))
                .unwrap_or(Value::Null);
            fields.insert(0, ("to".into(), to));
            fields.insert(0, ("from".into(), Value::str(&names[0])));
        }
        Ok((Value::Obj(fields), Control::Continue))
    }

    /// `repair_batch`: several independent repair items behind one frame
    /// and one configuration. Params: a shared `lifting` spec, plus a
    /// `batch` array whose items each carry `name` (single-constant) or
    /// `names` (module) and any per-item flags a `repair`/`repair_module`
    /// request would take. The reply's `results` array holds, per item,
    /// *exactly* the reply object the equivalent standalone request with
    /// `"id": null` would have produced — batching amortizes framing and
    /// configuration, never changes bytes.
    ///
    /// A batch-level `deadline_ms` (or the pool's external token) budgets
    /// the whole batch through one shared token: once it expires, every
    /// remaining item reports a `deadline` error. Per-item `deadline_ms`
    /// applies only when no batch-level budget is set.
    fn repair_batch(&mut self, params: &Value, external: Option<&CancelToken>) -> MethodResult {
        let items = params.get("batch").and_then(Value::as_arr).ok_or_else(|| {
            (
                code::BAD_PARAMS,
                "repair_batch needs a `batch` array".into(),
            )
        })?;
        if items.is_empty() {
            return Err((code::BAD_PARAMS, "`batch` must not be empty".to_string()).into());
        }
        let lifting = params.get("lifting").cloned();
        let deadline_token = match external {
            Some(_) => None,
            None => params
                .get("deadline_ms")
                .and_then(Value::as_u64)
                .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms))),
        };
        let token: Option<&CancelToken> = external.or(deadline_token.as_ref());
        let mut results = Vec::with_capacity(items.len());
        for item in items {
            let Some(fields) = item.as_obj() else {
                results.push(proto::err_reply_value(
                    &Value::Null,
                    code::BAD_PARAMS,
                    "batch items must be objects",
                ));
                continue;
            };
            // The item's own fields, with the shared lifting spec merged
            // in (an item-level `lifting` wins).
            let mut merged = fields.to_vec();
            if item.get("lifting").is_none() {
                if let Some(l) = &lifting {
                    merged.push(("lifting".into(), l.clone()));
                }
            }
            let item_params = Value::Obj(merged);
            let single = item.get("name").is_some();
            results.push(match self.repair(&item_params, single, token) {
                Ok((v, _)) => proto::ok_reply_value(&Value::Null, v),
                Err(e) => e.reply(&Value::Null),
            });
        }
        Ok((
            Value::Obj(vec![("results".into(), Value::Arr(results))]),
            Control::Continue,
        ))
    }

    /// `repair_auto`: the automatic candidate search (DESIGN.md §18).
    /// Params: a swap-kind `lifting` spec naming the endpoints and the
    /// renaming policy, plus `names` (work list) and/or `source`
    /// (vernacular loaded into each candidate's trial environment), and
    /// the policy knobs `budget`, `failure_cache`, `minimize`, `seed`,
    /// `deterministic`. Success replies carry the ordinary report with the
    /// `auto` accounting block; exhaustion replies are
    /// [`code::AUTO_EXHAUSTED`] errors whose `data` embeds the full
    /// accounting (reproducer included); a deadline that fires mid-search
    /// is a [`code::DEADLINE`] error whose `data` holds the partial
    /// accounting gathered so far.
    fn repair_auto(&mut self, params: &Value, external: Option<&CancelToken>) -> MethodResult {
        let spec_value = params.get("lifting").ok_or_else(|| {
            (
                code::BAD_PARAMS,
                "request needs a `lifting` spec".to_string(),
            )
        })?;
        let spec =
            LiftSpec::from_value(spec_value).map_err(|e| (code::BAD_PARAMS, e.to_string()))?;
        if spec.kind != "swap" {
            return Err((
                code::BAD_PARAMS,
                format!(
                    "repair_auto searches swap configurations, not `{}`",
                    spec.kind
                ),
            )
                .into());
        }
        let names: Vec<String> = match params.get("names") {
            None => Vec::new(),
            Some(v) => v
                .as_arr()
                .and_then(|arr| {
                    arr.iter()
                        .map(|v| v.as_str().map(str::to_string))
                        .collect::<Option<_>>()
                })
                .ok_or_else(|| {
                    (
                        code::BAD_PARAMS,
                        "`names` must be a string array".to_string(),
                    )
                })?,
        };
        let source = params.get("source").and_then(Value::as_str);
        if names.is_empty() && source.is_none() {
            return Err((
                code::BAD_PARAMS,
                "repair_auto needs `names` and/or `source`".to_string(),
            )
                .into());
        }
        let deterministic = flag(params, "deterministic");
        let policy = AutoPolicy {
            budget: params
                .get("budget")
                .and_then(Value::as_u64)
                .map(|b| b as usize),
            use_failure_cache: params
                .get("failure_cache")
                .and_then(Value::as_bool)
                .unwrap_or(true),
            minimize: params
                .get("minimize")
                .and_then(Value::as_bool)
                .unwrap_or(true),
            seed: params.get("seed").and_then(Value::as_u64).unwrap_or(0),
            deterministic,
        };
        let mut rename = NameMap::default();
        for (f, t) in &spec.rename {
            rename = rename.with_rule(f.as_str(), t.as_str());
        }
        let jobs = params
            .get("jobs")
            .and_then(Value::as_u64)
            .map_or(self.jobs, |j| (j as usize).max(1));
        let mut driver = Repairer::auto(policy)
            .types(spec.a.as_str(), spec.b.as_str(), rename)
            .jobs(jobs)
            .trace(true);
        if let Some(src) = source {
            driver = driver.source(src);
        }
        if let Some(tok) = external {
            driver = driver.cancel(tok.clone());
        } else if let Some(ms) = params.get("deadline_ms").and_then(Value::as_u64) {
            driver = driver.deadline(Duration::from_millis(ms));
        }
        if let Some(dir) = &self.cache_dir {
            driver = driver
                .persist_cache(dir)
                .cache_max_bytes(self.cache_max_bytes);
        }
        let mut env = self.base.clone();
        let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
        let (auto, result) = driver.run(&mut env, &borrowed);
        let g = &self.stats.gauges;
        serve_stats::add(&g.auto_candidates_tried, auto.tried as u64);
        serve_stats::add(&g.auto_failure_cache_hits, auto.skipped_cache as u64);
        match result {
            Ok(report) => {
                self.stats.record_metrics(self.lane, &report.metrics);
                let mut wire = report.to_wire();
                if deterministic {
                    wire.wall_ns = 0;
                }
                Ok((
                    Value::Obj(vec![("report".into(), wire.to_value())]),
                    Control::Continue,
                ))
            }
            Err(e) => {
                let code = if !auto.complete {
                    code::DEADLINE
                } else if matches!(e, RepairError::AutoExhausted { .. }) {
                    code::AUTO_EXHAUSTED
                } else {
                    return Err((code::REPAIR_FAILED, e.to_string()).into());
                };
                Err(MethodError {
                    code,
                    message: e.to_string(),
                    data: Some(auto.to_wire().to_value()),
                })
            }
        }
    }

    /// `explain`: repair with provenance, then render the paper-style
    /// explanation of where and why the named constant changed.
    fn explain(&mut self, params: &Value, cancel: Option<&CancelToken>) -> MethodResult {
        let names = request_names(params, true)?;
        let (report, env) = self.run_repairer(params, &names, true, cancel)?;
        let name = names[0].as_str();
        let p = report.provenance_for(name).ok_or_else(|| {
            (
                code::BAD_PARAMS,
                format!("no provenance recorded for `{name}`"),
            )
        })?;
        let sites: Vec<pumpkin_lang::DiffSite> = p
            .sites
            .iter()
            .map(|s| pumpkin_lang::DiffSite {
                path: &s.path,
                rule: s.rule.as_str(),
            })
            .collect();
        let explanation =
            pumpkin_lang::explain_decl(&env, &p.from, &p.to, &sites).ok_or_else(|| {
                (
                    code::REPAIR_FAILED,
                    format!("`{}` or `{}` vanished from the environment", p.from, p.to),
                )
            })?;
        Ok((
            Value::Obj(vec![
                ("from".into(), Value::str(&p.from)),
                ("to".into(), Value::str(&p.to)),
                ("explanation".into(), Value::str(explanation.render())),
            ]),
            Control::Continue,
        ))
    }

    /// `trace_report`: run the repair traced and render the offline
    /// analyzer's report. Deterministic requests get the canonicalized
    /// metrics view instead (the full report quotes wall-clock times).
    fn trace_report(&mut self, params: &Value, cancel: Option<&CancelToken>) -> MethodResult {
        let names = request_names(params, false)?;
        let deterministic = flag(params, "deterministic");
        let top_k = params.get("top").and_then(Value::as_u64).unwrap_or(5) as usize;
        let (report, _env) = self.run_repairer(params, &names, false, cancel)?;
        let text = if deterministic {
            Metrics::from_events(report.trace_events())
                .canonicalize()
                .to_text()
        } else {
            pumpkin_core::trace::report::render(report.trace_events(), top_k)
        };
        Ok((
            Value::Obj(vec![("report".into(), Value::str(&text))]),
            Control::Continue,
        ))
    }

    /// `eval`: decode a digest-verified term envelope, typecheck and
    /// normalize it against the base environment, and return both the
    /// pretty form and the normal form's envelope.
    fn eval(&mut self, params: &Value) -> MethodResult {
        let envelope = params
            .get("term")
            .ok_or_else(|| (code::BAD_PARAMS, "eval needs a `term` envelope".into()))?;
        let term = term_from_envelope(envelope).map_err(|e| match e {
            WireError::BadDigest { .. } => (code::BAD_DIGEST, e.to_string()),
            other => (code::BAD_PARAMS, other.to_string()),
        })?;
        pumpkin_kernel::typecheck::infer_closed(&self.base, &term)
            .map_err(|e| (code::BAD_PARAMS, format!("term does not typecheck: {e}")))?;
        let normal = pumpkin_kernel::reduce::normalize(&self.base, &term);
        Ok((
            Value::Obj(vec![
                (
                    "pretty".into(),
                    Value::str(pumpkin_lang::pretty(&self.base, &normal)),
                ),
                ("term".into(), term_to_envelope(&normal)),
            ]),
            Control::Continue,
        ))
    }

    /// The shared run path for repair/explain/trace_report: resolve the
    /// lifting spec (configuring unless it is already cached), clone the
    /// configured environment, and run a [`Repairer`] over it.
    fn run_repairer(
        &mut self,
        params: &Value,
        names: &[String],
        provenance: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<(RepairReport, Env), (&'static str, String)> {
        let spec_value = params
            .get("lifting")
            .ok_or_else(|| (code::BAD_PARAMS, "request needs a `lifting` spec".into()))?;
        let spec =
            LiftSpec::from_value(spec_value).map_err(|e| (code::BAD_PARAMS, e.to_string()))?;
        self.ensure_configured(&spec)?;
        // An `"incremental": true` request diffs the sources against the
        // configuration's snapshot from the last repair (an empty snapshot
        // on the first request — everything diffs as changed, a cold run)
        // and replays unchanged constants from the persist cache.
        let incremental = flag(params, "incremental");
        let prev: Option<DigestMap> = if incremental {
            Some(self.configured[0].snapshot.clone().unwrap_or_default())
        } else {
            None
        };
        let cfg = &self.configured[0];

        let jobs = params
            .get("jobs")
            .and_then(Value::as_u64)
            .map_or(self.jobs, |j| (j as usize).max(1));
        let mut env = cfg.env.clone();
        let mut st = LiftState::new();
        let mut repairer = Repairer::new(&cfg.lifting)
            .jobs(jobs)
            .state(&mut st)
            .trace(true)
            .provenance(provenance);
        if let Some(tok) = cancel {
            repairer = repairer.cancel(tok.clone());
        } else if let Some(ms) = params.get("deadline_ms").and_then(Value::as_u64) {
            repairer = repairer.deadline(Duration::from_millis(ms));
        }
        if let Some(dir) = &self.cache_dir {
            repairer = repairer
                .persist_cache(dir)
                .cache_max_bytes(self.cache_max_bytes);
        }
        if let Some(snap) = &prev {
            repairer = repairer.incremental(snap);
        }
        let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
        let report = repairer.run(&mut env, &borrowed).map_err(|e| match e {
            RepairError::Cancelled { .. } => (code::DEADLINE, e.to_string()),
            other => (code::REPAIR_FAILED, other.to_string()),
        })?;
        if incremental {
            self.configured[0].snapshot = Some(DigestMap::capture(&env, &borrowed));
        }
        self.stats.record_metrics(self.lane, &report.metrics);
        let g = &self.stats.gauges;
        serve_stats::add(&g.persist_hits, report.lift.persist_hits);
        serve_stats::add(&g.persist_misses, report.lift.persist_misses);
        if let Some(incr) = &report.incr {
            serve_stats::add(&g.incr_changed, incr.changed);
            serve_stats::add(&g.incr_replayed, incr.replayed);
            serve_stats::add(&g.incr_skipped, incr.skipped);
        }
        Ok((report, env))
    }

    /// Moves the configuration for `spec` to the front of the cache,
    /// running its search procedure if it is not cached yet (and evicting
    /// the least recently used entry beyond [`MAX_CONFIGS`]).
    fn ensure_configured(&mut self, spec: &LiftSpec) -> Result<(), (&'static str, String)> {
        let digest = spec.digest();
        if let Some(pos) = self.configured.iter().position(|c| c.digest == digest) {
            self.configured[..=pos].rotate_right(1);
            serve_stats::inc(&self.stats.gauges.config_cache_hits);
            return Ok(());
        }
        serve_stats::inc(&self.stats.gauges.config_cache_misses);
        let mut env = self.base.clone();
        let lifting = build_lifting(&mut env, spec).map_err(|msg| (code::REPAIR_FAILED, msg))?;
        self.configured.insert(
            0,
            Configured {
                digest,
                env,
                lifting,
                snapshot: None,
            },
        );
        self.configured.truncate(MAX_CONFIGS);
        Ok(())
    }
}

/// Runs the search procedure a [`LiftSpec`] names against `env`.
fn build_lifting(env: &mut Env, spec: &LiftSpec) -> Result<Lifting, String> {
    let mut names = NameMap::default();
    for (f, t) in &spec.rename {
        names = names.with_rule(f.as_str(), t.as_str());
    }
    let a = GlobalName::new(spec.a.as_str());
    let b = GlobalName::new(spec.b.as_str());
    let fail = |e: &dyn std::fmt::Display| e.to_string();
    match spec.kind.as_str() {
        "swap" => pumpkin_core::search::swap::configure(env, &a, &b, names).map_err(|e| fail(&e)),
        "factor" => pumpkin_core::search::factor::configure_with(env, &a, &b, [0, 1], names)
            .map_err(|e| fail(&e)),
        "ornament" => pumpkin_core::search::ornament::configure(env, names).map_err(|e| fail(&e)),
        "bin" => pumpkin_core::manual::configure_nat_to_bin(env, names).map_err(|e| fail(&e)),
        "records" => {
            let projs = pumpkin_core::search::tuple_record::connection_projs();
            pumpkin_core::search::tuple_record::configure_to_record(env, &a, &b, &projs, names)
                .map_err(|e| fail(&e))
        }
        other => Err(format!("unknown lifting kind `{other}`")),
    }
}

/// Extracts the work list: `name` (string) for single-constant methods,
/// `names` (non-empty string array) otherwise.
fn request_names(params: &Value, single: bool) -> Result<Vec<String>, (&'static str, String)> {
    if single {
        let name = params
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| (code::BAD_PARAMS, "request needs a string `name`".into()))?;
        return Ok(vec![name.to_string()]);
    }
    let arr = params
        .get("names")
        .and_then(Value::as_arr)
        .ok_or_else(|| (code::BAD_PARAMS, "request needs a `names` array".into()))?;
    let names: Vec<String> = arr
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or_else(|| (code::BAD_PARAMS, "`names` must hold strings".into()))?;
    if names.is_empty() {
        return Err((code::BAD_PARAMS, "`names` must not be empty".into()));
    }
    Ok(names)
}

fn flag(params: &Value, key: &str) -> bool {
    params.get(key).and_then(Value::as_bool).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(pumpkin_stdlib::std_env(), 1, None)
    }

    fn swap_spec() -> String {
        LiftSpec::swap("Old.list", "New.list", "Old.", "New.")
            .to_value()
            .to_string()
    }

    #[test]
    fn ping_names_the_protocol() {
        let mut s = session();
        let (reply, ctl) = s.handle_line(r#"{"id":1,"method":"ping"}"#);
        assert_eq!(ctl, Control::Continue);
        assert_eq!(
            reply,
            r#"{"id":1,"req_id":1,"ok":true,"result":{"pong":true,"proto":2,"wire":"pumpkin-wire/2"}}"#
        );
    }

    #[test]
    fn req_ids_count_every_frame_including_parse_errors() {
        let mut s = session();
        let (r1, _) = s.handle_line(r#"{"id":1,"method":"ping"}"#);
        assert!(r1.contains(r#""req_id":1"#), "{r1}");
        let (r2, _) = s.handle_line("{]");
        assert!(
            r2.contains(r#""req_id":2"#),
            "parse errors consume an id: {r2}"
        );
        let (r3, _) = s.handle_line(r#"{"id":2,"method":"ping"}"#);
        assert!(r3.contains(r#""req_id":3"#), "{r3}");
    }

    #[test]
    fn stats_reports_schema_gauges_and_config_cache_traffic() {
        let mut s = session();
        let repair = format!(
            r#"{{"id":1,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (r, _) = s.handle_line(&repair);
        assert!(r.contains("\"ok\":true"), "{r}");
        let lifted_once = Value::parse(&r)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("report"))
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get("lift.constants"))
            .and_then(Value::as_u64)
            .expect("the report counts lifted constants");
        let (r, _) = s.handle_line(&repair);
        assert!(r.contains("\"ok\":true"), "{r}");
        let (reply, ctl) = s.handle_line(r#"{"id":9,"method":"stats"}"#);
        assert_eq!(ctl, Control::Continue);
        let v = Value::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(
            result.get("schema").and_then(Value::as_str),
            Some(STATS_SCHEMA)
        );
        let gauges = result.get("gauges").unwrap();
        // First repair configured fresh, second reused the cached recipe.
        assert_eq!(
            gauges.get("config_cache_misses").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            gauges.get("config_cache_hits").and_then(Value::as_u64),
            Some(1)
        );
        // A bare session records no latency — that is the server's job —
        // so the method map is empty.
        assert_eq!(
            result
                .get("methods")
                .and_then(Value::as_obj)
                .map(<[_]>::len),
            Some(0)
        );
        // The repair metrics accumulate across both repairs.
        assert_eq!(
            result
                .get("counters")
                .and_then(|c| c.get("lift.constants"))
                .and_then(Value::as_u64),
            Some(2 * lifted_once)
        );
        let runs = result.get("histograms").and_then(|h| h.get("run.ns"));
        assert_eq!(
            runs.and_then(|h| h.get("count")).and_then(Value::as_u64),
            Some(2)
        );
        assert!(runs.and_then(|h| h.get("p99_ns")).is_some());
    }

    #[test]
    fn repair_module_replies_with_a_report() {
        let mut s = session();
        let line = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let report = v.get("result").unwrap().get("report").unwrap();
        assert_eq!(report.get("wall_ns"), Some(&Value::UInt(0)));
        let repaired = report.get("repaired").and_then(Value::as_arr).unwrap();
        assert_eq!(repaired.len(), 2);
        // Sessions serve throwaway environments: a second identical
        // request returns byte-identical output (modulo the lifecycle
        // id, which counts frames).
        let (again, _) = s.handle_line(&line);
        assert_eq!(
            reply.replace("\"req_id\":1,", ""),
            again.replace("\"req_id\":2,", "")
        );
    }

    #[test]
    fn hello_announces_versions_methods_and_limits() {
        let mut s = session();
        let (reply, ctl) = s.handle_line(r#"{"id":1,"method":"hello"}"#);
        assert_eq!(ctl, Control::Continue);
        let v = Value::parse(&reply).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(
            result.get("proto_version").and_then(Value::as_u64),
            Some(u64::from(PROTO_VERSION))
        );
        assert_eq!(
            result.get("wire_version").and_then(Value::as_str),
            Some(pumpkin_wire::WIRE_TAG)
        );
        let methods = result.get("methods").and_then(Value::as_arr).unwrap();
        for m in METHODS {
            assert!(
                methods.iter().any(|v| v.as_str() == Some(m)),
                "hello must announce `{m}`"
            );
        }
        assert_eq!(
            result
                .get("limits")
                .and_then(|l| l.get("max_frame_bytes"))
                .and_then(Value::as_u64),
            Some(proto::MAX_FRAME as u64)
        );
    }

    #[test]
    fn incremental_repair_replays_from_the_persist_cache() {
        let dir =
            std::env::temp_dir().join(format!("pumpkin-serve-incr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::new(pumpkin_stdlib::std_env(), 1, Some(dir.clone()));
        let line = format!(
            r#"{{"id":1,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true,"incremental":true}}}}"#,
            swap_spec()
        );
        // First incremental request: empty snapshot, everything changed.
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let incr = |v: &Value| {
            v.get("result")
                .and_then(|r| r.get("report"))
                .and_then(|r| r.get("incr"))
                .cloned()
                .unwrap()
        };
        let first = incr(&v);
        assert_eq!(first.get("changed").and_then(Value::as_u64), Some(2));
        // Second identical request: nothing changed, everything replays.
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        let second = incr(&v);
        assert_eq!(second.get("changed").and_then(Value::as_u64), Some(0));
        assert_eq!(second.get("replayed").and_then(Value::as_u64), Some(0));
        assert_eq!(second.get("skipped").and_then(Value::as_u64), Some(2));
        // A cold request carries no `incr` field at all.
        let cold = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev","Old.app"],"deterministic":true}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&cold);
        assert!(!reply.contains("\"incr\""), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_after_incremental_repair_cites_the_same_rules() {
        let dir =
            std::env::temp_dir().join(format!("pumpkin-serve-explain-incr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let explain_line = format!(
            r#"{{"id":1,"method":"explain","params":{{"lifting":{},"name":"Old.rev"}}}}"#,
            swap_spec()
        );
        // Cold explanation, no cache anywhere.
        let (cold, _) = session().handle_line(&explain_line);
        // Warm the persist cache with an incremental repair, then explain
        // on the same session: the replayed world must cite identically.
        let mut s = Session::new(pumpkin_stdlib::std_env(), 1, Some(dir.clone()));
        let repair_line = format!(
            r#"{{"id":2,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deterministic":true,"incremental":true}}}}"#,
            swap_spec()
        );
        let (r, _) = s.handle_line(&repair_line);
        assert!(r.contains("\"ok\":true"), "{r}");
        let (r, _) = s.handle_line(&repair_line);
        assert!(r.contains("\"skipped\":1"), "{r}");
        let (warm, _) = s.handle_line(&explain_line);
        let text = |reply: &str| {
            Value::parse(reply)
                .unwrap()
                .get("result")
                .and_then(|r| r.get("explanation"))
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap()
        };
        assert_eq!(text(&cold), text(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_cites_the_rules() {
        let mut s = session();
        let line = format!(
            r#"{{"id":3,"method":"explain","params":{{"lifting":{},"name":"Old.rev"}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let result = v.get("result").unwrap();
        assert_eq!(result.get("to").and_then(Value::as_str), Some("New.rev"));
        assert!(result
            .get("explanation")
            .and_then(Value::as_str)
            .unwrap()
            .contains("New.rev"));
    }

    #[test]
    fn structured_errors_keep_the_connection_usable() {
        let mut s = session();
        for (line, want_code) in [
            ("{]", code::PARSE),
            (r#"{"id":1,"method":"frobnicate"}"#, code::UNKNOWN_METHOD),
            (r#"{"id":1,"method":"repair_module"}"#, code::BAD_PARAMS),
            (
                r#"{"id":1,"method":"repair_module","params":{"lifting":{"kind":"swap","a":"A","b":"B","rename":[]},"names":[]}}"#,
                code::BAD_PARAMS,
            ),
            (
                r#"{"id":1,"method":"eval","params":{"term":{"wire":"pumpkin-wire/2","digest":"0000000000000000","term":{"k":"sort","s":"prop"}}}}"#,
                code::BAD_DIGEST,
            ),
        ] {
            let (reply, ctl) = s.handle_line(line);
            assert_eq!(ctl, Control::Continue);
            let v = Value::parse(&reply).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Value::as_str),
                Some(want_code),
                "{line} -> {reply}"
            );
        }
        // After every error, a good request still succeeds.
        let (reply, _) = s.handle_line(r#"{"id":9,"method":"ping"}"#);
        assert!(reply.contains("\"pong\":true"));
    }

    #[test]
    fn eval_normalizes_digest_verified_terms() {
        use pumpkin_kernel::term::Term;
        let mut s = session();
        // S (S O) + O, as an applied constant — normalizes to a literal.
        let two = Term::app(
            Term::construct("nat", 1),
            [Term::app(
                Term::construct("nat", 1),
                [Term::construct("nat", 0)],
            )],
        );
        let t = Term::app(Term::const_("add"), [two, Term::construct("nat", 0)]);
        let line = format!(
            r#"{{"id":4,"method":"eval","params":{{"term":{}}}}}"#,
            term_to_envelope(&t)
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let pretty = v
            .get("result")
            .unwrap()
            .get("pretty")
            .and_then(Value::as_str)
            .unwrap();
        assert_eq!(pretty, "S (S O)");
    }

    #[test]
    fn deadline_zero_reports_a_deadline_error() {
        let mut s = session();
        let line = format!(
            r#"{{"id":5,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"],"deadline_ms":0}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&line);
        let v = Value::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Value::as_str),
            Some(code::DEADLINE),
            "{reply}"
        );
        // The session is still healthy.
        let ok_line = format!(
            r#"{{"id":6,"method":"repair_module","params":{{"lifting":{},"names":["Old.rev"]}}}}"#,
            swap_spec()
        );
        let (reply, _) = s.handle_line(&ok_line);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
}
