//! `serve_closed`: an in-process pumpkind on loopback (`workers = 2`, no
//! cache directory) driven by two client connections in a closed loop.
//! Each connection is an editor that waits for its reply before sending
//! the next request.
//!
//! Requests are a seeded mix over the 13 swap-module constants: mostly
//! `repair`, some `repair_module` with 2–4 names, and a small share of
//! `repair_batch`. All are sent with `"deterministic": false`, so replies
//! carry the server-side `wall_ns` and the client can split a round trip
//! into repair time and everything else (session Env clone, JSON codec,
//! queue wait, socket write).
//!
//! The client encodes with `Value::to_string`, sends with
//! `Client::call_raw`, and decodes with `Value::parse` — the three steps
//! `Client::call` performs — so the codec's client-side cost is a span of
//! its own.

use std::time::Instant;

use pumpkin_serve::{Client, Server, ServerConfig};
use pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS as POOL;
use pumpkin_wire::{LiftSpec, Value};

use crate::check;
use crate::gen::{InputDigest, Rng};
use crate::span::{Span, Tracer};
use crate::{Cfg, Outcome};

/// Client connections (= this machine's core count; the server also
/// runs two workers).
const CONNECTIONS: usize = 2;
/// Requests generated per connection; a run that outlasts them wraps.
const STREAM_LEN: usize = 4000;
/// Warm-up requests per connection during set-up.
const WARMUP: usize = 32;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// One generated request and the known answer per item. The request is
/// kept as a `Value` so the client-side encode is timed with each send.
pub struct Request {
    value: Value,
    method: &'static str,
    /// Per item (one for `repair`/`repair_module`), the expected pairs.
    expected: Vec<Vec<(String, String)>>,
}

fn renamed(names: &[&str]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|n| (n.to_string(), n.replacen("Old.", "New.", 1)))
        .collect()
}

/// One repair item: a single name (`size == 1`, as for `repair`) or
/// `size` consecutive names (as for `repair_module`), as params fields.
fn item(rng: &mut Rng, size: usize) -> (Vec<(String, Value)>, Vec<&'static str>) {
    if size == 1 {
        let n = POOL[rng.below(POOL.len())];
        (vec![("name".into(), Value::str(n))], vec![n])
    } else {
        let start = rng.below(POOL.len());
        let names: Vec<&str> = (0..size).map(|k| POOL[(start + k) % POOL.len()]).collect();
        let arr = names.iter().map(|n| Value::str(*n)).collect();
        (vec![("names".into(), Value::Arr(arr))], names)
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Repair,
    Module(usize),
    Batch(usize),
}

/// One block of the stream: 36 `repair`, 11 `repair_module` (2–4 names),
/// 3 `repair_batch` (2, 3 and 4 items). Streams are built from whole
/// blocks in seeded order, so every seed has the same mix of request
/// shapes, and the slow tail (the batches) is the same share of every run.
fn block() -> Vec<Shape> {
    let mut b = vec![Shape::Repair; 36];
    b.extend((0..11).map(|j| Shape::Module(2 + j % 3)));
    b.extend((2..=4).map(Shape::Batch));
    b
}

/// Connection `conn`'s request stream: a pure function of the seed.
fn stream(seed: u64, conn: usize, len: usize) -> Vec<Request> {
    let mut rng = Rng::stream(seed, 100 + conn as u64);
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let mut shapes = Vec::with_capacity(len);
    while shapes.len() < len {
        let mut b = block();
        rng.shuffle(&mut b);
        shapes.extend(b);
    }
    shapes.truncate(len);
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let (method, mut params, expected) = match shape {
                Shape::Repair => {
                    let (fields, names) = item(&mut rng, 1);
                    ("repair", fields, vec![renamed(&names)])
                }
                Shape::Module(size) => {
                    let (fields, names) = item(&mut rng, size);
                    ("repair_module", fields, vec![renamed(&names)])
                }
                Shape::Batch(n) => {
                    let mut items = Vec::new();
                    let mut expected = Vec::new();
                    for k in 0..n {
                        // Alternate single and module items.
                        let size = if k % 2 == 0 { 1 } else { 2 + rng.below(3) };
                        let (mut fields, names) = item(&mut rng, size);
                        fields.push(("deterministic".into(), Value::Bool(false)));
                        items.push(Value::Obj(fields));
                        expected.push(renamed(&names));
                    }
                    (
                        "repair_batch",
                        vec![("batch".into(), Value::Arr(items))],
                        expected,
                    )
                }
            };
            params.push(("lifting".into(), spec.to_value()));
            params.push(("deterministic".into(), Value::Bool(false)));
            let value = Value::Obj(vec![
                ("id".into(), Value::UInt(i as u64 + 1)),
                ("method".into(), Value::str(method)),
                ("params".into(), Value::Obj(params)),
            ]);
            Request {
                value,
                method,
                expected,
            }
        })
        .collect()
}

pub fn streams(seed: u64) -> Vec<Vec<Request>> {
    (0..CONNECTIONS)
        .map(|c| stream(seed, c, STREAM_LEN))
        .collect()
}

pub fn digest(streams: &[Vec<Request>]) -> InputDigest {
    let mut d = InputDigest::default();
    for r in streams.iter().flatten() {
        d.add_str(&r.value.to_string());
    }
    d
}

/// Pairs a repair result reports, and its server-side `wall_ns`.
fn result_pairs(result: &Value) -> Result<(Vec<(String, String)>, u64), String> {
    let report = result.get("report").ok_or("result has no report")?;
    let wall = report.get("wall_ns").and_then(Value::as_u64).unwrap_or(0);
    let pairs = report
        .get("repaired")
        .and_then(Value::as_arr)
        .ok_or("report has no repaired list")?
        .iter()
        .map(|p| {
            let p = p.as_arr().filter(|p| p.len() == 2)?;
            Some((p[0].as_str()?.to_string(), p[1].as_str()?.to_string()))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed repaired pair")?;
    Ok((pairs, wall))
}

/// Checks one reply envelope against the known answer; returns the
/// number of repaired constants and the summed server `wall_ns`.
fn check_reply(req: &Request, reply: &Value, plant: bool) -> Result<(u64, u64), String> {
    let ok = |envelope: &Value| -> Result<Value, String> {
        match envelope.get("ok").and_then(Value::as_bool) {
            Some(true) => envelope.get("result").cloned().ok_or("no result".into()),
            _ => Err(format!("error reply: {envelope}")),
        }
    };
    let result = ok(reply)?;
    let items: Vec<Value> = if req.method == "repair_batch" {
        let arr = result
            .get("results")
            .and_then(Value::as_arr)
            .ok_or("batch result has no results")?;
        arr.iter().map(ok).collect::<Result<_, _>>()?
    } else {
        vec![result]
    };
    if items.len() != req.expected.len() {
        return Err(format!(
            "{} items for {} requested",
            items.len(),
            req.expected.len()
        ));
    }
    let (mut constants, mut wall) = (0, 0);
    for (item, want) in items.iter().zip(&req.expected) {
        let (mut pairs, w) = result_pairs(item)?;
        if plant {
            pairs.push(("Old.planted".into(), "Old.planted".into()));
        }
        check::pairs_match(&pairs, want).map_err(|e| format!("{}: {e}", req.method))?;
        if let Some(Value::Str(to)) = item.get("to") {
            if to.starts_with("Old.") {
                return Err(format!("repair answered an old name {to}"));
            }
        }
        constants += pairs.len() as u64;
        wall += w;
    }
    Ok((constants, wall))
}

struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start() -> Daemon {
    let server = Server::bind(ServerConfig {
        workers: 2,
        cache_dir: None,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn stop(d: Daemon) {
    if let Ok(mut c) = Client::connect(&d.addr) {
        let _ = c.call("shutdown", Value::Obj(vec![]));
    }
    match d.handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!("perfbench: daemon stopped with an error: {e}"),
        Err(_) => eprintln!("perfbench: daemon thread panicked"),
    }
}

/// Queue-wait summary from the daemon's `stats` RPC: count, mean, p50,
/// p99 (ns; the daemon's histogram has log₂ resolution).
fn queue_wait(addr: &str) -> Option<(u64, f64, u64, u64)> {
    let mut c = Client::connect(addr).ok()?;
    let stats = c.call("stats", Value::Obj(vec![])).ok()?;
    let qw = stats.get("total")?.get("queue_wait")?;
    let get = |k: &str| qw.get(k).and_then(Value::as_u64).unwrap_or(0);
    Some((
        get("count"),
        get("mean_ns") as f64,
        get("p50_ns"),
        get("p99_ns"),
    ))
}

/// One connection's closed loop until the deadline.
fn client_loop(
    cfg: &Cfg,
    conn: usize,
    addr: &str,
    requests: &[Request],
    deadline: Instant,
    epoch: Instant,
) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(epoch);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.fail(format!("connection {conn}: {e}"));
            return (out, Vec::new());
        }
    };
    let mut i = 0u64;
    while Instant::now() < deadline {
        let req = &requests[i as usize % requests.len()];
        let op_id = (i << 1) | conn as u64;
        let traced = cfg.traced_op(i);
        tr.set_on(traced);
        let start = Instant::now();
        tr.begin_op(op_id);
        let line = tr.span("wire.encode", || req.value.to_string());
        let sent = Instant::now();
        let reply = tr.span("serve.call", || client.call_raw(&line));
        let rtt_ns = sent.elapsed().as_nanos() as f64;
        let result = match reply {
            Err(e) => Err(format!("connection {conn}: {e}")),
            Ok(reply) => {
                out.add("wire.reply_bytes", reply.len() as f64);
                let parsed = tr.span("wire.decode", || Value::parse(&reply));
                match parsed {
                    Err(e) => Err(format!("bad reply: {e}")),
                    Ok(v) => {
                        if v.get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Value::as_str)
                            == Some("busy")
                        {
                            out.add("serve.busy", 1.0);
                        }
                        tr.span("bench.verify", || check_reply(req, &v, cfg.plant(i)))
                            .map(|(constants, wall)| {
                                out.add("serve.wall_ns", wall as f64);
                                out.add("serve.rtt_ns", rtt_ns);
                                out.add("serve.answered", 1.0);
                                constants
                            })
                    }
                }
            }
        };
        tr.end_op();
        out.record(start.elapsed().as_secs_f64() * 1e3, traced, result);
        i += 1;
    }
    (out, tr.into_spans())
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let streams = streams(cfg.seed);
    out.digest = digest(&streams);

    // Set-up: bind (which builds the daemon's base environment), start
    // the workers, and warm both connections' sessions with the first
    // requests of their streams. Repeated; `setup_s` is the median, and
    // the last daemon serves the timed phase.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            stop(d);
        }
        let start = Instant::now();
        daemon = Some(start_daemon_warm(&streams, &mut out));
        setups.push(start.elapsed().as_secs_f64());
    }
    out.setup_s = crate::stats::median(&setups);
    let daemon = daemon.expect("at least one set-up");
    let before = queue_wait(&daemon.addr);

    let epoch = Instant::now();
    let deadline = epoch + cfg.run_time();
    let results: Vec<(Outcome, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let addr = daemon.addr.as_str();
                s.spawn(move || client_loop(cfg, c, addr, reqs, deadline, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    out.active_s = epoch.elapsed().as_secs_f64();
    let after = queue_wait(&daemon.addr);
    stop(daemon);

    for (o, spans) in results {
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.constants += o.constants;
        // Each connection reads the process-wide mark after its own ops.
        out.peak_rss_mb = out.peak_rss_mb.max(o.peak_rss_mb);
        out.lat_ms.extend(o.lat_ms);
        out.traced_lat_ms.extend(o.traced_lat_ms);
        for (k, v) in o.sums {
            out.add(k, v);
        }
        if let Some(f) = o.first_failure {
            out.fail(f);
        }
        out.spans.push(spans);
    }
    let answered = out.sum("serve.answered").max(1.0);
    let ops = out.attempted.max(1) as f64;
    let mut layer = vec![
        ("wire.reply_bytes", out.sum("wire.reply_bytes") / ops),
        (
            "serve.repair_wall_ms",
            out.sum("serve.wall_ns") / answered / 1e6,
        ),
        (
            "serve.overhead_ms",
            (out.sum("serve.rtt_ns") - out.sum("serve.wall_ns")) / answered / 1e6,
        ),
        ("serve.busy", out.sum("serve.busy")),
    ];
    if let (Some(b), Some(a)) = (before, after) {
        let n = a.0.saturating_sub(b.0) as f64;
        let mean = if n > 0.0 {
            (a.0 as f64 * a.1 - b.0 as f64 * b.1) / n
        } else {
            0.0
        };
        layer.push(("serve.queue_wait_mean_us", mean / 1e3));
        layer.push(("serve.queue_wait_p50_us", a.2 as f64 / 1e3));
        layer.push(("serve.queue_wait_p99_us", a.3 as f64 / 1e3));
    }
    out.layer.extend(layer);
    out
}

/// Binds a daemon and sends each connection's first [`WARMUP`] requests.
fn start_daemon_warm(streams: &[Vec<Request>], out: &mut Outcome) -> Daemon {
    let d = start();
    let warm = |reqs: &[Request]| -> Result<(), String> {
        let mut c = Client::connect(&d.addr).map_err(|e| e.to_string())?;
        for r in &reqs[..WARMUP] {
            let reply = c
                .call_raw(&r.value.to_string())
                .map_err(|e| e.to_string())?;
            let v = Value::parse(&reply).map_err(|e| e.to_string())?;
            check_reply(r, &v, false)?;
        }
        Ok(())
    };
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams.iter().map(|reqs| s.spawn(|| warm(reqs))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up threads do not panic"))
            .collect()
    });
    for r in results {
        if let Err(e) = r {
            out.setup_failed(e);
        }
    }
    d
}
