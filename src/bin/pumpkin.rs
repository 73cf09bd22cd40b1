//! `pumpkin` — a command-line driver for the repair engine.
//!
//! Usage: `pumpkin [--jobs N] [--trace out.jsonl] [--metrics] <script.pi | ->`.
//! See [`pumpkin_pi::cli`] for the directive reference and
//! `examples/scripts/` for walkthroughs.
//!
//! * `--jobs N` — worker cap for the repair commands (0 = auto).
//! * `--trace out.jsonl` — write each repair command's structured event
//!   stream as JSON lines (schema in DESIGN.md §11).
//! * `--metrics` — print the derived counters/histograms after each
//!   repair command.
//!
//! A second mode analyzes traces offline (no script, no environment):
//! `pumpkin trace-report [--lint] [--top K] <file.jsonl> [file2.jsonl]`.
//! One file renders the full report (critical path, hottest lifts, cache
//! behavior per constant, provenance summary); two files render a
//! structural diff; `--lint` validates the file(s) against the schema and
//! exits nonzero on violations.

use std::io::Read;
use std::process::ExitCode;

use pumpkin_pi::cli::{run_script, Session};
use pumpkin_serve::{Client, ServerConfig};
use pumpkin_wire::{LiftSpec, Value};

const USAGE: &str = "usage: pumpkin [--jobs N] [--trace out.jsonl] [--metrics] <script.pi | ->\n\
                     \x20      pumpkin trace-report [--lint] [--top K] <file.jsonl> [file2.jsonl]\n\
                     \x20      pumpkin serve [--listen ADDR] [--unix PATH] [--jobs N] [--max-sessions N]\n\
                     \x20                    [--workers N] [--queue-depth N] [--cache-dir DIR]\n\
                     \x20                    [--cache-max-bytes N] [--slow-ms N] [--log PATH]\n\
                     \x20      pumpkin client --connect ADDR <hello|ping|shutdown|stats|repair-module|explain|call> [args]\n\
                     \x20                     (stats takes [--json|--prometheus])\n\
                     \x20      pumpkin top --connect ADDR [--interval-ms N] [--count N]\n\
                     \x20      pumpkin watch [--poll-ms MS] [--max-runs N] [--jobs N] [--cache-dir DIR]\n\
                     \x20                    [--cache-max-bytes N] [--swap A B] [--rename From.=To.]\n\
                     \x20                    [--names n1,n2,...] <module.pi>\n\
                     \x20      pumpkin auto [--budget N] [--emit-repro PATH] [--jobs N] [--seed S]\n\
                     \x20                   [--no-failure-cache] [--swap A B] [--rename From.=To.]\n\
                     \x20                   [--names n1,n2,...] <module.pi>\n\
                     \x20      pumpkin loadgen [--connect ADDR] [--mode closed|open] [--clients N] [--requests N]\n\
                     \x20                      [--rate R] [--duration-ms D] [--seed S] [--workers N]\n\
                     \x20                      [--queue-depth N] [--jobs N] [--trials N] [--touch-rate R]\n\
                     \x20                      [--fail-rate R] [--json PATH] [--server-stats]";

fn serve(argv: &[String]) -> ExitCode {
    let mut cfg = ServerConfig {
        listen: "127.0.0.1:7717".into(),
        ..ServerConfig::default()
    };
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().map(String::to_owned).ok_or_else(|| {
                eprintln!("{what} needs a value\n{USAGE}");
            })
        };
        match arg.as_str() {
            "--listen" => match take("--listen") {
                Ok(v) => cfg.listen = v,
                Err(()) => return ExitCode::FAILURE,
            },
            "--unix" => match take("--unix") {
                Ok(v) => cfg.unix = Some(v.into()),
                Err(()) => return ExitCode::FAILURE,
            },
            "--cache-dir" => match take("--cache-dir") {
                Ok(v) => cfg.cache_dir = Some(v.into()),
                Err(()) => return ExitCode::FAILURE,
            },
            "--cache-max-bytes" => match take("--cache-max-bytes").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => cfg.cache_max_bytes = Some(n),
                _ => {
                    eprintln!("--cache-max-bytes needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match take("--jobs").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => cfg.jobs = n.max(1),
                _ => {
                    eprintln!("--jobs needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--max-sessions" => match take("--max-sessions").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => cfg.max_sessions = n.max(1),
                _ => {
                    eprintln!("--max-sessions needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match take("--workers").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => cfg.workers = n.max(1),
                _ => {
                    eprintln!("--workers needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--queue-depth" => match take("--queue-depth").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => cfg.queue_depth = n.max(1),
                _ => {
                    eprintln!("--queue-depth needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--slow-ms" => match take("--slow-ms").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => cfg.slow_ms = Some(n),
                _ => {
                    eprintln!("--slow-ms needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--log" => match take("--log") {
                Ok(v) => cfg.log = Some(v.into()),
                Err(()) => return ExitCode::FAILURE,
            },
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let server = match pumpkin_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Scripts (check.sh, tests) parse this exact line to learn
            // the port when listening on :0.
            println!("pumpkind listening on {addr}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("pumpkind drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the `lifting`/`names` request params shared by the client's
/// repair-module and explain verbs.
fn client_lift_params(
    args: &mut std::slice::Iter<'_, String>,
    single: bool,
) -> Result<Vec<(String, Value)>, String> {
    let mut swap: Option<(String, String)> = None;
    let mut rename: Option<(String, String)> = None;
    let mut names: Vec<Value> = Vec::new();
    let mut deterministic = false;
    let mut jobs: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--swap" => {
                let (Some(a), Some(b)) = (args.next(), args.next()) else {
                    return Err("--swap needs two type names".into());
                };
                swap = Some((a.clone(), b.clone()));
            }
            "--rename" => {
                let (Some(f), Some(t)) = (args.next(), args.next()) else {
                    return Err("--rename needs two prefixes".into());
                };
                rename = Some((f.clone(), t.clone()));
            }
            "--name" | "--names" => {
                let Some(list) = args.next() else {
                    return Err(format!("{arg} needs a value"));
                };
                names.extend(list.split(',').map(Value::str));
            }
            "--deterministic" => deterministic = true,
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--jobs needs a number")?,
                );
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let Some((a, b)) = swap else {
        return Err("--swap A B is required".into());
    };
    // Default the rename to the modules the swapped types live in:
    // swapping Old.list for New.list renames Old.* to New.*.
    let module_of = |n: &str| {
        n.rsplit_once('.')
            .map_or(String::new(), |(m, _)| format!("{m}."))
    };
    let (from, to) = rename.unwrap_or_else(|| (module_of(&a), module_of(&b)));
    if names.is_empty() {
        return Err("--names n1,n2,... is required".into());
    }
    let spec = LiftSpec::swap(&a, &b, &from, &to);
    let mut params = vec![("lifting".to_string(), spec.to_value())];
    if single {
        let Some(Value::Str(name)) = names.first().filter(|_| names.len() == 1) else {
            return Err("explain takes exactly one --name".into());
        };
        params.push(("name".into(), Value::str(name)));
    } else {
        params.push(("names".into(), Value::Arr(names)));
    }
    if deterministic {
        params.push(("deterministic".into(), Value::Bool(true)));
    }
    if let Some(j) = jobs {
        params.push(("jobs".into(), Value::UInt(j)));
    }
    Ok(params)
}

fn render_client_result(method: &str, result: &Value) {
    match method {
        "repair" | "repair_module" => {
            if let Some(report) = result.get("report") {
                if let Some(Value::Arr(pairs)) = report.get("repaired") {
                    for p in pairs {
                        if let Value::Arr(pair) = p {
                            if let (Some(f), Some(t)) = (
                                pair.first().and_then(Value::as_str),
                                pair.get(1).and_then(Value::as_str),
                            ) {
                                println!("repaired {f} -> {t}");
                            }
                        }
                    }
                }
                let stat = |k: &str| report.get(k).and_then(Value::as_u64).unwrap_or(0);
                println!(
                    "waves {} width {} | cache {}/{} | persist {}/{} | {:.2} ms",
                    stat("waves"),
                    stat("max_width"),
                    stat("cache_hits"),
                    stat("cache_hits") + stat("cache_misses"),
                    stat("persist_hits"),
                    stat("persist_hits") + stat("persist_misses"),
                    stat("wall_ns") as f64 / 1e6,
                );
                return;
            }
            println!("{result}");
        }
        "explain" => match result.get("explanation").and_then(Value::as_str) {
            Some(text) => print!("{text}"),
            None => println!("{result}"),
        },
        "trace_report" => match result.get("report").and_then(Value::as_str) {
            Some(text) => print!("{text}"),
            None => println!("{result}"),
        },
        _ => println!("{result}"),
    }
}

/// Pulls one `u64` field out of a method's histogram block in a `stats`
/// result (`latency`/`queue_wait` → `count`/`p50_ns`/…); 0 when absent.
fn stat_field(method: &Value, block: &str, field: &str) -> u64 {
    method
        .get(block)
        .and_then(|b| b.get(field))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Renders a `stats` result as a human-readable table: one row per
/// method, then the gauge and repair-counter blocks.
fn render_stats_table(result: &Value) {
    if let Some(schema) = result.get("schema").and_then(Value::as_str) {
        println!("schema {schema}");
    }
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "METHOD", "COUNT", "P50_MS", "P95_MS", "P99_MS", "QWAIT_P99_MS"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for (name, m) in result.get("methods").and_then(Value::as_obj).unwrap_or(&[]) {
        println!(
            "{:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>12.3}",
            name,
            stat_field(m, "latency", "count"),
            ms(stat_field(m, "latency", "p50_ns")),
            ms(stat_field(m, "latency", "p95_ns")),
            ms(stat_field(m, "latency", "p99_ns")),
            ms(stat_field(m, "queue_wait", "p99_ns")),
        );
    }
    for (block, label) in [("gauges", "gauge"), ("counters", "counter")] {
        for (name, v) in result.get(block).and_then(Value::as_obj).unwrap_or(&[]) {
            println!("{label} {name} {v}");
        }
    }
}

/// Renders a `stats` result as Prometheus text exposition. Hand-rolled —
/// the daemon speaks JSON; translation to scrape format is the client's
/// job, and the format is just `# TYPE` lines plus `name{labels} value`
/// samples (latencies in seconds, per convention).
fn render_stats_prometheus(result: &Value) -> String {
    let mut out = String::new();
    let methods = result.get("methods").and_then(Value::as_obj).unwrap_or(&[]);
    out.push_str("# TYPE pumpkin_requests_total counter\n");
    for (name, m) in methods {
        out.push_str(&format!(
            "pumpkin_requests_total{{method=\"{name}\"}} {}\n",
            stat_field(m, "latency", "count")
        ));
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    for (family, block) in [
        ("pumpkin_request_latency_seconds", "latency"),
        ("pumpkin_request_queue_wait_seconds", "queue_wait"),
    ] {
        out.push_str(&format!("# TYPE {family} summary\n"));
        for (name, m) in methods {
            for (q, field) in [("0.5", "p50_ns"), ("0.95", "p95_ns"), ("0.99", "p99_ns")] {
                out.push_str(&format!(
                    "{family}{{method=\"{name}\",quantile=\"{q}\"}} {:.9}\n",
                    secs(stat_field(m, block, field))
                ));
            }
            let count = stat_field(m, block, "count");
            out.push_str(&format!(
                "{family}_sum{{method=\"{name}\"}} {:.9}\n",
                secs(stat_field(m, block, "mean_ns")) * count as f64
            ));
            out.push_str(&format!("{family}_count{{method=\"{name}\"}} {count}\n"));
        }
    }
    for (name, v) in result.get("gauges").and_then(Value::as_obj).unwrap_or(&[]) {
        out.push_str(&format!(
            "# TYPE pumpkin_serve_{name} gauge\npumpkin_serve_{name} {v}\n"
        ));
    }
    out
}

/// Maps a client-side failure to a distinct exit status, so scripts can
/// branch on *why* a call failed (`busy` → back off and retry, `deadline`
/// → raise the budget, version skew → upgrade) instead of parsing stderr.
fn client_exit_code(err: &pumpkin_serve::ClientError) -> ExitCode {
    use pumpkin_serve::ClientError;
    let code = match err {
        ClientError::Server { code, .. } => code.as_str(),
        ClientError::Protocol(_) => return ExitCode::from(20),
        ClientError::Io(_) => return ExitCode::from(21),
    };
    ExitCode::from(exit_status_for(code))
}

/// The server-code → exit-status map itself. Every code the server can
/// emit ([`pumpkin_serve::proto::code::ALL`]) has its own status here —
/// the audit test below fails the build of any server code left to the
/// catch-all — and 19 is reserved for codes newer than this client.
fn exit_status_for(code: &str) -> u8 {
    use pumpkin_serve::proto::code;
    match code {
        code::BUSY => 10,
        code::DEADLINE => 11,
        code::BAD_DIGEST => 12,
        code::BAD_PARAMS => 13,
        code::UNKNOWN_METHOD => 14,
        code::REPAIR_FAILED => 15,
        code::SHUTTING_DOWN => 16,
        code::OVERSIZED => 17,
        code::TRUNCATED => 24,
        code::PARSE => 18,
        code::AUTO_EXHAUSTED => EXIT_AUTO_EXHAUSTED,
        _ => 19,
    }
}

/// One-line human rendering for a failed call, with a hint where the
/// right reaction is obvious.
fn client_error_line(err: &pumpkin_serve::ClientError) -> String {
    use pumpkin_serve::proto::code;
    use pumpkin_serve::ClientError;
    let hint = match err {
        ClientError::Server { code, .. } => match code.as_str() {
            code::BUSY => " (server saturated; retry with backoff)",
            code::DEADLINE => " (deadline elapsed; raise --deadline-ms or the server budget)",
            code::SHUTTING_DOWN => " (server is draining; reconnect later)",
            code::BAD_DIGEST => " (payload corrupt in transit; resend)",
            _ => "",
        },
        _ => "",
    };
    format!("pumpkin client: {err}{hint}")
}

/// Exit status for a `hello` version mismatch (distinct from every
/// server-error status so scripts can tell skew from failure).
const EXIT_VERSION_SKEW: u8 = 22;

/// Exit status when an automatic search exhausts every candidate (the
/// `pumpkin auto` verb locally, or a `repair_auto` RPC via the client) —
/// scripts branch on it to pick up the minimized reproducer.
const EXIT_AUTO_EXHAUSTED: u8 = 23;

/// Negotiates with the server: calls `hello`, fails fast when the proto
/// or wire version disagrees with ours, and refuses servers that predate
/// the handshake. Returns the announced method list.
fn client_negotiate(client: &mut Client) -> Result<Vec<String>, (String, ExitCode)> {
    use pumpkin_serve::ClientError;
    let hello = match client.call("hello", Value::Obj(vec![])) {
        Ok(v) => v,
        Err(ClientError::Server { ref code, .. }) if code == "unknown_method" => {
            return Err((
                "server does not implement `hello`; it predates this client — upgrade pumpkind"
                    .into(),
                ExitCode::from(EXIT_VERSION_SKEW),
            ))
        }
        Err(e) => return Err((client_error_line(&e), client_exit_code(&e))),
    };
    let proto = hello.get("proto_version").and_then(Value::as_u64);
    if proto != Some(u64::from(pumpkin_serve::proto::PROTO_VERSION)) {
        return Err((
            format!(
                "protocol version mismatch: server speaks {:?}, this client speaks {}",
                proto,
                pumpkin_serve::proto::PROTO_VERSION
            ),
            ExitCode::from(EXIT_VERSION_SKEW),
        ));
    }
    let wire = hello.get("wire_version").and_then(Value::as_str);
    if wire != Some(pumpkin_wire::WIRE_TAG) {
        return Err((
            format!(
                "wire version mismatch: server speaks {:?}, this client speaks {}",
                wire,
                pumpkin_wire::WIRE_TAG
            ),
            ExitCode::from(EXIT_VERSION_SKEW),
        ));
    }
    Ok(hello
        .get("methods")
        .and_then(Value::as_arr)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| m.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default())
}

fn client(argv: &[String]) -> ExitCode {
    let mut args = argv.iter();
    let mut connect: Option<String> = None;
    let mut verb: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                let Some(addr) = args.next() else {
                    eprintln!("--connect needs an address\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                connect = Some(addr.clone());
            }
            other => {
                verb = Some(other.to_string());
                break;
            }
        }
    }
    let (Some(addr), Some(verb)) = (connect, verb) else {
        eprintln!("client needs --connect ADDR and a verb\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut stats_format = "table";
    let (method, params) = match verb.as_str() {
        "ping" | "shutdown" | "hello" => (verb.clone(), Value::Obj(vec![])),
        "stats" => {
            match args.next().map(String::as_str) {
                Some("--json") => stats_format = "json",
                Some("--prometheus") => stats_format = "prometheus",
                None => {}
                Some(other) => {
                    eprintln!("unexpected stats argument `{other}`\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
            (verb.clone(), Value::Obj(vec![]))
        }
        "repair-module" => match client_lift_params(&mut args, false) {
            Ok(fields) => ("repair_module".to_string(), Value::Obj(fields)),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
        "explain" => match client_lift_params(&mut args, true) {
            Ok(fields) => ("explain".to_string(), Value::Obj(fields)),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
        "call" => {
            let Some(method) = args.next() else {
                eprintln!("call needs a method name\n{USAGE}");
                return ExitCode::FAILURE;
            };
            let params = match args.next() {
                Some(raw) => match Value::parse(raw) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("bad params JSON: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => Value::Obj(vec![]),
            };
            (method.clone(), params)
        }
        other => {
            eprintln!("unknown client verb `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Repair-family verbs negotiate first: a version-skewed server fails
    // fast (and distinctly) instead of mid-workload. The cheap control
    // verbs skip the extra round trip — `hello` *is* the negotiation, and
    // `ping`/`shutdown`/`stats`/`call` must keep working against any
    // server for diagnostics.
    if matches!(verb.as_str(), "repair-module" | "explain") {
        match client_negotiate(&mut client) {
            Ok(methods) => {
                if !methods.is_empty() && !methods.iter().any(|m| m == &method) {
                    eprintln!("pumpkin client: server does not serve `{method}`");
                    return ExitCode::from(EXIT_VERSION_SKEW);
                }
            }
            Err((msg, code)) => {
                eprintln!("pumpkin client: {msg}");
                return code;
            }
        }
    }
    match client.call(&method, params) {
        Ok(result) => {
            if method == "stats" {
                match stats_format {
                    "json" => println!("{result}"),
                    "prometheus" => print!("{}", render_stats_prometheus(&result)),
                    _ => render_stats_table(&result),
                }
            } else {
                render_client_result(&method, &result);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}", client_error_line(&e));
            client_exit_code(&e)
        }
    }
}

/// `pumpkin top`: a live operator view. Polls the daemon's `stats` RPC
/// and redraws a table of per-method request rate (from count deltas
/// between polls), latency percentiles, and the service gauges.
fn top(argv: &[String]) -> ExitCode {
    use std::collections::BTreeMap;
    use std::io::Write as _;
    use std::time::Instant;

    let mut connect: Option<String> = None;
    let mut interval_ms = 1000u64;
    let mut count = 0u64;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect needs an address\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--interval-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => interval_ms = n.max(1),
                None => {
                    eprintln!("--interval-ms needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--count" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => count = n,
                None => {
                    eprintln!("--count needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = connect else {
        eprintln!("top needs --connect ADDR\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut prev: BTreeMap<String, u64> = BTreeMap::new();
    let mut prev_at = Instant::now();
    let mut frames = 0u64;
    loop {
        let stats = match client.call("stats", Value::Obj(vec![])) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}", client_error_line(&e));
                return client_exit_code(&e);
            }
        };
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        if frames > 0 {
            // Redraw in place: clear the screen, cursor home.
            print!("\x1b[2J\x1b[H");
        }
        println!("pumpkind {addr} — stats every {interval_ms} ms (Ctrl-C to quit)");
        println!(
            "{:<16} {:>8} {:>8} {:>10} {:>10} {:>12}",
            "METHOD", "COUNT", "RATE/S", "P50_MS", "P99_MS", "QWAIT_P99_MS"
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut current: BTreeMap<String, u64> = BTreeMap::new();
        for (name, m) in stats.get("methods").and_then(Value::as_obj).unwrap_or(&[]) {
            let total = stat_field(m, "latency", "count");
            let rate = if frames == 0 {
                0.0
            } else {
                (total.saturating_sub(prev.get(name).copied().unwrap_or(0))) as f64 / dt
            };
            println!(
                "{:<16} {:>8} {:>8.1} {:>10.3} {:>10.3} {:>12.3}",
                name,
                total,
                rate,
                ms(stat_field(m, "latency", "p50_ns")),
                ms(stat_field(m, "latency", "p99_ns")),
                ms(stat_field(m, "queue_wait", "p99_ns")),
            );
            current.insert(name.clone(), total);
        }
        let gauge = |name: &str| {
            stats
                .get("gauges")
                .and_then(|g| g.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        println!(
            "sessions {} | workers busy {} | queue hwm {} | busy {}+{} | slow {}",
            gauge("live_sessions"),
            gauge("workers_busy"),
            gauge("queue_depth_hwm"),
            gauge("busy_queue_full"),
            gauge("busy_session_cap"),
            gauge("slow_logged"),
        );
        let _ = std::io::stdout().flush();
        frames += 1;
        if count > 0 && frames >= count {
            return ExitCode::SUCCESS;
        }
        prev = current;
        prev_at = now;
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `pumpkin watch`: the edit→repair loop as a verb. Polls a vernacular
/// `.pi` file; on every change it rebuilds a fresh environment, loads the
/// file, and repairs the module *incrementally* — source digests are
/// diffed against the previous run's [`pumpkin_core::DigestMap`], only
/// the changed constants' downstream closure is re-lifted, and everything
/// else replays from the persist cache. Prints one
/// `incremental: changed=X replayed=Y skipped=Z` line per run.
fn watch(argv: &[String]) -> ExitCode {
    use pumpkin_core::{DigestMap, LiftState, NameMap, Repairer};
    use std::collections::HashSet;
    use std::io::Write as _;
    use std::time::SystemTime;

    let mut poll_ms = 250u64;
    let mut max_runs = 0u64;
    let mut jobs = 1usize;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_max_bytes: Option<u64> = None;
    let mut swap = ("Old.list".to_string(), "New.list".to_string());
    let mut rename: Option<(String, String)> = None;
    let mut names_arg: Option<Vec<String>> = None;
    let mut path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let number = |args: &mut std::slice::Iter<'_, String>| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| eprintln!("{arg} needs a number\n{USAGE}"))
        };
        match arg.as_str() {
            "--poll-ms" => match number(&mut args) {
                Ok(n) => poll_ms = n.max(1),
                Err(()) => return ExitCode::FAILURE,
            },
            "--max-runs" => match number(&mut args) {
                Ok(n) => max_runs = n,
                Err(()) => return ExitCode::FAILURE,
            },
            "--jobs" => match number(&mut args) {
                Ok(n) => jobs = (n as usize).max(1),
                Err(()) => return ExitCode::FAILURE,
            },
            "--cache-max-bytes" => match number(&mut args) {
                Ok(n) => cache_max_bytes = Some(n),
                Err(()) => return ExitCode::FAILURE,
            },
            "--cache-dir" => match args.next() {
                Some(v) => cache_dir = Some(v.into()),
                None => {
                    eprintln!("--cache-dir needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--swap" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => swap = (a.clone(), b.clone()),
                _ => {
                    eprintln!("--swap needs two type names\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--rename" => match args.next().and_then(|v| v.split_once('=')) {
                Some((f, t)) => rename = Some((f.to_string(), t.to_string())),
                None => {
                    eprintln!("--rename needs From.=To.\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--names" => match args.next() {
                Some(list) => names_arg = Some(list.split(',').map(str::to_string).collect()),
                None => {
                    eprintln!("--names needs a comma-separated list\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("watch needs a .pi file to watch\n{USAGE}");
        return ExitCode::FAILURE;
    };
    // Replays need a persist cache that survives across runs; without an
    // explicit dir, use a per-process scratch one.
    let cache_dir = cache_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("pumpkin-watch-{}", std::process::id()))
    });
    let module_of = |n: &str| {
        n.rsplit_once('.')
            .map_or(String::new(), |(m, _)| format!("{m}."))
    };
    let (from, to) = rename.unwrap_or_else(|| (module_of(&swap.0), module_of(&swap.1)));

    println!(
        "watching {path} (poll every {poll_ms} ms; cache {})",
        cache_dir.display()
    );
    let _ = std::io::stdout().flush();
    let mut prev = DigestMap::new();
    let mut last_mtime: Option<SystemTime> = None;
    let mut runs = 0u64;
    loop {
        let mtime = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
        if mtime.is_some() && mtime != last_mtime {
            last_mtime = mtime;
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("watch: cannot read {path}: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                    continue;
                }
            };
            // Fresh world per run: the standard library plus the watched
            // file's definitions. Incrementality lives entirely in the
            // digest snapshot and the persist cache, not in kept state.
            let mut env = pumpkin_stdlib::std_env();
            let baked: HashSet<String> = env
                .constants()
                .map(|d| d.name.as_str().to_string())
                .collect();
            if let Err(e) = pumpkin_lang::load_source(&mut env, &src) {
                eprintln!("watch: {path}: {e}");
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
            // Work list: the swap module (or --names), plus whatever the
            // file defines under the source prefix.
            let mut names: Vec<String> = names_arg.clone().unwrap_or_else(|| {
                pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            });
            for d in env.constants() {
                let n = d.name.as_str();
                if n.starts_with(&from) && !baked.contains(n) && !names.iter().any(|x| x == n) {
                    names.push(n.to_string());
                }
            }
            let lifting = match pumpkin_core::search::swap::configure(
                &mut env,
                &swap.0.as_str().into(),
                &swap.1.as_str().into(),
                NameMap::prefix(&from, &to),
            ) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("watch: configure failed: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                    continue;
                }
            };
            let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut st = LiftState::new();
            let result = Repairer::new(&lifting)
                .state(&mut st)
                .jobs(jobs)
                .persist_cache(&cache_dir)
                .cache_max_bytes(cache_max_bytes)
                .incremental(&prev)
                .run(&mut env, &borrowed);
            match result {
                Ok(report) => {
                    runs += 1;
                    println!(
                        "watch: run {runs}: repaired {} constants in {:.1} ms",
                        report.repaired.len(),
                        report.wall_ns as f64 / 1e6
                    );
                    if let Some(i) = report.incr {
                        println!("watch: incremental: {i}");
                    }
                    let _ = std::io::stdout().flush();
                    prev = DigestMap::capture(&env, &borrowed);
                    if max_runs > 0 && runs >= max_runs {
                        return ExitCode::SUCCESS;
                    }
                }
                Err(e) => eprintln!("watch: repair failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// `pumpkin auto`: the automatic repair search as a verb (DESIGN.md §18).
/// Loads a vernacular module and searches candidate configurations —
/// constructor-mapping permutations, eta/iota toggles, smart eliminators,
/// cache reuse — running each through the kernel until one repair checks.
/// When every candidate fails, the module is shrunk to a minimal failing
/// reproducer (`--emit-repro FILE.pi` writes it as standalone vernacular)
/// and the exit status is [`EXIT_AUTO_EXHAUSTED`].
fn auto(argv: &[String]) -> ExitCode {
    use pumpkin_core::{AutoPolicy, NameMap, RepairError, Repairer};

    let mut policy = AutoPolicy::default();
    let mut emit_repro: Option<String> = None;
    let mut jobs = 1usize;
    let mut swap = ("Old.list".to_string(), "New.list".to_string());
    let mut rename: Option<(String, String)> = None;
    let mut names_arg: Option<Vec<String>> = None;
    let mut path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let number = |args: &mut std::slice::Iter<'_, String>| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| eprintln!("{arg} needs a number\n{USAGE}"))
        };
        match arg.as_str() {
            "--budget" => match number(&mut args) {
                Ok(n) => policy.budget = Some((n as usize).max(1)),
                Err(()) => return ExitCode::FAILURE,
            },
            "--seed" => match number(&mut args) {
                Ok(n) => policy.seed = n,
                Err(()) => return ExitCode::FAILURE,
            },
            "--jobs" => match number(&mut args) {
                Ok(n) => jobs = (n as usize).max(1),
                Err(()) => return ExitCode::FAILURE,
            },
            "--no-failure-cache" => policy.use_failure_cache = false,
            "--emit-repro" => match args.next() {
                Some(v) => emit_repro = Some(v.clone()),
                None => {
                    eprintln!("--emit-repro needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--swap" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => swap = (a.clone(), b.clone()),
                _ => {
                    eprintln!("--swap needs two type names\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--rename" => match args.next().and_then(|v| v.split_once('=')) {
                Some((f, t)) => rename = Some((f.to_string(), t.to_string())),
                None => {
                    eprintln!("--rename needs From.=To.\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--names" => match args.next() {
                Some(list) => names_arg = Some(list.split(',').map(str::to_string).collect()),
                None => {
                    eprintln!("--names needs a comma-separated list\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("auto needs a .pi module to repair\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let module_of = |n: &str| {
        n.rsplit_once('.')
            .map_or(String::new(), |(m, _)| format!("{m}."))
    };
    let (from, to) = rename.unwrap_or_else(|| (module_of(&swap.0), module_of(&swap.1)));
    // Work list: the swap module (or --names); constants the file defines
    // under the source prefix join automatically inside the driver.
    let names: Vec<String> = names_arg.unwrap_or_else(|| {
        pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
            .iter()
            .map(|s| s.to_string())
            .collect()
    });
    let mut env = pumpkin_stdlib::std_env();
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    let (search, result) = Repairer::auto(policy)
        .types(
            swap.0.as_str(),
            swap.1.as_str(),
            NameMap::prefix(&from, &to),
        )
        .source(src.as_str())
        .jobs(jobs)
        .run(&mut env, &borrowed);
    println!("{}", search.summary());
    match result {
        Ok(report) => {
            for (f, t) in &report.repaired {
                println!("repaired {f} -> {t}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("auto: {e}");
            if let Some(r) = &search.reproducer {
                if let Some(out) = emit_repro {
                    // Render against a world holding the module's decls;
                    // the source must load under *some* configuration for
                    // the names to resolve — fall back to comments if not.
                    let mut scratch = pumpkin_stdlib::std_env();
                    let _ = pumpkin_core::smartelim::packed_list(&mut scratch);
                    let _ = pumpkin_lang::load_source(&mut scratch, &src);
                    if let Err(io) = std::fs::write(&out, r.to_pi(&scratch)) {
                        eprintln!("cannot write {out}: {io}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "auto: wrote reproducer ({} of {} constants) to {out}",
                        r.names.len(),
                        r.original
                    );
                }
            }
            if matches!(e, RepairError::AutoExhausted { .. }) {
                ExitCode::from(EXIT_AUTO_EXHAUSTED)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn loadgen(argv: &[String]) -> ExitCode {
    use pumpkin_pi::loadgen::{LoadgenConfig, Mode};
    let mut cfg = LoadgenConfig::default();
    let mut json_out: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let value = |args: &mut std::slice::Iter<'_, String>| {
            args.next().cloned().ok_or_else(|| {
                eprintln!("{arg} needs a value\n{USAGE}");
            })
        };
        let number = |args: &mut std::slice::Iter<'_, String>| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| {
                    eprintln!("{arg} needs a number\n{USAGE}");
                })
        };
        let result = match arg.as_str() {
            "--connect" => value(&mut args).map(|v| cfg.connect = Some(v)),
            "--json" => value(&mut args).map(|v| json_out = Some(v)),
            "--mode" => match value(&mut args).as_deref() {
                Ok("closed") => {
                    cfg.mode = Mode::Closed;
                    Ok(())
                }
                Ok("open") => {
                    cfg.mode = Mode::Open;
                    Ok(())
                }
                Ok(other) => {
                    eprintln!("--mode must be closed or open, not `{other}`\n{USAGE}");
                    Err(())
                }
                Err(()) => Err(()),
            },
            "--clients" => number(&mut args).map(|n| cfg.clients = (n as usize).max(1)),
            "--requests" => number(&mut args).map(|n| cfg.requests = (n as usize).max(1)),
            "--duration-ms" => number(&mut args).map(|n| cfg.duration_ms = n.max(1)),
            "--seed" => number(&mut args).map(|n| cfg.seed = n),
            "--workers" => number(&mut args).map(|n| cfg.workers = (n as usize).max(1)),
            "--queue-depth" => number(&mut args).map(|n| cfg.queue_depth = (n as usize).max(1)),
            "--jobs" => number(&mut args).map(|n| cfg.jobs = (n as usize).max(1)),
            "--trials" => number(&mut args).map(|n| cfg.trials = (n as usize).max(1)),
            "--server-stats" => {
                cfg.server_stats = true;
                Ok(())
            }
            "--touch-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if (0.0..=1.0).contains(&r) => {
                    cfg.touch_rate = r;
                    Ok(())
                }
                _ => {
                    eprintln!("--touch-rate needs a number in [0, 1]\n{USAGE}");
                    Err(())
                }
            },
            "--fail-rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if (0.0..=1.0).contains(&r) => {
                    cfg.fail_rate = r;
                    Ok(())
                }
                _ => {
                    eprintln!("--fail-rate needs a number in [0, 1]\n{USAGE}");
                    Err(())
                }
            },
            "--rate" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => {
                    cfg.rate = r;
                    Ok(())
                }
                _ => {
                    eprintln!("--rate needs a positive number\n{USAGE}");
                    Err(())
                }
            },
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                Err(())
            }
        };
        if result.is_err() {
            return ExitCode::FAILURE;
        }
    }
    match pumpkin_pi::loadgen::run(&cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            if let Some(path) = json_out {
                if let Err(e) = std::fs::write(&path, report.to_json_lines()) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("loadgen: wrote {path}");
            }
            if report.completed == 0 {
                eprintln!("loadgen: no request completed");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace_report(argv: &[String]) -> ExitCode {
    use pumpkin_core::trace::report;
    let mut lint = false;
    let mut top_k = 5usize;
    let mut files: Vec<&String> = Vec::new();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--lint" => lint = true,
            "--top" => {
                let Some(k) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--top needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                top_k = k;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() || files.len() > 2 {
        eprintln!("trace-report takes one or two trace files\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut texts = Vec::new();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(s) => texts.push(s),
            Err(e) => {
                eprintln!("cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if lint {
        let mut violations = 0;
        for (f, text) in files.iter().zip(&texts) {
            for v in report::lint(text) {
                println!("{f}: {v}");
                violations += 1;
            }
        }
        println!("{violations} violation(s)");
        return if violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let parsed: Vec<_> = texts.iter().map(|t| report::parse_lines(t)).collect();
    for (f, p) in files.iter().zip(&parsed) {
        for (line, err) in &p.errors {
            eprintln!("{f}:{line}: skipping malformed line: {err}");
        }
    }
    match parsed.as_slice() {
        [one] => print!("{}", report::render(&one.events, top_k)),
        [a, b] => print!("{}", report::diff(&a.events, &b.events, top_k)),
        _ => unreachable!(),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace-report") {
        return trace_report(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("client") {
        return client(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("top") {
        return top(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("watch") {
        return watch(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("auto") {
        return auto(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("loadgen") {
        return loadgen(&argv[1..]);
    }
    let mut session = Session::new();
    let mut path: Option<String> = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--jobs needs a number\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                session.set_jobs(n);
            }
            "--trace" => {
                let Some(file) = args.next() else {
                    eprintln!("--trace needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                session.set_trace_path(file);
            }
            "--metrics" => session.set_show_metrics(true),
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let script = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if run_script(&mut session, &script) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Audits the client's error-code → exit-status map against the full
    /// server code set: every code the server can emit must map to its
    /// own status, never the catch-all — so scripts can branch on *which*
    /// failure happened, and a new server code cannot ship without a
    /// distinct client status.
    #[test]
    fn every_server_error_code_has_a_distinct_exit_status() {
        use std::collections::HashMap;
        let mut seen: HashMap<u8, &str> = HashMap::new();
        for code in pumpkin_serve::proto::code::ALL {
            let status = exit_status_for(code);
            assert_ne!(
                status, 19,
                "server code `{code}` fell through to the unknown-code catch-all; \
                 give it its own exit status"
            );
            if let Some(prev) = seen.insert(status, code) {
                panic!("codes `{prev}` and `{code}` share exit status {status}");
            }
        }
        // The statuses reserved for client-side failures stay distinct
        // from every server-code status.
        for reserved in [19, 20, 21, EXIT_VERSION_SKEW] {
            assert!(
                !seen.contains_key(&reserved),
                "exit status {reserved} is reserved for client-side failures"
            );
        }
        assert_eq!(exit_status_for("some_future_code"), 19);
    }

    #[test]
    fn auto_exhausted_replies_map_to_the_auto_exit_status() {
        let err = pumpkin_serve::ClientError::Server {
            code: pumpkin_serve::proto::code::AUTO_EXHAUSTED.to_string(),
            message: "every candidate failed".into(),
            data: None,
        };
        assert_eq!(client_exit_code(&err), ExitCode::from(EXIT_AUTO_EXHAUSTED));
    }
}
