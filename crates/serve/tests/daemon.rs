//! End-to-end daemon tests over real sockets: concurrency determinism,
//! merged-metrics invariance across worker counts, backpressure, and
//! graceful drain.

use pumpkin_core::trace::Metrics;
use pumpkin_serve::{Client, ClientError, Server, ServerConfig, Session};
use pumpkin_wire::{LiftSpec, Value};

fn spawn_server(cfg: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    // The slot freed by a just-closed connection becomes available only
    // once its session thread observes the EOF, so tolerate `busy`.
    for attempt in 0..100 {
        let mut c = Client::connect(addr).expect("connect for shutdown");
        match c.call("shutdown", Value::Obj(vec![])) {
            Ok(_) => return,
            Err(ClientError::Server { ref code, .. }) if code == "busy" && attempt < 99 => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("shutdown failed: {e}"),
        }
    }
}

/// A `repair_batch` of `items` whole swap-module repairs: long enough
/// (tens of milliseconds per eight items even in a release build) to hold
/// the only worker while a test fills the queue behind it.
fn long_batch_line(id: u64, items: usize) -> String {
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let all = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        r#"{{"id":{id},"method":"repair_batch","params":{{"lifting":{},"batch":[{}],"deterministic":true}}}}"#,
        spec.to_value(),
        vec![format!(r#"{{"names":[{all}],"deterministic":true}}"#); items].join(",")
    )
}

fn repair_module_line(id: u64, names: &[&str]) -> String {
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let names = names
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        r#"{{"id":{id},"method":"repair_module","params":{{"lifting":{},"names":[{names}],"deterministic":true}}}}"#,
        spec.to_value()
    )
}

/// A local, socket-free session — the "one-shot run" baseline the
/// daemon must match byte for byte.
fn one_shot(line: &str) -> String {
    let mut s = Session::new(pumpkin_stdlib::std_env(), 1, None);
    s.handle_line(line).0
}

/// Polls the daemon's `stats` gauges until `ready` holds. The tests
/// synchronize with the worker pool through this, never through sleeps.
fn wait_for_gauges(addr: &str, ready: impl Fn(&Value) -> bool) {
    let mut c = Client::connect(addr).expect("connect for stats");
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = c.call("stats", Value::Obj(vec![])).expect("stats");
        let gauges = stats.get("gauges").expect("gauges block");
        if ready(gauges) {
            return;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "gauges never reached the awaited state: {gauges}"
        );
        std::thread::yield_now();
    }
}

fn gauge(gauges: &Value, name: &str) -> u64 {
    gauges.get(name).and_then(Value::as_u64).unwrap_or(0)
}

/// Drops the `"req_id":N,` lifecycle stamp from a reply. Every frame
/// gets a fresh id, so byte-identity claims compare everything else.
fn strip_req_id(reply: &str) -> String {
    let Some(at) = reply.find("\"req_id\":") else {
        return reply.to_string();
    };
    let end = reply[at..].find(',').map_or(reply.len(), |c| at + c + 1);
    format!("{}{}", &reply[..at], &reply[end..])
}

#[test]
fn four_concurrent_clients_match_sequential_one_shots() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let line = repair_module_line(1, &["Old.rev", "Old.app", "Old.rev_involutive"]);
    let expected = strip_req_id(&one_shot(&line));
    assert!(
        expected.contains("\"ok\":true"),
        "baseline failed: {expected}"
    );

    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let line = line.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    // Two requests per connection: determinism must hold
                    // within a session too.
                    let first = strip_req_id(&c.call_raw(&line).expect("first call"));
                    let second = strip_req_id(&c.call_raw(&line).expect("second call"));
                    assert_eq!(first, second, "session-internal divergence");
                    first
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply, &expected, "client {i} diverged from one-shot run");
    }
    shutdown(&addr);
    handle.join().unwrap();
}

#[test]
fn merged_metrics_canonicalize_identically_across_job_counts() {
    let line = repair_module_line(1, pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS);
    // The `stats` counters block, folded by the same canonicalization
    // the registry applies to job-variant counters.
    let canonical = |jobs: usize| -> String {
        let mut s = Session::new(pumpkin_stdlib::std_env(), jobs, None);
        let (reply, _) = s.handle_line(&line);
        assert!(reply.contains("\"ok\":true"), "jobs={jobs}: {reply}");
        let (reply, _) = s.handle_line(r#"{"id":2,"method":"stats"}"#);
        let v = Value::parse(&reply).unwrap();
        let counters = v
            .get("result")
            .and_then(|r| r.get("counters"))
            .and_then(Value::as_obj)
            .expect("stats counters block");
        let mut m = Metrics::new();
        for (name, value) in counters {
            m.incr(name, value.as_u64().expect("counters are integers"));
        }
        m.canonicalize().to_text()
    };
    let at1 = canonical(1);
    let at2 = canonical(2);
    let at4 = canonical(4);
    assert!(!at1.is_empty());
    assert_eq!(
        at1, at2,
        "canonical metrics differ between jobs=1 and jobs=2"
    );
    assert_eq!(
        at1, at4,
        "canonical metrics differ between jobs=1 and jobs=4"
    );
}

/// With one worker and a one-deep queue, concurrent requests must see
/// `busy` (queue full), and a retry after the backlog clears must
/// succeed — the queue sheds load, it does not drop connections.
#[test]
fn full_work_queue_returns_busy_and_recovers() {
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        max_sessions: 16,
        ..ServerConfig::default()
    });
    // Occupy the only worker with a long batch.
    let long_line = long_batch_line(1, 32);
    let short_line = repair_module_line(2, &["Old.rev"]);
    let (busy_count, replies) = std::thread::scope(|s| {
        let addr_long = addr.clone();
        let long = s.spawn(move || {
            let mut c = Client::connect(&addr_long).expect("connect long");
            c.call_raw(&long_line).expect("long call")
        });
        // Saturate the queue only once the long batch is on the worker.
        wait_for_gauges(&addr, |g| gauge(g, "workers_busy") == 1);
        let shorts: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let line = short_line.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect short");
                    c.call_raw(&line).expect("short call")
                })
            })
            .collect();
        let replies: Vec<String> = shorts.into_iter().map(|h| h.join().unwrap()).collect();
        let busy = replies
            .iter()
            .filter(|r| r.contains("\"code\":\"busy\""))
            .count();
        // These refusals came from the bounded queue, not the session
        // cap — the `data` detail must say so.
        for r in replies.iter().filter(|r| r.contains("\"code\":\"busy\"")) {
            assert!(
                r.contains("\"data\":\"queue_full\""),
                "busy without queue_full detail: {r}"
            );
        }
        let long_reply = long.join().unwrap();
        assert!(long_reply.contains("\"ok\":true"), "{long_reply}");
        (busy, replies)
    });
    // Worker occupied + queue depth 1 ⇒ at most one short request could
    // be admitted; the rest must have been refused as busy.
    assert!(
        busy_count >= 3,
        "expected >=3 busy refusals, got {busy_count}: {replies:?}"
    );
    for r in &replies {
        assert!(
            r.contains("\"ok\":true") || r.contains("\"code\":\"busy\""),
            "unexpected reply under saturation: {r}"
        );
    }
    // Backpressure is temporary: once the backlog drains, the same
    // request succeeds on a fresh connection.
    let mut c = Client::connect(&addr).expect("reconnect");
    let reply = c.call_raw(&short_line).expect("retry");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(c);
    shutdown(&addr);
    handle.join().unwrap();
}

/// Shutdown must drain queued work: requests already admitted to the
/// queue get real replies, not aborts, even though the request that
/// asked for the drain was answered before they ran.
#[test]
fn graceful_drain_completes_queued_work() {
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 8,
        max_sessions: 16,
        ..ServerConfig::default()
    });
    let slow_line = long_batch_line(1, 32);
    let quick_line = repair_module_line(2, &["Old.rev"]);
    let replies: Vec<String> = std::thread::scope(|s| {
        let addr_slow = addr.clone();
        let slow = s.spawn(move || {
            let mut c = Client::connect(&addr_slow).expect("connect slow");
            c.call_raw(&slow_line).expect("slow call")
        });
        wait_for_gauges(&addr, |g| gauge(g, "workers_busy") == 1);
        // Two requests that will sit in the queue behind the slow one.
        let queued: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let line = quick_line.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect queued");
                    c.call_raw(&line).expect("queued call")
                })
            })
            .collect();
        wait_for_gauges(&addr, |g| gauge(g, "queue_depth_hwm") >= 2);
        // The shutdown request is answered inline (control methods skip
        // the queue), so it cannot be stuck behind the backlog.
        shutdown(&addr);
        let mut replies = vec![slow.join().unwrap()];
        replies.extend(queued.into_iter().map(|h| h.join().unwrap()));
        replies
    });
    handle.join().unwrap();
    for r in &replies {
        assert!(
            r.contains("\"ok\":true"),
            "queued work dropped by the drain: {r}"
        );
    }
}

/// A batch-level deadline cancels mid-batch: completed items keep their
/// replies, every item after the expiry reports `deadline`, and the
/// error prefix/suffix structure is monotone (no ok after the first
/// cancellation).
#[test]
fn batch_deadline_cancels_remaining_items_over_sockets() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let all = pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect::<Vec<_>>()
        .join(",");
    let items = (0..6)
        .map(|_| format!(r#"{{"names":[{all}],"deterministic":true}}"#))
        .collect::<Vec<_>>()
        .join(",");
    let line = format!(
        r#"{{"id":1,"method":"repair_batch","params":{{"lifting":{},"batch":[{items}],"deadline_ms":1}}}}"#,
        spec.to_value()
    );
    let mut c = Client::connect(&addr).expect("connect");
    let reply = c.call_raw(&line).expect("batch call");
    let v = Value::parse(&reply).expect("parse reply");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{reply}");
    let results = v
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Value::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 6);
    let states: Vec<bool> = results
        .iter()
        .map(|r| r.get("ok") == Some(&Value::Bool(true)))
        .collect();
    // Six module repairs cannot fit in 1 ms, even in a release build; the
    // tail must have been cancelled.
    assert!(states.contains(&false), "no item hit the deadline: {reply}");
    for r in results
        .iter()
        .filter(|r| r.get("ok") == Some(&Value::Bool(false)))
    {
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("deadline"),
            "{reply}"
        );
    }
    // Monotone: one shared token, so once an item is cancelled, every
    // later item is too.
    let first_err = states.iter().position(|ok| !ok).unwrap();
    assert!(
        states[first_err..].iter().all(|ok| !ok),
        "ok after a cancelled item: {states:?}"
    );
    // The session survives the cancellation.
    let reply = c
        .call_raw(&repair_module_line(2, &["Old.rev"]))
        .expect("after");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(c);
    shutdown(&addr);
    handle.join().unwrap();
}

/// `repair_batch` replies embed, per item, exactly the bytes the
/// equivalent standalone request with `"id": null` would produce — at
/// every worker count.
#[test]
fn repair_batch_matches_per_request_replies_across_job_counts() {
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let items = [
        r#"{"name":"Old.rev","deterministic":true}"#,
        r#"{"names":["Old.app","Old.rev_involutive"],"deterministic":true}"#,
        r#"{"name":"Old.length","deterministic":true}"#,
        r#"{"name":"Old.missing","deterministic":true}"#,
    ];
    for jobs in [1usize, 2, 4] {
        let mut s = Session::new(pumpkin_stdlib::std_env(), jobs, None);
        let batch_line = format!(
            r#"{{"id":1,"method":"repair_batch","params":{{"lifting":{},"batch":[{}]}}}}"#,
            spec.to_value(),
            items.join(",")
        );
        let (batch_reply, _) = s.handle_line(&batch_line);
        let v = Value::parse(&batch_reply).expect("parse batch reply");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{batch_reply}");
        let results = v
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(Value::as_arr)
            .expect("results array")
            .to_vec();
        assert_eq!(results.len(), items.len());
        for (item, batched) in items.iter().zip(&results) {
            let item_v = Value::parse(item).unwrap();
            let method = if item_v.get("name").is_some() {
                "repair"
            } else {
                "repair_module"
            };
            // The standalone equivalent: same params plus the shared
            // lifting spec, with a null id.
            let single_line = format!(
                r#"{{"id":null,"method":"{method}","params":{{"lifting":{},{}}}}}"#,
                spec.to_value(),
                item.trim_start_matches('{').trim_end_matches('}')
            );
            let (single_reply, _) = s.handle_line(&single_line);
            // Batch entries carry no lifecycle id (only top-level frames
            // do), so strip the standalone's before comparing.
            assert_eq!(
                batched.to_string(),
                strip_req_id(&single_reply),
                "jobs={jobs}: batch entry diverged from the standalone reply"
            );
        }
    }
}

#[test]
fn session_cap_returns_busy_and_recovers() {
    let (addr, handle) = spawn_server(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    // First connection occupies the only slot (sessions count while
    // open, not just mid-request).
    let mut first = Client::connect(&addr).expect("connect first");
    first.call("ping", Value::Obj(vec![])).expect("first ping");
    // Second connection is turned away with a structured busy reply
    // whose `data` detail names the admission layer that fired.
    let mut second = Client::connect(&addr).expect("connect second");
    match second.call("ping", Value::Obj(vec![])) {
        Err(ClientError::Server { code, data, .. }) => {
            assert_eq!(code, "busy");
            assert_eq!(data.as_deref(), Some("session_cap"));
        }
        other => panic!("expected busy, got {other:?}"),
    }
    // Once the first session closes, the slot frees up.
    drop(first);
    for attempt in 0.. {
        let mut retry = Client::connect(&addr).expect("reconnect");
        match retry.call("ping", Value::Obj(vec![])) {
            Ok(_) => break,
            Err(ClientError::Server { ref code, .. }) if code == "busy" && attempt < 100 => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    }
    shutdown(&addr);
    handle.join().unwrap();
}

/// The `stats` RPC reports per-method latency and queue-wait histograms
/// recorded at the server layer, plus gauges, under a versioned schema.
#[test]
fn stats_rpc_reports_per_method_latency_over_the_daemon() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    for id in 1..=3 {
        let reply = c
            .call_raw(&repair_module_line(id, &["Old.rev"]))
            .expect("repair");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"req_id\":"), "no lifecycle id: {reply}");
    }
    let stats = c.call("stats", Value::Obj(vec![])).expect("stats");
    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some("pumpkin-serve-stats/2")
    );
    let method = stats
        .get("methods")
        .and_then(|m| m.get("repair_module"))
        .expect("repair_module histogram row");
    assert_eq!(method.get("count").and_then(Value::as_u64), Some(3));
    let latency = method.get("latency").expect("latency block");
    for q in ["p50_ns", "p95_ns", "p99_ns"] {
        assert!(
            latency.get(q).and_then(Value::as_u64).unwrap_or(0) > 0,
            "{q} missing or zero: {latency:?}"
        );
    }
    // Queue wait was measured for each queued request, and is never
    // longer than the full round trip.
    let queue = method.get("queue_wait").expect("queue_wait block");
    assert_eq!(queue.get("count").and_then(Value::as_u64), Some(3));
    assert!(
        queue.get("p99_ns").and_then(Value::as_u64)
            <= latency.get("p99_ns").and_then(Value::as_u64)
    );
    let gauges = stats.get("gauges").expect("gauges block");
    assert_eq!(gauges.get("live_sessions").and_then(Value::as_u64), Some(1));
    drop(c);
    shutdown(&addr);
    handle.join().unwrap();
}

/// With `--slow-ms 0` every request is "slow": the daemon writes one
/// structured JSONL line per request to the log sink, carrying the
/// lifecycle breakdown whose parts never exceed the wall total.
#[test]
fn slow_log_captures_the_lifecycle_breakdown() {
    let path = std::env::temp_dir().join(format!("pumpkind-slow-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle) = spawn_server(ServerConfig {
        workers: 1,
        slow_ms: Some(0),
        log: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr).expect("connect");
    let reply = c
        .call_raw(&repair_module_line(1, &["Old.rev"]))
        .expect("repair");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(c);
    shutdown(&addr);
    handle.join().unwrap();
    let log = std::fs::read_to_string(&path).expect("slow log written");
    let line = log
        .lines()
        .find(|l| l.contains("\"kind\":\"serve_slow\"") && l.contains("repair_module"))
        .unwrap_or_else(|| panic!("no serve_slow line for repair_module in: {log}"));
    let v = Value::parse(line).expect("slow line is JSON");
    assert!(v.get("req_id").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let total = v.get("dur_ns").and_then(Value::as_u64).expect("dur_ns");
    let queue_wait = v
        .get("queue_wait_ns")
        .and_then(Value::as_u64)
        .expect("queue_wait_ns");
    let service = v
        .get("service_ns")
        .and_then(Value::as_u64)
        .expect("service_ns");
    let write = v.get("write_ns").and_then(Value::as_u64).expect("write_ns");
    assert!(service > 0, "queued request with zero service time: {line}");
    // The parts are disjoint sub-intervals of the request's lifetime.
    assert!(
        queue_wait + service + write <= total,
        "breakdown exceeds wall time: {line}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn oversized_frames_get_an_error_and_the_connection_survives() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let huge = format!(
        r#"{{"id":1,"method":"ping","params":{{"pad":"{}"}}}}"#,
        "x".repeat(pumpkin_serve::proto::MAX_FRAME)
    );
    let reply = c.call_raw(&huge).expect("oversized call");
    assert!(reply.contains("oversized_frame"), "{reply}");
    // Same connection, next frame parses fine.
    let reply = c.call_raw(r#"{"id":2,"method":"ping"}"#).expect("ping");
    assert!(reply.contains("\"pong\":true"), "{reply}");
    shutdown(&addr);
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (addr, handle) = spawn_server(ServerConfig::default());
    // An idle keep-alive connection must not block the drain: shutdown
    // half-closes its read side and its session exits on EOF.
    let mut idle = Client::connect(&addr).expect("idle connect");
    idle.call("ping", Value::Obj(vec![])).expect("idle ping");
    shutdown(&addr);
    // run() returning proves the drain completed.
    handle.join().unwrap();
    // The listener is gone; new connections fail (or are refused with a
    // draining notice before the accept loop exited).
    assert!(
        Client::connect(&addr).is_err() || {
            let mut c = Client::connect(&addr).unwrap();
            c.call("ping", Value::Obj(vec![])).is_err()
        },
        "server still serving after shutdown"
    );
}

#[cfg(unix)]
#[test]
fn unix_listener_serves_the_same_protocol() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("pumpkind-test-{}.sock", std::process::id()));
    let (addr, handle) = spawn_server(ServerConfig {
        unix: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut stream = BufReader::new(UnixStream::connect(&path).expect("unix connect"));
    stream
        .get_mut()
        .write_all(b"{\"id\":1,\"method\":\"ping\"}\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"pong\":true"), "{reply}");
    drop(stream);
    shutdown(&addr);
    handle.join().unwrap();
    assert!(!path.exists(), "socket file not cleaned up");
}

#[test]
fn persistent_cache_warms_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("pumpkind-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run_once = || -> (String, u64, u64) {
        let (addr, handle) = spawn_server(ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr).expect("connect");
        let line = repair_module_line(1, &["Old.rev", "Old.rev_involutive"]);
        let reply = c.call_raw(&line).expect("repair");
        let v = Value::parse(&reply).unwrap();
        let report = v.get("result").unwrap().get("report").unwrap();
        let hits = report.get("persist_hits").and_then(Value::as_u64).unwrap();
        let misses = report
            .get("persist_misses")
            .and_then(Value::as_u64)
            .unwrap();
        drop(c);
        shutdown(&addr);
        handle.join().unwrap();
        (reply, hits, misses)
    };
    let (cold_reply, cold_hits, cold_misses) = run_once();
    let (warm_reply, warm_hits, warm_misses) = run_once();
    assert_eq!(cold_hits, 0);
    assert!(cold_misses > 0);
    assert!(warm_hits > 0, "second process saw no cache hits");
    assert_eq!(warm_misses, 0);
    // The cache changes speed, never content: both runs repair the same
    // constants to the same names (byte-level equality of the lifted
    // declarations is covered by the repairer's own persist test).
    let repaired = |reply: &str| {
        Value::parse(reply)
            .unwrap()
            .get("result")
            .and_then(|r| r.get("report"))
            .and_then(|r| r.get("repaired"))
            .cloned()
            .expect("reply carries repaired pairs")
    };
    assert_eq!(repaired(&cold_reply), repaired(&warm_reply));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_daemons_share_one_cache_dir_under_concurrent_eviction() {
    // Two independent server processes (modeled as two in-process servers,
    // which is the same `PersistCache` code path) point at one cache
    // directory with a budget small enough that every store triggers the
    // evictor. Concurrent store / load / evict must never corrupt the
    // cache or fail a request — at worst a lookup misses and the lift is
    // redone fresh.
    let dir = std::env::temp_dir().join(format!("pumpkind-shared-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spawn_shared = || {
        spawn_server(ServerConfig {
            cache_dir: Some(dir.clone()),
            cache_max_bytes: Some(4096),
            ..ServerConfig::default()
        })
    };
    let (addr_a, handle_a) = spawn_shared();
    let (addr_b, handle_b) = spawn_shared();

    let names: &[&[&str]] = &[
        &["Old.rev", "Old.app"],
        &["Old.rev_involutive"],
        &["Old.app_nil_r", "Old.rev_app_distr"],
    ];
    let replies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = [&addr_a, &addr_b]
            .into_iter()
            .flat_map(|addr| {
                names.iter().map(move |subset| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let mut c = Client::connect(&addr).expect("connect");
                        (0..4)
                            .map(|i| c.call_raw(&repair_module_line(i, subset)).expect("repair"))
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    for reply in &replies {
        assert!(
            reply.contains("\"ok\":true"),
            "request failed under shared cache: {reply}"
        );
    }

    // The storm over, both daemons and the on-disk cache must still work:
    // a fresh connection repairs successfully, and a direct open of the
    // directory replays without tripping the corruption tolerance.
    for addr in [&addr_a, &addr_b] {
        let mut c = Client::connect(addr).expect("reconnect");
        let reply = c
            .call_raw(&repair_module_line(99, &["Old.rev"]))
            .expect("post-storm repair");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    shutdown(&addr_a);
    shutdown(&addr_b);
    handle_a.join().unwrap();
    handle_b.join().unwrap();

    // Eviction kept the directory near its budget rather than growing
    // without bound (generous slack: one in-flight entry may overshoot).
    let on_disk: u64 = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    assert!(
        on_disk < 256 * 1024,
        "cache dir grew unbounded: {on_disk} bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
