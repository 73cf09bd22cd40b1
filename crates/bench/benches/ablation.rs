//! Ablation and scaling benches for the design choices DESIGN.md calls
//! out:
//!
//! * `lift_cache/{on,off}` — the §4.4 "aggressive caching" of intermediate
//!   subterm liftings (added for the industrial proof engineer's ten-second
//!   budget);
//! * `kernel_cache/{on,off}` — the kernel-layer conv/whnf memo tables on
//!   the whole `Swap.v` list-module repair, with hit/miss counters from
//!   `kernel::stats`;
//! * `repair_parallel/jobs=N` — the wavefront module-repair scheduler on
//!   the same workload, sweeping worker counts (default {1, 2, 4}; pin
//!   with `--jobs N` or `PUMPKIN_JOBS=N`), with per-wave/per-worker
//!   counters from `RepairReport::schedule`;
//! * `scaling/enum_N` — repair latency as the number of constructors grows
//!   (the §6.1.3 Enum stress-test, parameterized);
//! * `scaling/term_size_N` — lifting latency as the proof term grows
//!   (repairing `app_assoc`-style lemmas over ever larger literal lists);
//! * `auto_search/{cold,warm,minimize}` — the automatic candidate search
//!   with a cold vs failure-cache-warmed enumeration, plus the reproducer
//!   minimization (DESIGN.md §18).

use pumpkin_pi::case_studies;
use pumpkin_pi::pumpkin_core::{self, LiftState, NameMap, Repairer};
use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_kernel::term::{ElimData, Term};
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_testkit::Bench;
use stdlib::nat::nat_lit;

fn bench_lift_cache_ablation(b: &mut Bench) {
    let base = stdlib::std_env();
    for (label, cached) in [("on", true), ("off", false)] {
        b.bench(
            &format!("lift_cache/{label}"),
            || base.clone(),
            |mut env| {
                let lifting = pumpkin_core::search::swap::configure(
                    &mut env,
                    &"Old.Term".into(),
                    &"New.Term".into(),
                    NameMap::prefix("Old.", "New."),
                )
                .unwrap();
                let mut st = if cached {
                    LiftState::new()
                } else {
                    LiftState::without_cache()
                };
                let report = Repairer::new(&lifting)
                    .state(&mut st)
                    .run(&mut env, case_studies::REPLICA_CONSTANTS)
                    .unwrap();
                (report, st)
            },
        );
        // One extra instrumented run to report the counters.
        let mut env = base.clone();
        let lifting = pumpkin_core::search::swap::configure(
            &mut env,
            &"Old.Term".into(),
            &"New.Term".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mut st = if cached {
            LiftState::new()
        } else {
            LiftState::without_cache()
        };
        Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, case_studies::REPLICA_CONSTANTS)
            .unwrap();
        println!("  lift_cache/{label}: {}", st.stats);
    }
}

fn bench_kernel_cache_ablation(b: &mut Bench) {
    // The tentpole workload: the whole `Swap.v` list-module repair, with
    // the kernel conv/whnf memo tables enabled vs disabled. One
    // instrumented run per arm prints the `kernel::stats` counters so the
    // hit rate backing the speedup is visible next to the timing.
    let base = stdlib::std_env();
    for (label, enabled) in [("on", true), ("off", false)] {
        b.bench(
            &format!("kernel_cache/{label}"),
            || {
                let mut env = base.clone();
                env.set_kernel_cache(enabled);
                env
            },
            |mut env| {
                case_studies::swap_list_module(&mut env).unwrap();
                env
            },
        );
        let mut env = base.clone();
        env.set_kernel_cache(enabled);
        env.reset_kernel_stats();
        case_studies::swap_list_module(&mut env).unwrap();
        println!("  kernel_cache/{label}: {}", env.kernel_stats());
    }
}

fn bench_repair_parallel(b: &mut Bench) {
    // The tentpole workload again (whole swap_list_module repair), now
    // through the wavefront scheduler at several worker counts. jobs=1
    // measures the pure scheduling overhead against the sequential
    // `kernel_cache/on` row; higher counts measure the parallel speedup.
    let base = stdlib::std_env();
    let sweep: Vec<usize> = match b.jobs() {
        Some(j) => vec![j],
        None => vec![1, 2, 4],
    };
    for jobs in sweep {
        b.bench(
            &format!("repair_parallel/jobs={jobs}"),
            || base.clone(),
            |mut env| {
                case_studies::swap_list_module_parallel(&mut env, jobs).unwrap();
                env
            },
        );
        let mut env = base.clone();
        env.reset_kernel_stats();
        let report = case_studies::swap_list_module_parallel(&mut env, jobs).unwrap();
        println!("  repair_parallel/jobs={jobs}: {}", report.schedule);
    }
}

fn bench_trace_overhead(b: &mut Bench) {
    // The observability ablation: the same swap_list_module repair with the
    // trace sink disabled (every probe is one branch) vs event capture.
    // `off` should be within noise of `repair_parallel/jobs=1`. The `on`
    // arm measures event capture alone (provenance explicitly off, keeping
    // the row comparable across baselines); `prov` is the provenance
    // recorder alone; `full` is both.
    b.bench("trace_overhead/off", stdlib::std_env, |mut env| {
        case_studies::swap_list_module_parallel(&mut env, 1).unwrap();
        env
    });
    b.bench("trace_overhead/on", stdlib::std_env, |mut env| {
        swap_module_repairer(&mut env, |r| r.trace(true).provenance(false));
        env
    });
    // Provenance recorder on, sink off: the per-subterm attribution cost
    // in isolation.
    b.bench("trace_overhead/prov", stdlib::std_env, |mut env| {
        case_studies::swap_list_module_provenance(&mut env, 1).unwrap();
        env
    });
    b.bench("trace_overhead/full", stdlib::std_env, |mut env| {
        case_studies::swap_list_module_traced(&mut env, 1).unwrap();
        env
    });
    let mut env = stdlib::std_env();
    let report = case_studies::swap_list_module_traced(&mut env, 1).unwrap();
    println!(
        "  trace_overhead/full: {} events, {} lift spans",
        report.trace_events().len(),
        report.metrics().counter("lift.constants"),
    );
    let mut env = stdlib::std_env();
    let report = case_studies::swap_list_module_provenance(&mut env, 1).unwrap();
    println!(
        "  trace_overhead/prov: {} constants, {} sites",
        report.provenance.len(),
        report
            .provenance
            .iter()
            .map(|p| p.sites.len())
            .sum::<usize>(),
    );
}

/// Runs the swap list-module repair through a [`pumpkin_core::Repairer`]
/// customised by `cfg` (used by the trace_overhead arms that need a
/// specific trace/provenance combination).
fn swap_module_repairer(
    env: &mut Env,
    cfg: impl for<'a> FnOnce(pumpkin_core::Repairer<'a>) -> pumpkin_core::Repairer<'a>,
) {
    let lifting = pumpkin_core::search::swap::configure(
        env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    cfg(pumpkin_core::Repairer::new(&lifting))
        .jobs(1)
        .run(env, stdlib::swap::OLD_MODULE_CONSTANTS)
        .unwrap();
}

/// Builds an environment with two n-constructor enums and a function
/// `enumf : EnumA → nat` to repair across a rotation.
fn enum_env(n: usize) -> (Env, Vec<usize>) {
    let mut env = stdlib::std_env();
    env.declare_inductive(stdlib::replica::enum_decl("EnumA", n))
        .unwrap();
    env.declare_inductive(stdlib::replica::enum_decl("EnumB", n))
        .unwrap();
    let body = Term::lambda(
        "e",
        Term::ind("EnumA"),
        Term::elim(ElimData {
            ind: "EnumA".into(),
            params: vec![],
            motive: Term::lambda("x", Term::ind("EnumA"), Term::ind("nat")),
            cases: (0..n).map(|j| nat_lit(j as u64)).collect(),
            scrutinee: Term::rel(0),
        }),
    );
    env.define(
        "EnumA.f",
        Term::arrow(Term::ind("EnumA"), Term::ind("nat")),
        body,
    )
    .unwrap();
    let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
    (env, perm)
}

fn bench_enum_scaling(b: &mut Bench) {
    for n in [5usize, 10, 20, 30] {
        let (base, perm) = enum_env(n);
        b.bench(
            &format!("scaling_enum/enum_{n}"),
            || base.clone(),
            |mut env| {
                let lifting = pumpkin_core::search::swap::configure_with(
                    &mut env,
                    &"EnumA".into(),
                    &"EnumB".into(),
                    &perm,
                    NameMap::prefix("EnumA.", "EnumB."),
                )
                .unwrap();
                let mut st = LiftState::new();
                Repairer::new(&lifting)
                    .state(&mut st)
                    .run_one(&mut env, &"EnumA.f".into())
                    .unwrap()
            },
        );
    }
}

/// Builds an environment with a lemma instantiating `Old.app_assoc` on
/// literal lists of length `n` (a proof term that grows linearly with `n`).
fn term_size_env(n: usize) -> Env {
    let mut env = stdlib::std_env();
    let elems: Vec<Term> = (0..n as u64).map(nat_lit).collect();
    let l = stdlib::list::list_lit("Old.list", Term::ind("nat"), &elems);
    let body = Term::app(
        Term::const_("Old.app_assoc"),
        [Term::ind("nat"), l.clone(), l.clone(), l.clone()],
    );
    let app = |x: Term, y: Term| Term::app(Term::const_("Old.app"), [Term::ind("nat"), x, y]);
    let ty = Term::app(
        Term::ind("eq"),
        [
            Term::app(Term::ind("Old.list"), [Term::ind("nat")]),
            app(l.clone(), app(l.clone(), l.clone())),
            app(app(l.clone(), l.clone()), l),
        ],
    );
    env.define("Old.assoc_inst", ty, body).unwrap();
    env
}

fn bench_term_size_scaling(b: &mut Bench) {
    for n in [4usize, 16, 64] {
        let base = term_size_env(n);
        b.bench(
            &format!("scaling_term_size/list_len_{n}"),
            || base.clone(),
            |mut env| {
                let lifting = pumpkin_core::search::swap::configure(
                    &mut env,
                    &"Old.list".into(),
                    &"New.list".into(),
                    NameMap::prefix("Old.", "New."),
                )
                .unwrap();
                let mut st = LiftState::new();
                Repairer::new(&lifting)
                    .state(&mut st)
                    .run_one(&mut env, &"Old.assoc_inst".into())
                    .unwrap()
            },
        );
    }
}

fn bench_persist_cache(b: &mut Bench) {
    // The cross-run lift cache: `cold` starts from an empty cache
    // directory every iteration (each run both lifts and populates);
    // `warm` hits a pre-populated directory (each run replays serialized
    // lifted declarations instead of lifting). The configure step runs in
    // setup so both rows time the module repair alone. bench_guard.sh
    // gates warm at >= 5x faster than cold.
    let base = stdlib::std_env();
    let dir = std::env::temp_dir().join(format!("pumpkin-bench-persist-{}", std::process::id()));
    let configure = |env: &mut Env| {
        pumpkin_core::search::swap::configure(
            env,
            &"Old.list".into(),
            &"New.list".into(),
            NameMap::prefix("Old.", "New."),
        )
        .unwrap()
    };
    let run = |env: &mut Env, lifting: &pumpkin_core::Lifting| {
        let mut st = LiftState::new();
        let report = pumpkin_core::Repairer::new(lifting)
            .persist_cache(&dir)
            .state(&mut st)
            .run(env, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap();
        (report, st.stats.persist_hits, st.stats.persist_misses)
    };
    b.bench(
        "persist_cache/cold",
        || {
            let _ = std::fs::remove_dir_all(&dir);
            let mut env = base.clone();
            let lifting = configure(&mut env);
            (env, lifting)
        },
        |(mut env, lifting)| run(&mut env, &lifting),
    );
    // Populate once, then every warm iteration replays from disk.
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut env = base.clone();
        let lifting = configure(&mut env);
        let (_, hits, misses) = run(&mut env, &lifting);
        assert_eq!((hits, misses > 0), (0, true), "populating run must be cold");
    }
    b.bench(
        "persist_cache/warm",
        || {
            let mut env = base.clone();
            let lifting = configure(&mut env);
            (env, lifting)
        },
        |(mut env, lifting)| run(&mut env, &lifting),
    );
    let mut env = base.clone();
    let lifting = configure(&mut env);
    let (_, hits, misses) = run(&mut env, &lifting);
    println!("  persist_cache/warm: {hits} hits, {misses} misses");
    assert_eq!(misses, 0, "warm run must replay entirely from the cache");

    // `incremental` — the session-resident edit loop the serve daemon and
    // `pumpkin watch` run (DESIGN.md §16): the environment already holds
    // the previous repair's outputs, the request diffs a digest snapshot
    // of the last run, the one touched constant (a leaf theorem, so its
    // downstream closure is itself) re-lifts fresh, and the other 12 are
    // green — reused from the resident world with no lift and no disk
    // probe. bench_guard.sh gates this row at <= 0.3x of the full warm
    // repair above.
    let touched = "Old.fold_app";
    let (session_env, session_lifting) = {
        let mut env = base.clone();
        let lifting = configure(&mut env);
        let mut st = LiftState::new();
        pumpkin_core::Repairer::new(&lifting)
            .state(&mut st)
            .run(&mut env, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap();
        (env, lifting)
    };
    let snapshot = || {
        // Capture the full module (digests + dependency edges), then
        // force the touched constant to diff as changed — the same
        // effect as an edited body, without needing to redefine a
        // referenced constant in place. Keeping its recorded edges lets
        // the run close the invalidation over the snapshot instead of
        // rebuilding the module DAG.
        let mut snap =
            pumpkin_core::DigestMap::capture(&session_env, stdlib::swap::OLD_MODULE_CONSTANTS);
        snap.mark_changed(&touched.into());
        snap
    };
    let run_incr = |env: &mut Env, snap: &pumpkin_core::DigestMap| {
        let mut st = LiftState::new();
        pumpkin_core::Repairer::new(&session_lifting)
            .persist_cache(&dir)
            .state(&mut st)
            .incremental(snap)
            .run(env, stdlib::swap::OLD_MODULE_CONSTANTS)
            .unwrap()
    };
    b.bench(
        "persist_cache/incremental",
        || (session_env.clone(), snapshot()),
        |(mut env, snap)| {
            let report = run_incr(&mut env, &snap);
            // The session's environment and snapshot survive across edits
            // in the watch/serve loop; their teardown is not part of an
            // incremental request, so hand them back out of the timing.
            (report, env, snap)
        },
    );
    {
        let report = run_incr(&mut session_env.clone(), &snapshot());
        let incr = report.incr.expect("incremental run reports stats");
        println!("  persist_cache/incremental: {incr}");
        assert_eq!(incr.changed, 1, "exactly one constant was touched");
        assert!(
            incr.replayed <= 2,
            "touching 1 of 13 must re-lift at most 2 constants, got {}",
            incr.replayed
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_auto_search(b: &mut Bench) {
    // The automatic repair search (DESIGN.md §18). `cold` runs the whole
    // candidate enumeration through the kernel oracle against a fresh
    // collision module — the constant name (and so the module digest) is
    // unique per iteration, so the process-wide failure cache never
    // helps. `warm` replays one fixed module whose failures were recorded
    // up front: every candidate is skipped by the cache without touching
    // the kernel. bench_guard.sh gates warm at <= 0.5x cold in-run.
    // `minimize` adds the reduction of a poisoned four-constant module
    // down to its one-constant reproducer: halving-chunk drops, each probe
    // attempting the repair on candidates prepared (source loaded,
    // configured) once per minimization.
    use pumpkin_pi::pumpkin_core::AutoPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    let base = stdlib::std_env();
    let collision = |tag: &str| {
        format!(
            "Definition New.{tag} : nat := O.\n\
             Definition Old.{tag} : forall (T : Type 1), Old.list T -> Old.list T := \
             fun (T : Type 1) (l : Old.list T) => l.\n"
        )
    };
    let policy = AutoPolicy {
        minimize: false,
        deterministic: true,
        ..AutoPolicy::default()
    };
    let fresh = AtomicUsize::new(0);
    b.bench(
        "auto_search/cold",
        || {
            let i = fresh.fetch_add(1, Ordering::Relaxed);
            (base.clone(), collision(&format!("auto_bench_cold_{i}")))
        },
        |(mut env, src)| {
            let (auto, result) = Repairer::auto(policy.clone())
                .source(src)
                .run(&mut env, &[]);
            assert!(
                result.is_err() && auto.skipped_cache == 0,
                "cold iterations must never hit the failure cache"
            );
            auto
        },
    );
    // Record the fixed module's failures once; every warm iteration then
    // skips the entire enumeration.
    let warm_src = collision("auto_bench_warm");
    {
        let mut env = base.clone();
        let (auto, _) = Repairer::auto(policy.clone())
            .source(warm_src.as_str())
            .run(&mut env, &[]);
        println!("  auto_search/cold: {}", auto.summary());
    }
    b.bench(
        "auto_search/warm",
        || (base.clone(), warm_src.clone()),
        |(mut env, src)| {
            let (auto, result) = Repairer::auto(policy.clone())
                .source(src)
                .run(&mut env, &[]);
            assert!(
                result.is_err() && auto.tried == 0,
                "warm iterations must skip every candidate"
            );
            auto
        },
    );
    let min_policy = AutoPolicy {
        use_failure_cache: false,
        deterministic: true,
        ..AutoPolicy::default()
    };
    b.bench(
        "auto_search/minimize",
        || (base.clone(), collision("auto_bench_min")),
        |(mut env, src)| {
            let (auto, result) = Repairer::auto(min_policy.clone())
                .source(src)
                .run(&mut env, &["Old.rev", "Old.app", "Old.length"]);
            assert!(
                result.is_err() && auto.reproducer.is_some(),
                "minimize iterations must produce a reproducer"
            );
            auto
        },
    );
    let mut env = base.clone();
    let (auto, _) = Repairer::auto(min_policy)
        .source(collision("auto_bench_min_probe"))
        .run(&mut env, &["Old.rev", "Old.app", "Old.length"]);
    let steps = auto.reproducer.as_ref().map_or(0, |r| r.steps);
    println!(
        "  auto_search/minimize: {} in {steps} oracle steps",
        auto.summary()
    );
}

fn bench_serve_roundtrip(b: &mut Bench) {
    // End-to-end daemon latency: connect, repair a three-constant module
    // over newline-delimited JSON-RPC, read the reply. Covers framing,
    // request parsing, the per-connection env clone, the repair itself,
    // and reply serialization — the price of moving the engine behind a
    // socket.
    use pumpkin_pi::pumpkin_serve::{Client, Server, ServerConfig};
    use pumpkin_pi::pumpkin_wire::{LiftSpec, Value};
    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run());
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let params = Value::Obj(vec![
        ("lifting".into(), spec.to_value()),
        (
            "names".into(),
            Value::Arr(
                ["Old.rev", "Old.app", "Old.rev_involutive"]
                    .iter()
                    .map(|n| Value::str(*n))
                    .collect(),
            ),
        ),
    ]);
    b.bench(
        "serve_roundtrip",
        || (addr.clone(), params.clone()),
        |(addr, params)| {
            let mut client = Client::connect(&addr).expect("connect");
            client.call("repair_module", params).expect("repair_module")
        },
    );
    let mut client = Client::connect(&addr).expect("connect");
    client
        .call("shutdown", Value::Obj(vec![]))
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean drain");
}

fn bench_repair_batch(b: &mut Bench) {
    // Batch amortization: the 13-constant swap module repaired as 13
    // individual `repair` RPCs on one connection (rpc13) vs one
    // `repair_batch` frame (batch13). Both do identical repair work per
    // constant — the delta is 12 saved round trips, frame parses, queue
    // handoffs, and reply flushes. bench_guard.sh asserts in-run that
    // batch13 <= 0.8 * rpc13, and this function asserts the replies are
    // byte-identical (batch entries vs standalone null-id replies).
    use pumpkin_pi::pumpkin_serve::{Client, Server, ServerConfig};
    use pumpkin_pi::pumpkin_wire::{LiftSpec, Value};
    let server = Server::bind(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || server.run());
    let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
    let singles: Vec<String> = stdlib::swap::OLD_MODULE_CONSTANTS
        .iter()
        .map(|n| {
            format!(
                r#"{{"id":null,"method":"repair","params":{{"lifting":{},"name":"{n}","deterministic":true}}}}"#,
                spec.to_value()
            )
        })
        .collect();
    let batch_line = format!(
        r#"{{"id":null,"method":"repair_batch","params":{{"lifting":{},"batch":[{}]}}}}"#,
        spec.to_value(),
        stdlib::swap::OLD_MODULE_CONSTANTS
            .iter()
            .map(|n| format!(r#"{{"name":"{n}","deterministic":true}}"#))
            .collect::<Vec<_>>()
            .join(",")
    );
    // One warm-up pass configures every worker's cache and yields the
    // reference replies for the byte-identity check.
    let mut client = Client::connect(&addr).expect("connect");
    let reference: Vec<String> = singles
        .iter()
        .map(|l| client.call_raw(l).expect("warm single"))
        .collect();
    let batch_reply = client.call_raw(&batch_line).expect("warm batch");
    let parsed = Value::parse(&batch_reply).expect("parse batch reply");
    let results = parsed
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Value::as_arr)
        .expect("results array");
    assert_eq!(results.len(), reference.len());
    for (batched, standalone) in results.iter().zip(&reference) {
        // Standalone replies carry a lifecycle `req_id`; batch entries
        // deliberately don't (DESIGN.md §17). Strip it before comparing.
        let standalone = match standalone.find("\"req_id\":") {
            Some(at) => {
                let end = standalone[at..]
                    .find(',')
                    .map_or(standalone.len(), |c| at + c + 1);
                format!("{}{}", &standalone[..at], &standalone[end..])
            }
            None => standalone.clone(),
        };
        assert_eq!(
            batched.to_string(),
            standalone,
            "batch entry diverged from the standalone reply"
        );
    }
    b.bench(
        "repair_batch/rpc13",
        || (addr.clone(), singles.clone()),
        |(addr, singles)| {
            // The pre-batch client pattern: one `pumpkin client`-style
            // invocation per constant — connect, one repair RPC, close.
            singles
                .iter()
                .map(|l| {
                    Client::connect(&addr)
                        .expect("connect")
                        .call_raw(l)
                        .expect("single rpc")
                })
                .collect::<Vec<_>>()
        },
    );
    b.bench(
        "repair_batch/batch13",
        || (Client::connect(&addr).expect("connect"), batch_line.clone()),
        |(mut client, line)| client.call_raw(&line).expect("batch rpc"),
    );
    let mut client = Client::connect(&addr).expect("connect");
    client
        .call("shutdown", Value::Obj(vec![]))
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean drain");
}

fn main() {
    let mut b = Bench::from_args();
    bench_lift_cache_ablation(&mut b);
    bench_kernel_cache_ablation(&mut b);
    bench_repair_parallel(&mut b);
    bench_trace_overhead(&mut b);
    bench_enum_scaling(&mut b);
    bench_term_size_scaling(&mut b);
    bench_persist_cache(&mut b);
    bench_auto_search(&mut b);
    bench_serve_roundtrip(&mut b);
    bench_repair_batch(&mut b);
    b.finish();
}
