//! Self-tests of the benchmark: its inputs are pure functions of the seed,
//! and its checks count a wrong answer as a failure.

use std::time::Instant;

use pumpkin_core::{NameMap, Repairer};

use crate::check::{check_constant, Criteria};
use crate::span::Tracer;
use crate::{cold, edit, run_workload, serve, Cfg, Outcome, WORKLOADS};

fn cfg(seed: u64, seconds: f64, plant_every: u64) -> Cfg {
    Cfg {
        seed,
        seconds,
        trace: false,
        work: std::env::temp_dir().join(format!(
            "perfbench-selftest-{}-{seed}-{plant_every}",
            std::process::id()
        )),
        plant_every,
    }
}

#[test]
fn input_digests_are_pure_functions_of_the_seed() {
    let digests = |seed| {
        [
            cold::inputs(seed).digest,
            serve::digest(&serve::streams(seed)),
            edit::stream_digest(seed, 8),
        ]
    };
    let (a, b, c) = (digests(7), digests(7), digests(8));
    for i in 0..3 {
        assert_eq!(a[i], b[i], "{}: same seed, same inputs", WORKLOADS[i]);
        assert_ne!(a[i], c[i], "{}: another seed, other inputs", WORKLOADS[i]);
    }
}

#[test]
fn every_workload_answers_correctly_and_planted_wrong_answers_fail() {
    for w in WORKLOADS {
        let clean = cfg(3, 0.5, 0);
        let o = run_workload(w, &clean);
        let _ = std::fs::remove_dir_all(&clean.work);
        assert!(o.attempted > 0, "{w}: no ops ran");
        assert_eq!(o.failed, 0, "{w}: {:?}", o.first_failure);

        // Every third op's answer is corrupted before it is checked.
        let planted = cfg(3, 0.5, 3);
        let o = run_workload(w, &planted);
        let _ = std::fs::remove_dir_all(&planted.work);
        assert!(o.attempted >= 3, "{w}: too few ops to plant one");
        if *w == "serve_closed" {
            // Each connection numbers its own ops.
            assert!(o.failed > 0 && o.failed <= o.attempted / 3 + 2, "{w}");
        } else {
            assert_eq!(o.failed, o.attempted / 3, "{w}: every planted answer fails");
        }
        assert!(o.first_failure.is_some());
    }
}

#[test]
fn a_well_typed_constant_at_another_statement_fails_the_check() {
    let mut env = pumpkin_stdlib::std_env();
    let lifting = pumpkin_core::search::swap::configure(
        &mut env,
        &"Old.list".into(),
        &"New.list".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    Repairer::new(&lifting)
        .run(&mut env, &["Old.app", "Old.rev"])
        .unwrap();
    let app_ty = env.const_decl(&"New.app".into()).unwrap().ty.clone();
    let crit = Criteria {
        lifting: &lifting,
        old_prefix: Some("Old."),
        decompile: true,
    };
    let mut tr = Tracer::new(Instant::now());
    let mut out = Outcome::default();
    let mut check =
        |name: &str| check_constant(&env, &name.into(), &app_ty, crit, &mut tr, &mut out);
    assert_eq!(check("New.app"), Ok(()));
    let err = check("New.rev").unwrap_err();
    assert!(err.contains("not the lifted statement"), "{err}");
}
