//! Property-based tests of equality up to transport (paper §3.2), checked
//! *behaviourally*: for random closed values, transporting then applying
//! the repaired function agrees with applying the original then
//! transporting — the executable reading of `dep_constr_ok`/`dep_elim_ok`
//! (Fig. 12), which the paper does not generate proofs for either.

use pumpkin_pi::case_studies;
use pumpkin_pi::pumpkin_core::{self, LiftState, NameMap, Repairer};
use pumpkin_pi::pumpkin_kernel::env::Env;
use pumpkin_pi::pumpkin_kernel::reduce::normalize;
use pumpkin_pi::pumpkin_kernel::term::Term;
use pumpkin_pi::pumpkin_lang;
use pumpkin_pi::pumpkin_stdlib as stdlib;
use pumpkin_testkit::{check, Rng};
use stdlib::list::list_lit;
use stdlib::nat::{nat_lit, nat_value};

fn swapped_env() -> Env {
    let mut env = stdlib::std_env();
    case_studies::swap_list_module(&mut env).unwrap();
    env
}

fn old_list(xs: &[u64]) -> Term {
    let elems: Vec<Term> = xs.iter().map(|&x| nat_lit(x)).collect();
    list_lit("Old.list", Term::ind("nat"), &elems)
}

fn transport(env: &Env, l: Term) -> Term {
    let _ = env;
    Term::app(Term::const_("Old.list_to_New.list"), [Term::ind("nat"), l])
}

#[test]
fn transport_commutes_with_rev_and_app() {
    let env = swapped_env();
    check(32, |rng| {
        let xs = rng.vec(10, |r| r.below(10));
        let ys = rng.vec(10, |r| r.below(10));
        // f (rev xs) == New.rev (f xs)
        let lhs = transport(
            &env,
            Term::app(Term::const_("Old.rev"), [Term::ind("nat"), old_list(&xs)]),
        );
        let rhs = Term::app(
            Term::const_("New.rev"),
            [Term::ind("nat"), transport(&env, old_list(&xs))],
        );
        assert_eq!(normalize(&env, &lhs), normalize(&env, &rhs));

        // f (app xs ys) == New.app (f xs) (f ys)
        let lhs = transport(
            &env,
            Term::app(
                Term::const_("Old.app"),
                [Term::ind("nat"), old_list(&xs), old_list(&ys)],
            ),
        );
        let rhs = Term::app(
            Term::const_("New.app"),
            [
                Term::ind("nat"),
                transport(&env, old_list(&xs)),
                transport(&env, old_list(&ys)),
            ],
        );
        assert_eq!(normalize(&env, &lhs), normalize(&env, &rhs));
    });
}

#[test]
fn swap_equivalence_round_trips_on_random_lists() {
    let env = swapped_env();
    check(32, |rng| {
        let xs = rng.vec(16, |r| r.below(50));
        let l = old_list(&xs);
        let gf = Term::app(
            Term::const_("New.list_to_Old.list"),
            [Term::ind("nat"), transport(&env, l.clone())],
        );
        assert_eq!(normalize(&env, &gf), l);
    });
}

#[test]
fn repaired_length_is_invariant_under_transport() {
    let env = swapped_env();
    check(32, |rng| {
        let xs = rng.vec(16, |r| r.below(50));
        let old_len = Term::app(
            Term::const_("Old.length"),
            [Term::ind("nat"), old_list(&xs)],
        );
        let new_len = Term::app(
            Term::const_("New.length"),
            [Term::ind("nat"), transport(&env, old_list(&xs))],
        );
        assert_eq!(
            nat_value(&normalize(&env, &old_len)),
            nat_value(&normalize(&env, &new_len))
        );
        assert_eq!(nat_value(&normalize(&env, &old_len)), Some(xs.len() as u64));
    });
}

#[test]
fn binary_transport_preserves_addition() {
    let mut env = stdlib::std_env();
    case_studies::binary_nat(&mut env).unwrap();
    check(32, |rng| {
        use stdlib::bin::{n_lit, n_value};
        let a = rng.below(200);
        let b = rng.below(200);
        // slow_add (repaired) == fast N.add == u64 addition.
        let slow = Term::app(Term::const_("slow_add"), [n_lit(a), n_lit(b)]);
        assert_eq!(n_value(&normalize(&env, &slow)), Some(a + b));
        // of_nat is a homomorphism landing on the same value.
        let via_nat = Term::app(
            Term::const_("N.of_nat"),
            [Term::app(
                Term::const_("add"),
                [nat_lit(a % 40), nat_lit(b % 40)],
            )],
        );
        assert_eq!(n_value(&normalize(&env, &via_nat)), Some(a % 40 + b % 40));
    });
}

#[test]
fn nat_bin_equivalence_round_trips() {
    let env = stdlib::std_env();
    check(48, |rng| {
        use stdlib::bin::{n_lit, n_value};
        let n = rng.below(300);
        let round = Term::app(
            Term::const_("N.of_nat"),
            [Term::app(Term::const_("N.to_nat"), [n_lit(n)])],
        );
        assert_eq!(n_value(&normalize(&env, &round)), Some(n));
        let round2 = Term::app(
            Term::const_("N.to_nat"),
            [Term::app(Term::const_("N.of_nat"), [nat_lit(n % 64)])],
        );
        assert_eq!(nat_value(&normalize(&env, &round2)), Some(n % 64));
    });
}

#[test]
fn ornament_transport_preserves_zip() {
    let mut env = stdlib::std_env();
    case_studies::ornament_zip(&mut env).unwrap();
    let pack = |xs: &[u64]| {
        Term::app(
            Term::const_("list_to_sig_vector"),
            [
                Term::ind("nat"),
                list_lit(
                    "list",
                    Term::ind("nat"),
                    &xs.iter().map(|&x| nat_lit(x)).collect::<Vec<_>>(),
                ),
            ],
        )
    };
    check(24, |rng| {
        let xs = rng.vec(8, |r| r.below(10));
        let ys = rng.vec(8, |r| r.below(10));
        // Unpacking Sig.zip of packed lists equals zip of the lists.
        let sig = Term::app(
            Term::const_("Sig.zip"),
            [Term::ind("nat"), Term::ind("nat"), pack(&xs), pack(&ys)],
        );
        let back = Term::app(
            Term::const_("sig_vector_to_list"),
            [
                Term::app(Term::ind("prod"), [Term::ind("nat"), Term::ind("nat")]),
                sig,
            ],
        );
        let direct = Term::app(
            Term::const_("zip"),
            [
                Term::ind("nat"),
                Term::ind("nat"),
                list_lit(
                    "list",
                    Term::ind("nat"),
                    &xs.iter().map(|&x| nat_lit(x)).collect::<Vec<_>>(),
                ),
                list_lit(
                    "list",
                    Term::ind("nat"),
                    &ys.iter().map(|&x| nat_lit(x)).collect::<Vec<_>>(),
                ),
            ],
        );
        assert_eq!(normalize(&env, &back), normalize(&env, &direct));
    });
}

/// A tiny random Term generator over the REPLICA language.
#[derive(Clone, Debug)]
enum T {
    Var(u64),
    Int(u64),
    Eq(Box<T>, Box<T>),
    Plus(Box<T>, Box<T>),
    Times(Box<T>, Box<T>),
    Minus(Box<T>, Box<T>),
    Choose(u64, Box<T>),
}

fn arb_replica(rng: &mut Rng, depth: u32) -> T {
    if depth == 0 || rng.chance(1, 3) {
        if rng.bool() {
            T::Var(rng.below(4))
        } else {
            T::Int(rng.below(6))
        }
    } else {
        let op = rng.index(5);
        let a = Box::new(arb_replica(rng, depth - 1));
        match op {
            0 => T::Eq(a, Box::new(arb_replica(rng, depth - 1))),
            1 => T::Plus(a, Box::new(arb_replica(rng, depth - 1))),
            2 => T::Times(a, Box::new(arb_replica(rng, depth - 1))),
            3 => T::Minus(a, Box::new(arb_replica(rng, depth - 1))),
            _ => T::Choose(rng.below(4), a),
        }
    }
}

fn build(ind: &str, t: &T) -> Term {
    let c = |j: usize, args: Vec<Term>| Term::app(Term::construct(ind, j), args);
    // Constructor order differs between Old (Int=1, Eq=2) and New
    // (Eq=1, Int=2).
    let (int_j, eq_j) = if ind == "Old.Term" { (1, 2) } else { (2, 1) };
    let mk_id = |i: u64| Term::app(Term::construct("Id", 0), [nat_lit(i)]);
    match t {
        T::Var(i) => c(0, vec![mk_id(*i)]),
        T::Int(z) => c(int_j, vec![nat_lit(*z)]),
        T::Eq(a, b) => c(eq_j, vec![build(ind, a), build(ind, b)]),
        T::Plus(a, b) => c(3, vec![build(ind, a), build(ind, b)]),
        T::Times(a, b) => c(4, vec![build(ind, a), build(ind, b)]),
        T::Minus(a, b) => c(5, vec![build(ind, a), build(ind, b)]),
        T::Choose(i, t) => c(6, vec![mk_id(*i), build(ind, t)]),
    }
}

#[test]
fn replica_transport_preserves_eval() {
    let mut env = stdlib::std_env();
    case_studies::replica_variant(&mut env, "New.Term", "New.").unwrap();

    let env_fn = pumpkin_lang::term(&env, "fun (i : Id) => S O").unwrap();
    check(32, |rng| {
        let t = arb_replica(rng, 3);
        let old_v = Term::app(
            Term::const_("Old.eval"),
            [env_fn.clone(), build("Old.Term", &t)],
        );
        let new_v = Term::app(
            Term::const_("New.eval"),
            [env_fn.clone(), build("New.Term", &t)],
        );
        assert_eq!(
            nat_value(&normalize(&env, &old_v)),
            nat_value(&normalize(&env, &new_v))
        );
        // And the transported term evaluates identically.
        let f = Term::app(
            Term::const_("Old.Term_to_New.Term"),
            [build("Old.Term", &t)],
        );
        let transported_v = Term::app(Term::const_("New.eval"), [env_fn.clone(), f]);
        assert_eq!(
            nat_value(&normalize(&env, &old_v)),
            nat_value(&normalize(&env, &transported_v))
        );
    });
}

#[test]
fn cache_never_changes_results() {
    // Same repair with and without the subterm cache yields identical
    // definitions (§4.4's aggressive caching is semantics-preserving), and
    // likewise for the kernel-layer nf/ty memo tables.
    let mut env1 = stdlib::std_env();
    let l1 = pumpkin_core::search::swap::configure(
        &mut env1,
        &"Old.Term".into(),
        &"New.Term".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st1 = LiftState::new();
    let report1 = Repairer::new(&l1)
        .state(&mut st1)
        .run(&mut env1, case_studies::REPLICA_CONSTANTS)
        .unwrap();

    let mut env2 = stdlib::std_env();
    env2.set_kernel_cache(false);
    let l2 = pumpkin_core::search::swap::configure(
        &mut env2,
        &"Old.Term".into(),
        &"New.Term".into(),
        NameMap::prefix("Old.", "New."),
    )
    .unwrap();
    let mut st2 = LiftState::without_cache();
    Repairer::new(&l2)
        .state(&mut st2)
        .run(&mut env2, case_studies::REPLICA_CONSTANTS)
        .unwrap();

    for c in case_studies::REPLICA_CONSTANTS {
        let n: pumpkin_pi::pumpkin_kernel::name::GlobalName = c.replace("Old.", "New.").into();
        assert_eq!(env1.const_decl(&n).unwrap(), env2.const_decl(&n).unwrap());
    }
    // The cached run did real kernel work, so the two runs compared above
    // were non-trivial. (The kernel's own unit tests pin that the nf/ty
    // memo tables fill and answer.)
    let k = &report1.kernel;
    assert!(
        k.beta_steps + k.delta_steps + k.iota_steps > 0,
        "repair did no kernel reduction work: {k}"
    );
}

#[test]
fn random_enum_permutations_configure_and_round_trip() {
    // For random constructor permutations of a 6-constructor enum, the
    // configured equivalence round-trips every value.
    let mut base = stdlib::std_env();
    base.declare_inductive(stdlib::replica::enum_decl("E6", 6))
        .unwrap();
    base.declare_inductive(stdlib::replica::enum_decl("F6", 6))
        .unwrap();
    check(16, |rng| {
        let perm = rng.permutation(6);
        let mut env = base.clone();
        let lifting = pumpkin_core::search::swap::configure_with(
            &mut env,
            &"E6".into(),
            &"F6".into(),
            &perm,
            NameMap::prefix("E6.", "F6."),
        )
        .unwrap();
        let eqv = lifting.equivalence.as_ref().unwrap();
        #[allow(clippy::needless_range_loop)]
        for j in 0..6 {
            // f maps constructor j to perm[j]; g inverts.
            let fx = Term::app(Term::const_(eqv.f.clone()), [Term::construct("E6", j)]);
            assert_eq!(normalize(&env, &fx), Term::construct("F6", perm[j]));
            let gfx = Term::app(Term::const_(eqv.g.clone()), [normalize(&env, &fx)]);
            assert_eq!(normalize(&env, &gfx), Term::construct("E6", j));
        }
    });
}
