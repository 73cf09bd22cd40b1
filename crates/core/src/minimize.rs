//! Failure minimization: shrink a failing module repair to a minimal
//! failing sub-module, in the spirit of Gross & Zimmermann's proof-assistant
//! test-case reduction (ITP 2022).
//!
//! When [`crate::auto`]'s candidate search exhausts every configuration,
//! the work list is reduced large chunks first: drop halves, then
//! quarters, down to single constants (in a seed-replayable order via
//! [`pumpkin_testkit::Rng`]), keeping a drop only if the shrunk list still
//! fails *with the original error class*.
//! Dependency structure is replayed through the **recorded**
//! [`crate::schedule::ModuleDag`] — edges are computed once by the failing
//! run and never re-derived here: entries already inside another entry's
//! recorded dependency closure are pruned without consulting the oracle at
//! all (repairing the dependent repairs them on demand).

use std::collections::HashSet;

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_testkit::Rng;

use crate::error::ErrorClass;
use crate::schedule::ModuleDag;

/// A minimal failing sub-module: the evidence attached to
/// [`crate::error::RepairError::AutoExhausted`] and dumped by
/// `pumpkin auto --emit-repro`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reproducer {
    /// The minimized work list, in the original work-list order.
    pub names: Vec<String>,
    /// The preserved error class (the default candidate's class on the
    /// original module — the shrunk module fails the same way).
    pub class: ErrorClass,
    /// The reduction seed; rerunning the minimizer with the same seed on
    /// the same module replays the identical reduction path.
    pub seed: u64,
    /// Constant count of the original work list.
    pub original: usize,
    /// Oracle invocations the reduction spent.
    pub steps: u64,
}

impl Reproducer {
    /// Renders the reproducer as a standalone vernacular `.pi` module:
    /// every minimized constant's declaration (pretty-printed from `env`,
    /// which must hold the loaded module), prefixed by a comment naming
    /// the preserved error class and the replay seed.
    pub fn to_pi(&self, env: &Env) -> String {
        let mut out = format!(
            "(* minimized reproducer: {} of {} constant(s), error class `{}`, seed {} *)\n",
            self.names.len(),
            self.original,
            self.class,
            self.seed
        );
        for n in &self.names {
            let Ok(decl) = env.const_decl(&GlobalName::new(n.as_str())) else {
                out.push_str(&format!("(* {n}: not present in the environment *)\n"));
                continue;
            };
            let ty = pumpkin_lang::pretty(env, &decl.ty);
            match &decl.body {
                Some(b) => {
                    let body = pumpkin_lang::pretty(env, b);
                    out.push_str(&format!("Definition {n} : {ty} :=\n  {body}.\n"));
                }
                None => out.push_str(&format!("Axiom {n} : {ty}.\n")),
            }
        }
        out
    }
}

/// The recorded-DAG dependency closure of `seeds` (indices into
/// `dag.nodes`), following only the edges the failing run recorded.
fn closure(dag: &ModuleDag, seeds: &[usize]) -> HashSet<usize> {
    let mut seen: HashSet<usize> = seeds.iter().copied().collect();
    let mut stack: Vec<usize> = seeds.to_vec();
    while let Some(i) = stack.pop() {
        for &d in &dag.deps[i] {
            if seen.insert(d) {
                stack.push(d);
            }
        }
    }
    seen
}

/// Shrinks `names` to a 1-minimal sub-list that still fails with
/// `target` according to `oracle` (which returns the failure class of a
/// candidate work list, or `None` when it repairs cleanly).
///
/// `dag` is the dependency DAG **recorded by the failing run** over the
/// full work list; it is only read, never rebuilt. The reduction is
/// deterministic in `seed`.
pub fn minimize(
    names: &[&str],
    dag: &ModuleDag,
    seed: u64,
    target: ErrorClass,
    mut oracle: impl FnMut(&[&str]) -> Option<ErrorClass>,
) -> Reproducer {
    let mut steps = 0u64;
    let mut check = |subset: &[&str]| -> bool {
        steps += 1;
        oracle(subset) == Some(target)
    };

    let index_of = |n: &str| dag.nodes.iter().position(|g| g.as_str() == n);
    let mut current: Vec<&str> = names.to_vec();

    // Phase 1 — closure pruning, no oracle calls: an entry that sits
    // inside another entry's recorded dependency closure is repaired on
    // demand anyway, so it is redundant as a work-list entry. Replayed
    // purely over the recorded edges.
    let mut pruned: Vec<&str> = Vec::new();
    for (k, n) in current.iter().enumerate() {
        let others: Vec<usize> = current
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != k)
            .filter_map(|(_, m)| index_of(m))
            .collect();
        let covered = match index_of(n) {
            Some(i) => {
                let cl = closure(dag, &others);
                cl.contains(&i) && !others.is_empty()
            }
            None => false,
        };
        if !covered {
            pruned.push(n);
        }
    }
    if pruned.len() < current.len() && check(&pruned) {
        current = pruned;
    }

    // Phase 2 — complement removal at halving granularity: try dropping
    // seeded-shuffled chunks of ⌈len/2⌉, then ⌈len/4⌉, and so on. A chunk
    // size is kept while its drops succeed (reshuffling over the shrunk
    // list), and size 1 runs to the single-drop fixpoint, so the result
    // is 1-minimal. One culprit among n names costs ≤ 2·⌈log₂ n⌉ probes.
    let mut rng = Rng::new(seed);
    let mut chunk = current.len().div_ceil(2);
    while current.len() > 1 {
        // Never a chunk as large as the list: dropping everything is not
        // a reduction worth a probe.
        chunk = chunk.min(current.len().div_ceil(2));
        let order = rng.permutation(current.len());
        let shrunk = order.chunks(chunk).find_map(|victims| {
            let trial: Vec<&str> = current
                .iter()
                .enumerate()
                .filter(|(i, _)| !victims.contains(i))
                .map(|(_, n)| *n)
                .collect();
            check(&trial).then_some(trial)
        });
        match shrunk {
            Some(trial) => current = trial,
            None if chunk == 1 => break,
            None => chunk = chunk.div_ceil(2),
        }
    }

    // Keep the original work-list order in the result.
    let keep: HashSet<&str> = current.iter().copied().collect();
    Reproducer {
        names: names
            .iter()
            .filter(|n| keep.contains(**n))
            .map(|n| (*n).to_string())
            .collect(),
        class: target,
        seed,
        original: names.len(),
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dag() -> ModuleDag {
        // d -> c -> b -> a (deps point at prerequisites).
        ModuleDag {
            nodes: ["a", "b", "c", "d"].map(GlobalName::new).to_vec(),
            deps: vec![vec![], vec![0], vec![1], vec![2]],
        }
    }

    #[test]
    fn shrinks_to_the_single_culprit() {
        let dag = toy_dag();
        // Failure iff "b" is in the (closure of the) work list.
        let oracle = |subset: &[&str]| {
            subset
                .contains(&"b")
                .then_some(ErrorClass::Kernel)
                .or(subset.contains(&"c").then_some(ErrorClass::Kernel))
                .or(subset.contains(&"d").then_some(ErrorClass::Kernel))
        };
        let r = minimize(&["a", "b", "c", "d"], &dag, 42, ErrorClass::Kernel, oracle);
        assert_eq!(r.names.len(), 1);
        assert_eq!(r.original, 4);
        assert!(r.steps > 0);
    }

    #[test]
    fn reduction_is_seed_replayable() {
        let dag = toy_dag();
        let oracle = |subset: &[&str]| subset.contains(&"c").then_some(ErrorClass::SourceNotFree);
        let a = minimize(
            &["a", "b", "c", "d"],
            &dag,
            7,
            ErrorClass::SourceNotFree,
            oracle,
        );
        let b = minimize(
            &["a", "b", "c", "d"],
            &dag,
            7,
            ErrorClass::SourceNotFree,
            oracle,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn minimizing_a_minimal_module_is_the_identity() {
        let dag = ModuleDag {
            nodes: vec![GlobalName::new("only")],
            deps: vec![vec![]],
        };
        let oracle = |subset: &[&str]| subset.contains(&"only").then_some(ErrorClass::Kernel);
        let r = minimize(&["only"], &dag, 3, ErrorClass::Kernel, oracle);
        assert_eq!(r.names, vec!["only".to_string()]);
        assert_eq!(r.steps, 0, "a singleton has nothing to drop");
    }

    #[test]
    fn drops_that_change_the_error_class_are_rejected() {
        let dag = toy_dag();
        // Without "a" the failure class flips — the minimizer must keep it.
        let oracle = |subset: &[&str]| {
            if subset.contains(&"a") && subset.contains(&"b") {
                Some(ErrorClass::Kernel)
            } else if subset.contains(&"b") {
                Some(ErrorClass::Lang)
            } else {
                None
            }
        };
        let r = minimize(&["a", "b", "c", "d"], &dag, 11, ErrorClass::Kernel, oracle);
        assert!(r.names.contains(&"a".to_string()));
        assert!(r.names.contains(&"b".to_string()));
    }

    /// A seeded toy module: up to 32 names, random edges from each name to
    /// earlier ones, and 1–3 culprits. It fails with class `kernel` iff
    /// every culprit lies in the recorded closure of the work list
    /// (repairing a dependent repairs its prerequisites on demand).
    struct Toy {
        names: Vec<String>,
        dag: ModuleDag,
        culprits: Vec<usize>,
    }

    impl Toy {
        fn random(rng: &mut Rng, max_culprits: usize, edges: bool) -> Toy {
            let n = 1 + rng.index(32);
            let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
            let deps = (0..n)
                .map(|i| (0..i).filter(|_| edges && rng.chance(1, 6)).collect())
                .collect();
            let mut culprits = rng.permutation(n);
            culprits.truncate(1 + rng.index(max_culprits.min(n)));
            Toy {
                dag: ModuleDag {
                    nodes: names.iter().map(|n| GlobalName::new(n.as_str())).collect(),
                    deps,
                },
                names,
                culprits,
            }
        }

        fn refs(&self) -> Vec<&str> {
            self.names.iter().map(String::as_str).collect()
        }

        fn oracle(&self, subset: &[&str]) -> Option<ErrorClass> {
            let seeds: Vec<usize> = subset
                .iter()
                .filter_map(|s| self.names.iter().position(|n| n == s))
                .collect();
            let reached = closure(&self.dag, &seeds);
            self.culprits
                .iter()
                .all(|c| reached.contains(c))
                .then_some(ErrorClass::Kernel)
        }
    }

    #[test]
    fn reductions_are_failing_one_minimal_and_replayable() {
        pumpkin_testkit::check(300, |rng| {
            let toy = Toy::random(rng, 3, true);
            let names = toy.refs();
            let seed = rng.u64();
            let run = || {
                minimize(&names, &toy.dag, seed, ErrorClass::Kernel, |s| {
                    toy.oracle(s)
                })
            };
            let r = run();
            let kept: Vec<&str> = r.names.iter().map(String::as_str).collect();
            assert_eq!(toy.oracle(&kept), Some(ErrorClass::Kernel), "{r:?}");
            for i in 0..kept.len() {
                let mut fewer = kept.clone();
                let dropped = fewer.remove(i);
                assert_eq!(
                    toy.oracle(&fewer),
                    None,
                    "dropping {dropped} from {kept:?} still fails: not 1-minimal"
                );
            }
            assert_eq!(run(), r, "same seed, same reproducer");
        });
    }

    #[test]
    fn one_culprit_costs_logarithmic_probes() {
        pumpkin_testkit::check(300, |rng| {
            let toy = Toy::random(rng, 1, false);
            let names = toy.refs();
            let r = minimize(&names, &toy.dag, rng.u64(), ErrorClass::Kernel, |s| {
                toy.oracle(s)
            });
            assert_eq!(r.names, vec![toy.names[toy.culprits[0]].clone()]);
            let log2 = u64::from(names.len().next_power_of_two().trailing_zeros());
            assert!(
                r.steps <= 2 * log2 + 2,
                "{} probes for one culprit among {} names",
                r.steps,
                names.len()
            );
        });
    }
}
