//! `cold_module`: the full Fig. 6 pipeline on one module per op, in
//! process, single thread, closed loop.
//!
//! Each op clones a pre-built standard environment and runs Configure →
//! `Repairer::run` (defaults: no persist cache, no trace) → decompile and
//! second pass → `prove` re-elaboration → `check_closed`, for every
//! repaired constant. Ops cycle over a seeded draw of the four case
//! studies and the large-term family; every block of five ops holds each
//! family once, so the mix is the same for every seed and only the order
//! and the large-term literals vary.

use std::collections::HashMap;
use std::time::Instant;

use pumpkin_core::{Lifting, NameMap, Repairer};
use pumpkin_kernel::env::Env;
use pumpkin_lang::ast::{Expr, Item};
use pumpkin_lang::Resolver;
use pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS as SWAP;

use crate::check::{self, Criteria};
use crate::gen::{InputDigest, Rng};
use crate::span::Tracer;
use crate::{Cfg, Outcome};

/// Length of the literal lists in the large-term lemmas.
const LIST_LEN: usize = 64;
/// Distinct large-term lemmas (seeded literals) per run.
const LARGE_VARIANTS: usize = 4;
/// Blocks of five ops in the schedule; a run that outlasts them wraps.
const BLOCKS: usize = 4096;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

const REPLICA: &[&str] = &[
    "Old.size",
    "Old.eval",
    "Old.swap_eq_args",
    "Old.swap_eq_args_involutive",
    "Old.eval_eq_true_or_false",
];
const NAT: &[&str] = &["add", "mul", "add_n_Sm_expanded"];
const NAT_PAIRS: &[(&str, &str)] = &[
    ("add", "slow_add"),
    ("mul", "slow_mul"),
    ("add_n_Sm_expanded", "slow_add_n_Sm"),
];
const RECORDS: &[&str] = &["cork", "corkLemma"];
/// The lifted statements of the constants whose old statements are not a
/// renaming of the new ones (nat → N, tuples → records), written out.
const LIFTED: &[(&str, &str)] = &[
    ("slow_add", "N -> N -> N"),
    ("slow_mul", "N -> N -> N"),
    (
        "slow_add_n_Sm",
        "forall (n : N) (m : N), eq N (N.succ (slow_add n m)) (slow_add n (N.succ m))",
    ),
    ("Record.cork", "Record.Connection -> Record.Connection"),
    (
        "Record.corkLemma",
        "forall (c : Record.Connection), eq word (corked c) (bvNat O) -> \
         eq word (corked (Record.cork c)) (bvNat (S O))",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Module {
    /// §2 / §6.1: swap the list constructors, repair the list module.
    Swap,
    /// §6.1: REPLICA `Term` across a constructor swap.
    Replica,
    /// §6.3: unary → binary naturals (manual configuration).
    NatBin,
    /// §6.4: records from tuples.
    Records,
    /// `app_assoc` instantiated on literal lists of length 64.
    Large(usize),
}

impl Module {
    fn label(self) -> &'static str {
        match self {
            Module::Swap => "swap",
            Module::Replica => "replica",
            Module::NatBin => "nat_bin",
            Module::Records => "records",
            Module::Large(_) => "large",
        }
    }

    fn work_list(self) -> Vec<String> {
        match self {
            Module::Swap => SWAP.iter().map(|s| s.to_string()).collect(),
            Module::Replica => REPLICA.iter().map(|s| s.to_string()).collect(),
            Module::NatBin => NAT.iter().map(|s| s.to_string()).collect(),
            Module::Records => RECORDS.iter().map(|s| s.to_string()).collect(),
            Module::Large(k) => vec![format!("Old.assoc_inst_{k}")],
        }
    }

    /// The known answer: every `(old, new)` pair the repair must report.
    fn expected(self) -> Vec<(String, String)> {
        let prefix_swap = |names: &[&str]| {
            names
                .iter()
                .map(|n| (n.to_string(), n.replacen("Old.", "New.", 1)))
                .collect()
        };
        match self {
            Module::Swap => prefix_swap(SWAP),
            Module::Replica => prefix_swap(REPLICA),
            Module::NatBin => NAT_PAIRS
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            Module::Records => RECORDS
                .iter()
                .map(|n| (n.to_string(), format!("Record.{n}")))
                .collect(),
            // Dependencies (`Old.app`, `Old.app_assoc`) are repaired on
            // demand and are not part of the work list's answer.
            Module::Large(k) => {
                vec![(format!("Old.assoc_inst_{k}"), format!("New.assoc_inst_{k}"))]
            }
        }
    }

    fn old_prefix(self) -> Option<&'static str> {
        match self {
            Module::Swap | Module::Replica | Module::Large(_) => Some("Old."),
            Module::NatBin | Module::Records => None,
        }
    }

    /// Configure: the search procedure or manual configuration for the
    /// module's equivalence.
    fn configure(self, env: &mut Env) -> pumpkin_core::Result<Lifting> {
        use pumpkin_core::search::{swap, tuple_record};
        match self {
            Module::Swap | Module::Large(_) => swap::configure(
                env,
                &"Old.list".into(),
                &"New.list".into(),
                NameMap::prefix("Old.", "New."),
            ),
            Module::Replica => swap::configure(
                env,
                &"Old.Term".into(),
                &"New.Term".into(),
                NameMap::prefix("Old.", "New."),
            ),
            Module::NatBin => {
                let names = NameMap::prefix("add_n_Sm_expanded", "slow_add_n_Sm")
                    .with_rule("add_1_r", "Bin.add_1_r")
                    .with_rule("add", "slow_add")
                    .with_rule("mul", "slow_mul")
                    .with_rule("", "Bin.");
                let lifting = pumpkin_core::manual::configure_nat_to_bin(env, names)?;
                pumpkin_core::manual::load_expanded_add_n_sm(env)?;
                Ok(lifting)
            }
            Module::Records => tuple_record::configure_to_record(
                env,
                &"Connection".into(),
                &"Record.Connection".into(),
                &tuple_record::connection_projs(),
                NameMap::prefix("", "Record."),
            ),
        }
    }
}

/// Vernacular for one large-term lemma: `app_assoc` at three literal
/// `nat` lists of length [`LIST_LEN`] with seeded elements.
fn large_lemma_source(k: usize, rng: &mut Rng) -> String {
    let nat = |n: usize| {
        let mut s = "O".to_string();
        for _ in 0..n {
            s = format!("(S {s})");
        }
        s
    };
    let list = |rng: &mut Rng| {
        let mut s = "(Old.nil nat)".to_string();
        for _ in 0..LIST_LEN {
            s = format!("(Old.cons nat {} {s})", nat(rng.below(4)));
        }
        s
    };
    let (l, m, n) = (list(rng), list(rng), list(rng));
    format!(
        "Definition Old.assoc_inst_{k} : eq (Old.list nat) \
         (Old.app nat {l} (Old.app nat {m} {n})) (Old.app nat (Old.app nat {l} {m}) {n}) := \
         Old.app_assoc nat {l} {m} {n}.\n"
    )
}

/// The workload's inputs, all drawn from the seed: the large-term
/// lemmas, and the op sequence — blocks of the five families, each block
/// in seeded order.
pub struct Inputs {
    lemmas: Vec<String>,
    schedule: Vec<Module>,
    pub digest: InputDigest,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut digest = InputDigest::default();
    let mut rng = Rng::stream(seed, 2);
    let lemmas: Vec<String> = (0..LARGE_VARIANTS)
        .map(|k| large_lemma_source(k, &mut rng))
        .collect();
    lemmas.iter().for_each(|l| digest.add_str(l));
    let mut rng = Rng::stream(seed, 1);
    let mut schedule = Vec::with_capacity(BLOCKS * 5);
    for _ in 0..BLOCKS {
        let mut block = [
            Module::Swap,
            Module::Replica,
            Module::NatBin,
            Module::Records,
            Module::Large(rng.below(LARGE_VARIANTS)),
        ];
        rng.shuffle(&mut block);
        schedule.extend(block);
    }
    for m in &schedule {
        digest.add_str(m.label());
        if let Module::Large(k) = m {
            digest.add(&[*k as u8]);
        }
    }
    Inputs {
        lemmas,
        schedule,
        digest,
    }
}

/// The known lifted statement of every constant a module repairs, by new
/// name, parsed from source written apart from the repair: for the swap,
/// REPLICA and large-term modules, their `Old.` sources with `Old.`
/// renamed to `New.`; for the rest, [`LIFTED`].
fn known_statements(lemmas: &[String]) -> HashMap<String, Expr> {
    let mut src = pumpkin_stdlib::list::module_source("New.");
    src += &pumpkin_stdlib::replica::OLD_MODULE_SRC.replace("Old.", "New.");
    for lemma in lemmas {
        src += &lemma.replace("Old.", "New.");
    }
    let items = pumpkin_lang::parse_items(&src).expect("the module sources parse");
    let mut known: HashMap<String, Expr> = items
        .into_iter()
        .filter_map(|item| match item {
            Item::Definition { name, ty, .. } => Some((name, ty)),
            _ => None,
        })
        .collect();
    for (name, ty) in LIFTED {
        let ty = pumpkin_lang::parse_term(ty).expect("the lifted statements parse");
        known.insert(name.to_string(), ty);
    }
    known
}

/// The pre-built environments — the standard library, and one copy per
/// large-term lemma with that lemma loaded — and the known statements.
struct Bases {
    std: Env,
    large: Vec<Env>,
    known: HashMap<String, Expr>,
}

fn build_bases(inputs: &Inputs) -> Bases {
    let std = pumpkin_stdlib::std_env();
    let large = inputs
        .lemmas
        .iter()
        .map(|src| {
            let mut env = std.clone();
            pumpkin_lang::load_source(&mut env, src).expect("generated lemmas are well typed");
            env
        })
        .collect();
    let known = known_statements(&inputs.lemmas);
    Bases { std, large, known }
}

/// One op: the whole pipeline on `module`, checked. Returns the number of
/// repaired constants that passed every check. With `plant` set, the
/// answer is corrupted before it is checked (the self-test's wrong answer).
fn op(
    module: Module,
    bases: &Bases,
    tr: &mut Tracer,
    plant: bool,
    out: &mut Outcome,
) -> Result<u64, String> {
    let base = match module {
        Module::Large(k) => &bases.large[k],
        _ => &bases.std,
    };
    let mut env = tr.span("kernel.env_clone", || base.clone());
    let lifting = tr
        .span("core.configure", || module.configure(&mut env))
        .map_err(|e| format!("{}: configure: {e}", module.label()))?;
    let names = module.work_list();
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    let report = tr
        .span("core.repair", || {
            Repairer::new(&lifting).run(&mut env, &borrowed)
        })
        .map_err(|e| format!("{}: repair: {e}", module.label()))?;
    out.add_report(&report);
    let mut pairs = check::report_pairs(&report);
    if plant {
        // A wrong answer: one constant "repaired" to its own old name.
        let (old, _) = pairs[0].clone();
        pairs[0] = (old.clone(), old);
    }
    tr.span("bench.verify", || {
        check::pairs_match(&pairs, &module.expected())
    })
    .map_err(|e| format!("{}: {e}", module.label()))?;
    let crit = Criteria {
        lifting: &lifting,
        old_prefix: module.old_prefix(),
        decompile: true,
    };
    for (_, new) in &pairs {
        let lifted = tr.span("bench.verify", || {
            let ty = bases
                .known
                .get(new)
                .ok_or_else(|| format!("{new}: no known lifted statement"))?;
            Resolver::new(&env)
                .resolve(ty)
                .map_err(|e| format!("{new}: cannot state the lifted statement: {e}"))
        })?;
        check::check_constant(&env, &new.as_str().into(), &lifted, crit, tr, out)?;
    }
    tr.span("kernel.env_drop", || drop(env));
    Ok(pairs.len() as u64)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    // Set-up: build the environments and run each family once, so lazy
    // initialisation (interner growth, configuration constants) happens
    // outside the timed phase. Repeated; `setup_s` is the median.
    let inputs = inputs(cfg.seed);
    out.digest = inputs.digest;
    let mut setups = Vec::new();
    let mut bases = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let b = build_bases(&inputs);
        for m in [
            Module::Swap,
            Module::Replica,
            Module::NatBin,
            Module::Records,
            Module::Large(0),
        ] {
            let mut scratch = Outcome::default();
            if let Err(e) = op(m, &b, &mut tr, false, &mut scratch) {
                out.setup_failed(e);
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        bases = Some(b);
    }
    let bases = bases.expect("at least one set-up");
    out.setup_s = crate::stats::median(&setups);

    let deadline = Instant::now() + cfg.run_time();
    let timed = Instant::now();
    for (i, &module) in inputs.schedule.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let traced = cfg.traced_op(i as u64);
        tr.set_on(traced);
        let start = Instant::now();
        tr.begin_op(i as u64);
        let result = op(module, &bases, &mut tr, cfg.plant(i as u64), &mut out);
        tr.end_op();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        out.record(ms, traced, result);
    }
    out.active_s = timed.elapsed().as_secs_f64();
    out.spans.push(tr.into_spans());
    out
}
