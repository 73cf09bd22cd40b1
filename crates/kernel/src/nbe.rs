//! Normalization by evaluation: the conversion checker's engine.
//!
//! The whnf-rewriting checker this replaces re-built a term at every β/ι
//! step (each one an O(size) substitution), so deciding `t ≡ u` on large
//! literal-heavy proofs re-walked the same structurally shared trees over
//! and over. NbE evaluates both sides *once* into a value domain where
//! binders are closures over an environment — substitution disappears
//! entirely — and then compares values, introducing fresh variables (de
//! Bruijn *levels*) to go under binders.
//!
//! The domain (strict: arguments are evaluated when applications are):
//!
//! * [`Value::Lambda`] / [`Value::Pi`] carry a [`Closure`] (captured
//!   environment + unevaluated body term);
//! * [`Value::Construct`] / [`Value::IndApp`] are constructor/family spines;
//! * [`Value::Neutral`] is a blocked computation: a head — a comparison
//!   variable ([`NHead::Local`]), a free variable of an open input term
//!   ([`NHead::Free`]), a δ-blocked constant ([`NHead::Const`]), or a stuck
//!   eliminator ([`NHead::Elim`]) — applied to a spine of values.
//!
//! Equality rules mirror the syntactic checker: η for functions (a lambda
//! against a non-lambda is compared after applying both to a fresh level),
//! record-η (surjective pairing for single-constructor non-recursive
//! families) as a fallback when a constructor spine fails to match, sorts by
//! `≤` in cumulativity mode (the `leq` flag, which propagates only through
//! Pi codomains, exactly as [`crate::conv::conv_leq`] always did).
//!
//! **Stuck-name invalidation is preserved**: evaluation calls
//! [`Env::note_stuck_const`] when δ finds no unfoldable body and
//! [`Env::note_stuck_ind`] when an eliminator meets an undeclared family —
//! the same observations the whnf path records — so the environment's
//! generation/inval4idation story (see `env.rs`) is unchanged.
//!
//! Termination: evaluation is strongly normalizing on well-typed terms (the
//! calculus has no general recursion; δ cannot be cyclic because a body is
//! checked against an environment that does not yet contain its name). The
//! kernel only converts terms it has checked, mirroring the old checker,
//! which looped on the same ill-typed diverging redexes.

use crate::env::Env;
use crate::name::{GlobalName, Name};
use crate::term::{Binder, ElimData, Term, TermData, TermRc};
use crate::universe::Sort;

/// Shared value pointer: values are immutable once built, and sharing keeps
/// environment captures O(1).
pub(crate) type VRc = TermRc<Value>;

/// A semantic value.
#[derive(Debug)]
pub(crate) enum Value {
    /// A sort literal.
    Sort(Sort),
    /// `fun (x : ty) => <closure>` — the name is a pretty-printing hint for
    /// readback only.
    Lambda(Name, VRc, Closure),
    /// `∀ (x : ty), <closure>`.
    Pi(Name, VRc, Closure),
    /// A (possibly partial) constructor application `Construct(ind, j) args`.
    Construct(GlobalName, usize, Vec<VRc>),
    /// An inductive family application `Ind(name) args` (never reduces).
    IndApp(GlobalName, Vec<VRc>),
    /// A blocked computation: `head args`.
    Neutral(NHead, Vec<VRc>),
}

/// The head of a neutral value.
#[derive(Debug)]
pub(crate) enum NHead {
    /// A fresh variable introduced by the comparator under a binder, as a de
    /// Bruijn *level* (0 = the outermost fresh variable).
    Local(usize),
    /// A free `Rel` of the input term, indexed in the ambient context (the
    /// input's `Rel(i)` with `i` beyond the evaluation environment).
    Free(usize),
    /// A δ-blocked (opaque or bodyless) constant.
    Const(GlobalName),
    /// An eliminator stuck on a non-constructor scrutinee.
    Elim(TermRc<ElimVal>),
    /// An application whose head is not applicable (ill-typed input, e.g.
    /// a sort applied to arguments); kept stuck, like whnf does.
    Stuck(VRc),
}

/// A stuck eliminator with all components evaluated.
#[derive(Debug)]
pub(crate) struct ElimVal {
    ind: GlobalName,
    params: Vec<VRc>,
    motive: VRc,
    cases: Vec<VRc>,
    scrutinee: VRc,
}

/// A binder body awaiting its argument: the captured environment plus the
/// unevaluated body term. Application costs one environment extension — no
/// substitution.
#[derive(Debug, Clone)]
pub(crate) struct Closure {
    env: VEnv,
    body: Term,
}

impl Closure {
    fn apply(&self, env: &Env, arg: VRc) -> VRc {
        eval(env, &self.env.push(arg), &self.body)
    }
}

/// The evaluation environment: a persistent cons-list of values, innermost
/// binder first. O(1) push/clone, O(i) lookup (binder depths are small).
#[derive(Debug, Clone, Default)]
pub(crate) struct VEnv(Option<TermRc<VEnvNode>>);

#[derive(Debug)]
pub(crate) struct VEnvNode {
    head: VRc,
    tail: VEnv,
    len: usize,
}

impl VEnv {
    fn nil() -> VEnv {
        VEnv(None)
    }

    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    fn push(&self, v: VRc) -> VEnv {
        VEnv(Some(TermRc::new(VEnvNode {
            head: v,
            tail: self.clone(),
            len: self.len() + 1,
        })))
    }

    fn get(&self, i: usize) -> Option<&VRc> {
        let mut node = self.0.as_deref()?;
        for _ in 0..i {
            node = node.tail.0.as_deref()?;
        }
        Some(&node.head)
    }
}

fn neutral(head: NHead) -> VRc {
    TermRc::new(Value::Neutral(head, Vec::new()))
}

/// Minimum interned size for a closed term to consult the value memo:
/// below this, the table probe costs about as much as re-evaluating.
const CLOSED_MEMO_MIN_SIZE: usize = 16;

/// Evaluates `t` under `venv`. Free `Rel`s beyond the environment become
/// [`NHead::Free`] neutrals, so open terms evaluate consistently on both
/// sides of a comparison.
///
/// Closed terms above [`CLOSED_MEMO_MIN_SIZE`] go through the environment's
/// per-generation value memo ([`Env::nbe_cached`]): their value cannot
/// mention `venv`, so one entry serves every occurrence in every context —
/// and hash-consing means every repeat of a shared subterm is a single
/// `TermId` probe instead of a re-evaluation.
fn eval(env: &Env, venv: &VEnv, t: &Term) -> VRc {
    if t.is_closed() && t.size() >= CLOSED_MEMO_MIN_SIZE {
        if let Some(v) = env.nbe_cached(t) {
            return v;
        }
        let v = eval_node(env, venv, t);
        env.nbe_insert(t, v.clone());
        return v;
    }
    eval_node(env, venv, t)
}

fn eval_node(env: &Env, venv: &VEnv, t: &Term) -> VRc {
    match t.data() {
        TermData::Rel(i) => match venv.get(*i) {
            Some(v) => v.clone(),
            None => neutral(NHead::Free(i - venv.len())),
        },
        TermData::Sort(s) => TermRc::new(Value::Sort(*s)),
        TermData::Const(n) => match env.unfold(n) {
            Some(body) => {
                env.tally(|s| s.delta_steps += 1);
                eval(env, &VEnv::nil(), body)
            }
            None => {
                env.note_stuck_const(n);
                neutral(NHead::Const(n.clone()))
            }
        },
        TermData::Ind(n) => TermRc::new(Value::IndApp(n.clone(), Vec::new())),
        TermData::Construct(n, j) => TermRc::new(Value::Construct(n.clone(), *j, Vec::new())),
        TermData::App(h, args) => {
            let f = eval(env, venv, h);
            let vargs: Vec<VRc> = args.iter().map(|a| eval(env, venv, a)).collect();
            vapp_many(env, f, vargs)
        }
        TermData::Lambda(b, body) => TermRc::new(Value::Lambda(
            b.name.clone(),
            eval(env, venv, &b.ty),
            Closure {
                env: venv.clone(),
                body: body.clone(),
            },
        )),
        TermData::Pi(b, body) => TermRc::new(Value::Pi(
            b.name.clone(),
            eval(env, venv, &b.ty),
            Closure {
                env: venv.clone(),
                body: body.clone(),
            },
        )),
        TermData::Let(b, v, body) => {
            env.tally(|s| s.zeta_steps += 1);
            let _ = b;
            let vv = eval(env, venv, v);
            eval(env, &venv.push(vv), body)
        }
        TermData::Elim(e) => {
            let params: Vec<VRc> = e.params.iter().map(|p| eval(env, venv, p)).collect();
            let motive = eval(env, venv, &e.motive);
            let cases: Vec<VRc> = e.cases.iter().map(|c| eval(env, venv, c)).collect();
            let scrut = eval(env, venv, &e.scrutinee);
            velim(env, &e.ind, params, motive, cases, scrut)
        }
    }
}

/// Applies `f` to `args` at the value level, β-reducing through closures.
fn vapp_many(env: &Env, mut f: VRc, args: Vec<VRc>) -> VRc {
    for a in args {
        f = vapp(env, f, a);
    }
    f
}

fn vapp(env: &Env, f: VRc, a: VRc) -> VRc {
    match &*f {
        Value::Lambda(_, _, clo) => {
            env.tally(|s| s.beta_steps += 1);
            clo.apply(env, a)
        }
        Value::Construct(n, j, args) => {
            let mut args = args.clone();
            args.push(a);
            TermRc::new(Value::Construct(n.clone(), *j, args))
        }
        Value::IndApp(n, args) => {
            let mut args = args.clone();
            args.push(a);
            TermRc::new(Value::IndApp(n.clone(), args))
        }
        Value::Neutral(head, spine) => {
            let mut spine = spine.clone();
            spine.push(a);
            TermRc::new(Value::Neutral(clone_head(head), spine))
        }
        // Ill-typed application (sort/Pi head): keep it stuck, like whnf.
        Value::Sort(_) | Value::Pi(_, _, _) => {
            TermRc::new(Value::Neutral(NHead::Stuck(f.clone()), vec![a]))
        }
    }
}

fn clone_head(h: &NHead) -> NHead {
    match h {
        NHead::Local(l) => NHead::Local(*l),
        NHead::Free(i) => NHead::Free(*i),
        NHead::Const(n) => NHead::Const(n.clone()),
        NHead::Elim(e) => NHead::Elim(e.clone()),
        NHead::Stuck(v) => NHead::Stuck(v.clone()),
    }
}

/// Eliminator application at the value level: ι-reduces when the scrutinee
/// is a fully applied constructor of the right family (mirroring
/// `InductiveDecl::iota_reduce`, with value-level induction hypotheses);
/// otherwise builds a stuck neutral. Failed family lookups are recorded via
/// [`Env::note_stuck_ind`], exactly like the whnf path.
fn velim(
    env: &Env,
    ind: &GlobalName,
    params: Vec<VRc>,
    motive: VRc,
    cases: Vec<VRc>,
    scrut: VRc,
) -> VRc {
    if let Value::Construct(cn, j, cargs) = &*scrut {
        let decl = match env.inductive(cn) {
            Ok(d) => Some(d),
            Err(_) => {
                env.note_stuck_ind(cn);
                None
            }
        };
        if let Some(decl) = decl {
            if cn == ind {
                let p = decl.nparams();
                if let Some(ctor) = decl.ctors.get(*j) {
                    if cargs.len() == p + ctor.args.len() && cases.len() > *j {
                        env.tally(|s| s.iota_steps += 1);
                        let flags = decl.recursive_flags(*j);
                        let fields = &cargs[p..];
                        let mut actual: Vec<VRc> = Vec::with_capacity(fields.len() * 2);
                        for (k, v) in fields.iter().enumerate() {
                            actual.push(v.clone());
                            if flags[k] {
                                actual.push(velim(
                                    env,
                                    ind,
                                    params.clone(),
                                    motive.clone(),
                                    cases.clone(),
                                    v.clone(),
                                ));
                            }
                        }
                        return vapp_many(env, cases[*j].clone(), actual);
                    }
                }
            }
        }
    }
    neutral(NHead::Elim(TermRc::new(ElimVal {
        ind: ind.clone(),
        params,
        motive,
        cases,
        scrutinee: scrut,
    })))
}

/// Decides `t ≡ u` (or `t ≤ u` with `leq`) by evaluating both sides and
/// comparing the values. The crate-facing entry points are
/// [`crate::conv::conv`] / [`crate::conv::conv_leq`], which add the
/// syntactic fast path, statistics and tracing.
pub(crate) fn conv_terms(env: &Env, t: &Term, u: &Term, leq: bool) -> bool {
    let venv = VEnv::nil();
    let a = eval(env, &venv, t);
    let b = eval(env, &venv, u);
    conv_val(env, 0, &a, &b, leq)
}

/// Value comparison at fresh-variable depth `lvl`. The `leq` flag makes
/// sorts compare by `≤` and propagates only through Pi codomains.
fn conv_val(env: &Env, lvl: usize, a: &VRc, b: &VRc, leq: bool) -> bool {
    if TermRc::ptr_eq(a, b) {
        return true;
    }
    let ok = match (&**a, &**b) {
        (Value::Sort(s1), Value::Sort(s2)) => {
            if leq {
                s1.leq(*s2)
            } else {
                s1 == s2
            }
        }
        (Value::Pi(_, t1, c1), Value::Pi(_, t2, c2)) => {
            conv_val(env, lvl, t1, t2, false) && {
                let fresh = neutral(NHead::Local(lvl));
                let b1 = c1.apply(env, fresh.clone());
                let b2 = c2.apply(env, fresh);
                conv_val(env, lvl + 1, &b1, &b2, leq)
            }
        }
        (Value::Lambda(_, t1, c1), Value::Lambda(_, t2, c2)) => {
            // Domains are compared to match the syntactic checker (which
            // required convertible binder types on lambdas, not just Pis).
            conv_val(env, lvl, t1, t2, false) && {
                let fresh = neutral(NHead::Local(lvl));
                let b1 = c1.apply(env, fresh.clone());
                let b2 = c2.apply(env, fresh);
                conv_val(env, lvl + 1, &b1, &b2, false)
            }
        }
        // η: fun x => body  ≡  u  when  body ≡ u x.
        (Value::Lambda(_, _, c1), _) => {
            let fresh = neutral(NHead::Local(lvl));
            let b1 = c1.apply(env, fresh.clone());
            let b2 = vapp(env, b.clone(), fresh);
            conv_val(env, lvl + 1, &b1, &b2, false)
        }
        (_, Value::Lambda(_, _, c2)) => {
            let fresh = neutral(NHead::Local(lvl));
            let b1 = vapp(env, a.clone(), fresh.clone());
            let b2 = c2.apply(env, fresh);
            conv_val(env, lvl + 1, &b1, &b2, false)
        }
        (Value::Construct(n1, j1, a1), Value::Construct(n2, j2, a2)) => {
            n1 == n2 && j1 == j2 && conv_spines(env, lvl, a1, a2)
        }
        (Value::IndApp(n1, a1), Value::IndApp(n2, a2)) => n1 == n2 && conv_spines(env, lvl, a1, a2),
        (Value::Neutral(h1, s1), Value::Neutral(h2, s2)) => {
            conv_head(env, lvl, h1, h2) && conv_spines(env, lvl, s1, s2)
        }
        _ => false,
    };
    // Surjective pairing (definitional η for single-constructor,
    // non-recursive inductives — Coq's "primitive records"):
    // `C (proj₀ z) … (projₙ z) ≡ z`.
    ok || record_eta(env, lvl, a, b) || record_eta(env, lvl, b, a)
}

fn conv_spines(env: &Env, lvl: usize, a: &[VRc], b: &[VRc]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| conv_val(env, lvl, x, y, false))
}

fn conv_head(env: &Env, lvl: usize, a: &NHead, b: &NHead) -> bool {
    match (a, b) {
        (NHead::Local(i), NHead::Local(j)) => i == j,
        (NHead::Free(i), NHead::Free(j)) => i == j,
        // Both δ-blocked: equal only by name (the syntactic checker's rule
        // for opaque/bodyless constants).
        (NHead::Const(n1), NHead::Const(n2)) => n1 == n2,
        (NHead::Elim(e1), NHead::Elim(e2)) => {
            e1.ind == e2.ind
                && conv_spines(env, lvl, &e1.params, &e2.params)
                && conv_val(env, lvl, &e1.motive, &e2.motive, false)
                && conv_spines(env, lvl, &e1.cases, &e2.cases)
                && conv_val(env, lvl, &e1.scrutinee, &e2.scrutinee, false)
        }
        (NHead::Stuck(v1), NHead::Stuck(v2)) => conv_val(env, lvl, v1, v2, false),
        _ => false,
    }
}

/// Does `t = Construct(I, 0) params (proj₀ z) … (projₙ z)` for a record-like
/// inductive `I`, with `z ≡ u`? The value-level port of the syntactic
/// record-η check: each field must be a stuck eliminator of `I` whose single
/// case projects field `i` (checked by applying the case value to fresh
/// levels), with agreeing parameters and a common scrutinee.
fn record_eta(env: &Env, lvl: usize, t: &VRc, u: &VRc) -> bool {
    let Value::Construct(ind, 0, args) = &**t else {
        return false;
    };
    let Ok(decl) = env.inductive(ind) else {
        env.note_stuck_ind(ind);
        return false;
    };
    if decl.ctors.len() != 1 || decl.nindices() != 0 {
        return false;
    }
    let p = decl.nparams();
    let nfields = decl.ctors[0].args.len();
    if nfields == 0 || args.len() != p + nfields {
        return false;
    }
    // No recursive fields (otherwise η is unsound for this check).
    if decl.recursive_flags(0).iter().any(|&r| r) {
        return false;
    }
    let mut scrutinee: Option<&VRc> = None;
    for i in 0..nfields {
        let Value::Neutral(NHead::Elim(e), spine) = &*args[p + i] else {
            return false;
        };
        if !spine.is_empty() || &e.ind != ind || e.cases.len() != 1 {
            return false;
        }
        // The case must select field i: applied to fresh levels
        // lvl..lvl+nfields it must come back as the i-th one.
        let fresh: Vec<VRc> = (0..nfields)
            .map(|k| neutral(NHead::Local(lvl + k)))
            .collect();
        let selected = vapp_many(env, e.cases[0].clone(), fresh);
        match &*selected {
            Value::Neutral(NHead::Local(l), sp) if *l == lvl + i && sp.is_empty() => {}
            _ => return false,
        }
        // Parameters must agree with the constructor's.
        if e.params.len() != p
            || !e
                .params
                .iter()
                .zip(args.iter())
                .all(|(x, y)| conv_val(env, lvl, x, y, false))
        {
            return false;
        }
        match scrutinee {
            None => scrutinee = Some(&e.scrutinee),
            Some(s) => {
                if !conv_val(env, lvl, s, &e.scrutinee, false) {
                    return false;
                }
            }
        }
    }
    match scrutinee {
        Some(s) => conv_val(env, lvl, s, u, false),
        None => false,
    }
}

/// Reads a value back into a term at fresh-variable depth `lvl` (readback /
/// quotation). Fresh levels become de Bruijn indices; ambient free
/// variables keep their indices, shifted under the quoted binders.
fn quote(env: &Env, lvl: usize, v: &VRc) -> Term {
    match &**v {
        Value::Sort(s) => Term::sort(*s),
        Value::Lambda(name, ty, clo) => {
            let fresh = neutral(NHead::Local(lvl));
            let body = clo.apply(env, fresh);
            Term::new(TermData::Lambda(
                Binder {
                    name: name.clone(),
                    ty: quote(env, lvl, ty),
                },
                quote(env, lvl + 1, &body),
            ))
        }
        Value::Pi(name, ty, clo) => {
            let fresh = neutral(NHead::Local(lvl));
            let body = clo.apply(env, fresh);
            Term::new(TermData::Pi(
                Binder {
                    name: name.clone(),
                    ty: quote(env, lvl, ty),
                },
                quote(env, lvl + 1, &body),
            ))
        }
        Value::Construct(n, j, args) => Term::app(
            Term::construct(n.clone(), *j),
            args.iter().map(|a| quote(env, lvl, a)),
        ),
        Value::IndApp(n, args) => Term::app(
            Term::ind(n.clone()),
            args.iter().map(|a| quote(env, lvl, a)),
        ),
        Value::Neutral(head, spine) => {
            let h = match head {
                NHead::Local(l) => Term::rel(lvl - 1 - l),
                NHead::Free(i) => Term::rel(i + lvl),
                NHead::Const(n) => Term::const_(n.clone()),
                NHead::Elim(e) => Term::elim(ElimData {
                    ind: e.ind.clone(),
                    params: e.params.iter().map(|p| quote(env, lvl, p)).collect(),
                    motive: quote(env, lvl, &e.motive),
                    cases: e.cases.iter().map(|c| quote(env, lvl, c)).collect(),
                    scrutinee: quote(env, lvl, &e.scrutinee),
                }),
                NHead::Stuck(v) => quote(env, lvl, v),
            };
            Term::app(h, spine.iter().map(|a| quote(env, lvl, a)))
        }
    }
}

/// Full βδιζ normal form via evaluate-then-read-back. Agrees with
/// [`crate::reduce::normalize`] (the rewriting normalizer) on well-typed
/// terms — `tests/kernel_properties.rs` pins that agreement — but does its
/// work in one pass over the value domain.
pub fn nbe_normalize(env: &Env, t: &Term) -> Term {
    let v = eval(env, &VEnv::nil(), t);
    quote(env, 0, &v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv, conv_leq};
    use crate::inductive::{CtorDecl, InductiveDecl};
    use crate::reduce::normalize;

    fn env_with_nat() -> Env {
        let mut env = Env::new();
        env.declare_inductive(InductiveDecl {
            name: "nat".into(),
            params: vec![],
            indices: vec![],
            sort: Sort::Set,
            ctors: vec![
                CtorDecl {
                    name: "O".into(),
                    args: vec![],
                    result_indices: vec![],
                },
                CtorDecl {
                    name: "S".into(),
                    args: vec![Binder::new("n", Term::ind("nat"))],
                    result_indices: vec![],
                },
            ],
        })
        .unwrap();
        env
    }

    fn nat_lit(n: u64) -> Term {
        let mut t = Term::construct("nat", 0);
        for _ in 0..n {
            t = Term::app(Term::construct("nat", 1), [t]);
        }
        t
    }

    fn add() -> Term {
        Term::lambda(
            "n",
            Term::ind("nat"),
            Term::lambda(
                "m",
                Term::ind("nat"),
                Term::elim(ElimData {
                    ind: "nat".into(),
                    params: vec![],
                    motive: Term::lambda("_", Term::ind("nat"), Term::ind("nat")),
                    cases: vec![
                        Term::rel(0),
                        Term::lambda(
                            "n",
                            Term::ind("nat"),
                            Term::lambda(
                                "ih",
                                Term::ind("nat"),
                                Term::app(Term::construct("nat", 1), [Term::rel(0)]),
                            ),
                        ),
                    ],
                    scrutinee: Term::rel(1),
                }),
            ),
        )
    }

    #[test]
    fn nbe_computes_addition() {
        let mut env = env_with_nat();
        env.define(
            "add",
            Term::arrow(
                Term::ind("nat"),
                Term::arrow(Term::ind("nat"), Term::ind("nat")),
            ),
            add(),
        )
        .unwrap();
        let call = Term::app(Term::const_("add"), [nat_lit(2), nat_lit(3)]);
        assert_eq!(nbe_normalize(&env, &call), nat_lit(5));
        assert!(conv(&env, &call, &nat_lit(5)));
        assert!(!conv(&env, &call, &nat_lit(4)));
    }

    #[test]
    fn nbe_normalize_agrees_with_rewriting_normalize() {
        let mut env = env_with_nat();
        env.define(
            "add",
            Term::arrow(
                Term::ind("nat"),
                Term::arrow(Term::ind("nat"), Term::ind("nat")),
            ),
            add(),
        )
        .unwrap();
        let samples = [
            Term::app(Term::const_("add"), [nat_lit(2), nat_lit(3)]),
            Term::lambda(
                "k",
                Term::ind("nat"),
                Term::app(Term::const_("add"), [Term::rel(0), nat_lit(1)]),
            ),
            Term::pi("A", Term::type_(0), Term::arrow(Term::rel(0), Term::rel(0))),
            Term::let_("x", Term::ind("nat"), nat_lit(2), Term::rel(0)),
        ];
        for t in &samples {
            assert_eq!(nbe_normalize(&env, t), normalize(&env, t), "term: {t}");
        }
    }

    #[test]
    fn open_terms_compare_by_free_variable() {
        let env = env_with_nat();
        // #3 ≡ #3 but #3 ≢ #4, even though both are open.
        assert!(conv(&env, &Term::rel(3), &Term::rel(3)));
        assert!(!conv(&env, &Term::rel(3), &Term::rel(4)));
        // An open application of a stuck head.
        let t = Term::app(Term::construct("nat", 1), [Term::rel(0)]);
        let u = Term::app(Term::construct("nat", 1), [Term::rel(1)]);
        assert!(!conv(&env, &t, &u));
    }

    #[test]
    fn eta_against_stuck_neutral() {
        let mut env = env_with_nat();
        env.assume("f", Term::arrow(Term::ind("nat"), Term::ind("nat")))
            .unwrap();
        let etad = Term::lambda(
            "x",
            Term::ind("nat"),
            Term::app(Term::const_("f"), [Term::rel(0)]),
        );
        assert!(conv(&env, &etad, &Term::const_("f")));
        assert!(conv_leq(&env, &etad, &Term::const_("f")));
    }

    #[test]
    fn leq_propagates_through_pi_codomains_only() {
        let env = Env::new();
        // ∀ (A : Set), Prop  ≤  ∀ (A : Set), Type(0)
        let a = Term::pi("A", Term::set(), Term::prop());
        let b = Term::pi("A", Term::set(), Term::type_(0));
        assert!(conv_leq(&env, &a, &b));
        assert!(!conv_leq(&env, &b, &a));
        // Domains stay invariant.
        let c = Term::pi("A", Term::prop(), Term::prop());
        assert!(!conv_leq(&env, &a, &c));
    }
}
