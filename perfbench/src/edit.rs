//! `edit_incremental`: a seeded editor session in process, single thread,
//! modelled on `pumpkin watch`.
//!
//! The edited file is generated: well-typed definitions over `Old.list`
//! (list functions, list measures, and `app_assoc` instances that mention
//! the functions) on top of the standard library's swap module. Every
//! step rebuilds the world the way `watch` does: clone the standard
//! environment, `load_source` the whole file, configure the swap, run an
//! incremental `Repairer::run` against the previous step's `DigestMap`
//! with a persist cache directory, and capture the next snapshot.
//!
//! Step kinds, per session of [`SESSION_STEPS`] steps:
//! * re-body one existing function or measure (most steps);
//! * add a never-seen definition (writes persist entries, grows the
//!   interner — the stream a bounded-memory change must keep flat);
//! * a name collision: the file gains `New.<x> : nat`, and the answer is
//!   `Repairer::auto` exhaustion with a minimized reproducer that pins
//!   `Old.<x>` (names it, or a constant that depends on it). The next
//!   step reverts it. Some collisions repeat a name that collided before
//!   and some are fresh. The search runs with the failure cache off: a
//!   cached exhaustion carries no reproducer (see README.md, Known limits).
//!
//! Sessions restart from the initial file (an "open" step: a full
//! incremental run against an empty snapshot, which replays from the
//! persist cache) so the file size, and with it the per-step cost, is
//! the same in every part of a run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pumpkin_core::{AutoPolicy, DigestMap, NameMap, RepairError, Repairer};
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;

use crate::check::{self, Criteria};
use crate::gen::{InputDigest, Rng};
use crate::span::Tracer;
use crate::{Cfg, Outcome};

/// Steps per editor session (the open step included).
const SESSION_STEPS: usize = 100;
/// Collisions per session, one in each quarter.
const COLLISIONS: usize = 4;
/// Steps per session that add a definition.
const ADDS: usize = 14;
/// Applications per generated expression.
const EXPR_OPS: usize = 3;
/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Candidate configurations the auto search may try per collision.
const AUTO_BUDGET: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `forall T, Old.list T -> Old.list T`
    Fun,
    /// `forall T, Old.list T -> nat`
    Measure,
    /// `app_assoc` at three expressions over the earlier functions.
    Lemma,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Def {
    name: String,
    kind: Kind,
    /// One expression (Fun, Measure) or three (Lemma), over `T` and `l`.
    exprs: Vec<String>,
}

impl Def {
    fn ty(&self, prefix: &str) -> String {
        let e = &self.exprs;
        let ty = match self.kind {
            Kind::Fun => "forall (T : Type 1), Old.list T -> Old.list T".to_string(),
            Kind::Measure => "forall (T : Type 1), Old.list T -> nat".to_string(),
            Kind::Lemma => format!(
                "forall (T : Type 1) (l : Old.list T), eq (Old.list T) \
                 (Old.app T {} (Old.app T {} {})) (Old.app T (Old.app T {} {}) {})",
                e[0], e[1], e[2], e[0], e[1], e[2]
            ),
        };
        ty.replace("Old.", prefix)
    }

    fn source(&self) -> String {
        let e = &self.exprs;
        let body = match self.kind {
            Kind::Fun => e[0].clone(),
            Kind::Measure => format!("Old.length T {}", e[0]),
            Kind::Lemma => format!("Old.app_assoc T {} {} {}", e[0], e[1], e[2]),
        };
        format!(
            "Definition {} : {} :=\n  fun (T : Type 1) (l : Old.list T) => {body}.\n",
            self.name,
            self.ty("Old.")
        )
    }

    fn new_name(&self) -> String {
        self.name.replacen("Old.", "New.", 1)
    }
}

/// A random list expression over `l`, calling only `funs`: exactly
/// [`EXPR_OPS`] applications, so every expression is about the same size
/// and a seed changes the shape of the work, not its amount.
fn expr(rng: &mut Rng, funs: &[String]) -> String {
    let mut e = "l".to_string();
    for _ in 0..EXPR_OPS {
        e = match rng.below(if funs.is_empty() { 3 } else { 4 }) {
            0 => format!("(Old.rev T {e})"),
            1 => format!("(Old.app T {e} l)"),
            2 => format!("(Old.app T l {e})"),
            _ => format!("({} T {e})", funs[rng.below(funs.len())]),
        };
    }
    e
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// Start a session from the initial file.
    Open,
    /// Replace function or measure `idx`'s expression.
    Rebody { idx: usize, expr: String },
    /// Append a never-seen definition.
    Add(Box<Def>),
    /// Add `New.<x> : nat` for generated definition `idx`.
    Collide { idx: usize, repeat: bool },
    /// Remove the collision again.
    Revert,
}

/// The editor's file: generated definitions, plus at most one collision.
#[derive(Clone, Debug)]
struct File {
    defs: Vec<Def>,
    clash: Option<usize>,
}

impl File {
    fn text(&self) -> String {
        let mut s: String = self.defs.iter().map(Def::source).collect();
        if let Some(i) = self.clash {
            s.push_str(&format!(
                "Definition {} : nat := O.\n",
                self.defs[i].new_name()
            ));
        }
        s
    }

    /// Work list: the swap module, then the file's definitions in order.
    fn work_list(&self) -> Vec<String> {
        pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS
            .iter()
            .map(|s| s.to_string())
            .chain(self.defs.iter().map(|d| d.name.clone()))
            .collect()
    }

    fn funs_before(&self, idx: usize) -> Vec<String> {
        self.defs[..idx]
            .iter()
            .filter(|d| d.kind == Kind::Fun)
            .map(|d| d.name.clone())
            .collect()
    }

    fn apply(&mut self, step: &Step, initial: &File) {
        match step {
            Step::Open => *self = initial.clone(),
            Step::Rebody { idx, expr } => self.defs[*idx].exprs[0] = expr.clone(),
            Step::Add(d) => self.defs.push((**d).clone()),
            Step::Collide { idx, .. } => self.clash = Some(*idx),
            Step::Revert => self.clash = None,
        }
    }
}

fn gen_def(rng: &mut Rng, name: String, kind: Kind, funs: &[String]) -> Def {
    let n = if kind == Kind::Lemma { 3 } else { 1 };
    Def {
        name,
        kind,
        exprs: (0..n).map(|_| expr(rng, funs)).collect(),
    }
}

fn initial_file(seed: u64) -> File {
    let mut rng = Rng::stream(seed, 10);
    let mut file = File {
        defs: Vec::new(),
        clash: None,
    };
    let kinds = [
        Kind::Fun,
        Kind::Fun,
        Kind::Measure,
        Kind::Lemma,
        Kind::Fun,
        Kind::Measure,
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let funs = file.funs_before(i);
        file.defs
            .push(gen_def(&mut rng, format!("Old.g{i}"), kind, &funs));
    }
    file
}

/// The edit stream: a pure function of the seed, generated one session
/// at a time (the generator follows the file it edits).
struct Stream {
    initial: File,
    rng: Rng,
    file: File,
    /// Names that have collided before (repeat candidates).
    collided: BTreeSet<String>,
    /// Counter for never-seen definition names.
    fresh: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let initial = initial_file(seed);
        Stream {
            file: initial.clone(),
            initial,
            rng: Rng::stream(seed, 11),
            collided: BTreeSet::new(),
            fresh: 0,
        }
    }

    /// The next session's steps: `Open`, then edits, with one collision
    /// (and its revert on the next step) at a seeded place in each quarter
    /// and [`ADDS`] adds at seeded places. Every session has the same
    /// number of each kind of step.
    fn session(&mut self) -> Vec<Step> {
        let quarter = SESSION_STEPS / COLLISIONS;
        let mut collide_at = BTreeSet::new();
        for q in 0..COLLISIONS {
            collide_at.insert(q * quarter + 2 + self.rng.below(quarter - 4));
        }
        let mut free: Vec<usize> = (1..SESSION_STEPS)
            .filter(|i| !collide_at.contains(i) && !collide_at.contains(&(i - 1)))
            .collect();
        self.rng.shuffle(&mut free);
        let add_at: BTreeSet<usize> = free[..ADDS].iter().copied().collect();
        let mut steps = Vec::with_capacity(SESSION_STEPS);
        for i in 0..SESSION_STEPS {
            let step = if i == 0 {
                Step::Open
            } else if collide_at.contains(&i) {
                self.collide()
            } else if collide_at.contains(&(i - 1)) {
                Step::Revert
            } else if add_at.contains(&i) {
                self.add()
            } else {
                self.rebody()
            };
            self.file.apply(&step, &self.initial);
            steps.push(step);
        }
        steps
    }

    fn collide(&mut self) -> Step {
        let repeats: Vec<usize> = (0..self.file.defs.len())
            .filter(|&i| self.collided.contains(&self.file.defs[i].name))
            .collect();
        let fresh: Vec<usize> = (0..self.file.defs.len())
            .filter(|&i| !self.collided.contains(&self.file.defs[i].name))
            .collect();
        if fresh.is_empty() || (!repeats.is_empty() && self.rng.chance(1, 2)) {
            let idx = repeats[self.rng.below(repeats.len())];
            return Step::Collide { idx, repeat: true };
        }
        let idx = fresh[self.rng.below(fresh.len())];
        self.collided.insert(self.file.defs[idx].name.clone());
        Step::Collide { idx, repeat: false }
    }

    fn add(&mut self) -> Step {
        let name = format!("Old.e{}", self.fresh);
        let kind = [Kind::Fun, Kind::Measure, Kind::Lemma][self.fresh as usize % 3];
        self.fresh += 1;
        let funs = self.file.funs_before(self.file.defs.len());
        Step::Add(Box::new(gen_def(&mut self.rng, name, kind, &funs)))
    }

    fn rebody(&mut self) -> Step {
        let targets: Vec<usize> = (0..self.file.defs.len())
            .filter(|&i| self.file.defs[i].kind != Kind::Lemma)
            .collect();
        let idx = targets[self.rng.below(targets.len())];
        let funs = self.file.funs_before(idx);
        let old = &self.file.defs[idx].exprs[0];
        let mut e = expr(&mut self.rng, &funs);
        if &e == old {
            e = format!("(Old.rev T {e})");
        }
        Step::Rebody { idx, expr: e }
    }
}

fn digest_step(d: &mut InputDigest, step: &Step) {
    match step {
        Step::Open => d.add_str("open"),
        Step::Rebody { idx, expr } => d.add_str(&format!("rebody {idx} {expr}")),
        Step::Add(def) => d.add_str(&def.source()),
        Step::Collide { idx, repeat } => d.add_str(&format!("collide {idx} {repeat}")),
        Step::Revert => d.add_str("revert"),
    }
}

/// The digest of the stream's first `sessions` sessions.
pub fn stream_digest(seed: u64, sessions: usize) -> InputDigest {
    let mut d = InputDigest::default();
    d.add_str(&initial_file(seed).text());
    let mut stream = Stream::new(seed);
    for _ in 0..sessions {
        stream.session().iter().for_each(|s| digest_step(&mut d, s));
    }
    d
}

/// Per-run state carried between steps, as `watch` carries it.
struct Session<'a> {
    base: &'a Env,
    cache: &'a Path,
    prev: DigestMap,
    file: File,
}

fn swap_names() -> NameMap {
    NameMap::prefix("Old.", "New.")
}

/// An ordinary step: reload, configure, repair incrementally, check the
/// answer, capture the next snapshot. `checked` are the definitions whose
/// repaired forms get the full kernel check this step.
fn edit_op(
    s: &mut Session<'_>,
    checked: &[usize],
    fresh_snapshot: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
    plant: bool,
) -> Result<u64, String> {
    let text = s.file.text();
    let mut env = tr.span("kernel.env_clone", || s.base.clone());
    tr.span("lang.load_source", || {
        pumpkin_lang::load_source(&mut env, &text)
    })
    .map_err(|e| format!("load_source: {e}"))?;
    let lifting = tr
        .span("core.configure", || {
            pumpkin_core::search::swap::configure(
                &mut env,
                &"Old.list".into(),
                &"New.list".into(),
                swap_names(),
            )
        })
        .map_err(|e| format!("configure: {e}"))?;
    let names = s.file.work_list();
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    if fresh_snapshot {
        s.prev = DigestMap::new();
    }
    let prev = &s.prev;
    let report = tr
        .span("core.repair", || {
            Repairer::new(&lifting)
                .persist_cache(s.cache)
                .incremental(prev)
                .run(&mut env, &borrowed)
        })
        .map_err(|e| format!("incremental repair: {e}"))?;
    out.add_report(&report);
    let mut pairs = check::report_pairs(&report);
    if plant {
        let (old, _) = pairs[0].clone();
        pairs[0] = (old.clone(), old);
    }
    let want: Vec<(String, String)> = names
        .iter()
        .map(|n| (n.clone(), n.replacen("Old.", "New.", 1)))
        .collect();
    tr.span("bench.verify", || check::pairs_match(&pairs, &want))?;
    let crit = Criteria {
        lifting: &lifting,
        old_prefix: Some("Old."),
        decompile: false,
    };
    for &i in checked {
        let def = &s.file.defs[i];
        let lifted = tr
            .span("bench.verify", || pumpkin_lang::term(&env, &def.ty("New.")))
            .map_err(|e| format!("{}: cannot state the lifted type: {e}", def.name))?;
        check::check_constant(
            &env,
            &def.new_name().as_str().into(),
            &lifted,
            crit,
            tr,
            out,
        )?;
    }
    s.prev = tr.span("incr.capture", || DigestMap::capture(&env, &borrowed));
    tr.span("kernel.env_drop", || drop(env));
    Ok(pairs.len() as u64)
}

/// A collision step: the answer is auto-search exhaustion plus a
/// minimized reproducer that pins the colliding constant.
fn collide_op(
    s: &Session<'_>,
    idx: usize,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
    plant: bool,
) -> Result<u64, String> {
    let text = s.file.text();
    let mut env = tr.span("kernel.env_clone", || s.base.clone());
    tr.span("lang.load_source", || {
        pumpkin_lang::load_source(&mut env, &text)
    })
    .map_err(|e| format!("load_source: {e}"))?;
    let names = s.file.work_list();
    let borrowed: Vec<&str> = names.iter().map(String::as_str).collect();
    let policy = AutoPolicy {
        budget: Some(AUTO_BUDGET),
        // A cached exhaustion carries no reproducer, and the cache key
        // does not cover the colliding `New.<x>`, so a hit would fail the
        // check below for the program's sake, not the edit's.
        use_failure_cache: false,
        minimize: true,
        seed,
        deterministic: false,
    };
    let start = Instant::now();
    let (auto, result) = tr.span("core.auto", || {
        Repairer::auto(policy)
            .types("Old.list", "New.list", swap_names())
            .run(&mut env, &borrowed)
    });
    out.add("auto.driver_ns", start.elapsed().as_nanos() as f64);
    out.add("auto.collisions", 1.0);
    out.add("auto.tried", auto.tried as f64);
    out.add("auto.skipped_cache", auto.skipped_cache as f64);
    let search: u64 = auto.candidates.iter().map(|c| c.cost_ns).sum();
    out.add("auto.search_ns", search as f64);
    let colliding = if plant {
        "Old.planted_wrong_answer".to_string()
    } else {
        s.file.defs[idx].name.clone()
    };
    tr.span("bench.verify", || {
        if !matches!(result, Err(RepairError::AutoExhausted { .. })) {
            return Err(format!(
                "collision on {colliding}: expected auto exhaustion"
            ));
        }
        let repro = auto
            .reproducer
            .as_ref()
            .ok_or_else(|| format!("collision on {colliding}: no reproducer"))?;
        if !repro.names.iter().any(|n| reaches(&env, n, &colliding)) {
            return Err(format!(
                "collision on {colliding}: reproducer {:?} does not reach it",
                repro.names
            ));
        }
        Ok(repro.steps)
    })
    .map(|steps| {
        out.add("minimize.steps", steps as f64);
    })?;
    tr.span("kernel.env_drop", || drop(env));
    Ok(0)
}

/// Does `from` name `target`, or depend on it through bodies and types?
/// A minimized reproducer may keep a dependent of the colliding constant
/// instead of the constant itself: repairing the dependent repairs it.
fn reaches(env: &Env, from: &str, target: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![GlobalName::new(from)];
    while let Some(n) = stack.pop() {
        if n.as_str() == target {
            return true;
        }
        if !seen.insert(n.clone()) {
            continue;
        }
        if let Ok(decl) = env.const_decl(&n) {
            stack.extend(decl.ty.constants());
            if let Some(b) = &decl.body {
                stack.extend(b.constants());
            }
        }
    }
    false
}

fn cache_entries(dir: &Path) -> (u64, u64) {
    let mut entries = 0;
    let mut bytes = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in rd.flatten() {
            let p = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(p),
                Ok(m) if p.extension().is_some_and(|x| x == "bin") => {
                    entries += 1;
                    bytes += m.len();
                }
                _ => {}
            }
        }
    }
    (entries, bytes)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(Instant::now());
    let cache: PathBuf = cfg.work.join("edit-persist");
    let initial = initial_file(cfg.seed);
    let all: Vec<usize> = (0..initial.defs.len()).collect();

    // Set-up: standard library, then the initial file's full repair into
    // an empty persist cache. Repeated; `setup_s` is the median.
    let mut setups = Vec::new();
    let mut base = None;
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&cache);
        let start = Instant::now();
        let b = pumpkin_stdlib::std_env();
        let mut s = Session {
            base: &b,
            cache: &cache,
            prev: DigestMap::new(),
            file: initial.clone(),
        };
        let mut scratch = Outcome::default();
        if let Err(e) = edit_op(&mut s, &all, true, &mut tr, &mut scratch, false) {
            out.setup_failed(e);
        }
        setups.push(start.elapsed().as_secs_f64());
        base = Some(b);
    }
    out.setup_s = crate::stats::median(&setups);
    let base = base.expect("at least one set-up");
    out.digest = stream_digest(cfg.seed, 8);
    let (entries_before, _) = cache_entries(&cache);

    let mut stream = Stream::new(cfg.seed);
    let mut s = Session {
        base: &base,
        cache: &cache,
        prev: DigestMap::new(),
        file: initial.clone(),
    };
    let mut verdict_ms = Vec::new();
    let deadline = Instant::now() + cfg.run_time();
    let timed = Instant::now();
    let mut i = 0u64;
    'run: loop {
        for step in stream.session() {
            if Instant::now() >= deadline {
                break 'run;
            }
            let clash_before = s.file.clash;
            s.file.apply(&step, &initial);
            let traced = cfg.traced_op(i);
            let plant = cfg.plant(i);
            tr.set_on(traced);
            let start = Instant::now();
            tr.begin_op(i);
            let result = match &step {
                Step::Open => edit_op(&mut s, &all, true, &mut tr, &mut out, plant),
                Step::Rebody { idx, .. } => {
                    edit_op(&mut s, &[*idx], false, &mut tr, &mut out, plant)
                }
                Step::Add(_) => {
                    let last = s.file.defs.len() - 1;
                    edit_op(&mut s, &[last], false, &mut tr, &mut out, plant)
                }
                Step::Revert => {
                    let idx = clash_before.expect("a revert follows a collision");
                    edit_op(&mut s, &[idx], false, &mut tr, &mut out, plant)
                }
                Step::Collide { idx, repeat } => {
                    out.add("auto.repeats", if *repeat { 1.0 } else { 0.0 });
                    collide_op(&s, *idx, cfg.seed ^ i, &mut tr, &mut out, plant)
                }
            };
            tr.end_op();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if matches!(step, Step::Collide { .. }) && !traced {
                verdict_ms.push(ms);
            }
            out.record(ms, traced, result);
            i += 1;
        }
    }
    out.active_s = timed.elapsed().as_secs_f64();
    out.spans.push(tr.into_spans());

    let (entries_after, bytes) = cache_entries(&cache);
    let collisions = out.sum("auto.collisions").max(1.0);
    let per_collision = |k: &str| out.sum(k) / collisions;
    let layer = [
        (
            "persist.stores",
            entries_after.saturating_sub(entries_before) as f64 / out.attempted.max(1) as f64,
        ),
        ("persist.bytes_on_disk", bytes as f64),
        ("auto.tried", per_collision("auto.tried")),
        ("auto.skipped_cache", per_collision("auto.skipped_cache")),
        ("auto.ms", per_collision("auto.search_ns") / 1e6),
        (
            "minimize.ms",
            (per_collision("auto.driver_ns") - per_collision("auto.search_ns")) / 1e6,
        ),
        ("minimize.steps", per_collision("minimize.steps")),
        ("auto_verdict_p50_ms", crate::stats::median(&verdict_ms)),
        ("auto.repeat_share", per_collision("auto.repeats")),
    ];
    out.layer.extend(layer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_collide_revert_and_grow() {
        let mut st = Stream::new(3);
        let steps = st.session();
        assert_eq!(steps.len(), SESSION_STEPS);
        assert_eq!(steps[0], Step::Open);
        let collisions: Vec<usize> = (0..steps.len())
            .filter(|&i| matches!(steps[i], Step::Collide { .. }))
            .collect();
        assert_eq!(collisions.len(), COLLISIONS);
        for &i in &collisions {
            assert_eq!(steps[i + 1], Step::Revert);
            assert!(!matches!(steps[i + 2], Step::Collide { .. }));
        }
        let adds = steps.iter().filter(|s| matches!(s, Step::Add(_))).count();
        assert_eq!(adds, ADDS);
    }

    #[test]
    fn generated_files_load_and_type_check() {
        let mut env = pumpkin_stdlib::std_env();
        let mut st = Stream::new(5);
        let steps = st.session();
        let initial = initial_file(5);
        let mut file = initial.clone();
        for s in &steps {
            file.apply(s, &initial);
        }
        pumpkin_lang::load_source(&mut env, &file.text()).expect("well typed");
    }
}
