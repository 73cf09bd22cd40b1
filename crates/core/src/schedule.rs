//! Parallel wavefront scheduling for `Repair module` (paper §2).
//!
//! The paper repairs an entire module "all at once"; most of its constants
//! only depend on a small prefix of the others, so the repairs are largely
//! independent — the same per-definition modularity that quotient-type
//! repair (Viola et al. 2023) and Coq transformation pipelines (Blot et
//! al. 2021) exploit. This module turns that independence into wall-clock
//! speedup:
//!
//! 1. [`ModuleDag::build`] computes the constant-level dependency DAG of
//!    the work list (free global constants of each type/body, followed
//!    transitively *through* constants outside the list, restricted *to*
//!    the list).
//! 2. [`repair_module_wavefront`] runs the DAG in waves on
//!    [`std::thread::scope`] (no external crates): each wave's ready
//!    constants are split over up to `jobs` workers, every worker gets a
//!    cloned [`Env`] snapshot and a forked [`LiftState`]
//!    ([`LiftState::fork_worker`]) — caches stay thread-confined — and a
//!    merge barrier folds the repaired definitions, constant mappings,
//!    and counters back into the master before the next wave.
//!    A wave with a single worker (always at `jobs = 1`, and for width-1
//!    waves at any job count) runs in place on the master instead — one
//!    worker's merge is the identity — so the scheduler's overhead over
//!    the sequential driver is just the DAG build; an error there is
//!    rolled back with [`Env::rollback_to`], preserving the failing-wave
//!    drop semantics below.
//!
//! Determinism: lifting a constant is a pure function of the configuration
//! and the (immutable) declarations it reaches, so the repaired terms are
//! identical to the sequential driver's no matter how waves are cut; the
//! merge installs each worker's delta in the worker's own insertion order
//! and the final report is sorted back into work-list order. A sibling
//! worker can at worst duplicate an on-demand repair of an out-of-list
//! dependency, in which case both copies are identical and the first merge
//! wins.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pumpkin_kernel::env::{ConstDecl, Env, GlobalRef};
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::stats::KernelStats;
use pumpkin_trace::{Event, EventKind};

use crate::config::Lifting;
use crate::error::{RepairError, Result};
use crate::lift::{repair_constant, LiftState};
use crate::repair::RepairReport;

// The scheduler's whole safety story in three bounds: workers receive
// moved-in state (`Send`) and share only the read-only configuration
// (`Sync`).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Env>();
    assert_send::<LiftState>();
    assert_send::<RepairError>();
    assert_sync::<Lifting>();
};

/// Worker count for parallel repair: the `PUMPKIN_JOBS` environment
/// variable if set to a positive integer, else
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("PUMPKIN_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A cooperative cancellation handle for [`repair_module_wavefront`].
///
/// The scheduler polls the token *between* waves only: completed waves are
/// already merged and type-correct, and a wave in flight always runs to its
/// merge barrier, so cancellation never leaves the environment half-updated.
/// A cancelled run fails with [`RepairError::Cancelled`], reporting how many
/// waves were kept.
///
/// Tokens are cheap to clone (an `Arc`'d flag plus an optional deadline);
/// the service layer hands one clone to the request thread and keeps
/// another to fire on client disconnect or server drain.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `budget` has elapsed (measured
    /// from now). Explicit [`CancelToken::cancel`] still works earlier.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + budget),
        }
    }

    /// Requests cancellation; takes effect at the next wave boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested (or the deadline passed)?
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The constant-level dependency DAG of a module work list.
#[derive(Clone, Debug, Default)]
pub struct ModuleDag {
    /// The work list, in the caller's order.
    pub nodes: Vec<GlobalName>,
    /// `deps[i]` = indices of work-list constants `nodes[i]` depends on
    /// (directly, or transitively through constants outside the list),
    /// sorted ascending.
    pub deps: Vec<Vec<usize>>,
}

impl ModuleDag {
    /// Builds the DAG by following each constant's mentioned globals.
    /// Mentions are chased through constants *not* on the work list (their
    /// on-demand repair transitively needs the listed dependency) and cut
    /// at constants that are (their repair completes in an earlier wave).
    /// Unknown constants contribute no edges — their repair will fail in
    /// its own wave, not during planning.
    pub fn build(env: &Env, nodes: &[GlobalName]) -> ModuleDag {
        let index: HashMap<&GlobalName, usize> =
            nodes.iter().enumerate().map(|(i, n)| (n, i)).collect();
        // For constants outside the list: which listed constants they reach.
        let mut memo: HashMap<GlobalName, Vec<usize>> = HashMap::new();

        fn mentioned(env: &Env, name: &GlobalName) -> Vec<GlobalName> {
            let Ok(decl) = env.const_decl(name) else {
                return Vec::new();
            };
            let mut out = decl.ty.constants();
            if let Some(b) = &decl.body {
                for c in b.constants() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
            out
        }

        fn reach(
            env: &Env,
            index: &HashMap<&GlobalName, usize>,
            memo: &mut HashMap<GlobalName, Vec<usize>>,
            name: &GlobalName,
        ) -> Vec<usize> {
            if let Some(hit) = memo.get(name) {
                return hit.clone();
            }
            // Constants cannot be cyclic (each body checks against the
            // prior environment), so seeding the memo breaks nothing and
            // guards against malformed input.
            memo.insert(name.clone(), Vec::new());
            let mut out = Vec::new();
            for c in mentioned(env, name) {
                if let Some(&i) = index.get(&c) {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                } else {
                    for i in reach(env, index, memo, &c) {
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                }
            }
            out.sort_unstable();
            memo.insert(name.clone(), out.clone());
            out
        }

        let deps = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let mut ds = Vec::new();
                for c in mentioned(env, n) {
                    if let Some(&j) = index.get(&c) {
                        if j != i && !ds.contains(&j) {
                            ds.push(j);
                        }
                    } else {
                        for j in reach(env, &index, &mut memo, &c) {
                            if j != i && !ds.contains(&j) {
                                ds.push(j);
                            }
                        }
                    }
                }
                ds.sort_unstable();
                ds
            })
            .collect();
        ModuleDag {
            nodes: nodes.to_vec(),
            deps,
        }
    }

    /// Longest-path layering: `wave[i] = 1 + max(wave[deps])`, so a wave's
    /// constants depend only on strictly earlier waves. Within a wave,
    /// indices are in work-list order.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut depth = vec![usize::MAX; n];
        fn level(deps: &[Vec<usize>], depth: &mut [usize], i: usize) -> usize {
            if depth[i] != usize::MAX {
                return depth[i];
            }
            // Constants are acyclic (see `build`); mark before recursing so
            // a hypothetical cycle terminates at depth 0 instead of
            // overflowing the stack.
            depth[i] = 0;
            let d = deps[i]
                .iter()
                .map(|&j| level(deps, depth, j) + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            d
        }
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let d = level(&self.deps, &mut depth, i);
            if waves.len() <= d {
                waves.resize(d + 1, Vec::new());
            }
            waves[d].push(i);
        }
        // Work-list order within each wave (insertion order is ascending
        // already, but keep the invariant explicit and robust).
        for w in &mut waves {
            w.sort_unstable();
        }
        waves
    }

    /// Renders the DAG in Graphviz DOT, one `rank=same` group per wave, so
    /// the achievable scheduling width is visible at a glance
    /// (`dot -Tsvg`). Edges point dependency → dependent (the direction
    /// repair information flows).
    pub fn to_dot(&self) -> String {
        let waves = self.waves();
        let mut wave_of = vec![0usize; self.nodes.len()];
        for (w, members) in waves.iter().enumerate() {
            for &i in members {
                wave_of[i] = w;
            }
        }
        let mut s = String::from("digraph repair_dag {\n  rankdir=LR;\n  node [shape=box];\n");
        for (w, members) in waves.iter().enumerate() {
            s.push_str("  { rank=same;");
            for &i in members {
                s.push_str(&format!(" \"{}\"", self.nodes[i]));
            }
            s.push_str(&format!(" }} // wave {w}\n"));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "  \"{n}\" [label=\"{n}\\nwave {}\"];\n",
                wave_of[i]
            ));
        }
        for (i, ds) in self.deps.iter().enumerate() {
            for &d in ds {
                s.push_str(&format!(
                    "  \"{}\" -> \"{}\";\n",
                    self.nodes[d], self.nodes[i]
                ));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Per-run scheduling counters, reported through
/// [`RepairReport::schedule`].
#[derive(Clone, Debug, Default)]
pub struct ScheduleStats {
    /// Worker cap the run was configured with.
    pub jobs: usize,
    /// Number of waves executed.
    pub waves: usize,
    /// Constants in each wave, in order.
    pub wave_widths: Vec<usize>,
    /// Largest wave (the achievable parallelism of the module).
    pub max_width: usize,
    /// Total time spent in the merge barrier (admitting worker deltas and
    /// folding caches), in nanoseconds.
    pub merge_nanos: u64,
    /// Kernel counters accrued by each worker slot, summed across waves —
    /// per-worker whnf/conv call counts come from here.
    pub worker_kernel: Vec<KernelStats>,
    /// The dependency DAG the run was scheduled from.
    pub dag: ModuleDag,
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jobs={}, {} waves, widths {:?} (max {}), merge {:.2} ms; worker whnf calls [",
            self.jobs,
            self.waves,
            self.wave_widths,
            self.max_width,
            self.merge_nanos as f64 / 1e6,
        )?;
        for (w, k) in self.worker_kernel.iter().enumerate() {
            if w > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", k.whnf_calls)?;
        }
        write!(f, "]")
    }
}

/// What one worker sends back through the merge barrier.
struct WorkerOutput {
    /// `(work-list index, old name, new name)` for each assigned constant
    /// repaired before any error.
    repaired: Vec<(usize, GlobalName, GlobalName)>,
    /// New constants the worker's environment gained, in insertion order
    /// (assigned constants plus on-demand out-of-list dependencies).
    delta: Vec<ConstDecl>,
    /// The worker's lift state (caches + counters) for absorption.
    state: LiftState,
    /// Kernel counters this worker accrued.
    kernel: KernelStats,
    /// Trace events this worker recorded (empty when tracing is off);
    /// shipped back as plain data and absorbed by the master at the
    /// barrier — the tracer itself never crosses threads twice.
    events: Vec<Event>,
    /// The first repair error, if any (the wave is then not merged).
    error: Option<RepairError>,
}

fn run_worker(
    mut env: Env,
    lifting: &Lifting,
    mut st: LiftState,
    nodes: &[GlobalName],
    chunk: &[usize],
    mark: usize,
) -> WorkerOutput {
    let before = env.kernel_stats();
    let mut repaired = Vec::new();
    let mut error = None;
    for &i in chunk {
        match repair_constant(&mut env, lifting, &mut st, &nodes[i]) {
            Ok(to) => repaired.push((i, nodes[i].clone(), to)),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let delta = env.order()[mark..]
        .iter()
        .map(|r| match r {
            GlobalRef::Const(n) => env.const_decl(n).expect("delta constant exists").clone(),
            GlobalRef::Ind(n) => {
                // Repair only ever defines/assumes constants; configure
                // (which may declare inductives) happens before scheduling.
                panic!("repair worker declared inductive `{n}` mid-wave")
            }
        })
        .collect();
    WorkerOutput {
        repaired,
        delta,
        state: st,
        kernel: env.kernel_stats().since(&before),
        events: env.take_tracer().into_events(),
        error,
    }
}

/// `Repair module`, parallel: repairs the work list wave by wave, each wave
/// concurrently on up to `jobs` workers (`None` → [`default_jobs`]).
/// Outputs are identical to [`crate::repair_module`]'s; see the module docs
/// for the argument.
///
/// # Errors
///
/// Propagates the first repair error (by work-list order within the failing
/// wave's workers). The failing wave is *not* merged: the master
/// environment contains exactly the completed waves, all type-correct.
/// A tripped `cancel` token fails with [`RepairError::Cancelled`] at the
/// next wave boundary, keeping every completed wave installed.
pub fn repair_module_wavefront(
    env: &mut Env,
    lifting: &Lifting,
    state: &mut LiftState,
    names: &[&str],
    jobs: Option<usize>,
    cancel: Option<&CancelToken>,
) -> Result<RepairReport> {
    let jobs = jobs.unwrap_or_else(default_jobs).max(1);
    let nodes: Vec<GlobalName> = names.iter().map(|n| GlobalName::new(*n)).collect();
    let dag = ModuleDag::build(env, &nodes);
    let waves = dag.waves();
    let kernel_before = env.kernel_stats();
    let mut sched = ScheduleStats {
        jobs,
        worker_kernel: vec![KernelStats::default(); jobs],
        dag,
        ..Default::default()
    };
    let mut repaired: Vec<(usize, GlobalName, GlobalName)> = Vec::new();
    // Kernel work done on worker threads (worker_kernel additionally
    // counts single-worker waves, whose work is already in the master's
    // own counters — keep the two separate to avoid double counting).
    let mut threaded = KernelStats::default();

    for (wi, wave) in waves.iter().enumerate() {
        if cancel.is_some_and(CancelToken::cancelled) {
            return Err(RepairError::Cancelled {
                completed_waves: wi,
            });
        }
        sched.waves += 1;
        sched.wave_widths.push(wave.len());
        sched.max_width = sched.max_width.max(wave.len());
        let workers = jobs.min(wave.len());
        let mark = env.order().len();
        let (wave_u32, width_u32) = (wi as u32, wave.len() as u32);
        env.tracer().emit(EventKind::WaveStart {
            wave: wave_u32,
            width: width_u32,
        });
        let wave_span = env.tracer().begin();

        if workers == 1 {
            // Single-worker wave: one worker's merge is the identity, so
            // repair directly on the master — no snapshot clone, no thread,
            // no merge barrier. This keeps jobs=1 within noise of the
            // sequential driver and skips the machinery for width-1 waves
            // at any job count. On error, [`Env::rollback_to`] drops the
            // wave's partial output so the wholesale-drop semantics of the
            // threaded path are preserved exactly.
            let before = env.kernel_stats();
            let mut wst = state.fork_worker();
            let mut error = None;
            for &i in wave {
                match repair_constant(env, lifting, &mut wst, &nodes[i]) {
                    Ok(to) => repaired.push((i, nodes[i].clone(), to)),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            sched.worker_kernel[0].absorb(&env.kernel_stats().since(&before));
            if let Some(e) = error {
                env.rollback_to(mark);
                env.tracer().end(
                    wave_span,
                    EventKind::Wave {
                        wave: wave_u32,
                        width: width_u32,
                    },
                );
                return Err(e);
            }
            let merge_start = Instant::now();
            let merge_span = env.tracer().begin();
            state.absorb_worker(wst);
            env.tracer()
                .end(merge_span, EventKind::WaveMerge { wave: wave_u32 });
            sched.merge_nanos += merge_start.elapsed().as_nanos() as u64;
            env.tracer().end(
                wave_span,
                EventKind::Wave {
                    wave: wave_u32,
                    width: width_u32,
                },
            );
            continue;
        }

        // Contiguous chunks preserve work-list order end to end.
        let chunk_len = wave.len().div_ceil(workers);
        let chunks: Vec<&[usize]> = wave.chunks(chunk_len).collect();

        let outputs: Vec<WorkerOutput> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(w, chunk)| {
                    let mut wenv = env.clone();
                    // Workers are numbered from 1 within the wave; 0 is the
                    // master. The fork shares the run's epoch so worker
                    // timestamps are comparable with the master's.
                    wenv.set_tracer(env.tracer().fork_worker(w as u32 + 1));
                    let wst = state.fork_worker();
                    let nodes = &nodes;
                    s.spawn(move || run_worker(wenv, lifting, wst, nodes, chunk, mark))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("repair worker panicked"))
                .collect()
        });

        // Ship worker events home first — a failing wave's trace is kept
        // (that trace is exactly what a sink consumer wants to see).
        let mut outputs = outputs;
        for out in &mut outputs {
            env.tracer().absorb(std::mem::take(&mut out.events));
        }

        // Error barrier: a failing wave is dropped wholesale, so the master
        // only ever contains completed, type-correct waves.
        if let Some(e) = outputs.iter().find_map(|o| o.error.clone()) {
            env.tracer().end(
                wave_span,
                EventKind::Wave {
                    wave: wave_u32,
                    width: width_u32,
                },
            );
            return Err(e);
        }

        let merge_start = Instant::now();
        let merge_span = env.tracer().begin();
        for (w, out) in outputs.into_iter().enumerate() {
            sched.worker_kernel[w].absorb(&out.kernel);
            threaded.absorb(&out.kernel);
            for decl in out.delta {
                if let Ok(existing) = env.const_decl(&decl.name) {
                    // A sibling worker already repaired this out-of-list
                    // dependency on demand; lifting is deterministic, so
                    // the copies agree and the first merge wins.
                    debug_assert!(
                        existing.ty == decl.ty && existing.body == decl.body,
                        "nondeterministic duplicate repair of `{}`",
                        decl.name
                    );
                    continue;
                }
                env.admit_checked(decl)?;
            }
            state.absorb_worker(out.state);
            repaired.extend(out.repaired);
        }
        env.tracer()
            .end(merge_span, EventKind::WaveMerge { wave: wave_u32 });
        sched.merge_nanos += merge_start.elapsed().as_nanos() as u64;
        env.tracer().end(
            wave_span,
            EventKind::Wave {
                wave: wave_u32,
                width: width_u32,
            },
        );
    }

    repaired.sort_unstable_by_key(|(i, _, _)| *i);
    let mut report = RepairReport::default();
    for (_, from, to) in repaired {
        report.record(from, to);
    }
    // Master counters already include single-worker waves (run in place),
    // so only thread-side work is added on top.
    let mut kernel = env.kernel_stats().since(&kernel_before);
    kernel.absorb(&threaded);
    report.kernel = kernel;
    report.schedule = sched;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_env() -> (Env, Vec<GlobalName>) {
        use pumpkin_kernel::term::Term;
        let mut env = Env::new();
        env.assume("T", Term::type_(1)).unwrap();
        env.assume("a", Term::const_("T")).unwrap();
        env.define("b", Term::const_("T"), Term::const_("a"))
            .unwrap();
        // `helper` is off-list; `c` depends on `a` only through it.
        env.define("helper", Term::const_("T"), Term::const_("a"))
            .unwrap();
        env.define("c", Term::const_("T"), Term::const_("helper"))
            .unwrap();
        env.assume("d", Term::const_("T")).unwrap();
        let nodes: Vec<GlobalName> = ["a", "b", "c", "d"].map(GlobalName::new).to_vec();
        (env, nodes)
    }

    #[test]
    fn dag_follows_transitive_deps_through_off_list_constants() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        assert_eq!(dag.deps[0], Vec::<usize>::new()); // a
        assert_eq!(dag.deps[1], vec![0]); // b -> a
        assert_eq!(dag.deps[2], vec![0]); // c -> helper -> a
        assert_eq!(dag.deps[3], Vec::<usize>::new()); // d
    }

    #[test]
    fn waves_layer_by_longest_path() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        assert_eq!(dag.waves(), vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    fn dot_lists_every_node_and_edge() {
        let (env, nodes) = chain_env();
        let dag = ModuleDag::build(&env, &nodes);
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph repair_dag {"));
        for n in &nodes {
            assert!(dot.contains(&format!("\"{n}\"")), "missing node {n}");
        }
        assert!(dot.contains("\"a\" -> \"b\";"));
        assert!(dot.contains("\"a\" -> \"c\";"));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn cancelled_token_stops_before_the_first_wave() {
        let mut env = pumpkin_stdlib::std_env();
        let lifting = crate::search::swap::configure(
            &mut env,
            &"Old.list".into(),
            &"New.list".into(),
            crate::config::NameMap::prefix("Old.", "New."),
        )
        .unwrap();
        let mark = env.order().len();
        let token = CancelToken::new();
        token.cancel();
        let mut state = LiftState::default();
        let err = repair_module_wavefront(
            &mut env,
            &lifting,
            &mut state,
            &["Old.rev", "Old.app"],
            Some(1),
            Some(&token),
        )
        .unwrap_err();
        match err {
            RepairError::Cancelled { completed_waves } => assert_eq!(completed_waves, 0),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Nothing was installed.
        assert_eq!(env.order().len(), mark);
    }

    #[test]
    fn elapsed_deadline_reads_as_cancelled() {
        let token = CancelToken::with_deadline(Duration::from_nanos(0));
        assert!(token.cancelled());
        let fresh = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!fresh.cancelled());
        fresh.cancel();
        assert!(fresh.cancelled());
    }
}
