//! Incremental differential repair (salsa-style, DESIGN.md §16).
//!
//! The paper's 10 s interactive budget only matters if edit→repair cycles
//! reuse work. This module supplies the three pieces that make
//! "touch 1 of 13 constants → re-lift ~1" a first-class number:
//!
//! * [`DigestMap`] — a snapshot of the *source* declarations' content
//!   digests ([`pumpkin_wire::decl_digest`]) from the last repair, kept in
//!   each serve `Session` and in `pumpkin watch`.
//! * [`DigestMap::diff`] — which work-list constants changed since the
//!   snapshot (edited, or new to the snapshot).
//! * [`invalidated`] — the changed set closed downstream over the module
//!   [`ModuleDag`]: everything that (transitively) depends on a changed
//!   input must be re-lifted *fresh*, because a dependent's own digest is
//!   unchanged while its type-correctness rests on the upstream bodies —
//!   replaying its persisted entry would skip the re-check. Everything
//!   outside the closure replays from the [`crate::PersistCache`].
//!
//! Accounting lands in [`IncrStats`] (`{changed, replayed, skipped}`),
//! carried on [`crate::RepairReport::incr`] and the wire report form.

use std::collections::{HashMap, HashSet};
use std::fmt;

use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_wire::{decl_digest, TermDigest};

use crate::repair::RepairReport;
use crate::schedule::ModuleDag;

/// A snapshot of source-declaration content digests from one repair run,
/// together with the work-list dependency edges observed at capture time
/// and, when captured from a repair report, the targets that run produced.
///
/// Capture it after a successful repair with [`DigestMap::capture_repaired`]
/// (or [`DigestMap::capture`], which records no targets); diff a later
/// environment against it with [`DigestMap::diff`]. Constants the
/// environment no longer has are simply absent from the next capture —
/// deletion needs no repair work, so it never enters the changed set.
///
/// The recorded edges make the invalidation closure free of environment
/// walks: an unchanged constant's declaration is byte-identical to the
/// captured one, so its dependency edges are still exact, and closing the
/// changed set downstream needs no fresh [`ModuleDag`]
/// ([`DigestMap::close_invalidated`]). Only a changed constant the
/// snapshot never saw (its incoming edges are unrecorded) forces the
/// caller back to a full DAG build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DigestMap {
    digests: HashMap<GlobalName, TermDigest>,
    /// `deps[n]` = snapshotted work-list constants `n` depends on
    /// (directly, or transitively through constants outside the captured
    /// list), as recorded by the capture-time [`ModuleDag`].
    deps: HashMap<GlobalName, Vec<GlobalName>>,
    /// `targets[n]` = the repair target the captured run produced for `n`
    /// and that target's declaration digest. Incremental green reuse
    /// trusts a resident target only if it still has this digest; a
    /// snapshot without targets never reuses one.
    targets: HashMap<GlobalName, (GlobalName, TermDigest)>,
}

impl DigestMap {
    /// An empty snapshot: every constant diffs as changed (a cold run).
    pub fn new() -> DigestMap {
        DigestMap::default()
    }

    /// Snapshots the digests of `names` as they stand in `env` (names the
    /// environment lacks are skipped — they will diff as changed if they
    /// appear later), along with the list-internal dependency edges.
    pub fn capture(env: &Env, names: &[&str]) -> DigestMap {
        let mut digests = HashMap::with_capacity(names.len());
        let mut present = Vec::with_capacity(names.len());
        for n in names {
            let name = GlobalName::new(*n);
            if let Ok(decl) = env.const_decl(&name) {
                digests.insert(name.clone(), decl_digest(decl));
                present.push(name);
            }
        }
        let dag = ModuleDag::build(env, &present);
        let deps = dag
            .nodes
            .iter()
            .zip(&dag.deps)
            .map(|(n, ds)| {
                let named = ds.iter().map(|&i| dag.nodes[i].clone()).collect();
                (n.clone(), named)
            })
            .collect();
        DigestMap {
            digests,
            deps,
            targets: HashMap::new(),
        }
    }

    /// [`DigestMap::capture`] plus the repair target `report` records for
    /// each of `names`, with the target's declaration digest in `env`: the
    /// resident outputs a later incremental run may reuse as they are.
    pub fn capture_repaired(env: &Env, names: &[&str], report: &RepairReport) -> DigestMap {
        let mut snap = DigestMap::capture(env, names);
        for n in names {
            let Some(to) = report.renamed(n) else {
                continue;
            };
            if let Ok(decl) = env.const_decl(to) {
                snap.targets
                    .insert(GlobalName::new(*n), (to.clone(), decl_digest(decl)));
            }
        }
        snap
    }

    /// The recorded repair target of `name` and its declaration digest,
    /// if the snapshot was captured from a repair report.
    pub(crate) fn target(&self, name: &GlobalName) -> Option<&(GlobalName, TermDigest)> {
        self.targets.get(name)
    }

    /// Marks a constant as changed for the next [`DigestMap::diff`] by
    /// dropping its digest, while keeping its recorded dependency edges —
    /// for callers that *know* a constant must re-lift (a forced refresh)
    /// without having an edited declaration in hand yet.
    pub fn mark_changed(&mut self, name: &GlobalName) {
        self.digests.remove(name);
    }

    /// Number of snapshotted constants.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Is the snapshot empty (i.e. would every constant diff as changed)?
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The snapshotted digest for a constant, if present.
    pub fn get(&self, name: &GlobalName) -> Option<TermDigest> {
        self.digests.get(name).copied()
    }

    /// Which of `names` changed in `env` relative to this snapshot: the
    /// declaration's digest differs, the constant is new to the snapshot,
    /// or (defensively) the environment cannot produce it. Order follows
    /// `names`.
    pub fn diff(&self, env: &Env, names: &[&str]) -> Vec<GlobalName> {
        names
            .iter()
            .map(|n| GlobalName::new(*n))
            .filter(|name| match env.const_decl(name) {
                Ok(decl) => self.digests.get(name) != Some(&decl_digest(decl)),
                Err(_) => true,
            })
            .collect()
    }

    /// Closes `changed` downstream over the snapshot's recorded edges —
    /// no environment walk, no fresh DAG. Sound because an unchanged
    /// constant's declaration is byte-identical to the captured one, so
    /// its captured edges are still exact. Returns `None` when a changed
    /// constant has no recorded edges (it is new to the snapshot, so
    /// edges *into* it were never observed) — the caller must fall back
    /// to [`invalidated`] over a freshly built [`ModuleDag`].
    pub fn close_invalidated(
        &self,
        nodes: &[GlobalName],
        changed: &[GlobalName],
    ) -> Option<HashSet<GlobalName>> {
        if changed.iter().any(|c| !self.deps.contains_key(c)) {
            return None;
        }
        let mut inv: HashSet<GlobalName> = changed.iter().cloned().collect();
        // Work lists are small (a module): sweep to fixpoint rather than
        // building a reverse index, mirroring [`invalidated`].
        let mut grew = true;
        while grew {
            grew = false;
            for n in nodes {
                if inv.contains(n) {
                    continue;
                }
                match self.deps.get(n) {
                    Some(ds) => {
                        if ds.iter().any(|d| inv.contains(d)) {
                            inv.insert(n.clone());
                            grew = true;
                        }
                    }
                    // Unreachable for an unchanged constant (captured
                    // digests and edges are written together), but if a
                    // snapshot ever lacks the edges, re-lifting is the
                    // safe side.
                    None => {
                        inv.insert(n.clone());
                        grew = true;
                    }
                }
            }
        }
        Some(inv)
    }
}

/// The changed set closed downstream over the module DAG: every work-list
/// constant that is changed, or (transitively) depends on a changed one.
/// These must bypass the persist cache and re-lift fresh; the rest replay.
pub fn invalidated(dag: &ModuleDag, changed: &[GlobalName]) -> HashSet<GlobalName> {
    let n = dag.nodes.len();
    let mut hit = vec![false; n];
    for c in changed {
        if let Some(i) = dag.nodes.iter().position(|x| x == c) {
            hit[i] = true;
        }
    }
    // deps[i] lists what node i depends on; propagate "depends on a
    // changed node" forward until fixpoint. Work lists are small (a
    // module), so the quadratic sweep beats building a reverse index.
    let mut grew = true;
    while grew {
        grew = false;
        for i in 0..n {
            if !hit[i] && dag.deps[i].iter().any(|&d| hit[d]) {
                hit[i] = true;
                grew = true;
            }
        }
    }
    dag.nodes
        .iter()
        .zip(&hit)
        .filter(|(_, &h)| h)
        .map(|(name, _)| name.clone())
        .collect()
}

/// Incremental accounting for one differential run, over the work list:
/// how many inputs changed, how many constants were re-lifted fresh, and
/// how many were skipped (replayed from the persist cache, or already
/// repaired in the threaded state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Work-list constants whose source digest differed from the snapshot
    /// (edited or new).
    pub changed: u64,
    /// Work-list constants re-lifted fresh this run (the invalidated
    /// downstream closure of the changed set).
    pub replayed: u64,
    /// Work-list constants not re-lifted: served by a persist-cache
    /// replay or already present in the threaded lift state.
    pub skipped: u64,
}

impl fmt::Display for IncrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "changed={} replayed={} skipped={}",
            self.changed, self.replayed, self.skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pumpkin_kernel::term::Term;

    fn tiny_env() -> Env {
        let mut env = pumpkin_stdlib::std_env();
        let nat = Term::ind("nat");
        env.define("base", nat.clone(), Term::construct("nat", 0))
            .unwrap();
        env.define("mid", nat.clone(), Term::const_("base"))
            .unwrap();
        env.define("top", nat, Term::const_("mid")).unwrap();
        env
    }

    #[test]
    fn capture_then_diff_is_empty_without_edits() {
        let env = tiny_env();
        let names = ["base", "mid", "top"];
        let snap = DigestMap::capture(&env, &names);
        assert_eq!(snap.len(), 3);
        assert!(snap.diff(&env, &names).is_empty());
    }

    #[test]
    fn diff_reports_edited_and_new_constants() {
        let mut env = tiny_env();
        let names = ["base", "mid", "top"];
        let snap = DigestMap::capture(&env, &names);
        // Edit `mid`: same type, digest-changing body.
        let nat = Term::ind("nat");
        env.remove(&"top".into()).unwrap();
        env.remove(&"mid".into()).unwrap();
        env.define(
            "mid",
            nat.clone(),
            Term::let_(
                "x",
                nat.clone(),
                Term::construct("nat", 0),
                Term::const_("base"),
            ),
        )
        .unwrap();
        env.define("top", nat.clone(), Term::const_("mid")).unwrap();
        env.define("fresh", nat, Term::construct("nat", 0)).unwrap();
        let changed = snap.diff(&env, &["base", "mid", "top", "fresh"]);
        assert_eq!(
            changed,
            vec![GlobalName::new("mid"), GlobalName::new("fresh")],
            "edited + snapshot-new constants diff as changed; untouched do not"
        );
    }

    #[test]
    fn empty_snapshot_diffs_everything() {
        let env = tiny_env();
        let names = ["base", "mid", "top"];
        assert_eq!(DigestMap::new().diff(&env, &names).len(), 3);
    }

    #[test]
    fn snapshot_edges_close_invalidation_without_a_dag_build() {
        let env = tiny_env();
        let names = ["base", "mid", "top"];
        let mut snap = DigestMap::capture(&env, &names);
        let nodes: Vec<GlobalName> = names.iter().map(|s| GlobalName::new(*s)).collect();
        // Force `mid` to diff as changed while keeping its recorded
        // edges: the closure runs over the snapshot alone.
        snap.mark_changed(&GlobalName::new("mid"));
        let changed = snap.diff(&env, &names);
        assert_eq!(changed, vec![GlobalName::new("mid")]);
        let inv = snap
            .close_invalidated(&nodes, &changed)
            .expect("a captured constant closes over recorded edges");
        assert!(inv.contains(&GlobalName::new("mid")));
        assert!(inv.contains(&GlobalName::new("top")));
        assert!(!inv.contains(&GlobalName::new("base")));
        // A changed constant the snapshot never saw has unrecorded
        // incoming edges — the closure must refuse, so the caller falls
        // back to a fresh DAG.
        assert!(snap
            .close_invalidated(&nodes, &[GlobalName::new("fresh")])
            .is_none());
    }

    #[test]
    fn invalidation_closes_downstream_only() {
        let env = tiny_env();
        let nodes: Vec<GlobalName> = ["base", "mid", "top"]
            .iter()
            .map(|s| GlobalName::new(*s))
            .collect();
        let dag = ModuleDag::build(&env, &nodes);
        // Touching the middle invalidates it and its dependent, not its
        // dependency.
        let inv = invalidated(&dag, &[GlobalName::new("mid")]);
        assert!(inv.contains(&GlobalName::new("mid")));
        assert!(inv.contains(&GlobalName::new("top")));
        assert!(!inv.contains(&GlobalName::new("base")));
        // Touching a leaf invalidates only itself.
        let inv = invalidated(&dag, &[GlobalName::new("top")]);
        assert_eq!(inv.len(), 1);
    }
}
