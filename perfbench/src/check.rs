//! Output checks. Every op's answer is compared with a known answer, and
//! every repaired constant is held to the paper's Fig. 12 criteria:
//!
//! * its statement is the known lifted statement, stated by the benchmark
//!   from the module's source, up to conversion (`conv::conv`);
//! * its body type-checks at that lifted statement
//!   (`typecheck::check_closed`, the benchmark's own re-check, independent
//!   of the repair's admit path);
//! * its decompiled, second-passed script re-elaborates against the
//!   lifted statement (`pumpkin_tactics::prove`);
//! * no reference to the old type remains (`check_source_free`, plus a
//!   direct scan for `Old.`-prefixed constants where the module has them);
//! * the set of repaired names equals the known list for the request.
//!
//! A check that fails makes the op count as failed; nothing here panics.

use pumpkin_core::{Lifting, RepairReport};
use pumpkin_kernel::conv::conv;
use pumpkin_kernel::env::Env;
use pumpkin_kernel::name::GlobalName;
use pumpkin_kernel::term::Term;
use pumpkin_kernel::typecheck::check_closed;

use crate::span::Tracer;
use crate::Outcome;

/// Compares the report's `(old, new)` pairs with the known answer, as sets.
pub fn pairs_match(got: &[(String, String)], want: &[(String, String)]) -> Result<(), String> {
    let mut g = got.to_vec();
    let mut w = want.to_vec();
    g.sort();
    w.sort();
    if g == w {
        Ok(())
    } else {
        Err(format!("repaired {g:?}, expected {w:?}"))
    }
}

pub fn report_pairs(report: &RepairReport) -> Vec<(String, String)> {
    report
        .repaired
        .iter()
        .map(|(a, b)| (a.as_str().to_string(), b.as_str().to_string()))
        .collect()
}

/// Fails if `name`'s statement or body mentions a constant under `prefix`.
pub fn free_of_prefix(env: &Env, name: &GlobalName, prefix: &str) -> Result<(), String> {
    let decl = env
        .const_decl(name)
        .map_err(|e| format!("{name}: missing after repair: {e}"))?;
    let mut consts = decl.ty.constants();
    if let Some(b) = &decl.body {
        consts.extend(b.constants());
    }
    match consts.iter().find(|c| c.as_str().starts_with(prefix)) {
        Some(c) => Err(format!("{name} still refers to {c}")),
        None => Ok(()),
    }
}

/// Which checks a repaired constant gets.
#[derive(Clone, Copy)]
pub struct Criteria<'a> {
    pub lifting: &'a Lifting,
    /// `Some("Old.")` when the module's old constants share a prefix.
    pub old_prefix: Option<&'a str>,
    /// Decompile the proof term and re-elaborate the script.
    pub decompile: bool,
}

/// Holds one repaired constant to the Fig. 12 criteria against `lifted`,
/// the known lifted statement; a constant whose decompiled script does not
/// re-elaborate fails the check.
pub fn check_constant(
    env: &Env,
    name: &GlobalName,
    lifted: &Term,
    crit: Criteria<'_>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let decl = env
        .const_decl(name)
        .map_err(|e| format!("{name}: missing after repair: {e}"))?;
    let body = decl
        .body
        .as_ref()
        .ok_or_else(|| format!("{name}: repaired constant has no body"))?;
    if !tr.span("kernel.check", || conv(env, &decl.ty, lifted)) {
        return Err(format!("{name}: statement is not the lifted statement"));
    }
    tr.span("kernel.check", || check_closed(env, body, lifted))
        .map_err(|e| format!("{name}: body does not check at its lifted type: {e}"))?;
    tr.span("core.source_free", || {
        pumpkin_core::repair::check_source_free(env, crit.lifting, name)
    })
    .map_err(|e| format!("{name}: {e}"))?;
    if let Some(prefix) = crit.old_prefix {
        tr.span("bench.verify", || free_of_prefix(env, name, prefix))?;
    }
    if crit.decompile {
        let raw = tr
            .span("tactics.decompile", || {
                pumpkin_tactics::decompile_constant(env, name.as_str())
            })
            .ok_or_else(|| format!("{name}: nothing to decompile"))?
            .1;
        let script = tr.span("tactics.second_pass", || pumpkin_tactics::second_pass(&raw));
        out.add("tactics.decompiled", 1.0);
        tr.span("tactics.prove", || {
            pumpkin_tactics::prove(env, lifted, &script)
        })
        .map_err(|e| format!("{name}: decompiled script does not re-elaborate: {e}"))?;
        out.add("tactics.validated", 1.0);
    }
    Ok(())
}
