//! Kernel instrumentation: conversion/whnf/infer call counts and
//! reduction step counters.
//!
//! The mirror image of `pumpkin_core::LiftStats` one layer down: these
//! counters measure the kernel hot paths every lift bottoms out in.
//! Counters live on [`crate::env::Env`] (interior-mutable, since
//! `conv`/`whnf` take `&Env`); snapshot them with
//! [`crate::env::Env::kernel_stats`] and subtract snapshots with
//! [`KernelStats::since`] to attribute work to a phase.

use std::fmt;

/// Counters for the kernel's conversion and reduction hot paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Calls to `conv` (after the `t == u` fast path).
    pub conv_calls: u64,
    /// Always 0: the conversion memo table is gone (DESIGN.md §9). Kept
    /// because existing benchmark readers still name the field.
    pub conv_cache_hits: u64,
    /// Always 0, like [`KernelStats::conv_cache_hits`].
    pub conv_cache_misses: u64,
    /// Calls to `whnf` that were not already in weak head normal form.
    pub whnf_calls: u64,
    /// Always 0: the whnf memo table is gone (DESIGN.md §9). Kept because
    /// existing benchmark readers still name the field.
    pub whnf_cache_hits: u64,
    /// Always 0, like [`KernelStats::whnf_cache_hits`].
    pub whnf_cache_misses: u64,
    /// β-redexes fired (lambda applied to arguments).
    pub beta_steps: u64,
    /// δ-unfoldings of transparent constants.
    pub delta_steps: u64,
    /// ι-reductions (eliminator applied to a constructor).
    pub iota_steps: u64,
    /// ζ-reductions (let bindings substituted).
    pub zeta_steps: u64,
    /// Memo generations observed (nf/ty table flushes caused by `Env`
    /// mutation).
    pub invalidations: u64,
    /// Type-checker `infer` entries (one per term node visited).
    pub infer_calls: u64,
}

impl KernelStats {
    /// Field-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            conv_calls: self.conv_calls - earlier.conv_calls,
            whnf_calls: self.whnf_calls - earlier.whnf_calls,
            beta_steps: self.beta_steps - earlier.beta_steps,
            delta_steps: self.delta_steps - earlier.delta_steps,
            iota_steps: self.iota_steps - earlier.iota_steps,
            zeta_steps: self.zeta_steps - earlier.zeta_steps,
            invalidations: self.invalidations - earlier.invalidations,
            infer_calls: self.infer_calls - earlier.infer_calls,
            ..KernelStats::default()
        }
    }

    /// Fieldwise sum — used by the parallel repair scheduler to aggregate
    /// the counters accrued by per-worker environment clones into one
    /// module-level total.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.conv_calls += other.conv_calls;
        self.whnf_calls += other.whnf_calls;
        self.beta_steps += other.beta_steps;
        self.delta_steps += other.delta_steps;
        self.iota_steps += other.iota_steps;
        self.zeta_steps += other.zeta_steps;
        self.invalidations += other.invalidations;
        self.infer_calls += other.infer_calls;
    }

    /// Total reduction steps of any flavour.
    pub fn reduction_steps(&self) -> u64 {
        self.beta_steps + self.delta_steps + self.iota_steps + self.zeta_steps
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv {} calls, whnf {} calls, infer {} calls, \
             β {} δ {} ι {} ζ {}, {} invalidations",
            self.conv_calls,
            self.whnf_calls,
            self.infer_calls,
            self.beta_steps,
            self.delta_steps,
            self.iota_steps,
            self.zeta_steps,
            self.invalidations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = KernelStats {
            conv_calls: 10,
            whnf_calls: 7,
            beta_steps: 3,
            ..Default::default()
        };
        let b = KernelStats {
            conv_calls: 25,
            whnf_calls: 11,
            beta_steps: 8,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.conv_calls, 15);
        assert_eq!(d.whnf_calls, 4);
        assert_eq!(d.beta_steps, 5);
    }
}
