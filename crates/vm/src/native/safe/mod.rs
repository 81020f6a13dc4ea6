//! brick-safe: compile-time memory-safety prover for the native backends.
//!
//! The SIMD evaluators in `super::avx2`/`super::neon` and the fused
//! executors in `crate::exec` contain `unsafe` loads and stores whose
//! correctness rests on properties of the compiled program — tap offsets
//! inside the brick volume, store offsets inside the home block, tape
//! indices inside the tap table, value-stack discipline, lane geometry.
//! Rather than re-checking those properties per block at run time, this
//! module proves them *once*, at [`super::Plan::compile`] time, by
//! abstract interpretation over the fused [`super::fuse::FusedKernel`]
//! tape. A plan without one runs on the interpreter, which forms no
//! pointers, so it carries no obligations.
//!
//! Every property is an explicit **proof obligation** with a stable
//! diagnostic code (`BS001`–`BS008` and `BS011`–`BS014`, catalogued in
//! [`brick_lint::LintCode`] and DESIGN.md §13). A violated obligation
//! becomes a [`brick_lint::Diagnostic`] anchored at the offending tape op
//! or row; the whole report is returned as
//! `VmError::UnsafePlan` and the plan is rejected before any dispatcher
//! can see it. Obligations whose truth depends on the run-time grid
//! (array slab extents, brick adjacency tables) are split: the
//! program-shape half is discharged here, and a cheap per-run premise
//! check in `crate::exec` (array: [`geometry`]; brick: slab length +
//! adjacency validity) closes the argument.
//!
//! The prover is deterministic — same plan, same verdict — and a plan's
//! verdict is keyed by the kernel alone, so it caches under
//! `brick_lint::fingerprint` exactly like lint reports do.

mod fused;
mod geometry;

#[cfg(test)]
mod mutation;

use brick_core::BrickDims;
use brick_lint::{Diagnostic, LintCode, Report};

use super::fuse::FusedKernel;
use super::plan::Plan;

/// Outcome of a successful brick-safe proof: what was proved, and how
/// much of it. Returned by [`super::Plan::safety`] /
/// [`super::Plan::verify_safety`] and printed by `bricks lint --native`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetySummary {
    /// Total proof obligations discharged (each bounds comparison and
    /// stack-discipline condition counts once; 0 when not fused).
    pub obligations: usize,
    /// Whether the plan carries a fused-row program (every obligation
    /// applies to one; a plan without it runs on the interpreter).
    pub fused: bool,
    /// Number of taps in the fused tap table (0 when not fused).
    pub taps: usize,
    /// Number of fused output-row programs (0 when not fused).
    pub rows: usize,
    /// Fused stages: 1 for spatial kernels, one per fused level for
    /// temporal ones (0 when not fused).
    pub stages: usize,
    /// Plane rows the intermediate stages materialize per block (0 for
    /// single-stage and non-fused plans).
    pub plane_rows: usize,
}

/// Accumulates obligations and failures during a proof pass.
pub(crate) struct Prover {
    report: Report,
    obligations: usize,
}

impl Prover {
    pub(crate) fn new(name: &str) -> Self {
        Prover {
            report: Report::new(name),
            obligations: 0,
        }
    }

    /// Discharge one obligation: record it, and on failure push a
    /// diagnostic (anchored at tape-op/row index `op` when given).
    /// The message closure only runs on failure.
    pub(crate) fn obligation(
        &mut self,
        ok: bool,
        code: LintCode,
        op: Option<usize>,
        msg: impl FnOnce() -> String,
    ) {
        self.obligations += 1;
        if !ok {
            let d = match op {
                Some(i) => Diagnostic::at(code, i, msg()),
                None => Diagnostic::global(code, msg()),
            };
            self.report.push(d);
        }
    }

    /// Finish the pass: the obligation count on success, the full report
    /// on any failure.
    pub(crate) fn finish(self) -> Result<usize, Box<Report>> {
        if self.report.has_errors() {
            Err(Box::new(self.report))
        } else {
            Ok(self.obligations)
        }
    }
}

/// Prove a lowered program safe. Called by [`super::Plan::compile`] on
/// every plan; the components are the plan's own fields (passed
/// separately because the `Plan` does not exist yet at that point).
pub(crate) fn prove(
    name: &str,
    width: usize,
    block: BrickDims,
    fused: Option<&FusedKernel>,
) -> Result<SafetySummary, Box<Report>> {
    let mut p = Prover::new(name);
    if let Some(f) = fused {
        fused::prove_fused(&mut p, width, block, f);
    }
    let obligations = p.finish()?;
    Ok(SafetySummary {
        obligations,
        fused: fused.is_some(),
        taps: fused.map_or(0, FusedKernel::taps_len),
        rows: fused.map_or(0, |f| f.out_rows().len()),
        stages: fused.map_or(0, |f| f.stages.len()),
        plane_rows: fused.map_or(0, FusedKernel::plane_rows),
    })
}

/// Re-prove a finished plan (the `bricks lint --native` / benchmark
/// entry; `Plan::compile` already ran [`prove`] once).
pub(crate) fn prove_plan(plan: &Plan) -> Result<SafetySummary, Box<Report>> {
    prove("plan", plan.width, plan.block, plan.fused.as_ref())
}

/// Per-run geometry premise for array layouts: see [`geometry`].
pub(crate) fn check_array_geometry(
    plan: &Plan,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
) -> Result<(), Box<Report>> {
    geometry::check(plan, nx, ny, nz, halo)
}
