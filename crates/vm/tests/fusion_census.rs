//! Fusion census: which plans run on fused row tapes and which run on the
//! interpreter.
//!
//! Fused tapes are the only compiled form; a kernel the fusion analysis
//! declines runs on the interpreter under every native backend. Every
//! cell of the paper suite × {Brick, Array} × {Gather, Scatter} × widths
//! {16, 32, 64} × each feasible temporal degree is compiled and its
//! `Plan::safety().fused` flag pinned. A cell absent from [`FALLBACKS`]
//! must fuse — a regression to the interpreter fails here by name, with
//! the reason fusion bailed. A cell listed there must still be declined,
//! for exactly the listed reason; once it fuses, delete its entry.

use brick_codegen::{generate, CodegenError, CodegenOptions, LayoutKind, Strategy};
use brick_dsl::shape::StencilShape;
use brick_vm::Plan;

/// Cells that run on the interpreter, with the reason the fusion
/// analysis gives (`Plan::fallback_reason`). Empty: every feasible cell
/// of the paper matrix fuses, spatial and temporal alike.
const FALLBACKS: &[(&str, &str)] = &[];

/// Highest temporal degree the census tries; `generate` rejects the
/// infeasible ones (`T·r` beyond the block extent).
const MAX_DEGREE: u32 = 4;

#[test]
fn every_feasible_paper_cell_is_fused_or_listed() {
    let mut cells = 0usize;
    let mut temporal = 0usize;
    let mut listed_seen = Vec::new();
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for strategy in [Strategy::Gather, Strategy::Scatter] {
                for w in [16usize, 32, 64] {
                    for t in 1..=MAX_DEGREE {
                        let opts = CodegenOptions {
                            strategy,
                            temporal_degree: t,
                            ..CodegenOptions::default()
                        };
                        let kernel = match generate(&st, &b, layout, w, opts) {
                            Ok(k) => k,
                            Err(CodegenError::TemporalTooDeep { .. }) => continue,
                            Err(e) => panic!("{shape} {layout} {strategy} w{w} t{t}: {e}"),
                        };
                        let cell = format!("{shape} {layout} {strategy} w{w} t{t}");
                        let plan = Plan::compile(&kernel)
                            .unwrap_or_else(|e| panic!("{cell}: plan rejected: {e}"));
                        let s = plan.safety();
                        match FALLBACKS.iter().find(|(c, _)| *c == cell) {
                            Some((_, why)) => {
                                assert!(!s.fused, "{cell} now fuses: delete its FALLBACKS entry");
                                assert_eq!(
                                    plan.fallback_reason(),
                                    Some(*why),
                                    "{cell}: falls back for a different reason"
                                );
                                listed_seen.push(cell);
                            }
                            None => {
                                assert!(
                                    s.fused,
                                    "{cell} regressed to the interpreter: {}",
                                    plan.fallback_reason().unwrap_or("(no reason)")
                                );
                                assert_eq!(plan.fallback_reason(), None, "{cell}");
                                // one stage per fused level; T>1 plans
                                // stage their intermediate levels in planes
                                assert_eq!(s.stages, t as usize, "{cell}: stage count");
                                assert_eq!(s.plane_rows > 0, t > 1, "{cell}: plane rows");
                            }
                        }
                        cells += 1;
                        temporal += usize::from(t > 1);
                    }
                }
            }
        }
    }
    // every listed cell exists in the matrix (no stale entries)
    for (cell, _) in FALLBACKS {
        assert!(
            listed_seen.iter().any(|c| c == cell),
            "FALLBACKS names {cell}, which is not a feasible cell"
        );
    }
    // 6 shapes × 2 layouts × 2 strategies × 3 widths, feasible degrees
    // (star-7 and cube-27: 4 each; star-13 and cube-125: 2; star-19 and
    // star-25: 1) — 14 per (layout, strategy, width)
    assert_eq!(cells, 14 * 12);
    assert_eq!(temporal, 8 * 12);
}
