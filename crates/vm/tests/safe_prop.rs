//! brick-safe acceptance properties over the full paper matrix.
//!
//! The prover must be *complete* for the compiler: every plan
//! `Plan::compile` produces — paper suite × layouts × widths ×
//! strategies, and every feasible temporal degree — proves safe (zero false positives; `compile` itself runs
//! the prover, so a false positive would abort compilation). One verdict
//! covers every execution mode: the obligations target the strictest
//! backend (SIMD fused with streaming stores), and the scalar/portable
//! modes rely on strictly weaker subsets.
//!
//! Verdicts must also be *deterministic* and *fingerprint-cacheable*:
//! same kernel → same `SafetySummary`, and kernels with equal
//! `brick_lint::fingerprint` values can share a verdict through the same
//! `FingerprintCache` the sweep runner uses for lint reports.

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_dsl::shape::StencilShape;
use brick_lint::FingerprintCache;
use brick_vm::{Plan, SafetySummary};

fn paper_matrix() -> impl Iterator<Item = (StencilShape, LayoutKind, usize, Strategy)> {
    StencilShape::paper_suite().into_iter().flat_map(|shape| {
        [LayoutKind::Brick, LayoutKind::Array]
            .into_iter()
            .flat_map(move |layout| {
                [16usize, 32, 64].into_iter().flat_map(move |w| {
                    [Strategy::Gather, Strategy::Scatter]
                        .into_iter()
                        .map(move |s| (shape, layout, w, s))
                })
            })
    })
}

fn compile(shape: StencilShape, layout: LayoutKind, w: usize, strategy: Strategy) -> Plan {
    let st = shape.stencil();
    let b = st.default_bindings();
    let opts = CodegenOptions {
        strategy,
        ..CodegenOptions::default()
    };
    let k = generate(&st, &b, layout, w, opts).unwrap();
    Plan::compile(&k).unwrap_or_else(|e| panic!("false positive on {shape} {layout} w{w}: {e}"))
}

#[test]
fn brick_safe_accepts_the_entire_paper_matrix() {
    let mut proved = 0usize;
    for (shape, layout, w, strategy) in paper_matrix() {
        let plan = compile(shape, layout, w, strategy);
        let s = plan.safety();
        assert!(s.obligations > 0, "{shape} {layout} w{w}: empty proof");
        assert_eq!(
            s.fused,
            s.taps > 0,
            "{shape} {layout} w{w}: tap count inconsistent with fused flag"
        );
        // The standalone re-proof (the `bricks lint --native` entry)
        // agrees with the verdict compile embedded.
        let again = plan.verify_safety().expect("re-proof of a compiled plan");
        assert_eq!(s, again, "{shape} {layout} w{w}: verdict not deterministic");
        proved += 1;
    }
    // paper_suite × 2 layouts × 3 widths × 2 strategies
    assert_eq!(proved, StencilShape::paper_suite().len() * 12);
}

#[test]
fn array_geometry_premise_holds_at_paper_sizes() {
    for (shape, layout, w, strategy) in paper_matrix() {
        if layout != LayoutKind::Array {
            continue;
        }
        let plan = compile(shape, layout, w, strategy);
        let halo = shape.radius as usize;
        for n in [64usize, 128, 256] {
            plan.check_array_geometry(n, n, n, halo)
                .unwrap_or_else(|e| {
                    panic!("false positive: {shape} w{w} at {n}^3 halo {halo}: {e}")
                });
        }
    }
}

/// Every feasible temporal (T ≥ 2) plan of the paper suite: staged
/// plans with plane taps, plane rows and lane windows prove safe (BS012–
/// BS014 included) with zero false positives, deterministically, and the
/// array geometry premise holds with the `T·r` halo the executors use.
#[test]
fn brick_safe_accepts_every_temporal_plan() {
    let mut proved = 0usize;
    for shape in StencilShape::paper_suite() {
        let st = shape.stencil();
        let b = st.default_bindings();
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for w in [16usize, 32, 64] {
                for t in 2..=4u32 {
                    let opts = CodegenOptions {
                        temporal_degree: t,
                        ..CodegenOptions::default()
                    };
                    let Ok(k) = generate(&st, &b, layout, w, opts) else {
                        continue; // infeasible degree
                    };
                    let plan = Plan::compile(&k).unwrap_or_else(|e| {
                        panic!("false positive on {shape} {layout} w{w} t{t}: {e}")
                    });
                    let s = plan.safety();
                    assert!(
                        s.fused && s.stages == t as usize,
                        "{shape} {layout} w{w} t{t}"
                    );
                    assert!(s.plane_rows > 0, "{shape} {layout} w{w} t{t}: no planes");
                    assert_eq!(plan.verify_safety().expect("re-proof"), s);
                    if layout == LayoutKind::Array {
                        let halo = (t * shape.radius) as usize;
                        for n in [64usize, 128] {
                            plan.check_array_geometry(n, n, n, halo).unwrap_or_else(|e| {
                                panic!("false positive: {shape} w{w} t{t} at {n}^3 halo {halo}: {e}")
                            });
                        }
                    }
                    proved += 1;
                }
            }
        }
    }
    // feasible T ≥ 2 degrees: star-7 and cube-27 three each, star-13 and
    // cube-125 one each — 8 per (layout, width)
    assert_eq!(proved, 8 * 6);
}

#[test]
fn verdicts_are_fingerprint_cacheable() {
    // Two independent generations of the same kernel: equal fingerprints
    // and equal safety verdicts, so a sweep may key verdicts by the same
    // fingerprint cache it uses for lint reports.
    let shape = StencilShape::star(2);
    let st = shape.stencil();
    let b = st.default_bindings();
    let k1 = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
    let k2 = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
    assert_eq!(brick_lint::fingerprint(&k1), brick_lint::fingerprint(&k2));
    let (s1, s2) = (
        Plan::compile(&k1).unwrap().safety(),
        Plan::compile(&k2).unwrap().safety(),
    );
    assert_eq!(s1, s2, "equal fingerprints must imply equal verdicts");

    let cache = FingerprintCache::new();
    let mut verdicts: std::collections::HashMap<u64, SafetySummary> = Default::default();
    let mut proofs_run = 0usize;
    for k in [&k1, &k2] {
        let fp = brick_lint::fingerprint(k);
        if cache.check_or_insert(fp) {
            // hit: reuse the stored verdict, as the sweep runner does
            assert_eq!(verdicts[&fp], s1);
        } else {
            verdicts.insert(fp, Plan::compile(k).unwrap().safety());
            proofs_run += 1;
        }
    }
    assert_eq!(proofs_run, 1, "second identical kernel must be a cache hit");
}
