//! Fused-path obligations: the compile-time half of the argument that
//! every unsafe load/store in the SIMD fused evaluators is in bounds.
//!
//! The brick executor computes each tap's base as
//! `brick_id · vol + off` with `brick_id` drawn from the adjacency table.
//! Proving `off + w ≤ vol` here (BS001), together with the per-run
//! premise that the slab holds exactly `nb` whole bricks and every
//! interior adjacency entry is a valid id `< nb` (checked in
//! `crate::exec::run_brick_fused`), gives `base + w ≤ raw.len()` for
//! every tap of every interior brick — translation invariance does the
//! rest. Array layouts leave `brick_taps` empty; their geometry half
//! lives in [`super::geometry`].
//!
//! Staged (temporal) programs add three obligations over their planes:
//! every plane row and plane tap stays inside its plane and every plane
//! tap resolves to exactly the offsets it names (BS012); every plane row
//! a stage reads is written by exactly one program of the previous stage
//! (BS013), which the executor runs to completion first; and the
//! recomputed demanded lanes of every row lie inside its computed window,
//! and those of every windowed load inside the load's window (BS014).

use brick_core::BrickDims;
use brick_lint::LintCode;

use super::super::fuse::{self, BrickTap, FusedKernel, Tap, CHUNK, MAX_STACK};
use super::Prover;

/// Discharge the fused-path obligations over `f`.
pub(crate) fn prove_fused(p: &mut Prover, w: usize, block: BrickDims, f: &FusedKernel) {
    let vol = block.volume();
    // BS008: the fused evaluators index lanes as `x = i mod w` within a
    // block row, which is only the grid row when the block x-extent IS
    // the vector width; and their dispatch tables cover w ∈ {16, 32, 64}.
    p.obligation(
        matches!(w, 16 | 32 | 64) && block.bx == w,
        LintCode::UnsafeLaneGeometry,
        None,
        || {
            format!(
                "fused width {w} / block x-extent {} outside the proven lane geometries",
                block.bx
            )
        },
    );
    let ntaps = f.taps.len();
    // BS004: executors size their per-worker resolved-tap tables from
    // taps_len and index them in lock-step with brick_taps.
    p.obligation(
        f.brick_taps.is_empty() || f.brick_taps.len() == ntaps,
        LintCode::UnsafeTapIndexInvalid,
        None,
        || {
            format!(
                "brick tap table ({} entries) is not parallel to the tap table ({ntaps})",
                f.brick_taps.len()
            )
        },
    );
    for (i, tap) in f.taps.iter().enumerate() {
        match *tap {
            Tap::Shifted { dx, .. } => {
                // BS003: split-row gathers assume a genuine two-brick seam.
                p.obligation(
                    dx != 0 && (dx.unsigned_abs() as usize) < w,
                    LintCode::UnsafeSeamInvalid,
                    Some(i),
                    || format!("tap {i}: shift distance {dx} invalid for width {w}"),
                );
            }
            Tap::Window { src, edge, dx } => {
                // BS003 + BS008: the window gathers index lanes
                // `j = i + dx` wrapped once, inside each row's window.
                p.obligation(
                    (dx.unsigned_abs() as usize) < w,
                    LintCode::UnsafeSeamInvalid,
                    Some(i),
                    || format!("window tap {i}: shift distance {dx} invalid for width {w}"),
                );
                for seg in [src, edge] {
                    p.obligation(
                        seg.lane0 as usize + seg.lanes as usize <= w,
                        LintCode::UnsafeLaneGeometry,
                        Some(i),
                        || {
                            format!(
                                "window tap {i}: lanes {}+{} escape width {w}",
                                seg.lane0, seg.lanes
                            )
                        },
                    );
                }
            }
            Tap::Direct { .. } => {}
        }
    }
    for (i, bt) in f.brick_taps.iter().enumerate() {
        match *bt {
            BrickTap::Direct { nidx, off } => {
                p.obligation(
                    nidx < 27,
                    LintCode::UnsafeTapNeighborInvalid,
                    Some(i),
                    || format!("brick tap {i}: neighbour index {nidx} outside the 27-entry table"),
                );
                p.obligation(
                    off + w <= vol,
                    LintCode::UnsafeTapEscapesSlab,
                    Some(i),
                    || format!("brick tap {i}: row offset {off} + width {w} escapes brick volume {vol}"),
                );
            }
            BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx,
            } => {
                p.obligation(
                    hnidx < 27 && nnidx < 27,
                    LintCode::UnsafeTapNeighborInvalid,
                    Some(i),
                    || format!("brick tap {i}: neighbour indices ({hnidx}, {nnidx}) outside the 27-entry table"),
                );
                p.obligation(
                    off + w <= vol,
                    LintCode::UnsafeTapEscapesSlab,
                    Some(i),
                    || format!("brick tap {i}: row offset {off} + width {w} escapes brick volume {vol}"),
                );
                p.obligation(
                    dx != 0 && dx.unsigned_abs() < w,
                    LintCode::UnsafeSeamInvalid,
                    Some(i),
                    || format!("brick tap {i}: seam shift {dx} invalid for width {w}"),
                );
            }
        }
    }
    prove_stages(p, w, block, f);
}

/// Stage obligations: output rows (BS006/BS007), plane rows and plane
/// taps (BS012/BS013), per-row tapes (BS004/BS005/BS011), and demand
/// coverage (BS014).
fn prove_stages(p: &mut Prover, w: usize, block: BrickDims, f: &FusedKernel) {
    let vol = block.volume();
    let n = f.stages.len();
    p.obligation(n > 0, LintCode::UnsafePlaneUnwritten, None, || {
        "fused program has no stages".to_string()
    });
    let mut out_offs: Vec<usize> = Vec::new();
    for (k, st) in f.stages.iter().enumerate() {
        let last = k + 1 == n;
        let ntaps = if k == 0 {
            // BS012: the first stage reads the input slab only.
            p.obligation(
                st.ptaps.is_empty() && st.rtaps.is_empty(),
                LintCode::UnsafePlaneEscapes,
                None,
                || "stage 1 carries plane taps but reads the input slab".to_string(),
            );
            f.taps.len()
        } else {
            prove_plane_taps(p, w, k, st, f.stages[k - 1].rows.len());
            st.ptaps.len()
        };
        for (r, rp) in st.rows.iter().enumerate() {
            let [lo, hi] = rp.lanes.map(usize::from);
            // BS012: evaluators compute whole chunks of `[lo, hi)` inside
            // the row.
            p.obligation(
                lo <= hi && hi <= w && lo % CHUNK == 0 && hi % CHUNK == 0,
                LintCode::UnsafePlaneEscapes,
                Some(r),
                || {
                    format!(
                        "stage {} row {r}: lane window {lo}..{hi} escapes width {w}",
                        k + 1
                    )
                },
            );
            if last {
                prove_out_row(p, w, block, vol, r, rp);
                out_offs.push(rp.out_off);
            } else {
                // BS013: plane row r is written by program r alone (the
                // stage's rows are dense in its plane, `r·w`), so every
                // row a later tap names has exactly one earlier writer.
                p.obligation(
                    rp.out_off == r * w,
                    LintCode::UnsafePlaneUnwritten,
                    Some(r),
                    || {
                        format!(
                            "stage {} row {r}: plane offset {} is not its row base {}",
                            k + 1,
                            rp.out_off,
                            r * w
                        )
                    },
                );
            }
            prove_tape(p, r, rp, ntaps);
        }
    }
    // BS007: non-temporal stores bypass the cache; two rows writing the
    // same offset would race with themselves and with any tap that the
    // sfence was meant to order. Distinct offsets plus the proven
    // out ≠ in slabs (separate allocations in the executors) give
    // no-alias outright.
    out_offs.sort_unstable();
    let dup = out_offs.windows(2).position(|pair| pair[0] == pair[1]);
    p.obligation(dup.is_none(), LintCode::UnsafeStoreOverlap, None, || {
        format!(
            "two fused rows store to the same block offset {}",
            out_offs[dup.unwrap()]
        )
    });
    prove_demand(p, w, f);
}

/// BS006 for one output row.
fn prove_out_row(
    p: &mut Prover,
    w: usize,
    block: BrickDims,
    vol: usize,
    r: usize,
    rp: &fuse::RowProg,
) {
    let (ry, rz) = (rp.ry as usize, rp.rz as usize);
    // BS006: the streaming store targets `out[out_off .. out_off+w]`
    // of a vol-sized block; out_off must be the block's own row
    // offset (the decomposition's writeback relies on it), aligned,
    // and in bounds.
    let in_block = ry < block.by && rz < block.bz;
    p.obligation(in_block, LintCode::UnsafeStoreEscapesBlock, Some(r), || {
        format!(
            "row {r}: output row ({ry}, {rz}) outside the {}x{} home block",
            block.by, block.bz
        )
    });
    // row_offset asserts its coordinates in debug builds — only
    // consult it once the row is known to be in the block.
    p.obligation(
        in_block
            && rp.out_off == block.row_offset(ry, rz)
            && rp.out_off.is_multiple_of(w)
            && rp.out_off + w <= vol,
        LintCode::UnsafeStoreEscapesBlock,
        Some(r),
        || {
            format!(
                "row {r}: store offset {} is not the in-bounds row base for ({ry}, {rz})",
                rp.out_off
            )
        },
    );
}

/// BS012 for the plane taps of stage `k` (0-based, `k ≥ 1`), whose
/// plane holds `prev_rows` rows: every tap names rows of that plane with
/// a shift inside `(−w, w)`, and its resolved offsets — which the
/// evaluators use unchecked against a plane of exactly `prev_rows·w`
/// values — are the canonical ones.
fn prove_plane_taps(p: &mut Prover, w: usize, k: usize, st: &fuse::Stage, prev_rows: usize) {
    p.obligation(
        st.rtaps.len() == st.ptaps.len(),
        LintCode::UnsafePlaneEscapes,
        None,
        || {
            format!(
                "stage {}: {} resolved plane taps for {} plane taps",
                k + 1,
                st.rtaps.len(),
                st.ptaps.len()
            )
        },
    );
    for (i, pt) in st.ptaps.iter().enumerate() {
        let inside = (pt.src as usize) < prev_rows
            && (pt.edge as usize) < prev_rows
            && (pt.dx.unsigned_abs() as usize) < w;
        p.obligation(
            inside && st.rtaps.get(i) == Some(&pt.resolve(w)),
            LintCode::UnsafePlaneEscapes,
            Some(i),
            || {
                format!(
                    "stage {} plane tap {i} ({pt:?}) escapes its {prev_rows}-row plane or \
                     resolves elsewhere",
                    k + 1
                )
            },
        );
    }
}

/// BS014: recompute the demanded lanes of every row from the stored rows
/// back ([`fuse::demanded`]) and require each row's computed window to
/// cover them, and every windowed input load to hold every lane a
/// demanded lane of the first stage reads through it.
fn prove_demand(p: &mut Prover, w: usize, f: &FusedKernel) {
    let demand = fuse::demanded(&f.stages, w);
    for (k, (st, d)) in f.stages.iter().zip(&demand).enumerate() {
        for (r, (rp, &m)) in st.rows.iter().zip(d).enumerate() {
            let [lo, hi] = rp.lanes.map(usize::from);
            let computed = fuse::lane_range_mask(lo.min(64), hi.min(64));
            p.obligation(m & !computed == 0, LintCode::UnsafeDemandUncovered, Some(r), || {
                format!(
                    "stage {} row {r}: demanded lanes {m:#x} outside its computed window {lo}..{hi}",
                    k + 1
                )
            });
        }
    }
    let (Some(first), Some(d0)) = (f.stages.first(), demand.first()) else {
        return;
    };
    for (r, (rp, &m)) in first.rows.iter().zip(d0).enumerate() {
        for op in &rp.tape {
            let Some(&Tap::Window { src, edge, dx }) =
                op.tap().and_then(|t| f.taps.get(t as usize))
            else {
                continue;
            };
            let (sm, em) = fuse::shift_masks(m, dx, w);
            p.obligation(
                sm & !src.mask() == 0 && em & !edge.mask() == 0,
                LintCode::UnsafeDemandUncovered,
                Some(r),
                || format!("stage 1 row {r}: a demanded lane reads outside a load window"),
            );
        }
    }
}

/// Per-row tape obligations: tap indices (BS004), stack discipline
/// (BS005), and fast-chain fidelity (BS011).
fn prove_tape(p: &mut Prover, r: usize, rp: &fuse::RowProg, ntaps: usize) {
    let mut sp: usize = 0;
    let mut max_sp: usize = 0;
    let mut underflow = false;
    for (i, op) in rp.tape.iter().enumerate() {
        if let Some(tap) = op.tap() {
            // BS004: the evaluators index the resolved-tap array with
            // this id unchecked in release builds.
            p.obligation(
                (tap as usize) < ntaps,
                LintCode::UnsafeTapIndexInvalid,
                Some(i),
                || format!("row {r} tape op {i}: tap {tap} outside the {ntaps}-entry table"),
            );
        }
        match op {
            fuse::TapeOp::Push => {
                sp += 1;
                max_sp = max_sp.max(sp);
            }
            fuse::TapeOp::PopAdd | fuse::TapeOp::PopFma { .. } => {
                if sp == 0 {
                    underflow = true;
                } else {
                    sp -= 1;
                }
            }
            _ => {}
        }
    }
    // BS005: the evaluators' fixed-size value stacks index `stack[sp]`
    // unchecked; the declared max_sp picks the (possibly stackless)
    // instantiation, so it must equal the true depth exactly.
    p.obligation(
        !underflow && max_sp <= MAX_STACK && rp.max_sp == max_sp,
        LintCode::UnsafeStackDiscipline,
        Some(r),
        || {
            format!(
                "row {r}: declared stack depth {} disagrees with the tape (depth {max_sp}, underflow: {underflow})",
                rp.max_sp
            )
        },
    );
    // BS011: the fast-chain evaluators execute `rp.fast` INSTEAD of the
    // tape; a divergent chain would read taps the tape obligations never
    // covered. Recompute it from the tape and demand equality. A stored
    // `None` where a chain exists merely forfeits the fast path — safe.
    if let Some(fr) = &rp.fast {
        p.obligation(
            fuse::fast_row(&rp.tape).as_ref() == Some(fr),
            LintCode::UnsafeFastRowDivergent,
            Some(r),
            || format!("row {r}: stored fast chain diverges from its tape"),
        );
    }
}
