//! NEON row backend (aarch64).
//!
//! Mirrors [`super::avx2`] with 2-lane `float64x2_t` vectors; see that
//! module for the three-layer safety argument (brick-safe compile-time
//! proof, bounds-checked safe entry points, feature-gated construction).
//! NEON is part of the aarch64 baseline, so detection is trivially true
//! on this architecture. `vfmaq_f64` is the correctly-rounded IEEE-754 fused
//! multiply-add — bit-identical to `f64::mul_add` — so this backend is
//! exact against the interpreter (ULP bound 0).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::{
    float64x2_t, vaddq_f64, vdupq_n_f64, vfmaq_f64, vld1q_f64, vmovq_n_f64, vmulq_f64, vst1q_f64,
};

use super::fuse::{self, RTap, TapeOp, MAX_STACK};
use super::RowOps;

/// NEON rows. On aarch64 the feature is baseline, so construction is
/// infallible there (the type does not exist on other architectures).
pub(crate) struct NeonOps(());

impl NeonOps {
    /// Construct the backend (NEON is baseline on aarch64).
    pub(crate) fn new() -> NeonOps {
        NeonOps(())
    }
}

impl RowOps for NeonOps {
    fn eval_row(&self, tape: &[TapeOp], rtaps: &[RTap], raw: &[f64], w: usize, out: &mut [f64]) {
        assert_eq!(out.len(), w, "output row length mismatch");
        // Same contract as the AVX2 evaluator: check_tape proves every
        // row the program loads is inside `raw` before any pointer forms,
        // and its returned stack depth picks a stackless instantiation
        // for straight-chain tapes.
        let max_sp = fuse::check_tape(tape, rtaps, raw.len(), w);
        // SAFETY: bounds established above; NEON is aarch64 baseline.
        unsafe {
            match (w, max_sp) {
                (16, 0) => eval_tape::<8, 0>(tape, rtaps, raw, out),
                (16, _) => eval_tape::<8, MAX_STACK>(tape, rtaps, raw, out),
                (32, 0) => eval_tape::<16, 0>(tape, rtaps, raw, out),
                (32, _) => eval_tape::<16, MAX_STACK>(tape, rtaps, raw, out),
                (64, 0) => eval_tape::<32, 0>(tape, rtaps, raw, out),
                (64, _) => eval_tape::<32, MAX_STACK>(tape, rtaps, raw, out),
                _ => fuse::eval_row_portable(tape, rtaps, raw, w, out),
            }
        }
    }

    fn eval_block<F: Fn(&fuse::RowProg) -> usize>(
        &self,
        rows: &[fuse::RowProg],
        rtaps: &[RTap],
        raw: &[f64],
        w: usize,
        out: &mut [f64],
        row_start: F,
        _io: fuse::StageIo,
    ) {
        // Same split as the AVX2 backend: tap-table bounds hold by the
        // brick-safe proof (BS001–BS003, BS012) plus the executor's
        // per-run premise, re-asserted here in debug builds; tap ids and
        // stack depth stay bounds-checked per op. Plain stores only, so
        // the stage's streaming hint has nothing to select.
        if cfg!(debug_assertions) {
            fuse::check_taps(rtaps, raw.len(), w);
        }
        for rp in rows {
            let s = row_start(rp);
            let out_row = &mut out[s..s + w];
            if !rp.is_full(w) {
                // Plane rows narrowed to their demanded chunks are a few
                // lanes each: the safe portable evaluator handles them.
                let [lo, hi] = rp.lanes.map(usize::from);
                fuse::eval_lanes_portable(&rp.tape, rtaps, raw, w, lo, hi, out_row);
                continue;
            }
            // SAFETY: tap rows in-bounds by the BS001–BS003 proof plus
            // the executor's per-run premise (re-asserted above in debug
            // builds); `out_row.len() == w` by the slice; NEON is
            // aarch64 baseline.
            unsafe {
                match (w, &rp.fast) {
                    (16, Some(fr)) => eval_fast::<8>(fr, rtaps, raw, out_row),
                    (32, Some(fr)) => eval_fast::<16>(fr, rtaps, raw, out_row),
                    (64, Some(fr)) => eval_fast::<32>(fr, rtaps, raw, out_row),
                    (16, None) if rp.max_sp == 0 => {
                        eval_tape::<8, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (16, None) => eval_tape::<8, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    (32, None) if rp.max_sp == 0 => {
                        eval_tape::<16, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (32, None) => eval_tape::<16, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    (64, None) if rp.max_sp == 0 => {
                        eval_tape::<32, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (64, None) => eval_tape::<32, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    _ => fuse::eval_row_portable(&rp.tape, rtaps, raw, w, out_row),
                }
            }
        }
    }
}

/// Combine one accumulator chunk with one tap chunk; mirrors the AVX2
/// `combine` (0 = set, 1 = acc+t, 2 = t+acc, 3 = acc+t·c fused,
/// 4 = t+acc·c fused). Operand order is preserved exactly.
#[target_feature(enable = "neon")]
#[inline]
fn combine<const MODE: u8>(acc: float64x2_t, t: float64x2_t, cv: float64x2_t) -> float64x2_t {
    match MODE {
        0 => t,
        1 => vaddq_f64(acc, t),
        2 => vaddq_f64(t, acc),
        // vfmaq_f64(a, b, c) = a + b·c, fused
        3 => vfmaq_f64(acc, t, cv),
        _ => vfmaq_f64(t, acc, cv),
    }
}

/// Apply one tap op across all `NC` accumulator chunks; mirrors the AVX2
/// `apply` with 2-lane chunks.
///
/// # Safety
/// `check_tape` invariants: `base/home/nbr + w ≤ raw.len()` and
/// `0 < |dx| < w`, with `w = 2·NC`.
#[target_feature(enable = "neon")]
#[inline]
unsafe fn apply<const NC: usize, const MODE: u8>(
    acc: &mut [float64x2_t; NC],
    rt: RTap,
    p: *const f64,
    cv: float64x2_t,
) {
    match rt {
        RTap::Direct { base } => {
            for c in 0..NC {
                // SAFETY: lanes [2c, 2c+2) of the checked row `base`.
                let t = unsafe { vld1q_f64(p.add(base + 2 * c)) };
                acc[c] = combine::<MODE>(acc[c], t, cv);
            }
        }
        RTap::Split { home, nbr, dx } => {
            let w = (NC * 2) as isize;
            for c in 0..NC {
                let j0 = (2 * c) as isize + dx;
                // SAFETY: lane j of `home` is read only for 0 ≤ j < w and
                // the wrapped lane j∓w ∈ [0, w) of `nbr` otherwise; both
                // rows checked in-bounds.
                let t = unsafe {
                    if j0 >= 0 && j0 + 1 < w {
                        vld1q_f64(p.add(home).offset(j0))
                    } else if dx > 0 && j0 >= w {
                        vld1q_f64(p.add(nbr).offset(j0 - w))
                    } else if dx < 0 && j0 + 1 < 0 {
                        vld1q_f64(p.add(nbr).offset(j0 + w))
                    } else {
                        let mut t = [0.0f64; 2];
                        for (l, v) in t.iter_mut().enumerate() {
                            let j = j0 + l as isize;
                            *v = if j < 0 {
                                *p.add(nbr).offset(j + w)
                            } else if j < w {
                                *p.add(home).offset(j)
                            } else {
                                *p.add(nbr).offset(j - w)
                            };
                        }
                        vld1q_f64(t.as_ptr())
                    }
                };
                acc[c] = combine::<MODE>(acc[c], t, cv);
            }
        }
        RTap::Window {
            src,
            edge,
            dx,
            swin,
            ewin,
        } => {
            let w = (NC * 2) as isize;
            for c in 0..NC {
                let mut t = [0.0f64; 2];
                for (l, v) in t.iter_mut().enumerate() {
                    let j = (2 * c + l) as isize + dx;
                    let (row, win, j) = if j < 0 {
                        (edge, ewin, j + w)
                    } else if j >= w {
                        (edge, ewin, j - w)
                    } else {
                        (src, swin, j)
                    };
                    if (win[0] as isize..win[1] as isize).contains(&j) {
                        // SAFETY: an in-window lane of a window tap,
                        // inside the slab by BS001 (array geometry
                        // premise); bases are wrapping offsets, so only
                        // this in-window index forms a pointer.
                        *v = unsafe { *p.add(row.wrapping_add(j as usize)) };
                    }
                }
                // SAFETY: `t` is a local 2-lane buffer.
                let t = unsafe { vld1q_f64(t.as_ptr()) };
                acc[c] = combine::<MODE>(acc[c], t, cv);
            }
        }
    }
}

/// Straight-chain fast path: mirrors the AVX2 `eval_fast` with 2-lane
/// chunks. [`fuse::FastRow`] is a `Set · Fma* · Mul?` chain, so the body
/// is pure unrolled FMA with no per-op dispatch — the accumulators stay
/// in registers for the whole row. Plain stores only: A64 streaming
/// stores (STNP) have no stable intrinsic, and this backend cannot be
/// perf-validated on the x86 reference host anyway.
///
/// # Safety
/// Every tap row must be in-bounds for `raw.len()` and `w` — established
/// by the brick-safe proof (BS001–BS003) plus the executor's per-run
/// premise, or by an explicit [`fuse::check_taps`] run — and
/// `out.len() == w == 2·NC` must hold. Tap ids are accessed with
/// bounds-checked indexing.
#[target_feature(enable = "neon")]
unsafe fn eval_fast<const NC: usize>(
    fr: &fuse::FastRow,
    rtaps: &[RTap],
    raw: &[f64],
    out: &mut [f64],
) {
    let p = raw.as_ptr();
    let zero = vmovq_n_f64(0.0);
    let mut acc = [zero; NC];
    // SAFETY: tap rows in-bounds per this fn's contract (BS001–BS003 +
    // premise); tap id bounds-checked by the slice index.
    unsafe { apply::<NC, 0>(&mut acc, rtaps[fr.first as usize], p, zero) };
    for &(t, coeff) in &fr.fmas {
        // SAFETY: as above.
        unsafe { apply::<NC, 3>(&mut acc, rtaps[t as usize], p, vdupq_n_f64(coeff)) };
    }
    if let Some(s) = fr.scale {
        let sv = vdupq_n_f64(s);
        for a in acc.iter_mut() {
            *a = vmulq_f64(*a, sv);
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 2·NC asserted by the caller.
        unsafe { vst1q_f64(out.as_mut_ptr().add(2 * c), *a) };
    }
}

/// In-register fused-tape interpreter over `NC` 2-lane vectors
/// (`w = 2·NC`); mirrors the AVX2 evaluator. `SP` sizes the value stack
/// (0 for straight-chain tapes).
///
/// # Safety
/// Every tap row must be in-bounds for `raw.len()` and `w` — established
/// by the brick-safe proof (BS001–BS003) plus the executor's per-run
/// premise, or by an explicit [`fuse::check_taps`]/[`fuse::check_tape`]
/// run — and `out.len() == w == 2·NC` must hold. Tap ids and the
/// `SP`-sized value stack are accessed with bounds-checked indexing, so
/// a malformed tape panics rather than forming a stray pointer.
#[target_feature(enable = "neon")]
unsafe fn eval_tape<const NC: usize, const SP: usize>(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    out: &mut [f64],
) {
    let p = raw.as_ptr();
    let zero = vmovq_n_f64(0.0);
    let mut acc = [zero; NC];
    let mut stack = [[zero; NC]; SP];
    let mut sp = 0usize;
    for op in tape {
        match *op {
            // SAFETY: tap rows in-bounds per this fn's contract
            // (BS001–BS003 + premise); tap id bounds-checked here.
            TapeOp::Set { tap } => unsafe {
                apply::<NC, 0>(&mut acc, rtaps[tap as usize], p, zero)
            },
            // SAFETY: as for Set.
            TapeOp::AddTap { tap } => unsafe {
                apply::<NC, 1>(&mut acc, rtaps[tap as usize], p, zero)
            },
            // SAFETY: as for Set.
            TapeOp::TapAdd { tap } => unsafe {
                apply::<NC, 2>(&mut acc, rtaps[tap as usize], p, zero)
            },
            TapeOp::Mul { c } => {
                let cv = vdupq_n_f64(c);
                for a in acc.iter_mut() {
                    *a = vmulq_f64(*a, cv);
                }
            }
            // SAFETY: as for Set.
            TapeOp::Fma { tap, c } => unsafe {
                apply::<NC, 3>(&mut acc, rtaps[tap as usize], p, vdupq_n_f64(c))
            },
            // SAFETY: as for Set.
            TapeOp::FmaRev { tap, c } => unsafe {
                apply::<NC, 4>(&mut acc, rtaps[tap as usize], p, vdupq_n_f64(c))
            },
            TapeOp::Push => {
                stack[sp] = acc;
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for c in 0..NC {
                    acc[c] = vaddq_f64(stack[sp][c], acc[c]);
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                let cv = vdupq_n_f64(c);
                for ch in 0..NC {
                    // pop + acc·c, fused
                    acc[ch] = vfmaq_f64(stack[sp][ch], acc[ch], cv);
                }
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 2·NC asserted by the caller.
        unsafe { vst1q_f64(out.as_mut_ptr().add(2 * c), *a) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_tape_matches_the_portable_evaluator_bitwise() {
        let ops = NeonOps::new();
        for w in [16usize, 32, 64] {
            let raw: Vec<f64> = (0..4 * w).map(|i| 0.173 * (i as f64) - 11.0).collect();
            let rtaps = [
                RTap::Direct { base: 0 },
                RTap::Split {
                    home: w,
                    nbr: 2 * w,
                    dx: 3,
                },
                RTap::Split {
                    home: w,
                    nbr: 3 * w,
                    dx: -5,
                },
            ];
            let tape = [
                TapeOp::Set { tap: 1 },
                TapeOp::TapAdd { tap: 0 },
                TapeOp::Push,
                TapeOp::Set { tap: 2 },
                TapeOp::Mul { c: 0.75 },
                TapeOp::PopFma { c: -1.25 },
                TapeOp::Fma { tap: 0, c: 2.5 },
                TapeOp::FmaRev { tap: 2, c: 0.5 },
                TapeOp::AddTap { tap: 1 },
            ];
            let mut want = vec![0.0; w];
            fuse::eval_row_portable(&tape, &rtaps, &raw, w, &mut want);
            let mut got = vec![0.0; w];
            ops.eval_row(&tape, &rtaps, &raw, w, &mut got);
            for i in 0..w {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "w={w} lane {i}");
            }
        }
    }
}
