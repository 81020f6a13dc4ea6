//! AVX2+FMA row backend (x86-64).
//!
//! This module and `super::neon` are the only places in the workspace
//! allowed to use `unsafe` (the crate downgrades the workspace-wide
//! `unsafe_code = "forbid"` to `deny` exactly for them; see
//! `crates/vm/Cargo.toml`). The safety argument has three layers:
//!
//! 1. [`Plan::compile`](super::Plan::compile) only emits programs the
//!    brick-safe prover ([`super::safe`]) accepts: every obligation the
//!    pointer code below relies on — tap rows inside their slab (BS001,
//!    with the per-run premise checks in `crate::exec`), neighbour and
//!    tap indices in range (BS002/BS004), seam shifts in `(0, w)`
//!    (BS003), value-stack discipline (BS005), stores inside the home
//!    block and non-overlapping (BS006/BS007), lane geometry (BS008),
//!    fast-chain fidelity (BS011), and for staged plans plane rows/taps
//!    inside their planes, written before read, covering every demanded
//!    lane (BS012–BS014) — is discharged *statically*, before a plan
//!    exists. Debug builds re-assert the per-block conditions
//!    ([`fuse::check_taps`]); release builds run on the proof alone.
//! 2. The safe entry points keep what the pointer code does not trust
//!    checked: every output row is a bounds-checked slice of the block,
//!    tap ids and stack slots are bounds-checked indices, and the
//!    row-granularity entry re-walks its tape ([`fuse::check_tape`])
//!    before any pointer is formed.
//! 3. [`Avx2Ops::new`] returns `None` unless `is_x86_feature_detected!`
//!    confirms `avx2` *and* `fma`, so the `#[target_feature]` functions are
//!    only ever reached on hosts that support them.
//!
//! `_mm256_fmadd_pd` computes the correctly-rounded IEEE-754 fused
//! multiply-add — the same value `f64::mul_add` produces lane-by-lane — so
//! this backend is bit-identical to the interpreter (ULP bound 0).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
    _mm256_setzero_pd, _mm256_storeu_pd, _mm256_stream_pd, _mm_prefetch, _mm_sfence, _MM_HINT_T0,
};

use super::fuse::{self, RTap, StageIo, TapeOp, MAX_STACK};
use super::RowOps;

/// AVX2+FMA rows. Constructible only when the host supports both features.
pub(crate) struct Avx2Ops(());

impl Avx2Ops {
    /// Detect and construct; `None` when the host lacks `avx2`/`fma`.
    pub(crate) fn new() -> Option<Avx2Ops> {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Some(Avx2Ops(()))
        } else {
            None
        }
    }
}

impl RowOps for Avx2Ops {
    fn eval_row(&self, tape: &[TapeOp], rtaps: &[RTap], raw: &[f64], w: usize, out: &mut [f64]) {
        assert_eq!(out.len(), w, "output row length mismatch");
        // `check_tape` walks the whole program first: every tap row it
        // will load is proven inside `raw`, shift distances are in
        // `(0, w)`, and the value stack stays within MAX_STACK — no
        // pointer below is formed otherwise. Straight-chain tapes (the
        // common case) dispatch to a stackless instantiation so no stack
        // array is materialized per row.
        let max_sp = fuse::check_tape(tape, rtaps, raw.len(), w);
        // SAFETY: bounds established by `check_tape`/the assert above;
        // avx2+fma verified by `Avx2Ops::new`. The width is dispatched to
        // a const chunk count so the accumulators live in ymm registers.
        unsafe {
            match (w, max_sp) {
                (16, 0) => eval_tape::<4, 0>(tape, rtaps, raw, out),
                (16, _) => eval_tape::<4, MAX_STACK>(tape, rtaps, raw, out),
                (32, 0) => eval_tape::<8, 0>(tape, rtaps, raw, out),
                (32, _) => eval_tape::<8, MAX_STACK>(tape, rtaps, raw, out),
                (64, 0) => eval_tape::<16, 0>(tape, rtaps, raw, out),
                (64, _) => eval_tape::<16, MAX_STACK>(tape, rtaps, raw, out),
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
        io: StageIo,
    ) {
        // The tap-bounds argument (every row base the tapes can load is
        // inside `raw`, shift distances in `(0, w)`) is discharged at
        // compile time by brick-safe (BS001–BS003, BS012 for plane taps)
        // plus the per-run premise checks in `crate::exec`; debug builds
        // re-assert it per block. The per-tape half (tap ids, stack
        // discipline) is enforced by ordinary bounds-checked indexing
        // inside `eval_tape`/`eval_fast`, so no pointer can escape the
        // slab even for a malformed tape.
        if cfg!(debug_assertions) {
            fuse::check_taps(rtaps, raw.len(), w);
        }
        // The block's input rows are short bursts (a few cache lines
        // each) scattered across up to 27 neighbour bricks — a pattern
        // the hardware prefetcher cannot follow across slab boundaries.
        // Issue one prefetch per cache line of every tap row up front so
        // the DRAM fetches overlap the first rows' arithmetic. (Plane
        // stages skip this: their operand is a cache-resident plane.)
        if io.prefetch {
            let touch = |base: usize| {
                let mut line = 0;
                while line < w {
                    // SAFETY: prefetch is a hint — it cannot fault — and
                    // `base + w <= raw.len()` holds by the BS001 proof
                    // plus the executor's per-run premise anyway.
                    unsafe {
                        _mm_prefetch::<_MM_HINT_T0>(raw.as_ptr().add(base + line).cast());
                    }
                    line += 8;
                }
            };
            for rt in rtaps {
                match *rt {
                    RTap::Direct { base } => touch(base),
                    RTap::Split { home, nbr, .. } => {
                        touch(home);
                        touch(nbr);
                    }
                    // window rows (arrays only) may start left of the
                    // slab; they are a few lanes each, not worth a hint
                    RTap::Window { .. } => {}
                }
            }
        }
        for rp in rows {
            let s = row_start(rp);
            let out_row = &mut out[s..s + w];
            if !rp.is_full(w) {
                // Plane rows narrowed to their demanded chunks (the `E±`
                // rows of a temporal kernel) are a few lanes each: the
                // safe portable evaluator handles them.
                let [lo, hi] = rp.lanes.map(usize::from);
                fuse::eval_lanes_portable(&rp.tape, rtaps, raw, w, lo, hi, out_row);
                continue;
            }
            // SAFETY: tap rows in-bounds by the BS001–BS003 proof plus
            // the executor's per-run premise (re-asserted above in debug
            // builds); `out_row.len() == w` by the slice; avx2+fma
            // verified by `Avx2Ops::new`. `max_sp` was proven equal to
            // the tape's true depth (BS005) — and a stale value would
            // only shift which instantiation runs, with the stack
            // indexing inside staying bounds-checked.
            unsafe {
                let st = io.stream;
                match (w, &rp.fast) {
                    (16, Some(fr)) => eval_fast::<4>(fr, rtaps, raw, out_row, st),
                    (32, Some(fr)) => eval_fast::<8>(fr, rtaps, raw, out_row, st),
                    (64, Some(fr)) => eval_fast::<16>(fr, rtaps, raw, out_row, st),
                    (16, None) if rp.max_sp == 0 => {
                        eval_tape::<4, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (16, None) => eval_tape::<4, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    (32, None) if rp.max_sp == 0 => {
                        eval_tape::<8, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (32, None) => eval_tape::<8, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    (64, None) if rp.max_sp == 0 => {
                        eval_tape::<16, 0>(&rp.tape, rtaps, raw, out_row)
                    }
                    (64, None) => eval_tape::<16, MAX_STACK>(&rp.tape, rtaps, raw, out_row),
                    _ => fuse::eval_row_portable(&rp.tape, rtaps, raw, w, out_row),
                }
            }
        }
        if io.stream {
            // Drain the write-combining buffers of `eval_fast`'s
            // non-temporal stores before the output chunk is handed back
            // (required for cross-thread visibility under a parallel
            // executor; a plain store fence, negligible once per block).
            // SAFETY: SFENCE is baseline SSE on x86-64, no memory operand.
            unsafe { _mm_sfence() };
        }
    }
}

/// Straight-chain row evaluator — the hot path for star stencils. Unlike
/// [`eval_tape`], the loop body is uniform (always a broadcast + `NC`
/// fused multiply-adds), so LLVM keeps all `NC` accumulators in ymm
/// registers for the whole row; the seam gather of split taps is
/// outlined cold to keep the hot loop's control flow trivial.
///
/// # Safety
/// Same contract as [`eval_tape`]: every tap row in-bounds for
/// `raw.len()`/`w` (the brick-safe proof BS001–BS003 plus the executor's
/// per-run premise, or an explicit [`fuse::check_taps`] run),
/// `out.len() == w == 4·NC`, avx2+fma present. Tap ids are
/// bounds-checked slice accesses.
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_fast<const NC: usize>(
    fr: &fuse::FastRow,
    rtaps: &[RTap],
    raw: &[f64],
    out: &mut [f64],
    stream: bool,
) {
    let p = raw.as_ptr();
    let mut acc = [_mm256_setzero_pd(); NC];
    match rtaps[fr.first as usize] {
        RTap::Direct { base } => {
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: lanes [4c, 4c+4) of row `base`, in-bounds by
                // BS001 + the per-run premise (this fn's contract).
                *a = unsafe { _mm256_loadu_pd(p.add(base + 4 * c)) };
            }
        }
        rt => {
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: split-row contract of `load_split` (BS001 rows
                // + BS003 shift), chunk c < NC.
                *a = unsafe { load_split::<NC>(rt, p, c) };
            }
        }
    }
    for &(t, coeff) in &fr.fmas {
        let cv = _mm256_set1_pd(coeff);
        match rtaps[t as usize] {
            RTap::Direct { base } => {
                for (c, a) in acc.iter_mut().enumerate() {
                    // SAFETY: lanes [4c, 4c+4) of row `base`, in-bounds
                    // by BS001 + the per-run premise.
                    let tv = unsafe { _mm256_loadu_pd(p.add(base + 4 * c)) };
                    *a = _mm256_fmadd_pd(tv, cv, *a);
                }
            }
            rt => {
                for (c, a) in acc.iter_mut().enumerate() {
                    // SAFETY: split-row contract of `load_split` (BS001
                    // rows + BS003 shift), chunk c < NC.
                    let tv = unsafe { load_split::<NC>(rt, p, c) };
                    *a = _mm256_fmadd_pd(tv, cv, *a);
                }
            }
        }
    }
    if let Some(s) = fr.scale {
        let sv = _mm256_set1_pd(s);
        for a in acc.iter_mut() {
            *a = _mm256_mul_pd(*a, sv);
        }
    }
    let op = out.as_mut_ptr();
    if stream && (op as usize).is_multiple_of(32) {
        // Non-temporal stores: the output is write-only during a sweep,
        // so bypassing the cache avoids the read-for-ownership — a third
        // of the sweep's DRAM traffic at full scale. Rows are whole
        // cache lines here (aligned, w ≥ 16). The caller fences once per
        // block (`_mm_sfence`) before the chunk is handed back. Plane
        // rows (`stream == false`) are re-read by the next stage and stay
        // cached.
        for (c, a) in acc.iter().enumerate() {
            // SAFETY: out.len() == 4·NC asserted by the caller; 32-byte
            // alignment checked above.
            unsafe { _mm256_stream_pd(op.add(4 * c), *a) };
        }
    } else {
        for (c, a) in acc.iter().enumerate() {
            // SAFETY: out.len() == 4·NC asserted by the caller.
            unsafe { _mm256_storeu_pd(op.add(4 * c), *a) };
        }
    }
}

/// One 4-lane chunk of any resolved tap: direct and in-row split chunks
/// are single loads; the rare mixed chunk at the home/neighbour seam and
/// window-tap chunks go through the cold outlined gathers.
///
/// # Safety
/// `check_taps` invariants (`base/home/nbr + w ≤ raw.len()`,
/// `0 < |dx| < w`; window lanes inside the slab) with `w = 4·NC` and
/// `c < NC`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn load_split<const NC: usize>(rt: RTap, p: *const f64, c: usize) -> __m256d {
    let w = (NC * 4) as isize;
    let (home, nbr, dx) = match rt {
        RTap::Split { home, nbr, dx } => (home, nbr, dx),
        // SAFETY: lanes [4c, 4c+4) of the validated row `base`.
        RTap::Direct { base } => return unsafe { _mm256_loadu_pd(p.add(base + 4 * c)) },
        // SAFETY: the window contract of `gather_window`.
        RTap::Window { .. } => return unsafe { gather_window(rt, p, w, c) },
    };
    let j0 = (4 * c) as isize + dx;
    // SAFETY: in every branch, lane j of `home` is read only for
    // 0 ≤ j < w; the wrapped lane j∓w ∈ [0, w) of `nbr` otherwise —
    // both rows in-bounds per this fn's contract (BS001 + premise).
    unsafe {
        if j0 >= 0 && j0 + 3 < w {
            _mm256_loadu_pd(p.add(home).offset(j0))
        } else if dx > 0 && j0 >= w {
            _mm256_loadu_pd(p.add(nbr).offset(j0 - w))
        } else if dx < 0 && j0 + 3 < 0 {
            _mm256_loadu_pd(p.add(nbr).offset(j0 + w))
        } else {
            gather_seam(p, home, nbr, w, j0)
        }
    }
}

/// Chunk `c` of an array window tap ([`RTap::Window`]): each lane reads
/// its row only inside the row's window, `0.0` elsewhere. Cold: window
/// taps carry the narrow `E±` edge rows of temporal kernels on dense
/// arrays, a few lanes per block.
///
/// # Safety
/// `rt` is a window tap whose in-window lanes lie inside the allocation
/// behind `p` (BS001 via the per-run array geometry premise); `w` is the
/// row width and `c < w/4`. Row bases are wrapping offsets — only the
/// index of an in-window lane is ever turned into a pointer.
#[target_feature(enable = "avx2,fma")]
#[cold]
#[inline(never)]
unsafe fn gather_window(rt: RTap, p: *const f64, w: isize, c: usize) -> __m256d {
    let RTap::Window {
        src,
        edge,
        dx,
        swin,
        ewin,
    } = rt
    else {
        unreachable!("gather_window takes window taps only")
    };
    let mut t = [0.0f64; 4];
    for (l, v) in t.iter_mut().enumerate() {
        let j = (4 * c + l) as isize + dx;
        let (row, win, j) = if j < 0 {
            (edge, ewin, j + w)
        } else if j >= w {
            (edge, ewin, j - w)
        } else {
            (src, swin, j)
        };
        if (win[0] as isize..win[1] as isize).contains(&j) {
            // SAFETY: an in-window lane, inside the slab per the contract.
            *v = unsafe { *p.add(row.wrapping_add(j as usize)) };
        }
    }
    // SAFETY: `t` is a local 4-lane buffer.
    unsafe { _mm256_loadu_pd(t.as_ptr()) }
}

/// Lane-by-lane gather of the one chunk per row that straddles the
/// home/neighbour seam. Cold + never inlined so the hot chunk loops above
/// stay branch-light and fully register-allocated.
///
/// # Safety
/// Same invariants as [`load_split`]; `j0` is the chunk's first lane
/// index relative to the home row.
#[target_feature(enable = "avx2,fma")]
#[cold]
#[inline(never)]
unsafe fn gather_seam(p: *const f64, home: usize, nbr: usize, w: isize, j0: isize) -> __m256d {
    let mut t = [0.0f64; 4];
    for (l, v) in t.iter_mut().enumerate() {
        let j = j0 + l as isize;
        // SAFETY: each lane reads inside the validated home or wrapped
        // neighbour row.
        *v = unsafe {
            if j < 0 {
                *p.add(nbr).offset(j + w)
            } else if j < w {
                *p.add(home).offset(j)
            } else {
                *p.add(nbr).offset(j - w)
            }
        };
    }
    // SAFETY: `t` is a local 4-lane buffer.
    unsafe { _mm256_loadu_pd(t.as_ptr()) }
}

/// Combine one accumulator chunk with one tap chunk; `MODE` selects the
/// operation at monomorphization time (0 = set, 1 = acc+t, 2 = t+acc,
/// 3 = fma(t,c,acc), 4 = fma(acc,c,t)) so the per-op dispatch happens
/// once per tape op, not once per chunk. Operand order is preserved
/// exactly — the bit-identity contract.
#[target_feature(enable = "avx2,fma")]
#[inline]
fn combine<const MODE: u8>(acc: __m256d, t: __m256d, cv: __m256d) -> __m256d {
    match MODE {
        0 => t,
        1 => _mm256_add_pd(acc, t),
        2 => _mm256_add_pd(t, acc),
        3 => _mm256_fmadd_pd(t, cv, acc),
        _ => _mm256_fmadd_pd(acc, cv, t),
    }
}

/// Apply one tap op across all `NC` accumulator chunks. Direct taps
/// compile to a fully unrolled run of contiguous loads; split (shifted)
/// taps branch per chunk, but only the one seam chunk per row gathers
/// lane by lane.
///
/// # Safety
/// `check_tape` invariants: `base/home/nbr + w ≤ raw.len()` and
/// `0 < |dx| < w`, with `w = 4·NC`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn apply<const NC: usize, const MODE: u8>(
    acc: &mut [__m256d; NC],
    rt: RTap,
    p: *const f64,
    cv: __m256d,
) {
    match rt {
        RTap::Direct { base } => {
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: lanes [4c, 4c+4) of the checked row `base`.
                let t = unsafe { _mm256_loadu_pd(p.add(base + 4 * c)) };
                *a = combine::<MODE>(*a, t, cv);
            }
        }
        RTap::Split { home, nbr, dx } => {
            let w = (NC * 4) as isize;
            for (c, a) in acc.iter_mut().enumerate() {
                let j0 = (4 * c) as isize + dx;
                // SAFETY: lane j of `home` is read only for 0 ≤ j < w and
                // the wrapped lane j∓w ∈ [0, w) of `nbr` otherwise; both
                // rows checked in-bounds.
                let t = unsafe {
                    if j0 >= 0 && j0 + 3 < w {
                        _mm256_loadu_pd(p.add(home).offset(j0))
                    } else if dx > 0 && j0 >= w {
                        _mm256_loadu_pd(p.add(nbr).offset(j0 - w))
                    } else if dx < 0 && j0 + 3 < 0 {
                        _mm256_loadu_pd(p.add(nbr).offset(j0 + w))
                    } else {
                        let mut t = [0.0f64; 4];
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
                        _mm256_loadu_pd(t.as_ptr())
                    }
                };
                *a = combine::<MODE>(*a, t, cv);
            }
        }
        RTap::Window { .. } => {
            for (c, a) in acc.iter_mut().enumerate() {
                // SAFETY: the window contract of `gather_window`, c < NC.
                let t = unsafe { gather_window(rt, p, (NC * 4) as isize, c) };
                *a = combine::<MODE>(*a, t, cv);
            }
        }
    }
}

/// In-register fused-tape interpreter: the accumulator row is `NC` ymm
/// vectors (`w = 4·NC`), every tap op streams its chunks straight from
/// the input slab, and nothing round-trips through memory until the final
/// row store. `SP` sizes the value stack (0 for straight-chain tapes, so
/// the common case touches no stack memory at all).
///
/// # Safety
/// Every tap row must be in-bounds for `raw.len()` and `w` — established
/// by the brick-safe proof (BS001–BS003) plus the executor's per-run
/// premise, or by an explicit [`fuse::check_taps`]/[`fuse::check_tape`]
/// run — `out.len() == w == 4·NC` must hold, and the host must support
/// avx2+fma. Tap ids and the `SP`-sized value stack are accessed with
/// bounds-checked indexing, so a malformed tape panics rather than
/// forming a stray pointer.
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_tape<const NC: usize, const SP: usize>(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    out: &mut [f64],
) {
    let p = raw.as_ptr();
    let zero = _mm256_setzero_pd();
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
                let cv = _mm256_set1_pd(c);
                for a in acc.iter_mut() {
                    *a = _mm256_mul_pd(*a, cv);
                }
            }
            // SAFETY: as for Set.
            TapeOp::Fma { tap, c } => unsafe {
                apply::<NC, 3>(&mut acc, rtaps[tap as usize], p, _mm256_set1_pd(c))
            },
            // SAFETY: as for Set.
            TapeOp::FmaRev { tap, c } => unsafe {
                apply::<NC, 4>(&mut acc, rtaps[tap as usize], p, _mm256_set1_pd(c))
            },
            TapeOp::Push => {
                stack[sp] = acc;
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for c in 0..NC {
                    acc[c] = _mm256_add_pd(stack[sp][c], acc[c]);
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                let cv = _mm256_set1_pd(c);
                for ch in 0..NC {
                    acc[ch] = _mm256_fmadd_pd(acc[ch], cv, stack[sp][ch]);
                }
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        // SAFETY: out.len() == 4·NC asserted by the caller.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(4 * c), *a) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_tape_matches_the_portable_evaluator_bitwise() {
        let Some(ops) = Avx2Ops::new() else {
            return; // host without avx2+fma
        };
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

    #[test]
    fn split_and_window_chunks_match_the_scalar_lanes_for_every_shift() {
        if Avx2Ops::new().is_none() {
            return; // host without avx2+fma
        }
        for w in [16usize, 32, 64] {
            let raw: Vec<f64> = (0..2 * w).map(|i| i as f64 + 0.5).collect();
            for dx in -(w as isize - 1)..w as isize {
                let window = |swin, ewin| RTap::Window {
                    src: 0,
                    edge: w,
                    dx,
                    swin,
                    ewin,
                };
                let wu = w as u8;
                let mut taps = vec![window([1, wu - 2], [2, 5]), window([0, wu], [wu - 4, wu])];
                if dx != 0 {
                    taps.push(RTap::Split {
                        home: 0,
                        nbr: w,
                        dx,
                    });
                }
                for rt in taps {
                    for c in 0..w / 4 {
                        let mut got = [0.0f64; 4];
                        // SAFETY: both rows lie inside `raw`, 0 < |dx| < w
                        // for split taps, window lanes inside the rows,
                        // c < w/4; avx2+fma checked above.
                        unsafe {
                            let v = match w {
                                16 => load_split::<4>(rt, raw.as_ptr(), c),
                                32 => load_split::<8>(rt, raw.as_ptr(), c),
                                _ => load_split::<16>(rt, raw.as_ptr(), c),
                            };
                            _mm256_storeu_pd(got.as_mut_ptr(), v);
                        }
                        for (l, g) in got.iter().enumerate() {
                            let want = fuse::tap_lane(&rt, &raw, w, 4 * c + l);
                            assert_eq!(*g, want, "w={w} {rt:?} lane {}", 4 * c + l);
                        }
                    }
                }
            }
        }
    }

    // Micro-benchmark for the fused evaluator, kept out of normal runs:
    // `cargo test -p brick-vm --release -- --ignored --nocapture eval_row_micro`
    #[test]
    #[ignore]
    fn eval_row_micro() {
        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        let w = 32usize;
        let raw: Vec<f64> = (0..64 * w).map(|i| 0.173 * (i as f64) - 11.0).collect();
        // star-7-shaped tape: 7 direct/split taps, straight chain
        let rtaps: Vec<RTap> = (0..7)
            .map(|t| {
                if t < 5 {
                    RTap::Direct { base: t * w }
                } else {
                    RTap::Split {
                        home: t * w,
                        nbr: (t + 1) * w,
                        dx: if t == 5 { 1 } else { -1 },
                    }
                }
            })
            .collect();
        let tape = [
            TapeOp::Set { tap: 0 },
            TapeOp::Fma { tap: 1, c: 0.1 },
            TapeOp::Fma { tap: 2, c: 0.2 },
            TapeOp::Fma { tap: 3, c: 0.3 },
            TapeOp::Fma { tap: 4, c: 0.4 },
            TapeOp::Fma { tap: 5, c: 0.5 },
            TapeOp::Fma { tap: 6, c: 0.6 },
        ];
        let mut out = vec![0.0; w];
        let iters = 4_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            ops.eval_row(&tape, &rtaps, &raw, w, &mut out);
            std::hint::black_box(&mut out);
        }
        let dt = t0.elapsed().as_secs_f64();
        let rows_per_s = iters as f64 / dt;
        println!(
            "eval_row micro: {:.1} Mrows/s ({:.1} Mpts/s, {:.0} cycles/row at 2.1GHz)",
            rows_per_s / 1e6,
            rows_per_s * w as f64 / 1e6,
            2.1e9 / rows_per_s
        );
    }

    // Same, but through the block path on a real fused star-7 kernel —
    // the executor's hot loop minus grid traffic.
    // `cargo test -p brick-vm --release -- --ignored --nocapture eval_block_micro`
    #[test]
    #[ignore]
    fn eval_block_micro() {
        use brick_codegen::{generate, CodegenOptions, LayoutKind};
        use brick_dsl::shape::StencilShape;

        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let k = generate(&st, &b, LayoutKind::Brick, 32, CodegenOptions::default()).unwrap();
        let fused = fuse::fuse(&k).expect("star-7 fuses");
        let rows = fused.out_rows();
        let w = k.width;
        let vol = k.block.bx * k.block.by * k.block.bz;
        let raw: Vec<f64> = (0..32 * vol).map(|i| 0.173 * (i as f64) - 11.0).collect();
        // resolve every tap into the middle of the buffer, mimicking a
        // brick whose neighbours are all allocated
        let rtaps: Vec<RTap> = fused
            .taps()
            .iter()
            .enumerate()
            .map(|(i, t)| match *t {
                fuse::Tap::Direct { .. } => RTap::Direct {
                    base: (i % 16) * vol / 16,
                },
                fuse::Tap::Shifted { dx, .. } => RTap::Split {
                    home: (i % 16) * vol / 16,
                    nbr: 16 * vol + (i % 16) * w,
                    dx: dx as isize,
                },
                fuse::Tap::Window { .. } => unreachable!("T=1 star-7 has no window taps"),
            })
            .collect();
        let mut out = vec![0.0; vol];
        let iters = 400_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            ops.eval_block(
                rows,
                &rtaps,
                &raw,
                w,
                &mut out,
                |rp| rp.out_off,
                StageIo::SINGLE,
            );
            std::hint::black_box(&mut out);
        }
        let dt = t0.elapsed().as_secs_f64();
        let rows = rows.len() as f64;
        let rows_per_s = iters as f64 * rows / dt;
        println!(
            "eval_block micro: {:.1} Mrows/s ({:.1} Mpts/s, {:.0} cycles/row at 2.1GHz)",
            rows_per_s / 1e6,
            rows_per_s * w as f64 / 1e6,
            2.1e9 / rows_per_s
        );

        // per-brick resolve cost, the other half of the executor loop
        let row27: [u32; 27] = std::array::from_fn(|i| i as u32);
        let mut rbuf = vec![RTap::Direct { base: 0 }; fused.taps_len()];
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            fused.resolve_brick(&row27, 0, &mut rbuf);
            std::hint::black_box(&mut rbuf);
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "resolve micro: {:.0} cycles/brick ({:.1} cycles/row)",
            2.1e9 * dt / iters as f64,
            2.1e9 * dt / (iters as f64 * rows)
        );
    }

    // Per-stage cost of a fused T=2 star-7 block next to the T=1 block,
    // in cache (best of 5 trials): the compute half of the staged
    // executor, stage by stage.
    // `cargo test -p brick-vm --release -- --ignored --nocapture stage_micro`
    #[test]
    #[ignore]
    fn stage_micro() {
        use brick_codegen::{generate, CodegenOptions, LayoutKind};
        use brick_dsl::shape::StencilShape;

        let Some(ops) = Avx2Ops::new() else {
            return;
        };
        let st = StencilShape::star(1).stencil();
        let b = st.default_bindings();
        let fused_t = |t: u32| {
            let opts = CodegenOptions {
                temporal_degree: t,
                ..CodegenOptions::default()
            };
            fuse::fuse(&generate(&st, &b, LayoutKind::Brick, 32, opts).unwrap()).unwrap()
        };
        let (f1, f2) = (fused_t(1), fused_t(2));
        let w = 32;
        let vol = w * 16;
        // 27 bricks, brick i at slot i: every neighbour allocated
        let raw: Vec<f64> = (0..27 * vol)
            .map(|i| 0.173 * (i % 977) as f64 - 11.0)
            .collect();
        let row27: [u32; 27] = std::array::from_fn(|i| i as u32);
        let iters = 50_000u64;
        // best-of-5 cycles per call at 2.1 GHz
        let cycles = |f: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for _ in 0..iters {
                        f();
                    }
                    2.1e9 * t0.elapsed().as_secs_f64() / iters as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let mut out = vec![0.0; vol];
        let mut rt1 = vec![RTap::Direct { base: 0 }; f1.taps_len()];
        let resolve1 = cycles(&mut || {
            f1.resolve_brick(&row27, vol, &mut rt1);
            std::hint::black_box(&mut rt1);
        });
        let t1 = cycles(&mut || {
            ops.eval_block(
                f1.out_rows(),
                &rt1,
                &raw,
                w,
                &mut out,
                |rp| rp.out_off,
                StageIo::SINGLE,
            );
            std::hint::black_box(&mut out);
        });
        let mut rt2 = vec![RTap::Direct { base: 0 }; f2.taps_len()];
        let resolve2 = cycles(&mut || {
            f2.resolve_brick(&row27, vol, &mut rt2);
            std::hint::black_box(&mut rt2);
        });
        let (s1, s2) = (&f2.stages[0], &f2.stages[1]);
        let mut planes = vec![0.0; f2.plane_len(w)];
        let io1 = StageIo {
            prefetch: true,
            stream: false,
        };
        let (full, part): (Vec<_>, Vec<_>) = s1.rows.iter().cloned().partition(|rp| rp.is_full(w));
        let stage = |rows: &[fuse::RowProg], planes: &mut Vec<f64>| {
            cycles(&mut || {
                ops.eval_block(rows, &rt2, &raw, w, planes, |rp| rp.out_off, io1);
                std::hint::black_box(&mut *planes);
            })
        };
        let (c_full, c_part) = (stage(&full, &mut planes), stage(&part, &mut planes));
        let io2 = StageIo {
            prefetch: false,
            stream: true,
        };
        let c2 = cycles(&mut || {
            ops.eval_block(
                &s2.rows,
                &s2.rtaps,
                &planes,
                w,
                &mut out,
                |rp| rp.out_off,
                io2,
            );
            std::hint::black_box(&mut out);
        });
        println!(
            "T=1 block: resolve {resolve1:.0} + {} rows {t1:.0} cycles",
            f1.out_rows().len()
        );
        println!(
            "T=2 block: resolve {resolve2:.0} ({} taps) + stage 1 {} whole rows {c_full:.0} \
             + {} narrowed rows {c_part:.0} + stage 2 {} rows {c2:.0} cycles",
            f2.taps_len(),
            full.len(),
            part.len(),
            s2.rows.len()
        );
    }
}
