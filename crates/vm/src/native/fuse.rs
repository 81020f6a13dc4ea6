//! Fused-row fast path: output rows evaluated straight from the grid.
//!
//! Executing the IR op by op, as the interpreter does, materializes every
//! intermediate register as a row in an in-memory register file. For
//! low-arithmetic kernels (the 7-point star moves ~13 rows through the
//! file per output row it stores) that movement — plus the per-op
//! dispatch and the per-row neighbour resolution — dominates the wall
//! time, and a SIMD backend that only accelerated the arithmetic ops
//! would barely move the total. This module is the only compiled form of
//! a kernel, and it removes the register file from the hot loop entirely:
//!
//! 1. **Symbolic analysis** ([`fuse`], compile time): the verified IR is
//!    re-executed over *symbolic* register values. A full-row load is the
//!    tap `Direct(rx, ry, rz)`; a `ShiftX` of a home row whose edge row
//!    provably covers the wrapped lanes becomes `Shifted(ry, rz, dx)` —
//!    lane `i` reads grid element `x0 + i + dx`, with no edge row at
//!    runtime; any other shift of loaded rows, or a lane-windowed edge
//!    row used as a value, becomes a [`Tap::Window`]. Arithmetic builds
//!    an expression tree over those leaves.
//! 2. **Stages** (temporal kernels): a *computed* row that a `ShiftX`
//!    consumes, or that a later level reads as a finished row, is
//!    **materialized** instead of inlined — it becomes a row program of
//!    its own, written into a small per-block *plane*, and its readers
//!    get a [`PlaneTap`] (the `(src, edge, dx)` shift exactly as the IR
//!    wrote it). Each fused level is one [`Stage`]: stage 1 reads the
//!    input slab, stage `k` reads plane `k − 1`, the last stage writes
//!    the output block. Inlining instead would expand a `T = 2` star-7
//!    row into a 49-leaf tree and lose the shared rows. A backward
//!    **demanded-lane** pass then narrows every plane row to the 4-lane
//!    chunks some stored lane depends on: the `E±` rows of DESIGN.md §14
//!    compute `⌈h_s/4⌉` chunks, not the whole row. Anything the analysis
//!    cannot prove equivalent (a width that is not the block's x extent,
//!    an edge row consumed outside its window, a shift mixing levels, …)
//!    aborts fusion with a reason
//!    ([`Plan::fallback_reason`](super::Plan::fallback_reason)) and the
//!    kernel runs on the interpreter — fusion is an optimization, never
//!    a semantics change.
//! 3. **Tape linearization**: each row's tree is flattened to a short
//!    accumulator program ([`TapeOp`]) over *taps* — the distinct rows
//!    the tree reads. Operand order of every `Add`/`Mul`/`Fma` is
//!    preserved exactly (left/right variants, a tiny value stack for
//!    two-sided subtrees), so each demanded lane computes the identical
//!    floating-point expression the interpreter does: the fused path
//!    stays bit-identical to the oracle (ULP bound 0).
//! 4. **Tap pre-resolution**: for brick layouts every stage-1 tap's
//!    neighbour table index and in-brick offset are computed here, once;
//!    per block the executor does one table read and one multiply-add per
//!    tap — no `div_euclid` chains in the hot loop. Array taps collapse
//!    to a single stride delta per run ([`Tap`] is layout-independent;
//!    the executors in `crate::exec` own the stride math). Plane taps
//!    are constant offsets into the previous plane, resolved here.
//!
//! Everything in this module is safe code. The preconditions the SIMD
//! evaluators in `super::avx2`/`super::neon` rely on are discharged
//! *statically* by the brick-safe prover ([`super::safe`]) at
//! `Plan::compile` time (BS001–BS014), plus one cheap per-run premise
//! check in `crate::exec` (slab length and adjacency-table validity);
//! [`check_taps`]/[`check_tape`] remain as the debug-build and test-entry
//! restatements of the same conditions. The portable evaluator below is
//! ordinary checked Rust and doubles as the reference for what a tape
//! computes.

use brick_codegen::{LayoutKind, VOp, VectorKernel};
use brick_core::{neighbor_index, BrickDims, NO_BRICK};

use super::RowOps;

/// Widest vector width the fixed row buffers accommodate (the generated
/// kernels use 16/32/64).
pub(crate) const MAX_W: usize = 64;

/// Deepest value stack a row tape may use; trees needing more bail out
/// of fusion at compile time.
pub(crate) const MAX_STACK: usize = 4;

/// Longest tape per row; guards against pathological expression DAGs
/// re-expanding into huge trees.
const MAX_TAPE: usize = 1024;

/// Most plane rows (summed over every intermediate stage) a fused kernel
/// may materialize; bounds the per-worker plane buffer.
const MAX_PLANE_ROWS: usize = 4096;

/// Deepest stage chain (fused levels) the analysis accepts.
const MAX_STAGES: usize = 16;

/// Lane granularity of a row's computed window: one AVX2 vector (two
/// NEON vectors).
pub(crate) const CHUNK: usize = 4;

/// A lane-windowed input row: lanes `[lane0, lane0 + lanes)` of grid row
/// `(x0 + rx·w, y0 + ry, z0 + rz)` hold data; the interpreter zero-fills
/// the rest of the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seg {
    pub(crate) rx: i8,
    pub(crate) ry: i16,
    pub(crate) rz: i16,
    pub(crate) lane0: u8,
    pub(crate) lanes: u8,
}

impl Seg {
    fn full(&self, w: usize) -> bool {
        self.lane0 == 0 && self.lanes as usize == w
    }

    /// The window as a lane mask.
    pub(crate) fn mask(&self) -> u64 {
        lane_range_mask(
            self.lane0 as usize,
            self.lane0 as usize + self.lanes as usize,
        )
    }
}

/// A distinct input row a stage-1 row program reads, in kernel-relative
/// coordinates (layout-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tap {
    /// Lane `i` reads grid element `(x0 + rx·w + i, y0 + ry, z0 + rz)`.
    Direct { rx: i8, ry: i16, rz: i16 },
    /// Lane `i` reads grid element `(x0 + i + dx, y0 + ry, z0 + rz)` —
    /// a `ShiftX` folded into its loads, `0 < |dx| < w`.
    Shifted { ry: i16, rz: i16, dx: i16 },
    /// A level-0 operand built from lane-windowed loads — an edge row
    /// used as a value, or a shift of one (the `E±` wrap-back and
    /// self-edge shifts of temporal kernels): lane `i` reads lane
    /// `j = i + dx` of `src` when `0 ≤ j < w`, else lane `j ∓ w` of
    /// `edge`. Only lanes inside each row's window are defined; the
    /// demanded-lane pass proves no stored lane reads outside them
    /// (BS014). Brick layouts therefore read the whole rows (always
    /// in-slab); array layouts read exactly the windows, zero elsewhere
    /// (their padded slab ends at the halo).
    Window { src: Seg, edge: Seg, dx: i16 },
}

/// A [`Tap`] pre-resolved against the brick adjacency geometry: the
/// 27-entry neighbour index (or indices) and the in-brick row offset.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BrickTap {
    /// Whole row in one brick.
    Direct { nidx: usize, off: usize },
    /// Shifted row: lane `i` reads lane `i + dx` of the `hnidx` brick's
    /// row when in range, else the wrapped lane of the `nnidx` brick's
    /// row (both at the same `(ry, rz)` row offset `off`).
    Split {
        hnidx: usize,
        nnidx: usize,
        off: usize,
        dx: isize,
    },
}

/// A tap resolved to concrete bases in the stage's operand slab (the
/// input grid for stage 1, the previous plane after), per block/tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RTap {
    /// Lane `i` reads `raw[base + i]`.
    Direct { base: usize },
    /// Lane `i` reads `raw[home + i + dx]` when `0 ≤ i + dx < w`, else
    /// the wrapped lane `i + dx ∓ w` of the `nbr` row.
    Split { home: usize, nbr: usize, dx: isize },
    /// [`Tap::Window`] on a dense array: as `Split` with `home = src`,
    /// `nbr = edge`, but a lane outside its row's window `[lo, hi)`
    /// reads `0.0` and touches no memory. A row base may lie left of the
    /// padded slab (an `rx = −1` row of the first tile, whose window
    /// covers only its last lanes), so bases are wrapping offsets: only
    /// `base + j` for an in-window lane `j` is a real index.
    Window {
        src: usize,
        edge: usize,
        dx: isize,
        swin: [u8; 2],
        ewin: [u8; 2],
    },
}

/// A read of the previous stage's plane: lane `i` reads lane `i + dx` of
/// plane row `src` when in range, else the wrapped lane of row `edge` —
/// the IR's `ShiftX(src, edge, dx)` verbatim (`dx = 0`: row `src` as is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlaneTap {
    pub(crate) src: u32,
    pub(crate) edge: u32,
    pub(crate) dx: i16,
}

impl PlaneTap {
    /// The constant resolution of this tap into a plane of `w`-wide rows.
    pub(crate) fn resolve(&self, w: usize) -> RTap {
        let (home, nbr) = (self.src as usize * w, self.edge as usize * w);
        if self.dx == 0 {
            RTap::Direct { base: home }
        } else {
            RTap::Split {
                home,
                nbr,
                dx: self.dx as isize,
            }
        }
    }
}

/// One instruction of a row program. `acc` is the current row value; tap
/// operands load lanes through the resolved [`RTap`] table. The left/
/// right and reversed variants preserve the IR's operand order exactly —
/// the bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TapeOp {
    /// `acc = tap`.
    Set { tap: u16 },
    /// `acc = acc + tap` (tap was the right operand).
    AddTap { tap: u16 },
    /// `acc = tap + acc` (tap was the left operand).
    TapAdd { tap: u16 },
    /// `acc = acc · c`.
    Mul { c: f64 },
    /// `acc = fma(tap, c, acc)`.
    Fma { tap: u16, c: f64 },
    /// `acc = fma(acc, c, tap)`.
    FmaRev { tap: u16, c: f64 },
    /// Push `acc` onto the value stack.
    Push,
    /// `acc = pop() + acc` (popped value was the left operand).
    PopAdd,
    /// `acc = fma(acc, c, pop())`.
    PopFma { c: f64 },
}

impl TapeOp {
    /// The tap this op loads, if any (for the executors' bounds checks).
    pub(crate) fn tap(&self) -> Option<u16> {
        match *self {
            TapeOp::Set { tap }
            | TapeOp::AddTap { tap }
            | TapeOp::TapAdd { tap }
            | TapeOp::Fma { tap, .. }
            | TapeOp::FmaRev { tap, .. } => Some(tap),
            _ => None,
        }
    }
}

/// One row program: where it goes and the tape that computes it.
#[derive(Debug, Clone)]
pub(crate) struct RowProg {
    /// Home-block y row (in `0..by`) of an output row; 0 for plane rows.
    pub(crate) ry: u16,
    /// Home-block z row (in `0..bz`) of an output row; 0 for plane rows.
    pub(crate) rz: u16,
    /// Flat offset of the row: inside a brick (`row_offset(ry, rz)`) for
    /// output rows, `index · w` inside its plane for plane rows.
    pub(crate) out_off: usize,
    /// The accumulator program.
    pub(crate) tape: Vec<TapeOp>,
    /// Maximum value-stack depth of `tape` (0 for straight chains), fixed
    /// at linearization; lets block evaluators pick a stackless
    /// instantiation without re-walking the tape per row.
    pub(crate) max_sp: usize,
    /// Chain form of `tape` when it is a straight accumulation
    /// (`Set · {Fma,AddTap,TapAdd}* · Mul?`) — the shape every star
    /// stencil linearizes to. SIMD backends evaluate this with a uniform
    /// tap loop instead of the general tape interpreter, which keeps the
    /// row accumulators register-resident (the interpreter's many-armed
    /// dispatch forces them onto the stack).
    pub(crate) fast: Option<FastRow>,
    /// Computed lane window `[lo, hi)`, whole [`CHUNK`]s: `[0, w)` for
    /// output rows, the demanded chunks for plane rows.
    pub(crate) lanes: [u8; 2],
}

impl RowProg {
    /// Whether the row computes every lane of a `w`-wide row.
    pub(crate) fn is_full(&self, w: usize) -> bool {
        self.lanes[0] == 0 && self.lanes[1] as usize == w
    }
}

/// Straight accumulation chain: `acc = tap[first]`, then
/// `acc = fma(tap, c, acc)` per entry, then optionally `acc *= scale`.
/// Additions ride as `c = 1.0` entries: `fma(t, 1.0, acc)` rounds once
/// with `t·1.0` exact, so it is bit-identical to the tape's `acc + t` /
/// `t + acc` for all non-NaN inputs (addition is commutative in IEEE-754
/// up to NaN payload selection).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FastRow {
    /// Tap that seeds the accumulator.
    pub(crate) first: u16,
    /// `(tap, coefficient)` accumulation entries, in tape order.
    pub(crate) fmas: Vec<(u16, f64)>,
    /// Trailing scale, if the tape ends in a `Mul`.
    pub(crate) scale: Option<f64>,
}

/// Extract the chain form from a finished tape, if it has the shape.
/// `pub(crate)` so the brick-safe prover can recompute it and compare
/// against the stored form (obligation BS011).
pub(crate) fn fast_row(tape: &[TapeOp]) -> Option<FastRow> {
    let Some((&TapeOp::Set { tap: first }, rest)) = tape.split_first() else {
        return None;
    };
    let mut fmas = Vec::with_capacity(rest.len());
    let mut scale = None;
    for (i, op) in rest.iter().enumerate() {
        match *op {
            TapeOp::Fma { tap, c } => fmas.push((tap, c)),
            TapeOp::AddTap { tap } | TapeOp::TapAdd { tap } => fmas.push((tap, 1.0)),
            // a Mul is only chain-compatible as the final op
            TapeOp::Mul { c } if i == rest.len() - 1 => scale = Some(c),
            _ => return None,
        }
    }
    Some(FastRow { first, fmas, scale })
}

/// One fused level: its row programs and, after the first stage, the
/// plane taps they read.
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    /// Row programs, in evaluation order. Row `r` of a plane stage
    /// writes plane row `r` (`out_off = r·w`).
    pub(crate) rows: Vec<RowProg>,
    /// Taps into the previous stage's plane (empty for the first stage,
    /// which reads the input slab through [`FusedKernel::taps`]).
    pub(crate) ptaps: Vec<PlaneTap>,
    /// `ptaps` resolved to constant plane offsets (parallel to it).
    pub(crate) rtaps: Vec<RTap>,
    /// For a plane stage, the index of the IR op whose result each row
    /// holds (its `dst` register is the interpreter's copy of the row);
    /// empty for the output stage. Diagnostic only — no evaluator reads
    /// it; the plane-level differential test does.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) origins: Vec<u32>,
}

/// How a stage's block evaluation moves data: whether its operand rows
/// are worth software-prefetching (the input slab, not a cache-resident
/// plane) and whether its stores may stream past the cache (the output
/// block only — planes are re-read by the next stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageIo {
    /// Prefetch every tap row at block start.
    pub(crate) prefetch: bool,
    /// Non-temporal stores for aligned full rows.
    pub(crate) stream: bool,
}

impl StageIo {
    /// A single-stage kernel: input slab to output block.
    pub(crate) const SINGLE: StageIo = StageIo {
        prefetch: true,
        stream: true,
    };
}

/// A fully fused kernel: the input tap table and one stage per fused
/// level. Fields are crate-visible so the brick-safe prover can walk
/// (and, in its mutation harness, perturb) the program; external code
/// goes through the accessors.
#[derive(Debug, Clone)]
pub(crate) struct FusedKernel {
    /// Input taps of the first stage.
    pub(crate) taps: Vec<Tap>,
    /// Parallel to `taps`; populated only for brick-layout kernels.
    pub(crate) brick_taps: Vec<BrickTap>,
    /// The stages, first (reads the input) to last (writes the output).
    pub(crate) stages: Vec<Stage>,
}

impl FusedKernel {
    /// The input tap table (layout-independent form).
    pub(crate) fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Number of input taps (the executors size their resolved tables by
    /// it).
    pub(crate) fn taps_len(&self) -> usize {
        self.taps.len()
    }

    /// The output-row programs (the last stage's rows).
    pub(crate) fn out_rows(&self) -> &[RowProg] {
        self.stages.last().map_or(&[], |s| &s.rows)
    }

    /// Plane rows summed over every intermediate stage.
    pub(crate) fn plane_rows(&self) -> usize {
        let n = self.stages.len().saturating_sub(1);
        self.stages[..n].iter().map(|s| s.rows.len()).sum()
    }

    /// Length of the per-worker plane buffer [`run_block`] needs for
    /// rows of width `w` (0 for single-stage kernels).
    pub(crate) fn plane_len(&self, w: usize) -> usize {
        self.plane_rows() * w
    }

    /// Resolve every input tap against one brick's 27-neighbour row.
    /// `out` must hold [`FusedKernel::taps_len`] entries; `vol` is the
    /// brick volume. Panics on a `NO_BRICK` neighbour — unreachable for
    /// interior bricks of a decomposition whose ghost shell covers the
    /// kernel's reach (checked by `check_brick` before execution).
    pub(crate) fn resolve_brick(&self, row27: &[u32; 27], vol: usize, out: &mut [RTap]) {
        // neighbour slab bases once per block, not once per tap; an
        // unallocated neighbour poisons its base so any tap naming it
        // trips the check below
        let bases: [usize; 27] = std::array::from_fn(|n| match row27[n] {
            NO_BRICK => usize::MAX,
            b => b as usize * vol,
        });
        let brick = |n: usize| -> usize {
            let b = bases[n];
            assert_ne!(b, usize::MAX, "fused tap crosses the allocated brick shell");
            b
        };
        for (slot, bt) in out.iter_mut().zip(&self.brick_taps) {
            *slot = match *bt {
                BrickTap::Direct { nidx, off } => RTap::Direct {
                    base: brick(nidx) + off,
                },
                BrickTap::Split {
                    hnidx,
                    nnidx,
                    off,
                    dx,
                } => RTap::Split {
                    home: brick(hnidx) + off,
                    nbr: brick(nnidx) + off,
                    dx,
                },
            };
        }
    }
}

/// Evaluate every stage of `fused` for one block. `rtaps` is the block's
/// resolved input tap table over `raw`; `planes` is a per-worker buffer
/// of at least [`FusedKernel::plane_len`] values (its contents between
/// blocks are irrelevant: every plane lane a stored lane depends on is
/// written earlier in the same block, BS013/BS014); `out_start` maps an
/// output row to its offset in `out`. Stage `k` reads plane `k − 1` and
/// writes plane `k`; only the last stage streams its stores.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_block<B: RowOps, F: Fn(&RowProg) -> usize>(
    ops: &B,
    fused: &FusedKernel,
    rtaps: &[RTap],
    raw: &[f64],
    w: usize,
    planes: &mut [f64],
    out: &mut [f64],
    out_start: F,
) {
    let Some((last, inner)) = fused.stages.split_last() else {
        return;
    };
    if inner.is_empty() {
        return ops.eval_block(&last.rows, rtaps, raw, w, out, out_start, StageIo::SINGLE);
    }
    let plane_io = |first: bool| StageIo {
        prefetch: first,
        stream: false,
    };
    let mut prev = 0..0;
    for (k, st) in inner.iter().enumerate() {
        let (done, rest) = planes.split_at_mut(prev.end);
        let dst = &mut rest[..st.rows.len() * w];
        if k == 0 {
            ops.eval_block(
                &st.rows,
                rtaps,
                raw,
                w,
                dst,
                |rp| rp.out_off,
                plane_io(true),
            );
        } else {
            let src = &done[prev.clone()];
            ops.eval_block(
                &st.rows,
                &st.rtaps,
                src,
                w,
                dst,
                |rp| rp.out_off,
                plane_io(false),
            );
        }
        prev = prev.end..prev.end + st.rows.len() * w;
    }
    let io = StageIo {
        prefetch: false,
        stream: true,
    };
    ops.eval_block(
        &last.rows,
        &last.rtaps,
        &planes[prev],
        w,
        out,
        out_start,
        io,
    );
}

/// Mask of lanes `[lo, hi)` (`hi ≤ 64`).
pub(crate) fn lane_range_mask(lo: usize, hi: usize) -> u64 {
    let upto = |n: usize| 1u64.checked_shl(n as u32).map_or(u64::MAX, |b| b - 1);
    upto(hi) & !upto(lo)
}

/// Lanes of `src` and of `edge` a `ShiftX(src, edge, dx)`-shaped read
/// touches when lanes `m` of its result are demanded. Total for any
/// input: a shift the IR cannot express (`|dx| ≥ w`) reads nothing here
/// (BS003/BS012 reject it separately).
pub(crate) fn shift_masks(m: u64, dx: i16, w: usize) -> (u64, u64) {
    let full = lane_range_mask(0, w.min(64));
    let d = dx.unsigned_abs() as usize;
    let shl = |v: u64, n: usize| v.checked_shl(n as u32).unwrap_or(0);
    let shr = |v: u64, n: usize| v.checked_shr(n as u32).unwrap_or(0);
    if dx == 0 {
        (m, 0)
    } else if d >= w {
        (0, 0)
    } else if dx > 0 {
        (shl(m, d) & full, shr(m, w - d))
    } else {
        (shr(m, d), shl(m, w - d) & full)
    }
}

/// The whole-chunk lane window `[lo, hi)` covering mask `m` (`[0, 0)`
/// when empty).
pub(crate) fn chunk_window(m: u64) -> [u8; 2] {
    if m == 0 {
        return [0, 0];
    }
    let lo = m.trailing_zeros() as usize / CHUNK * CHUNK;
    let hi = (64 - m.leading_zeros() as usize).div_ceil(CHUNK) * CHUNK;
    [lo as u8, hi as u8]
}

/// Demanded-lane masks per stage and row: every lane of an output row,
/// and for a plane row the lanes some demanded lane of a later stage
/// reads through a plane tap. Lane `i` of a row program depends only on
/// lane `i` of each tap it reads (tapes are elementwise), so the pass is
/// exact. Plane taps naming rows outside the previous plane are skipped
/// here (the prover reports them, BS012).
pub(crate) fn demanded(stages: &[Stage], w: usize) -> Vec<Vec<u64>> {
    let mut d: Vec<Vec<u64>> = stages.iter().map(|s| vec![0; s.rows.len()]).collect();
    if let Some(last) = d.last_mut() {
        last.fill(lane_range_mask(0, w));
    }
    for k in (1..stages.len()).rev() {
        let (lower, upper) = d.split_at_mut(k);
        let prev = &mut lower[k - 1];
        for (rp, &m) in stages[k].rows.iter().zip(&upper[0]) {
            for op in &rp.tape {
                let Some(pt) = op.tap().and_then(|t| stages[k].ptaps.get(t as usize)) else {
                    continue;
                };
                let (sm, em) = shift_masks(m, pt.dx, w);
                if let Some(s) = prev.get_mut(pt.src as usize) {
                    *s |= sm;
                }
                if let Some(e) = prev.get_mut(pt.edge as usize) {
                    *e |= em;
                }
            }
        }
    }
    d
}

/// Why [`fuse`] declined a kernel (the census reason).
pub(crate) type Bail = &'static str;

/// Symbolic value of an IR register during the analysis walk.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// A `LoadRow` result: a lane-windowed input row.
    Load(Seg),
    /// A level-0 operand, folded into a stage-1 tap.
    In(Tap),
    /// A read of materialized rows of plane `level` (see [`PlaneTap`]).
    Plane {
        level: u8,
        src: u32,
        edge: u32,
        dx: i16,
    },
    /// Node in the expression arena.
    Expr(u32),
    /// Unknown (never written).
    Opaque,
}

/// Expression-tree node. Children are symbolic *values*, so rebinding a
/// register later never invalidates a node that captured its old value.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// `a + b`, operand order as in the IR.
    Add(Sym, Sym),
    /// `a · c`.
    Mul(Sym, f64),
    /// `fma(a, c, acc)` — the IR's `dst = acc + a·c`, fused.
    Fma { acc: Sym, a: Sym, c: f64 },
}

/// How an arithmetic op consumes an operand. A finished row (a `Mul` or
/// `Fma` result) read as an addend or multiplicand starts a new level and
/// is materialized; read as the accumulator of an `Fma` it continues the
/// same row's chain and stays inline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Operand,
    Acc,
}

/// Analysis state of one [`fuse`] run.
struct Fuser {
    w: usize,
    nodes: Vec<Node>,
    /// Stage each node evaluates in (1-based).
    node_stage: Vec<u8>,
    /// `(level, plane row)` of materialized nodes.
    mat: Vec<Option<(u8, u32)>>,
    /// IR op index that created each node.
    node_op: Vec<u32>,
    /// Index of the op being analysed.
    op: u32,
    /// Input taps (stage 1).
    taps: Vec<Tap>,
    /// Plane rows per stage (index 0 unused), with their origin ops.
    planes: Vec<Vec<RowProg>>,
    origins: Vec<Vec<u32>>,
    /// Plane taps per reading stage (index 0, 1 unused).
    ptaps: Vec<Vec<PlaneTap>>,
    /// Output rows with the stage that computes them.
    stores: Vec<(u8, RowProg)>,
}

/// Try to fuse a verified kernel. `Err` names why the interpreter runs
/// it instead — any IR shape the analysis cannot prove row-fusable.
pub(crate) fn fuse(kernel: &VectorKernel) -> Result<FusedKernel, Bail> {
    let w = kernel.width;
    if !(w == 16 || w == 32 || w == 64) || kernel.block.bx != w {
        return Err("width is not a fused lane geometry (16/32/64 = block x extent)");
    }
    let mut f = Fuser {
        w,
        nodes: Vec::new(),
        node_stage: Vec::new(),
        mat: Vec::new(),
        node_op: Vec::new(),
        op: 0,
        taps: Vec::new(),
        planes: Vec::new(),
        origins: Vec::new(),
        ptaps: Vec::new(),
        stores: Vec::new(),
    };
    let mut regs: Vec<Sym> = vec![Sym::Opaque; kernel.num_regs];
    let get = |regs: &[Sym], r: u16| regs.get(r as usize).copied().ok_or("register out of range");
    for (i, op) in kernel.ops.iter().enumerate() {
        f.op = i as u32;
        let (dst, val) = match *op {
            VOp::LoadRow {
                dst,
                rx,
                ry,
                rz,
                lane0,
                lanes,
            } => {
                let (lane0, lanes) = (u8::try_from(lane0), u8::try_from(lanes));
                let (Ok(lane0), Ok(lanes)) = (lane0, lanes) else {
                    return Err("load lane window out of range");
                };
                if lane0 as usize + lanes as usize > w {
                    return Err("load lane window out of range");
                }
                let seg = Seg {
                    rx,
                    ry,
                    rz,
                    lane0,
                    lanes,
                };
                (dst, Sym::Load(seg))
            }
            VOp::ShiftX { dst, src, edge, dx } => {
                let v = f.shift(get(&regs, src)?, get(&regs, edge)?, dx)?;
                (dst, v)
            }
            VOp::Add { dst, a, b } => {
                let mut kids = [
                    f.operand(get(&regs, a)?, Role::Operand)?,
                    f.operand(get(&regs, b)?, Role::Operand)?,
                ];
                let stage = f.unify(&mut kids)?;
                (dst, f.push(Node::Add(kids[0], kids[1]), stage)?)
            }
            VOp::Mul { dst, a, coeff } => {
                let c = *kernel
                    .coeffs
                    .get(coeff as usize)
                    .ok_or("coefficient out of range")?;
                let mut kids = [f.operand(get(&regs, a)?, Role::Operand)?];
                let stage = f.unify(&mut kids)?;
                (dst, f.push(Node::Mul(kids[0], c), stage)?)
            }
            VOp::Fma { dst, acc, a, coeff } => {
                let c = *kernel
                    .coeffs
                    .get(coeff as usize)
                    .ok_or("coefficient out of range")?;
                let mut kids = [
                    f.operand(get(&regs, acc)?, Role::Acc)?,
                    f.operand(get(&regs, a)?, Role::Operand)?,
                ];
                let stage = f.unify(&mut kids)?;
                let node = Node::Fma {
                    acc: kids[0],
                    a: kids[1],
                    c,
                };
                (dst, f.push(node, stage)?)
            }
            VOp::StoreRow { src, ry, rz } => {
                let (ry, rz) = (usize::try_from(ry), usize::try_from(rz));
                let (Ok(ry), Ok(rz)) = (ry, rz) else {
                    return Err("store outside the home block");
                };
                if ry >= kernel.block.by || rz >= kernel.block.bz {
                    return Err("store outside the home block");
                }
                let v = f.operand(get(&regs, src)?, Role::Acc)?;
                let stage = f.stage_of(v);
                let mut row = f.row_prog(v, stage, kernel.block.row_offset(ry, rz))?;
                row.ry = ry as u16;
                row.rz = rz as u16;
                f.stores.push((stage, row));
                continue;
            }
        };
        *regs.get_mut(dst as usize).ok_or("register out of range")? = val;
    }
    f.finish(kernel)
}

impl Fuser {
    /// The stage a node reading `s` inline evaluates in.
    fn stage_of(&self, s: Sym) -> u8 {
        match s {
            Sym::In(_) | Sym::Load(_) => 1,
            Sym::Plane { level, .. } => level + 1,
            Sym::Expr(id) => self.node_stage[id as usize],
            Sym::Opaque => 0,
        }
    }

    /// A register value as an arithmetic operand: loads become input
    /// taps, finished rows read as operands are materialized.
    fn operand(&mut self, s: Sym, role: Role) -> Result<Sym, Bail> {
        match s {
            Sym::Load(seg) => Ok(Sym::In(if seg.full(self.w) {
                Tap::Direct {
                    rx: seg.rx,
                    ry: seg.ry,
                    rz: seg.rz,
                }
            } else {
                Tap::Window {
                    src: seg,
                    edge: seg,
                    dx: 0,
                }
            })),
            Sym::Expr(id)
                if role == Role::Operand
                    && matches!(self.nodes[id as usize], Node::Mul(..) | Node::Fma { .. }) =>
            {
                self.as_plane(id)
            }
            Sym::Opaque => Err("register read before any write"),
            s => Ok(s),
        }
    }

    /// Bring an op's operands to one stage: an inline subtree of an
    /// earlier stage is materialized; a leaf that would make a stage read
    /// anything but its predecessor's plane aborts fusion.
    fn unify(&mut self, kids: &mut [Sym]) -> Result<u8, Bail> {
        let stage = kids.iter().map(|&k| self.stage_of(k)).max().unwrap_or(1);
        for k in kids.iter_mut() {
            if self.stage_of(*k) < stage {
                if let Sym::Expr(id) = *k {
                    *k = self.as_plane(id)?;
                }
                if self.stage_of(*k) != stage {
                    return Err("an op mixes operands of non-adjacent levels");
                }
            }
        }
        Ok(stage)
    }

    fn push(&mut self, node: Node, stage: u8) -> Result<Sym, Bail> {
        if stage as usize > MAX_STAGES {
            return Err("more fused levels than MAX_STAGES");
        }
        let id = u32::try_from(self.nodes.len()).map_err(|_| "expression arena overflow")?;
        self.nodes.push(node);
        self.node_stage.push(stage);
        self.mat.push(None);
        self.node_op.push(self.op);
        Ok(Sym::Expr(id))
    }

    /// Fold a `ShiftX`. Shifts of loaded rows become input taps (the
    /// covering-edge home shift keeps its dedicated `Shifted` form);
    /// shifts of computed rows materialize both rows and become a plane
    /// tap with the IR's own `(src, edge, dx)`.
    fn shift(&mut self, src: Sym, edge: Sym, dx: i16) -> Result<Sym, Bail> {
        let w = self.w;
        if dx == 0 || dx.unsigned_abs() as usize >= w {
            return Err("shift distance outside (0, w)");
        }
        if let (Sym::Load(s), Sym::Load(e)) = (src, edge) {
            return Ok(Sym::In(match covered_shift(s, e, dx, w) {
                Some(t) => t,
                None => Tap::Window {
                    src: s,
                    edge: e,
                    dx,
                },
            }));
        }
        let (ls, rs) = self.plane_row(src)?;
        let (le, re) = self.plane_row(edge)?;
        if ls != le {
            return Err("a shift mixes rows of different levels");
        }
        Ok(Sym::Plane {
            level: ls,
            src: rs,
            edge: re,
            dx,
        })
    }

    /// The materialized `(level, row)` an unshifted computed value lives in.
    fn plane_row(&mut self, s: Sym) -> Result<(u8, u32), Bail> {
        match s {
            Sym::Expr(id) => self.materialize(id),
            Sym::Plane {
                level, src, dx: 0, ..
            } => Ok((level, src)),
            _ => Err("a shift mixes loaded and computed rows, or shifts a shifted row"),
        }
    }

    fn as_plane(&mut self, id: u32) -> Result<Sym, Bail> {
        let (level, row) = self.materialize(id)?;
        Ok(Sym::Plane {
            level,
            src: row,
            edge: row,
            dx: 0,
        })
    }

    /// Make node `id` a plane row of its stage (once).
    fn materialize(&mut self, id: u32) -> Result<(u8, u32), Bail> {
        if let Some(m) = self.mat[id as usize] {
            return Ok(m);
        }
        let stage = self.node_stage[id as usize];
        let k = stage as usize;
        if self.planes.len() <= k {
            self.planes.resize_with(k + 1, Vec::new);
            self.origins.resize_with(k + 1, Vec::new);
        }
        let idx = self.planes[k].len();
        if self.planes.iter().map(Vec::len).sum::<usize>() >= MAX_PLANE_ROWS {
            return Err("plane rows exceed MAX_PLANE_ROWS");
        }
        let row = self.row_prog(Sym::Expr(id), stage, idx * self.w)?;
        self.planes[k].push(row);
        self.origins[k].push(self.node_op[id as usize]);
        let m = (stage, idx as u32);
        self.mat[id as usize] = Some(m);
        Ok(m)
    }

    /// Linearize the row computing `s` in `stage`.
    fn row_prog(&mut self, s: Sym, stage: u8, out_off: usize) -> Result<RowProg, Bail> {
        let mut tape = Vec::new();
        let mut depth = Depth::default();
        self.linearize(s, stage, &mut tape, &mut depth)?;
        if depth.max > MAX_STACK {
            return Err("row tape needs a deeper value stack than MAX_STACK");
        }
        if tape.len() > MAX_TAPE {
            return Err("row tape longer than MAX_TAPE");
        }
        let fast = fast_row(&tape);
        Ok(RowProg {
            ry: 0,
            rz: 0,
            out_off,
            tape,
            max_sp: depth.max,
            fast,
            lanes: [0, self.w as u8],
        })
    }

    /// Intern a leaf read by a `stage` row as that stage's tap id.
    fn tap_of(&mut self, leaf: Sym, stage: u8) -> Result<u16, Bail> {
        let idx = match leaf {
            Sym::In(t) if stage == 1 => intern(&mut self.taps, t),
            Sym::Plane {
                level,
                src,
                edge,
                dx,
            } if level + 1 == stage => {
                let k = stage as usize;
                if self.ptaps.len() <= k {
                    self.ptaps.resize_with(k + 1, Vec::new);
                }
                intern(&mut self.ptaps[k], PlaneTap { src, edge, dx })
            }
            _ => return Err("a row reads a leaf of a non-adjacent level"),
        };
        u16::try_from(idx).map_err(|_| "tap table overflows u16 ids")
    }

    /// Flatten an expression tree into a [`TapeOp`] program, preserving
    /// the operand order of every node (see the bit-identity argument in
    /// the module docs). Two-sided nodes (both children computed)
    /// evaluate the left child first, park it on the value stack, and
    /// combine — exactly the tree value, no re-association.
    fn linearize(
        &mut self,
        sym: Sym,
        stage: u8,
        tape: &mut Vec<TapeOp>,
        depth: &mut Depth,
    ) -> Result<(), Bail> {
        if tape.len() > MAX_TAPE {
            return Err("row tape longer than MAX_TAPE");
        }
        let id = match sym {
            Sym::In(_) | Sym::Plane { .. } => {
                let tap = self.tap_of(sym, stage)?;
                tape.push(TapeOp::Set { tap });
                return Ok(());
            }
            Sym::Expr(id) => id,
            Sym::Load(_) | Sym::Opaque => return Err("unresolved operand"),
        };
        if self.node_stage[id as usize] != stage {
            return Err("a row inlines a subtree of another level");
        }
        match self.nodes[id as usize] {
            Node::Add(l, r) => {
                if is_leaf(r) {
                    self.linearize(l, stage, tape, depth)?;
                    let tap = self.tap_of(r, stage)?;
                    tape.push(TapeOp::AddTap { tap });
                } else if is_leaf(l) {
                    self.linearize(r, stage, tape, depth)?;
                    let tap = self.tap_of(l, stage)?;
                    tape.push(TapeOp::TapAdd { tap });
                } else {
                    self.linearize(l, stage, tape, depth)?;
                    depth.push(tape);
                    self.linearize(r, stage, tape, depth)?;
                    tape.push(TapeOp::PopAdd);
                    depth.cur -= 1;
                }
            }
            Node::Mul(a, c) => {
                self.linearize(a, stage, tape, depth)?;
                tape.push(TapeOp::Mul { c });
            }
            Node::Fma { acc, a, c } => {
                if is_leaf(a) {
                    self.linearize(acc, stage, tape, depth)?;
                    let tap = self.tap_of(a, stage)?;
                    tape.push(TapeOp::Fma { tap, c });
                } else if is_leaf(acc) {
                    self.linearize(a, stage, tape, depth)?;
                    let tap = self.tap_of(acc, stage)?;
                    tape.push(TapeOp::FmaRev { tap, c });
                } else {
                    self.linearize(acc, stage, tape, depth)?;
                    depth.push(tape);
                    self.linearize(a, stage, tape, depth)?;
                    tape.push(TapeOp::PopFma { c });
                    depth.cur -= 1;
                }
            }
        }
        Ok(())
    }

    /// Assemble the stages, narrow plane rows to their demanded chunks,
    /// and check that every demanded lane of a windowed input tap lies in
    /// its load window.
    fn finish(mut self, kernel: &VectorKernel) -> Result<FusedKernel, Bail> {
        let w = self.w;
        let last = self
            .stores
            .iter()
            .map(|(s, _)| *s)
            .max()
            .ok_or("no stored rows")?;
        if self.stores.iter().any(|(s, _)| *s != last) {
            return Err("stored rows belong to different levels");
        }
        self.planes.resize_with(last as usize + 1, Vec::new);
        self.origins.resize_with(last as usize + 1, Vec::new);
        self.ptaps.resize_with(last as usize + 1, Vec::new);
        if self.planes[last as usize..].iter().any(|p| !p.is_empty()) {
            return Err("a materialized row is never read by a later level");
        }
        let mut stages = Vec::with_capacity(last as usize);
        for k in 1..=last as usize {
            let rows = if k == last as usize {
                std::mem::take(&mut self.stores)
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect()
            } else {
                std::mem::take(&mut self.planes[k])
            };
            let ptaps = std::mem::take(&mut self.ptaps[k]);
            let rtaps = ptaps.iter().map(|pt| pt.resolve(w)).collect();
            let origins = std::mem::take(&mut self.origins[k]);
            stages.push(Stage {
                rows,
                ptaps,
                rtaps,
                origins,
            });
        }
        let demand = demanded(&stages, w);
        let n = stages.len();
        for (st, d) in stages[..n - 1].iter_mut().zip(&demand) {
            for (rp, &m) in st.rows.iter_mut().zip(d) {
                rp.lanes = chunk_window(m);
            }
        }
        for (rp, &m) in stages[0].rows.iter().zip(&demand[0]) {
            for op in &rp.tape {
                let Some(Tap::Window { src, edge, dx }) = op.tap().map(|t| self.taps[t as usize])
                else {
                    continue;
                };
                let (sm, em) = shift_masks(m, dx, w);
                if sm & !src.mask() != 0 || em & !edge.mask() != 0 {
                    return Err("a demanded lane reads outside a load window");
                }
            }
        }
        let brick_taps = if kernel.layout == LayoutKind::Brick {
            let mut v = Vec::with_capacity(self.taps.len());
            for t in &self.taps {
                v.push(brick_tap(t, kernel.block).ok_or("tap reaches past the adjacent bricks")?);
            }
            v
        } else {
            Vec::new()
        };
        Ok(FusedKernel {
            taps: self.taps,
            brick_taps,
            stages,
        })
    }
}

/// The covering-edge home shift: `dst[i] = src[i+dx]` in range; for
/// `dx > 0` lanes `[w-d, w)` wrap to `edge[0..d)`, which must equal grid
/// lanes `[0, d)` of the `+x` neighbour row — i.e. an edge load at
/// `rx = +1` covering `[0, d)` (mirrored for `dx < 0`). Then every lane
/// reads real grid data and the shift is one contiguous grid read.
fn covered_shift(src: Seg, edge: Seg, dx: i16, w: usize) -> Option<Tap> {
    if src.rx != 0 || !src.full(w) || (edge.ry, edge.rz) != (src.ry, src.rz) {
        return None;
    }
    let d = dx.unsigned_abs() as usize;
    let (lane0, lanes) = (edge.lane0 as usize, edge.lanes as usize);
    let covered = if dx > 0 {
        edge.rx == 1 && lane0 == 0 && lanes >= d
    } else {
        edge.rx == -1 && lane0 <= w - d && lane0 + lanes >= w
    };
    covered.then_some(Tap::Shifted {
        ry: src.ry,
        rz: src.rz,
        dx,
    })
}

/// Index of `t` in `table`, appending it if new.
fn intern<T: PartialEq>(table: &mut Vec<T>, t: T) -> usize {
    match table.iter().position(|u| *u == t) {
        Some(i) => i,
        None => {
            table.push(t);
            table.len() - 1
        }
    }
}

/// Value-stack depth bookkeeping during linearization.
#[derive(Default)]
struct Depth {
    cur: usize,
    max: usize,
}

impl Depth {
    fn push(&mut self, tape: &mut Vec<TapeOp>) {
        tape.push(TapeOp::Push);
        self.cur += 1;
        self.max = self.max.max(self.cur);
    }
}

fn is_leaf(s: Sym) -> bool {
    matches!(s, Sym::In(_) | Sym::Plane { .. })
}

/// Split a relative row coordinate into (brick step, local row); fusable
/// only one brick out (the verifier's reach-vs-ghost check already bounds
/// real kernels to that).
fn split_axis(r: i16, extent: usize) -> Option<(i32, usize)> {
    let e = i16::try_from(extent).ok()?;
    let (s, l) = (r.div_euclid(e), r.rem_euclid(e));
    (-1..=1).contains(&s).then_some((s as i32, l as usize))
}

/// Neighbour index and in-brick offset of row `(rx, ry, rz)`.
fn brick_row(rx: i8, ry: i16, rz: i16, b: BrickDims) -> Option<(usize, usize)> {
    if !(-1..=1).contains(&rx) {
        return None;
    }
    let (sy, ly) = split_axis(ry, b.by)?;
    let (sz, lz) = split_axis(rz, b.bz)?;
    Some((neighbor_index(rx as i32, sy, sz), b.row_offset(ly, lz)))
}

/// Pre-resolve one tap against the brick geometry. A window tap reads its
/// rows whole — the neighbour bricks are allocated, and the lanes outside
/// the windows only feed lanes nothing demands.
fn brick_tap(t: &Tap, b: BrickDims) -> Option<BrickTap> {
    match *t {
        Tap::Direct { rx, ry, rz } => {
            let (nidx, off) = brick_row(rx, ry, rz, b)?;
            Some(BrickTap::Direct { nidx, off })
        }
        Tap::Shifted { ry, rz, dx } => {
            let (hnidx, off) = brick_row(0, ry, rz, b)?;
            let (nnidx, _) = brick_row(if dx > 0 { 1 } else { -1 }, ry, rz, b)?;
            Some(BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx: dx as isize,
            })
        }
        Tap::Window { src, edge, dx } => {
            let (hnidx, off) = brick_row(src.rx, src.ry, src.rz, b)?;
            if dx == 0 {
                return Some(BrickTap::Direct { nidx: hnidx, off });
            }
            let (nnidx, eoff) = brick_row(edge.rx, edge.ry, edge.rz, b)?;
            (eoff == off).then_some(BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx: dx as isize,
            })
        }
    }
}

/// Lane `i` of a resolved tap (the scalar reference every evaluator's
/// loads agree with; the tests compare them lane by lane).
#[cfg(test)]
pub(crate) fn tap_lane(rt: &RTap, raw: &[f64], w: usize, i: usize) -> f64 {
    // lane `i` of a shift by `dx` reads lane `j` of the home row when it
    // is in range, else the wrapped lane of the neighbour row
    let seam = |dx: isize| -> (bool, usize) {
        let j = i as isize + dx;
        if j < 0 {
            (false, (j + w as isize) as usize)
        } else if j >= w as isize {
            (false, (j - w as isize) as usize)
        } else {
            (true, j as usize)
        }
    };
    match *rt {
        RTap::Direct { base } => raw[base + i],
        RTap::Split { home, nbr, dx } => match seam(dx) {
            (true, j) => raw[home + j],
            (false, j) => raw[nbr + j],
        },
        RTap::Window {
            src,
            edge,
            dx,
            swin,
            ewin,
        } => {
            let (home, j) = seam(dx);
            let (row, win) = if home { (src, swin) } else { (edge, ewin) };
            if (win[0] as usize..win[1] as usize).contains(&j) {
                // array row bases left of the padded slab wrap (see
                // `RTap::Window`); only in-window lanes form an index
                raw[row.wrapping_add(j)]
            } else {
                0.0
            }
        }
    }
}

/// Copy lanes `[lo, hi)` of one tap row into `buf[..hi - lo]` (the
/// portable evaluator's load). Always inlined, so the window length of a
/// narrow [`eval_window`] folds to a constant and the copies stay inline.
#[inline(always)]
fn load_tap(rt: &RTap, raw: &[f64], w: usize, lo: usize, hi: usize, buf: &mut [f64]) {
    let buf = &mut buf[..hi - lo];
    match *rt {
        RTap::Direct { base } => buf.copy_from_slice(&raw[base + lo..base + hi]),
        RTap::Split { home, nbr, dx } => {
            // lanes [lo, hi) read home lanes [a, b) = [lo + dx, hi + dx)
            let (a, b, w) = (lo as isize + dx, hi as isize + dx, w as isize);
            let n = buf.len();
            // one-sided windows (all but the seam chunk of a narrow row)
            // are a single copy
            if a >= 0 && b <= w {
                let s = home + a as usize;
                return buf.copy_from_slice(&raw[s..s + n]);
            }
            if b <= 0 || a >= w {
                let s = (nbr as isize + a.rem_euclid(w)) as usize;
                return buf.copy_from_slice(&raw[s..s + n]);
            }
            // the seam: lanes left of the home row (j < 0) or right of
            // it (j ≥ w) wrap into the neighbour row
            for (j, v) in (a..b).zip(buf.iter_mut()) {
                *v = if j < 0 {
                    raw[(nbr as isize + j + w) as usize]
                } else if j < w {
                    raw[home + j as usize]
                } else {
                    raw[(nbr as isize + j - w) as usize]
                };
            }
        }
        RTap::Window {
            src,
            edge,
            dx,
            swin,
            ewin,
        } => {
            // lanes [lo, hi) read lanes [a, b) = [lo + dx, hi + dx) of the
            // row pair: row lane ℓ = j + s of `edge` left of `src`
            // (s = w), of `src` (s = 0), of `edge` right of it (s = −w);
            // each segment is clipped to its row's window, the rest is 0
            let (a, b, wi) = (lo as isize + dx, hi as isize + dx, w as isize);
            buf.fill(0.0);
            for (row, win, s) in [(edge, ewin, wi), (src, swin, 0), (edge, ewin, -wi)] {
                let l0 = (a + s).max(win[0] as isize).max(0);
                let l1 = (b + s).min(win[1] as isize).min(wi);
                if l0 < l1 {
                    let (k, n) = ((l0 - s - a) as usize, (l1 - l0) as usize);
                    let r = row.wrapping_add(l0 as usize);
                    buf[k..k + n].copy_from_slice(&raw[r..r + n]);
                }
            }
        }
    }
}

/// Evaluate one row program in safe code — the `Auto` floor's fused
/// executor and the reference semantics of a tape. Panics (cleanly, via
/// slice checks) on malformed input; `Plan::compile` only produces tapes
/// whose taps, stack depth, and widths are in range.
pub(crate) fn eval_row_portable(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    w: usize,
    out: &mut [f64],
) {
    eval_lanes_portable(tape, rtaps, raw, w, 0, w, out);
}

/// [`eval_row_portable`] restricted to lanes `[lo, hi)`: writes
/// `out[lo..hi]` of the `w`-wide row `out`, reading only those lanes of
/// every tap. Narrow windows (the demanded chunks of a temporal kernel's
/// edge rows) run on window-sized buffers.
pub(crate) fn eval_lanes_portable(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    w: usize,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    assert!(w <= MAX_W, "width {w} exceeds fused row buffer");
    assert_eq!(out.len(), w, "output row length mismatch");
    assert!(
        lo <= hi && hi <= w,
        "lane window {lo}..{hi} escapes width {w}"
    );
    let out = &mut out[lo..hi];
    match hi - lo {
        0 => {}
        4 => eval_window::<4>(tape, rtaps, raw, w, lo, out),
        8 => eval_window::<8>(tape, rtaps, raw, w, lo, out),
        _ => eval_window::<MAX_W>(tape, rtaps, raw, w, lo, out),
    }
}

/// Lanes `[lo, lo + out.len())` of one row program on `N`-lane buffers,
/// `out.len() ≤ N`.
// `*a = *t + *a`, not `*a += *t`: the tap is the *left* addend and the
// operand order is part of the bit-identity contract with the interpreter
// (NaN payload propagation follows the first operand).
#[allow(clippy::assign_op_pattern)]
fn eval_window<const N: usize>(
    tape: &[TapeOp],
    rtaps: &[RTap],
    raw: &[f64],
    w: usize,
    lo: usize,
    out: &mut [f64],
) {
    // windows of a chunk or two fill their buffers exactly, so every loop
    // below has the constant trip count N
    let n = if N <= 8 { N } else { out.len() };
    assert!(
        out.len() == n && n <= N,
        "window of {} lanes in {N}",
        out.len()
    );
    let mut acc = [0.0f64; N];
    let mut tbuf = [0.0f64; N];
    let mut stack = [[0.0f64; N]; MAX_STACK];
    let (acc, tbuf) = (&mut acc[..n], &mut tbuf[..n]);
    let mut sp = 0usize;
    for op in tape {
        if let Some(t) = op.tap() {
            load_tap(&rtaps[t as usize], raw, w, lo, lo + n, tbuf);
        }
        match *op {
            TapeOp::Set { .. } => acc.copy_from_slice(tbuf),
            TapeOp::AddTap { .. } => {
                for (a, t) in acc.iter_mut().zip(tbuf.iter()) {
                    *a += *t;
                }
            }
            TapeOp::TapAdd { .. } => {
                for (a, t) in acc.iter_mut().zip(tbuf.iter()) {
                    *a = *t + *a;
                }
            }
            TapeOp::Mul { c } => {
                for a in acc.iter_mut() {
                    *a *= c;
                }
            }
            TapeOp::Fma { c, .. } => {
                for (a, t) in acc.iter_mut().zip(tbuf.iter()) {
                    *a = t.mul_add(c, *a);
                }
            }
            TapeOp::FmaRev { c, .. } => {
                for (a, t) in acc.iter_mut().zip(tbuf.iter()) {
                    *a = a.mul_add(c, *t);
                }
            }
            TapeOp::Push => {
                stack[sp][..n].copy_from_slice(acc);
                sp += 1;
            }
            TapeOp::PopAdd => {
                sp -= 1;
                for (a, t) in acc.iter_mut().zip(&stack[sp][..n]) {
                    *a = *t + *a;
                }
            }
            TapeOp::PopFma { c } => {
                sp -= 1;
                for (a, t) in acc.iter_mut().zip(&stack[sp][..n]) {
                    *a = a.mul_add(c, *t);
                }
            }
        }
    }
    out.copy_from_slice(acc);
}

/// Bounds of one resolved tap against a slab of `raw_len` values: every
/// row it may load lies inside, shift distances are in `(0, w)`, windows
/// inside the row. Panics on violation.
fn check_rtap(rt: &RTap, raw_len: usize, w: usize) {
    let row = |base: usize| {
        assert!(
            base + w <= raw_len,
            "tap row {base}+{w} escapes slab {raw_len}"
        );
    };
    match *rt {
        RTap::Direct { base } => row(base),
        RTap::Split { home, nbr, dx } => {
            row(home);
            row(nbr);
            assert!(dx != 0 && dx.unsigned_abs() < w, "shift {dx} out of range");
        }
        RTap::Window {
            src,
            edge,
            dx,
            swin,
            ewin,
        } => {
            assert!(dx.unsigned_abs() < w, "shift {dx} out of range");
            for (base, win) in [(src, swin), (edge, ewin)] {
                let (lo, hi) = (win[0] as usize, win[1] as usize);
                assert!(lo <= hi && hi <= w, "window {win:?} escapes width {w}");
                let start = base.wrapping_add(lo);
                assert!(
                    lo == hi || (start <= raw_len && hi - lo <= raw_len - start),
                    "window {win:?} of row {base} escapes slab {raw_len}"
                );
            }
        }
    }
}

/// Validate everything a SIMD tape evaluator dereferences: every tap id
/// resolves, every tap row lies inside `raw`, shift distances are in
/// `(0, w)`, and the value stack stays within [`MAX_STACK`]. Called by
/// the unsafe backends before any pointer is formed; panics on violation
/// (unreachable for programs built by [`fuse`] over verified kernels).
/// Returns the tape's maximum value-stack depth so the evaluators can
/// skip materializing a stack for the (common) straight-chain tapes.
pub(crate) fn check_tape(tape: &[TapeOp], rtaps: &[RTap], raw_len: usize, w: usize) -> usize {
    let mut sp = 0usize;
    let mut max_sp = 0usize;
    for op in tape {
        if let Some(t) = op.tap() {
            check_rtap(&rtaps[t as usize], raw_len, w);
        }
        match op {
            TapeOp::Push => {
                sp += 1;
                max_sp = max_sp.max(sp);
                assert!(sp <= MAX_STACK, "tape value stack overflow");
            }
            TapeOp::PopAdd | TapeOp::PopFma { .. } => {
                sp = sp.checked_sub(1).expect("tape value stack underflow");
            }
            _ => {}
        }
    }
    max_sp
}

/// Validate a resolved tap table against the operand slab: every row a
/// SIMD evaluator may load lies inside `raw`, and every shift distance is
/// in `(0, w)`. This restates, against one concrete block, what the
/// brick-safe prover ([`super::safe`]) establishes statically for *all*
/// blocks (BS001–BS003, BS012) given the per-run premise checks in
/// `crate::exec` — so the release hot path does not run it; the SIMD
/// `eval_block`s keep it as a debug-build assertion, and tests use it as
/// the oracle for mutation-survivor harmlessness. Panics on violation.
pub(crate) fn check_taps(rtaps: &[RTap], raw_len: usize, w: usize) {
    for rt in rtaps {
        check_rtap(rt, raw_len, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, Strategy};
    use brick_dsl::shape::StencilShape;

    fn kernel(shape: StencilShape, layout: LayoutKind, strategy: Strategy) -> VectorKernel {
        let st = shape.stencil();
        let b = st.default_bindings();
        let opts = CodegenOptions {
            strategy,
            ..CodegenOptions::default()
        };
        generate(&st, &b, layout, 32, opts).unwrap()
    }

    #[test]
    fn star_gather_kernels_fuse_with_one_row_per_store() {
        for shape in [StencilShape::star(1), StencilShape::star(4)] {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let k = kernel(shape, layout, Strategy::Gather);
                let f = fuse(&k).expect("gather kernels fuse");
                assert_eq!(f.stages.len(), 1, "{shape} {layout}: T=1 is one stage");
                let stores = k
                    .ops
                    .iter()
                    .filter(|op| matches!(op, VOp::StoreRow { .. }))
                    .count();
                assert_eq!(f.out_rows().len(), stores, "{shape} {layout}");
                assert!(f.taps_len() > 0);
                for rp in f.out_rows() {
                    assert!(!rp.tape.is_empty());
                    assert!(rp.is_full(k.width));
                    check_tape(&rp.tape, &resolve_identity(&f), usize::MAX / 2, k.width);
                }
            }
        }
    }

    /// Stand-in resolution (base 0 everywhere) so `check_tape`'s tap-id
    /// and stack-discipline checks can run without a grid.
    fn resolve_identity(f: &FusedKernel) -> Vec<RTap> {
        f.taps()
            .iter()
            .map(|t| match *t {
                Tap::Direct { .. } => RTap::Direct { base: 0 },
                Tap::Shifted { dx, .. } => RTap::Split {
                    home: 0,
                    nbr: 0,
                    dx: dx as isize,
                },
                Tap::Window { dx, .. } => RTap::Window {
                    src: 0,
                    edge: 0,
                    dx: dx as isize,
                    swin: [0, 0],
                    ewin: [0, 0],
                },
            })
            .collect()
    }

    // Diagnostic: print fused-program shape for the bench kernel.
    // `cargo test -p brick-vm --release -- --ignored --nocapture fused_shape`
    #[test]
    #[ignore]
    fn fused_shape_report() {
        for shape in StencilShape::paper_suite() {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                let k = kernel(shape, layout, Strategy::Gather);
                if let Ok(f) = fuse(&k) {
                    let ops: usize = f.out_rows().iter().map(|r| r.tape.len()).sum();
                    println!(
                        "{shape} {layout:?}: taps={} rows={} ops/row={:.1}",
                        f.taps_len(),
                        f.out_rows().len(),
                        ops as f64 / f.out_rows().len() as f64
                    );
                }
            }
        }
    }

    #[test]
    fn fusion_never_panics_across_the_paper_suite() {
        for shape in StencilShape::paper_suite() {
            for layout in [LayoutKind::Brick, LayoutKind::Array] {
                for strategy in [Strategy::Gather, Strategy::Scatter] {
                    let k = kernel(shape, layout, strategy);
                    // A bail (the interpreter runs the kernel) is a valid
                    // outcome; a panic or a malformed program is not.
                    if let Ok(f) = fuse(&k) {
                        let rt = resolve_identity(&f);
                        for rp in f.out_rows() {
                            check_tape(&rp.tape, &rt, usize::MAX / 2, k.width);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tape_evaluates_the_exact_expression() {
        // acc = fma(t1, c, t0 + t1) with operand order preserved:
        // portable eval vs a hand scalar evaluation, bit for bit.
        let w = 16;
        let raw: Vec<f64> = (0..2 * w).map(|i| 0.37 * (i as f64) - 2.0).collect();
        let rtaps = [RTap::Direct { base: 0 }, RTap::Direct { base: w }];
        let tape = [
            TapeOp::Set { tap: 0 },
            TapeOp::AddTap { tap: 1 },
            TapeOp::Fma { tap: 1, c: 0.125 },
            TapeOp::Mul { c: -3.0 },
        ];
        let mut out = vec![0.0; w];
        eval_row_portable(&tape, &rtaps, &raw, w, &mut out);
        for i in 0..w {
            let (t0, t1) = (raw[i], raw[w + i]);
            let want = t1.mul_add(0.125, t0 + t1) * -3.0;
            assert_eq!(out[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i mirrors the lane math under test
    fn split_taps_read_across_the_seam() {
        let w = 16;
        // home row = 0..16, neighbour row = 100..116
        let mut raw = vec![0.0; 2 * w];
        for i in 0..w {
            raw[i] = i as f64;
            raw[w + i] = 100.0 + i as f64;
        }
        for dx in [-3isize, -1, 1, 3] {
            let rtaps = [RTap::Split {
                home: 0,
                nbr: w,
                dx,
            }];
            let tape = [TapeOp::Set { tap: 0 }];
            let mut out = vec![0.0; w];
            eval_row_portable(&tape, &rtaps, &raw, w, &mut out);
            for i in 0..w {
                let j = i as isize + dx;
                let want = if (0..w as isize).contains(&j) {
                    j as f64
                } else if j >= w as isize {
                    100.0 + (j - w as isize) as f64
                } else {
                    100.0 + (j + w as isize) as f64
                };
                assert_eq!(out[i], want, "dx={dx} lane {i}");
            }
        }
    }

    #[test]
    fn check_tape_rejects_escaping_rows_and_bad_stacks() {
        let tape = [TapeOp::Set { tap: 0 }];
        let rtaps = [RTap::Direct { base: 100 }];
        check_tape(&tape, &rtaps, 116, 16); // exactly fits
        assert!(std::panic::catch_unwind(|| check_tape(&tape, &rtaps, 115, 16)).is_err());
        let underflow = [TapeOp::PopAdd];
        assert!(std::panic::catch_unwind(|| check_tape(&underflow, &rtaps, 116, 16)).is_err());
    }

    fn temporal(shape: StencilShape, layout: LayoutKind, w: usize, t: u32) -> VectorKernel {
        let st = shape.stencil();
        let b = st.default_bindings();
        let opts = CodegenOptions {
            temporal_degree: t,
            ..CodegenOptions::default()
        };
        generate(&st, &b, layout, w, opts).unwrap()
    }

    #[test]
    fn temporal_kernels_fuse_one_stage_per_level() {
        for layout in [LayoutKind::Brick, LayoutKind::Array] {
            for t in 2..=4u32 {
                let k = temporal(StencilShape::star(1), layout, 32, t);
                let f = fuse(&k).unwrap_or_else(|why| panic!("t{t} {layout}: {why}"));
                assert_eq!(f.stages.len(), t as usize, "t{t} {layout}");
                assert_eq!(f.out_rows().len(), k.block.by * k.block.bz);
                assert!(f.stages[0].ptaps.is_empty());
                for (s, st) in f.stages.iter().enumerate().skip(1) {
                    assert!(!st.ptaps.is_empty(), "stage {s} reads its plane");
                    assert_eq!(st.rtaps.len(), st.ptaps.len());
                    let prev = f.stages[s - 1].rows.len() as u32;
                    assert!(st.ptaps.iter().all(|pt| pt.src < prev && pt.edge < prev));
                }
                for (r, rp) in f.stages[0].rows.iter().enumerate() {
                    assert_eq!(rp.out_off, r * k.width, "plane rows are dense");
                }
            }
        }
    }

    #[test]
    fn edge_plane_rows_compute_only_their_halo_chunks() {
        // T=2 star-7 on the default 32x4x4 block: 32 home rows of level 1
        // are needed whole, the 32 E± rows only for h_1 = 1 lane each.
        let k = temporal(StencilShape::star(1), LayoutKind::Brick, 32, 2);
        let f = fuse(&k).unwrap();
        let plane = &f.stages[0].rows;
        let full = plane.iter().filter(|rp| rp.is_full(32)).count();
        let one_chunk = plane
            .iter()
            .filter(|rp| rp.lanes[1] - rp.lanes[0] == CHUNK as u8)
            .count();
        assert_eq!(plane.len(), 64);
        assert_eq!((full, one_chunk), (32, 32));
        assert!(f.out_rows().iter().all(|rp| rp.is_full(32)));
    }

    #[test]
    fn demand_masks_shift_like_the_ir() {
        let w = 16;
        let full = lane_range_mask(0, w);
        assert_eq!(shift_masks(full, 0, w), (full, 0));
        // dx = +1: src lanes 1..16, edge lane 0
        assert_eq!(shift_masks(full, 1, w), (full & !1, 1));
        // dx = -2: src lanes 0..14, edge lanes 14..16
        assert_eq!(shift_masks(full, -2, w), (full >> 2, 0b11 << 14));
        assert_eq!(chunk_window(0), [0, 0]);
        assert_eq!(chunk_window(1), [0, 4]);
        assert_eq!(chunk_window(1 << 31), [28, 32]);
        assert_eq!(chunk_window(lane_range_mask(0, 64)), [0, 64]);
    }

    #[test]
    fn lane_windows_load_every_tap_lane_exactly() {
        for w in [16usize, 32, 64] {
            let raw: Vec<f64> = (0..2 * w).map(|i| 0.5 + i as f64).collect();
            let mut taps = vec![RTap::Direct { base: 0 }, RTap::Direct { base: w }];
            for dx in (1 - w as isize)..w as isize {
                if dx != 0 {
                    taps.push(RTap::Split {
                        home: 0,
                        nbr: w,
                        dx,
                    });
                }
                for (swin, ewin) in [([0, w as u8], [w as u8 - 4, w as u8]), ([1, 7], [2, 5])] {
                    taps.push(RTap::Window {
                        src: 0,
                        edge: w,
                        dx,
                        swin,
                        ewin,
                    });
                }
            }
            // chunk windows (the narrow fast paths) and ragged ones
            let windows = (0..=w)
                .flat_map(|lo| (lo..=w).map(move |hi| (lo, hi)))
                .filter(|&(lo, hi)| lo % 4 == 0 && hi % 4 == 0 || hi - lo < 4);
            for (lo, hi) in windows {
                for rt in &taps {
                    let mut out = vec![f64::NAN; w];
                    let tape = [TapeOp::Set { tap: 0 }];
                    eval_lanes_portable(&tape, &[*rt], &raw, w, lo, hi, &mut out);
                    for (i, v) in out.iter().enumerate() {
                        if (lo..hi).contains(&i) {
                            assert_eq!(*v, tap_lane(rt, &raw, w, i), "w{w} {rt:?} lane {i}");
                        } else {
                            assert!(v.is_nan(), "w{w} {rt:?} {lo}..{hi} wrote lane {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn window_taps_zero_fill_outside_their_windows() {
        let w = 16;
        let raw: Vec<f64> = (0..2 * w).map(|i| 1.0 + i as f64).collect();
        // src = row 0 window [0, 2), edge = row 1 window [14, 16), dx = -3
        let rt = RTap::Window {
            src: 0,
            edge: w,
            dx: -3,
            swin: [0, 2],
            ewin: [14, 16],
        };
        for i in 0..w {
            let j = i as isize - 3;
            let want = if j < 0 {
                let e = (j + w as isize) as usize;
                if e >= 14 {
                    raw[w + e]
                } else {
                    0.0
                }
            } else if j < 2 {
                raw[j as usize]
            } else {
                0.0
            };
            assert_eq!(tap_lane(&rt, &raw, w, i), want, "lane {i}");
        }
        let mut out = vec![f64::NAN; w];
        eval_lanes_portable(&[TapeOp::Set { tap: 0 }], &[rt], &raw, w, 4, 8, &mut out);
        assert!(out[..4].iter().chain(&out[8..]).all(|v| v.is_nan()));
        assert_eq!(out[4], raw[1]);
    }
}
