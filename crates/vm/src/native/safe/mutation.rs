//! Mutation harness gating the brick-safe prover.
//!
//! Two guarantees, mirroring the analyzer's `tests/mutation.rs`:
//!
//! 1. **Sensitivity**: of all single-site perturbations of compiled
//!    plans — tap offsets, neighbour indices, seam splits, store
//!    targets, tape indices, stack depths, fast chains, widths, plane
//!    rows and taps — the prover (compile-time pass plus the per-run
//!    array geometry check) must reject at least 95%.
//! 2. **Soundness of survivors**: every accepted mutant is proven
//!    *memory*-harmless against real geometry — brick survivors run the
//!    full resolve/check/evaluate path per interior brick under
//!    `catch_unwind` with the debug oracles ([`fuse::check_taps`],
//!    [`fuse::check_tape`], [`fuse::eval_row_portable`]) armed; array
//!    survivors have every tap base of every tile re-derived with the
//!    executor's own address math and bounds-checked, across
//!    proptest-generated grid geometries. brick-safe proves memory
//!    safety, not numerics — a survivor may compute wrong values (e.g.
//!    a tap shifted one row), but it must never touch memory outside
//!    its slabs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_core::BrickGrid;
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;

use super::super::fuse::{self, BrickTap, RTap, RowProg, Tap, TapeOp, MAX_STACK};
use super::super::plan::Plan;
use super::super::PortableOps;
use super::prove_plan;

/// A base plan plus the representative run geometry its kill criterion
/// and harmlessness oracle use (`n` interior points per axis, halo).
struct Base {
    name: &'static str,
    layout: LayoutKind,
    plan: Plan,
    n: usize,
    halo: usize,
}

fn compile(shape: StencilShape, layout: LayoutKind, t: u32) -> Plan {
    let st = shape.stencil();
    let b = st.default_bindings();
    let opts = CodegenOptions {
        strategy: Strategy::Gather,
        temporal_degree: t,
        ..CodegenOptions::default()
    };
    let k = generate(&st, &b, layout, 32, opts).unwrap();
    Plan::compile(&k).unwrap()
}

fn bases() -> Vec<Base> {
    let mk = |name, shape: StencilShape, layout, n, t: u32| Base {
        name,
        layout,
        plan: compile(shape, layout, t),
        n,
        halo: (t * shape.radius) as usize,
    };
    vec![
        mk(
            "star1-brick",
            StencilShape::star(1),
            LayoutKind::Brick,
            32,
            1,
        ),
        mk(
            "star4-brick",
            StencilShape::star(4),
            LayoutKind::Brick,
            32,
            1,
        ),
        mk(
            "cube1-brick",
            StencilShape::cube(1),
            LayoutKind::Brick,
            32,
            1,
        ),
        mk(
            "star1-array",
            StencilShape::star(1),
            LayoutKind::Array,
            64,
            1,
        ),
        // staged (temporal) plans: plane taps, plane rows, lane windows
        mk(
            "star1-t2-brick",
            StencilShape::star(1),
            LayoutKind::Brick,
            32,
            2,
        ),
        mk(
            "star1-t2-array",
            StencilShape::star(1),
            LayoutKind::Array,
            64,
            2,
        ),
    ]
}

/// The output rows of a (cloned) plan's fused program, for mutation.
fn out_rows_mut(m: &mut Plan) -> &mut Vec<RowProg> {
    let f = m.fused.as_mut().expect("fused base");
    &mut f.stages.last_mut().expect("fused plans have a stage").rows
}

/// Kill criterion: the compile-time prover rejects the plan, or the
/// per-run geometry premise rejects it at the base's representative
/// grid. This is exactly the pair of gates a real run passes through.
fn killed(m: &Plan, b: &Base) -> bool {
    prove_plan(m).is_err() || m.check_array_geometry(b.n, b.n, b.n, b.halo).is_err()
}

/// All single-site mutants of `base`, each labelled. Every perturbation
/// targets one field the unsafe evaluators trust; mutations whose site
/// does not exist in this plan are skipped. Exactly one mutant per base
/// is benign by construction (see its label) — kept to show the
/// survivor-harmlessness oracle has teeth.
fn mutants_of(base: &Base) -> Vec<(String, Plan)> {
    let p = &base.plan;
    let mut out: Vec<(String, Plan)> = Vec::new();
    let f = p.fused.as_ref().expect("gather bases fuse");
    let vol = p.block.volume();
    let w = p.width;
    let ntaps = f.taps.len() as u16;
    // taps the output rows index: the input table for a single stage,
    // the last stage's plane taps otherwise
    let out_ntaps = match f.stages.len() {
        1 => ntaps,
        _ => f.stages.last().unwrap().ptaps.len() as u16,
    };

    // --- brick-tap killers (brick layouts only) ---
    if let Some(i) = f
        .brick_taps
        .iter()
        .position(|bt| matches!(bt, BrickTap::Direct { .. }))
    {
        let mutate = |label: &str, g: &dyn Fn(&mut usize, &mut usize), out: &mut Vec<_>| {
            let mut m = p.clone();
            let bts = &mut m.fused.as_mut().unwrap().brick_taps;
            if let BrickTap::Direct { nidx, off } = &mut bts[i] {
                g(nidx, off);
            }
            out.push((label.to_string(), m));
        };
        mutate("bt-direct-off-vol", &|_, off| *off = vol, &mut out);
        mutate(
            "bt-direct-off-overhang",
            &|_, off| *off = vol - w + 1,
            &mut out,
        );
        mutate("bt-direct-nidx-27", &|nidx, _| *nidx = 27, &mut out);
        mutate("bt-direct-nidx-100", &|nidx, _| *nidx = 100, &mut out);
    }
    if let Some(i) = f
        .brick_taps
        .iter()
        .position(|bt| matches!(bt, BrickTap::Split { .. }))
    {
        let mutate = |label: &str,
                      g: &dyn Fn(&mut usize, &mut usize, &mut usize, &mut isize),
                      out: &mut Vec<_>| {
            let mut m = p.clone();
            let bts = &mut m.fused.as_mut().unwrap().brick_taps;
            if let BrickTap::Split {
                hnidx,
                nnidx,
                off,
                dx,
            } = &mut bts[i]
            {
                g(hnidx, nnidx, off, dx);
            }
            out.push((label.to_string(), m));
        };
        mutate("bt-split-dx-0", &|_, _, _, dx| *dx = 0, &mut out);
        mutate("bt-split-dx-w", &|_, _, _, dx| *dx = w as isize, &mut out);
        mutate(
            "bt-split-dx-negw",
            &|_, _, _, dx| *dx = -(w as isize),
            &mut out,
        );
        mutate("bt-split-off-vol", &|_, _, off, _| *off = vol, &mut out);
        mutate("bt-split-hnidx-27", &|h, _, _, _| *h = 27, &mut out);
    }

    // --- row killers ---
    {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].out_off = vol;
        out.push(("row-out-off-vol".to_string(), m));
    }
    {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].out_off += 1;
        out.push(("row-out-off-misaligned".to_string(), m));
    }
    if f.out_rows().len() >= 2 {
        let mut m = p.clone();
        let dup = m.fused.as_ref().unwrap().out_rows()[1].out_off;
        out_rows_mut(&mut m)[0].out_off = dup;
        out.push(("row-out-off-duplicate".to_string(), m));
    }
    {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].ry = p.block.by as u16;
        out.push(("row-ry-escapes-block".to_string(), m));
    }

    // --- tape killers ---
    if let Some(j) = f.out_rows()[0]
        .tape
        .iter()
        .position(|op| op.tap().is_some())
    {
        for (label, tap) in [("tape-tap-ntaps", out_ntaps), ("tape-tap-max", u16::MAX)] {
            let mut m = p.clone();
            let t = &mut out_rows_mut(&mut m)[0].tape[j];
            *t = match *t {
                TapeOp::Set { .. } => TapeOp::Set { tap },
                TapeOp::AddTap { .. } => TapeOp::AddTap { tap },
                TapeOp::TapAdd { .. } => TapeOp::TapAdd { tap },
                TapeOp::Fma { c, .. } => TapeOp::Fma { tap, c },
                TapeOp::FmaRev { c, .. } => TapeOp::FmaRev { tap, c },
                other => other,
            };
            out.push((label.to_string(), m));
        }
    }
    {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].tape.insert(0, TapeOp::PopAdd);
        out.push(("tape-underflow".to_string(), m));
    }
    {
        let mut m = p.clone();
        let rp = &mut out_rows_mut(&mut m)[0];
        rp.tape
            .extend(std::iter::repeat_n(TapeOp::Push, MAX_STACK + 1));
        rp.max_sp = MAX_STACK + 1;
        out.push(("tape-overflow".to_string(), m));
    }
    {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].max_sp += 1;
        out.push(("tape-max-sp-overdeclared".to_string(), m));
    }
    // Target a depth-0 row: appending a Push there raises the true max
    // depth above the declared one. (On a row already using the stack,
    // a trailing balanced Push would not change the max — not a
    // corruption the evaluators could trip over.)
    if let Some(r0) = f.out_rows().iter().position(|rp| rp.max_sp == 0) {
        let mut m = p.clone();
        out_rows_mut(&mut m)[r0].tape.push(TapeOp::Push);
        out.push(("tape-push-undeclared".to_string(), m));
    }

    // --- fast-chain killers ---
    if f.out_rows()[0].fast.is_some() {
        let mut m = p.clone();
        out_rows_mut(&mut m)[0].fast.as_mut().unwrap().first = out_ntaps;
        out.push(("fast-first-invalid".to_string(), m));
        let mut m = p.clone();
        let fr = out_rows_mut(&mut m)[0].fast.as_mut().unwrap();
        if !fr.fmas.is_empty() {
            fr.fmas[0].1 += 1.0;
            out.push(("fast-coeff-divergent".to_string(), m));
        }
    }

    // --- width killers ---
    for (label, bad_w) in [("width-18", 18usize), ("width-doubled", 2 * w)] {
        let mut m = p.clone();
        m.width = bad_w;
        out.push((label.to_string(), m));
    }

    // --- geometry killers (array layouts: survive the compile-time
    // pass by design, die at the per-run premise) ---
    if base.layout == LayoutKind::Array {
        if let Some(i) = f.taps.iter().position(|t| matches!(t, Tap::Direct { .. })) {
            let mut m = p.clone();
            if let Tap::Direct { rx, .. } = &mut m.fused.as_mut().unwrap().taps[i] {
                *rx = 100;
            }
            out.push(("geom-direct-rx-100".to_string(), m));
            let mut m = p.clone();
            if let Tap::Direct { ry, .. } = &mut m.fused.as_mut().unwrap().taps[i] {
                *ry = 30000;
            }
            out.push(("geom-direct-ry-30000".to_string(), m));
        }
    }

    if f.stages.len() > 1 {
        out.extend(stage_mutants(p, base));
    }

    // --- exactly one benign mutant per base ---
    match base.layout {
        LayoutKind::Brick => {
            // Nudge one in-bounds tap row by a single element: still
            // aligned-enough (no alignment obligation on input taps),
            // still inside the brick, so provably memory-safe — the
            // numerics are wrong, the addresses are not.
            let i = f
                .brick_taps
                .iter()
                .position(|bt| matches!(bt, BrickTap::Direct { off, .. } if off + 1 + w <= vol))
                .expect("brick bases have a nudgeable tap");
            let mut m = p.clone();
            if let BrickTap::Direct { off, .. } = &mut m.fused.as_mut().unwrap().brick_taps[i] {
                *off += 1;
            }
            out.push(("benign-tap-nudge".to_string(), m));
        }
        LayoutKind::Array => {
            // Flip one seam shift's sign: star stencils carry both
            // signs, so the flipped tap stays within the halo.
            let i = f
                .taps
                .iter()
                .position(|t| matches!(t, Tap::Shifted { .. }))
                .expect("array star base has shifted taps");
            let mut m = p.clone();
            if let Tap::Shifted { dx, .. } = &mut m.fused.as_mut().unwrap().taps[i] {
                *dx = -*dx;
            }
            out.push(("benign-seam-flip".to_string(), m));
        }
    }

    out
}

/// Single-site mutants of a staged (temporal) plan's planes: plane taps
/// and their resolved offsets, plane rows and their lane windows, the
/// stage chain, plane tapes, and windowed input taps. One more benign
/// control: a dx = 0 plane tap redirected to another whole row.
fn stage_mutants(p: &Plan, base: &Base) -> Vec<(String, Plan)> {
    let mut out: Vec<(String, Plan)> = Vec::new();
    let w = p.width;
    let f = p.fused.as_ref().expect("staged base fuses");
    let prev_rows = f.stages[0].rows.len();
    let mut push = |label: &str, g: &dyn Fn(&mut fuse::FusedKernel)| {
        let mut m = p.clone();
        g(m.fused.as_mut().unwrap());
        out.push((label.to_string(), m));
    };

    // --- plane taps (BS012) ---
    let split = f.stages[1]
        .ptaps
        .iter()
        .position(|pt| pt.dx != 0)
        .expect("stage 2 shifts plane rows");
    // mutate plane tap `i` of stage 2 and keep its resolution canonical
    fn retap(f: &mut fuse::FusedKernel, i: usize, w: usize, g: impl Fn(&mut fuse::PlaneTap)) {
        let st = &mut f.stages[1];
        g(&mut st.ptaps[i]);
        st.rtaps[i] = st.ptaps[i].resolve(w);
    }
    push("ptap-src-oob", &|f| {
        retap(f, split, w, |pt| pt.src = prev_rows as u32)
    });
    push("ptap-edge-max", &|f| {
        retap(f, split, w, |pt| pt.edge = u32::MAX / 64)
    });
    push("ptap-dx-w", &|f| retap(f, split, w, |pt| pt.dx = w as i16));
    push("rtap-base-escapes", &|f| {
        f.stages[1].rtaps[0] = fuse::RTap::Direct {
            base: prev_rows * w,
        }
    });
    push("rtap-resolves-elsewhere", &|f| {
        let st = &mut f.stages[1];
        st.rtaps[split] = st.ptaps[(split + 1) % st.ptaps.len()].resolve(w);
    });
    push("rtap-dropped", &|f| {
        f.stages[1].rtaps.pop();
    });
    push("first-stage-ptaps", &|f| {
        f.stages[0].ptaps.push(fuse::PlaneTap {
            src: 0,
            edge: 0,
            dx: 0,
        })
    });
    push("stage-dropped", &|f| {
        f.stages.remove(0);
    });

    // --- plane rows (BS013) and lane windows (BS012/BS014) ---
    let full = f.stages[0]
        .rows
        .iter()
        .position(|rp| rp.is_full(w))
        .expect("a whole plane row");
    let narrow = f.stages[0]
        .rows
        .iter()
        .position(|rp| !rp.is_full(w))
        .expect("a narrowed plane row");
    push("plane-row-off-next", &|f| f.stages[0].rows[0].out_off += w);
    push("plane-row-off-misaligned", &|f| {
        f.stages[0].rows[0].out_off += 1
    });
    push("plane-row-off-escapes", &|f| {
        f.stages[0].rows[0].out_off = prev_rows * w
    });
    push("plane-row-off-duplicate", &|f| {
        f.stages[0].rows[1].out_off = f.stages[0].rows[0].out_off
    });
    push("plane-window-escapes", &|f| {
        f.stages[0].rows[narrow].lanes = [0, w as u8 + 4]
    });
    push("plane-window-unaligned", &|f| {
        f.stages[0].rows[full].lanes = [1, w as u8]
    });
    push("plane-window-inverted", &|f| {
        f.stages[0].rows[narrow].lanes = [w as u8, 0]
    });
    push("plane-window-narrowed", &|f| {
        f.stages[0].rows[full].lanes = [0, w as u8 - 4]
    });
    push("plane-window-empty", &|f| {
        f.stages[0].rows[narrow].lanes = [0, 0]
    });
    push("out-window-partial", &|f| {
        f.stages.last_mut().unwrap().rows[0].lanes = [4, w as u8]
    });

    // --- plane tapes (BS004/BS005) ---
    let nptaps = f.stages[1].ptaps.len() as u16;
    push("plane-tape-tap-oob", &|f| {
        if let Some(op) = f.stages[1].rows[0].tape.first_mut() {
            *op = TapeOp::Set { tap: nptaps };
        }
    });
    push("plane-tape-underflow", &|f| {
        f.stages[0].rows[0].tape.insert(0, TapeOp::PopAdd)
    });

    // --- windowed input taps (BS003/BS008/BS014) ---
    if let Some(i) = f.taps.iter().position(|t| matches!(t, Tap::Window { .. })) {
        // mutate the source row or shift of input window tap `i`
        fn rewin(f: &mut fuse::FusedKernel, i: usize, g: impl Fn(&mut fuse::Seg, &mut i16)) {
            if let Tap::Window { src, dx, .. } = &mut f.taps[i] {
                g(src, dx);
            }
        }
        push("window-dx-w", &|f| rewin(f, i, |_, dx| *dx = -(w as i16)));
        push("window-lanes-escape", &|f| rewin(f, i, |s, _| s.lanes = 64));
        push("window-emptied", &|f| rewin(f, i, |s, _| s.lanes = 0));
        if base.layout == LayoutKind::Array {
            push("geom-window-ry-30000", &|f| {
                rewin(f, i, |s, _| s.ry = 30000)
            });
        }
    }

    // --- benign control: a dx = 0 plane tap of stage 2 re-pointed at a
    // different whole row — wrong numerics, in-plane addresses, and the
    // redirected row is computed on every lane ---
    let st1 = &f.stages[1];
    let (i, other) = st1
        .ptaps
        .iter()
        .enumerate()
        .filter(|(_, pt)| pt.dx == 0)
        .find_map(|(i, pt)| {
            let src = pt.src as usize;
            (0..prev_rows)
                .find(|&r| r != src && f.stages[0].rows[r].is_full(w))
                .filter(|_| f.stages[0].rows[src].is_full(w))
                .map(|r| (i, r as u32))
        })
        .expect("stage 2 reads a whole plane row unshifted");
    push("benign-ptap-redirect", &|f| {
        let st = &mut f.stages[1];
        st.ptaps[i].src = other;
        st.ptaps[i].edge = other;
        st.rtaps[i] = st.ptaps[i].resolve(w);
    });
    out
}

/// Memory-harmlessness oracle for brick survivors: per interior brick of
/// a real grid, resolve the mutant's taps and run the debug-build
/// checks plus the portable evaluator. Any out-of-slab address panics
/// inside `catch_unwind`.
fn brick_survivor_is_harmless(b: &Base, m: &Plan, n: usize) -> bool {
    let f = m.fused.as_ref().unwrap();
    let mut dense = DenseGrid::new(n.max(m.width), n, n, b.halo);
    dense.fill_test_pattern();
    let grid = BrickGrid::from_dense(&dense, m.block);
    let raw = grid.raw();
    let vol = m.block.volume();
    let info = grid.info();
    let decomp = grid.decomp();
    let ntaps = f.taps_len();
    let w = m.width;
    let ok = catch_unwind(AssertUnwindSafe(|| {
        let mut rtaps = vec![RTap::Direct { base: 0 }; ntaps];
        let mut planes = vec![0.0f64; f.plane_len(w)];
        let mut out = vec![0.0f64; vol];
        for id in 0..decomp.num_bricks() as u32 {
            if !decomp.is_interior(id) {
                continue;
            }
            f.resolve_brick(info.row(id), vol, &mut rtaps[..ntaps]);
            stages_are_in_bounds(f, Some((&rtaps[..ntaps], raw.len())), w);
            // the portable evaluator is bounds-checked safe code: any
            // escaping plane row, store or lane window panics here
            fuse::run_block(
                &PortableOps,
                f,
                &rtaps[..ntaps],
                raw,
                w,
                &mut planes,
                &mut out,
                |rp| rp.out_off,
            );
        }
    }));
    ok.is_ok()
}

/// The SIMD evaluators' unchecked-pointer preconditions for one block,
/// stage by stage: every tap (input — when `input` is given — or plane)
/// inside the slab the stage reads, every tape's stack discipline, every
/// lane window inside its row, every plane row inside its plane. Panics
/// on violation.
fn stages_are_in_bounds(f: &fuse::FusedKernel, input: Option<(&[RTap], usize)>, w: usize) {
    for (k, st) in f.stages.iter().enumerate() {
        let operand = if k == 0 {
            input
        } else {
            Some((&st.rtaps[..], f.stages[k - 1].rows.len() * w))
        };
        if let Some((rtaps, len)) = operand {
            fuse::check_taps(rtaps, len, w);
        }
        for rp in &st.rows {
            if let Some((rtaps, len)) = operand {
                fuse::check_tape(&rp.tape, rtaps, len, w);
            }
            assert!(
                rp.lanes[0] <= rp.lanes[1] && rp.lanes[1] as usize <= w,
                "lane window escapes its row"
            );
            if k + 1 < f.stages.len() {
                assert!(
                    rp.out_off + w <= st.rows.len() * w,
                    "plane row escapes its plane"
                );
            }
        }
    }
}

/// Memory-harmlessness oracle for array survivors: re-derive every tap
/// base of every tile with the executor's own address math
/// (`crate::exec::run_array_fused`) and bounds-check it against the
/// padded slab.
fn array_survivor_is_harmless(m: &Plan, nx: usize, ny: usize, nz: usize, halo: usize) -> bool {
    let f = m.fused.as_ref().unwrap();
    let b = m.block;
    let w = m.width as i64;
    let h = halo as i64;
    let sx = (nx + 2 * halo) as i64;
    let sy = (ny + 2 * halo) as i64;
    let sz = (nz + 2 * halo) as i64;
    let plane = sx * sy;
    let slab_len = plane * sz;
    for tz in 0..nz / b.bz {
        for ty in 0..ny / b.by {
            for tx in 0..nx / b.bx {
                let (ox, oy, oz) = ((tx * b.bx) as i64, (ty * b.by) as i64, (tz * b.bz) as i64);
                let origin = ((oz + h) * sy + (oy + h)) * sx + (ox + h);
                for t in f.taps() {
                    // (delta of lane 0, first lane read, lanes read) per row
                    let row = |rx: i8, ry: i16, rz: i16| {
                        rz as i64 * plane + ry as i64 * sx + rx as i64 * w
                    };
                    let reads = match *t {
                        Tap::Direct { rx, ry, rz } => vec![(row(rx, ry, rz), 0, w)],
                        Tap::Shifted { ry, rz, dx } => vec![(row(0, ry, rz) + dx as i64, 0, w)],
                        Tap::Window { src, edge, .. } => [src, edge]
                            .iter()
                            .map(|s| (row(s.rx, s.ry, s.rz), s.lane0 as i64, s.lanes as i64))
                            .collect(),
                    };
                    for (delta, lo, n) in reads {
                        let start = origin + delta + lo;
                        if n > 0 && (start < 0 || start + n > slab_len) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    catch_unwind(AssertUnwindSafe(|| stages_are_in_bounds(f, None, m.width))).is_ok()
}

fn survivor_is_harmless(b: &Base, m: &Plan, n: usize) -> bool {
    match b.layout {
        LayoutKind::Brick => brick_survivor_is_harmless(b, m, n),
        LayoutKind::Array => array_survivor_is_harmless(m, n, n, n, b.halo),
    }
}

#[test]
fn single_site_mutants_are_killed_at_95_percent() {
    let mut total = 0usize;
    let mut kills = 0usize;
    let mut survivors: Vec<(String, String)> = Vec::new();
    for b in bases() {
        for (label, m) in mutants_of(&b) {
            total += 1;
            if killed(&m, &b) {
                kills += 1;
            } else {
                assert!(
                    survivor_is_harmless(&b, &m, b.n),
                    "{}/{label}: surviving mutant touches memory out of bounds",
                    b.name
                );
                survivors.push((b.name.to_string(), label));
            }
        }
    }
    let rate = kills as f64 / total as f64;
    println!("brick-safe mutants: {kills}/{total} killed; survivors: {survivors:?}");
    assert!(
        rate >= 0.95,
        "kill rate {rate:.3} ({kills}/{total}) below 0.95; survivors: {survivors:?}"
    );
    // The benign mutants exist precisely to exercise the harmlessness
    // oracle; they must be among the survivors.
    assert!(
        survivors.iter().any(|(_, l)| l.starts_with("benign")),
        "benign control mutants were unexpectedly killed"
    );
}

mod survivor_geometry {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Survivors stay memory-harmless across *randomized* grid
        /// geometries, not just the representative one: acceptance by
        /// brick-safe is a memory-safety proof for every geometry that
        /// passes the per-run premise checks.
        #[test]
        fn survivors_are_harmless_on_random_geometry(ty in 1usize..5, tz in 1usize..5) {
            for b in bases() {
                // Axes stay multiples of the block extents (32×4×4) so
                // every tile is visited; x stays one brick wide.
                let (nx, ny, nz) = (32, 4 * ty, 4 * tz);
                for (label, m) in mutants_of(&b) {
                    if prove_plan(&m).is_err() {
                        continue;
                    }
                    let ok = match b.layout {
                        LayoutKind::Brick => {
                            brick_survivor_is_harmless(&b, &m, ny.max(nz))
                        }
                        // Gate exactly as the executor does: only
                        // geometries the per-run premise admits must be
                        // memory-harmless.
                        LayoutKind::Array => {
                            m.check_array_geometry(nx, ny, nz, b.halo).is_err()
                                || array_survivor_is_harmless(&m, nx, ny, nz, b.halo)
                        }
                    };
                    prop_assert!(
                        ok,
                        "{}/{label}: survivor unsafe at {nx}x{ny}x{nz}",
                        b.name
                    );
                }
            }
        }
    }
}
