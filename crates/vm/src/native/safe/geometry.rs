//! Per-run geometry premise for fused array execution (the run-time half
//! of obligation BS001 on dense layouts).
//!
//! The array executor (`crate::exec::run_array_fused`) resolves each tap
//! to `base = origin + delta` with `origin = ((oz+h)·sy + (oy+h))·sx +
//! (ox+h)` per tile and `delta = rz·plane + ry·sx + dxe` per tap
//! (`dxe = rx·w` for direct taps, the fold-in shift `dx` for shifted
//! ones), then reads lanes `raw[base .. base+w]` unchecked in the SIMD
//! paths — or, for a window tap, only the lanes of each row's window.
//! That is in bounds iff each coordinate axis of every tap row of every
//! tile stays inside the padded slab — a condition linear in the tile
//! origin, so checking the extreme origins per axis covers all tiles.
//! The check is O(taps), run once per `run()`. Plans without a fused
//! program run on the interpreter, which guards every element it reads,
//! so there is nothing to check for them.

use brick_lint::Report;

use super::super::fuse::{Seg, Tap};
use super::super::plan::Plan;
use super::Prover;
use brick_lint::LintCode;

/// Check every tap of `plan`'s fused program against an `nx × ny × nz`
/// interior with `halo` cells of padding on each side. Vacuously `Ok`
/// for plans the interpreter runs and for brick-resolved plans (their
/// bounds are discharged at compile time plus the adjacency premise in
/// `crate::exec`).
pub(crate) fn check(
    plan: &Plan,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
) -> Result<(), Box<Report>> {
    let Some(f) = plan.fused.as_ref() else {
        return Ok(());
    };
    if !f.brick_taps.is_empty() {
        return Ok(());
    }
    let b = plan.block;
    let w = plan.width as i64;
    let h = halo as i64;
    let (tiles_x, tiles_y, tiles_z) = (nx / b.bx, ny / b.by, nz / b.bz);
    if tiles_x == 0 || tiles_y == 0 || tiles_z == 0 {
        // No tiles are visited; nothing to prove.
        return Ok(());
    }
    let sx = (nx + 2 * halo) as i64;
    let sy = (ny + 2 * halo) as i64;
    let sz = (nz + 2 * halo) as i64;
    let max_ox = (tiles_x as i64 - 1) * b.bx as i64;
    let max_oy = (tiles_y as i64 - 1) * b.by as i64;
    let max_oz = (tiles_z as i64 - 1) * b.bz as i64;
    let mut p = Prover::new(&format!("array {nx}x{ny}x{nz} halo {halo}"));
    for (i, tap) in f.taps.iter().enumerate() {
        // (x offset of lane 0, first lane read, lanes read, ry, rz) per
        // row the tap reads: whole rows, or exactly a window row's lanes
        let rows: Vec<(i64, i64, i64, i64, i64)> = match *tap {
            Tap::Direct { rx, ry, rz } => vec![(rx as i64 * w, 0, w, ry as i64, rz as i64)],
            Tap::Shifted { ry, rz, dx } => vec![(dx as i64, 0, w, ry as i64, rz as i64)],
            Tap::Window { src, edge, dx } => {
                let seg = |s: Seg| {
                    let (lo, n) = (s.lane0 as i64, s.lanes as i64);
                    (s.rx as i64 * w, lo, n, s.ry as i64, s.rz as i64)
                };
                if dx == 0 {
                    vec![seg(src)]
                } else {
                    vec![seg(src), seg(edge)]
                }
            }
        };
        for (dxe, lo, n, ry, rz) in rows {
            // Tap base address decomposes per axis; each axis index is
            // monotone in the tile origin, so the two extreme origins
            // bound all tiles.
            let x_ok = h + dxe + lo >= 0 && max_ox + h + dxe + lo + n <= sx;
            let y_ok = h + ry >= 0 && max_oy + h + ry < sy;
            let z_ok = h + rz >= 0 && max_oz + h + rz < sz;
            p.obligation(
                x_ok && y_ok && z_ok,
                LintCode::UnsafeTapEscapesSlab,
                Some(i),
                || {
                    format!(
                        "tap {i} (dx {dxe}, lanes {lo}+{n}, ry {ry}, rz {rz}) escapes the \
                         {sx}x{sy}x{sz} padded slab for some tile"
                    )
                },
            );
        }
    }
    p.finish().map(|_| ())
}
