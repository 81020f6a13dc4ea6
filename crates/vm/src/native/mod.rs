//! Native execution backend: the vector IR compiled instead of interpreted.
//!
//! The interpreter in [`crate::exec`] walks the IR op-by-op with closure
//! indirection per row and a scratch copy per elementwise op; worse, on
//! baseline x86-64 (no FMA target feature) every `f64::mul_add` lane is a
//! libm call. This module recovers the performance the paper's generated
//! kernels are supposed to have, in two layers:
//!
//! 1. **Lowering** ([`Plan::compile`]): the verified IR is lowered once per
//!    kernel to fused row tapes (`fuse`) — one accumulator program per
//!    output row, reading taps straight from the input grid, with no
//!    register file. Temporally fused kernels, whose shifts read
//!    *computed* rows, lower to one stage of tapes per fused level: the
//!    intermediate rows a later level shifts or reuses go to small
//!    per-block planes, narrowed to the lanes a stored lane depends on.
//!    Tapes are the only compiled form: a kernel the fusion analysis
//!    declines (it names why, [`Plan::fallback_reason`]) runs on the
//!    interpreter under every native backend.
//! 2. **Row backends** (`RowOps`): the stages of a fused kernel execute
//!    through a monomorphic backend — a safe portable evaluator (the
//!    `Auto` floor on hosts without SIMD), AVX2+FMA intrinsics behind
//!    `is_x86_feature_detected!`, or NEON on aarch64.
//!
//! Every backend is **bit-identical** to the interpreter: lowering preserves
//! the interpreter's operation order and fusion exactly, and the only
//! rounding-relevant instruction — FMA — is the correctly-rounded IEEE fused
//! multiply-add in all implementations (`f64::mul_add`, `_mm256_fmadd_pd`,
//! and `vfmaq_f64` compute the same value for the same operands). The
//! documented ULP bound for the SIMD backends is therefore **zero**: no FMA
//! contraction is introduced beyond what the interpreter already fuses.
//!
//! # Safety argument
//!
//! The `unsafe` surface is confined to the `avx2`/`neon` submodules
//! (pointer arithmetic into the input slab, the planes and the output
//! block). Its preconditions are discharged *statically* by
//! **brick-safe** (`safe`): an abstract-interpretation pass over the
//! fused `RowProg` program that [`Plan::compile`] runs before the plan
//! can reach a dispatcher. Each precondition is a named obligation with a
//! stable `BSxxx` diagnostic code (catalogued in DESIGN.md §13); an
//! unprovable plan is rejected with `VmError::UnsafePlan` carrying the
//! full report. The layers beneath it:
//!
//! * the analyzer's bounds proof ([`brick_lint::prove_bounds`]) — every
//!   register index, lane range, shift distance, and coefficient index is
//!   re-checked against the kernel's declared shape before lowering, and the
//!   footprint pass's load reach bounds every out-of-block access (checked
//!   against ghost/halo coverage by the callers in [`crate::exec`]);
//! * brick-safe's obligations over the fused tapes (BS001–BS008,
//!   BS011–BS014) — tap and store rows in-slab for all blocks, seam
//!   shifts in range, tape stack discipline, lane geometry, plane rows
//!   and taps inside their planes and written before they are read —
//!   plus the cheap per-run premise checks in [`crate::exec`]
//!   (whole-brick slab with valid interior adjacency rows; array tap
//!   intervals inside the padded slab via `Plan::check_array_geometry`);
//! * debug-build re-checks of the resolved tap tables in the fused
//!   evaluators (`fuse::check_taps`).

pub(crate) mod fuse;
mod plan;
mod portable;
pub(crate) mod safe;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

pub use plan::Plan;
pub(crate) use portable::PortableOps;
pub use safe::SafetySummary;

use crate::exec::VmError;

/// How a vector kernel should be executed.
///
/// Modeled on the `KernelExecutor` dispatch of cpu-sparse-experiments:
/// `Scalar` is always available, `Auto` picks the best backend the host
/// supports, and the forced modes fail (gracefully, with a [`VmError`])
/// when the host cannot run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// The reference interpreter ([`crate::exec`]) — the differential
    /// oracle every compiled backend is validated against.
    Scalar,
    /// Runtime dispatch: AVX2+FMA when detected, NEON on aarch64,
    /// otherwise the portable compiled backend. Never fails.
    #[default]
    Auto,
    /// Force the AVX2+FMA backend; errors when the host lacks it.
    Avx2,
    /// Force the NEON backend; errors off aarch64.
    Neon,
}

impl ExecutionMode {
    /// All modes, for CLI help and test sweeps.
    pub const ALL: [ExecutionMode; 4] = [
        ExecutionMode::Scalar,
        ExecutionMode::Auto,
        ExecutionMode::Avx2,
        ExecutionMode::Neon,
    ];

    /// Parse a mode name (`scalar`/`auto`/`avx2`/`neon`, case-insensitive).
    pub fn parse(s: &str) -> Result<ExecutionMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" | "interp" | "interpreter" => Ok(ExecutionMode::Scalar),
            "auto" => Ok(ExecutionMode::Auto),
            "avx2" => Ok(ExecutionMode::Avx2),
            "neon" => Ok(ExecutionMode::Neon),
            other => Err(format!(
                "unknown execution mode `{other}` (expected scalar, auto, avx2, or neon)"
            )),
        }
    }

    /// The process-wide default mode: `BRICK_EXEC` when set to a valid mode
    /// name, otherwise [`ExecutionMode::Auto`]. An unset, empty, or invalid
    /// variable falls back to `Auto` (the CLIs parse `--exec-mode`
    /// strictly; this lossy path only backs the parameterless wrappers).
    pub fn from_env() -> ExecutionMode {
        match std::env::var("BRICK_EXEC") {
            Ok(v) if !v.trim().is_empty() => {
                ExecutionMode::parse(v.trim()).unwrap_or(ExecutionMode::Auto)
            }
            _ => ExecutionMode::Auto,
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecutionMode::Scalar => "scalar",
            ExecutionMode::Auto => "auto",
            ExecutionMode::Avx2 => "avx2",
            ExecutionMode::Neon => "neon",
        })
    }
}

impl std::str::FromStr for ExecutionMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExecutionMode::parse(s)
    }
}

/// SIMD capabilities of a host, as used by backend resolution.
///
/// A plain value (rather than inline `is_x86_feature_detected!` calls) so
/// resolution is a pure function — the AVX2-unavailable fallback path is
/// testable on any machine by handing [`resolve_with`] a synthetic feature
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuFeatures {
    /// x86-64 AVX2 (256-bit integer/double lanes).
    pub avx2: bool,
    /// x86-64 FMA3 (fused multiply-add).
    pub fma: bool,
    /// aarch64 Advanced SIMD (baseline on aarch64).
    pub neon: bool,
}

impl CpuFeatures {
    /// Detect the running host's features.
    pub fn detect() -> CpuFeatures {
        CpuFeatures {
            #[cfg(target_arch = "x86_64")]
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            fma: std::arch::is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            avx2: false,
            #[cfg(not(target_arch = "x86_64"))]
            fma: false,
            neon: cfg!(target_arch = "aarch64"),
        }
    }
}

impl std::fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut any = false;
        for (on, name) in [(self.avx2, "avx2"), (self.fma, "fma"), (self.neon, "neon")] {
            if on {
                if any {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// The concrete executor a mode resolved to on a given host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The reference interpreter.
    Interpreter,
    /// Compiled plan, portable safe row ops.
    Portable,
    /// Compiled plan, AVX2+FMA row ops.
    Avx2,
    /// Compiled plan, NEON row ops.
    Neon,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Interpreter => "interpreter",
            Backend::Portable => "portable",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        })
    }
}

/// Resolve a mode against an explicit feature set. Pure: the only
/// fallible cases are the forced modes on hosts that lack them, which
/// return `Err` (degrade with a message, never panic).
pub fn resolve_with(mode: ExecutionMode, features: CpuFeatures) -> Result<Backend, String> {
    match mode {
        ExecutionMode::Scalar => Ok(Backend::Interpreter),
        ExecutionMode::Auto => Ok(if features.avx2 && features.fma {
            Backend::Avx2
        } else if features.neon {
            Backend::Neon
        } else {
            Backend::Portable
        }),
        ExecutionMode::Avx2 => {
            if features.avx2 && features.fma {
                Ok(Backend::Avx2)
            } else {
                Err(format!(
                    "execution mode `avx2` needs avx2+fma, host has {features}"
                ))
            }
        }
        ExecutionMode::Neon => {
            if features.neon {
                Ok(Backend::Neon)
            } else {
                Err(format!(
                    "execution mode `neon` needs aarch64 NEON, host has {features}"
                ))
            }
        }
    }
}

/// Resolve a mode on the running host.
pub fn resolve(mode: ExecutionMode) -> Result<Backend, VmError> {
    resolve_with(mode, CpuFeatures::detect()).map_err(VmError::Unsupported)
}

/// Fused-row evaluation, implemented per backend. Both entries default
/// to the safe portable evaluator; the SIMD backends override them.
pub(crate) trait RowOps: Sync {
    /// Evaluate one fused row program ([`fuse::TapeOp`]) over resolved
    /// taps straight from the input slab into an output row — the
    /// register-file-free fast path. The default is the safe portable
    /// evaluator; SIMD backends override it with an in-register tape
    /// interpreter behind their own bounds checks.
    ///
    /// The execution pipeline now enters through [`RowOps::eval_block`];
    /// this row-granularity entry is retained for the differential and
    /// micro tests, which exercise single rows against the portable
    /// evaluator.
    #[allow(dead_code)]
    fn eval_row(
        &self,
        tape: &[fuse::TapeOp],
        rtaps: &[fuse::RTap],
        raw: &[f64],
        w: usize,
        out: &mut [f64],
    ) {
        fuse::eval_row_portable(tape, rtaps, raw, w, out);
    }

    /// Evaluate the row programs of one fused stage for one resolved
    /// block. `row_start(rp)` maps a row program to its starting offset
    /// in `out` (brick-local or slab-relative for output rows, the plane
    /// offset for plane rows); each row writes its computed lane window
    /// `rp.lanes` there. `io` says whether the operand rows are worth
    /// prefetching and whether the stores may stream past the cache. The
    /// block granularity lets SIMD backends validate the tap table once
    /// instead of re-walking each tape per row — the hot path for the
    /// compiled backends, shared by every stage of a temporal kernel.
    #[allow(clippy::too_many_arguments)]
    fn eval_block<F: Fn(&fuse::RowProg) -> usize>(
        &self,
        rows: &[fuse::RowProg],
        rtaps: &[fuse::RTap],
        raw: &[f64],
        w: usize,
        out: &mut [f64],
        row_start: F,
        _io: fuse::StageIo,
    ) {
        for rp in rows {
            let s = row_start(rp);
            let [lo, hi] = rp.lanes.map(usize::from);
            fuse::eval_lanes_portable(&rp.tape, rtaps, raw, w, lo, hi, &mut out[s..s + w]);
        }
    }
}

/// A resolved backend's row ops, constructed only after feature checks.
pub(crate) enum NativeOps {
    /// Safe portable rows.
    Portable(PortableOps),
    /// AVX2+FMA rows (x86-64 with detected support only).
    #[cfg(target_arch = "x86_64")]
    Avx2(avx2::Avx2Ops),
    /// NEON rows (aarch64 only).
    #[cfg(target_arch = "aarch64")]
    Neon(neon::NeonOps),
}

/// Row ops for a compiled backend. `backend` must come from [`resolve`] on
/// this host (forced-mode errors have already been surfaced there); an
/// unsupported backend still degrades to an error, never a panic.
pub(crate) fn ops_for(backend: Backend) -> Result<NativeOps, VmError> {
    match backend {
        Backend::Interpreter => Err(VmError::Unsupported(
            "interpreter has no native row ops".into(),
        )),
        Backend::Portable => Ok(NativeOps::Portable(PortableOps)),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::Avx2Ops::new()
            .map(NativeOps::Avx2)
            .ok_or_else(|| VmError::Unsupported("host lost avx2+fma after resolve".into())),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => Ok(NativeOps::Neon(neon::NeonOps::new())),
        #[allow(unreachable_patterns)]
        other => Err(VmError::Unsupported(format!(
            "backend `{other}` is not compiled into this host's binary"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in ExecutionMode::ALL {
            assert_eq!(ExecutionMode::parse(&mode.to_string()), Ok(mode));
        }
        assert!(ExecutionMode::parse("sse9").is_err());
        assert_eq!(
            ExecutionMode::parse("Interpreter"),
            Ok(ExecutionMode::Scalar)
        );
    }

    #[test]
    fn auto_never_fails_and_degrades_without_simd() {
        // the AVX2-unavailable fallback: Auto on a host with no SIMD at all
        let none = CpuFeatures::default();
        assert_eq!(
            resolve_with(ExecutionMode::Auto, none),
            Ok(Backend::Portable)
        );
        // avx2 without fma is not enough for the fused backend
        let avx2_only = CpuFeatures {
            avx2: true,
            ..CpuFeatures::default()
        };
        assert_eq!(
            resolve_with(ExecutionMode::Auto, avx2_only),
            Ok(Backend::Portable)
        );
        let full = CpuFeatures {
            avx2: true,
            fma: true,
            neon: false,
        };
        assert_eq!(resolve_with(ExecutionMode::Auto, full), Ok(Backend::Avx2));
        let arm = CpuFeatures {
            neon: true,
            ..CpuFeatures::default()
        };
        assert_eq!(resolve_with(ExecutionMode::Auto, arm), Ok(Backend::Neon));
    }

    #[test]
    fn forced_modes_error_gracefully_when_unsupported() {
        let none = CpuFeatures::default();
        let err = resolve_with(ExecutionMode::Avx2, none).unwrap_err();
        assert!(err.contains("avx2"), "{err}");
        let err = resolve_with(ExecutionMode::Neon, none).unwrap_err();
        assert!(err.contains("neon"), "{err}");
        // and through the host-detecting path they surface as VmError
        let host = CpuFeatures::detect();
        if !host.neon {
            assert!(matches!(
                resolve(ExecutionMode::Neon),
                Err(VmError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn scalar_always_resolves_to_the_interpreter() {
        for feats in [
            CpuFeatures::default(),
            CpuFeatures {
                avx2: true,
                fma: true,
                neon: true,
            },
        ] {
            assert_eq!(
                resolve_with(ExecutionMode::Scalar, feats),
                Ok(Backend::Interpreter)
            );
        }
    }

    #[test]
    fn env_default_is_auto() {
        // BRICK_EXEC is unset in the test environment
        if std::env::var("BRICK_EXEC").is_err() {
            assert_eq!(ExecutionMode::from_env(), ExecutionMode::Auto);
        }
    }

    #[test]
    fn feature_display_is_compact() {
        assert_eq!(CpuFeatures::default().to_string(), "(none)");
        let full = CpuFeatures {
            avx2: true,
            fma: true,
            neon: false,
        };
        assert_eq!(full.to_string(), "avx2+fma");
    }
}
