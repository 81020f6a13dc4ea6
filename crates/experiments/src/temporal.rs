//! The temporal-blocking sweep: AN5D's headline experiment on the
//! simulated substrate.
//!
//! For every paper stencil and every feasible fusion degree `T` (the
//! default 4×4 block caps `T·r` at 4 per transverse axis), generate the
//! `T`-fused bricks kernel ([`brick_codegen::CodegenOptions::temporal_degree`]),
//! statically verify it against the `T`-fold composed stencil
//! ([`brick_lint::ExpectedStencil::resolve_temporal`]), and simulate it
//! over the paper's (GPU, model) matrix.
//!
//! The headline metrics:
//!
//! - **Arithmetic intensity scales with `T`**: one fused launch applies
//!   `T` timesteps' worth of useful FLOPs while streaming the grid
//!   through DRAM roughly once, so `AI ≈ T · AI(T=1)` minus halo
//!   overhead.
//! - **DRAM bytes per applied timestep shrink like `1/T`**:
//!   [`TemporalRecord::dram_bytes_per_point`] divides the launch's DRAM
//!   traffic by `n³·T` — the paper-suite acceptance bound is
//!   `star-7 @ T=4 ≤ 0.45×` its `T=1` value.
//!
//! FLOP accounting follows the base sweep's §4.4 convention, scaled by
//! the work actually applied: the normalised count for a `T`-fused cell
//! is `T ×` the symmetry-minimal per-step count. Redundant halo FLOPs
//! (the price of fusion) appear only in the simulated execution time,
//! exactly as they would on hardware.
//!
//! Determinism and caching mirror [`crate::runner`]: cells are pure,
//! memoisation is value-deterministic, records are byte-identical at any
//! jobs count, and every cell is cached under a key that includes the
//! fusion degree (see [`crate::cache`]) so a `T=2` cell can never be
//! served a cached `T=1` record.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::cache::temporal_cell_key;
use crate::runner::{build_geometry, measure_rooflines, SweepError, SweepOptions};
use brick_codegen::{generate, CodegenOptions, LayoutKind, Strategy};
use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_sweep::{map_cells, CacheOutcome, DiskCache};
use brick_vm::{KernelSpec, TraceGeometry};
use gpu_sim::{
    assemble, compile_only, simulate_memory_opts, GpuArch, GpuKind, MemCounters, ProgModel,
    SimFidelity, SimOptions,
};

/// Transverse block extent the fusion degree is feasibility-checked
/// against (`BrickDims::for_simd_width` always yields 4×4 across y/z).
const BLOCK_YZ: u32 = 4;

/// Fusion degrees worth sweeping for a shape: every `T` whose composed
/// reach `T·r` still fits the transverse block extent. star-1/cube-1
/// sweep `1..=4`, star-2/cube-2 `1..=2`, star-3/star-4 are spatial-only.
pub fn feasible_degrees(shape: &StencilShape) -> std::ops::RangeInclusive<u32> {
    1..=(BLOCK_YZ / shape.radius).max(1)
}

/// One measured point of the temporal study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalRecord {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Paper label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Timesteps fused into the simulated launch (1 = spatial baseline).
    pub temporal_degree: u32,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// GFLOP/s at the normalised FLOP count (`T ×` the per-step count).
    pub gflops: f64,
    /// Empirical arithmetic intensity (normalised FLOPs / DRAM bytes).
    pub ai: f64,
    /// HBM data movement of the fused launch, bytes.
    pub dram_bytes: u64,
    /// DRAM bytes per interior point **per applied timestep**
    /// (`dram_bytes / (points · T)`) — the AN5D scaling metric.
    pub dram_bytes_per_point: f64,
    /// L1 data movement in bytes.
    pub l1_bytes: u64,
    /// L2 data movement in bytes.
    pub l2_bytes: u64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
}

/// A complete temporal sweep plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalSweep {
    /// Parameters the sweep ran with.
    pub params: crate::config::ExperimentParams,
    /// All measured points, in canonical order: stencil → degree →
    /// architecture → (gpu, model) pair.
    pub records: Vec<TemporalRecord>,
    /// Provenance manifest (includes the swept degrees).
    pub manifest: brick_obs::RunManifest,
}

impl TemporalSweep {
    /// The unique record for an exact point.
    pub fn point(
        &self,
        gpu: GpuKind,
        model: ProgModel,
        stencil: &str,
        t: u32,
    ) -> Option<&TemporalRecord> {
        self.records.iter().find(|r| {
            r.gpu == gpu && r.model == model && r.stencil == stencil && r.temporal_degree == t
        })
    }

    /// All records of one stencil on one platform, ordered by degree.
    pub fn series(&self, gpu: GpuKind, model: ProgModel, stencil: &str) -> Vec<&TemporalRecord> {
        let mut v: Vec<&TemporalRecord> = self
            .records
            .iter()
            .filter(|r| r.gpu == gpu && r.model == model && r.stencil == stencil)
            .collect();
        v.sort_by_key(|r| r.temporal_degree);
        v
    }
}

/// Build the `T`-fused bricks-codegen spec for a shape at a SIMD width.
///
/// All degrees (including `T = 1`) use the gather schedule, so the only
/// variable along a degree series is the fusion itself — never the
/// spatial schedule.
pub fn build_temporal_spec(shape: &StencilShape, width: usize, t: u32) -> KernelSpec {
    let st = shape.stencil();
    let b = st.default_bindings();
    KernelSpec::Vector(
        generate(
            &st,
            &b,
            LayoutKind::Brick,
            width,
            CodegenOptions {
                temporal_degree: t,
                strategy: Strategy::Gather,
                ..CodegenOptions::default()
            },
        )
        .expect("feasible degrees are within codegen limits"),
    )
}

/// Statically verify a fused spec against the `T`-fold composed stencil,
/// memoised by kernel fingerprint. Panics with the rendered report on
/// rejection — a fused kernel the footprint verifier cannot prove has no
/// business producing paper numbers.
pub fn verify_temporal_spec(
    spec: &KernelSpec,
    shape: &StencilShape,
    t: u32,
    cache: &brick_lint::FingerprintCache,
) {
    let KernelSpec::Vector(k) = spec else { return };
    let fp = brick_lint::fingerprint(k);
    if cache.check_or_insert(fp) {
        brick_obs::counter_add("sweep.lint_cache_hits", 1);
        return;
    }
    let _span = brick_obs::span_cat(format!("lint:temporal:{}", k.name), "lint");
    let st = shape.stencil();
    let b = st.default_bindings();
    let opts = brick_lint::LintOptions {
        expected: Some(
            brick_lint::ExpectedStencil::resolve_temporal(&st, &b, t)
                .expect("paper bindings resolve"),
        ),
        // no register budgets: fused kernels legitimately hold T levels of
        // planes live, and the compiler model prices the resulting
        // pressure (spills, occupancy) honestly in the simulation
        budgets: vec![],
    };
    let analysis = brick_lint::analyze(k, &opts);
    assert!(
        analysis.is_clean(),
        "fused kernel failed static verification against the T={t} composition:\n{}",
        analysis.report.render(Some(k))
    );
    brick_obs::counter_add("sweep.lint_verified", 1);
}

/// One unit of temporal sweep work.
#[derive(Debug, Clone)]
struct TCell {
    shape: StencilShape,
    stencil: String,
    t: u32,
    gpu: GpuKind,
    model: ProgModel,
    /// Normalised FLOPs per point for the fused launch (`T ×` per-step).
    flops_per_point: u64,
    /// Composed theoretical AI (`T ×` the per-step Table 4 value).
    theoretical_ai: f64,
}

fn flatten_cells() -> Vec<TCell> {
    let matrix = ProgModel::paper_matrix();
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        let analysis = StencilAnalysis::of_shape(&shape);
        for t in feasible_degrees(&shape) {
            for arch in GpuArch::table() {
                for &(gpu, model) in &matrix {
                    if gpu != arch.kind {
                        continue;
                    }
                    cells.push(TCell {
                        shape,
                        stencil: shape.label(),
                        t,
                        gpu,
                        model,
                        flops_per_point: analysis.flops_per_point * t as u64,
                        theoretical_ai: analysis.theoretical_ai * t as f64,
                    });
                }
            }
        }
    }
    cells
}

/// Run the temporal study matrix — every paper stencil × every feasible
/// fusion degree × the paper's 6 (GPU, model) pairs, bricks codegen —
/// with the same parallelism, caching and determinism contract as
/// [`crate::runner::sweep_with`]. The `filter` field of the options is
/// ignored (the temporal matrix is its own selection).
pub fn temporal_sweep_with(opts: &SweepOptions) -> Result<TemporalSweep, SweepError> {
    opts.params.validate().map_err(SweepError::InvalidParams)?;
    let sweep_start = std::time::Instant::now();
    let manifest = brick_obs::RunManifest::begin(
        &serde_json::to_string(&opts.params).expect("params serialize"),
    );
    let _span = brick_obs::span_cat(format!("temporal-sweep:{}^3", opts.params.n), "sweep");
    let n = opts.params.n;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(|e| SweepError::Cache(e.to_string()))?),
        None => None,
    };

    let rooflines = measure_rooflines(cache.as_ref());
    let cells = flatten_cells();
    brick_obs::info!(
        "temporal sweep: {} cells at n={n} across {} rooflines",
        cells.len(),
        rooflines.len()
    );

    // Phase 1 — build and verify each distinct fused program once
    // (distinct = (stencil, SIMD width, degree)).
    let lint_memo = brick_lint::FingerprintCache::new();
    let mut spec_jobs: Vec<(StencilShape, usize, u32)> = Vec::new();
    for cell in &cells {
        let width = GpuArch::by_kind(cell.gpu).simd_width;
        if !spec_jobs
            .iter()
            .any(|(s, w, t)| s.label() == cell.stencil && *w == width && *t == cell.t)
        {
            spec_jobs.push((cell.shape, width, cell.t));
        }
    }
    let specs: HashMap<(String, usize, u32), KernelSpec> = map_cells(
        "temporal.specs",
        &spec_jobs,
        opts.jobs,
        |_, &(shape, width, t)| {
            let _phase = brick_obs::span_cat("lint-verify", "phase");
            let spec = build_temporal_spec(&shape, width, t);
            verify_temporal_spec(&spec, &shape, t, &lint_memo);
            ((shape.label(), width, t), spec)
        },
    )
    .into_iter()
    .collect();

    // Phase 2 — evaluate cells, sharing geometries by (width, reach) and
    // memory counters by (gpu, stencil, degree, blocks_per_sm, fidelity).
    type GeomKey = (usize, usize);
    type MemKey = (GpuKind, String, u32, u32, SimFidelity);
    let geom_memo: Mutex<HashMap<GeomKey, Arc<OnceLock<TraceGeometry>>>> =
        Mutex::new(HashMap::new());
    let mem_memo: Mutex<HashMap<MemKey, Arc<OnceLock<MemCounters>>>> = Mutex::new(HashMap::new());
    fn memo_slot<K: std::hash::Hash + Eq, V>(
        map: &Mutex<HashMap<K, Arc<OnceLock<V>>>>,
        key: K,
    ) -> Arc<OnceLock<V>> {
        Arc::clone(
            map.lock()
                .expect("memo lock poisoned")
                .entry(key)
                .or_default(),
        )
    }

    let outcomes = map_cells("temporal.cells", &cells, opts.jobs, |_, cell: &TCell| {
        let t0 = std::time::Instant::now();
        let _rec_span = brick_obs::span_cat(
            format!("{}/t{}/{}/{}", cell.stencil, cell.t, cell.gpu, cell.model),
            "record",
        );
        let arch = GpuArch::by_kind(cell.gpu);
        let width = arch.simd_width;
        let spec = &specs[&(cell.stencil.clone(), width, cell.t)];
        let compiled = {
            let _phase = brick_obs::span_cat("compile", "phase");
            compile_only(spec, arch, cell.model)
        };
        let Some((cm, compiled, occ)) = compiled else {
            return Ok(None); // unsupported pair: a hole, not an error
        };
        let Some(rl) = rooflines
            .iter()
            .find(|((g, m), _)| *g == cell.gpu && *m == cell.model)
            .map(|(_, r)| *r)
        else {
            return Err(SweepError::MissingRoofline {
                gpu: cell.gpu,
                model: cell.model,
            });
        };

        let key = cache.as_ref().map(|_| {
            temporal_cell_key(
                spec,
                arch,
                cell.model,
                n,
                cell.flops_per_point,
                cell.theoretical_ai,
                &rl,
                opts.fidelity,
                cell.t,
                // the temporal sweep fixes every axis at the paper
                // default except the fusion degree under test
                &brick_codegen::SpecParams {
                    temporal_degree: cell.t,
                    ..brick_codegen::SpecParams::paper_default(width)
                },
            )
        });
        if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
            let _phase = brick_obs::span_cat("cache-io", "phase");
            if let CacheOutcome::Hit(record) = c.get::<TemporalRecord>(key) {
                return Ok(Some((record, t0.elapsed().as_secs_f64())));
            }
        }

        // the fused footprint reaches T·r, so the trace geometry's ghost
        // shell must cover the composed radius, not the spatial one
        let reach = cell.t as usize * cell.shape.radius as usize;
        let geom_slot = memo_slot(&geom_memo, (width, reach));
        let mem_slot = memo_slot(
            &mem_memo,
            (
                cell.gpu,
                cell.stencil.clone(),
                cell.t,
                occ.blocks_per_sm,
                opts.fidelity,
            ),
        );
        let (geom, mem) = {
            let _phase = brick_obs::span_cat("simulate", "phase");
            let geom = geom_slot.get_or_init(|| build_geometry(LayoutKind::Brick, n, width, reach));
            let mem = *mem_slot.get_or_init(|| {
                let sim_opts = SimOptions {
                    fidelity: opts.fidelity,
                    ..SimOptions::default()
                };
                simulate_memory_opts(spec, geom, arch, occ.blocks_per_sm, &sim_opts).counters()
            });
            (geom, mem)
        };
        let score = brick_obs::span_cat("score", "phase");
        let sim = assemble(spec, geom, arch, &cm, &compiled, mem, cell.flops_per_point);
        let applied_points = sim.points as f64 * cell.t as f64;
        let record = TemporalRecord {
            shape: cell.shape,
            stencil: cell.stencil.clone(),
            temporal_degree: cell.t,
            gpu: cell.gpu,
            model: cell.model,
            gflops: sim.gflops,
            ai: sim.ai,
            dram_bytes: sim.mem.dram_bytes,
            dram_bytes_per_point: if applied_points > 0.0 {
                sim.mem.dram_bytes as f64 / applied_points
            } else {
                0.0
            },
            l1_bytes: sim.mem.l1_bytes,
            l2_bytes: sim.mem.l2_bytes,
            time_s: sim.time_s,
            occupancy: sim.occupancy.occupancy,
            regs_per_thread: sim.regs_per_thread,
            spilled: sim.spilled,
            limiter: sim.breakdown.limiter().to_string(),
        };
        drop(score); // phases never nest: close scoring before cache-io
        if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
            let _phase = brick_obs::span_cat("cache-io", "phase");
            if let Err(e) = c.put(key, &record) {
                brick_obs::warn!("could not cache {}: {e}", key.file_name());
            }
        }
        Ok(Some((record, t0.elapsed().as_secs_f64())))
    });

    let mut records = Vec::new();
    let mut record_wall_s = Vec::new();
    for outcome in outcomes {
        if let Some((record, wall)) = outcome? {
            records.push(record);
            record_wall_s.push(wall);
        }
    }

    let mut degrees: Vec<u32> = records.iter().map(|r| r.temporal_degree).collect();
    degrees.sort_unstable();
    degrees.dedup();

    let manifest = manifest
        .finish(sweep_start.elapsed().as_secs_f64(), record_wall_s)
        .with_sweep_info(
            &opts.fidelity.to_string(),
            opts.jobs.count() as u64,
            cache.as_ref().map_or((0, 0, 0), DiskCache::probes),
        )
        .with_temporal_degrees(&degrees);
    Ok(TemporalSweep {
        params: opts.params,
        records,
        manifest,
    })
}

/// [`temporal_sweep_with`] with default scheduling and no disk cache.
/// Panics on invalid parameters.
pub fn temporal_sweep(params: crate::config::ExperimentParams) -> TemporalSweep {
    temporal_sweep_with(&SweepOptions::new(params)).expect("temporal sweep failed")
}

/// `BENCH_temporal.json`: the temporal scaling benchmark and its gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TemporalBench {
    /// Domain size the benchmark swept.
    pub n: usize,
    /// star-7 DRAM bytes/point-step at the deepest degree over `T=1`
    /// (A100/CUDA) — the AN5D headline ratio; gated at ≤ 0.45.
    pub star7_dram_ratio: f64,
    /// Deepest star-7 degree the ratio was taken at.
    pub star7_max_degree: u32,
    /// The A100/CUDA panel, in canonical order.
    pub panel: Vec<TemporalRecord>,
    /// Provenance of the sweep behind the numbers.
    pub manifest: brick_obs::RunManifest,
}

/// DRAM-scaling acceptance bound for star-7 at the deepest fusion degree.
pub const STAR7_DRAM_RATIO_MAX: f64 = 0.45;

/// Run the temporal benchmark at `n³` and write `BENCH_temporal.json`
/// under `out`.
///
/// Gates (an `Err` means a gate failed — callers should exit non-zero):
/// AI must **strictly increase** with the fusion degree for every star
/// stencil on every platform, and star-7's DRAM bytes per applied
/// timestep at its deepest degree must be at most
/// [`STAR7_DRAM_RATIO_MAX`] of the spatial baseline on A100/CUDA.
pub fn run_bench_temporal(
    n: usize,
    jobs: Option<usize>,
    out: &std::path::Path,
) -> Result<TemporalBench, String> {
    let mut opts = SweepOptions::new(crate::config::ExperimentParams { n });
    if let Some(j) = jobs {
        opts = opts.jobs(j);
    }
    let sweep = temporal_sweep_with(&opts).map_err(|e| e.to_string())?;

    let mut gate_failures = Vec::new();
    for &(gpu, model) in &ProgModel::paper_matrix() {
        // the star family with a fusible degree range: 7pt (star-1) and
        // 13pt (star-2); star-3/4 are spatial-only under the 4×4 block
        for stencil in ["7pt", "13pt"] {
            let series = sweep.series(gpu, model, stencil);
            for pair in series.windows(2) {
                if pair[1].ai <= pair[0].ai {
                    gate_failures.push(format!(
                        "{gpu}/{model} {stencil}: AI not strictly increasing \
                         (t{} {:.4} <= t{} {:.4})",
                        pair[1].temporal_degree, pair[1].ai, pair[0].temporal_degree, pair[0].ai
                    ));
                }
            }
        }
    }

    let series = sweep.series(GpuKind::A100, ProgModel::Cuda, "7pt");
    let t1 = series.first().ok_or("no star-7 T=1 record")?;
    let deepest = series.last().ok_or("no star-7 fused record")?;
    let ratio = deepest.dram_bytes_per_point / t1.dram_bytes_per_point;
    if ratio > STAR7_DRAM_RATIO_MAX {
        gate_failures.push(format!(
            "star-7 DRAM/pt-step ratio at t{}: {ratio:.3} > {STAR7_DRAM_RATIO_MAX}",
            deepest.temporal_degree
        ));
    }

    let bench = TemporalBench {
        n,
        star7_dram_ratio: ratio,
        star7_max_degree: deepest.temporal_degree,
        panel: sweep
            .records
            .iter()
            .filter(|r| r.gpu == GpuKind::A100 && r.model == ProgModel::Cuda)
            .cloned()
            .collect(),
        manifest: sweep.manifest.clone(),
    };
    let path = out.join("BENCH_temporal.json");
    let json = serde_json::to_string_pretty(&bench).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;

    if gate_failures.is_empty() {
        Ok(bench)
    } else {
        Err(gate_failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_temporal_sweep;

    #[test]
    fn matrix_covers_every_feasible_degree() {
        let s = shared_temporal_sweep();
        // degrees per stencil: star-1/cube-1 → 4, star-2/cube-2 → 2,
        // star-3/star-4 → 1; 14 series × 6 (gpu, model) pairs
        assert_eq!(s.records.len(), 14 * 6);
        assert_eq!(s.manifest.temporal_degrees, vec![1, 2, 3, 4]);
        for shape in StencilShape::paper_suite() {
            for t in feasible_degrees(&shape) {
                assert!(
                    s.point(GpuKind::A100, ProgModel::Cuda, &shape.label(), t)
                        .is_some(),
                    "{shape} t{t} missing"
                );
            }
        }
    }

    #[test]
    fn ai_strictly_increases_with_degree_on_stars() {
        let s = shared_temporal_sweep();
        for &(gpu, model) in &ProgModel::paper_matrix() {
            for stencil in ["7pt", "13pt"] {
                let series = s.series(gpu, model, stencil);
                assert!(series.len() >= 2, "{gpu} {model} {stencil}");
                for pair in series.windows(2) {
                    assert!(
                        pair[1].ai > pair[0].ai,
                        "{gpu} {model} {stencil}: AI t{} {:.3} !> t{} {:.3}",
                        pair[1].temporal_degree,
                        pair[1].ai,
                        pair[0].temporal_degree,
                        pair[0].ai
                    );
                }
            }
        }
    }

    #[test]
    fn dram_bytes_per_applied_step_shrink_with_degree() {
        // the AN5D headline at test scale: star-7 fused 4 deep moves well
        // under half the DRAM bytes per applied timestep of the spatial
        // baseline (the 512³ acceptance run is `--bench-temporal`)
        let s = shared_temporal_sweep();
        let t1 = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", 1).unwrap();
        let t4 = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", 4).unwrap();
        assert!(
            t4.dram_bytes_per_point <= 0.45 * t1.dram_bytes_per_point,
            "t4 {:.2} B/pt-step vs t1 {:.2} B/pt-step",
            t4.dram_bytes_per_point,
            t1.dram_bytes_per_point
        );
    }

    #[test]
    fn degree_one_matches_spatial_flop_accounting() {
        let s = shared_temporal_sweep();
        for r in &s.records {
            if r.temporal_degree == 1 {
                let a = StencilAnalysis::of_shape(&r.shape);
                // per-launch AI at T=1 is the plain empirical AI, bounded
                // by the per-step theoretical ceiling
                assert!(r.ai <= a.theoretical_ai * 1.001, "{r:?}");
            }
            assert!(r.gflops > 0.0 && r.time_s > 0.0, "{r:?}");
            assert!(r.l1_bytes >= r.dram_bytes, "{r:?}");
        }
    }

    #[test]
    fn hip_wrapper_matches_cuda() {
        let s = shared_temporal_sweep();
        for t in [1, 2, 4] {
            let c = s.point(GpuKind::A100, ProgModel::Cuda, "7pt", t).unwrap();
            let h = s.point(GpuKind::A100, ProgModel::Hip, "7pt", t).unwrap();
            assert_eq!(c.dram_bytes, h.dram_bytes);
            assert!((c.gflops - h.gflops).abs() / c.gflops < 1e-9);
        }
    }
}
