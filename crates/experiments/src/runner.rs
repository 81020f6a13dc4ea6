//! The sweep runner: every (stencil × kernel config × GPU × programming
//! model) point of the study, flattened into independent cells, fanned
//! out across worker threads ([`brick_sweep::map_cells`]) and made
//! incremental across runs by a content-addressed on-disk result cache
//! (see [`crate::cache`]).
//!
//! Determinism contract: for a fixed configuration, [`sweep_with`]
//! produces byte-identical serialized records at **any** jobs count and
//! whether cells were computed or loaded from a warm cache. The parallel
//! reduction preserves cell order, every cell is a pure function of its
//! inputs, and shared memoisations (verification, geometry, memory
//! counters) only deduplicate work — never change values. The golden and
//! determinism suites under `crates/experiments/tests/` enforce this.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, CodegenOptions, LayoutKind};
use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_sweep::{map_cells, CacheOutcome, DiskCache, Jobs};
use brick_vm::{KernelSpec, ScalarKernel, TraceGeometry};
use gpu_sim::{
    assemble, compile_only, simulate_memory_opts, CompilerModel, GpuArch, GpuKind, MemCounters,
    ProgModel, SimFidelity, SimOptions,
};
use roofline::{measure, Roofline};

use crate::cache::{cell_key, roofline_key};
use crate::config::{ExperimentParams, KernelConfig};

/// One measured point of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    /// Stencil shape.
    pub shape: StencilShape,
    /// Paper label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Kernel configuration.
    pub config: KernelConfig,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// GFLOP/s at the normalised FLOP count.
    pub gflops: f64,
    /// Empirical arithmetic intensity (FLOP/Byte at DRAM).
    pub ai: f64,
    /// Theoretical arithmetic intensity (Table 4).
    pub theoretical_ai: f64,
    /// Fraction of the empirical Roofline at the empirical AI.
    pub frac_roofline: f64,
    /// Fraction of theoretical AI.
    pub frac_theoretical_ai: f64,
    /// L1 data movement in bytes (Fig. 4 metric).
    pub l1_bytes: u64,
    /// L2 data movement in bytes.
    pub l2_bytes: u64,
    /// HBM data movement in bytes (Figs. 5/6 "Bytes accessed").
    pub dram_bytes: u64,
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

/// A complete sweep: all records plus the per-platform empirical
/// Rooflines they were scored against, and the provenance manifest of
/// the run that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sweep {
    /// Parameters the sweep ran with.
    pub params: ExperimentParams,
    /// All measured points.
    pub records: Vec<Record>,
    /// Empirical Roofline per platform.
    pub rooflines: Vec<((GpuKind, ProgModel), Roofline)>,
    /// Provenance: git SHA, config hash, wall times, obs summary.
    pub manifest: brick_obs::RunManifest,
}

impl Sweep {
    /// Records matching a filter, in sweep order.
    pub fn select(
        &self,
        gpu: Option<GpuKind>,
        model: Option<ProgModel>,
        config: Option<KernelConfig>,
    ) -> Vec<&Record> {
        self.records
            .iter()
            .filter(|r| gpu.is_none_or(|g| r.gpu == g))
            .filter(|r| model.is_none_or(|m| r.model == m))
            .filter(|r| config.is_none_or(|c| r.config == c))
            .collect()
    }

    /// The unique record for an exact point.
    pub fn point(
        &self,
        gpu: GpuKind,
        model: ProgModel,
        config: KernelConfig,
        stencil: &str,
    ) -> Option<&Record> {
        self.records.iter().find(|r| {
            r.gpu == gpu && r.model == model && r.config == config && r.stencil == stencil
        })
    }

    /// Roofline for a platform.
    pub fn roofline(&self, gpu: GpuKind, model: ProgModel) -> Option<&Roofline> {
        self.rooflines
            .iter()
            .find(|((g, m), _)| *g == gpu && *m == model)
            .map(|(_, r)| r)
    }
}

/// Statically verify a spec's vector kernel before it is simulated,
/// memoised by kernel fingerprint (thread-safe, shareable across parallel
/// cells — see [`brick_lint::FingerprintCache`]) so the (GPU, model)
/// matrix pays for each distinct program once. Scalar kernels have no IR
/// to verify and pass through. Panics with the rendered report if the
/// generator emitted a kernel the analyzer rejects — simulating an
/// unverified kernel would silently produce wrong paper numbers.
pub fn verify_spec(
    spec: &KernelSpec,
    shape: &StencilShape,
    arch: &GpuArch,
    cache: &brick_lint::FingerprintCache,
) {
    let KernelSpec::Vector(k) = spec else { return };
    let fp = brick_lint::fingerprint(k);
    if cache.check_or_insert(fp) {
        brick_obs::counter_add("sweep.lint_cache_hits", 1);
        return;
    }
    let _span = brick_obs::span_cat(format!("lint:sweep:{}", k.name), "lint");
    let st = shape.stencil();
    let b = st.default_bindings();
    let opts = brick_lint::LintOptions {
        expected: Some(
            brick_lint::ExpectedStencil::resolve(&st, &b).expect("paper bindings resolve"),
        ),
        budgets: vec![arch.lint_budget()],
    };
    let analysis = brick_lint::analyze(k, &opts);
    assert!(
        analysis.is_clean(),
        "generated kernel failed static verification:\n{}",
        analysis.report.render(Some(k))
    );
    brick_obs::counter_add("sweep.lint_verified", 1);
}

/// Build the kernel spec for a configuration at a SIMD width.
pub fn build_spec(shape: &StencilShape, config: KernelConfig, width: usize) -> KernelSpec {
    let st = shape.stencil();
    let b = st.default_bindings();
    if config.codegen() {
        KernelSpec::Vector(
            generate(&st, &b, config.layout(), width, CodegenOptions::default())
                .expect("paper stencils are within codegen limits"),
        )
    } else {
        KernelSpec::Scalar(
            ScalarKernel::new(&st, &b, config.layout(), width)
                .expect("default bindings cover all symbols"),
        )
    }
}

/// Build the trace geometry for a layout at a domain size.
pub fn build_geometry(layout: LayoutKind, n: usize, width: usize, radius: usize) -> TraceGeometry {
    let dims = BrickDims::for_simd_width(width);
    match layout {
        LayoutKind::Brick => {
            let decomp = Arc::new(BrickDecomp::new(
                (n, n, n),
                dims,
                radius,
                BrickOrdering::Lexicographic,
            ));
            TraceGeometry::brick(Arc::new(BrickNav::new(decomp)))
        }
        LayoutKind::Array => TraceGeometry::array((n, n, n), radius, dims),
    }
}

/// A structured sweep failure (the runner no longer panics on matrix
/// holes — an unsupported pair or a missing ceiling comes back as data).
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The experiment parameters failed validation.
    InvalidParams(String),
    /// A supported `(gpu, model)` cell had no measured Roofline to score
    /// against.
    MissingRoofline {
        /// GPU of the offending cell.
        gpu: GpuKind,
        /// Programming model of the offending cell.
        model: ProgModel,
    },
    /// The on-disk result cache could not be opened.
    Cache(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidParams(msg) => write!(f, "invalid experiment parameters: {msg}"),
            SweepError::MissingRoofline { gpu, model } => {
                write!(f, "no empirical Roofline for supported pair {gpu}/{model}")
            }
            SweepError::Cache(msg) => write!(f, "result cache unavailable: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A sub-matrix selection: `None` per axis means "everything". Used by
/// the determinism suite (random sub-matrices must stay deterministic)
/// and handy for focused reruns; figure/table drivers assume the full
/// matrix and are not filter-aware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellFilter {
    /// Keep only these stencil labels (`"7pt"` … `"125pt"`).
    pub stencils: Option<Vec<String>>,
    /// Keep only these GPUs.
    pub gpus: Option<Vec<GpuKind>>,
    /// Keep only these programming models.
    pub models: Option<Vec<ProgModel>>,
    /// Keep only these kernel configurations.
    pub configs: Option<Vec<KernelConfig>>,
}

impl CellFilter {
    /// Does `cell` survive the filter?
    fn keeps(&self, cell: &Cell) -> bool {
        self.stencils
            .as_ref()
            .is_none_or(|s| s.contains(&cell.stencil))
            && self.gpus.as_ref().is_none_or(|g| g.contains(&cell.gpu))
            && self.models.as_ref().is_none_or(|m| m.contains(&cell.model))
            && self
                .configs
                .as_ref()
                .is_none_or(|c| c.contains(&cell.config))
    }
}

/// How to run a sweep: the study parameters plus scheduling and caching
/// choices (which, by the determinism contract, never affect results —
/// only wall time).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Study parameters (domain size).
    pub params: ExperimentParams,
    /// Worker threads for the cell fan-out.
    pub jobs: Jobs,
    /// Result-cache directory; `None` disables on-disk caching.
    pub cache_dir: Option<PathBuf>,
    /// Sub-matrix to run (default: the full paper matrix).
    pub filter: CellFilter,
    /// Simulation fidelity (default `Fast`; bit-identical to `Exact` by
    /// the differential contract, and part of every cell's cache key).
    pub fidelity: SimFidelity,
}

impl SweepOptions {
    /// Defaults: full matrix, no disk cache, jobs from `BRICK_JOBS` or
    /// all hardware threads, fast fidelity.
    pub fn new(params: ExperimentParams) -> SweepOptions {
        SweepOptions {
            params,
            jobs: Jobs::from_flag_or_env(None),
            cache_dir: None,
            filter: CellFilter::default(),
            fidelity: SimFidelity::default(),
        }
    }

    /// Use exactly `n` worker threads.
    pub fn jobs(mut self, n: usize) -> SweepOptions {
        self.jobs = Jobs::N(n);
        self
    }

    /// Cache results under `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> SweepOptions {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Restrict to a sub-matrix.
    pub fn filter(mut self, filter: CellFilter) -> SweepOptions {
        self.filter = filter;
        self
    }

    /// Simulate with the given fidelity.
    pub fn fidelity(mut self, fidelity: SimFidelity) -> SweepOptions {
        self.fidelity = fidelity;
        self
    }
}

/// One independent unit of sweep work: a `(stencil, config, GPU, model)`
/// matrix point plus the per-stencil scoring constants, carried by value
/// so evaluating the cell touches no shared mutable state.
#[derive(Debug, Clone)]
struct Cell {
    shape: StencilShape,
    stencil: String,
    gpu: GpuKind,
    model: ProgModel,
    config: KernelConfig,
    flops_per_point: u64,
    theoretical_ai: f64,
}

/// Flatten the (filtered) study matrix into cells, in the canonical
/// order records are reported in: stencil → architecture → `(gpu,
/// model)` pair → configuration.
fn flatten_cells(filter: &CellFilter) -> Vec<Cell> {
    let matrix = ProgModel::paper_matrix();
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        let analysis = StencilAnalysis::of_shape(&shape);
        for arch in GpuArch::table() {
            for &(gpu, model) in &matrix {
                if gpu != arch.kind {
                    continue;
                }
                for config in KernelConfig::all() {
                    let cell = Cell {
                        shape,
                        stencil: shape.label(),
                        gpu,
                        model,
                        config,
                        flops_per_point: analysis.flops_per_point,
                        theoretical_ai: analysis.theoretical_ai,
                    };
                    if filter.keeps(&cell) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// Measure (or reuse) the empirical Roofline of every supported matrix
/// pair, in matrix order.
///
/// Ceilings are memoised per *platform*: pairs whose resolved compiler
/// model coincides (HIP on A100 is the CUDA wrapper) share one mixbench
/// sweep instead of re-measuring, and with a warm disk cache the
/// measurement is loaded instead of run.
pub(crate) fn measure_rooflines(
    cache: Option<&DiskCache>,
) -> Vec<((GpuKind, ProgModel), Roofline)> {
    let _s = brick_obs::span_cat("rooflines", "phase");
    let mut memo: HashMap<String, Option<Roofline>> = HashMap::new();
    let mut rooflines = Vec::new();
    for (gpu, model) in ProgModel::paper_matrix() {
        let arch = GpuArch::by_kind(gpu);
        // platform identity: the architecture plus the *resolved* compiler
        // model, so wrapper models dedupe onto their host toolchain
        let platform = match CompilerModel::resolve(gpu, model) {
            Some(cm) => format!(
                "{gpu}/{}",
                serde_json::to_string(&cm).expect("compiler model serializes")
            ),
            None => continue, // unsupported pair: no ceiling, no cell
        };
        let measured = memo.entry(platform).or_insert_with(|| match cache {
            Some(c) => c.get_or_compute(&roofline_key(arch, model), || measure(arch, model)),
            None => measure(arch, model),
        });
        if let Some(r) = measured {
            rooflines.push(((gpu, model), *r));
        }
    }
    brick_obs::gauge_set("sweep.rooflines", rooflines.len() as f64);
    rooflines
}

/// Run the full study matrix — 6 stencils × 3 configurations × the
/// paper's 6 (GPU, model) pairs — in parallel, loading unchanged cells
/// from the result cache when one is configured.
///
/// Memory simulations are shared between programming models whose trace
/// and resident-wave shape coincide (CUDA and its HIP wrapper always do),
/// so the matrix costs 3 GPUs' worth of traces, not 6; the sharing memo
/// is race-free (`OnceLock` per key) and value-deterministic, so the
/// schedule cannot influence results.
pub fn sweep_with(opts: &SweepOptions) -> Result<Sweep, SweepError> {
    opts.params.validate().map_err(SweepError::InvalidParams)?;
    let sweep_start = std::time::Instant::now();
    let manifest = brick_obs::RunManifest::begin(
        &serde_json::to_string(&opts.params).expect("params serialize"),
    );
    let _span = brick_obs::span_cat(format!("sweep:{}^3", opts.params.n), "sweep");
    let n = opts.params.n;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(|e| SweepError::Cache(e.to_string()))?),
        None => None,
    };

    let rooflines = measure_rooflines(cache.as_ref());
    brick_obs::info!("measured {} rooflines, sweeping at n={n}", rooflines.len());

    let cells = flatten_cells(&opts.filter);

    // Phase 1 — build and statically verify each distinct kernel program
    // once (distinct = (stencil, SIMD width, config); the (gpu, model)
    // axis shares programs). Verification is memoised by the analyzer's
    // content fingerprint.
    let lint_memo = brick_lint::FingerprintCache::new();
    let mut spec_jobs: Vec<(StencilShape, usize, KernelConfig)> = Vec::new();
    for cell in &cells {
        let width = GpuArch::by_kind(cell.gpu).simd_width;
        if !spec_jobs
            .iter()
            .any(|(s, w, c)| s.label() == cell.stencil && *w == width && *c == cell.config)
        {
            spec_jobs.push((cell.shape, width, cell.config));
        }
    }
    let specs: HashMap<(String, usize, KernelConfig), KernelSpec> = map_cells(
        "sweep.specs",
        &spec_jobs,
        opts.jobs,
        |_, &(shape, width, config)| {
            let _phase = brick_obs::span_cat("lint-verify", "phase");
            let spec = build_spec(&shape, config, width);
            let arch = GpuArch::table()
                .iter()
                .find(|a| a.simd_width == width)
                .expect("width comes from the table");
            verify_spec(&spec, &shape, arch, &lint_memo);
            ((shape.label(), width, config), spec)
        },
    )
    .into_iter()
    .collect();

    // Phase 2 — evaluate cells. Shared, value-deterministic memos:
    // geometries by (layout, width, radius) and memory counters by
    // (gpu, stencil, config, blocks_per_sm). `OnceLock` guarantees one
    // computation per key even under races, and cache hits skip both.
    type GeomKey = (LayoutKind, usize, usize);
    type MemKey = (GpuKind, String, KernelConfig, u32, SimFidelity);
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

    let outcomes = map_cells("sweep.cells", &cells, opts.jobs, |_, cell: &Cell| {
        let t0 = std::time::Instant::now();
        let _rec_span = brick_obs::span_cat(
            format!(
                "{}/{}/{}/{}",
                cell.stencil, cell.config, cell.gpu, cell.model
            ),
            "record",
        );
        let arch = GpuArch::by_kind(cell.gpu);
        let width = arch.simd_width;
        let spec = &specs[&(cell.stencil.clone(), width, cell.config)];
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
            cell_key(
                spec,
                arch,
                cell.model,
                n,
                cell.flops_per_point,
                cell.theoretical_ai,
                &rl,
                opts.fidelity,
                1, // the base matrix is unfused; see crate::temporal
                // the base sweep always runs the paper's fixed
                // specialization for the target's lane width
                &brick_codegen::SpecParams::paper_default(width),
            )
        });
        if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
            let _phase = brick_obs::span_cat("cache-io", "phase");
            if let CacheOutcome::Hit(record) = c.get::<Record>(key) {
                return Ok(Some((record, t0.elapsed().as_secs_f64())));
            }
        }

        let radius = cell.shape.radius as usize;
        let geom_slot = memo_slot(&geom_memo, (cell.config.layout(), width, radius));
        let mem_slot = memo_slot(
            &mem_memo,
            (
                cell.gpu,
                cell.stencil.clone(),
                cell.config,
                occ.blocks_per_sm,
                opts.fidelity,
            ),
        );
        let (geom, mem) = {
            let _phase = brick_obs::span_cat("simulate", "phase");
            let geom =
                geom_slot.get_or_init(|| build_geometry(cell.config.layout(), n, width, radius));
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
        let record = Record {
            shape: cell.shape,
            stencil: cell.stencil.clone(),
            config: cell.config,
            gpu: cell.gpu,
            model: cell.model,
            gflops: sim.gflops,
            ai: sim.ai,
            theoretical_ai: cell.theoretical_ai,
            frac_roofline: rl.fraction(sim.gflops, sim.ai),
            frac_theoretical_ai: sim.ai / cell.theoretical_ai,
            l1_bytes: sim.mem.l1_bytes,
            l2_bytes: sim.mem.l2_bytes,
            dram_bytes: sim.mem.dram_bytes,
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

    // Deterministic reduction: cell order in, record order out.
    let mut records = Vec::new();
    let mut record_wall_s = Vec::new();
    for outcome in outcomes {
        if let Some((record, wall)) = outcome? {
            records.push(record);
            record_wall_s.push(wall);
        }
    }

    let manifest = manifest
        .finish(sweep_start.elapsed().as_secs_f64(), record_wall_s)
        .with_sweep_info(
            &opts.fidelity.to_string(),
            opts.jobs.count() as u64,
            cache.as_ref().map_or((0, 0, 0), DiskCache::probes),
        );
    Ok(Sweep {
        params: opts.params,
        records,
        rooflines,
        manifest,
    })
}

/// Run the full study matrix with default scheduling (all hardware
/// threads or `BRICK_JOBS`) and no disk cache. Panics on invalid
/// parameters — the historical convenience entry point; use
/// [`sweep_with`] for structured errors, caching and jobs control.
pub fn sweep(params: ExperimentParams) -> Sweep {
    sweep_with(&SweepOptions::new(params)).expect("sweep failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::shared_sweep;

    fn test_sweep() -> &'static Sweep {
        shared_sweep()
    }

    #[test]
    fn sweep_covers_the_full_matrix() {
        let s = test_sweep();
        // 6 stencils × 3 configs × 6 (gpu, model) pairs
        assert_eq!(s.records.len(), 6 * 3 * 6);
        assert_eq!(s.rooflines.len(), 6);
        for &(gpu, model) in &ProgModel::paper_matrix() {
            let recs = s.select(Some(gpu), Some(model), None);
            assert_eq!(recs.len(), 18, "{gpu} {model}");
        }
    }

    #[test]
    fn hip_wrapper_matches_cuda_in_sweep() {
        let s = test_sweep();
        for config in KernelConfig::all() {
            for stencil in ["7pt", "125pt"] {
                let c = s
                    .point(GpuKind::A100, ProgModel::Cuda, config, stencil)
                    .unwrap();
                let h = s
                    .point(GpuKind::A100, ProgModel::Hip, config, stencil)
                    .unwrap();
                assert_eq!(c.dram_bytes, h.dram_bytes);
                assert!((c.gflops - h.gflops).abs() / c.gflops < 1e-9);
            }
        }
    }

    #[test]
    fn bricks_codegen_wins_on_every_platform() {
        let s = test_sweep();
        for &(gpu, model) in &ProgModel::paper_matrix() {
            for stencil in ["7pt", "13pt", "27pt", "125pt"] {
                let bricks = s
                    .point(gpu, model, KernelConfig::BricksCodegen, stencil)
                    .unwrap();
                let array = s.point(gpu, model, KernelConfig::Array, stencil).unwrap();
                // At the 128³ test size the MI250X domain is only two
                // 64-wide bricks across (half the brick shell is ghost),
                // which costs the brick layout up to ~20% here; on the
                // other GPUs the shell is small. Full-scale ordering is
                // checked by the 256³/512³ benchmark runs.
                let tolerance = if gpu == GpuKind::Mi250xGcd { 0.8 } else { 0.95 };
                assert!(
                    bricks.gflops >= array.gflops * tolerance,
                    "{gpu} {model} {stencil}: bricks {:.0} < array {:.0}",
                    bricks.gflops,
                    array.gflops
                );
            }
        }
    }

    #[test]
    fn verify_spec_caches_by_fingerprint() {
        let shape = StencilShape::star(1);
        let arch = GpuArch::a100();
        let spec = build_spec(&shape, KernelConfig::BricksCodegen, arch.simd_width);
        let cache = brick_lint::FingerprintCache::new();
        verify_spec(&spec, &shape, &arch, &cache);
        assert_eq!(cache.len(), 1, "vector kernel verified and cached");
        verify_spec(&spec, &shape, &arch, &cache);
        assert_eq!(cache.len(), 1, "second verification hits the cache");
        // scalar kernels have no IR and don't populate the cache
        let scalar = build_spec(&shape, KernelConfig::Array, arch.simd_width);
        verify_spec(&scalar, &shape, &arch, &cache);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fractions_are_sane() {
        let s = test_sweep();
        for r in &s.records {
            assert!(r.frac_roofline > 0.0 && r.frac_roofline <= 1.2, "{r:?}");
            assert!(
                r.frac_theoretical_ai > 0.0 && r.frac_theoretical_ai <= 1.001,
                "{r:?}"
            );
            assert!(r.l1_bytes >= r.dram_bytes, "{r:?}");
        }
    }
}
