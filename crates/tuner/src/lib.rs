//! # brick-tuner
//!
//! Autotuning over the full kernel-specialization space. The paper
//! attributes BrickLib's performance portability to exactly this search
//! ("With the addition of autotuning for brick dimension, layout, and
//! ordering, BrickLib demonstrates some level of performance
//! portability", §3) and names brick-size tuning as the path to the
//! remaining 2–4× of its potential-speed-up plot (§5.2.2).
//!
//! The tuner drives the specialization vector
//! ([`brick_codegen::SpecParams`]: vector width, fold factor, brick
//! shape, ordering, strategy, interleave chunk, temporal degree) through
//! three stages:
//!
//! 1. **Validity** ([`validity`]) — per-target predicates reject
//!    candidates no compilation could satisfy (lane mismatch, reach
//!    overflow, register floor) *before* any codegen, with per-reason
//!    skip counts surfaced through brick-obs.
//! 2. **Pruning** ([`roofline_upper_bound`]) — a provable upper bound on
//!    each candidate's simulated GFLOP/s (theoretical Roofline at the
//!    compulsory-traffic AI, derated by an occupancy *upper* bound from
//!    the register-demand *lower* bound). Candidates bounded below the
//!    already-measured paper baseline are dropped without simulation.
//! 3. **Measurement** — surviving cells are generated, statically
//!    verified by `brick-lint`, simulated through the shared substrate,
//!    and ranked by GFLOP/s with fingerprint tie-breaks, in parallel via
//!    [`brick_sweep::map_cells`] with content-addressed caching.
//!
//! The ranked table is deterministic: byte-identical at any `--jobs`
//! count and across warm/cold cache runs.
//!
//! ```no_run
//! use brick_tuner::{autotune, TuningSpace};
//! use brick_dsl::shape::StencilShape;
//! use gpu_sim::{GpuArch, ProgModel};
//!
//! let group = autotune(
//!     &StencilShape::star(2),
//!     &GpuArch::a100(),
//!     ProgModel::Cuda,
//!     64,
//!     &TuningSpace::default(),
//! )
//! .unwrap();
//! println!("best: {} at {:.0} GFLOP/s", group.best().params, group.best().gflops);
//! ```

pub mod space;
pub mod validity;

pub use space::TuningSpace;
pub use validity::{validate, Invalid};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, LayoutKind, SpecParams};
use brick_core::{BrickDecomp, BrickNav};
use brick_dsl::shape::StencilShape;
use brick_dsl::{min_live_registers, StencilAnalysis};
use brick_sweep::{map_cells, CacheKey, CacheOutcome, DiskCache, Jobs, KeyBuilder};
use brick_vm::{KernelSpec, TraceGeometry};
use gpu_sim::{
    assemble, compile_only, simulate_memory_opts, GpuArch, GpuKind, MemCounters, ProgModel,
    SimFidelity, SimOptions,
};
use roofline::Roofline;

/// Version of the tuner's cache schema. The `tune` domain was introduced
/// at v1 **after** the specialization-vector refactor, so no pre-spec
/// record can alias a specialized one: older tuner runs never wrote to
/// this domain at all, and the key embeds the [`SpecParams`] fingerprint
/// explicitly.
///
/// v2 keys cells on the *stencil shape* fingerprint instead of the
/// generated kernel's: the program is a pure function of `(shape, spec
/// vector, generator version)`, and hashing the shape lets a warm rerun
/// serve every cell — including pruned ones, cached as markers — without
/// generating or lint-verifying a single kernel. The flip side of
/// dropping the program hash from the key: a codegen or analyzer change
/// that alters tuner records MUST bump this version.
pub const TUNE_SCHEMA_VERSION: u64 = 2;

/// Safety margin on the pruning bound: a candidate is dropped only when
/// its upper bound times this margin is still below the measured paper
/// baseline (absorbs the simulator's ≤0.1% AI accounting slop).
const PRUNE_MARGIN: f64 = 1.05;

/// Stable fingerprint of a full architecture description (every field,
/// via its canonical JSON) — editing the arch table invalidates that
/// GPU's cached tuner cells.
pub fn arch_fingerprint(arch: &GpuArch) -> u64 {
    let json = serde_json::to_string(arch).expect("GpuArch serializes");
    brick_obs::manifest::fnv1a64(json.as_bytes())
}

/// Stable fingerprint of a stencil shape: label, radius and the full
/// tap list (offsets + coefficient symbol per tap, which pins the class
/// structure). Together with the spec-vector fingerprint this identifies
/// the generated program for a fixed generator version.
pub fn shape_fingerprint(shape: &StencilShape) -> u64 {
    let st = shape.stencil();
    let mut desc = format!("{};r={}", shape.label(), shape.radius);
    for t in st.taps() {
        use std::fmt::Write as _;
        let _ = write!(
            &mut desc,
            ";{},{},{}:{}",
            t.offset[0], t.offset[1], t.offset[2], t.coeff
        );
    }
    brick_obs::manifest::fnv1a64(desc.as_bytes())
}

/// Cache key for one tuner cell. Identity = stencil shape + full
/// specialization vector (its own fingerprint — two cells whose
/// *programs* coincide, e.g. differing only in ordering or interleave
/// chunk, must still never share a record) + architecture + model +
/// domain + scoring inputs + the pruning mode (a pruned-marker written
/// under `prune` must never mask a measurement a full run owes).
#[allow(clippy::too_many_arguments)]
pub fn tune_cell_key(
    shape_fp: u64,
    params: &SpecParams,
    arch: &GpuArch,
    model: ProgModel,
    n: usize,
    flops_per_point: u64,
    theoretical_ai: f64,
    roofline: &Roofline,
    fidelity: SimFidelity,
    prune: bool,
) -> CacheKey {
    KeyBuilder::new("tune", TUNE_SCHEMA_VERSION)
        .fingerprint("shape", shape_fp)
        .fingerprint("spec", params.fingerprint())
        .fingerprint("arch", arch_fingerprint(arch))
        .field("model", model)
        .field("n", n)
        .field("flops", flops_per_point)
        .field("fidelity", fidelity)
        .field("prune", prune)
        .f64_bits("theory_ai", theoretical_ai)
        .f64_bits("rl_peak", roofline.peak_gflops)
        .f64_bits("rl_bw", roofline.bandwidth_gbs)
        .build()
}

/// The cached value of one tuner cell: a measured record, or `None` for
/// a cell the Roofline bound pruned — cached too, so warm reruns skip
/// the (kernel-compiling) prune pass entirely.
#[derive(Serialize, Deserialize)]
struct CachedCell {
    record: Option<TunedRecord>,
}

/// Cache key for a target's empirical Roofline (the tuner's own domain so
/// schema bumps here never collide with the experiment harness's).
pub fn tune_roofline_key(arch: &GpuArch, model: ProgModel) -> CacheKey {
    KeyBuilder::new("tune-roofline", TUNE_SCHEMA_VERSION)
        .fingerprint("arch", arch_fingerprint(arch))
        .field("model", model)
        .build()
}

/// Provable upper bound on the simulated GFLOP/s of a candidate, used for
/// pruning. Sound by construction:
///
/// * empirical AI never exceeds the compulsory-traffic bound
///   `T · theoretical_ai` (DRAM moves at least 16 B per point per launch);
/// * achieved occupancy never exceeds the bound derived from the
///   *structural lower bound* on register demand
///   ([`min_live_registers`] → [`brick_lint::occupancy::reg_demand`]);
/// * the memory system derates bandwidth by `min(1, occ/sat)`, and
///   simulated time is at least the derated-DRAM time;
/// * the theoretical ceilings dominate the measured ones.
///
/// Therefore `simulated_gflops ≤ bound` for every valid candidate, and
/// dropping candidates bounded below an already-measured competitor can
/// never drop the winner.
pub fn roofline_upper_bound(params: &SpecParams, shape: &StencilShape, arch: &GpuArch) -> f64 {
    let demand_lb = brick_lint::occupancy::reg_demand(min_live_registers(
        shape.radius as usize,
        params.temporal_degree,
    ));
    let threads = params.width() as u32;
    let by_regs = arch.regfile_per_sm / (demand_lb * threads).max(1);
    let by_threads = arch.max_threads_per_sm / threads.max(1);
    let blocks_ub = by_regs.min(by_threads).min(arch.max_blocks_per_sm).max(1);
    let warps_ub = (blocks_ub * params.fold_factor).min(arch.max_warps_per_sm());
    let occ_ub = warps_ub as f64 / arch.max_warps_per_sm() as f64;
    occupancy_upper_bound(params, shape, arch, occ_ub)
}

/// The same Roofline bound, tightened with a known occupancy fraction —
/// the tuner applies it with the *compiled* occupancy (from the cheap
/// [`compile_only`] pass) before paying for the memory trace. Sound for
/// the same reasons as [`roofline_upper_bound`]: simulated time is at
/// least the occupancy-derated DRAM time at compulsory traffic.
pub fn occupancy_upper_bound(
    params: &SpecParams,
    shape: &StencilShape,
    arch: &GpuArch,
    occupancy: f64,
) -> f64 {
    let analysis = StencilAnalysis::of_shape(shape);
    let ai_ub = analysis.theoretical_ai * params.temporal_degree as f64;
    let derate = (occupancy / arch.bw_saturation_occupancy).min(1.0);
    (ai_ub * arch.hbm_gbs * derate).min(arch.fp64_gflops)
}

/// One measured tuner cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunedRecord {
    /// The full specialization vector.
    pub params: SpecParams,
    /// [`SpecParams::fingerprint`] — the ranking tie-break and the
    /// provenance link into cache keys.
    pub fingerprint: u64,
    /// Analyzer content hash of the generated program.
    pub kernel_fingerprint: u64,
    /// GFLOP/s at the normalised FLOP count (`T ×` per-step for fused
    /// cells, so degrees rank against each other fairly).
    pub gflops: f64,
    /// Empirical arithmetic intensity.
    pub ai: f64,
    /// Kernel time in seconds.
    pub time_s: f64,
    /// HBM traffic in bytes.
    pub dram_bytes: u64,
    /// Occupancy fraction.
    pub occupancy: f64,
    /// Registers per thread after compilation.
    pub regs_per_thread: u32,
    /// Whether the compiler spilled.
    pub spilled: bool,
    /// Limiting resource.
    pub limiter: String,
    /// Fraction of the target's *empirical* Roofline achieved.
    pub roofline_frac: f64,
}

/// The tuning outcome for one `(stencil, GPU, model)` group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneGroup {
    /// Paper stencil label (`"7pt"` … `"125pt"`).
    pub stencil: String,
    /// Stencil shape.
    pub shape: StencilShape,
    /// GPU.
    pub gpu: GpuKind,
    /// Programming model.
    pub model: ProgModel,
    /// The paper's fixed configuration, always measured (never pruned) —
    /// the anchor of the tuned-vs-paper comparison.
    pub baseline: TunedRecord,
    /// Measured candidates, best GFLOP/s first, fingerprint tie-break;
    /// includes the baseline. Truncated to the request's `top_k`.
    pub ranked: Vec<TunedRecord>,
    /// Cells actually simulated (or served from cache).
    pub evaluated: u64,
    /// Cells dropped by the Roofline upper bound.
    pub pruned: u64,
    /// Cells rejected by the validity predicate.
    pub skipped: u64,
    /// Skip counts per [`Invalid::kind`], sorted by reason slug.
    pub skip_reasons: Vec<(String, u64)>,
    /// Raw candidates enumerated for this group before filtering.
    pub raw_candidates: u64,
}

impl TuneGroup {
    /// The winning record.
    pub fn best(&self) -> &TunedRecord {
        &self.ranked[0]
    }

    /// Speed-up of the winner over the paper's fixed configuration
    /// (≥ 1 by construction: the baseline competes in the ranking).
    pub fn gain_over_paper(&self) -> f64 {
        self.best().gflops / self.baseline.gflops
    }

    /// Speed-up of the best ranked cell over the worst ranked cell.
    pub fn spread(&self) -> f64 {
        let best = self.best().gflops;
        let worst = self.ranked.last().map_or(best, |r| r.gflops);
        best / worst
    }
}

/// A complete tuning run: every group plus provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneReport {
    /// Domain extent (`n³`).
    pub n: usize,
    /// [`TuningSpace::fingerprint`] of the searched space.
    pub space_fingerprint: u64,
    /// One group per `(stencil, GPU, model)`, in canonical order
    /// (stencils outer, targets inner).
    pub groups: Vec<TuneGroup>,
    /// Run provenance (includes tuner cell accounting).
    pub manifest: brick_obs::RunManifest,
}

impl TuneReport {
    /// The group for an exact `(gpu, model, stencil)` point.
    pub fn group(&self, gpu: GpuKind, model: ProgModel, stencil: &str) -> Option<&TuneGroup> {
        self.groups
            .iter()
            .find(|g| g.gpu == gpu && g.model == model && g.stencil == stencil)
    }

    /// Total cells measured across groups.
    pub fn total_evaluated(&self) -> u64 {
        self.groups.iter().map(|g| g.evaluated).sum()
    }
}

/// One tuning target: an architecture description plus a programming
/// model. Owning the arch (rather than a `GpuKind`) lets tests tune
/// synthetic or scaled machines.
#[derive(Debug, Clone)]
pub struct TuneTarget {
    /// Architecture to tune for.
    pub arch: GpuArch,
    /// Programming model.
    pub model: ProgModel,
}

/// Request for [`tune_matrix`]: which stencils × targets to tune, over
/// which space, with which scheduling/caching.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Domain extent.
    pub n: usize,
    /// Stencils to tune (defaults to the paper suite).
    pub shapes: Vec<StencilShape>,
    /// `(arch, model)` targets (defaults to the paper's 6-pair matrix).
    pub targets: Vec<TuneTarget>,
    /// The search space.
    pub space: TuningSpace,
    /// Worker threads.
    pub jobs: Jobs,
    /// On-disk cache directory (`None` = no persistent cache).
    pub cache_dir: Option<PathBuf>,
    /// Simulation fidelity.
    pub fidelity: SimFidelity,
    /// Enable Roofline upper-bound pruning.
    pub prune: bool,
    /// Ranked-table truncation per group.
    pub top_k: usize,
}

impl TuneOptions {
    /// The paper's full matrix at `n³` over the default space.
    pub fn new(n: usize) -> TuneOptions {
        TuneOptions {
            n,
            shapes: StencilShape::paper_suite().to_vec(),
            targets: ProgModel::paper_matrix()
                .into_iter()
                .map(|(gpu, model)| TuneTarget {
                    arch: GpuArch::by_kind(gpu).clone(),
                    model,
                })
                .collect(),
            space: TuningSpace::default(),
            jobs: Jobs::Auto,
            cache_dir: None,
            fidelity: SimFidelity::default(),
            prune: true,
            top_k: 10,
        }
    }

    /// Set the worker count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Jobs::N(jobs);
        self
    }

    /// Set the cache directory.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Replace the search space.
    pub fn space(mut self, space: TuningSpace) -> Self {
        self.space = space;
        self
    }

    /// Restrict the stencil list.
    pub fn shapes(mut self, shapes: Vec<StencilShape>) -> Self {
        self.shapes = shapes;
        self
    }

    /// Restrict the target list.
    pub fn targets(mut self, targets: Vec<TuneTarget>) -> Self {
        self.targets = targets;
        self
    }

    /// Enable/disable pruning.
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Set the ranked-table truncation.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }
}

/// Errors from the tuner.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The programming model is not supported on the GPU.
    Unsupported(GpuKind, ProgModel),
    /// Domain/baseline incompatible with a target (the paper-default
    /// anchor itself fails validity).
    BadDomain(String),
    /// A group's entire candidate space failed validity.
    NoFeasiblePoint {
        /// Stencil label.
        stencil: String,
        /// GPU.
        gpu: GpuKind,
        /// Programming model.
        model: ProgModel,
    },
    /// The search space has an empty axis.
    EmptySpace,
    /// Cache directory could not be opened.
    Cache(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Unsupported(g, m) => write!(f, "{m} unsupported on {g}"),
            TuneError::BadDomain(e) => write!(f, "bad domain: {e}"),
            TuneError::NoFeasiblePoint {
                stencil,
                gpu,
                model,
            } => write!(f, "no feasible tuning point for {stencil} on {gpu}/{model}"),
            TuneError::EmptySpace => f.write_str("empty tuning space"),
            TuneError::Cache(e) => write!(f, "cache: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Serialized run configuration hashed into the manifest.
#[derive(Serialize)]
struct TuneConfig {
    n: usize,
    fidelity: String,
    prune: bool,
    targets: Vec<(GpuKind, ProgModel)>,
    space: TuningSpace,
}

/// Kernel-program identity: everything the generated IR depends on.
/// Candidates differing only in ordering or interleave chunk share one
/// generated (and one lint-verified) program.
type KernelKey = (String, usize, usize, usize, brick_codegen::Strategy, u32);

fn kernel_key(label: &str, p: &SpecParams) -> KernelKey {
    (
        label.to_string(),
        p.width(),
        p.block_yz.0,
        p.block_yz.1,
        p.strategy,
        p.temporal_degree,
    )
}

/// Generate and statically verify the program for one kernel key.
/// Panics with the rendered lint report if the analyzer rejects the
/// kernel — the tuner must never rank a program the oracle would reject.
fn build_verified_spec(shape: &StencilShape, p: &SpecParams) -> KernelSpec {
    let st = shape.stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Brick, p.width(), p.codegen_options())
        .expect("validity predicate admits only generatable candidates");
    let opts = brick_lint::LintOptions {
        expected: Some(
            brick_lint::ExpectedStencil::resolve_temporal(&st, &b, p.temporal_degree)
                .expect("paper bindings resolve"),
        ),
        // no register budgets here: the validity predicate already
        // enforced the per-target floor, and the compiler model prices
        // residual pressure (spills, occupancy) honestly in simulation
        budgets: vec![],
    };
    let analysis = brick_lint::analyze(&kernel, &opts);
    assert!(
        analysis.is_clean(),
        "tuner candidate failed static verification ({p}):\n{}",
        analysis.report.render(Some(&kernel))
    );
    KernelSpec::Vector(kernel)
}

/// Run the full tuning matrix. Deterministic: the serialized `groups`
/// are byte-identical at any jobs count and across warm/cold caches.
pub fn tune_matrix(opts: &TuneOptions) -> Result<TuneReport, TuneError> {
    if opts.space.is_empty() {
        return Err(TuneError::EmptySpace);
    }
    for t in &opts.targets {
        if !t.model.supports(t.arch.kind) {
            return Err(TuneError::Unsupported(t.arch.kind, t.model));
        }
    }
    let start = std::time::Instant::now();
    let config = TuneConfig {
        n: opts.n,
        fidelity: opts.fidelity.to_string(),
        prune: opts.prune,
        targets: opts
            .targets
            .iter()
            .map(|t| (t.arch.kind, t.model))
            .collect(),
        space: opts.space.clone(),
    };
    let manifest =
        brick_obs::RunManifest::begin(&serde_json::to_string(&config).expect("config serializes"));
    let _span = brick_obs::span_cat(format!("tune:{}^3", opts.n), "sweep");
    let cache = match &opts.cache_dir {
        Some(dir) => Some(DiskCache::open(dir).map_err(|e| TuneError::Cache(e.to_string()))?),
        None => None,
    };
    // Empirical rooflines per target (reported in records; pruning uses
    // the theoretical ceilings, which dominate these).
    let rooflines: Vec<Roofline> = opts
        .targets
        .iter()
        .map(|t| {
            let measure =
                || roofline::measure(&t.arch, t.model).expect("supported targets have rooflines");
            match &cache {
                Some(c) => c.get_or_compute(&tune_roofline_key(&t.arch, t.model), measure),
                None => measure(),
            }
        })
        .collect();

    // Plan groups: enumerate + validate, in canonical order.
    struct GroupPlan {
        shape: StencilShape,
        shape_fp: u64,
        label: String,
        target: usize,
        baseline: SpecParams,
        valid: Vec<SpecParams>,
        skip_reasons: BTreeMap<&'static str, u64>,
        skipped: u64,
        raw: u64,
    }
    let candidates = opts.space.enumerate();
    let mut plans: Vec<GroupPlan> = Vec::new();
    for shape in &opts.shapes {
        for (ti, target) in opts.targets.iter().enumerate() {
            let baseline = SpecParams::paper_default(target.arch.simd_width);
            if let Err(reason) = validate(&baseline, shape, &target.arch, opts.n) {
                return Err(TuneError::BadDomain(format!(
                    "paper baseline invalid for {} on {}/{}: {reason}",
                    shape.label(),
                    target.arch.kind,
                    target.model
                )));
            }
            let mut valid = Vec::new();
            let mut skip_reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
            for p in &candidates {
                match validate(p, shape, &target.arch, opts.n) {
                    Ok(()) => {
                        if *p != baseline {
                            valid.push(*p);
                        }
                    }
                    Err(reason) => {
                        *skip_reasons.entry(reason.kind()).or_insert(0) += 1;
                        brick_obs::counter_add("tune.skipped", 1);
                        brick_obs::counter_add(&format!("tune.skipped.{}", reason.kind()), 1);
                    }
                }
            }
            let skipped: u64 = skip_reasons.values().sum();
            if valid.is_empty() && !candidates.contains(&baseline) {
                return Err(TuneError::NoFeasiblePoint {
                    stencil: shape.label(),
                    gpu: target.arch.kind,
                    model: target.model,
                });
            }
            plans.push(GroupPlan {
                shape: *shape,
                shape_fp: shape_fingerprint(shape),
                label: shape.label(),
                target: ti,
                baseline,
                valid,
                skip_reasons,
                skipped,
                raw: candidates.len() as u64,
            });
        }
    }
    let valid_total: u64 = plans.iter().map(|p| p.valid.len() as u64 + 1).sum();
    brick_obs::info!(
        "tune: {} groups, {} valid cells (of {} raw) at n={} (planned in {:.2}s)",
        plans.len(),
        valid_total,
        plans.len() as u64 * candidates.len() as u64,
        opts.n,
        start.elapsed().as_secs_f64()
    );

    // Phase 1 — one lazy slot per distinct program. Generation and lint
    // verification run at most once per program, on demand from the
    // measurement fan-out: a cache-warm rerun never compiles anything,
    // which is what keeps warm wall time a small fraction of cold.
    let specs: HashMap<KernelKey, OnceLock<KernelSpec>> = {
        let mut slots = HashMap::new();
        for plan in &plans {
            for p in std::iter::once(&plan.baseline).chain(plan.valid.iter()) {
                slots.entry(kernel_key(&plan.label, p)).or_default();
            }
        }
        slots
    };
    let spec_of = |plan: &GroupPlan, p: &SpecParams| -> &KernelSpec {
        specs[&kernel_key(&plan.label, p)].get_or_init(|| {
            let _phase = brick_obs::span_cat("lint-verify", "phase");
            build_verified_spec(&plan.shape, p)
        })
    };

    // Shared evaluation machinery: geometry and memory-counter memos.
    // The memory counters depend on the traced geometry (which carries
    // the brick ordering), not just the generated program — so MemKey
    // embeds the full GeomKey: two candidates differing only in
    // ordering must never share a counter slot.
    type GeomKey = (usize, usize, usize, brick_core::BrickOrdering, usize);
    type MemKey = (u64, GpuKind, u32, usize, GeomKey);
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

    // Evaluate one cell end to end: cache lookup (measured record or
    // pruned marker), then — only on a miss — the Roofline prune tiers
    // (when `prune_ref` carries the group's baseline GFLOP/s) and the
    // full compile + simulate pipeline. `None` means pruned. A warm
    // rerun resolves every cell in the first step, before any kernel is
    // generated.
    let eval_cell =
        |plan: &GroupPlan, p: &SpecParams, prune_ref: Option<f64>| -> (Option<TunedRecord>, f64) {
            let t0 = std::time::Instant::now();
            let target = &opts.targets[plan.target];
            let arch = &target.arch;
            let rl = &rooflines[plan.target];
            let _rec_span = brick_obs::span_cat(
                format!("{}/{}/{}/{p}", plan.label, arch.kind, target.model),
                "record",
            );
            let analysis = StencilAnalysis::of_shape(&plan.shape);
            let t = p.temporal_degree;
            let flops_per_point = analysis.flops_per_point * t as u64;
            let theoretical_ai = analysis.theoretical_ai * t as f64;
            let key = cache.as_ref().map(|_| {
                tune_cell_key(
                    plan.shape_fp,
                    p,
                    arch,
                    target.model,
                    opts.n,
                    flops_per_point,
                    theoretical_ai,
                    rl,
                    opts.fidelity,
                    opts.prune,
                )
            });
            if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
                let _phase = brick_obs::span_cat("cache-io", "phase");
                match c.get::<CachedCell>(key) {
                    CacheOutcome::Hit(CachedCell {
                        record: Some(record),
                    }) => return (Some(record), t0.elapsed().as_secs_f64()),
                    // a marker only settles cells this run may prune; the
                    // baseline owes a measurement regardless
                    CacheOutcome::Hit(CachedCell { record: None }) if prune_ref.is_some() => {
                        brick_obs::counter_add("tune.pruned", 1);
                        return (None, t0.elapsed().as_secs_f64());
                    }
                    _ => {}
                }
            }
            if let Some(reference) = prune_ref {
                // two tiers: the structural bound costs nothing; when it is
                // inconclusive, a cheap compile pass yields the real
                // occupancy, tightening the bound without a memory trace
                let mut bound = roofline_upper_bound(p, &plan.shape, arch);
                if bound * PRUNE_MARGIN >= reference {
                    if let Some((_, _, occ)) = compile_only(spec_of(plan, p), arch, target.model) {
                        bound = occupancy_upper_bound(p, &plan.shape, arch, occ.occupancy);
                    }
                }
                if bound * PRUNE_MARGIN < reference {
                    brick_obs::counter_add("tune.pruned", 1);
                    if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
                        let _phase = brick_obs::span_cat("cache-io", "phase");
                        if let Err(e) = c.put(key, &CachedCell { record: None }) {
                            brick_obs::warn!("could not cache {}: {e}", key.file_name());
                        }
                    }
                    return (None, t0.elapsed().as_secs_f64());
                }
            }
            let spec = spec_of(plan, p);
            let (cm, compiled, occ) = compile_only(spec, arch, target.model)
                .expect("targets were support-checked up front");
            let kernel_fp = match spec {
                KernelSpec::Vector(k) => brick_lint::fingerprint(k),
                KernelSpec::Scalar(_) => unreachable!("tuner specs are vector kernels"),
            };
            let reach = t as usize * plan.shape.radius as usize;
            let gkey: GeomKey = (p.width(), p.block_yz.0, p.block_yz.1, p.ordering, reach);
            let geom_slot = memo_slot(&geom_memo, gkey);
            let mem_slot = memo_slot(
                &mem_memo,
                (
                    kernel_fp,
                    arch.kind,
                    occ.blocks_per_sm,
                    p.interleave_chunk,
                    gkey,
                ),
            );
            let (geom, mem) = {
                let _phase = brick_obs::span_cat("simulate", "phase");
                let geom = geom_slot.get_or_init(|| {
                    let decomp = Arc::new(BrickDecomp::new(
                        (opts.n, opts.n, opts.n),
                        p.brick_dims(),
                        reach,
                        p.ordering,
                    ));
                    TraceGeometry::brick(Arc::new(BrickNav::new(decomp)))
                });
                let mem = *mem_slot.get_or_init(|| {
                    let sim_opts = SimOptions {
                        fidelity: opts.fidelity,
                        interleave_chunk: p.interleave_chunk,
                    };
                    simulate_memory_opts(spec, geom, arch, occ.blocks_per_sm, &sim_opts).counters()
                });
                (geom, mem)
            };
            let sim = {
                let _phase = brick_obs::span_cat("score", "phase");
                assemble(spec, geom, arch, &cm, &compiled, mem, flops_per_point)
            };
            let record = TunedRecord {
                params: *p,
                fingerprint: p.fingerprint(),
                kernel_fingerprint: kernel_fp,
                gflops: sim.gflops,
                ai: sim.ai,
                time_s: sim.time_s,
                dram_bytes: sim.mem.dram_bytes,
                occupancy: sim.occupancy.occupancy,
                regs_per_thread: sim.regs_per_thread,
                spilled: sim.spilled,
                limiter: sim.breakdown.limiter().to_string(),
                roofline_frac: rl.fraction(sim.gflops, sim.ai),
            };
            brick_obs::counter_add("tune.cells.evaluated", 1);
            if let (Some(c), Some(key)) = (cache.as_ref(), key.as_ref()) {
                let _phase = brick_obs::span_cat("cache-io", "phase");
                let cell = CachedCell {
                    record: Some(record.clone()),
                };
                if let Err(e) = c.put(key, &cell) {
                    brick_obs::warn!("could not cache {}: {e}", key.file_name());
                }
            }
            (Some(record), t0.elapsed().as_secs_f64())
        };

    // Phase 2 — measure every group's paper baseline (never pruned:
    // it is both the comparison anchor and the pruning reference).
    let t_base = std::time::Instant::now();
    let plan_refs: Vec<usize> = (0..plans.len()).collect();
    let baselines: Vec<(TunedRecord, f64)> =
        map_cells("tune.baselines", &plan_refs, opts.jobs, |_, &gi| {
            let (record, wall) = eval_cell(&plans[gi], &plans[gi].baseline, None);
            (record.expect("the baseline is never pruned"), wall)
        });
    brick_obs::info!("tune: baselines in {:.2}s", t_base.elapsed().as_secs_f64());

    // Phase 3 — prune + measure candidates, all groups in one fan-out.
    let flat: Vec<(usize, SpecParams)> = plans
        .iter()
        .enumerate()
        .flat_map(|(gi, plan)| plan.valid.iter().map(move |p| (gi, *p)))
        .collect();
    enum Outcome {
        Measured(TunedRecord, f64),
        Pruned,
    }
    let t_cells = std::time::Instant::now();
    let outcomes = map_cells("tune.cells", &flat, opts.jobs, |_, &(gi, p)| {
        let plan = &plans[gi];
        let prune_ref = opts.prune.then(|| baselines[gi].0.gflops);
        match eval_cell(plan, &p, prune_ref) {
            (Some(record), wall) => Outcome::Measured(record, wall),
            (None, _) => Outcome::Pruned,
        }
    });
    brick_obs::info!(
        "tune: {} cells in {:.2}s",
        flat.len(),
        t_cells.elapsed().as_secs_f64()
    );

    // Reduce: rank per group.
    let mut per_group: Vec<Vec<TunedRecord>> = plans.iter().map(|_| Vec::new()).collect();
    let mut pruned_per_group: Vec<u64> = vec![0; plans.len()];
    let mut record_wall_s: Vec<f64> = baselines.iter().map(|(_, w)| *w).collect();
    for (&(gi, _), outcome) in flat.iter().zip(outcomes) {
        match outcome {
            Outcome::Measured(record, wall) => {
                per_group[gi].push(record);
                record_wall_s.push(wall);
            }
            Outcome::Pruned => pruned_per_group[gi] += 1,
        }
    }

    let mut groups = Vec::with_capacity(plans.len());
    for (gi, plan) in plans.iter().enumerate() {
        let (baseline, _) = &baselines[gi];
        let mut ranked = std::mem::take(&mut per_group[gi]);
        ranked.push(baseline.clone());
        let evaluated = ranked.len() as u64;
        ranked.sort_by(|a, b| {
            b.gflops
                .total_cmp(&a.gflops)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        ranked.truncate(opts.top_k);
        let target = &opts.targets[plan.target];
        groups.push(TuneGroup {
            stencil: plan.label.clone(),
            shape: plan.shape,
            gpu: target.arch.kind,
            model: target.model,
            baseline: baseline.clone(),
            ranked,
            evaluated,
            pruned: pruned_per_group[gi],
            skipped: plan.skipped,
            skip_reasons: plan
                .skip_reasons
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            raw_candidates: plan.raw,
        });
    }

    let manifest = manifest
        .finish(start.elapsed().as_secs_f64(), record_wall_s)
        .with_sweep_info(
            &opts.fidelity.to_string(),
            opts.jobs.count() as u64,
            cache.as_ref().map_or((0, 0, 0), DiskCache::probes),
        )
        .with_tune_info(
            opts.space.fingerprint(),
            groups.iter().map(|g| g.raw_candidates).sum(),
            groups.iter().map(|g| g.evaluated).sum(),
            groups.iter().map(|g| g.pruned).sum(),
            groups.iter().map(|g| g.skipped).sum(),
        );
    Ok(TuneReport {
        n: opts.n,
        space_fingerprint: opts.space.fingerprint(),
        groups,
        manifest,
    })
}

/// Tune one `(stencil, GPU, model)` group — the single-target convenience
/// wrapper around [`tune_matrix`] (full ranking, no pruning, no cache).
pub fn autotune(
    shape: &StencilShape,
    arch: &GpuArch,
    model: ProgModel,
    n: usize,
    space: &TuningSpace,
) -> Result<TuneGroup, TuneError> {
    let opts = TuneOptions {
        n,
        shapes: vec![*shape],
        targets: vec![TuneTarget {
            arch: arch.clone(),
            model,
        }],
        space: space.clone(),
        jobs: Jobs::Auto,
        cache_dir: None,
        fidelity: SimFidelity::default(),
        prune: false,
        top_k: usize::MAX,
    };
    let mut report = tune_matrix(&opts)?;
    Ok(report.groups.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::Strategy;
    use brick_core::BrickOrdering;

    fn small_space() -> TuningSpace {
        TuningSpace {
            vector_widths: vec![16, 32, 64],
            fold_factors: vec![1],
            block_yz: vec![(4, 4), (8, 8)],
            orderings: vec![BrickOrdering::Lexicographic],
            strategies: vec![Strategy::Gather, Strategy::Scatter],
            interleave_chunks: vec![1024],
            temporal_degrees: vec![1],
        }
    }

    #[test]
    fn tuner_ranks_candidates() {
        let g = autotune(
            &StencilShape::star(1),
            &GpuArch::a100(),
            ProgModel::Cuda,
            64,
            &small_space(),
        )
        .unwrap();
        // 4 valid cells at width 32 (2 blocks × 2 strategies); the
        // baseline is one of them (4×4 gather at the default chunk)
        assert_eq!(g.evaluated, 4);
        assert_eq!(g.ranked.len(), 4);
        for w in g.ranked.windows(2) {
            assert!(w[0].gflops >= w[1].gflops, "ranking is descending");
        }
        assert!(g.spread() >= 1.0);
        assert!(g.gain_over_paper() >= 1.0);
        // the two non-matching vector widths were skipped, not silently
        // dropped: 8 candidates (2 widths × 2 blocks × 2 strategies)
        assert_eq!(g.skipped, 8);
        assert!(g
            .skip_reasons
            .iter()
            .any(|(k, c)| k == "lane_width" && *c == 8));
        assert_eq!(g.raw_candidates, 12);
    }

    #[test]
    fn unsupported_model_rejected() {
        assert_eq!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::pvc_stack(),
                ProgModel::Cuda,
                64,
                &small_space(),
            )
            .unwrap_err(),
            TuneError::Unsupported(GpuKind::PvcStack, ProgModel::Cuda)
        );
    }

    #[test]
    fn bad_domain_rejected() {
        assert!(matches!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::a100(),
                ProgModel::Cuda,
                100,
                &small_space(),
            ),
            Err(TuneError::BadDomain(_))
        ));
    }

    #[test]
    fn empty_space_is_an_error() {
        let mut space = small_space();
        space.strategies.clear();
        assert_eq!(
            autotune(
                &StencilShape::star(1),
                &GpuArch::a100(),
                ProgModel::Cuda,
                64,
                &space,
            )
            .unwrap_err(),
            TuneError::EmptySpace
        );
    }

    #[test]
    fn infeasible_candidates_are_counted_not_fatal() {
        // radius 4 does not fit (4,4) at T=1? reach 4 ≤ 4 — fits; use
        // (2,2) to force reach rejections
        let space = TuningSpace {
            block_yz: vec![(2, 2), (8, 8)],
            ..small_space()
        };
        let g = autotune(
            &StencilShape::star(4),
            &GpuArch::a100(),
            ProgModel::Cuda,
            64,
            &space,
        )
        .unwrap();
        assert!(g.skip_reasons.iter().any(|(k, _)| k == "reach"));
        assert!(g.evaluated >= 2, "the (8,8) cells measured");
    }

    #[test]
    fn upper_bound_dominates_measured_gflops() {
        // soundness of the pruning bound on every paper target
        let space = small_space();
        for (gpu, model) in ProgModel::paper_matrix() {
            let arch = GpuArch::by_kind(gpu);
            for shape in [StencilShape::star(1), StencilShape::cube(2)] {
                let g = autotune(&shape, arch, model, 64, &space).unwrap();
                for r in &g.ranked {
                    let structural = roofline_upper_bound(&r.params, &shape, arch);
                    let refined = occupancy_upper_bound(&r.params, &shape, arch, r.occupancy);
                    let bound = structural.min(refined);
                    assert!(
                        r.gflops <= bound * PRUNE_MARGIN,
                        "{gpu}/{model} {shape}: measured {:.1} exceeds bound {:.1}",
                        r.gflops,
                        bound
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_never_changes_the_winner() {
        let shapes = vec![StencilShape::star(1)];
        let targets = vec![TuneTarget {
            arch: GpuArch::a100(),
            model: ProgModel::Cuda,
        }];
        let space = TuningSpace {
            temporal_degrees: vec![1, 2, 4],
            ..small_space()
        };
        let run = |prune: bool| {
            let opts = TuneOptions::new(64)
                .shapes(shapes.clone())
                .targets(targets.clone())
                .space(space.clone())
                .jobs(2)
                .prune(prune);
            tune_matrix(&opts).unwrap()
        };
        let full = run(false);
        let pruned = run(true);
        let (f, p) = (&full.groups[0], &pruned.groups[0]);
        assert_eq!(f.best().fingerprint, p.best().fingerprint);
        assert!((f.best().gflops - p.best().gflops).abs() < 1e-12);
        assert_eq!(f.evaluated, p.evaluated + p.pruned);
    }

    #[test]
    fn pruning_fires_on_occupancy_starved_targets() {
        // a register file that keeps the lean T=1 baseline at saturating
        // occupancy but holds only one spilled T=4 block: the fused
        // candidate's occupancy-refined bound lands far below the
        // measured baseline and the cell is dropped without a trace
        let mut arch = GpuArch::a100();
        arch.regfile_per_sm = 8_192;
        arch.bw_saturation_occupancy = 0.11;
        let space = TuningSpace {
            vector_widths: vec![32],
            block_yz: vec![(4, 4)],
            strategies: vec![Strategy::Gather],
            temporal_degrees: vec![1, 4],
            ..small_space()
        };
        let opts = TuneOptions::new(64)
            .shapes(vec![StencilShape::star(1)])
            .targets(vec![TuneTarget {
                arch,
                model: ProgModel::Cuda,
            }])
            .space(space)
            .jobs(1);
        let report = tune_matrix(&opts).unwrap();
        let g = &report.groups[0];
        assert!(g.pruned > 0, "expected T=4 cells pruned: {g:?}");
        assert_eq!(report.manifest.tune_pruned_cells, g.pruned);
        assert!(g.gain_over_paper() >= 1.0);
    }

    #[test]
    fn report_provenance_counts_cells() {
        let opts = TuneOptions::new(64)
            .shapes(vec![StencilShape::star(1), StencilShape::star(2)])
            .targets(vec![TuneTarget {
                arch: GpuArch::a100(),
                model: ProgModel::Cuda,
            }])
            .space(small_space())
            .jobs(2)
            .top_k(3);
        let report = tune_matrix(&opts).unwrap();
        assert_eq!(report.groups.len(), 2);
        for g in &report.groups {
            assert!(g.ranked.len() <= 3);
            assert!(g.evaluated + g.pruned + g.skipped >= g.raw_candidates);
        }
        assert_eq!(report.manifest.tune_valid_cells, report.total_evaluated());
        assert_eq!(
            report.manifest.tune_space_fingerprint,
            report.space_fingerprint
        );
        assert!(report
            .group(GpuKind::A100, ProgModel::Cuda, "7pt")
            .is_some());
        assert!(report.group(GpuKind::A100, ProgModel::Hip, "7pt").is_none());
    }
}
