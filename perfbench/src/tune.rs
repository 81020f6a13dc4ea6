//! `tune-a100`: the default tuning space for the six paper stencils on
//! A100/CUDA at 32³ — cold passes into empty caches, each followed by
//! warm reruns over its populated cache, until the run has measured
//! `--seconds`.
//!
//! Oracles: every cold pass's ranked tables must equal the first's,
//! every warm ranked table must be byte-identical to its cold one with
//! zero cache misses, the checked-in tuner golden must pass,
//! and a seed-chosen sample of measured candidates must match the scalar
//! reference (`brick_dsl::reference`) under the interpreter on a small
//! grid. The traced run replays the tuner through the layers' public
//! functions and its ranked tables must equal `tune_matrix`'s.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use brick_codegen::{generate, LayoutKind, SpecParams, Strategy};
use brick_core::{BrickDecomp, BrickNav};
use brick_dsl::shape::StencilShape;
use brick_dsl::{reference, DenseGrid, StencilAnalysis};
use brick_sweep::{map_cells, CacheOutcome, DiskCache};
use brick_tuner::{
    occupancy_upper_bound, roofline_upper_bound, shape_fingerprint, tune_cell_key, tune_matrix,
    tune_roofline_key, validate, TuneGroup, TuneOptions, TuneReport, TuneTarget, TunedRecord,
    TuningSpace,
};
use brick_vm::{run_numeric_dense_mode, ExecutionMode, KernelSpec, TraceGeometry};
use experiments::golden;
use gpu_sim::{assemble, compile_only, GpuArch, MemCounters, ProgModel};
use roofline::Roofline;

use crate::host::{peak_rss_mib, timed, Stamp};
use crate::layers::{dir_bytes, metric_list, Layers, SimCounters, TraceContext};
use crate::oracle::{interior_match, same_json, Checks};
use crate::{
    fresh_dir, median, pool, repeated_setup, slot, Metric, Outcome, Rng, RunArgs, Scale, Slots,
    JOBS,
};

/// Set-up repetitions before each pass (the reported `setup_s` is the
/// median over the run; one set-up takes about a microsecond, and
/// spreading the repetitions over the run evens out the host's changing
/// speed).
const SETUP_REPS: usize = 25;

/// Warm passes after each cold pass (one takes ≈40 ms).
const WARM_PER_COLD: usize = 10;

/// Warm replays of the traced run.
const TRACE_WARM_PASSES: usize = 20;

/// The tuner's pruning margin (`brick_tuner`'s private `PRUNE_MARGIN`):
/// the replay must prune exactly the cells the tuner prunes.
const PRUNE_MARGIN: f64 = 1.05;

/// Relative tolerance for scatter-scheduled candidates, whose summation
/// order differs from the gather-ordered reference.
const SCATTER_RTOL: f64 = 1e-12;

/// Problem sizes of one scale.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Domain extent.
    pub n: usize,
    /// Stencils tuned.
    pub shapes: Vec<StencilShape>,
    /// Search space.
    pub space: TuningSpace,
    /// Timed cold passes at least, whatever the time budget, after the
    /// warm-up pass.
    pub min_cold: usize,
    /// Measured candidates re-executed against the scalar reference.
    pub candidate_samples: usize,
}

impl Sizes {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                n: 32,
                shapes: StencilShape::paper_suite().to_vec(),
                space: TuningSpace::default(),
                min_cold: 3,
                candidate_samples: 3,
            },
            Scale::Tiny => Sizes {
                n: 64,
                shapes: vec![StencilShape::star(1)],
                space: TuningSpace::minimal(),
                min_cold: 1,
                candidate_samples: 1,
            },
        }
    }

    /// The tuner request, caching under `cache`.
    pub fn options(&self, cache: PathBuf) -> TuneOptions {
        TuneOptions::new(self.n)
            .shapes(self.shapes.clone())
            .targets(vec![TuneTarget {
                arch: GpuArch::a100(),
                model: ProgModel::Cuda,
            }])
            .space(self.space.clone())
            .jobs(JOBS)
            .cache_dir(cache)
    }
}

/// Cells a report resolved (measured or pruned).
fn cells_of(report: &TuneReport) -> u64 {
    report.groups.iter().map(|g| g.evaluated + g.pruned).sum()
}

/// Run the workload: cold passes, each into a fresh cache and followed
/// by [`WARM_PER_COLD`] warm passes over it, until the run has measured
/// `--seconds` and at least [`Sizes::min_cold`] cold passes after a
/// warm-up pass that the cold metric leaves out; the metrics are the
/// median CPU seconds per cold and per warm pass.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sizes = Sizes::of(args.scale);
    let stamp = Stamp::detect(JOBS, args.seed);
    if args.trace {
        let opts = sizes.options(args.work_dir.join("tune-0"));
        return trace(args, stamp, &sizes, &opts);
    }
    let workers = pool(JOBS);

    let mut checks = Checks::new();
    let mut first: Option<TuneReport> = None;
    let (mut cold_cpu, mut warm_cpu) = (Vec::new(), Vec::new());
    let (mut cold_walls, mut warm_walls) = (Vec::new(), Vec::new());
    let (mut setup_walls, mut peak) = (Vec::new(), 0.0);
    let mut ops = 0u64;
    // cold pass 0 warms the process up (allocator, codegen's memo): it is
    // checked but left out of the cold metric
    while cold_cpu.len() <= sizes.min_cold
        || cold_walls[1..].iter().chain(&warm_walls).sum::<f64>() < args.seconds
    {
        let i = cold_cpu.len();
        // the pass's request; the tuner creates its (fresh) cache directory
        let mut setup = || {
            let (opts, walls) = repeated_setup(SETUP_REPS, || {
                Ok(sizes.options(args.work_dir.join(format!("tune-{i}"))))
            })?;
            setup_walls.extend(walls);
            Ok::<_, String>(opts)
        };
        let opts = setup()?;
        let (cold, wall, cpu) = timed(|| workers.install(|| tune_matrix(&opts)));
        let cold = cold.map_err(|e| format!("cold tune: {e}"))?;
        cold_walls.push(wall);
        cold_cpu.push(cpu);
        for _ in 0..WARM_PER_COLD {
            let opts = setup()?;
            let (warm, wall, cpu) = timed(|| workers.install(|| tune_matrix(&opts)));
            warm_walls.push(wall);
            warm_cpu.push(cpu);
            match warm {
                Ok(warm) => checks.record("warm rerun", warm_matches(&cold, &warm)),
                Err(e) => checks.fail("warm rerun", e),
            }
        }
        ops += cells_of(&cold) * (1 + WARM_PER_COLD as u64);
        match &first {
            None => {
                // one cold pass's footprint (and its warm reruns'); later
                // passes in the same process only add allocator retention
                peak = peak_rss_mib()?;
                first = Some(cold);
            }
            Some(report) => checks.record(
                &format!("cold pass {i} ranked tables"),
                same_json("ranked tables", &report.groups, &cold.groups),
            ),
        }
    }
    eprintln!(
        "perfbench: tune-a100 cold passes (CPU s / wall s): {cold_cpu:.3?} / {cold_walls:.3?}; warm median wall {:.4} s",
        median(&warm_walls)
    );

    let first = first.expect("at least one cold pass");
    oracles(args, &sizes, &first, &mut checks);
    Ok(Outcome::new(
        stamp,
        ops,
        checks,
        vec![
            Metric::new("setup_s", median(&setup_walls), "s"),
            Metric::new("peak_rss_mib", peak, "MiB"),
            Metric::new("primary_s", median(&cold_cpu[1..]), "s"),
            Metric::new("secondary_s", median(&warm_cpu), "s"),
        ],
    ))
}

/// A warm rerun must reproduce the cold ranked tables byte for byte and
/// resolve every cell from the cache.
pub fn warm_matches(cold: &TuneReport, warm: &TuneReport) -> Result<(), String> {
    same_json("ranked tables", &cold.groups, &warm.groups)?;
    match warm.manifest.cache_misses {
        0 => Ok(()),
        m => Err(format!("{m} cache misses on a warm rerun")),
    }
}

/// The tune-a100 oracles other than the warm comparison.
pub fn oracles(args: &RunArgs, sizes: &Sizes, cold: &TuneReport, checks: &mut Checks) {
    let workers = pool(JOBS);
    let golden_opts = experiments::tune::golden_tune_options(Some(JOBS), None);
    match workers.install(|| tune_matrix(&golden_opts)) {
        Ok(report) => checks.record_all(
            "tuner golden",
            golden::check_tune(&report, &golden::golden_dir()),
        ),
        Err(e) => checks.fail("tuner golden", e),
    }

    let measured: Vec<(&TuneGroup, &TunedRecord)> = cold
        .groups
        .iter()
        .flat_map(|g| g.ranked.iter().map(move |r| (g, r)))
        .collect();
    let mut rng = Rng::new(args.seed, "tune-a100/candidates");
    for i in rng.sample(measured.len(), sizes.candidate_samples) {
        let (group, record) = measured[i];
        let name = format!("candidate {} {} vs reference", group.stencil, record.params);
        let verdict = run_candidate(&group.shape, &record.params, &mut rng)
            .and_then(|(reference, got)| candidate_matches(&record.params, &reference, &got));
        checks.record(&name, verdict);
    }
}

/// Execute one candidate under the interpreter on a small seeded grid
/// one brick column wide; returns `(scalar reference, interpreter)`.
pub fn run_candidate(
    shape: &StencilShape,
    p: &SpecParams,
    rng: &mut Rng,
) -> Result<(DenseGrid, DenseGrid), String> {
    let st = shape.stencil();
    let b = st.default_bindings();
    let kernel = generate(&st, &b, LayoutKind::Brick, p.width(), p.codegen_options())
        .map_err(|e| format!("codegen: {e}"))?;
    let halo = (p.temporal_degree * shape.radius) as usize;
    let (by, bz) = p.block_yz;
    let mut input = DenseGrid::new(p.width(), (by * 2).max(8), (bz * 2).max(8), halo);
    input.fill_with(|_, _, _| rng.unit());
    let got = run_numeric_dense_mode(&KernelSpec::Vector(kernel), &input, ExecutionMode::Scalar)
        .map_err(|e| format!("interpreter: {e}"))?;
    let (nx, ny, nz) = input.extents();
    let mut oracle = DenseGrid::new(nx, ny, nz, halo);
    reference::apply_temporal(&st, &b, &input, &mut oracle, p.temporal_degree)
        .map_err(|e| format!("reference: {e}"))?;
    Ok((oracle, got))
}

/// The interpreter output of a candidate must equal the reference: bit
/// for bit for gather schedules, within [`SCATTER_RTOL`] for scatter.
pub fn candidate_matches(
    p: &SpecParams,
    reference: &DenseGrid,
    got: &DenseGrid,
) -> Result<(), String> {
    let rtol = (p.strategy == Strategy::Scatter).then_some(SCATTER_RTOL);
    interior_match("interior", reference, got, rtol)
}

/// Traced run: replay the cold tune and warm reruns layer by layer, then
/// run `tune_matrix` cold for the overhead reference and comparison.
fn trace(
    args: &RunArgs,
    stamp: Stamp,
    sizes: &Sizes,
    opts: &TuneOptions,
) -> Result<Outcome, String> {
    let workers = pool(JOBS);
    let layers = Layers::new();
    let before = SimCounters::read();
    let replay_dir = fresh_dir(args, "replay-tune")?;
    let replay_opts = sizes.options(replay_dir.clone());
    let t = Instant::now();
    let replay = workers.install(|| replay_tune(&layers, &replay_opts))?;
    let replay_wall = t.elapsed().as_secs_f64();
    let sim = SimCounters::read().since(before);
    let cache_bytes = dir_bytes(&replay_dir);

    // warm replays over the populated cache, on a ledger of their own
    let warm_layers = Layers::new();
    let mut checks = Checks::new();
    for _ in 0..TRACE_WARM_PASSES {
        let warm = workers.install(|| replay_tune(&warm_layers, &replay_opts))?;
        checks.record(
            "warm replay",
            same_json("ranked tables", &replay.groups, &warm.groups),
        );
    }
    let warm_simulations = warm_layers.get("gpu_sim.simulate_s").calls;
    checks.record(
        "warm replays simulate nothing",
        match warm_simulations {
            0 => Ok(()),
            n => Err(format!("{n} simulations")),
        },
    );

    let t = Instant::now();
    let cold = workers
        .install(|| tune_matrix(opts))
        .map_err(|e| format!("cold tune: {e}"))?;
    let public_wall = t.elapsed().as_secs_f64();
    checks.record(
        "replayed ranked tables",
        same_json("ranked tables", &cold.groups, &replay.groups),
    );
    match workers.install(|| tune_matrix(opts)) {
        Ok(warm) => checks.record("warm rerun", warm_matches(&cold, &warm)),
        Err(e) => checks.fail("warm rerun", e),
    }
    oracles(args, sizes, &cold, &mut checks);

    let busy: f64 = cold.manifest.record_wall_s.iter().sum();
    let ctx = TraceContext {
        replay_wall,
        public_wall,
        jobs: JOBS,
        sim,
        cache_bytes,
        worker_busy_frac: busy / (public_wall * JOBS as f64),
    };
    let extra = [
        Metric::new("gpu_sim.warm_simulations", warm_simulations as f64, "count"),
        Metric::new(
            "tuner.pruned_frac",
            replay.pruned as f64 / replay.candidates.max(1) as f64,
            "ratio",
        ),
        Metric::new("tuner.baseline_phase_s", replay.baseline_phase_s, "s"),
    ];
    let ops = 2 * cells_of(&cold) + (1 + TRACE_WARM_PASSES as u64) * cells_of(&cold);
    Ok(Outcome::new(
        stamp,
        ops,
        checks,
        metric_list(&layers, &ctx, &extra),
    ))
}

/// What a tuner replay produced.
#[derive(Debug, Clone)]
pub struct ReplayedTune {
    /// Ranked groups, as `TuneReport::groups` would hold them.
    pub groups: Vec<TuneGroup>,
    /// Valid non-baseline candidates (the pruning denominator).
    pub candidates: u64,
    /// Candidates pruned.
    pub pruned: u64,
    /// Wall time of the baseline phase.
    pub baseline_phase_s: f64,
}

/// The tuner's cache entry shape (`brick_tuner`'s private `CachedCell`):
/// a measured record, or `None` for a pruned cell.
#[derive(Serialize, Deserialize)]
struct CachedCell {
    record: Option<TunedRecord>,
}

/// One tuning group's plan: its valid candidates after the validity
/// predicates.
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

/// Program identity: everything the generated IR depends on.
type KernelKey = (String, usize, usize, usize, Strategy, u32);

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

/// Replay of `brick_tuner::tune_matrix` with every layer call timed:
/// plan (enumerate + validate), baseline phase, then prune + measure
/// every candidate, all through the options' cache directory.
pub fn replay_tune(layers: &Layers, opts: &TuneOptions) -> Result<ReplayedTune, String> {
    let cache_dir: &Path = opts
        .cache_dir
        .as_deref()
        .ok_or("the replay needs a cache")?;
    let cache = DiskCache::open(cache_dir).map_err(|e| format!("cache: {e}"))?;
    let rooflines: Vec<Roofline> = opts
        .targets
        .iter()
        .map(|t| {
            let key = tune_roofline_key(&t.arch, t.model);
            match layers.time("sweep.cache_get_s", || cache.get::<Roofline>(&key)) {
                CacheOutcome::Hit(r) => Ok(r),
                _ => {
                    let r = layers
                        .time("roofline.measure_s", || roofline::measure(&t.arch, t.model))
                        .ok_or_else(|| format!("no roofline for {}/{}", t.arch.kind, t.model))?;
                    layers
                        .time("sweep.cache_put_s", || cache.put(&key, &r))
                        .ok();
                    Ok(r)
                }
            }
        })
        .collect::<Result<_, String>>()?;

    let plans: Vec<GroupPlan> = layers.time("tuner.plan_s", || {
        let candidates = opts.space.enumerate();
        let mut plans = Vec::new();
        for shape in &opts.shapes {
            for (ti, target) in opts.targets.iter().enumerate() {
                let baseline = SpecParams::paper_default(target.arch.simd_width);
                let mut valid = Vec::new();
                let mut skip_reasons: BTreeMap<&'static str, u64> = BTreeMap::new();
                for p in &candidates {
                    match validate(p, shape, &target.arch, opts.n) {
                        Ok(()) if *p != baseline => valid.push(*p),
                        Ok(()) => {}
                        Err(reason) => *skip_reasons.entry(reason.kind()).or_insert(0) += 1,
                    }
                }
                plans.push(GroupPlan {
                    shape: *shape,
                    shape_fp: shape_fingerprint(shape),
                    label: shape.label(),
                    target: ti,
                    baseline,
                    valid,
                    skipped: skip_reasons.values().sum(),
                    skip_reasons,
                    raw: candidates.len() as u64,
                });
            }
        }
        plans
    });
    layers.count("tuner.skipped", plans.iter().map(|p| p.skipped).sum());

    let specs: HashMap<KernelKey, OnceLock<KernelSpec>> = plans
        .iter()
        .flat_map(|plan| {
            std::iter::once(&plan.baseline)
                .chain(&plan.valid)
                .map(|p| (kernel_key(&plan.label, p), OnceLock::new()))
        })
        .collect();
    let spec_of = |plan: &GroupPlan, p: &SpecParams| -> &KernelSpec {
        specs[&kernel_key(&plan.label, p)].get_or_init(|| {
            let st = plan.shape.stencil();
            let b = st.default_bindings();
            let kernel = layers.time("codegen.generate_s", || {
                generate(&st, &b, LayoutKind::Brick, p.width(), p.codegen_options())
                    .expect("validity admits only generatable candidates")
            });
            layers.time("analyzer.verify_s", || {
                let lint = brick_lint::LintOptions {
                    expected: Some(
                        brick_lint::ExpectedStencil::resolve_temporal(&st, &b, p.temporal_degree)
                            .expect("paper bindings resolve"),
                    ),
                    budgets: vec![],
                };
                let analysis = brick_lint::analyze(&kernel, &lint);
                assert!(analysis.is_clean(), "candidate {p} failed verification");
            });
            KernelSpec::Vector(kernel)
        })
    };

    type GeomKey = (usize, usize, usize, brick_core::BrickOrdering, usize);
    type MemKey = (u64, gpu_sim::GpuKind, u32, usize, GeomKey);
    let geoms: Slots<GeomKey, TraceGeometry> = Mutex::new(HashMap::new());
    let mems: Slots<MemKey, MemCounters> = Mutex::new(HashMap::new());

    let eval_cell = |plan: &GroupPlan,
                     p: &SpecParams,
                     prune_ref: Option<f64>|
     -> Option<TunedRecord> {
        let target = &opts.targets[plan.target];
        let arch = &target.arch;
        let rl = &rooflines[plan.target];
        let analysis = StencilAnalysis::of_shape(&plan.shape);
        let t = p.temporal_degree;
        let flops_per_point = analysis.flops_per_point * t as u64;
        let theoretical_ai = analysis.theoretical_ai * t as f64;
        let key = tune_cell_key(
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
        );
        match layers.time("sweep.cache_get_s", || cache.get::<CachedCell>(&key)) {
            CacheOutcome::Hit(CachedCell {
                record: Some(record),
            }) => return Some(record),
            CacheOutcome::Hit(CachedCell { record: None }) if prune_ref.is_some() => return None,
            _ => {}
        }
        if let Some(reference) = prune_ref {
            let mut bound = layers.time("tuner.prune_s", || {
                roofline_upper_bound(p, &plan.shape, arch)
            });
            if bound * PRUNE_MARGIN >= reference {
                let spec = spec_of(plan, p);
                if let Some(b) = layers.time("tuner.prune_s", || {
                    compile_only(spec, arch, target.model).map(|(_, _, occ)| {
                        occupancy_upper_bound(p, &plan.shape, arch, occ.occupancy)
                    })
                }) {
                    bound = b;
                }
            }
            if bound * PRUNE_MARGIN < reference {
                let marker = CachedCell { record: None };
                layers
                    .time("sweep.cache_put_s", || cache.put(&key, &marker))
                    .ok();
                return None;
            }
        }
        let spec = spec_of(plan, p);
        let (cm, compiled, occ) = layers
            .time("gpu_sim.compile_s", || {
                compile_only(spec, arch, target.model)
            })
            .expect("targets support their model");
        let KernelSpec::Vector(kernel) = spec else {
            unreachable!("tuner specs are vector kernels")
        };
        let kernel_fp = brick_lint::fingerprint(kernel);
        let reach = t as usize * plan.shape.radius as usize;
        let gkey: GeomKey = (p.width(), p.block_yz.0, p.block_yz.1, p.ordering, reach);
        let geom_slot = slot(&geoms, gkey);
        let geom = geom_slot.get_or_init(|| {
            layers.time("vm.geometry_s", || {
                let decomp = Arc::new(BrickDecomp::new(
                    (opts.n, opts.n, opts.n),
                    p.brick_dims(),
                    reach,
                    p.ordering,
                ));
                TraceGeometry::brick(Arc::new(BrickNav::new(decomp)))
            })
        });
        let mem_slot = slot(
            &mems,
            (
                kernel_fp,
                arch.kind,
                occ.blocks_per_sm,
                p.interleave_chunk,
                gkey,
            ),
        );
        let mem = *mem_slot.get_or_init(|| {
            crate::paper::simulate(
                layers,
                spec,
                geom,
                arch,
                occ.blocks_per_sm,
                p.interleave_chunk,
            )
        });
        let sim = layers.time("gpu_sim.assemble_s", || {
            assemble(spec, geom, arch, &cm, &compiled, mem, flops_per_point)
        });
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
        let cell = CachedCell {
            record: Some(record.clone()),
        };
        layers
            .time("sweep.cache_put_s", || cache.put(&key, &cell))
            .ok();
        Some(record)
    };

    let t_base = Instant::now();
    let group_ids: Vec<usize> = (0..plans.len()).collect();
    let baselines: Vec<TunedRecord> =
        map_cells("replay.baselines", &group_ids, opts.jobs, |_, &gi| {
            eval_cell(&plans[gi], &plans[gi].baseline, None).expect("the baseline is never pruned")
        });
    let baseline_phase_s = t_base.elapsed().as_secs_f64();

    let flat: Vec<(usize, SpecParams)> = plans
        .iter()
        .enumerate()
        .flat_map(|(gi, plan)| plan.valid.iter().map(move |p| (gi, *p)))
        .collect();
    let outcomes = map_cells("replay.cells", &flat, opts.jobs, |_, &(gi, p)| {
        eval_cell(&plans[gi], &p, opts.prune.then(|| baselines[gi].gflops))
    });

    let mut ranked: Vec<Vec<TunedRecord>> = plans.iter().map(|_| Vec::new()).collect();
    let mut pruned_per_group = vec![0u64; plans.len()];
    for (&(gi, _), outcome) in flat.iter().zip(outcomes) {
        match outcome {
            Some(record) => ranked[gi].push(record),
            None => pruned_per_group[gi] += 1,
        }
    }
    let mut groups = Vec::with_capacity(plans.len());
    for (gi, plan) in plans.iter().enumerate() {
        let mut list = std::mem::take(&mut ranked[gi]);
        list.push(baselines[gi].clone());
        let evaluated = list.len() as u64;
        list.sort_by(|a, b| {
            b.gflops
                .total_cmp(&a.gflops)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        list.truncate(opts.top_k);
        let target = &opts.targets[plan.target];
        groups.push(TuneGroup {
            stencil: plan.label.clone(),
            shape: plan.shape,
            gpu: target.arch.kind,
            model: target.model,
            baseline: baselines[gi].clone(),
            ranked: list,
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
    Ok(ReplayedTune {
        groups,
        candidates: flat.len() as u64,
        pruned: pruned_per_group.iter().sum(),
        baseline_phase_s,
    })
}
