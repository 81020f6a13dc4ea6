//! `paper-sweep`: the 108-cell paper matrix, then the temporal sweep,
//! both cold at 64³ on 2 workers, repeated in fresh caches.
//!
//! Oracles: every sample's records must equal the first sample's, a
//! seed-chosen sample of cells is re-simulated at [`SimFidelity::Exact`]
//! and must reproduce the fast records bit for bit, and the checked-in
//! 64³ goldens must pass. The traced run replays
//! both sweeps through the layers' public functions and its records must
//! equal the public entry points'.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use brick_codegen::{LayoutKind, SpecParams};
use brick_dsl::shape::StencilShape;
use brick_dsl::StencilAnalysis;
use brick_sweep::{map_cells, CacheOutcome, DiskCache, Jobs};
use brick_vm::{KernelSpec, TraceGeometry};
use experiments::cache::{cell_key, roofline_key, temporal_cell_key};
use experiments::golden::{self, GOLDEN_N};
use experiments::runner::{build_geometry, build_spec, verify_spec};
use experiments::temporal::{build_temporal_spec, feasible_degrees, verify_temporal_spec};
use experiments::{
    sweep_with, temporal_sweep_with, CellFilter, ExperimentParams, KernelConfig, Record,
    SweepOptions, TemporalRecord,
};
use gpu_sim::{
    assemble, compile_only, simulate_memory_opts, CompilerModel, GpuArch, GpuKind, MemCounters,
    ProgModel, SimFidelity, SimOptions,
};
use roofline::Roofline;

use crate::host::{peak_rss_mib, timed, Stamp};
use crate::layers::{dir_bytes, launch_waves, metric_list, Layers, SimCounters, TraceContext};
use crate::oracle::{same_json, Checks};
use crate::{
    fresh_dir, median, pool, repeated_setup, slot, Metric, Outcome, Rng, RunArgs, Scale, Slots,
    JOBS,
};

/// Set-up repetitions before each sample (the reported `setup_s` is the
/// median over the run; one set-up takes about a microsecond, and
/// spreading the repetitions over the run evens out the host's changing
/// speed).
const SETUP_REPS: usize = 25;

/// Problem sizes of one scale.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Domain extent of both sweeps.
    pub n: usize,
    /// Spatial sub-matrix (the full paper matrix at full scale).
    pub filter: CellFilter,
    /// Timed cold samples (spatial + temporal sweep) at least, whatever
    /// the time budget, after the warm-up sample.
    pub min_samples: usize,
    /// Cells re-simulated at exact fidelity.
    pub exact_samples: usize,
}

impl Sizes {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                n: 64,
                filter: CellFilter::default(),
                min_samples: 5,
                exact_samples: 2,
            },
            Scale::Tiny => Sizes {
                n: 64,
                filter: CellFilter {
                    stencils: Some(vec!["7pt".into()]),
                    gpus: Some(vec![GpuKind::A100]),
                    ..CellFilter::default()
                },
                min_samples: 1,
                exact_samples: 1,
            },
        }
    }

    /// The spatial and temporal sweep requests of cold sample `i`, each
    /// caching under a directory of its own (the sweeps create them).
    pub fn options(&self, work_dir: &Path, i: usize) -> (SweepOptions, SweepOptions) {
        (
            options(
                self.n,
                self.filter.clone(),
                work_dir.join(format!("sweep-{i}")),
            ),
            options(
                self.n,
                CellFilter::default(),
                work_dir.join(format!("temporal-{i}")),
            ),
        )
    }
}

fn options(n: usize, filter: CellFilter, cache: PathBuf) -> SweepOptions {
    SweepOptions::new(ExperimentParams { n })
        .jobs(JOBS)
        .filter(filter)
        .cache_dir(cache)
}

/// Run the workload: cold samples, each a spatial sweep then a temporal
/// sweep into fresh caches, until the run has measured `--seconds` and
/// at least [`Sizes::min_samples`] after a warm-up sample that the
/// metrics leave out; the metrics are the median CPU seconds per sweep.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sizes = Sizes::of(args.scale);
    let stamp = Stamp::detect(JOBS, args.seed);
    if args.trace {
        let (spatial, temporal) = sizes.options(&args.work_dir, 0);
        return trace(args, stamp, &sizes, &spatial, &temporal);
    }

    let workers = pool(JOBS);
    let mut checks = Checks::new();
    let mut first: Option<(Vec<Record>, Vec<TemporalRecord>)> = None;
    // the metrics are CPU seconds; the wall seconds bound the run
    let (mut sweep_cpu, mut temporal_cpu) = (Vec::new(), Vec::new());
    let (mut sweep_walls, mut temporal_walls) = (Vec::new(), Vec::new());
    let (mut setup_walls, mut peak) = (Vec::new(), 0.0);
    let mut ops = 0u64;
    // sample 0 warms the process up (allocator, codegen's memo): it is
    // checked but left out of the metrics
    while sweep_cpu.len() <= sizes.min_samples
        || sweep_walls[1..]
            .iter()
            .chain(&temporal_walls[1..])
            .sum::<f64>()
            < args.seconds
    {
        let i = sweep_cpu.len();
        let ((spatial, temporal), setups) =
            repeated_setup(SETUP_REPS, || Ok(sizes.options(&args.work_dir, i)))?;
        setup_walls.extend(setups);
        let (sweep, wall, cpu) = timed(|| workers.install(|| sweep_with(&spatial)));
        let sweep = sweep.map_err(|e| format!("sweep: {e}"))?;
        sweep_walls.push(wall);
        sweep_cpu.push(cpu);
        let (tsweep, wall, cpu) = timed(|| workers.install(|| temporal_sweep_with(&temporal)));
        let tsweep = tsweep.map_err(|e| format!("temporal sweep: {e}"))?;
        temporal_walls.push(wall);
        temporal_cpu.push(cpu);
        ops += (sweep.records.len() + tsweep.records.len()) as u64;
        match &first {
            None => {
                // one cold sample's footprint; later samples in the same
                // process only add allocator retention
                peak = peak_rss_mib()?;
                first = Some((sweep.records, tsweep.records));
            }
            Some((records, trecords)) => {
                checks.record(
                    &format!("sample {i} spatial records"),
                    same_json("records", records, &sweep.records),
                );
                checks.record(
                    &format!("sample {i} temporal records"),
                    same_json("records", trecords, &tsweep.records),
                );
            }
        }
    }
    eprintln!(
        "perfbench: paper-sweep samples (CPU s / wall s): spatial {sweep_cpu:.3?} / {sweep_walls:.3?}, temporal {temporal_cpu:.3?} / {temporal_walls:.3?}"
    );

    let (records, _) = first.expect("at least one sample");
    oracles(args, &sizes, &records, &mut checks);
    Ok(Outcome::new(
        stamp,
        ops,
        checks,
        vec![
            Metric::new("setup_s", median(&setup_walls), "s"),
            Metric::new("peak_rss_mib", peak, "MiB"),
            Metric::new("primary_s", median(&sweep_cpu[1..]), "s"),
            Metric::new("secondary_s", median(&temporal_cpu[1..]), "s"),
        ],
    ))
}

/// The paper-sweep oracles, outside any timed region.
pub fn oracles(args: &RunArgs, sizes: &Sizes, records: &[Record], checks: &mut Checks) {
    let workers = pool(JOBS);
    let mut rng = Rng::new(args.seed, "paper-sweep/exact");
    for i in rng.sample(records.len(), sizes.exact_samples) {
        let r = &records[i];
        let name = format!(
            "exact re-simulation {}/{}/{}/{}",
            r.stencil, r.config, r.gpu, r.model
        );
        let filter = CellFilter {
            stencils: Some(vec![r.stencil.clone()]),
            gpus: Some(vec![r.gpu]),
            models: Some(vec![r.model]),
            configs: Some(vec![r.config]),
        };
        let opts = SweepOptions::new(ExperimentParams { n: sizes.n })
            .jobs(JOBS)
            .filter(filter)
            .fidelity(SimFidelity::Exact);
        match workers.install(|| sweep_with(&opts)) {
            Ok(exact) => checks.record(&name, exact_matches(r, &exact.records)),
            Err(e) => checks.fail(&name, e),
        }
    }
    checks.record_all("golden records at 64^3", golden_mismatches(&workers));
}

/// The exact-fidelity re-run of one cell must reproduce its fast record.
pub fn exact_matches(fast: &Record, exact: &[Record]) -> Result<(), String> {
    match exact {
        [one] => same_json("record", fast, one),
        _ => Err(format!("expected one exact record, got {}", exact.len())),
    }
}

/// Fresh 64³ spatial and temporal sweeps against the checked-in goldens.
fn golden_mismatches(workers: &rayon::ThreadPool) -> Vec<String> {
    let opts = SweepOptions::new(ExperimentParams { n: GOLDEN_N }).jobs(JOBS);
    let mut diffs = match workers.install(|| sweep_with(&opts)) {
        Ok(s) => golden::check(&s, &golden::golden_dir()),
        Err(e) => vec![format!("golden sweep: {e}")],
    };
    diffs.extend(match workers.install(|| temporal_sweep_with(&opts)) {
        Ok(t) => golden::check_temporal(&t, &golden::golden_dir()),
        Err(e) => vec![format!("golden temporal sweep: {e}")],
    });
    diffs
}

/// Traced run: replay both sweeps layer by layer, then run the public
/// entry points for the overhead reference and the record comparison.
fn trace(
    args: &RunArgs,
    stamp: Stamp,
    sizes: &Sizes,
    spatial: &SweepOptions,
    temporal: &SweepOptions,
) -> Result<Outcome, String> {
    let workers = pool(JOBS);
    let layers = Layers::new();
    let before = SimCounters::read();
    let replay_spatial_dir = fresh_dir(args, "replay-sweep")?;
    let replay_temporal_dir = fresh_dir(args, "replay-temporal")?;
    let t = Instant::now();
    let (r_spatial, r_temporal) = workers.install(|| {
        Ok::<_, String>((
            replay_spatial(&layers, sizes.n, &sizes.filter, &replay_spatial_dir)?,
            replay_temporal(&layers, sizes.n, &replay_temporal_dir)?,
        ))
    })?;
    let replay_wall = t.elapsed().as_secs_f64();
    let sim = SimCounters::read().since(before);
    let cache_bytes = dir_bytes(&replay_spatial_dir) + dir_bytes(&replay_temporal_dir);

    let t = Instant::now();
    let sweep = workers
        .install(|| sweep_with(spatial))
        .map_err(|e| format!("sweep: {e}"))?;
    let tsweep = workers
        .install(|| temporal_sweep_with(temporal))
        .map_err(|e| format!("temporal sweep: {e}"))?;
    let public_wall = t.elapsed().as_secs_f64();

    let mut checks = Checks::new();
    checks.record(
        "replayed spatial records",
        same_json("records", &sweep.records, &r_spatial),
    );
    checks.record(
        "replayed temporal records",
        same_json("records", &tsweep.records, &r_temporal),
    );
    oracles(args, sizes, &sweep.records, &mut checks);

    let busy: f64 = sweep
        .manifest
        .record_wall_s
        .iter()
        .chain(&tsweep.manifest.record_wall_s)
        .sum();
    let ops = 2 * (sweep.records.len() + tsweep.records.len()) as u64;
    let ctx = TraceContext {
        replay_wall,
        public_wall,
        jobs: JOBS,
        sim,
        cache_bytes,
        worker_busy_frac: busy / (public_wall * JOBS as f64),
    };
    Ok(Outcome::new(
        stamp,
        ops,
        checks,
        metric_list(&layers, &ctx, &[]),
    ))
}

/// The empirical Roofline of every supported matrix pair, measured once
/// per resolved platform, through the cache.
fn replay_rooflines(layers: &Layers, cache: &DiskCache) -> Vec<((GpuKind, ProgModel), Roofline)> {
    let mut memo: HashMap<String, Option<Roofline>> = HashMap::new();
    let mut out = Vec::new();
    for (gpu, model) in ProgModel::paper_matrix() {
        let arch = GpuArch::by_kind(gpu);
        let Some(cm) = CompilerModel::resolve(gpu, model) else {
            continue;
        };
        let platform = format!(
            "{gpu}/{}",
            serde_json::to_string(&cm).expect("compiler model serializes")
        );
        let measured = memo.entry(platform).or_insert_with(|| {
            let key = roofline_key(arch, model);
            match layers.time("sweep.cache_get_s", || cache.get::<Option<Roofline>>(&key)) {
                CacheOutcome::Hit(r) => r,
                _ => {
                    let r = layers.time("roofline.measure_s", || roofline::measure(arch, model));
                    layers
                        .time("sweep.cache_put_s", || cache.put(&key, &r))
                        .ok();
                    r
                }
            }
        });
        if let Some(r) = measured {
            out.push(((gpu, model), *r));
        }
    }
    out
}

fn roofline_of(
    rooflines: &[((GpuKind, ProgModel), Roofline)],
    gpu: GpuKind,
    model: ProgModel,
) -> Result<Roofline, String> {
    rooflines
        .iter()
        .find(|((g, m), _)| *g == gpu && *m == model)
        .map(|(_, r)| *r)
        .ok_or_else(|| format!("no roofline for {gpu}/{model}"))
}

fn arch_for_width(width: usize) -> &'static GpuArch {
    GpuArch::table()
        .iter()
        .find(|a| a.simd_width == width)
        .expect("width comes from the table")
}

/// Replay of `experiments::sweep_with` (fast fidelity, 2 workers) with
/// every layer call timed. Returns the records in canonical order.
pub fn replay_spatial(
    layers: &Layers,
    n: usize,
    filter: &CellFilter,
    cache_dir: &Path,
) -> Result<Vec<Record>, String> {
    let cache = DiskCache::open(cache_dir).map_err(|e| format!("cache: {e}"))?;
    let rooflines = replay_rooflines(layers, &cache);
    let keeps = |shape: &StencilShape, gpu: GpuKind, model: ProgModel, config: KernelConfig| {
        filter
            .stencils
            .as_ref()
            .is_none_or(|s| s.contains(&shape.label()))
            && filter.gpus.as_ref().is_none_or(|g| g.contains(&gpu))
            && filter.models.as_ref().is_none_or(|m| m.contains(&model))
            && filter.configs.as_ref().is_none_or(|c| c.contains(&config))
    };
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        for arch in GpuArch::table() {
            for (gpu, model) in ProgModel::paper_matrix() {
                for config in KernelConfig::all() {
                    if gpu == arch.kind && keeps(&shape, gpu, model, config) {
                        cells.push((shape, gpu, model, config));
                    }
                }
            }
        }
    }

    let mut spec_jobs: Vec<(StencilShape, usize, KernelConfig)> = Vec::new();
    for &(shape, gpu, _, config) in &cells {
        let job = (shape, GpuArch::by_kind(gpu).simd_width, config);
        if !spec_jobs.contains(&job) {
            spec_jobs.push(job);
        }
    }
    let lint_memo = brick_lint::FingerprintCache::new();
    let specs: HashMap<(String, usize, KernelConfig), KernelSpec> = map_cells(
        "replay.specs",
        &spec_jobs,
        Jobs::N(JOBS),
        |_, &(shape, w, config)| {
            let spec = layers.time("codegen.generate_s", || build_spec(&shape, config, w));
            layers.time("analyzer.verify_s", || {
                verify_spec(&spec, &shape, arch_for_width(w), &lint_memo)
            });
            ((shape.label(), w, config), spec)
        },
    )
    .into_iter()
    .collect();

    type GeomKey = (LayoutKind, usize, usize);
    type MemKey = (GpuKind, String, KernelConfig, u32);
    let geoms: Slots<GeomKey, TraceGeometry> = Mutex::new(HashMap::new());
    let mems: Slots<MemKey, MemCounters> = Mutex::new(HashMap::new());
    let outcomes = map_cells(
        "replay.cells",
        &cells,
        Jobs::N(JOBS),
        |_, &(shape, gpu, model, config)| -> Result<Option<Record>, String> {
            let arch = GpuArch::by_kind(gpu);
            let width = arch.simd_width;
            let spec = &specs[&(shape.label(), width, config)];
            let Some((cm, compiled, occ)) =
                layers.time("gpu_sim.compile_s", || compile_only(spec, arch, model))
            else {
                return Ok(None);
            };
            let rl = roofline_of(&rooflines, gpu, model)?;
            let analysis = StencilAnalysis::of_shape(&shape);
            let key = cell_key(
                spec,
                arch,
                model,
                n,
                analysis.flops_per_point,
                analysis.theoretical_ai,
                &rl,
                SimFidelity::Fast,
                1,
                &SpecParams::paper_default(width),
            );
            if let CacheOutcome::Hit(r) =
                layers.time("sweep.cache_get_s", || cache.get::<Record>(&key))
            {
                return Ok(Some(r));
            }
            let radius = shape.radius as usize;
            let geom_slot = slot(&geoms, (config.layout(), width, radius));
            let geom = geom_slot.get_or_init(|| {
                layers.time("vm.geometry_s", || {
                    build_geometry(config.layout(), n, width, radius)
                })
            });
            let mem_slot = slot(&mems, (gpu, shape.label(), config, occ.blocks_per_sm));
            let mem =
                *mem_slot.get_or_init(|| simulate(layers, spec, geom, arch, occ.blocks_per_sm, 0));
            let sim = layers.time("gpu_sim.assemble_s", || {
                assemble(
                    spec,
                    geom,
                    arch,
                    &cm,
                    &compiled,
                    mem,
                    analysis.flops_per_point,
                )
            });
            let record = Record {
                shape,
                stencil: shape.label(),
                config,
                gpu,
                model,
                gflops: sim.gflops,
                ai: sim.ai,
                theoretical_ai: analysis.theoretical_ai,
                frac_roofline: rl.fraction(sim.gflops, sim.ai),
                frac_theoretical_ai: sim.ai / analysis.theoretical_ai,
                l1_bytes: sim.mem.l1_bytes,
                l2_bytes: sim.mem.l2_bytes,
                dram_bytes: sim.mem.dram_bytes,
                time_s: sim.time_s,
                occupancy: sim.occupancy.occupancy,
                regs_per_thread: sim.regs_per_thread,
                spilled: sim.spilled,
                limiter: sim.breakdown.limiter().to_string(),
            };
            layers
                .time("sweep.cache_put_s", || cache.put(&key, &record))
                .map_err(|e| format!("cache put: {e}"))?;
            Ok(Some(record))
        },
    );
    let mut records = Vec::new();
    for o in outcomes {
        records.extend(o?);
    }
    Ok(records)
}

/// One timed fast-fidelity memory simulation; also tallies the launch's
/// waves so the fast-forward share can be reported.
pub fn simulate(
    layers: &Layers,
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
    interleave_chunk: usize,
) -> MemCounters {
    layers.count(
        "gpu_sim.waves",
        launch_waves(geom.num_blocks(), arch.num_sms, blocks_per_sm),
    );
    let opts = SimOptions {
        fidelity: SimFidelity::Fast,
        interleave_chunk: if interleave_chunk == 0 {
            SimOptions::default().interleave_chunk
        } else {
            interleave_chunk
        },
    };
    layers.time("gpu_sim.simulate_s", || {
        simulate_memory_opts(spec, geom, arch, blocks_per_sm, &opts).counters()
    })
}

/// Replay of `experiments::temporal_sweep_with` with every layer call
/// timed. Returns the records in canonical order.
pub fn replay_temporal(
    layers: &Layers,
    n: usize,
    cache_dir: &Path,
) -> Result<Vec<TemporalRecord>, String> {
    let cache = DiskCache::open(cache_dir).map_err(|e| format!("cache: {e}"))?;
    let rooflines = replay_rooflines(layers, &cache);
    let mut cells = Vec::new();
    for shape in StencilShape::paper_suite() {
        for t in feasible_degrees(&shape) {
            for arch in GpuArch::table() {
                for (gpu, model) in ProgModel::paper_matrix() {
                    if gpu == arch.kind {
                        cells.push((shape, t, gpu, model));
                    }
                }
            }
        }
    }
    let mut spec_jobs: Vec<(StencilShape, usize, u32)> = Vec::new();
    for &(shape, t, gpu, _) in &cells {
        let job = (shape, GpuArch::by_kind(gpu).simd_width, t);
        if !spec_jobs.contains(&job) {
            spec_jobs.push(job);
        }
    }
    let lint_memo = brick_lint::FingerprintCache::new();
    let specs: HashMap<(String, usize, u32), KernelSpec> = map_cells(
        "replay.tspecs",
        &spec_jobs,
        Jobs::N(JOBS),
        |_, &(shape, w, t)| {
            let spec = layers.time("codegen.generate_s", || build_temporal_spec(&shape, w, t));
            layers.time("analyzer.verify_s", || {
                verify_temporal_spec(&spec, &shape, t, &lint_memo)
            });
            ((shape.label(), w, t), spec)
        },
    )
    .into_iter()
    .collect();

    type MemKey = (GpuKind, String, u32, u32);
    let geoms: Slots<(usize, usize), TraceGeometry> = Mutex::new(HashMap::new());
    let mems: Slots<MemKey, MemCounters> = Mutex::new(HashMap::new());
    let outcomes = map_cells(
        "replay.tcells",
        &cells,
        Jobs::N(JOBS),
        |_, &(shape, t, gpu, model)| -> Result<Option<TemporalRecord>, String> {
            let arch = GpuArch::by_kind(gpu);
            let width = arch.simd_width;
            let spec = &specs[&(shape.label(), width, t)];
            let Some((cm, compiled, occ)) =
                layers.time("gpu_sim.compile_s", || compile_only(spec, arch, model))
            else {
                return Ok(None);
            };
            let rl = roofline_of(&rooflines, gpu, model)?;
            let analysis = StencilAnalysis::of_shape(&shape);
            let flops_per_point = analysis.flops_per_point * t as u64;
            let theoretical_ai = analysis.theoretical_ai * t as f64;
            let key = temporal_cell_key(
                spec,
                arch,
                model,
                n,
                flops_per_point,
                theoretical_ai,
                &rl,
                SimFidelity::Fast,
                t,
                &SpecParams {
                    temporal_degree: t,
                    ..SpecParams::paper_default(width)
                },
            );
            if let CacheOutcome::Hit(r) =
                layers.time("sweep.cache_get_s", || cache.get::<TemporalRecord>(&key))
            {
                return Ok(Some(r));
            }
            let reach = t as usize * shape.radius as usize;
            let geom_slot = slot(&geoms, (width, reach));
            let geom = geom_slot.get_or_init(|| {
                layers.time("vm.geometry_s", || {
                    build_geometry(LayoutKind::Brick, n, width, reach)
                })
            });
            let mem_slot = slot(&mems, (gpu, shape.label(), t, occ.blocks_per_sm));
            let mem =
                *mem_slot.get_or_init(|| simulate(layers, spec, geom, arch, occ.blocks_per_sm, 0));
            let sim = layers.time("gpu_sim.assemble_s", || {
                assemble(spec, geom, arch, &cm, &compiled, mem, flops_per_point)
            });
            let applied_points = sim.points as f64 * t as f64;
            let record = TemporalRecord {
                shape,
                stencil: shape.label(),
                temporal_degree: t,
                gpu,
                model,
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
            layers
                .time("sweep.cache_put_s", || cache.put(&key, &record))
                .map_err(|e| format!("cache put: {e}"))?;
            Ok(Some(record))
        },
    );
    let mut records = Vec::new();
    for o in outcomes {
        records.extend(o?);
    }
    Ok(records)
}
