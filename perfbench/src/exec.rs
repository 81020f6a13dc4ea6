//! `exec-star7`: native execution (`ExecutionMode::Auto`) of the
//! 7-point star on bricks, repeated T=1 and fused T=2 launches over a
//! seeded input field after one untimed warm-up launch each. No
//! simulator code runs.
//!
//! Oracle: for both T, the native output must be bit-identical to the
//! interpreter's (compared brick by brick through bit-exact digests, so
//! no third grid is held). The traced run replays set-up and launches
//! call by call and adds the single-thread, interpreter and copy
//! bandwidth probes.

use std::sync::Arc;
use std::time::Instant;

use brick_codegen::{generate, CodegenOptions, LayoutKind, VectorKernel};
use brick_core::{BrickDims, BrickGrid};
use brick_dsl::shape::StencilShape;
use brick_dsl::DenseGrid;
use brick_vm::{resolve, run_vector_brick_backend, Backend, ExecutionMode, Plan};

use crate::host::{copy_gbs, peak_rss_mib, Stamp};
use crate::layers::{metric_list, Layers, TraceContext};
use crate::oracle::{chunk_digests, digests_match, Checks};
use crate::{median, pool, repeated_setup, Metric, Outcome, Rng, RunArgs, Scale, JOBS};

/// Vector width (= brick x-extent) of the kernels, as in `BENCH_exec`.
pub const WIDTH: usize = 32;

/// Fusion degrees launched.
pub const DEGREES: [u32; 2] = [1, 2];

/// Launches per degree the traced replay times.
const REPLAY_LAUNCHES: usize = 5;

/// Launches per degree measured at least, whatever the time budget.
const MIN_LAUNCHES: usize = 3;

/// Problem sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Domain extent (points per axis).
    pub n: usize,
    /// Set-up repetitions (the reported `setup_s` is their median).
    pub setup_reps: usize,
}

impl Sizes {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                n: 384,
                setup_reps: 3,
            },
            Scale::Tiny => Sizes {
                n: 64,
                setup_reps: 2,
            },
        }
    }

    /// Interior points of one launch.
    pub fn points(self) -> f64 {
        (self.n * self.n * self.n) as f64
    }
}

/// Grids and kernels of the measured cell.
pub struct Cell {
    /// Seeded input field, with a halo wide enough for T=2.
    pub input: BrickGrid,
    /// Output grid (same decomposition).
    pub output: BrickGrid,
    /// One kernel per entry of [`DEGREES`].
    pub kernels: Vec<VectorKernel>,
    /// `Plan::safety().fused` per entry of [`DEGREES`].
    pub fused: Vec<bool>,
}

/// Build the cell: seeded field → bricks, codegen and `Plan::compile`
/// per degree, each call timed on `layers`.
pub fn build(n: usize, seed: u64, layers: &Layers) -> Result<Cell, String> {
    let shape = StencilShape::star(1);
    let st = shape.stencil();
    let b = st.default_bindings();
    let halo = (DEGREES[DEGREES.len() - 1] * shape.radius) as usize;
    let mut dense = DenseGrid::cubic(n, halo);
    let mut rng = Rng::new(seed, "exec-star7/field");
    dense.fill_with(|_, _, _| rng.unit());
    let input = layers.time("core.from_dense_s", || {
        BrickGrid::from_dense(&dense, BrickDims::for_simd_width(WIDTH))
    });
    drop(dense);
    let output = BrickGrid::with_metadata(Arc::clone(input.decomp()), Arc::clone(input.info()));
    let mut kernels = Vec::new();
    let mut fused = Vec::new();
    for t in DEGREES {
        let kernel = layers
            .time("codegen.generate_s", || {
                let opts = CodegenOptions {
                    temporal_degree: t,
                    ..CodegenOptions::default()
                };
                generate(&st, &b, LayoutKind::Brick, WIDTH, opts)
            })
            .map_err(|e| format!("codegen T={t}: {e}"))?;
        let plan = layers
            .time("vm.plan_compile_s", || Plan::compile(&kernel))
            .map_err(|e| format!("plan T={t}: {e}"))?;
        fused.push(plan.safety().fused);
        kernels.push(kernel);
    }
    Ok(Cell {
        input,
        output,
        kernels,
        fused,
    })
}

/// One launch of kernel `k` of `cell` on `backend`; returns wall seconds.
fn launch(cell: &mut Cell, k: usize, backend: Backend) -> Result<f64, String> {
    let t = Instant::now();
    run_vector_brick_backend(&cell.kernels[k], &cell.input, &mut cell.output, backend)
        .map_err(|e| format!("{backend} T={}: {e}", DEGREES[k]))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Alternate T=1 and T=2 launches (after one untimed warm-up each) until
/// `seconds` have passed and each degree has `min` launches.
fn measure(
    cell: &mut Cell,
    backend: Backend,
    seconds: f64,
    min: usize,
) -> Result<Vec<Vec<f64>>, String> {
    for k in 0..DEGREES.len() {
        launch(cell, k, backend)?;
    }
    let mut walls = vec![Vec::new(); DEGREES.len()];
    let start = Instant::now();
    while walls[0].len() < min || start.elapsed().as_secs_f64() < seconds {
        for (k, w) in walls.iter_mut().enumerate() {
            w.push(launch(cell, k, backend)?);
        }
    }
    Ok(walls)
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let sizes = Sizes::of(args.scale);
    let backend = resolve(ExecutionMode::Auto).map_err(|e| e.to_string())?;
    // set-up is timed as a whole here; the traced run attributes it
    let scratch = Layers::new();
    let (mut cell, setup_walls) =
        repeated_setup(sizes.setup_reps, || build(sizes.n, args.seed, &scratch))?;
    let setup_s = median(&setup_walls);
    let stamp = Stamp::detect(JOBS, args.seed);
    let workers = pool(JOBS);
    if args.trace {
        return workers.install(|| trace(args, stamp, sizes, cell, backend));
    }

    let walls = workers.install(|| measure(&mut cell, backend, args.seconds, MIN_LAUNCHES))?;
    let peak = peak_rss_mib()?;
    let mut checks = Checks::new();
    workers.install(|| oracles(&mut cell, backend, &mut checks));
    // measured + warm-up + oracle launches
    let launches: usize = walls.iter().map(Vec::len).sum::<usize>() + 3 * DEGREES.len();
    Ok(Outcome::new(
        stamp,
        launches as u64,
        checks,
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mib", peak, "MiB"),
            Metric::new("primary_s", median(&walls[0]), "s"),
            Metric::new("secondary_s", median(&walls[1]) / DEGREES[1] as f64, "s"),
        ],
    ))
}

/// Native output vs interpreter output, bit for bit, for every degree.
pub fn oracles(cell: &mut Cell, backend: Backend, checks: &mut Checks) {
    let vol = cell.input.dims().volume();
    for (k, t) in DEGREES.into_iter().enumerate() {
        let name = format!("{backend} vs interpreter, T={t}");
        let verdict = launch(cell, k, backend)
            .map(|_| chunk_digests(cell.output.raw(), vol))
            .and_then(|native| {
                launch(cell, k, Backend::Interpreter)?;
                digests_match("output", &chunk_digests(cell.output.raw(), vol), &native)
            });
        checks.record(&name, verdict);
    }
}

/// Traced run: time the public launch loop as the reference, then
/// rebuild the cell and replay set-up and launches call by call, then
/// the single-thread, interpreter and copy-bandwidth probes.
fn trace(
    args: &RunArgs,
    stamp: Stamp,
    sizes: Sizes,
    mut cell: Cell,
    backend: Backend,
) -> Result<Outcome, String> {
    let t = Instant::now();
    measure(&mut cell, backend, 0.0, REPLAY_LAUNCHES)?;
    let public_wall = t.elapsed().as_secs_f64();
    drop(cell);

    let layers = Layers::new();
    let t_replay = Instant::now();
    let mut cell = build(sizes.n, args.seed, &layers)?;
    let t = Instant::now();
    let mut walls = vec![Vec::new(); DEGREES.len()];
    for k in 0..DEGREES.len() {
        layers.time("vm.warmup_s", || launch(&mut cell, k, backend))?;
    }
    for _ in 0..REPLAY_LAUNCHES {
        for (k, name) in ["vm.exec_t1_s", "vm.exec_t2_s"].into_iter().enumerate() {
            walls[k].push(layers.time(name, || launch(&mut cell, k, backend))?);
        }
    }
    let launch_wall = t.elapsed().as_secs_f64();

    let single = pool(1);
    let t1_single = layers.time("vm.exec_1t_s", || {
        single.install(|| {
            (0..MIN_LAUNCHES)
                .map(|_| launch(&mut cell, 0, backend))
                .collect::<Result<Vec<f64>, String>>()
        })
    })?;
    let interp = layers.time("vm.interp_s", || launch(&mut cell, 0, Backend::Interpreter))?;
    let gbs = layers.time("host.copy_s", || {
        let Cell { input, output, .. } = &mut cell;
        copy_gbs(input.raw(), output.raw_mut(), 5)
    });
    let replay_wall = t_replay.elapsed().as_secs_f64();

    let mut checks = Checks::new();
    oracles(&mut cell, backend, &mut checks);

    let t1 = median(&walls[0]);
    let points = sizes.points();
    let t1_bytes = 2.0 * points * std::mem::size_of::<f64>() as f64;
    // the replay's calls are issued from one thread; the launch-loop
    // overhead is compared separately below (the probes have no public
    // counterpart)
    let ctx = TraceContext {
        replay_wall,
        public_wall,
        jobs: 1,
        ..TraceContext::default()
    };
    let extra = [
        Metric::new("vm.exec_t1_s", t1, "s"),
        Metric::new("vm.exec_t2_s", median(&walls[1]), "s"),
        Metric::new(
            "vm.plan_fused_t1",
            f64::from(u8::from(cell.fused[0])),
            "count",
        ),
        Metric::new(
            "vm.plan_fused_t2",
            f64::from(u8::from(cell.fused[1])),
            "count",
        ),
        Metric::new(
            "vm.exec_t1_1t_mpts",
            points / median(&t1_single) / 1e6,
            "Mpts/s",
        ),
        Metric::new("vm.interp_t1_mpts", points / interp / 1e6, "Mpts/s"),
        Metric::new("vm.exec_t1_bw_frac", t1_bytes / t1 / 1e9 / gbs, "ratio"),
        Metric::new("host.copy_gbs", gbs, "GB/s"),
        Metric::new(
            "trace.overhead_frac",
            launch_wall / public_wall - 1.0,
            "ratio",
        ),
    ];
    // public and replayed loops (warm-ups included), single-thread,
    // interpreter and oracle launches
    let launches = 2 * (REPLAY_LAUNCHES + 1) * DEGREES.len() + MIN_LAUNCHES + 1 + 2 * DEGREES.len();
    Ok(Outcome::new(
        stamp,
        launches as u64,
        checks,
        metric_list(&layers, &ctx, &extra),
    ))
}
