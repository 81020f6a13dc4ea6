//! Per-layer accounting for the traced replay: wall time, call count,
//! slowest call and allocated bytes per layer, summed across worker
//! threads.
//!
//! Allocation comes from the counting global allocator (`prof-alloc`)
//! that every binary linking the pipeline already installs; its
//! per-thread clock makes each timed call's allocation volume exact even
//! while other workers allocate concurrently.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::Metric;

/// Totals for one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Summed wall seconds of every timed call.
    pub secs: f64,
    /// Number of timed calls.
    pub calls: u64,
    /// Slowest single call, seconds.
    pub max_s: f64,
    /// Bytes allocated inside the calls.
    pub alloc_bytes: u64,
}

/// Layer name → totals. Timed regions must not nest: each second is
/// attributed to exactly one layer.
#[derive(Debug, Default)]
pub struct Layers {
    totals: Mutex<BTreeMap<&'static str, LayerTotals>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Layers {
    /// An empty ledger.
    pub fn new() -> Layers {
        Layers::default()
    }

    /// Run `f`, attributing its wall time and allocations to `layer`.
    pub fn time<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let a0 = prof_alloc::thread_allocated_bytes();
        let t0 = Instant::now();
        let r = f();
        let secs = t0.elapsed().as_secs_f64();
        let alloc = prof_alloc::thread_allocated_bytes().saturating_sub(a0);
        let mut totals = self.totals.lock().expect("layer ledger poisoned");
        let t = totals.entry(layer).or_default();
        t.secs += secs;
        t.calls += 1;
        t.max_s = t.max_s.max(secs);
        t.alloc_bytes += alloc;
        r
    }

    /// Add `n` to the event counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("layer ledger poisoned")
            .entry(name)
            .or_default() += n;
    }

    /// Value of the event counter `name` (zero when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("layer ledger poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Totals for `layer` (zero when it never ran).
    pub fn get(&self, layer: &str) -> LayerTotals {
        self.totals
            .lock()
            .expect("layer ledger poisoned")
            .get(layer)
            .copied()
            .unwrap_or_default()
    }

    /// Seconds attributed to any layer.
    pub fn attributed_s(&self) -> f64 {
        self.totals
            .lock()
            .expect("layer ledger poisoned")
            .values()
            .map(|t| t.secs)
            .sum()
    }
}

/// Bytes → MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Simulator-side counters the pipeline keeps in `brick-obs`, read as
/// deltas around a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    /// Block classes compiled across fast-fidelity launches.
    pub classes: u64,
    /// Blocks those classes cover.
    pub blocks: u64,
    /// Waves fast-forwarded by the periodic skip.
    pub waves_skipped: u64,
}

impl SimCounters {
    /// The current process-wide values.
    pub fn read() -> SimCounters {
        SimCounters {
            classes: brick_obs::counter_value("sim.classes.classes"),
            blocks: brick_obs::counter_value("sim.classes.blocks"),
            waves_skipped: brick_obs::counter_value("sim.classes.waves_skipped"),
        }
    }

    /// `self - earlier`.
    pub fn since(self, earlier: SimCounters) -> SimCounters {
        SimCounters {
            classes: self.classes - earlier.classes,
            blocks: self.blocks - earlier.blocks,
            waves_skipped: self.waves_skipped - earlier.waves_skipped,
        }
    }
}

/// Waves a launch of `num_blocks` blocks takes at `blocks_per_sm`
/// resident blocks per SM (the simulator's schedule).
pub fn launch_waves(num_blocks: usize, num_sms: usize, blocks_per_sm: u32) -> u64 {
    let active = num_sms * blocks_per_sm.max(1) as usize;
    num_blocks.div_ceil(active) as u64
}

/// Total size of the files under `dir` (the cache's on-disk footprint).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Replay-wide facts the per-layer metrics need besides the ledger.
#[derive(Debug, Clone, Default)]
pub struct TraceContext {
    /// Wall time of the replayed work.
    pub replay_wall: f64,
    /// Wall time of the same work through the public entry points.
    pub public_wall: f64,
    /// Threads issuing the replay's timed calls (the ledger's capacity
    /// is `replay_wall × jobs`).
    pub jobs: usize,
    /// Simulator counter deltas over the replay.
    pub sim: SimCounters,
    /// Bytes the replay's caches hold on disk.
    pub cache_bytes: u64,
    /// Σ per-cell wall ÷ (wall × jobs) of the public run.
    pub worker_busy_frac: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise report 0. Figures only the workload itself can
/// compute (tuner fractions, native throughputs) come in `extra` by
/// name and override the ledger.
pub fn metric_list(layers: &Layers, ctx: &TraceContext, extra: &[Metric]) -> Vec<Metric> {
    let secs = |l: &str| layers.get(l).secs;
    let calls = |l: &str| layers.get(l).calls as f64;
    let alloc = |l: &str| mib(layers.get(l).alloc_bytes);
    let computed = [
        ("gpu_sim.simulate_s", secs("gpu_sim.simulate_s"), "s"),
        ("gpu_sim.simulations", calls("gpu_sim.simulate_s"), "count"),
        (
            "gpu_sim.simulate_alloc_mib",
            alloc("gpu_sim.simulate_s"),
            "MiB",
        ),
        (
            "gpu_sim.simulate_max_s",
            layers.get("gpu_sim.simulate_s").max_s,
            "s",
        ),
        ("gpu_sim.compile_s", secs("gpu_sim.compile_s"), "s"),
        ("gpu_sim.assemble_s", secs("gpu_sim.assemble_s"), "s"),
        (
            "gpu_sim.classes_per_block",
            ratio(ctx.sim.classes as f64, ctx.sim.blocks as f64),
            "ratio",
        ),
        (
            "gpu_sim.waves_skipped_frac",
            ratio(
                ctx.sim.waves_skipped as f64,
                layers.counted("gpu_sim.waves") as f64,
            ),
            "ratio",
        ),
        ("gpu_sim.warm_simulations", 0.0, "count"),
        ("codegen.generate_s", secs("codegen.generate_s"), "s"),
        ("codegen.programs", calls("codegen.generate_s"), "count"),
        (
            "codegen.generate_alloc_mib",
            alloc("codegen.generate_s"),
            "MiB",
        ),
        ("analyzer.verify_s", secs("analyzer.verify_s"), "s"),
        (
            "analyzer.verify_alloc_mib",
            alloc("analyzer.verify_s"),
            "MiB",
        ),
        ("tuner.plan_s", secs("tuner.plan_s"), "s"),
        ("tuner.prune_s", secs("tuner.prune_s"), "s"),
        ("tuner.pruned_frac", 0.0, "ratio"),
        (
            "tuner.skipped",
            layers.counted("tuner.skipped") as f64,
            "count",
        ),
        ("tuner.baseline_phase_s", 0.0, "s"),
        ("sweep.cache_get_s", secs("sweep.cache_get_s"), "s"),
        ("sweep.cache_gets", calls("sweep.cache_get_s"), "count"),
        ("sweep.cache_put_s", secs("sweep.cache_put_s"), "s"),
        ("sweep.cache_puts", calls("sweep.cache_put_s"), "count"),
        ("sweep.cache_bytes", ctx.cache_bytes as f64, "B"),
        ("sweep.worker_busy_frac", ctx.worker_busy_frac, "ratio"),
        ("roofline.measure_s", secs("roofline.measure_s"), "s"),
        ("vm.geometry_s", secs("vm.geometry_s"), "s"),
        ("vm.exec_t1_s", 0.0, "s"),
        ("vm.exec_t2_s", 0.0, "s"),
        ("vm.plan_fused_t1", 0.0, "count"),
        ("vm.plan_fused_t2", 0.0, "count"),
        ("vm.exec_t1_1t_mpts", 0.0, "Mpts/s"),
        ("vm.interp_t1_mpts", 0.0, "Mpts/s"),
        ("vm.exec_t1_bw_frac", 0.0, "ratio"),
        ("host.copy_gbs", 0.0, "GB/s"),
        ("vm.plan_compile_s", secs("vm.plan_compile_s"), "s"),
        ("core.from_dense_s", secs("core.from_dense_s"), "s"),
        (
            "trace.overhead_frac",
            ratio(ctx.replay_wall, ctx.public_wall) - 1.0,
            "ratio",
        ),
        (
            "trace.unattributed_frac",
            1.0 - ratio(
                layers.attributed_s(),
                ctx.replay_wall * ctx.jobs.max(1) as f64,
            ),
            "ratio",
        ),
    ];
    computed
        .into_iter()
        .map(
            |(name, value, unit)| match extra.iter().find(|m| m.name == name) {
                Some(m) => {
                    debug_assert_eq!(m.unit, unit, "{name}: unit mismatch");
                    m.clone()
                }
                None => Metric::new(name, value, unit),
            },
        )
        .collect()
}
