//! # perfbench
//!
//! The repository benchmark. One process runs one named workload for
//! one seed and reports end-to-end metrics (untraced run) or per-layer
//! metrics from a replay that calls each layer's public functions from
//! this crate and times those calls (traced run). Every run checks the
//! pipeline's outputs against independent oracles outside the timed
//! region; any mismatch fails the run.
//!
//! | workload | what it drives |
//! |---|---|
//! | [`Workload::PaperSweep`] | `experiments::sweep_with` + `temporal_sweep_with` |
//! | [`Workload::TuneA100`] | `brick_tuner::tune_matrix`, cold then warm |
//! | [`Workload::ExecStar7`] | native star-7 launches on bricks |
//!
//! See `README.md` next to this crate for the workload rationale and the
//! layer → metric → workload table.

pub mod exec;
pub mod host;
pub mod layers;
pub mod oracle;
pub mod paper;
pub mod report;
pub mod tune;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use oracle::Checks;
pub use report::{Metric, Outcome};

/// Worker threads for every workload: the measuring host's 2 cores.
pub const JOBS: usize = 2;

/// Where runs put their cache directories, relative to the working
/// directory (the checkout root).
pub const WORK_ROOT: &str = ".perfbench_work";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper matrix and the temporal sweep at 64³, cold, repeated.
    PaperSweep,
    /// The default tuning space, six stencils, A100/CUDA at 32³.
    TuneA100,
    /// Native star-7 T=1 and fused T=2 launches on bricks.
    ExecStar7,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::TuneA100,
        Workload::ExecStar7,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::TuneA100 => "tune-a100",
            Workload::ExecStar7 => "exec-star7",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{s}` (one of {})", names.join(", "))
            })
    }
}

/// Problem sizes. `full` is what the benchmark measures; `tiny` keeps
/// every code path but shrinks the work so the smoke tests run in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// Smoke-test configuration.
    Tiny,
}

/// One run's request.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the input field and every sampled oracle choice.
    pub seed: u64,
    /// Minimum measured time. One-shot cold passes count toward it;
    /// repeated measurements (warm passes, launches) continue until it
    /// is reached.
    pub seconds: f64,
    /// Run the per-layer replay instead of reporting end-to-end metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Directory for this run's cache directories (created, then removed).
    pub work_dir: PathBuf,
}

/// Run one workload end to end: measure, check, report.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    // a stale directory of an earlier process with the same id would
    // make the "cold" caches warm
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let outcome = match args.workload {
        Workload::PaperSweep => paper::run(args),
        Workload::TuneA100 => tune::run(args),
        Workload::ExecStar7 => exec::run(args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Some(parent) = args.work_dir.parent() {
        // removes the shared root only once no other run is using it
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

/// A fresh, empty directory under the run's work dir.
pub fn fresh_dir(args: &RunArgs, name: &str) -> Result<PathBuf, String> {
    let dir = args.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A pool of `threads` workers; every workload's load runs on
/// `pool(JOBS)`.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction is infallible")
}

/// Memo of one lazily computed value per key, shared by parallel cells:
/// each slot is filled at most once even under races, as in the
/// pipeline's own runners.
pub type Slots<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The slot for `key`, created empty on first use.
pub fn slot<K: std::hash::Hash + Eq, V>(map: &Slots<K, V>, key: K) -> Arc<OnceLock<V>> {
    Arc::clone(
        map.lock()
            .expect("memo lock poisoned")
            .entry(key)
            .or_default(),
    )
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Deterministic generator for seed-chosen inputs and samples
/// (SplitMix64: every seed, including 0, gives a full-period stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ brick_obs::manifest::fnv1a64(stream.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = Vec::new();
        while picked.len() < k.min(n) {
            let i = self.below(n);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked
    }
}

/// Time a set-up routine `reps` times and return the last result with
/// every repetition's wall time (the reported `setup_s` is a median of
/// such walls: everything the process does before a timed call, except
/// parsing its arguments).
pub fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // drop the previous result first so repeated set-up never holds
        // two copies of a large grid
        drop(last.take());
        let t = Instant::now();
        let value = f()?;
        walls.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one repetition"), walls))
}
