//! Host context: the stamp every result carries, peak RSS, the process
//! CPU clock, and a copy bandwidth probe for the native-execution
//! roofline fraction.

use std::time::Instant;

use brick_vm::{resolve_with, CpuFeatures, ExecutionMode};
use rayon::prelude::*;

/// Everything that makes two runs comparable. Results with different
/// stamps must not be compared silently; [`Stamp::id`] condenses it.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// Worker threads the workload uses.
    pub threads: usize,
    /// Detected CPU SIMD features.
    pub cpu_features: String,
    /// Backend `ExecutionMode::Auto` dispatches to on this host.
    pub backend: String,
    /// Last-level (L3) cache size in KiB, 0 when unknown.
    pub l3_kib: u64,
    /// Commit of the measured tree, `unknown` when the working directory
    /// is not a git checkout.
    pub git_sha: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// The run's seed.
    pub seed: u64,
}

impl Stamp {
    /// Stamp the running host for a run with `seed` on `threads` workers.
    pub fn detect(threads: usize, seed: u64) -> Stamp {
        let features = CpuFeatures::detect();
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            cpu_features: features.to_string(),
            backend: resolve_with(ExecutionMode::Auto, features)
                .map_or_else(|e| format!("unavailable ({e})"), |b| b.to_string()),
            l3_kib: l3_kib().unwrap_or(0),
            git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            seed,
        }
    }

    /// Hash of every field except the seed: equal ids mean the runs'
    /// figures are comparable.
    pub fn id(&self) -> u64 {
        brick_obs::manifest::fnv1a64(
            format!(
                "{}|{}|{}|{}|{}|{}|{}",
                self.nproc,
                self.threads,
                self.cpu_features,
                self.backend,
                self.l3_kib,
                self.git_sha,
                self.rustc
            )
            .as_bytes(),
        )
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        let s = |v: &str| serde_json::to_string(&v.to_string()).expect("strings serialize");
        format!(
            "{{\"stamp_id\":\"{:016x}\",\"nproc\":{},\"threads\":{},\"cpu_features\":{},\"backend\":{},\"l3_kib\":{},\"git_sha\":{},\"rustc\":{},\"seed\":{}}}",
            self.id(),
            self.nproc,
            self.threads,
            s(&self.cpu_features),
            s(&self.backend),
            self.l3_kib,
            s(&self.git_sha),
            s(&self.rustc),
            self.seed
        )
    }
}

/// Commit of the checkout the run starts in. Only `./.git` is consulted:
/// the run must not read outside its checkout, and the lookup of
/// `brick_obs` would otherwise walk up into parent directories.
fn git_sha() -> Option<String> {
    std::path::Path::new(".git")
        .exists()
        .then(brick_obs::manifest::git_sha)
        .flatten()
}

/// Size of the first level-3 cache sysfs lists for CPU 0, in KiB.
fn l3_kib() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let level = std::fs::read_to_string(entry.path().join("level")).ok();
        if level.as_deref().map(str::trim) == Some("3") {
            let size = std::fs::read_to_string(entry.path().join("size")).ok()?;
            return size.trim().trim_end_matches('K').parse().ok();
        }
    }
    None
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// CPU time this process has used, user + system, summed over every
/// thread (exited ones included), in seconds. Unlike wall time it leaves
/// out the time the hypervisor of a shared host steals from the virtual
/// CPUs. Linux on a 64-bit target (`time_t` and `long` are `i64`).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Run `f`; returns its result with the wall and CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (t, cpu) = (Instant::now(), cpu_seconds());
    let value = f();
    (value, t.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// Median copy bandwidth (GB/s, bytes read + bytes written) of `src`
/// into `dst` in 64 KiB chunks on the calling thread's installed pool.
pub fn copy_gbs(src: &[f64], dst: &mut [f64], reps: usize) -> f64 {
    assert_eq!(src.len(), dst.len(), "copy buffers differ in length");
    const CHUNK: usize = 8192;
    let bytes = 2.0 * std::mem::size_of_val(src) as f64;
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        dst.par_chunks_mut(CHUNK).enumerate().for_each(|(i, d)| {
            d.copy_from_slice(&src[i * CHUNK..i * CHUNK + d.len()]);
        });
        rates.push(bytes / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::median(&rates)
}
