//! Trace-driven memory-hierarchy simulation.
//!
//! Blocks launch in waves of `num_sms × blocks_per_sm` — the concurrently
//! resident set the occupancy model predicts. Within a wave each SM runs
//! its blocks through its private L1 (in parallel, one Rayon task per SM,
//! inline when the simulation itself runs on a sweep worker; L1 state
//! persists across waves), buffering the per-block L1-miss streams as
//! runs of whole sectors. The streams then feed the shared L2
//! sequentially, interleaved round-robin in chunks of L1 sectors to
//! approximate concurrent execution —
//! deterministically, so every simulation of the same workload produces
//! identical byte counts. L2 misses and write-backs accumulate into the
//! DRAM counters; a final flush accounts the write-back of the resident
//! output.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use brick_vm::{BlockClasses, KernelSpec, TraceGeometry, TraceSink};

use crate::arch::GpuArch;
use crate::cache::{Cache, CacheConfig, CacheStats, NextLevel, WritePolicy};
use crate::dram::{DramModel, PageStats};
use crate::introspect::{
    ClassTraffic, SimIntrospection, SmGroupTraffic, TrafficBucket, WaveSample,
};
use crate::timing::MemCounters;

/// How the simulator generates the per-block address streams.
///
/// Both modes produce **bit-identical** [`MemCounters`] and [`CacheStats`]
/// — `Fast` is a memoization, not an approximation — which is enforced by
/// the differential suite in `tests/fidelity.rs`. `Exact` is kept as the
/// oracle the fast path is verified against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimFidelity {
    /// Trace every launch block through the full VM dispatch path
    /// (per-lane callback dispatch, one IR decode per block).
    Exact,
    /// Compile one compact stream per block class
    /// ([`brick_vm::BlockClasses`]) and replay it with a per-block address
    /// rebase through the batched [`Cache::access_run`] entry. SMs whose
    /// whole launch schedule is a line-aligned translation of another
    /// SM's share one L1 simulation (see `plan_sm_groups`).
    #[default]
    Fast,
}

/// Group SMs whose entire launch schedules are translations of each
/// other, so the fast path simulates one private L1 per *group* instead
/// of one per SM.
///
/// Returns, for every SM, `(representative_sm, byte_shift)`. Soundness:
/// the cache model's set index is `(addr / line) % sets`, its tag is
/// `addr / line`, LRU is driven by access order only, and sector indices
/// are offsets within a line — so translating an access stream by a
/// multiple of the line size rotates the set mapping and shifts every
/// tag without changing any hit/miss/eviction decision. Two SMs whose
/// block sequences visit the same classes with pairwise-constant,
/// line-aligned base shifts therefore run byte-isomorphic L1
/// simulations: identical [`CacheStats`], and miss streams that differ
/// only by the shift. The grouping key (per-block class ids, base deltas
/// relative to the SM's first block, and the first base modulo the line
/// size) encodes exactly those conditions; SMs with irregular schedules
/// (e.g. Morton orderings) simply land in singleton groups and are
/// simulated directly.
fn plan_sm_groups(
    classes: &BlockClasses,
    num_blocks: usize,
    num_sms: usize,
    active: usize,
    line: usize,
) -> Vec<(usize, i64)> {
    let mut sched: Vec<Vec<usize>> = vec![Vec::new(); num_sms];
    let mut wave_start = 0;
    while wave_start < num_blocks {
        let wave_len = active.min(num_blocks - wave_start);
        for pos in 0..wave_len {
            sched[pos % num_sms].push(wave_start + pos);
        }
        wave_start += wave_len;
    }
    let line = line as i64;
    type GroupKey = (Vec<usize>, Vec<i64>, i64);
    let mut reps: HashMap<GroupKey, (usize, i64)> = HashMap::new();
    let mut plan = Vec::with_capacity(num_sms);
    for blocks in &sched {
        let cls: Vec<usize> = blocks.iter().map(|&b| classes.class_of(b)).collect();
        let deltas: Vec<i64> = blocks.iter().map(|&b| classes.block(b).1).collect();
        let d0 = deltas.first().copied().unwrap_or(0);
        let rel: Vec<i64> = deltas.iter().map(|d| d - d0).collect();
        let sm = plan.len();
        let (rep, rep_d0) = *reps
            .entry((cls, rel, d0.rem_euclid(line)))
            .or_insert((sm, d0));
        plan.push((rep, d0 - rep_d0));
    }
    plan
}

/// Longest schedule period, in waves, the fast path will search for.
/// Bounds the `find_wave_period` scan; the single rolling snapshot keeps
/// memory flat regardless of the period found.
const MAX_PERIOD_WAVES: usize = 128;

/// Completed full waves to simulate before taking the first steady-state
/// snapshot — enough for the L2 working set of typical paper-suite cells
/// to cycle through its cold start.
const PERIOD_WARMUP_WAVES: usize = 4;

/// A launch schedule that repeats, translated, every `waves` full waves.
#[derive(Clone, Copy)]
struct WavePeriod {
    /// Period length in full waves.
    waves: usize,
    /// Byte shift between corresponding blocks one period apart.
    shift: i64,
}

/// Find the smallest wave count `p` such that every block is the
/// translation, by one constant byte shift, of the block `p` waves
/// earlier (same class, base delta differing by exactly `shift`), with
/// `shift` aligned to every granularity the hierarchy's state depends on
/// (L1/L2 lines and the DRAM page). When such a period exists, the
/// simulated machine — per-SM L1s, shared L2, row-buffer state — evolves
/// periodically modulo translation once its caches shake out their cold
/// start, which `simulate_memory_opts` detects and exploits by
/// fast-forwarding whole periods. Lexicographic brick and array tile
/// orderings are periodic at the wave count that realigns with the
/// brick-grid plane; Morton orderings simply return `None` and are
/// simulated in full.
fn find_wave_period(
    classes: &BlockClasses,
    num_blocks: usize,
    active: usize,
    aligns: [i64; 3],
    max_period: usize,
) -> Option<WavePeriod> {
    let full_waves = num_blocks / active;
    for p in 1..=max_period {
        // A period only pays if there is room for the warmup, the
        // snapshot-to-check distance, and at least one skipped period.
        if full_waves < 2 * p + 1 {
            break;
        }
        let lag = p * active;
        let shift = classes.block(lag).1 - classes.block(0).1;
        if aligns.iter().any(|&a| shift % a != 0) {
            continue;
        }
        let ok = (lag..num_blocks).all(|b| {
            classes.class_of(b) == classes.class_of(b - lag)
                && classes.block(b).1 - classes.block(b - lag).1 == shift
        });
        if ok {
            return Some(WavePeriod { waves: p, shift });
        }
    }
    None
}

/// Machine state captured at a full-wave boundary: the stateful parts of
/// the hierarchy plus the counters accumulated so far, used to verify
/// steady state one period later and to compute the per-period counter
/// delta.
struct WaveSnapshot {
    /// Representative L1s, in `rep_ids` order.
    l1s: Vec<Cache>,
    l2: Cache,
    dram: DramModel,
    dram_read: u64,
    dram_write: u64,
    /// Attribution accumulators at the snapshot moment, captured only
    /// when introspecting, so the fast-forward can scale the per-class
    /// deltas with exactly the arithmetic it applies to the totals.
    intro: Option<IntroSnap>,
}

/// Introspection accumulators, live during an instrumented simulation.
struct IntroAcc {
    /// Per representative-slot, per-class L1 counter deltas from block
    /// walks (exact fidelity: one slot per SM; fast: one per SM group).
    l1: Vec<Vec<CacheStats>>,
    /// Per-class L2/DRAM/page deltas from the interleaved L2 feed (the
    /// `l1` field of these buckets stays zero; L1 is per-slot above).
    buckets: Vec<TrafficBucket>,
    /// The end-of-kernel flush, attributable to no single block.
    flush: TrafficBucket,
    /// Cumulative counters at sampled full-wave boundaries.
    timeline: Vec<WaveSample>,
    /// Sample every `stride` full waves (bounds the timeline size).
    stride: u64,
    wave_period: Option<u64>,
    waves_skipped: u64,
}

/// The scalable parts of [`IntroAcc`], snapshotted with [`WaveSnapshot`].
struct IntroSnap {
    l1: Vec<Vec<CacheStats>>,
    buckets: Vec<TrafficBucket>,
}

impl fmt::Display for SimFidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimFidelity::Exact => "exact",
            SimFidelity::Fast => "fast",
        })
    }
}

impl FromStr for SimFidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(SimFidelity::Exact),
            "fast" => Ok(SimFidelity::Fast),
            other => Err(format!("unknown fidelity '{other}' (exact|fast)")),
        }
    }
}

/// Tunables of the memory-hierarchy simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimOptions {
    /// Trace generation mode; see [`SimFidelity`].
    pub fidelity: SimFidelity,
    /// L1 sector transactions fed to the L2 per stream before rotating to
    /// the next block's stream (a miss run is split at the chunk
    /// boundary, so the L2 sees the same transaction order whatever the
    /// run lengths). Real blocks start staggered and retire continuously
    /// rather than running in lock-step, so a coarse interleave (about one
    /// block's compulsory footprint per turn) approximates the pipelined
    /// miss stream an L2 actually sees; a fine-grained rotation would
    /// overstate conflict misses on small L2s (MI250X) by maximising every
    /// reuse distance. The default of 1024 is part of the simulator's
    /// schema — changing it changes every simulated byte count.
    pub interleave_chunk: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            fidelity: SimFidelity::default(),
            interleave_chunk: 1024,
        }
    }
}

/// Adapter: kernel trace → L1 cache → buffered miss stream.
struct L1Sink<'a> {
    l1: &'a mut Cache,
    out: &'a mut Vec<NextLevel>,
}

impl TraceSink for L1Sink<'_> {
    fn load(&mut self, addr: u64, bytes: u32) {
        let out = &mut *self.out;
        self.l1.read(addr, bytes, &mut |t| out.push(t));
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        let out = &mut *self.out;
        self.l1.write(addr, bytes, &mut |t| out.push(t));
    }
}

/// Detailed result of a memory simulation.
#[derive(Debug, Clone, Default)]
pub struct MemoryReport {
    /// Merged per-SM L1 statistics.
    pub l1: CacheStats,
    /// L1 line size the statistics were collected with.
    pub l1_line: usize,
    /// L2 statistics.
    pub l2: CacheStats,
    /// HBM bytes read (L2 fills).
    pub dram_read_bytes: u64,
    /// HBM bytes written (L2 write-backs).
    pub dram_write_bytes: u64,
    /// Row-buffer locality of the HBM stream.
    pub pages: PageStats,
}

impl MemoryReport {
    /// Collapse into the counters the timing model consumes.
    ///
    /// The L1 volume is reported at *delivered-line* granularity (one
    /// line-visit costs one L1 cycle on real GPUs), which is what makes
    /// the many unaligned per-tap loads of the scalar kernels expensive
    /// relative to the aligned row loads of generated code (Fig. 4).
    pub fn counters(&self) -> MemCounters {
        MemCounters {
            l1_bytes: self.l1.delivered_bytes(self.l1_line),
            l2_bytes: self.l2.requested_bytes,
            dram_bytes: self.dram_read_bytes + self.dram_write_bytes,
            dram_read_bytes: self.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes,
            pages: self.pages,
        }
    }
}

pub(crate) fn l1_config(arch: &GpuArch) -> CacheConfig {
    CacheConfig {
        bytes: arch.l1_bytes,
        line: arch.l1_line,
        sector: arch.l1_sector,
        assoc: arch.l1_assoc,
        write: WritePolicy::ThroughNoAllocate,
    }
}

pub(crate) fn l2_config(arch: &GpuArch) -> CacheConfig {
    CacheConfig {
        bytes: arch.l2_bytes,
        line: arch.l2_line,
        sector: arch.l2_sector,
        assoc: arch.l2_assoc,
        write: WritePolicy::BackAllocate,
    }
}

/// Simulate the full launch of `spec` over `geom` on `arch` with
/// `blocks_per_sm` resident blocks per SM, under default [`SimOptions`]
/// (fast fidelity, interleave chunk 1024).
pub fn simulate_memory(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
) -> MemoryReport {
    simulate_memory_opts(spec, geom, arch, blocks_per_sm, &SimOptions::default())
}

/// [`simulate_memory`] with explicit [`SimOptions`].
pub fn simulate_memory_opts(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
    opts: &SimOptions,
) -> MemoryReport {
    simulate_memory_inner(spec, geom, arch, blocks_per_sm, opts, false).0
}

/// [`simulate_memory_opts`] with full attribution: besides the report,
/// returns a [`SimIntrospection`] breaking every counter down by block
/// class, SM group and wave. The attribution is computed with the same
/// integer arithmetic as the totals, so its per-class rows (plus the
/// flush bucket) sum to the report **bit-for-bit** in both fidelity
/// modes; the totals themselves are unchanged by introspection.
pub fn simulate_memory_introspect(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
    opts: &SimOptions,
) -> (MemoryReport, SimIntrospection) {
    let (report, intro) = simulate_memory_inner(spec, geom, arch, blocks_per_sm, opts, true);
    (report, intro.expect("introspection was requested"))
}

fn simulate_memory_inner(
    spec: &KernelSpec,
    geom: &TraceGeometry,
    arch: &GpuArch,
    blocks_per_sm: u32,
    opts: &SimOptions,
    introspect: bool,
) -> (MemoryReport, Option<SimIntrospection>) {
    let _span = brick_obs::span_cat(format!("memory-sim:{}", spec.name()), "memory-sim");
    let num_blocks = geom.num_blocks();
    let num_sms = arch.num_sms;
    let active = num_sms * blocks_per_sm.max(1) as usize;
    let interleave_chunk = opts.interleave_chunk.max(1);
    let replay = opts.fidelity == SimFidelity::Fast;

    // Fast fidelity compiles the per-class streams once, up front; the
    // wave loop then replays them with a per-block rebase. Introspection
    // needs the classes as attribution *labels* even in exact mode, where
    // every block still goes through the full VM dispatch path.
    let classes = (replay || introspect).then(|| {
        BlockClasses::compile(spec, geom).expect("kernel/geometry verified before simulation")
    });
    let replay_classes = if replay { classes.as_ref() } else { None };
    // One (representative_sm, byte_shift) entry per SM; members of a
    // group reuse the representative's L1 simulation. Exact mode (and
    // irregular schedules) degenerate to every SM representing itself.
    let plan: Option<Vec<(usize, i64)>> =
        replay_classes.map(|c| plan_sm_groups(c, num_blocks, num_sms, active, arch.l1_line));
    if let Some(c) = replay_classes {
        brick_obs::counter_add("sim.classes.launches", 1);
        brick_obs::counter_add("sim.classes.classes", c.num_classes() as u64);
        brick_obs::counter_add("sim.classes.blocks", c.num_blocks() as u64);
        if let Some(p) = &plan {
            let groups = p
                .iter()
                .enumerate()
                .filter(|&(sm, &(r, _))| sm == r)
                .count();
            brick_obs::counter_add("sim.classes.sm_groups", groups as u64);
        }
    }
    let is_rep = |sm: usize| plan.as_ref().is_none_or(|p| p[sm].0 == sm);
    let rep_ids: Vec<usize> = match &plan {
        Some(p) => p
            .iter()
            .enumerate()
            .filter(|&(sm, &(rep, _))| sm == rep)
            .map(|(sm, _)| sm)
            .collect(),
        None => Vec::new(),
    };
    // Attribution slot per SM: its position in `rep_ids` under a grouping
    // plan, its own id otherwise (each SM its own slot in exact mode).
    let (slot_of, num_slots): (Vec<usize>, usize) = match &plan {
        Some(_) => {
            let mut slot = vec![usize::MAX; num_sms];
            for (i, &sm) in rep_ids.iter().enumerate() {
                slot[sm] = i;
            }
            (slot, rep_ids.len())
        }
        None => ((0..num_sms).collect(), num_sms),
    };

    let l1_line = arch.l1_line as i64;
    let l2_line = arch.l2_line as i64;
    // Wave-periodic fast-forward (fast mode only): if the schedule repeats
    // under translation every `period.waves` waves, detect the moment the
    // hierarchy's state does too, then account all remaining full periods
    // at once. `None` (exact mode, aperiodic orderings, or short launches)
    // simulates every wave.
    let full_waves = num_blocks / active;
    let mut period = replay_classes.and_then(|c| {
        find_wave_period(
            c,
            num_blocks,
            active,
            [l1_line, l2_line, crate::dram::PAGE_BYTES as i64],
            MAX_PERIOD_WAVES,
        )
    });
    if let Some(pd) = &period {
        brick_obs::counter_add("sim.classes.wave_period", pd.waves as u64);
    }
    let mut snapshot: Option<(usize, WaveSnapshot)> = None;
    let mut intro: Option<IntroAcc> = introspect.then(|| {
        let nc = classes.as_ref().map_or(1, |c| c.num_classes().max(1));
        IntroAcc {
            l1: vec![vec![CacheStats::default(); nc]; num_slots],
            buckets: vec![TrafficBucket::default(); nc],
            flush: TrafficBucket::default(),
            timeline: Vec::new(),
            stride: (full_waves / 256).max(1) as u64,
            wave_period: period.as_ref().map(|pd| pd.waves as u64),
            waves_skipped: 0,
        }
    });

    let mut l1s: Vec<Cache> = (0..num_sms).map(|_| Cache::new(l1_config(arch))).collect();
    let mut l2 = Cache::new(l2_config(arch));
    let mut dram = DramModel::new();
    let mut dram_read: u64 = 0;
    let mut dram_write: u64 = 0;

    let mut wave_start = 0;
    while wave_start < num_blocks {
        let wave_len = active.min(num_blocks - wave_start);
        // Each representative SM simulates its blocks of the wave through
        // its L1; grouped SMs skip the cache walk entirely and later reuse
        // the representative's miss streams under their shift. When
        // introspecting, each block also carries the L1 counter delta its
        // walk caused (zero otherwise).
        let per_sm: Vec<Vec<(usize, Vec<NextLevel>, CacheStats)>> = l1s
            .par_iter_mut()
            .enumerate()
            .map(|(sm, l1)| {
                if !is_rep(sm) {
                    return Vec::new();
                }
                let mut out = Vec::new();
                let mut pos = sm;
                while pos < wave_len {
                    let block = wave_start + pos;
                    let mut misses = Vec::new();
                    let before = introspect.then_some(l1.stats);
                    match replay_classes {
                        Some(c) => {
                            let (events, delta) = c.block(block);
                            l1.access_run(
                                events.iter().map(|e| {
                                    (e.addr.wrapping_add_signed(delta), e.bytes, e.is_store)
                                }),
                                &mut |t| misses.push(t),
                            );
                        }
                        None => {
                            let mut sink = L1Sink {
                                l1,
                                out: &mut misses,
                            };
                            spec.trace_block(geom, block, &mut sink)
                                .expect("kernel/geometry verified before simulation");
                        }
                    }
                    let delta = before.map(|b| l1.stats.diff(&b)).unwrap_or_default();
                    out.push((pos, misses, delta));
                    pos += num_sms;
                }
                out
            })
            .collect();

        // Attribute each walked block's L1 delta to its class, on the SM's
        // slot (per-member scaling happens once at the end).
        if let (Some(acc), Some(labels)) = (intro.as_mut(), classes.as_ref()) {
            for (sm, sm_blocks) in per_sm.iter().enumerate() {
                for (pos, _, delta) in sm_blocks {
                    acc.l1[slot_of[sm]][labels.class_of(wave_start + pos)].merge(delta);
                }
            }
        }

        // Order the wave's miss streams by block position. Grouped SMs
        // view their representative's streams through their byte shift —
        // no materialised copy.
        let mut streams: Vec<(&[NextLevel], i64)> = vec![(&[][..], 0); wave_len];
        match &plan {
            None => {
                for sm_streams in &per_sm {
                    for (pos, stream, _) in sm_streams {
                        streams[*pos] = (stream.as_slice(), 0);
                    }
                }
            }
            Some(p) => {
                for (sm, &(rep, shift)) in p.iter().enumerate() {
                    for (j, (rep_pos, stream, _)) in per_sm[rep].iter().enumerate() {
                        let pos = sm + j * num_sms;
                        debug_assert_eq!(*rep_pos, rep + j * num_sms);
                        // Equal group keys force equal schedule lengths, so
                        // a member has a block in this wave exactly when its
                        // representative does.
                        assert!(pos < wave_len, "SM group schedules diverged");
                        streams[pos] = (stream.as_slice(), shift);
                    }
                }
            }
        }

        // Feed the shared L2: round-robin chunks of `interleave_chunk` L1
        // sectors across the wave's blocks, splitting a run at a chunk
        // boundary. Each chunk belongs to exactly one block, so when
        // introspecting, the L2/DRAM/page deltas it causes are attributed
        // to that block's class by differencing the counters around the
        // chunk.
        let l1_sector_shift = arch.l1_sector.trailing_zeros();
        let run_sectors = |t: &NextLevel| (t.bytes >> l1_sector_shift) as usize;
        // Per stream: (next run, sectors of it already fed).
        let mut cursors = vec![(0usize, 0usize); wave_len];
        let mut remaining: usize = streams
            .iter()
            .map(|(s, _)| s.iter().map(run_sectors).sum::<usize>())
            .sum();
        while remaining > 0 {
            for (pos, (&(stream, shift), cursor)) in
                streams.iter().zip(cursors.iter_mut()).enumerate()
            {
                let (mut run, mut fed) = *cursor;
                if run == stream.len() {
                    continue;
                }
                let before =
                    introspect.then_some((l2.stats, dram_read, dram_write, dram.hits, dram.misses));
                let mut budget = interleave_chunk;
                let mut lower = |n: NextLevel| {
                    dram.access_sectors(n.addr, n.bytes, arch.l2_sector);
                    if n.is_write {
                        dram_write += n.bytes as u64;
                    } else {
                        dram_read += n.bytes as u64;
                    }
                };
                while budget > 0 && run < stream.len() {
                    let t = stream[run];
                    let take = (run_sectors(&t) - fed).min(budget);
                    let piece = NextLevel {
                        addr: t.addr.wrapping_add_signed(shift) + ((fed as u64) << l1_sector_shift),
                        bytes: (take << l1_sector_shift) as u32,
                        is_write: t.is_write,
                    };
                    l2.access_sectors(piece, arch.l1_sector as u32, &mut lower);
                    budget -= take;
                    fed += take;
                    if fed == run_sectors(&t) {
                        run += 1;
                        fed = 0;
                    }
                }
                if let (Some(acc), Some((s0, r0, w0, h0, m0))) = (intro.as_mut(), before) {
                    let class = classes.as_ref().map_or(0, |c| c.class_of(wave_start + pos));
                    let b = &mut acc.buckets[class];
                    b.l2.merge(&l2.stats.diff(&s0));
                    b.dram_read_bytes += dram_read - r0;
                    b.dram_write_bytes += dram_write - w0;
                    b.page_hits += dram.hits - h0;
                    b.page_misses += dram.misses - m0;
                }
                remaining -= interleave_chunk - budget;
                *cursor = (run, fed);
            }
        }
        wave_start += wave_len;

        // Timeline sample at full-wave boundaries (strided to bound size).
        if let Some(acc) = intro.as_mut() {
            if wave_len == active {
                let completed = (wave_start / active) as u64;
                if completed.is_multiple_of(acc.stride) || completed == full_waves as u64 {
                    acc.timeline.push(WaveSample {
                        wave: completed,
                        fast_forwarded: false,
                        l2_requested_bytes: l2.stats.requested_bytes,
                        dram_read_bytes: dram_read,
                        dram_write_bytes: dram_write,
                        page_hits: dram.hits,
                        page_misses: dram.misses,
                    });
                }
            }
        }

        // Steady-state detection and fast-forward at full-wave boundaries.
        if let Some(pd) = period {
            if wave_len == active {
                let completed = wave_start / active;
                let mut skipped = false;
                let mut checked = false;
                if let Some((at, snap)) = &snapshot {
                    if completed == at + pd.waves {
                        checked = true;
                        let e_l2 = l2.equiv_translated(&snap.l2, pd.shift / l2_line);
                        let e_dram = dram.equiv_translated(
                            &snap.dram,
                            pd.shift / crate::dram::PAGE_BYTES as i64,
                        );
                        let e_l1 = rep_ids.iter().enumerate().all(|(idx, &sm)| {
                            l1s[sm].equiv_translated(&snap.l1s[idx], pd.shift / l1_line)
                        });
                        let equiv = e_l2 && e_dram && e_l1;
                        if equiv {
                            // Each of the next `k` periods provably repeats
                            // this period's counter deltas; account them and
                            // translate the state past them.
                            let k = ((full_waves - completed) / pd.waves) as u64;
                            if k > 0 {
                                // Scale the attribution with the same
                                // verified per-period deltas the totals
                                // get below, and synthesize the timeline
                                // samples the skipped periods would have
                                // produced (pre-scale cumulative values
                                // plus j periods' worth of delta).
                                if let Some(acc) = intro.as_mut() {
                                    let isnap = snap
                                        .intro
                                        .as_ref()
                                        .expect("introspecting snapshots carry intro state");
                                    let d_l2 =
                                        l2.stats.requested_bytes - snap.l2.stats.requested_bytes;
                                    let d_r = dram_read - snap.dram_read;
                                    let d_w = dram_write - snap.dram_write;
                                    let d_h = dram.hits - snap.dram.hits;
                                    let d_m = dram.misses - snap.dram.misses;
                                    for j in 1..=k {
                                        let wave = completed as u64 + j * pd.waves as u64;
                                        if wave.is_multiple_of(acc.stride) || j == k {
                                            acc.timeline.push(WaveSample {
                                                wave,
                                                fast_forwarded: true,
                                                l2_requested_bytes: l2.stats.requested_bytes
                                                    + d_l2 * j,
                                                dram_read_bytes: dram_read + d_r * j,
                                                dram_write_bytes: dram_write + d_w * j,
                                                page_hits: dram.hits + d_h * j,
                                                page_misses: dram.misses + d_m * j,
                                            });
                                        }
                                    }
                                    for (row, srow) in acc.l1.iter_mut().zip(&isnap.l1) {
                                        for (st, s0) in row.iter_mut().zip(srow) {
                                            let d = st.diff(s0);
                                            st.add_scaled(&d, k);
                                        }
                                    }
                                    for (b, s0) in acc.buckets.iter_mut().zip(&isnap.buckets) {
                                        let d = b.diff(s0);
                                        b.add_scaled(&d, k);
                                    }
                                    acc.waves_skipped += k * pd.waves as u64;
                                }
                                for (idx, &sm) in rep_ids.iter().enumerate() {
                                    let d = l1s[sm].stats.diff(&snap.l1s[idx].stats);
                                    l1s[sm].stats.add_scaled(&d, k);
                                }
                                let d = l2.stats.diff(&snap.l2.stats);
                                l2.stats.add_scaled(&d, k);
                                dram_read += (dram_read - snap.dram_read) * k;
                                dram_write += (dram_write - snap.dram_write) * k;
                                dram.hits += (dram.hits - snap.dram.hits) * k;
                                dram.misses += (dram.misses - snap.dram.misses) * k;
                                let shift = pd.shift * k as i64;
                                for &sm in &rep_ids {
                                    l1s[sm].translate(shift / l1_line);
                                }
                                l2.translate(shift / l2_line);
                                dram.translate(shift / crate::dram::PAGE_BYTES as i64);
                                wave_start += k as usize * pd.waves * active;
                                brick_obs::counter_add(
                                    "sim.classes.waves_skipped",
                                    k * pd.waves as u64,
                                );
                                skipped = true;
                            }
                        }
                    }
                }
                if skipped {
                    period = None;
                    snapshot = None;
                } else if (checked || snapshot.is_none())
                    && wave_start / active >= PERIOD_WARMUP_WAVES.min(full_waves - 2 * pd.waves)
                    && wave_start / active + 2 * pd.waves <= full_waves
                {
                    // First eligible snapshot, or roll it forward after a
                    // failed check (the state had not settled yet).
                    snapshot = Some((
                        wave_start / active,
                        WaveSnapshot {
                            l1s: rep_ids.iter().map(|&sm| l1s[sm].clone()).collect(),
                            l2: l2.clone(),
                            dram: dram.clone(),
                            dram_read,
                            dram_write,
                            intro: intro.as_ref().map(|acc| IntroSnap {
                                l1: acc.l1.clone(),
                                buckets: acc.buckets.clone(),
                            }),
                        },
                    ));
                }
            }
        }
    }

    // Account the resident dirty output. No single block causes these
    // write-backs, so the attribution gives them their own bucket.
    let flush_before = introspect.then_some((l2.stats, dram_write, dram.hits, dram.misses));
    l2.flush(&mut |n| {
        dram.access_sectors(n.addr, n.bytes, arch.l2_sector);
        if n.is_write {
            dram_write += n.bytes as u64;
        }
    });
    if let (Some(acc), Some((s0, w0, h0, m0))) = (intro.as_mut(), flush_before) {
        acc.flush.l2 = l2.stats.diff(&s0);
        acc.flush.dram_write_bytes = dram_write - w0;
        acc.flush.page_hits = dram.hits - h0;
        acc.flush.page_misses = dram.misses - m0;
    }

    // Every SM contributes its L1 statistics; a grouped SM's are by
    // construction identical to its representative's, so merge those.
    let mut l1_total = CacheStats::default();
    match &plan {
        None => {
            for l1 in &l1s {
                l1_total.merge(&l1.stats);
            }
        }
        Some(p) => {
            for &(rep, _) in p {
                l1_total.merge(&l1s[rep].stats);
            }
        }
    }

    // Assemble the introspection: per-class rows get each slot's L1
    // deltas scaled by the group's member count — the same weighting the
    // total merge above applies — so class sums reproduce the totals
    // exactly.
    let introspection = intro.map(|acc| {
        let labels = classes
            .as_ref()
            .expect("classes are compiled when introspecting");
        let nc = labels.num_classes();
        let mut blocks_per_class = vec![0u64; nc];
        for b in 0..num_blocks {
            blocks_per_class[labels.class_of(b)] += 1;
        }
        let (slot_sms, members): (Vec<usize>, Vec<u64>) = match &plan {
            Some(p) => {
                let mut m = vec![0u64; rep_ids.len()];
                for &(rep, _) in p {
                    m[slot_of[rep]] += 1;
                }
                (rep_ids.clone(), m)
            }
            None => ((0..num_sms).collect(), vec![1; num_sms]),
        };
        let class_rows: Vec<ClassTraffic> = (0..nc)
            .map(|c| {
                let mut t = acc.buckets[c].clone();
                for (slot, row) in acc.l1.iter().enumerate() {
                    t.l1.add_scaled(&row[c], members[slot]);
                }
                ClassTraffic {
                    class: c as u64,
                    blocks: blocks_per_class[c],
                    traffic: t,
                }
            })
            .collect();
        let sm_groups: Vec<SmGroupTraffic> = slot_sms
            .iter()
            .enumerate()
            .map(|(slot, &sm)| SmGroupTraffic {
                representative: sm as u64,
                members: members[slot],
                l1: l1s[sm].stats,
            })
            .collect();
        SimIntrospection {
            fidelity: opts.fidelity,
            num_blocks: num_blocks as u64,
            num_classes: nc as u64,
            l1_line: arch.l1_line as u64,
            wave_period: acc.wave_period,
            waves_skipped: acc.waves_skipped,
            classes: class_rows,
            flush: acc.flush,
            sm_groups,
            timeline: acc.timeline,
        }
    });

    let report = MemoryReport {
        l1: l1_total,
        l1_line: arch.l1_line,
        l2: l2.stats,
        dram_read_bytes: dram_read,
        dram_write_bytes: dram_write,
        pages: PageStats {
            hits: dram.hits,
            misses: dram.misses,
        },
    };
    (report, introspection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick_codegen::{generate, CodegenOptions, LayoutKind};
    use brick_core::{BrickDecomp, BrickDims, BrickNav, BrickOrdering};
    use brick_dsl::shape::StencilShape;
    use brick_vm::ScalarKernel;
    use std::sync::Arc;

    fn brick_geom(n: usize, width: usize, radius: usize) -> TraceGeometry {
        let d = Arc::new(BrickDecomp::new(
            (n.max(width), n, n),
            BrickDims::for_simd_width(width),
            radius,
            BrickOrdering::Lexicographic,
        ));
        TraceGeometry::brick(Arc::new(BrickNav::new(d)))
    }

    fn vector_spec(shape: StencilShape, layout: LayoutKind, width: usize) -> KernelSpec {
        let st = shape.stencil();
        let b = st.default_bindings();
        KernelSpec::Vector(generate(&st, &b, layout, width, CodegenOptions::default()).unwrap())
    }

    #[test]
    fn bricks_codegen_dram_close_to_compulsory() {
        // 64^3 domain on a small-L2 architecture model: interior reads +
        // halo + writes; DRAM must be ≥ compulsory and ≤ ~2.5x (the ghost
        // shell and halo refetches add overhead at this tiny size).
        let shape = StencilShape::star(1);
        let spec = vector_spec(shape, LayoutKind::Brick, 32);
        let geom = brick_geom(64, 32, 1);
        let arch = GpuArch::a100();
        let rep = simulate_memory(&spec, &geom, &arch, 8);
        let compulsory = geom.compulsory_bytes();
        let dram = rep.dram_read_bytes + rep.dram_write_bytes;
        assert!(dram >= compulsory, "{dram} < {compulsory}");
        assert!(
            (dram as f64) < 2.5 * compulsory as f64,
            "dram {dram} vs compulsory {compulsory}"
        );
    }

    #[test]
    fn hierarchy_bytes_monotone() {
        // L1 requested ≥ L2 requested ≥ DRAM (stencils reuse data).
        let spec = vector_spec(StencilShape::star(2), LayoutKind::Brick, 32);
        let geom = brick_geom(64, 32, 2);
        let arch = GpuArch::a100();
        let rep = simulate_memory(&spec, &geom, &arch, 8);
        assert!(rep.l1.requested_bytes >= rep.l2.requested_bytes);
        assert!(rep.l2.requested_bytes >= rep.dram_read_bytes + rep.dram_write_bytes);
    }

    #[test]
    fn writes_match_output_size_for_vector_kernels() {
        // full-row stores: write-back traffic equals the interior exactly
        let spec = vector_spec(StencilShape::star(1), LayoutKind::Brick, 32);
        let geom = brick_geom(64, 32, 1);
        let arch = GpuArch::a100();
        let rep = simulate_memory(&spec, &geom, &arch, 8);
        assert_eq!(rep.dram_write_bytes, geom.interior_points() * 8);
    }

    #[test]
    fn scalar_array_moves_more_l1_bytes_than_codegen() {
        let shape = StencilShape::cube(2);
        let st = shape.stencil();
        let b = st.default_bindings();
        let scalar = KernelSpec::Scalar(ScalarKernel::new(&st, &b, LayoutKind::Array, 32).unwrap());
        let codegen = vector_spec(shape, LayoutKind::Array, 32);
        let geom = TraceGeometry::array((64, 64, 64), 2, BrickDims::for_simd_width(32));
        let arch = GpuArch::a100();
        let rs = simulate_memory(&scalar, &geom, &arch, 4);
        let rc = simulate_memory(&codegen, &geom, &arch, 8);
        assert!(
            rs.l1.requested_bytes > 5 * rc.l1.requested_bytes,
            "scalar L1 {} vs codegen L1 {}",
            rs.l1.requested_bytes,
            rc.l1.requested_bytes
        );
    }

    #[test]
    fn determinism() {
        let spec = vector_spec(StencilShape::star(2), LayoutKind::Brick, 32);
        let geom = brick_geom(64, 32, 2);
        let arch = GpuArch::a100();
        let a = simulate_memory(&spec, &geom, &arch, 8).counters();
        let b = simulate_memory(&spec, &geom, &arch, 8).counters();
        assert_eq!(a, b);
    }

    #[test]
    fn fine_interleave_chunks_split_runs_at_sector_boundaries() {
        // A100 L1 runs carry up to 4 sectors; chunks of 1 and 3 L1
        // sectors split them. The pinned counters are those of the
        // per-sector L2 feed (one transaction per L1 sector), in both
        // fidelities.
        let spec = vector_spec(StencilShape::star(1), LayoutKind::Brick, 32);
        let geom = brick_geom(64, 32, 1);
        let arch = GpuArch::a100();
        for (chunk, hits, misses) in [(1, 56292, 87068), (3, 93668, 49692)] {
            for fidelity in [SimFidelity::Fast, SimFidelity::Exact] {
                let opts = SimOptions {
                    fidelity,
                    interleave_chunk: chunk,
                };
                let r = simulate_memory_opts(&spec, &geom, &arch, 8, &opts);
                let what = format!("chunk {chunk} {fidelity}");
                assert_eq!(
                    r.l2,
                    CacheStats {
                        accesses: 212992,
                        requested_bytes: 6815744,
                        hit_sectors: 69632,
                        miss_sectors: 143360,
                        fill_bytes: 2490368,
                        writeout_bytes: 2097152,
                        line_visits: 212992,
                    },
                    "{what}"
                );
                assert_eq!((r.dram_read_bytes, r.dram_write_bytes), (2490368, 2097152));
                assert_eq!((r.pages.hits, r.pages.misses), (hits, misses), "{what}");
            }
        }
    }

    #[test]
    fn counters_roundtrip() {
        let rep = MemoryReport {
            dram_read_bytes: 10,
            dram_write_bytes: 5,
            ..Default::default()
        };
        let c = rep.counters();
        assert_eq!(c.dram_bytes, 15);
        assert_eq!(c.dram_read_bytes, 10);
    }
}
