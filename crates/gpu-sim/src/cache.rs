//! Sectored, set-associative cache model.
//!
//! Matches the structure GPU profilers expose: lines carry per-sector
//! valid/dirty bits, fills happen at sector granularity, LRU replacement
//! within a set. Two write policies cover the hierarchy:
//!
//! * GPU L1s are **write-through, no-write-allocate** for global stores;
//! * the device L2 is **write-back, write-allocate**, except that a write
//!   covering a whole sector allocates without fetching (which is why the
//!   full-row stores of the generated kernels reach the theoretical
//!   2-bytes-per-point minimum, §5.2.1).
//!
//! Transactions are handled a line at a time, and every transaction to the
//! next level is reported through a callback as a run of whole sectors
//! inside one line, so the hierarchy can be composed without
//! materialising per-sector miss streams.

use serde::{Deserialize, Serialize};

/// Write policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Stores pass to the next level immediately and do not allocate.
    ThroughNoAllocate,
    /// Stores allocate and mark sectors dirty; dirty sectors are written
    /// back on eviction (or flush).
    BackAllocate,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Line size in bytes (tag granularity).
    pub line: usize,
    /// Sector size in bytes (fill granularity; `line % sector == 0`).
    pub sector: usize,
    /// Associativity (lines per set).
    pub assoc: usize,
    /// Write policy.
    pub write: WritePolicy,
}

impl CacheConfig {
    fn num_sets(&self) -> usize {
        let sets = self.bytes / (self.line * self.assoc);
        assert!(sets > 0, "cache smaller than one set");
        sets
    }
}

/// Byte counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Transactions presented to this level.
    pub accesses: u64,
    /// Bytes requested of this level, rounded to touched sectors — the
    /// "data movement" a profiler reports for the level.
    pub requested_bytes: u64,
    /// Sector hits.
    pub hit_sectors: u64,
    /// Sector misses (fills from the next level).
    pub miss_sectors: u64,
    /// Bytes filled from the next level.
    pub fill_bytes: u64,
    /// Bytes written to the next level (write-through traffic or dirty
    /// write-backs).
    pub writeout_bytes: u64,
    /// Cache lines visited, counting one per distinct line per request —
    /// the "wavefronts" a GPU L1 serialises on (one line per cycle).
    pub line_visits: u64,
}

impl CacheStats {
    /// Sector hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_sectors + self.miss_sectors;
        if total == 0 {
            return 0.0;
        }
        self.hit_sectors as f64 / total as f64
    }

    /// Total bytes exchanged with the next level.
    pub fn next_level_bytes(&self) -> u64 {
        self.fill_bytes + self.writeout_bytes
    }

    /// Bytes the cache *delivers* at line granularity
    /// (`line_visits × line size`) — the bandwidth-relevant volume for a
    /// one-line-per-cycle data path.
    pub fn delivered_bytes(&self, line: usize) -> u64 {
        self.line_visits * line as u64
    }

    /// Accumulate another stats block (used to merge per-SM L1s).
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.requested_bytes += other.requested_bytes;
        self.hit_sectors += other.hit_sectors;
        self.miss_sectors += other.miss_sectors;
        self.fill_bytes += other.fill_bytes;
        self.writeout_bytes += other.writeout_bytes;
        self.line_visits += other.line_visits;
    }

    /// Field-wise difference `self − earlier` of two monotone counter
    /// snapshots (`earlier` must be an older snapshot of the same cache).
    pub fn diff(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            requested_bytes: self.requested_bytes - earlier.requested_bytes,
            hit_sectors: self.hit_sectors - earlier.hit_sectors,
            miss_sectors: self.miss_sectors - earlier.miss_sectors,
            fill_bytes: self.fill_bytes - earlier.fill_bytes,
            writeout_bytes: self.writeout_bytes - earlier.writeout_bytes,
            line_visits: self.line_visits - earlier.line_visits,
        }
    }

    /// Add `delta` scaled by `k` — the fast-forward step of the wave-
    /// periodic simulation, which accounts `k` skipped periods that each
    /// provably contribute `delta`.
    pub fn add_scaled(&mut self, delta: &CacheStats, k: u64) {
        self.accesses += delta.accesses * k;
        self.requested_bytes += delta.requested_bytes * k;
        self.hit_sectors += delta.hit_sectors * k;
        self.miss_sectors += delta.miss_sectors * k;
        self.fill_bytes += delta.fill_bytes * k;
        self.writeout_bytes += delta.writeout_bytes * k;
        self.line_visits += delta.line_visits * k;
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: u32,
    dirty: u32,
    last_use: u64,
}

/// One cache level.
///
/// Transactions are handled a line at a time: each touched line costs one
/// tag lookup, and the per-sector hit, miss, fill and dirty accounting is
/// mask arithmetic over the line's sector bits.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    /// `log2(line)`: a line's tag is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(sector)`.
    sector_shift: u32,
    /// Most-recently-used line memo: skips the set walk when consecutive
    /// transactions land on the same line, which is the common case for
    /// the row-granular streams the kernels issue. Pure lookup
    /// acceleration — validated against the set contents on every use, so
    /// hit/miss accounting is identical with or without it.
    mru_tag: u64,
    mru_set: usize,
    mru_way: usize,
    /// Running statistics.
    pub stats: CacheStats,
}

/// A transaction this level issues to the next one: a run of whole
/// sectors inside one line, all fills or all write-outs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextLevel {
    /// Address of the run's first sector.
    pub addr: u64,
    /// Bytes in the run (a multiple of the sector size, at most a line).
    pub bytes: u32,
    /// True for write-backs / write-throughs; false for fills.
    pub is_write: bool,
}

/// Bit mask of the `n` sectors starting at sector index `first`.
#[inline]
fn sector_mask(first: u32, n: u32) -> u32 {
    (((1u64 << n) - 1) << first) as u32
}

/// Population count of `x ⊆ mask`, where `mask` has `n` bits set. The
/// none and all cases — nearly every hit and miss — skip the count, which
/// baseline x86-64 (no `popcnt`) computes in software.
#[inline]
fn ones_within(x: u32, mask: u32, n: u32) -> u32 {
    if x == 0 {
        0
    } else if x == mask {
        n
    } else {
        x.count_ones()
    }
}

/// The per-line pieces of the sector range `[first, last]` (global sector
/// numbers), as `(tag, first sector index in the line, sector count)`.
fn line_pieces(first: u64, last: u64, sectors_shift: u32) -> impl Iterator<Item = (u64, u32, u32)> {
    let spl = 1u64 << sectors_shift;
    let mut s = first;
    std::iter::from_fn(move || {
        if s > last {
            return None;
        }
        let tag = s >> sectors_shift;
        let upto = (((tag + 1) << sectors_shift) - 1).min(last);
        let piece = (tag, (s & (spl - 1)) as u32, (upto - s + 1) as u32);
        s = upto + 1;
        Some(piece)
    })
}

impl Cache {
    /// Empty cache of the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two() && cfg.sector.is_power_of_two());
        assert_eq!(cfg.line % cfg.sector, 0);
        assert!(cfg.line / cfg.sector <= 32, "at most 32 sectors per line");
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![Vec::new(); sets],
            clock: 0,
            line_shift: cfg.line.trailing_zeros(),
            sector_shift: cfg.sector.trailing_zeros(),
            mru_tag: u64::MAX,
            mru_set: 0,
            mru_way: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Present a read of `bytes` at `addr`; next-level transactions are
    /// reported through `next`.
    pub fn read(&mut self, addr: u64, bytes: u32, next: &mut impl FnMut(NextLevel)) {
        self.access(addr, bytes, false, next)
    }

    /// Present a write of `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: u32, next: &mut impl FnMut(NextLevel)) {
        self.access(addr, bytes, true, next)
    }

    /// Present a batch of `(addr, bytes, is_write)` transactions in issue
    /// order — the replay entry point of the fast (block-class) simulation
    /// path. Exactly equivalent to calling [`Cache::read`]/[`Cache::write`]
    /// per element.
    pub fn access_run(
        &mut self,
        run: impl IntoIterator<Item = (u64, u32, bool)>,
        next: &mut impl FnMut(NextLevel),
    ) {
        for (addr, bytes, is_write) in run {
            self.access(addr, bytes, is_write, next);
        }
    }

    /// Present an upper level's run as one transaction per `unit` bytes
    /// (the upper level's sector) — exactly equivalent to calling
    /// [`Cache::read`]/[`Cache::write`] on each `unit`-byte piece in
    /// order. When `unit` is this level's sector, each piece is one whole
    /// sector and the run is handled a line at a time; other geometries
    /// take the per-piece path.
    pub fn access_sectors(&mut self, run: NextLevel, unit: u32, next: &mut impl FnMut(NextLevel)) {
        assert!(run.bytes > 0 && unit > 0, "empty transaction");
        let sector = self.cfg.sector as u64;
        let (addr, bytes) = (run.addr, run.bytes as u64);
        if unit as u64 != sector || (addr | bytes) & (sector - 1) != 0 {
            let end = addr + bytes;
            let mut a = addr;
            while a < end {
                let piece = (unit as u64).min(end - a) as u32;
                self.access(a, piece, run.is_write, next);
                a += unit as u64;
            }
            return;
        }
        let first = addr >> self.sector_shift;
        let last = first + (bytes >> self.sector_shift) - 1;
        for (tag, s0, n) in line_pieces(first, last, self.line_shift - self.sector_shift) {
            // Each sector is its own transaction, visiting one line.
            self.stats.accesses += n as u64;
            self.stats.line_visits += n as u64;
            self.touch_line(tag, s0, n, 0, run.is_write, next);
        }
    }

    /// Locate line `tag`: its set index and, when resident, its way. The
    /// MRU memo answers both without the set-index division or the set
    /// walk; it is only trusted after re-validating the tag — ways shift
    /// on `swap_remove` eviction — and tags are unique within a set, so a
    /// validated memo hit is exactly the line a linear walk would find.
    #[inline]
    fn lookup(&mut self, tag: u64) -> (usize, Option<usize>) {
        let set_idx = if self.mru_tag == tag {
            if self.sets[self.mru_set]
                .get(self.mru_way)
                .is_some_and(|l| l.tag == tag)
            {
                return (self.mru_set, Some(self.mru_way));
            }
            self.mru_set
        } else {
            (tag % self.sets.len() as u64) as usize
        };
        let way = self.sets[set_idx].iter().position(|l| l.tag == tag);
        if let Some(way) = way {
            self.mru_tag = tag;
            self.mru_set = set_idx;
            self.mru_way = way;
        }
        (set_idx, way)
    }

    fn access(&mut self, addr: u64, bytes: u32, is_write: bool, next: &mut impl FnMut(NextLevel)) {
        assert!(bytes > 0, "empty transaction");
        self.stats.accesses += 1;
        let ss = self.sector_shift;
        let end = addr + bytes as u64;
        let (first, last) = (addr >> ss, (end - 1) >> ss);
        // A store covering a whole sector overwrites it, permitting
        // allocate-without-fetch; only the end sectors can be partial.
        let head_partial = is_write && addr & ((1 << ss) - 1) != 0;
        let tail_partial = is_write && end & ((1 << ss) - 1) != 0;
        let spl_shift = self.line_shift - ss;
        for (tag, s0, n) in line_pieces(first, last, spl_shift) {
            let mut partial = 0;
            if head_partial && tag == first >> spl_shift {
                partial |= 1 << s0;
            }
            if tail_partial && tag == last >> spl_shift {
                partial |= 1 << (s0 + n - 1);
            }
            self.stats.line_visits += 1;
            self.touch_line(tag, s0, n, partial, is_write, next);
        }
    }

    /// Touch the `n` sectors from index `s0` of line `tag` for one
    /// transaction; `partial` marks the stored sectors the transaction
    /// does not cover whole.
    ///
    /// The recency clock advances by one per sector, so `last_use` values
    /// are globally unique and LRU replacement never ties — which makes
    /// every decision independent of within-set storage order (a property
    /// the wave-periodic fast-forward relies on).
    ///
    /// Always inlined into both entry points: this is the simulator's
    /// innermost loop body.
    #[inline(always)]
    fn touch_line(
        &mut self,
        tag: u64,
        s0: u32,
        n: u32,
        partial: u32,
        is_write: bool,
        next: &mut impl FnMut(NextLevel),
    ) {
        let cfg = self.cfg;
        let sector = cfg.sector as u64;
        let mask = sector_mask(s0, n);
        self.stats.requested_bytes += n as u64 * sector;
        self.clock += n as u64;
        let clock = self.clock;
        let base = tag << self.line_shift;
        let (set_idx, found) = self.lookup(tag);

        if is_write && cfg.write == WritePolicy::ThroughNoAllocate {
            // Write-through: forward, refresh recency if present.
            self.emit_runs(base, mask, true, next);
            if let Some(way) = found {
                self.sets[set_idx][way].last_use = clock;
            }
            return;
        }

        let way = match found {
            Some(way) => way,
            None => {
                // Line miss: allocate, possibly evicting LRU.
                let set = &mut self.sets[set_idx];
                if set.len() >= cfg.assoc {
                    let lru = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.last_use)
                        .map(|(i, _)| i)
                        .expect("non-empty set");
                    let victim = set.swap_remove(lru);
                    self.emit_runs(victim.tag << self.line_shift, victim.dirty, true, next);
                }
                let set = &mut self.sets[set_idx];
                set.push(Line {
                    tag,
                    valid: 0,
                    dirty: 0,
                    last_use: clock,
                });
                self.mru_tag = tag;
                self.mru_set = set_idx;
                self.mru_way = set.len() - 1;
                self.mru_way
            }
        };
        let l = &mut self.sets[set_idx][way];
        let missing = mask & !l.valid;
        // Reads fetch every missing sector; stores only those they cover
        // partially.
        let fetch = if is_write { missing & partial } else { missing };
        l.valid |= mask;
        if is_write {
            l.dirty |= mask;
        }
        l.last_use = clock;
        let misses = ones_within(missing, mask, n);
        self.stats.hit_sectors += (n - misses) as u64;
        self.stats.miss_sectors += misses as u64;
        self.emit_runs(base, fetch, false, next);
    }

    /// Report the sectors `mask` of the line at `base` as one run per
    /// contiguous range, in ascending order, and count the bytes as fills
    /// or write-outs.
    #[inline(always)]
    fn emit_runs(
        &mut self,
        base: u64,
        mut mask: u32,
        is_write: bool,
        next: &mut impl FnMut(NextLevel),
    ) {
        while mask != 0 {
            let first = mask.trailing_zeros();
            let n = (mask >> first).trailing_ones();
            let bytes = n << self.sector_shift;
            next(NextLevel {
                addr: base + ((first as u64) << self.sector_shift),
                bytes,
                is_write,
            });
            if is_write {
                self.stats.writeout_bytes += bytes as u64;
            } else {
                self.stats.fill_bytes += bytes as u64;
            }
            mask &= !sector_mask(first, n);
        }
    }

    /// Write back every dirty sector (end-of-kernel accounting) and clear
    /// the contents.
    ///
    /// Each set drains in ascending tag order, so the write-back stream
    /// (and therefore the DRAM page accounting downstream) depends only on
    /// the cached contents, not on the incidental within-set storage order
    /// left behind by `swap_remove` eviction churn. That invariance is
    /// what lets the wave-periodic fast-forward compare states as
    /// LRU-ordered multisets.
    pub fn flush(&mut self, next: &mut impl FnMut(NextLevel)) {
        for i in 0..self.sets.len() {
            let mut lines = std::mem::take(&mut self.sets[i]);
            lines.sort_unstable_by_key(|l| l.tag);
            for line in &lines {
                self.emit_runs(line.tag << self.line_shift, line.dirty, true, next);
            }
        }
        self.mru_tag = u64::MAX;
    }

    /// Every resident line as `(tag, valid, dirty, last_use)`, sorted —
    /// the state the reference model is compared on.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> Vec<(u64, u32, u32, u64)> {
        let mut v: Vec<_> = self
            .sets
            .iter()
            .flatten()
            .map(|l| (l.tag, l.valid, l.dirty, l.last_use))
            .collect();
        v.sort_unstable();
        v
    }

    /// Drop contents without writing back (between independent kernels).
    pub fn invalidate(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.mru_tag = u64::MAX;
    }

    /// Translate the cached contents by `shift_lines` cache lines.
    ///
    /// Because the tag is `addr / line` and the set index is `tag % sets`,
    /// adding a constant to every tag moves whole sets together: the set
    /// vector rotates by `shift_lines` positions while every within-set
    /// order, valid/dirty mask, and LRU timestamp is preserved. The result
    /// is exactly the state a from-scratch simulation of the translated
    /// access stream would have reached — the fast-forward step of the
    /// wave-periodic simulation. Statistics are left untouched (the caller
    /// scales them) and the MRU memo is dropped (it is a pure lookup
    /// accelerator).
    pub(crate) fn translate(&mut self, shift_lines: i64) {
        let n = self.sets.len();
        let rot = shift_lines.rem_euclid(n as i64) as usize;
        self.sets.rotate_right(rot);
        for set in &mut self.sets {
            for line in set {
                line.tag = line.tag.wrapping_add_signed(shift_lines);
            }
        }
        self.mru_tag = u64::MAX;
    }

    /// Is `self` the state a simulation would reach from `earlier`'s input
    /// stream translated by `shift_lines` cache lines?
    ///
    /// Compares each (rotated) set pair as an LRU-ordered multiset: same
    /// number of lines, and when both are sorted by recency the sequences
    /// agree on shifted tag, valid mask, and dirty mask. Absolute clock
    /// values and within-set storage order are deliberately ignored —
    /// storage order is an artifact of `swap_remove` eviction churn that
    /// never influences behavior: the recency clock ticks per sector so
    /// `last_use` values are globally unique (the defensive tie check
    /// below rejects anything else), making the LRU victim a strict
    /// minimum; tag lookup is position-independent; and `flush` drains in
    /// tag order. Under these invariants, two states that pass this check
    /// respond to any future translated input pair with identical
    /// statistics and translated output streams, which is what licenses
    /// the wave-periodic fast-forward.
    pub(crate) fn equiv_translated(&self, earlier: &Cache, shift_lines: i64) -> bool {
        let n = self.sets.len();
        debug_assert_eq!(n, earlier.sets.len());
        let rot = shift_lines.rem_euclid(n as i64) as usize;
        let mut ord_a: Vec<usize> = Vec::new();
        let mut ord_b: Vec<usize> = Vec::new();
        for (i, a) in earlier.sets.iter().enumerate() {
            let b = &self.sets[(i + rot) % n];
            if a.len() != b.len() {
                return false;
            }
            ord_a.clear();
            ord_a.extend(0..a.len());
            ord_a.sort_unstable_by_key(|&w| a[w].last_use);
            ord_b.clear();
            ord_b.extend(0..b.len());
            ord_b.sort_unstable_by_key(|&w| b[w].last_use);
            for (r, (&wa, &wb)) in ord_a.iter().zip(&ord_b).enumerate() {
                let (la, lb) = (&a[wa], &b[wb]);
                if lb.tag != la.tag.wrapping_add_signed(shift_lines)
                    || la.valid != lb.valid
                    || la.dirty != lb.dirty
                {
                    return false;
                }
                // A last_use tie would make eviction depend on storage
                // order, invalidating the multiset comparison; the
                // per-sector clock makes ties impossible, but verify.
                if r > 0
                    && (a[ord_a[r - 1]].last_use == la.last_use
                        || b[ord_b[r - 1]].last_use == lb.last_use)
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_oracle::expand;

    fn l1_cfg() -> CacheConfig {
        CacheConfig {
            bytes: 4096,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::ThroughNoAllocate,
        }
    }

    fn l2_cfg() -> CacheConfig {
        CacheConfig {
            bytes: 4096,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::BackAllocate,
        }
    }

    /// The next-level transactions of one access, expanded from runs into
    /// one per sector.
    fn collect(c: &mut Cache, addr: u64, bytes: u32, is_write: bool) -> Vec<NextLevel> {
        let mut out = Vec::new();
        if is_write {
            c.write(addr, bytes, &mut |t| out.push(t));
        } else {
            c.read(addr, bytes, &mut |t| out.push(t));
        }
        expand(&out, c.cfg.sector as u32)
    }

    fn flushed(c: &mut Cache) -> Vec<NextLevel> {
        let mut out = Vec::new();
        c.flush(&mut |t| out.push(t));
        expand(&out, c.cfg.sector as u32)
    }

    #[test]
    fn cold_read_fills_per_sector() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 0, 128, false);
        assert_eq!(t.len(), 4);
        assert!(t.iter().all(|x| !x.is_write && x.bytes == 32));
        let addrs: Vec<u64> = t.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, [0, 32, 64, 96]);
        assert_eq!(c.stats.miss_sectors, 4);
        assert_eq!(c.stats.requested_bytes, 128);
    }

    #[test]
    fn missing_sectors_fill_as_runs() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 32, 32, false);
        let mut runs = Vec::new();
        c.read(0, 128, &mut |t| runs.push(t));
        let want = |addr, bytes| NextLevel {
            addr,
            bytes,
            is_write: false,
        };
        assert_eq!(runs, [want(0, 32), want(64, 64)]);
        assert_eq!(c.stats.hit_sectors, 1);
        assert_eq!(c.stats.line_visits, 2);
    }

    #[test]
    fn warm_read_hits() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 0, 128, false);
        let t = collect(&mut c, 0, 128, false);
        assert!(t.is_empty());
        assert_eq!(c.stats.hit_sectors, 4);
    }

    #[test]
    fn unaligned_read_touches_extra_sector() {
        let mut c = Cache::new(l2_cfg());
        // 64 bytes starting at 16 spans sectors [0,32),[32,64),[64,96)
        let t = collect(&mut c, 16, 64, false);
        assert_eq!(t.len(), 3);
        let addrs: Vec<u64> = t.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, [0, 32, 64]);
        assert!(t.iter().all(|x| !x.is_write && x.bytes == 32));
        assert_eq!(c.stats.requested_bytes, 96);
    }

    #[test]
    fn full_sector_write_allocates_without_fetch() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 0, 128, true);
        assert!(t.is_empty(), "no fetch on full-sector store");
        assert_eq!(c.stats.fill_bytes, 0);
        // flush writes the dirty sectors back
        let wb = flushed(&mut c);
        assert_eq!(wb.len(), 4);
        assert!(wb.iter().all(|x| x.is_write));
    }

    #[test]
    fn partial_sector_write_fetches_then_dirties() {
        let mut c = Cache::new(l2_cfg());
        let t = collect(&mut c, 8, 8, true);
        assert_eq!(t.len(), 1);
        assert!(!t[0].is_write, "partial write must fetch");
        let wb = flushed(&mut c);
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].bytes, 32);
    }

    #[test]
    fn write_through_forwards_and_does_not_allocate() {
        let mut c = Cache::new(l1_cfg());
        let t = collect(&mut c, 0, 64, true);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|x| x.is_write && x.bytes == 32));
        let addrs: Vec<u64> = t.iter().map(|x| x.addr).collect();
        assert_eq!(addrs, [0, 32]);
        assert_eq!(c.stats.writeout_bytes, 64);
        // subsequent read misses (store did not allocate)
        let t = collect(&mut c, 0, 32, false);
        assert_eq!(t.len(), 1);
        assert!(!t[0].is_write);
    }

    #[test]
    fn lru_eviction_and_capacity() {
        // 4096B, 128B lines, assoc 4 -> 8 sets; lines mapping to set 0 are
        // 1KB apart
        let mut c = Cache::new(l2_cfg());
        for i in 0..5u64 {
            collect(&mut c, i * 1024, 32, false);
        }
        // line 0 was LRU and must have been evicted: rereading it misses
        let before = c.stats.miss_sectors;
        collect(&mut c, 0, 32, false);
        assert_eq!(c.stats.miss_sectors, before + 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(l2_cfg());
        let mut wb = Vec::new();
        c.write(0, 32, &mut |t| wb.push(t));
        for i in 1..5u64 {
            c.read(i * 1024, 32, &mut |t| wb.push(t));
        }
        assert!(
            wb.iter().any(|t| t.is_write && t.addr == 0),
            "evicting the dirty line must write it back: {wb:?}"
        );
    }

    #[test]
    fn hit_rate_and_merge() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 0, 32, false);
        collect(&mut c, 0, 32, false);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-12);
        let mut total = CacheStats::default();
        total.merge(&c.stats);
        total.merge(&c.stats);
        assert_eq!(total.accesses, 2 * c.stats.accesses);
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let mut c = Cache::new(l2_cfg());
        collect(&mut c, 0, 32, true);
        c.invalidate();
        let mut wb = Vec::new();
        c.flush(&mut |t| wb.push(t));
        assert!(wb.is_empty());
    }

    #[test]
    fn non_pow2_set_count_supported() {
        // 192 KB / (128 B x 8) = 192 sets, as on the A100 L1
        let mut c = Cache::new(CacheConfig {
            bytes: 192 * 1024,
            line: 128,
            sector: 32,
            assoc: 8,
            write: WritePolicy::BackAllocate,
        });
        collect(&mut c, 0, 32, false);
        collect(&mut c, 0, 32, false);
        assert_eq!(c.stats.hit_sectors, 1);
    }

    #[test]
    fn mru_memo_survives_swap_remove_eviction() {
        // assoc-4 set; lines to set 0 are 1 KiB apart. Fill ways 0..3 with
        // L0..L3, refresh L0 so L1 is LRU, then allocate L4: evicting L1
        // swap_removes way 1, moving L3 there — any memo pointing at L3's
        // old way is now stale. Re-reading L3 must still hit.
        let mut c = Cache::new(l2_cfg());
        for i in 0..4u64 {
            collect(&mut c, i * 1024, 32, false);
        }
        collect(&mut c, 0, 32, false); // L0 refreshed; memoised
        collect(&mut c, 4 * 1024, 32, false); // evicts L1, relocates L3
        let hits = c.stats.hit_sectors;
        collect(&mut c, 3 * 1024, 32, false);
        assert_eq!(c.stats.hit_sectors, hits + 1, "relocated line must hit");
    }

    #[test]
    fn access_run_equals_individual_accesses() {
        let trace: Vec<(u64, u32, bool)> = vec![
            (0, 128, false),
            (32, 32, true),
            (1024, 64, false),
            (0, 256, false),
            (8, 8, true),
            (5 * 1024, 32, false),
        ];
        for cfg in [l1_cfg(), l2_cfg()] {
            let mut a = Cache::new(cfg);
            let mut a_next = Vec::new();
            a.access_run(trace.iter().copied(), &mut |t| a_next.push(t));
            let mut b = Cache::new(cfg);
            let mut b_next = Vec::new();
            for &(addr, bytes, is_write) in &trace {
                if is_write {
                    b.write(addr, bytes, &mut |t| b_next.push(t));
                } else {
                    b.read(addr, bytes, &mut |t| b_next.push(t));
                }
            }
            assert_eq!(a.stats, b.stats);
            assert_eq!(a_next, b_next);
        }
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn degenerate_cache_rejected() {
        let _ = Cache::new(CacheConfig {
            bytes: 64,
            line: 128,
            sector: 32,
            assoc: 4,
            write: WritePolicy::BackAllocate,
        });
    }
}
