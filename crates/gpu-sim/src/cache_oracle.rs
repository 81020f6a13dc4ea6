//! Test-only reference model of [`Cache`]: the per-sector walk.
//!
//! [`SectorCache`] handles every transaction one sector at a time — one
//! tag lookup, one clock tick and one next-level transaction per sector —
//! which is the simplest statement of the cache semantics. The
//! differential tests below hold the line-granular [`Cache`] to it:
//! identical [`CacheStats`], identical sector-expanded next-level streams
//! and identical flush output, on every table geometry, a tiny cache that
//! forces evictions and dirty write-backs, and geometries whose L1 and L2
//! sectors or lines differ.

use crate::arch::GpuArch;
use crate::cache::{Cache, CacheConfig, CacheStats, NextLevel, WritePolicy};
use crate::hierarchy::{l1_config, l2_config};

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: u32,
    dirty: u32,
    last_use: u64,
}

/// The per-sector cache walk the line-granular [`Cache`] must reproduce.
pub(crate) struct SectorCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    pub(crate) stats: CacheStats,
}

impl SectorCache {
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        // Same geometry checks as `Cache::new`.
        let _ = Cache::new(cfg);
        SectorCache {
            cfg,
            sets: vec![Vec::new(); cfg.bytes / (cfg.line * cfg.assoc)],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn access(
        &mut self,
        addr: u64,
        bytes: u32,
        is_write: bool,
        next: &mut impl FnMut(NextLevel),
    ) {
        self.stats.accesses += 1;
        let sector = self.cfg.sector as u64;
        let line = self.cfg.line as u64;
        let mut s = addr & !(sector - 1);
        let end = addr + bytes as u64;
        let mut last_line = u64::MAX;
        while s < end {
            let this_line = s & !(line - 1);
            if this_line != last_line {
                self.stats.line_visits += 1;
                last_line = this_line;
            }
            let full = is_write && s >= addr && s + sector <= end;
            self.touch_sector(s, is_write, full, next);
            s += sector;
        }
    }

    fn touch_sector(
        &mut self,
        sector_addr: u64,
        is_write: bool,
        full_cover: bool,
        next: &mut impl FnMut(NextLevel),
    ) {
        let cfg = self.cfg;
        let sector = cfg.sector as u64;
        self.stats.requested_bytes += sector;
        self.clock += 1;
        let clock = self.clock;
        let tag = sector_addr / cfg.line as u64;
        let bit = 1u32 << ((sector_addr % cfg.line as u64) / sector);
        let set_idx = (tag % self.sets.len() as u64) as usize;
        let fill = NextLevel {
            addr: sector_addr,
            bytes: sector as u32,
            is_write: false,
        };
        let found = self.sets[set_idx].iter().position(|l| l.tag == tag);

        if is_write && cfg.write == WritePolicy::ThroughNoAllocate {
            next(NextLevel {
                is_write: true,
                ..fill
            });
            self.stats.writeout_bytes += sector;
            if let Some(way) = found {
                self.sets[set_idx][way].last_use = clock;
            }
            return;
        }

        let way = match found {
            Some(way) => way,
            None => {
                if self.sets[set_idx].len() >= cfg.assoc {
                    let lru = (0..self.sets[set_idx].len())
                        .min_by_key(|&w| self.sets[set_idx][w].last_use)
                        .expect("non-empty set");
                    let victim = self.sets[set_idx].swap_remove(lru);
                    self.write_back(&victim, next);
                }
                self.sets[set_idx].push(Line {
                    tag,
                    valid: 0,
                    dirty: 0,
                    last_use: clock,
                });
                self.sets[set_idx].len() - 1
            }
        };
        let l = &mut self.sets[set_idx][way];
        l.last_use = clock;
        if l.valid & bit != 0 {
            self.stats.hit_sectors += 1;
        } else {
            self.stats.miss_sectors += 1;
            if !(is_write && full_cover) {
                next(fill);
                self.stats.fill_bytes += sector;
            }
        }
        l.valid |= bit;
        if is_write {
            l.dirty |= bit;
        }
    }

    fn write_back(&mut self, line: &Line, next: &mut impl FnMut(NextLevel)) {
        let sector = self.cfg.sector as u64;
        for s in 0..(self.cfg.line / self.cfg.sector) as u64 {
            if line.dirty & (1 << s) != 0 {
                next(NextLevel {
                    addr: line.tag * self.cfg.line as u64 + s * sector,
                    bytes: sector as u32,
                    is_write: true,
                });
                self.stats.writeout_bytes += sector;
            }
        }
    }

    /// Same contract as `Cache::resident`.
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

    pub(crate) fn flush(&mut self, next: &mut impl FnMut(NextLevel)) {
        for i in 0..self.sets.len() {
            let mut lines = std::mem::take(&mut self.sets[i]);
            lines.sort_unstable_by_key(|l| l.tag);
            for line in &lines {
                self.write_back(line, next);
            }
        }
    }
}

/// Expand runs into one transaction per `sector` bytes, in order.
pub(crate) fn expand(runs: &[NextLevel], sector: u32) -> Vec<NextLevel> {
    runs.iter()
        .flat_map(|r| {
            assert!(
                r.bytes > 0 && r.bytes % sector == 0,
                "{r:?} is not whole sectors"
            );
            (0..r.bytes / sector).map(move |i| NextLevel {
                addr: r.addr + (i * sector) as u64,
                bytes: sector,
                is_write: r.is_write,
            })
        })
        .collect()
}

mod tests {
    use super::*;
    use proptest::TestRng;

    fn tiny(write: WritePolicy) -> CacheConfig {
        // 4 sets of 2 ways: any stream over a few KiB evicts constantly.
        CacheConfig {
            bytes: 1024,
            line: 128,
            sector: 32,
            assoc: 2,
            write,
        }
    }

    /// Every single-level geometry under test: the table archs' L1s and
    /// L2s and the tiny cache under both write policies.
    fn geometries() -> Vec<CacheConfig> {
        let mut g = vec![
            tiny(WritePolicy::ThroughNoAllocate),
            tiny(WritePolicy::BackAllocate),
        ];
        for arch in GpuArch::all() {
            g.push(l1_config(&arch));
            g.push(l2_config(&arch));
        }
        g
    }

    /// `(L1, L2)` pairs: the table archs, the tiny pair, and geometries
    /// no table arch has but `GpuArch`'s public fields allow — L1 sector
    /// larger and smaller than the L2's, and an L1 line longer than the
    /// L2's.
    fn hierarchies() -> Vec<(CacheConfig, CacheConfig)> {
        let l1 = |line, sector| CacheConfig {
            bytes: 2048,
            line,
            sector,
            assoc: 2,
            write: WritePolicy::ThroughNoAllocate,
        };
        let l2 = |line, sector| CacheConfig {
            bytes: 4096,
            line,
            sector,
            assoc: 2,
            write: WritePolicy::BackAllocate,
        };
        let mut h: Vec<_> = GpuArch::all()
            .iter()
            .map(|a| (l1_config(a), l2_config(a)))
            .collect();
        h.push((
            tiny(WritePolicy::ThroughNoAllocate),
            tiny(WritePolicy::BackAllocate),
        ));
        h.push((l1(128, 64), l2(128, 32)));
        h.push((l1(128, 16), l2(128, 32)));
        h.push((l1(256, 32), l2(64, 32)));
        h.push((l1(128, 64), l2(32, 32)));
        h
    }

    /// A random transaction stream over a few KiB: a mix of row-like runs
    /// continuing the previous access and random jumps, of random sizes
    /// (unaligned, sub-sector and multi-line), half of them stores.
    fn stream(rng: &mut TestRng, len: usize) -> Vec<(u64, u32, bool)> {
        let span = 8 << 10;
        let mut prev = 0u64;
        (0..len)
            .map(|_| {
                let addr = match rng.below(3) {
                    0 => prev,
                    1 => prev + rng.below(64),
                    _ => rng.below(span),
                };
                let bytes = match rng.below(3) {
                    0 => 1 + rng.below(16) as u32,
                    1 => 32 * (1 + rng.below(8) as u32),
                    _ => 1 + rng.below(300) as u32,
                };
                prev = addr + bytes as u64;
                (addr, bytes, rng.below(2) == 0)
            })
            .collect()
    }

    #[test]
    fn line_cache_matches_the_sector_walk() {
        for cfg in geometries() {
            for seed in 0..24 {
                let mut rng = TestRng::new(seed);
                let trace = stream(&mut rng, 400);
                let mut line = Cache::new(cfg);
                let mut sector = SectorCache::new(cfg);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for &(addr, bytes, is_write) in &trace {
                    if is_write {
                        line.write(addr, bytes, &mut |t| got.push(t));
                    } else {
                        line.read(addr, bytes, &mut |t| got.push(t));
                    }
                    sector.access(addr, bytes, is_write, &mut |t| want.push(t));
                }
                assert_eq!(line.stats, sector.stats, "{cfg:?} seed {seed}");
                // Recency stamps included: the clock advances per sector.
                assert_eq!(line.resident(), sector.resident(), "{cfg:?} seed {seed}");
                let s = cfg.sector as u32;
                assert_eq!(expand(&got, s), want, "{cfg:?} seed {seed}");
                let (mut got, mut want) = (Vec::new(), Vec::new());
                line.flush(&mut |t| got.push(t));
                sector.flush(&mut |t| want.push(t));
                assert_eq!(expand(&got, s), want, "{cfg:?} seed {seed} flush");
                assert_eq!(line.stats, sector.stats, "{cfg:?} seed {seed} flush");
            }
        }
    }

    #[test]
    fn l2_runs_match_the_per_l1_sector_feed() {
        // The hierarchy feeds each L1 run to the L2 through
        // `access_sectors`; the reference feeds it one L1 sector at a
        // time, as a per-sector L1 emits it.
        for (c1, c2) in hierarchies() {
            for seed in 0..24 {
                let mut rng = TestRng::new(1000 + seed);
                let trace = stream(&mut rng, 400);
                let (mut l1, mut l2) = (Cache::new(c1), Cache::new(c2));
                let (mut r1, mut r2) = (SectorCache::new(c1), SectorCache::new(c2));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let unit = c1.sector as u32;
                for &(addr, bytes, is_write) in &trace {
                    let mut runs = Vec::new();
                    if is_write {
                        l1.write(addr, bytes, &mut |t| runs.push(t));
                    } else {
                        l1.read(addr, bytes, &mut |t| runs.push(t));
                    }
                    for run in runs {
                        l2.access_sectors(run, unit, &mut |t| got.push(t));
                    }
                    let mut sectors = Vec::new();
                    r1.access(addr, bytes, is_write, &mut |t| sectors.push(t));
                    for t in sectors {
                        r2.access(t.addr, t.bytes, t.is_write, &mut |t| want.push(t));
                    }
                }
                let what = format!("{c1:?} -> {c2:?} seed {seed}");
                assert_eq!(l1.stats, r1.stats, "{what}");
                assert_eq!(l2.stats, r2.stats, "{what}");
                assert_eq!(l1.resident(), r1.resident(), "{what}");
                assert_eq!(l2.resident(), r2.resident(), "{what}");
                let s = c2.sector as u32;
                assert_eq!(expand(&got, s), want, "{what}");
                let (mut got, mut want) = (Vec::new(), Vec::new());
                l2.flush(&mut |t| got.push(t));
                r2.flush(&mut |t| want.push(t));
                assert_eq!(expand(&got, s), want, "{what} flush");
            }
        }
    }

    #[test]
    fn chunked_runs_equal_the_per_sector_feed() {
        // Splitting an L2-bound run stream at arbitrary sector boundaries
        // (as the interleaved L2 feed does at chunk ends) changes nothing.
        for (c1, c2) in hierarchies() {
            for seed in 0..12 {
                let mut rng = TestRng::new(2000 + seed);
                let mut l1 = Cache::new(c1);
                let mut runs = Vec::new();
                for (addr, bytes, is_write) in stream(&mut rng, 400) {
                    if is_write {
                        l1.write(addr, bytes, &mut |t| runs.push(t));
                    } else {
                        l1.read(addr, bytes, &mut |t| runs.push(t));
                    }
                }
                let unit = c1.sector as u32;
                let (mut chunked, mut single) = (Cache::new(c2), Cache::new(c2));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for run in &runs {
                    let total = run.bytes / unit;
                    let mut done = 0;
                    while done < total {
                        let take = (1 + rng.below(total as u64) as u32).min(total - done);
                        let piece = NextLevel {
                            addr: run.addr + (done * unit) as u64,
                            bytes: take * unit,
                            is_write: run.is_write,
                        };
                        chunked.access_sectors(piece, unit, &mut |t| got.push(t));
                        done += take;
                    }
                }
                for t in expand(&runs, unit) {
                    single.access_sectors(t, unit, &mut |t| want.push(t));
                }
                let what = format!("{c1:?} -> {c2:?} seed {seed}");
                assert_eq!(chunked.stats, single.stats, "{what}");
                assert_eq!(chunked.resident(), single.resident(), "{what}");
                let s = c2.sector as u32;
                assert_eq!(expand(&got, s), expand(&want, s), "{what}");
            }
        }
    }
}
