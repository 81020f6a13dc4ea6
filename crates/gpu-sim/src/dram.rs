//! HBM row-buffer (page) model.
//!
//! The brick layout's stated advantage is that "accesses within a brick
//! are part of a single address stream", exploiting "hardware features
//! that optimize data movement of contiguous addresses" (paper §3). At
//! the DRAM level that hardware feature is the row buffer: a transaction
//! that hits a bank's open page streams at full rate, while switching
//! pages pays activate/precharge latency that many concurrent streams
//! cannot fully hide.
//!
//! The model tracks one open page per bank (page-interleaved address
//! mapping, as HBM stacks use) over the L2-miss/write-back stream the
//! hierarchy produces, and reports the page hit rate. The timing model
//! converts it into a bandwidth efficiency: an all-hit stream gets the
//! full pin bandwidth, an all-miss stream a floor fraction typical of
//! random fine-grained access.

use serde::{Deserialize, Serialize};

/// Page (row-buffer) size in bytes. HBM2e rows are 1 KiB per
/// pseudo-channel.
pub const PAGE_BYTES: u64 = 1024;

/// Total banks across the stack (pseudo-channels × banks/channel).
pub const NUM_BANKS: usize = 512;

/// Fraction of peak bandwidth a stream of pure page misses sustains.
pub const MISS_EFFICIENCY: f64 = 0.35;

/// Row-buffer state and counters.
#[derive(Debug, Clone)]
pub struct DramModel {
    open: Vec<u64>,
    /// Page hits observed.
    pub hits: u64,
    /// Page misses (activations) observed.
    pub misses: u64,
}

impl Default for DramModel {
    fn default() -> Self {
        Self::new()
    }
}

impl DramModel {
    /// Fresh model with all banks closed.
    pub fn new() -> Self {
        DramModel {
            open: vec![u64::MAX; NUM_BANKS],
            hits: 0,
            misses: 0,
        }
    }

    /// Present one DRAM transaction (an L2 fill or write-back).
    #[inline]
    pub fn access(&mut self, addr: u64) {
        let page = addr / PAGE_BYTES;
        let bank = (page as usize) % NUM_BANKS;
        if self.open[bank] == page {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.open[bank] = page;
        }
    }

    /// Present a run of `bytes` at `addr` as one [`access`](Self::access)
    /// per `sector`-byte transaction, in address order.
    #[inline]
    pub fn access_sectors(&mut self, addr: u64, bytes: u32, sector: usize) {
        let end = addr + bytes as u64;
        let mut a = addr;
        while a < end {
            self.access(a);
            a += sector as u64;
        }
    }

    /// Translate the open-page state by `shift_pages` rows.
    ///
    /// `bank = page % NUM_BANKS`, so adding a constant to every page id
    /// rotates the bank vector and shifts each open row; closed banks
    /// (sentinel) stay closed. Mirrors [`crate::Cache::translate`] for the
    /// wave-periodic fast-forward.
    pub(crate) fn translate(&mut self, shift_pages: i64) {
        let rot = shift_pages.rem_euclid(NUM_BANKS as i64) as usize;
        self.open.rotate_right(rot);
        for page in &mut self.open {
            if *page != u64::MAX {
                *page = page.wrapping_add_signed(shift_pages);
            }
        }
    }

    /// Is `self` the row-buffer state reached from `earlier` under an
    /// input stream translated by `shift_pages` rows? (Counters are
    /// ignored; the caller compares those separately.)
    pub(crate) fn equiv_translated(&self, earlier: &DramModel, shift_pages: i64) -> bool {
        let rot = shift_pages.rem_euclid(NUM_BANKS as i64) as usize;
        earlier.open.iter().enumerate().all(|(i, &page)| {
            let cur = self.open[(i + rot) % NUM_BANKS];
            if page == u64::MAX {
                cur == u64::MAX
            } else {
                cur == page.wrapping_add_signed(shift_pages)
            }
        })
    }

    /// Observed page hit rate (1.0 when idle — no evidence of thrash).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Bandwidth efficiency for a given page hit rate: linear between the
/// all-miss floor and full rate.
pub fn bandwidth_efficiency(hit_rate: f64) -> f64 {
    MISS_EFFICIENCY + (1.0 - MISS_EFFICIENCY) * hit_rate.clamp(0.0, 1.0)
}

/// Page-locality counters carried in [`crate::MemCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Row-buffer misses.
    pub misses: u64,
}

impl PageStats {
    /// Hit rate; 1.0 when no traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }

    /// Bandwidth efficiency of this stream.
    pub fn efficiency(&self) -> f64 {
        bandwidth_efficiency(self.hit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_mostly_hits() {
        let mut d = DramModel::new();
        // stream 64 KiB in 32 B sectors: one miss per 1 KiB page
        for i in 0..2048u64 {
            d.access(i * 32);
        }
        assert_eq!(d.misses, 64);
        assert_eq!(d.hits, 2048 - 64);
        assert!(d.hit_rate() > 0.96);
    }

    #[test]
    fn strided_page_stream_always_misses_on_one_bank() {
        let mut d = DramModel::new();
        // pages NUM_BANKS apart land on the same bank with different rows
        for i in 0..100u64 {
            d.access(i * PAGE_BYTES * NUM_BANKS as u64);
        }
        assert_eq!(d.misses, 100);
        assert_eq!(d.hits, 0);
    }

    #[test]
    fn interleaved_streams_fit_in_banks() {
        let mut d = DramModel::new();
        // 8 streams on different banks, round-robin: after warm-up every
        // access hits
        for round in 0..64u64 {
            for s in 0..8u64 {
                d.access(s * PAGE_BYTES + round * 32 % PAGE_BYTES);
            }
        }
        assert_eq!(d.misses, 8);
    }

    #[test]
    fn efficiency_mapping() {
        assert!((bandwidth_efficiency(1.0) - 1.0).abs() < 1e-12);
        assert!((bandwidth_efficiency(0.0) - MISS_EFFICIENCY).abs() < 1e-12);
        let mid = bandwidth_efficiency(0.5);
        assert!(mid > MISS_EFFICIENCY && mid < 1.0);
    }

    #[test]
    fn idle_model_reports_full_efficiency() {
        assert_eq!(DramModel::new().hit_rate(), 1.0);
        assert_eq!(PageStats::default().efficiency(), 1.0);
    }

    #[test]
    fn page_stats_roundtrip() {
        let s = PageStats { hits: 3, misses: 1 };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.efficiency() > bandwidth_efficiency(0.74));
    }
}
