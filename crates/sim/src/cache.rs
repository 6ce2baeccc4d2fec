//! Timing-only set-associative cache model (tag array + LRU, no data —
//! function lives in [`crate::DeviceMemory`]).

/// What happened on a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; if allocation evicted a dirty victim its line address is
    /// reported so the caller can generate a writeback.
    Miss {
        /// Dirty victim evicted by the fill, if any, with its metadata flag.
        writeback: Option<Victim>,
    },
}

/// A dirty line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line address of the victim.
    pub line_addr: u64,
    /// `true` if the victim held detector metadata (for Figure 9's traffic
    /// split).
    pub metadata: bool,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    metadata: bool,
    last_use: u64,
}

const EMPTY: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    metadata: false,
    last_use: 0,
};

/// A set-associative, LRU, write-back/write-allocate tag array.
///
/// The L1 uses it in read-only mode for global data (write-evict: stores
/// invalidate and go through); the L2 slices use the full write-back
/// behaviour.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    lines: Vec<Line>,
    tick: u64,
}

impl Cache {
    /// Builds a cache of `bytes` capacity with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    #[must_use]
    pub fn new(bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^n");
        let total_lines = (bytes / line_bytes) as usize;
        let ways = ways as usize;
        assert!(ways > 0 && total_lines >= ways, "degenerate cache geometry");
        let sets = total_lines / ways;
        Cache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            lines: vec![EMPTY; sets * ways],
            tick: 0,
        }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) % self.sets as u64) as usize
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        (line_addr >> self.line_shift) / self.sets as u64
    }

    /// Aligns an address down to its line.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.line_shift) - 1)
    }

    /// Probes without modifying state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let tag = self.tag_of(la);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Accesses `addr`. On a miss the line is filled (allocate-on-miss);
    /// `write` marks it dirty; `metadata` tags the line for traffic
    /// accounting.
    pub fn access(&mut self, addr: u64, write: bool, metadata: bool) -> CacheOutcome {
        self.tick += 1;
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let tag = self.tag_of(la);
        let base = set * self.ways;
        // Hit path.
        for l in &mut self.lines[base..base + self.ways] {
            if l.valid && l.tag == tag {
                l.last_use = self.tick;
                l.dirty |= write;
                return CacheOutcome::Hit;
            }
        }
        // Miss: pick LRU victim.
        let victim_idx = (base..base + self.ways)
            .min_by_key(|&i| {
                let l = &self.lines[i];
                if l.valid {
                    l.last_use
                } else {
                    0
                }
            })
            .expect("ways > 0");
        let victim = self.lines[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            Some(Victim {
                line_addr: (victim.tag * self.sets as u64 + set as u64) << self.line_shift,
                metadata: victim.metadata,
            })
        } else {
            None
        };
        self.lines[victim_idx] = Line {
            tag,
            valid: true,
            dirty: write,
            metadata,
            last_use: self.tick,
        };
        CacheOutcome::Miss { writeback }
    }

    /// Invalidates the line covering `addr` (no writeback — used for the
    /// L1's global write-evict policy, where global lines are never dirty).
    pub fn invalidate(&mut self, addr: u64) {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let tag = self.tag_of(la);
        let base = set * self.ways;
        for l in &mut self.lines[base..base + self.ways] {
            if l.valid && l.tag == tag {
                l.valid = false;
            }
        }
    }

    /// Drops every line.
    pub fn flush(&mut self) {
        self.lines.fill(EMPTY);
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(1024, 2, 128);
        assert!(matches!(
            c.access(0, false, false),
            CacheOutcome::Miss { writeback: None }
        ));
        assert_eq!(c.access(64, false, false), CacheOutcome::Hit, "same line");
        assert!(c.probe(127));
        assert!(!c.probe(128));
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 4 sets of 128B: lines 0 and 512 share set 0... with
        // sets=4: set = (addr/128) % 4.
        let mut c = Cache::new(1024, 2, 128);
        c.access(0, false, false); // set 0 way A
        c.access(512, false, false); // set 0 way B
        c.access(0, false, false); // touch A
        c.access(1024, false, false); // evicts B (LRU)
        assert!(c.probe(0));
        assert!(!c.probe(512));
        assert!(c.probe(1024));
    }

    #[test]
    fn dirty_eviction_reports_writeback_with_correct_address() {
        let mut c = Cache::new(1024, 2, 128);
        c.access(0, true, false);
        c.access(512, false, false);
        c.access(1024, false, false); // evicts dirty line 0
        match c.access(1536, false, false) {
            CacheOutcome::Miss { writeback } => {
                // line 0 was already evicted by the 1024 access
                assert!(writeback.is_none() || writeback.unwrap().line_addr != 0);
            }
            CacheOutcome::Hit => panic!("expected miss"),
        }
        // Direct check: dirty line evicted yields its address back.
        let mut c = Cache::new(256, 1, 128); // direct-mapped, 2 sets
        c.access(0, true, true);
        match c.access(256, false, false) {
            CacheOutcome::Miss {
                writeback: Some(v), ..
            } => {
                assert_eq!(v.line_addr, 0);
                assert!(v.metadata);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line_silently() {
        let mut c = Cache::new(1024, 2, 128);
        c.access(0, true, false);
        c.invalidate(64);
        assert!(!c.probe(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::new(1024, 2, 128);
        c.access(0, false, false);
        c.flush();
        assert!(!c.probe(0));
    }

    /// An L2 slice's capacity is `l2_bytes / channels`, which for
    /// non-power-of-two channel counts (the paper default is 12; the
    /// golden-stats test uses 7) yields an odd byte count and a
    /// non-power-of-two set count. Set indexing is modulo, not masking, so
    /// the tag/set round trip must stay lossless — a dirty victim's
    /// reconstructed writeback address has to be the line that was filled.
    #[test]
    fn odd_slice_geometry_round_trips_victim_addresses() {
        // 1.5 MB / 7 channels = 224_694 B → 1755 lines → 219 sets × 8 ways.
        let slice_bytes = ((3u32 << 19) / 7) / 128 * 128;
        let mut c = Cache::new(slice_bytes, 8, 128);
        // Fill one set to capacity with dirty lines, then overflow it: the
        // victim must report the exact line address written.
        let sets = 219u64;
        let set_stride = sets * 128; // same set, successive tags
        for way in 0..8u64 {
            let addr = way * set_stride;
            assert!(matches!(
                c.access(addr, true, false),
                CacheOutcome::Miss { writeback: None }
            ));
        }
        match c.access(8 * set_stride, false, false) {
            CacheOutcome::Miss {
                writeback: Some(v), ..
            } => assert_eq!(v.line_addr, 0, "LRU victim is the first fill"),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        // Every resident line still hits after the round trip.
        for way in 1..8u64 {
            assert_eq!(c.access(way * set_stride, false, false), CacheOutcome::Hit);
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(256, 1, 128);
        c.access(0, false, false);
        c.access(0, true, false); // dirty via write hit
        match c.access(256, false, false) {
            CacheOutcome::Miss {
                writeback: Some(v), ..
            } => assert_eq!(v.line_addr, 0),
            other => panic!("expected writeback, got {other:?}"),
        }
    }
}
