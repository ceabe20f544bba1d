//! Set-associative cache model with LRU replacement and write-back,
//! write-allocate semantics.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache block size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// 32 KB, 2-way, 64 B blocks: the paper's L1 configuration (Table 2).
    #[must_use]
    pub fn l1_baseline() -> Self {
        Self {
            size_bytes: 32 * 1024,
            associativity: 2,
            block_bytes: 64,
        }
    }

    /// One bank of the paper's shared 4 MB 16-way L2 (4 banks of 1 MB each).
    #[must_use]
    pub fn l2_bank_baseline() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            associativity: 16,
            block_bytes: 64,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.block_bytes * self.associativity as u64)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when a dimension is zero, the
    /// capacity is not divisible into whole sets, or the set count is not a
    /// power of two.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.associativity == 0 || self.block_bytes == 0 {
            return Err("cache dimensions must be non-zero".to_owned());
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block size {} must be a power of two",
                self.block_bytes
            ));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.block_bytes * self.associativity as u64)
        {
            return Err("capacity must divide evenly into sets".to_owned());
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the block was present.
    pub hit: bool,
    /// Block-aligned address of a dirty block evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// Event counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty blocks written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in 0.0–1.0 (0 when no accesses were made).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    last_use: u64,
}

impl Line {
    const INVALID: Self = Self {
        tag: 0,
        valid: false,
        dirty: false,
        last_use: 0,
    };
}

/// The configuration plus the shifts and masks derived from it.
///
/// [`CacheConfig::validate`] requires a power-of-two block size and set
/// count, so the block number, set index and tag of an address are a shift
/// and a mask away — no division on the access path.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    config: CacheConfig,
    block_shift: u32,
    set_shift: u32,
    set_mask: u64,
}

impl Geometry {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            block_shift: config.block_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// `(set, tag)` of the block holding `addr`.
    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// Block-aligned address of the block with `tag` in `set`.
    fn block_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.block_shift
    }
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Lines are stored set after set in one flat vector.
///
/// # Examples
///
/// ```
/// use cloudmc_cpu::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_baseline());
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    // simlint: allow(snapshot-coverage) config-derived and immutable; restore rebuilds it from the same config
    geometry: Geometry,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        // simlint: allow(panic) documented constructor contract: config must validate
        config.validate().expect("invalid cache configuration");
        Self {
            geometry: Geometry::new(config),
            lines: vec![Line::INVALID; config.sets() as usize * config.associativity],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.geometry.config
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set(&self, set: usize) -> &[Line] {
        let ways = self.geometry.config.associativity;
        &self.lines[set * ways..(set + 1) * ways]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        let ways = self.geometry.config.associativity;
        &mut self.lines[set * ways..(set + 1) * ways]
    }

    /// Whether the block containing `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.geometry.index_and_tag(addr);
        self.set(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs a load (`is_write == false`) or store (`is_write == true`) to
    /// `addr`, allocating the block on a miss and returning any dirty block
    /// evicted in the process.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let tick = self.tick;
        let geometry = self.geometry;
        let (set, tag) = geometry.index_and_tag(addr);
        let lines = self.set_mut(set);
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        // Choose a victim: an invalid way if possible, else the LRU way.
        let victim_idx = lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
            lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                // simlint: allow(panic) CacheConfig::validate rejects zero associativity
                .expect("associativity is non-zero")
        });
        let victim = std::mem::replace(
            &mut lines[victim_idx],
            Line {
                tag,
                valid: true,
                dirty: is_write,
                last_use: tick,
            },
        );
        self.stats.misses += 1;
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            geometry.block_addr(set, victim.tag)
        });
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Serializes the cache's mutable state — every line plus the counters
    /// and the LRU clock (checkpoint support). Geometry is config-derived
    /// and not serialized.
    pub fn save_state(&self, w: &mut cloudmc_snap::SnapWriter) {
        for line in &self.lines {
            w.u64(line.tag);
            w.bool(line.valid);
            w.bool(line.dirty);
            w.u64(line.last_use);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.writebacks);
        w.u64(self.tick);
    }

    /// Restores the cache's mutable state from a checkpoint. The cache must
    /// have been built with the same geometry as the saved one.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cloudmc_snap::SnapError`] on truncation or an
    /// impossible flag byte.
    pub fn load_state(
        &mut self,
        r: &mut cloudmc_snap::SnapReader<'_>,
    ) -> Result<(), cloudmc_snap::SnapError> {
        for line in &mut self.lines {
            line.tag = r.u64()?;
            line.valid = r.bool()?;
            line.dirty = r.bool()?;
            line.last_use = r.u64()?;
        }
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.writebacks = r.u64()?;
        self.tick = r.u64()?;
        Ok(())
    }

    /// Invalidates the block containing `addr`, returning `true` if the block
    /// was present and dirty (i.e. a writeback is required).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.geometry.index_and_tag(addr);
        for line in self.set_mut(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                return std::mem::take(&mut line.dirty);
            }
        }
        false
    }
}

/// A cache with one heap vector of lines per set, indexed by division: the
/// reference the flat [`Cache`] is checked against.
#[cfg(test)]
mod reference {
    use super::{CacheAccess, CacheConfig, CacheStats, Line};

    #[derive(Debug, Clone)]
    pub(super) struct NestedCache {
        config: CacheConfig,
        sets: Vec<Vec<Line>>,
        pub(super) stats: CacheStats,
        tick: u64,
    }

    impl NestedCache {
        pub(super) fn new(config: CacheConfig) -> Self {
            config.validate().expect("invalid cache configuration");
            Self {
                config,
                sets: vec![vec![Line::INVALID; config.associativity]; config.sets() as usize],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        fn index_and_tag(&self, addr: u64) -> (usize, u64) {
            let block = addr / self.config.block_bytes;
            let set = (block % self.config.sets()) as usize;
            let tag = block / self.config.sets();
            (set, tag)
        }

        pub(super) fn contains(&self, addr: u64) -> bool {
            let (set, tag) = self.index_and_tag(addr);
            self.sets[set].iter().any(|l| l.valid && l.tag == tag)
        }

        pub(super) fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
            self.tick += 1;
            let (set, tag) = self.index_and_tag(addr);
            let sets_count = self.config.sets();
            let block_bytes = self.config.block_bytes;
            let lines = &mut self.sets[set];
            if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.last_use = self.tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
            self.stats.misses += 1;
            let victim_idx = lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
                lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_use)
                    .map(|(i, _)| i)
                    .expect("associativity is non-zero")
            });
            let victim = lines[victim_idx];
            let writeback = if victim.valid && victim.dirty {
                self.stats.writebacks += 1;
                Some((victim.tag * sets_count + set as u64) * block_bytes)
            } else {
                None
            };
            lines[victim_idx] = Line {
                tag,
                valid: true,
                dirty: is_write,
                last_use: self.tick,
            };
            CacheAccess {
                hit: false,
                writeback,
            }
        }

        pub(super) fn save_state(&self, w: &mut cloudmc_snap::SnapWriter) {
            for set in &self.sets {
                for line in set {
                    w.u64(line.tag);
                    w.bool(line.valid);
                    w.bool(line.dirty);
                    w.u64(line.last_use);
                }
            }
            w.u64(self.stats.hits);
            w.u64(self.stats.misses);
            w.u64(self.stats.writebacks);
            w.u64(self.tick);
        }

        pub(super) fn invalidate(&mut self, addr: u64) -> bool {
            let (set, tag) = self.index_and_tag(addr);
            for line in &mut self.sets[set] {
                if line.valid && line.tag == tag {
                    line.valid = false;
                    return std::mem::take(&mut line.dirty);
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets x 2 ways x 64B = 512B
        CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
        }
    }

    #[test]
    fn baseline_configs_validate() {
        CacheConfig::l1_baseline().validate().unwrap();
        CacheConfig::l2_bank_baseline().validate().unwrap();
        assert_eq!(CacheConfig::l1_baseline().sets(), 256);
        assert_eq!(CacheConfig::l2_bank_baseline().sets(), 1024);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = tiny();
        c.block_bytes = 48;
        assert!(c.validate().is_err());
        c = tiny();
        c.size_bytes = 0;
        assert!(c.validate().is_err());
        c = tiny();
        c.size_bytes = 576; // 4.5 sets
        assert!(c.validate().is_err());
    }

    #[test]
    fn hit_after_miss() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x7f, false).hit, "same block, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(tiny());
        // Three blocks mapping to the same set (set stride = 4 blocks = 256B).
        let a = 0x000;
        let b = 0x100;
        let d = 0x200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(tiny());
        let a = 0x000;
        let b = 0x100;
        let d = 0x200;
        c.access(a, true); // dirty
        c.access(b, false);
        let evict = c.access(d, false); // evicts a (LRU), which is dirty
        assert_eq!(evict.writeback, Some(a));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(tiny());
        c.access(0x000, false);
        c.access(0x100, false);
        let evict = c.access(0x200, false);
        assert_eq!(evict.writeback, None);
    }

    #[test]
    fn store_hit_marks_block_dirty() {
        let mut c = Cache::new(tiny());
        c.access(0x000, false);
        c.access(0x000, true); // store hit dirties the block
        c.access(0x100, false);
        let evict = c.access(0x200, false);
        assert_eq!(evict.writeback, Some(0x000));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = Cache::new(tiny());
        c.access(0x040, true);
        assert!(c.invalidate(0x040));
        assert!(!c.contains(0x040));
        assert!(!c.invalidate(0x040));
        c.access(0x080, false);
        assert!(!c.invalidate(0x080));
    }

    #[test]
    fn miss_ratio_reflects_stream() {
        let mut c = Cache::new(tiny());
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(c.stats().accesses(), 16);
    }

    /// Deterministic splitmix64 stream, so the reference checks need no
    /// random-number crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn snapshot_bytes(save: impl FnOnce(&mut cloudmc_snap::SnapWriter)) -> Vec<u8> {
        let mut w = cloudmc_snap::SnapWriter::new(0);
        save(&mut w);
        w.finish()
    }

    /// Drives the flat cache and the nested reference through the same
    /// seeded read/write stream over twice the capacity (so there are hits,
    /// misses and dirty evictions) with an occasional invalidation, and
    /// demands identical outcomes, counters and checkpoint bytes.
    fn check_against_reference(config: CacheConfig, seed: u64) {
        let mut flat = Cache::new(config);
        let mut nested = reference::NestedCache::new(config);
        let span_blocks = 2 * config.size_bytes / config.block_bytes;
        let mut state = seed;
        for i in 0..50_000 {
            let r = splitmix(&mut state);
            let addr = (r % span_blocks) * config.block_bytes + (r >> 58);
            if r >> 60 == 0 {
                assert_eq!(flat.invalidate(addr), nested.invalidate(addr), "step {i}");
            } else {
                let is_write = (r >> 32).is_multiple_of(4);
                assert_eq!(
                    flat.access(addr, is_write),
                    nested.access(addr, is_write),
                    "step {i}"
                );
            }
            assert_eq!(flat.contains(addr), nested.contains(addr), "step {i}");
            assert_eq!(*flat.stats(), nested.stats, "step {i}");
        }
        assert!(flat.stats().hits > 0 && flat.stats().misses > 0);
        assert!(
            flat.stats().writebacks > 0,
            "the stream must evict dirty blocks"
        );
        assert_eq!(
            snapshot_bytes(|w| flat.save_state(w)),
            snapshot_bytes(|w| nested.save_state(w))
        );
    }

    #[test]
    fn flat_cache_matches_nested_reference() {
        let three_way = CacheConfig {
            size_bytes: 3 * 64 * 64,
            associativity: 3,
            block_bytes: 64,
        };
        assert_eq!(three_way.sets(), 64);
        for (config, seed) in [
            (CacheConfig::l1_baseline(), 1),
            (CacheConfig::l2_bank_baseline(), 2),
            (three_way, 3),
        ] {
            check_against_reference(config, seed);
        }
    }
}
