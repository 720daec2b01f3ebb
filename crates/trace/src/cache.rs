//! Set-associative cache hierarchy — the filter between CPU accesses
//! and DRAM activations.
//!
//! Table I simulates 4 cores with 64 KB L1 and 256 KB L2 caches; the
//! attacker defeats them with cache flushing (`CLFLUSH`), which is what
//! makes row hammering possible from software.  This module provides
//! LRU set-associative caches and a two-level hierarchy so the
//! access-level workload model in [`crate::cpu`] produces its DRAM
//! activation stream the same way the paper's gem5 setup did: only
//! cache *misses* (and flushed lines) reach the memory controller.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Table I's L1: 64 KB, 64 B lines, 8-way.
    pub fn paper_l1() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Table I's L2: 256 KB, 64 B lines, 8-way.
    pub fn paper_l2() -> Self {
        CacheConfig {
            capacity_bytes: 256 * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity_bytes / self.line_bytes / self.ways
    }
}

/// `(x / d, x % d)`, by shift and mask when `d` is a power of two —
/// Table I's set counts and the paper geometry's bank, row and line
/// counts all are, and a hardware divide costs tens of cycles.
#[inline]
pub(crate) fn div_rem(x: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

/// An LRU set-associative cache over line addresses.
///
/// ```
/// use mem_trace::cache::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(CacheConfig::paper_l1());
/// assert!(!cache.access(0x100)); // cold miss
/// assert!(cache.access(0x100)); // hit
/// cache.flush(0x100);           // CLFLUSH
/// assert!(!cache.access(0x100)); // miss again
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Set count (`config.sets()`, hoisted out of every lookup).
    sets: u64,
    /// Associativity, as an index stride.
    ways: usize,
    /// One flat `sets × ways` tag array: set `s` owns
    /// `tags[s * ways..][..lens[s]]`, most recently used first.
    tags: Vec<u64>,
    /// Valid tags per set.
    lens: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero ways or a
    /// capacity that is not a multiple of `line_bytes × ways`).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways > 0 && config.line_bytes > 0, "degenerate cache");
        assert!(config.sets() > 0, "cache smaller than one set");
        let ways = config.ways as usize;
        let sets = config.sets();
        Cache {
            config,
            sets: u64::from(sets),
            ways,
            tags: vec![0; sets as usize * ways],
            lens: vec![0; sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "reduced modulo the set count, which itself came from a u32"
    )]
    fn set_index(&self, line: u64) -> usize {
        div_rem(line, self.sets).1 as usize
    }

    /// The set holding `line`: its whole way array and valid length.
    fn set_of(&mut self, line: u64) -> (&mut [u64], &mut usize) {
        let set = self.set_index(line);
        let ways = self.ways;
        (&mut self.tags[set * ways..][..ways], &mut self.lens[set])
    }

    /// Accesses `line`; returns `true` on a hit.  Misses insert the line
    /// (LRU eviction).
    pub fn access(&mut self, line: u64) -> bool {
        let (stack, len) = self.set_of(line);
        let hit = match stack[..*len].iter().position(|&t| t == line) {
            // Move to front.
            Some(pos) => {
                stack.copy_within(..pos, 1);
                true
            }
            // Insert at the front; a full set drops its LRU tag.
            None => {
                let keep = (*len).min(stack.len() - 1);
                stack.copy_within(..keep, 1);
                *len = keep + 1;
                false
            }
        };
        stack[0] = line;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Probes without updating recency or statistics.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_index(line);
        self.tags[set * self.ways..][..self.lens[set]].contains(&line)
    }

    /// Removes `line` (the attacker's `CLFLUSH`).
    pub fn flush(&mut self, line: u64) {
        let (stack, len) = self.set_of(line);
        // A set never holds a tag twice: only misses insert.
        if let Some(pos) = stack[..*len].iter().position(|&t| t == line) {
            stack.copy_within(pos + 1..*len, pos);
            *len -= 1;
        }
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }
}

/// A two-level inclusive hierarchy (per core, as in Table I).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Table I's per-core hierarchy.
    pub fn paper() -> Self {
        CacheHierarchy {
            l1: Cache::new(CacheConfig::paper_l1()),
            l2: Cache::new(CacheConfig::paper_l2()),
        }
    }

    /// Accesses a line; returns `true` if the access missed *both*
    /// levels and therefore reaches DRAM.
    pub fn access_misses_to_dram(&mut self, line: u64) -> bool {
        if self.l1.access(line) {
            return false;
        }
        if self.l2.access(line) {
            return false; // L2 hit fills L1 (already inserted above)
        }
        true
    }

    /// Flushes a line from both levels (`CLFLUSH` semantics).
    pub fn flush(&mut self, line: u64) {
        self.l1.flush(line);
        self.l2.flush(line);
    }

    /// The L1 level.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 level.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference LRU: per-set tag stacks, most recently used first.
    struct Model {
        sets: Vec<Vec<u64>>,
        ways: usize,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn new(config: CacheConfig) -> Self {
            Model {
                sets: vec![Vec::new(); config.sets() as usize],
                ways: config.ways as usize,
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[usize::try_from(line % n).unwrap()]
        }

        fn access(&mut self, line: u64) -> bool {
            let ways = self.ways;
            let stack = self.set(line);
            let hit = if let Some(pos) = stack.iter().position(|&t| t == line) {
                stack.remove(pos);
                true
            } else {
                false
            };
            stack.insert(0, line);
            stack.truncate(ways);
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            hit
        }

        fn contains(&mut self, line: u64) -> bool {
            self.set(line).contains(&line)
        }

        fn flush(&mut self, line: u64) {
            self.set(line).retain(|&t| t != line);
        }

        fn agrees(&mut self, cache: &Cache, line: u64) -> bool {
            self.contains(line) == cache.contains(line)
                && self.hits == cache.hits()
                && self.misses == cache.misses()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One cache level tracks the reference LRU through any mix of
        /// accesses and flushes.
        #[test]
        fn cache_matches_reference_lru(
            ways in 1u32..=4,
            sets in 1u32..=4,
            ops in proptest::collection::vec((any::<bool>(), 0u64..24), 0..200),
        ) {
            let config = CacheConfig { capacity_bytes: 64 * ways * sets, line_bytes: 64, ways };
            let mut cache = Cache::new(config);
            let mut model = Model::new(config);
            for (flush, line) in ops {
                if flush {
                    cache.flush(line);
                    model.flush(line);
                } else {
                    prop_assert_eq!(cache.access(line), model.access(line), "line {}", line);
                }
                prop_assert!(model.agrees(&cache, line), "after line {}", line);
            }
        }

        /// The paper hierarchy tracks two reference levels; the lines
        /// crowd a few L1 and L2 sets, so both levels evict.
        #[test]
        fn hierarchy_matches_reference_lru(
            ops in proptest::collection::vec((any::<bool>(), 0u64..3, 0u64..48), 0..400),
        ) {
            let mut h = CacheHierarchy::paper();
            let mut l1 = Model::new(CacheConfig::paper_l1());
            let mut l2 = Model::new(CacheConfig::paper_l2());
            for (flush, offset, stride) in ops {
                let line = offset + 128 * stride;
                if flush {
                    h.flush(line);
                    l1.flush(line);
                    l2.flush(line);
                } else {
                    let to_dram = !l1.access(line) && !l2.access(line);
                    prop_assert_eq!(h.access_misses_to_dram(line), to_dram, "line {}", line);
                }
                prop_assert!(l1.agrees(h.l1(), line), "L1 after line {}", line);
                prop_assert!(l2.agrees(h.l2(), line), "L2 after line {}", line);
            }
        }
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 512);
    }

    #[test]
    fn lru_evicts_oldest() {
        let config = CacheConfig {
            capacity_bytes: 2 * 64,
            line_bytes: 64,
            ways: 2,
        };
        let mut c = Cache::new(config); // 1 set, 2 ways
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU
        c.access(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn hit_rate_tracks_reuse() {
        let mut c = Cache::new(CacheConfig::paper_l1());
        for _ in 0..10 {
            c.access(42);
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 9);
        assert!((c.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn flush_forces_next_access_to_miss() {
        let mut c = Cache::new(CacheConfig::paper_l1());
        c.access(7);
        c.flush(7);
        assert!(!c.contains(7));
        assert!(!c.access(7));
    }

    #[test]
    fn hierarchy_filters_two_levels() {
        let mut h = CacheHierarchy::paper();
        assert!(h.access_misses_to_dram(100)); // cold
        assert!(!h.access_misses_to_dram(100)); // L1 hit
                                                // Evict from tiny L1 by conflict, keep in L2: lines mapping to
                                                // the same L1 set are 128 apart.
        for k in 1..=8 {
            h.access_misses_to_dram(100 + k * 128);
        }
        assert!(!h.l1().contains(100));
        // L2 still has it: no DRAM access.
        assert!(!h.access_misses_to_dram(100));
    }

    #[test]
    fn hierarchy_flush_reaches_both_levels() {
        let mut h = CacheHierarchy::paper();
        h.access_misses_to_dram(5);
        h.flush(5);
        assert!(h.access_misses_to_dram(5));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let config = CacheConfig {
            capacity_bytes: 4 * 64,
            line_bytes: 64,
            ways: 1,
        };
        let mut c = Cache::new(config); // 4 sets, direct mapped
        c.access(0);
        c.access(1);
        c.access(2);
        c.access(3);
        for line in 0..4 {
            assert!(c.contains(line));
        }
        c.access(4); // conflicts with 0 only
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_ways_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 64,
            line_bytes: 64,
            ways: 0,
        });
    }
}
