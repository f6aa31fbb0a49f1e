//! A small set-associative read-only cache (texture-cache model).
//!
//! The paper's SpMV study binds the gathered vector `x` to the texture unit
//! ("+Cache" bars of Figure 12) but explicitly does *not* model the cache —
//! it measures. To regenerate that figure end-to-end we provide a simple
//! LRU set-associative model of the GT200 per-TPC texture L1 and attach it
//! to the timing simulator's vector loads. The cache model is this
//! reproduction's extension, not part of the paper's method.

/// A set-associative, LRU, read-only cache.
///
/// Addresses are byte addresses; a lookup touches the line containing the
/// address. There is no write path — GT200 texture caches are read-only and
/// unsnooped within a kernel launch.
#[derive(Debug, Clone)]
pub struct TexCache {
    line_bytes: u32,
    num_sets: u32,
    assoc: u32,
    /// `sets[s]` holds up to `assoc` tags, most-recently-used first.
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl TexCache {
    /// Create a cache of `size_bytes` with `line_bytes` lines and `assoc`
    /// ways. The GT200 per-TPC texture L1 is approximately 8 KB with 32-byte
    /// lines; see [`TexCache::gt200_tpc`].
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is divisible by `line_bytes * assoc` and
    /// the line size and set count are powers of two.
    pub fn new(size_bytes: u32, line_bytes: u32, assoc: u32) -> TexCache {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(assoc > 0, "associativity must be positive");
        assert_eq!(
            size_bytes % (line_bytes * assoc),
            0,
            "size must be a whole number of sets"
        );
        let num_sets = size_bytes / (line_bytes * assoc);
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        TexCache {
            line_bytes,
            num_sets,
            assoc,
            sets: vec![Vec::new(); num_sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    /// The GT200 per-TPC texture L1: 8 KB, 32-byte lines, 8-way.
    pub fn gt200_tpc() -> TexCache {
        TexCache::new(8 * 1024, 32, 8)
    }

    /// Look up the line containing `addr`; returns `true` on hit. Misses
    /// fill the line (LRU eviction).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / u64::from(self.line_bytes);
        let set = (line % u64::from(self.num_sets)) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            let tag = ways.remove(pos);
            ways.insert(0, tag);
            self.hits += 1;
            true
        } else {
            ways.insert(0, line);
            ways.truncate(self.assoc as usize);
            self.misses += 1;
            false
        }
    }

    /// Forget all contents and statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `0.0..=1.0` (0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = TexCache::gt200_tpc();
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(96)); // same 32-byte line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_miss_independently() {
        let mut c = TexCache::gt200_tpc();
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0));
        assert!(c.access(32));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        // 2 sets × 2 ways × 32 B lines = 128 B cache.
        let mut c = TexCache::new(128, 32, 2);
        // These three lines map to the same set (stride = 2 lines).
        assert!(!c.access(0));
        assert!(!c.access(128));
        assert!(!c.access(256)); // evicts line 0
        assert!(!c.access(0)); // line 0 gone
        assert!(c.access(256)); // still resident
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = TexCache::gt200_tpc();
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.access(0));
    }

    #[test]
    fn hit_rate_of_streaming_reuse() {
        let mut c = TexCache::gt200_tpc();
        // 1 KB working set fits comfortably: second pass is all hits.
        for pass in 0..2 {
            for a in (0..1024u64).step_by(4) {
                let hit = c.access(a);
                if pass == 1 {
                    assert!(hit);
                }
            }
        }
        assert!(c.hit_rate() > 0.8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        TexCache::new(96, 24, 2);
    }

    proptest! {
        /// Accessing the same address twice in a row always hits the second
        /// time, regardless of history.
        #[test]
        fn immediate_rereference_hits(addrs in proptest::collection::vec(0u64..65536, 1..200)) {
            let mut c = TexCache::gt200_tpc();
            for a in addrs {
                c.access(a);
                prop_assert!(c.access(a));
            }
        }

        /// hits + misses equals the number of accesses.
        #[test]
        fn accounting(addrs in proptest::collection::vec(0u64..65536, 0..200)) {
            let mut c = TexCache::gt200_tpc();
            for &a in &addrs {
                c.access(a);
            }
            prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
        }
    }
}
