//! The memory transaction simulator: CUDA compute-1.2/1.3 coalescing.
//!
//! Paper §4.3 states the protocol the GT200 coalescer uses for each
//! half-warp:
//!
//! 1. find the memory segment that contains the address requested by the
//!    lowest-numbered (pending) thread;
//! 2. find all other threads whose requested address is in this segment;
//! 3. reduce the segment size if possible;
//! 4. repeat until all threads in the half-warp are served.
//!
//! The minimum segment CUDA supports for floats is 32 bytes; the paper's
//! Figure 11 additionally simulates hypothetical 16-byte and 4-byte
//! granularities, which [`CoalesceConfig::min_segment`] exposes.

use std::fmt;

/// Coalescer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoalesceConfig {
    /// Smallest transaction the memory system can issue, bytes
    /// (power of two). GT200: 32. Paper Figure 11 also uses 16 and 4.
    pub min_segment: u32,
    /// Largest transaction / initial segment size, bytes (power of two).
    /// GT200: 128 for 4-byte and wider words.
    pub max_segment: u32,
}

impl CoalesceConfig {
    /// The real GT200 coalescer: 128-byte segments, 32-byte minimum.
    pub fn gt200() -> CoalesceConfig {
        CoalesceConfig {
            min_segment: 32,
            max_segment: 128,
        }
    }

    /// GT200 segments with a hypothetical smaller minimum transaction
    /// (paper Figure 11's 16-byte and 4-byte experiments).
    ///
    /// # Panics
    ///
    /// Panics if `min_segment` is not a power of two or exceeds
    /// `max_segment`.
    pub fn with_min_segment(min_segment: u32) -> CoalesceConfig {
        let cfg = CoalesceConfig {
            min_segment,
            max_segment: 128,
        };
        cfg.check();
        cfg
    }

    fn check(self) {
        assert!(
            self.min_segment.is_power_of_two() && self.max_segment.is_power_of_two(),
            "segment sizes must be powers of two"
        );
        assert!(
            self.min_segment <= self.max_segment,
            "min_segment must not exceed max_segment"
        );
    }
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig::gt200()
    }
}

/// One hardware memory transaction: an aligned power-of-two segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Segment base address (aligned to `size`).
    pub base: u64,
    /// Segment size in bytes (power of two).
    pub size: u32,
}

impl Transaction {
    /// Returns `true` if the byte range `[addr, addr + len)` lies inside
    /// this segment.
    pub fn contains(&self, addr: u64, len: u32) -> bool {
        addr >= self.base && addr + u64::from(len) <= self.base + u64::from(self.size)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}; {} B]", self.base, self.size)
    }
}

/// Run the coalescing protocol for one half-warp.
///
/// `accesses[i]` is lane *i*'s request as `(byte_address, width_bytes)`,
/// or `None` for an inactive lane. Typically 16 entries, at most 32.
///
/// Returns the hardware transactions in issue order.
///
/// # Panics
///
/// Panics if `accesses` has more than 32 lanes, or an access is wider
/// than `cfg.max_segment` or not naturally aligned — the GT200 requires
/// natural alignment for global accesses, and the functional simulator
/// enforces it before calling here.
pub fn coalesce_half_warp(
    accesses: &[Option<(u64, u32)>],
    cfg: CoalesceConfig,
) -> Vec<Transaction> {
    cfg.check();
    assert!(accesses.len() <= 32, "a half-warp has at most 32 lanes");
    let mut lanes = [(0u64, 0u32); 32];
    let mut n = 0usize;
    for a in accesses.iter().flatten() {
        lanes[n] = *a;
        n += 1;
    }
    let pending = &mut lanes[..n];
    for &(addr, len) in pending.iter() {
        assert!(
            len > 0 && len <= cfg.max_segment,
            "access width {len} unsupported"
        );
        assert!(
            len.is_power_of_two() && addr % u64::from(len) == 0,
            "access at {addr:#x} is not naturally aligned to {len}"
        );
    }
    let mut out = Vec::new();
    segment_spans(pending, cfg.max_segment, |span| {
        out.push(span.reduce(cfg.min_segment))
    });
    out
}

/// One segment of a half-warp request after steps 1–2 of the protocol:
/// the aligned maximum-size segment, and the byte span `[lo, hi)` that
/// the lanes it serves actually touch.
///
/// Steps 1–2 depend only on the maximum segment size, so one pass serves
/// every minimum granularity that shares it (the functional simulator
/// evaluates the 32-, 16- and 4-byte systems of paper Figure 11 from the
/// same spans); [`SegmentSpan::reduce`] is step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpan {
    /// Base of the aligned maximum-size segment.
    pub base: u64,
    /// The maximum segment size, bytes.
    pub size: u32,
    /// Lowest byte a served lane touches.
    pub lo: u64,
    /// One past the highest byte a served lane touches.
    pub hi: u64,
}

impl SegmentSpan {
    /// Step 3: halve the segment while the used bytes fit in an aligned
    /// half, down to `min_segment`.
    pub fn reduce(self, min_segment: u32) -> Transaction {
        let (mut base, mut size) = (self.base, self.size);
        let used = (self.hi - self.lo) as u32;
        while size > min_segment {
            let half = size / 2;
            let lower = Transaction { base, size: half };
            let upper = Transaction {
                base: base + u64::from(half),
                size: half,
            };
            if lower.contains(self.lo, used) {
                size = half;
            } else if upper.contains(self.lo, used) {
                base += u64::from(half);
                size = half;
            } else {
                break;
            }
        }
        Transaction { base, size }
    }
}

/// Steps 1, 2 and 4 of the protocol for one half-warp: `pending` holds the
/// active lanes' `(byte_address, width_bytes)` requests in lane order, and
/// `emit` receives one [`SegmentSpan`] per segment, in issue order.
/// `pending` is used as scratch (unserved requests are compacted in
/// place).
///
/// Callers guarantee what [`coalesce_half_warp`] asserts: `max_segment`
/// and every width are powers of two, no width exceeds `max_segment`,
/// and every address is naturally aligned.
pub fn segment_spans(
    pending: &mut [(u64, u32)],
    max_segment: u32,
    mut emit: impl FnMut(SegmentSpan),
) {
    debug_assert!(max_segment.is_power_of_two());
    let mut n = pending.len();
    while n > 0 {
        // 1. Aligned max-size segment containing the lowest lane's address.
        let base = pending[0].0 & !(u64::from(max_segment) - 1);
        let seg = Transaction {
            base,
            size: max_segment,
        };

        // 2. Serve every pending access that fits entirely in the segment,
        //    compacting the unserved ones in place (order preserved).
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut kept = 0usize;
        for i in 0..n {
            let (a, l) = pending[i];
            if seg.contains(a, l) {
                lo = lo.min(a);
                hi = hi.max(a + u64::from(l));
            } else {
                pending[kept] = (a, l);
                kept += 1;
            }
        }
        debug_assert!(kept < n, "the lowest pending lane is always served");
        n = kept;
        emit(SegmentSpan {
            base,
            size: max_segment,
            lo,
            hi,
        });
    }
}

/// Total bytes moved by a transaction list.
pub fn total_bytes(txs: &[Transaction]) -> u64 {
    txs.iter().map(|t| u64::from(t.size)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lanes(addrs: &[u64]) -> Vec<Option<(u64, u32)>> {
        addrs.iter().map(|&a| Some((a, 4))).collect()
    }

    #[test]
    fn contiguous_floats_coalesce_to_one_64b_transaction() {
        let acc = lanes(&(0..16).map(|i| i * 4).collect::<Vec<_>>());
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs, vec![Transaction { base: 0, size: 64 }]);
    }

    #[test]
    fn contiguous_floats_with_offset_still_one_transaction() {
        // Half-warp at byte 64: aligned 64-byte chunk of the 128-byte segment.
        let acc = lanes(&(0..16).map(|i| 64 + i * 4).collect::<Vec<_>>());
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs, vec![Transaction { base: 64, size: 64 }]);
    }

    #[test]
    fn misaligned_block_needs_full_segment() {
        // 16 floats starting at byte 32: spans bytes 32..96 — fits in the
        // 128-byte segment but in neither aligned half exclusively → one
        // 128-byte transaction.
        let acc = lanes(&(0..16).map(|i| 32 + i * 4).collect::<Vec<_>>());
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs, vec![Transaction { base: 0, size: 128 }]);
    }

    #[test]
    fn broadcast_reduces_to_minimum_segment() {
        let acc = lanes(&[400; 16]);
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(
            txs,
            vec![Transaction {
                base: 384,
                size: 32
            }]
        );
    }

    #[test]
    fn broadcast_with_4b_granularity_reduces_further() {
        let acc = lanes(&[400; 16]);
        let txs = coalesce_half_warp(&acc, CoalesceConfig::with_min_segment(4));
        assert_eq!(txs, vec![Transaction { base: 400, size: 4 }]);
    }

    #[test]
    fn stride_two_uses_one_wasteful_128b_transaction() {
        // Stride-2 floats span the whole 128-byte segment (compute 1.2
        // behaviour: one transaction, half the bytes wasted).
        let acc = lanes(&(0..16).map(|i| i * 8).collect::<Vec<_>>());
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs, vec![Transaction { base: 0, size: 128 }]);
    }

    #[test]
    fn large_stride_serializes_per_lane() {
        // Stride 128: every lane in its own segment → 16 transactions of 32 B.
        let acc = lanes(&(0..16).map(|i| i * 128).collect::<Vec<_>>());
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs.len(), 16);
        assert!(txs.iter().all(|t| t.size == 32));
    }

    #[test]
    fn reversed_order_is_equally_coalesced() {
        let fwd = lanes(&(0..16).map(|i| i * 4).collect::<Vec<_>>());
        let rev = lanes(&(0..16).rev().map(|i| i * 4).collect::<Vec<_>>());
        let cfg = CoalesceConfig::gt200();
        assert_eq!(
            total_bytes(&coalesce_half_warp(&fwd, cfg)),
            total_bytes(&coalesce_half_warp(&rev, cfg))
        );
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let mut acc = lanes(&(0..16).map(|i| i * 4).collect::<Vec<_>>());
        for slot in acc.iter_mut().skip(8) {
            *slot = None;
        }
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(txs, vec![Transaction { base: 0, size: 32 }]);
    }

    #[test]
    fn no_active_lanes_no_transactions() {
        let acc = vec![None; 16];
        assert!(coalesce_half_warp(&acc, CoalesceConfig::gt200()).is_empty());
    }

    #[test]
    fn wide_accesses_count_their_full_footprint() {
        // 16 lanes × 16-byte vectors = 256 bytes → two 128-byte transactions.
        let acc: Vec<_> = (0..16u64).map(|i| Some((i * 16, 16u32))).collect();
        let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
        assert_eq!(
            txs,
            vec![
                Transaction { base: 0, size: 128 },
                Transaction {
                    base: 128,
                    size: 128
                }
            ]
        );
    }

    #[test]
    fn one_span_reduces_to_every_granularity() {
        // Steps 1–2 once, step 3 per granularity: the three transactions
        // of a 16-lane broadcast at byte 400.
        let mut pending = [(400u64, 4u32); 16];
        let mut spans = Vec::new();
        segment_spans(&mut pending, 128, |s| spans.push(s));
        assert_eq!(
            spans,
            vec![SegmentSpan {
                base: 384,
                size: 128,
                lo: 400,
                hi: 404
            }]
        );
        let reduced: Vec<Transaction> = [32, 16, 4].map(|m| spans[0].reduce(m)).to_vec();
        assert_eq!(
            reduced,
            vec![
                Transaction {
                    base: 384,
                    size: 32
                },
                Transaction {
                    base: 400,
                    size: 16
                },
                Transaction { base: 400, size: 4 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "not naturally aligned")]
    fn misaligned_access_rejected() {
        coalesce_half_warp(&[Some((2, 4))], CoalesceConfig::gt200());
    }

    // ---- Properties ----

    fn arb_access() -> impl Strategy<Value = Option<(u64, u32)>> {
        proptest::option::of(
            (0u64..4096, prop_oneof![Just(4u32), Just(8), Just(16)]).prop_map(|(word, w)| {
                // Natural alignment.
                (word / u64::from(w) * u64::from(w) * 4 % 16384, w)
            }),
        )
        .prop_map(|o| o.map(|(a, w)| (a / u64::from(w) * u64::from(w), w)))
    }

    fn arb_half_warp() -> impl Strategy<Value = Vec<Option<(u64, u32)>>> {
        proptest::collection::vec(arb_access(), 16)
    }

    proptest! {
        /// Every requested byte is covered by some transaction.
        #[test]
        fn coverage(acc in arb_half_warp()) {
            let txs = coalesce_half_warp(&acc, CoalesceConfig::gt200());
            for (a, l) in acc.iter().flatten() {
                prop_assert!(
                    txs.iter().any(|t| t.contains(*a, *l)),
                    "access {a:#x}+{l} not covered by {txs:?}"
                );
            }
        }

        /// Transactions are aligned powers of two within configured bounds,
        /// and there are at most as many as active lanes.
        #[test]
        fn well_formed(acc in arb_half_warp(),
                       min_seg in prop_oneof![Just(4u32), Just(16), Just(32)]) {
            let cfg = CoalesceConfig::with_min_segment(min_seg);
            let txs = coalesce_half_warp(&acc, cfg);
            let active = acc.iter().flatten().count();
            prop_assert!(txs.len() <= active.max(1));
            for t in &txs {
                prop_assert!(t.size.is_power_of_two());
                prop_assert!(t.size >= cfg.min_segment && t.size <= cfg.max_segment);
                prop_assert_eq!(t.base % u64::from(t.size), 0);
            }
        }

        /// A finer minimum granularity never moves more bytes (the mechanism
        /// behind the paper's Figure 11 improvement).
        #[test]
        fn monotone_in_granularity(acc in arb_half_warp()) {
            let b32 = total_bytes(&coalesce_half_warp(&acc, CoalesceConfig::with_min_segment(32)));
            let b16 = total_bytes(&coalesce_half_warp(&acc, CoalesceConfig::with_min_segment(16)));
            let b4 = total_bytes(&coalesce_half_warp(&acc, CoalesceConfig::with_min_segment(4)));
            prop_assert!(b4 <= b16 && b16 <= b32);
        }

        /// The per-lane access order within the half-warp does not change
        /// the total bytes moved.
        #[test]
        fn permutation_invariant_bytes(acc in arb_half_warp(), seed in 0u64..1000) {
            let cfg = CoalesceConfig::gt200();
            let base_bytes = total_bytes(&coalesce_half_warp(&acc, cfg));
            let mut shuffled = acc.clone();
            // Cheap deterministic shuffle.
            let n = shuffled.len();
            for i in 0..n {
                let j = (seed as usize + i * 7) % n;
                shuffled.swap(i, j);
            }
            prop_assert_eq!(total_bytes(&coalesce_half_warp(&shuffled, cfg)), base_bytes);
        }
    }
}
