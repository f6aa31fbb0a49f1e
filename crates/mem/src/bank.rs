//! Shared-memory bank-conflict calculator (paper §4.2).
//!
//! GT200 shared memory has 16 banks of 4-byte words; adjacent words live in
//! adjacent banks. A half-warp access in which multiple lanes touch
//! *different words of the same bank* serializes: the access costs as many
//! transactions as the most-contended bank has distinct words. Lanes reading
//! the *same* word broadcast and do not conflict.
//!
//! The paper counts shared-memory traffic in **warp-equivalent
//! transactions**: a conflict-free full-warp access (two conflict-free
//! half-warps) counts as 1. [`bank_transactions`] returns half-warp
//! transactions; a full warp costs the sum of its two half-warps, divided
//! by 2 for the paper's unit (the simulator's statistics do this
//! normalization).

/// Shared-memory geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankConfig {
    /// Number of banks. GT200: 16.
    pub banks: u32,
    /// Bank word width in bytes. GT200: 4.
    pub width: u32,
    /// Lanes per half-warp (the conflict-resolution granularity). GT200: 16.
    pub half_warp: usize,
}

impl BankConfig {
    /// The GT200 configuration: 16 banks × 4 bytes, 16-lane half-warps.
    pub fn gt200() -> BankConfig {
        BankConfig {
            banks: 16,
            width: 4,
            half_warp: 16,
        }
    }

    /// A hypothetical prime-bank configuration (the paper's §5.2
    /// architectural suggestion: "change the number of shared memory banks
    /// from 16 to a prime number to avoid bank conflicts").
    pub fn with_banks(banks: u32) -> BankConfig {
        BankConfig {
            banks,
            width: 4,
            half_warp: 16,
        }
    }
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig::gt200()
    }
}

/// Number of serialized transactions needed for one **half-warp** access.
///
/// `addrs[i]` is lane *i*'s byte address into shared memory, `None` for
/// inactive lanes. Returns 0 when no lane is active, 1 for a conflict-free
/// or broadcast access, and up to `banks` for the worst case.
///
/// # Panics
///
/// Panics if `addrs` has more than 32 lanes or an address does not fit
/// 32 bits.
pub fn bank_transactions(addrs: &[Option<u64>], cfg: BankConfig) -> u32 {
    let (row, active) = lane_row(addrs);
    bank_degree(&row[..addrs.len()], active, cfg)
}

/// Lanes a row-wise degree function accepts (bits of its `active` mask).
const ROW_LANES: usize = 32;

/// Split an `Option` lane list into an address row and an active-lane
/// mask.
///
/// # Panics
///
/// Panics if `addrs` has more than [`ROW_LANES`] lanes or an address
/// does not fit 32 bits.
fn lane_row(addrs: &[Option<u64>]) -> ([u32; ROW_LANES], u32) {
    assert!(addrs.len() <= ROW_LANES, "a half-warp has at most 32 lanes");
    let mut row = [0u32; ROW_LANES];
    let mut active = 0u32;
    for (i, a) in addrs.iter().enumerate() {
        if let Some(a) = a {
            row[i] = u32::try_from(*a).expect("shared-memory addresses fit 32 bits");
            active |= 1 << i;
        }
    }
    (row, active)
}

/// Word and bank arithmetic of a [`BankConfig`], with shifts and masks in
/// place of division for the power-of-two geometries real parts have.
struct Geometry {
    width: u32,
    banks: u32,
    width_shift: Option<u32>,
    bank_shift: Option<u32>,
}

impl Geometry {
    fn new(cfg: BankConfig) -> Geometry {
        let (width, banks) = (cfg.width, cfg.banks);
        Geometry {
            width,
            banks,
            width_shift: width.is_power_of_two().then(|| width.trailing_zeros()),
            bank_shift: banks.is_power_of_two().then(|| banks.trailing_zeros()),
        }
    }

    #[inline]
    fn word(&self, addr: u32) -> u32 {
        match self.width_shift {
            Some(s) => addr >> s,
            None => addr / self.width,
        }
    }

    #[inline]
    fn bank(&self, word: u32) -> u32 {
        match self.bank_shift {
            Some(q) => word & ((1 << q) - 1),
            None => word % self.banks,
        }
    }

    /// The degree of a fully active row of `n` lanes at `a0 + l·stride`
    /// bytes (wrapping), when the geometry is a power of two both ways,
    /// and `None` when the closed form does not apply.
    ///
    /// With width `2^p`, `2^q` banks and `stride = 2^p·t`, lane `l`
    /// reads word `w0 + l·t` (mod `2^(32−p)`) in bank `(w0 + l·t) mod 2^q`.
    /// Lanes `l` and `m` share a bank iff `(l − m)·t ≡ 0 (mod 2^q)`,
    /// that is iff `l ≡ m (mod 2^q/g)` with `g = gcd(t mod 2^q, 2^q)
    /// = 2^min(v2(t), q)`; the most-loaded bank holds `⌈n·g/2^q⌉` lanes.
    /// Those lanes read distinct words iff no lane distance `d < n` has
    /// `d·stride ≡ 0 (mod 2^32)`, which holds when `v2(stride) ≤ 27` and
    /// `n ≤ 32` (`v2(d) ≤ 4`). For 16 banks of 4 B and 16 lanes the
    /// degree is `gcd((stride/4) mod 16, 16)`.
    #[inline(always)]
    fn affine_degree(&self, n: u32, stride: u32) -> Option<u32> {
        let (p, q) = (self.width_shift?, self.bank_shift?);
        let v = stride.trailing_zeros();
        if v < p || v > 27 || p + q > 32 {
            // Not word-aligned, may wrap back onto a lane's word, or
            // banks wider than the address space.
            return None;
        }
        let g = (v - p).min(q);
        Some((u64::from(n) << g).div_ceil(1 << q) as u32)
    }
}

/// Iterate the set bits of `mask`, lowest first.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// [`bank_transactions`] for a half-warp given as a row of 32-bit byte
/// addresses and a mask of its active lanes (bit *i* set: lane *i*
/// accesses `addrs[i]`; inactive lanes' entries are ignored).
///
/// This is the functional simulator's form: it runs for every half-warp
/// of every shared-memory instruction, so it never allocates, and
/// branch-free passes over the lanes answer the common patterns without
/// a sort: every lane on one word (a broadcast, 1), a fully active
/// affine row `a0 + l·s` on a power-of-two geometry (in closed form, see
/// `Geometry::affine_degree`), and every lane in its own bank (a bank
/// bitmask, 1). Only a conflicted row that is not affine sorts one key
/// per active lane, so no access costs more than a sort of 32 keys,
/// whatever the geometry. Debug builds check every answer without a
/// sort against the sort.
///
/// # Panics
///
/// Panics if `addrs` has more than 32 lanes or `active` names a lane
/// past its end.
pub fn bank_degree(addrs: &[u32], active: u32, cfg: BankConfig) -> u32 {
    debug_assert!(cfg.banks > 0 && cfg.width > 0);
    assert!(addrs.len() <= ROW_LANES, "a half-warp has at most 32 lanes");
    let all = u32::MAX.checked_shr(32 - addrs.len() as u32).unwrap_or(0);
    assert_eq!(active & !all, 0, "an active lane past the row");
    if active == 0 {
        return 0;
    }
    let geometry = Geometry::new(cfg);
    let full = active == all;
    // An instance for power-of-two geometries and 16-lane half-warps (the
    // simulator's), so the passes unroll.
    let quick = match (geometry.width_shift, geometry.bank_shift) {
        (Some(p), Some(q)) => {
            let bank = |a: u32| (a >> p) & ((1 << q) - 1);
            match addrs.len() {
                16 => quick_degree(&addrs[..16], active, full, &geometry, bank),
                _ => quick_degree(addrs, active, full, &geometry, bank),
            }
        }
        _ => quick_degree(addrs, active, full, &geometry, |a| {
            geometry.bank(geometry.word(a))
        }),
    };
    match quick {
        Some(d) => {
            debug_assert_eq!(d, sorted_degree(addrs, active, &geometry));
            d
        }
        None => sorted_degree(addrs, active, &geometry),
    }
}

/// [`bank_degree`] without a sort, `None` for a conflicted row that is
/// not affine. `bank` maps an address to its bank; `active` is not 0,
/// and `full` when it names every lane of `addrs`.
///
/// A fully active row takes one branch-free pass for a broadcast and an
/// affine row (plain `xor`/`or` over the lanes, which vectorizes), then,
/// if it is neither, one over the same words for the bank bitmask. A
/// partial row takes one pass for a broadcast and the bitmask. A 64-bit
/// mask holds 64 banks; more alias, which can only make lanes in
/// distinct banks look shared, so the answer stays exact.
#[inline(always)]
fn quick_degree(
    addrs: &[u32],
    active: u32,
    full: bool,
    geometry: &Geometry,
    bank: impl Fn(u32) -> u32,
) -> Option<u32> {
    let first = addrs[active.trailing_zeros() as usize];
    let mut seen = 0u64;
    if full {
        let stride = addrs.get(1).map_or(0, |a| a.wrapping_sub(first));
        let (mut spread, mut bent) = (0u32, 0u32);
        for (&a, &next) in addrs.iter().zip(&addrs[1..]) {
            spread |= a ^ first;
            bent |= next.wrapping_sub(a) ^ stride;
        }
        spread |= addrs[addrs.len() - 1] ^ first;
        if spread == 0 {
            return Some(1); // one address: a broadcast
        }
        if bent == 0 {
            if let Some(d) = geometry.affine_degree(addrs.len() as u32, stride) {
                return Some(d);
            }
        }
        for &a in addrs {
            seen |= 1 << (bank(a) & 63);
        }
    } else {
        let mut spread = 0u32;
        for (l, &a) in addrs.iter().enumerate() {
            let on = active >> l & 1;
            spread |= (a ^ first) & 0u32.wrapping_sub(on);
            seen |= u64::from(on) << (bank(a) & 63);
        }
        if spread == 0 {
            return Some(1);
        }
    }
    // Every lane in its own bank.
    (seen.count_ones() == active.count_ones()).then_some(1)
}

/// [`bank_degree`] by its definition: the most distinct words in one
/// bank. Same-word lanes broadcast, so sort one `bank << 32 | word` key
/// per active lane and drop duplicates: each bank's distinct words are
/// then one run of keys.
fn sorted_degree(addrs: &[u32], active: u32, geometry: &Geometry) -> u32 {
    let mut keys = [0u64; ROW_LANES];
    let mut n = 0usize;
    for i in lanes(active) {
        let word = geometry.word(addrs[i]);
        keys[n] = u64::from(geometry.bank(word)) << 32 | u64::from(word);
        n += 1;
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    let (mut worst, mut run) = (u32::from(n > 0), 1u32);
    for pair in keys.windows(2) {
        if pair[0] != pair[1] {
            run = if pair[0] >> 32 == pair[1] >> 32 {
                run + 1
            } else {
                1
            };
            worst = worst.max(run);
        }
    }
    worst
}

/// Number of serialized transactions for one **half-warp** of shared-memory
/// *atomic* read-modify-write accesses.
///
/// Unlike plain loads ([`bank_transactions`]), same-word lanes do **not**
/// broadcast: every lane performs its own read-modify-write, so lanes
/// hitting the same word — or different words of the same bank — serialize
/// lane by lane. The degree is therefore the deepest bank's *lane* count,
/// reaching the active-lane count when every lane hammers one address (the
/// `atomic_hotspot` worst case).
///
/// # Panics
///
/// Same contract as [`bank_transactions`].
pub fn atomic_bank_transactions(addrs: &[Option<u64>], cfg: BankConfig) -> u32 {
    let (row, active) = lane_row(addrs);
    atomic_bank_degree(&row[..addrs.len()], active, cfg)
}

/// [`atomic_bank_transactions`] for an address row and active-lane mask,
/// like [`bank_degree`]. Never allocates.
///
/// # Panics
///
/// Panics if `addrs` has more than 32 lanes or `active` names a lane
/// past its end.
pub fn atomic_bank_degree(addrs: &[u32], active: u32, cfg: BankConfig) -> u32 {
    debug_assert!(cfg.banks > 0 && cfg.width > 0);
    assert!(addrs.len() <= ROW_LANES, "a half-warp has at most 32 lanes");
    // At most 32 lanes land in at most 32 distinct banks.
    let mut banks = [0u32; ROW_LANES];
    let mut depth = [0u32; ROW_LANES];
    let mut n = 0usize;
    let geometry = Geometry::new(cfg);
    for i in lanes(active) {
        let bank = geometry.bank(geometry.word(addrs[i]));
        match banks[..n].iter().position(|b| *b == bank) {
            Some(k) => depth[k] += 1,
            None => {
                banks[n] = bank;
                depth[n] = 1;
                n += 1;
            }
        }
    }
    depth[..n].iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hw(addrs: &[u64]) -> Vec<Option<u64>> {
        addrs.iter().copied().map(Some).collect()
    }

    fn stride_access(stride: u64, lanes: u64) -> Vec<Option<u64>> {
        hw(&(0..lanes).map(|i| i * stride * 4).collect::<Vec<_>>())
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(
            bank_transactions(&stride_access(1, 16), BankConfig::gt200()),
            1
        );
    }

    #[test]
    fn stride_two_is_two_way() {
        // Cyclic reduction step 1 (paper Figure 5): stride-2 → 2-way.
        assert_eq!(
            bank_transactions(&stride_access(2, 16), BankConfig::gt200()),
            2
        );
    }

    #[test]
    fn power_of_two_strides_double_conflicts() {
        // Paper §5.2: conflicts double every CR step until the 16-way cap.
        let cfg = BankConfig::gt200();
        assert_eq!(bank_transactions(&stride_access(4, 16), cfg), 4);
        assert_eq!(bank_transactions(&stride_access(8, 16), cfg), 8);
        assert_eq!(bank_transactions(&stride_access(16, 16), cfg), 16);
        assert_eq!(bank_transactions(&stride_access(32, 16), cfg), 16);
    }

    #[test]
    fn broadcast_is_free() {
        assert_eq!(bank_transactions(&hw(&[64; 16]), BankConfig::gt200()), 1);
    }

    #[test]
    fn same_bank_different_words_serialize() {
        // Paper §4.2's example: 3 threads reading different words of one
        // bank → 3 transactions.
        let addrs = hw(&[0, 64, 128]);
        assert_eq!(bank_transactions(&addrs, BankConfig::gt200()), 3);
    }

    #[test]
    fn odd_stride_is_conflict_free() {
        let cfg = BankConfig::gt200();
        for stride in [1u64, 3, 5, 7, 9, 11, 13, 15] {
            assert_eq!(
                bank_transactions(&stride_access(stride, 16), cfg),
                1,
                "stride {stride}"
            );
        }
    }

    #[test]
    fn padding_removes_power_of_two_conflicts() {
        // The paper's CR-NBC fix: pad one word per 16. Element i lives at
        // word i + i/16. Stride-2^k accesses become conflict-free for all
        // strides up to the bank count.
        let cfg = BankConfig::gt200();
        for k in 1..=4u32 {
            let stride = 1u64 << k;
            let addrs: Vec<Option<u64>> = (0..16u64)
                .map(|i| {
                    let elem = i * stride;
                    Some((elem + elem / 16) * 4)
                })
                .collect();
            assert_eq!(bank_transactions(&addrs, cfg), 1, "stride {stride}");
        }
    }

    #[test]
    fn padding_leaves_small_residual_beyond_bank_count() {
        // For strides beyond 16 the simple per-16 padding leaves a 2-way
        // residual (padded stride 34 ≡ 2 mod 16) — still an 8× improvement
        // over the unpadded 16-way serialization.
        let cfg = BankConfig::gt200();
        let addrs: Vec<Option<u64>> = (0..16u64)
            .map(|i| {
                let elem = i * 32;
                Some((elem + elem / 16) * 4)
            })
            .collect();
        assert_eq!(bank_transactions(&addrs, cfg), 2);
    }

    #[test]
    fn prime_banks_remove_power_of_two_conflicts() {
        // The paper's architectural suggestion: 17 banks.
        let cfg = BankConfig::with_banks(17);
        for k in 1..=4u32 {
            assert_eq!(bank_transactions(&stride_access(1 << k, 16), cfg), 1);
        }
    }

    #[test]
    fn inactive_lanes_do_not_conflict() {
        let mut addrs = stride_access(2, 16);
        for slot in addrs.iter_mut().skip(8) {
            *slot = None;
        }
        assert_eq!(bank_transactions(&addrs, BankConfig::gt200()), 1);
        assert_eq!(bank_transactions(&[None; 16], BankConfig::gt200()), 0);
    }

    #[test]
    fn atomic_same_word_serializes_instead_of_broadcasting() {
        let cfg = BankConfig::gt200();
        // 16 lanes on one word: a load broadcasts (1 txn), an atomic
        // serializes lane by lane (16 txns).
        assert_eq!(bank_transactions(&hw(&[64; 16]), cfg), 1);
        assert_eq!(atomic_bank_transactions(&hw(&[64; 16]), cfg), 16);
        // Conflict-free stride-1 atomics behave like loads.
        assert_eq!(atomic_bank_transactions(&stride_access(1, 16), cfg), 1);
        // Two lanes per word, 8 words across 8 banks: depth 2.
        let addrs: Vec<Option<u64>> = (0..16u64).map(|i| Some((i / 2) * 4)).collect();
        assert_eq!(atomic_bank_transactions(&addrs, cfg), 2);
        assert_eq!(atomic_bank_transactions(&[None; 16], cfg), 0);
    }

    #[test]
    fn strides_that_wrap_onto_one_word_take_the_general_path() {
        // Stride 2^31 wraps every other lane back onto lane 0's word: 2
        // distinct words in one bank, not the 16 a word-multiple stride
        // of 2^29 words would give without wrapping.
        let cfg = BankConfig::gt200();
        for shift in 26..32 {
            for base in [0u32, 4, 64] {
                let row: Vec<u32> = (0..16u32)
                    .map(|l| base.wrapping_add(l.wrapping_mul(1 << shift)))
                    .collect();
                let addrs: Vec<Option<u64>> = row.iter().map(|&a| Some(u64::from(a))).collect();
                let (load, _) = reference(&addrs, cfg);
                assert_eq!(
                    bank_degree(&row, 0xFFFF, cfg),
                    load,
                    "2^{shift} from {base}"
                );
            }
        }
        let row: Vec<u32> = (0..16u32).map(|l| l.wrapping_mul(1 << 31)).collect();
        assert_eq!(bank_degree(&row, 0xFFFF, cfg), 2);
    }

    /// The definition: per bank, count distinct words; per bank, count
    /// lanes (atomics). Allocating and slow, but obviously right.
    fn reference(addrs: &[Option<u64>], cfg: BankConfig) -> (u32, u32) {
        let mut words: Vec<Vec<u64>> = vec![Vec::new(); cfg.banks as usize];
        let mut lanes = vec![0u32; cfg.banks as usize];
        for a in addrs.iter().flatten() {
            let word = a / u64::from(cfg.width);
            let bank = (word % u64::from(cfg.banks)) as usize;
            if !words[bank].contains(&word) {
                words[bank].push(word);
            }
            lanes[bank] += 1;
        }
        let load = words.iter().map(|w| w.len() as u32).max().unwrap_or(0);
        (load, lanes.into_iter().max().unwrap_or(0))
    }

    #[test]
    fn row_form_matches_option_form() {
        let cfg = BankConfig::gt200();
        let addrs: Vec<Option<u64>> = (0..16u64).map(|i| (i % 3 != 0).then_some(i * 8)).collect();
        let row: Vec<u32> = addrs
            .iter()
            .map(|a| a.map_or(u32::MAX, |a| a as u32))
            .collect();
        let active = addrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_some())
            .fold(0u32, |m, (i, _)| m | 1 << i);
        assert_eq!(
            bank_degree(&row, active, cfg),
            bank_transactions(&addrs, cfg)
        );
        assert_eq!(
            atomic_bank_degree(&row, active, cfg),
            atomic_bank_transactions(&addrs, cfg)
        );
        assert_eq!(bank_degree(&row, 0, cfg), 0);
    }

    // ---- Properties ----

    /// `(banks, width)` pairs: GT200, prime and composite non-power-of-two
    /// bank counts, more banks than a 64-bit mask holds, non-power-of-two
    /// widths, and 32 banks (more banks than a 16-lane half-warp has
    /// lanes).
    const GEOMETRIES: [(u32, u32); 8] = [
        (16, 4),
        (32, 4),
        (17, 4),
        (12, 4),
        (96, 4),
        (16, 8),
        (16, 12),
        (7, 6),
    ];

    fn arb_addrs() -> impl Strategy<Value = Vec<Option<u64>>> {
        proptest::collection::vec(proptest::option::of((0u64..4096).prop_map(|w| w * 4)), 16)
    }

    proptest! {
        /// Degree is bounded by active lanes and by the bank count.
        #[test]
        fn degree_bounds(addrs in arb_addrs()) {
            let cfg = BankConfig::gt200();
            let d = bank_transactions(&addrs, cfg);
            let active = addrs.iter().flatten().count() as u32;
            prop_assert!(d <= active);
            prop_assert!(d <= cfg.banks);
            prop_assert_eq!(d == 0, active == 0);
        }

        /// Atomics serialize at least as much as loads on the same address
        /// pattern, and never beyond the active-lane count.
        #[test]
        fn atomic_degree_dominates_load_degree(addrs in arb_addrs()) {
            let cfg = BankConfig::gt200();
            let load = bank_transactions(&addrs, cfg);
            let atomic = atomic_bank_transactions(&addrs, cfg);
            let active = addrs.iter().flatten().count() as u32;
            prop_assert!(atomic >= load);
            prop_assert!(atomic <= active);
            prop_assert_eq!(atomic == 0, active == 0);
        }

        /// The one-pass broadcast and distinct-bank answers, and the
        /// general fallback, agree with the definition — on address sets
        /// drawn from a few words so broadcasts and partial broadcasts are
        /// common, under the GT200 and a prime bank count.
        #[test]
        fn degrees_match_the_definition(
            picks in proptest::collection::vec(proptest::option::of(0usize..4), 16),
            words in proptest::collection::vec(0u64..64, 4),
            prime in any::<bool>(),
        ) {
            let cfg = if prime { BankConfig::with_banks(17) } else { BankConfig::gt200() };
            let addrs: Vec<Option<u64>> =
                picks.iter().map(|p| p.map(|k| words[k] * 4)).collect();
            let (load, atomic) = reference(&addrs, cfg);
            prop_assert_eq!(bank_transactions(&addrs, cfg), load);
            prop_assert_eq!(atomic_bank_transactions(&addrs, cfg), atomic);
        }

        /// The sorted conflict path agrees with the definition on every
        /// geometry — bank counts and widths that are not powers of two,
        /// and more than 64 banks — over rows of up to 32 lanes drawn from
        /// a few words, so same-word and same-bank mixes are common (lanes
        /// of one word may also differ within it).
        #[test]
        fn bank_degree_matches_reference(
            picks in proptest::collection::vec(proptest::option::of((0usize..5, 0u32..16)), 1..=32),
            words in proptest::collection::vec(0u32..400, 5),
            geometry in 0usize..GEOMETRIES.len(),
        ) {
            let (banks, width) = GEOMETRIES[geometry];
            let cfg = BankConfig { banks, width, half_warp: 16 };
            let addrs: Vec<Option<u64>> = picks
                .iter()
                .map(|p| p.map(|(k, off)| u64::from(words[k] * width + off % width)))
                .collect();
            let (row, active) = lane_row(&addrs);
            let (load, _) = reference(&addrs, cfg);
            prop_assert_eq!(bank_degree(&row[..addrs.len()], active, cfg), load);
            prop_assert_eq!(bank_transactions(&addrs, cfg), load);
        }

        /// The one-pass answers agree with the definition on explicitly
        /// affine rows `base + l·stride` (wrapping), which random rows
        /// almost never are: word-multiple strides of either sign and
        /// some that are not, bases across twice the bank span, full and
        /// partial masks, half-warps of 16 and 32 lanes, on every
        /// geometry.
        #[test]
        fn affine_rows_match_the_definition(
            stride in prop_oneof![(-1024i32..=1024).prop_map(|k| k * 4), -4096i32..=4096],
            base in any::<u32>(),
            mask in any::<u32>(),
        ) {
            for (banks, width) in GEOMETRIES {
                let cfg = BankConfig { banks, width, half_warp: 16 };
                let base = base % (2 * banks * width);
                for n in [16u32, 32] {
                    let row: Vec<u32> = (0..n)
                        .map(|l| base.wrapping_add((stride as u32).wrapping_mul(l)))
                        .collect();
                    let all = u32::MAX >> (32 - n);
                    for active in [all, mask & all] {
                        let addrs: Vec<Option<u64>> = row
                            .iter()
                            .enumerate()
                            .map(|(l, &a)| (active >> l & 1 != 0).then_some(u64::from(a)))
                            .collect();
                        let (load, _) = reference(&addrs, cfg);
                        prop_assert_eq!(
                            bank_degree(&row, active, cfg),
                            load,
                            "banks {} width {} stride {} base {} active {:#x}",
                            banks, width, stride, base, active
                        );
                    }
                }
            }
        }

        /// Lane permutation never changes the serialization degree.
        #[test]
        fn permutation_invariant(addrs in arb_addrs(), seed in 0usize..100) {
            let cfg = BankConfig::gt200();
            let d = bank_transactions(&addrs, cfg);
            let mut p = addrs.clone();
            let n = p.len();
            for i in 0..n {
                p.swap(i, (seed + i * 5) % n);
            }
            prop_assert_eq!(bank_transactions(&p, cfg), d);
        }

        /// Duplicating an already-present address (broadcast) never
        /// increases the degree.
        #[test]
        fn broadcast_never_hurts(addrs in arb_addrs(), lane in 0usize..16) {
            let cfg = BankConfig::gt200();
            let d = bank_transactions(&addrs, cfg);
            if let Some(existing) = addrs.iter().flatten().next().copied() {
                let mut dup = addrs.clone();
                dup[lane] = Some(existing);
                prop_assert!(bank_transactions(&dup, cfg) <= d + 1);
                // If the lane was inactive, degree cannot increase at all
                // beyond broadcast on an existing word.
                if addrs[lane].is_none() {
                    prop_assert!(bank_transactions(&dup, cfg) <= d.max(1));
                }
            }
        }
    }

    /// Every affine row a workload can form: every word-multiple stride
    /// up to 64 KiB × every base mod 256 B, on the GT200 and on 32 banks
    /// (16- and 32-lane rows), against the definition. A release sweep:
    /// `cargo test --release -p gpa-mem -- --ignored`.
    #[test]
    #[ignore = "exhaustive sweep, ~10 s in release"]
    fn affine_rows_match_the_definition_exhaustively() {
        let configs = [
            (BankConfig::gt200(), 16u32),
            (BankConfig::with_banks(32), 16),
            (BankConfig::with_banks(32), 32),
        ];
        for (cfg, n) in configs {
            for stride in (0..=1u32 << 16).step_by(4) {
                for base in 0..256u32 {
                    let row: Vec<u32> = (0..n).map(|l| base + stride * l).collect();
                    let addrs: Vec<Option<u64>> = row.iter().map(|&a| Some(u64::from(a))).collect();
                    let (load, _) = reference(&addrs, cfg);
                    assert_eq!(
                        bank_degree(&row, u32::MAX >> (32 - n), cfg),
                        load,
                        "banks {} lanes {n} stride {stride} base {base}",
                        cfg.banks
                    );
                }
            }
        }
    }
}
