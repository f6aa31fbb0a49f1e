//! Simulated global memory: a flat bump-allocated arena.

use crate::func::lanes;

/// One captured store: `(device address, value written)`.
///
/// A sharded functional run ([`crate::engine`]) runs each block range
/// after the first against a private copy of memory with capture
/// enabled, then replays the logs in block-id order so the merged memory
/// image is bit-identical to a sequential run.
pub type WriteRecord = (u64, u32);

/// The device's global memory.
///
/// A flat byte arena with a bump allocator. Allocations start above address
/// zero so stray null-ish pointers fault, and every access is
/// bounds-checked against the allocated extent.
///
/// Equality ([`PartialEq`]) compares the allocated contents and extent
/// only, not instrumentation state such as an active write-capture log.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    data: Vec<u8>,
    cursor: u64,
    capture: Option<Vec<WriteRecord>>,
}

impl PartialEq for GlobalMemory {
    fn eq(&self, other: &Self) -> bool {
        self.cursor == other.cursor && self.data == other.data
    }
}

/// Out-of-bounds access marker returned by the read/write accessors;
/// callers attach the faulting address and context when wrapping it into a
/// located [`crate::SimError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobAccess;

impl std::fmt::Display for OobAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("out-of-bounds global memory access")
    }
}

impl std::error::Error for OobAccess {}

/// First valid device address (catches zero-initialized pointers).
const BASE: u64 = 256;

impl GlobalMemory {
    /// An empty memory.
    pub fn new() -> GlobalMemory {
        GlobalMemory {
            data: Vec::new(),
            cursor: BASE,
            capture: None,
        }
    }

    /// Start logging every [`GlobalMemory::write_u32`] into a capture
    /// buffer (clears any previous log). Used by the parallel simulation
    /// engine to extract a shard's side effects for deterministic replay.
    pub fn begin_write_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Stop capturing and return the log of writes since
    /// [`GlobalMemory::begin_write_capture`], in execution order. Returns
    /// an empty log when capture was never enabled.
    pub fn take_captured_writes(&mut self) -> Vec<WriteRecord> {
        self.capture.take().unwrap_or_default()
    }

    /// Replay a captured write log into this memory. If *this* memory has
    /// an active capture of its own, the replayed records are appended to
    /// it — so an outer capture observes the same log whether the device
    /// writes arrived directly (sequential run) or via a shard replay
    /// (parallel run).
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when any record falls outside the allocated
    /// extent (the log came from a memory with a different layout); no
    /// writes are applied in that case.
    pub fn apply_writes(&mut self, writes: &[WriteRecord]) -> Result<(), OobAccess> {
        if writes.iter().any(|&(a, _)| !self.in_bounds(a, 4)) {
            return Err(OobAccess);
        }
        for &(addr, value) in writes {
            let i = addr as usize;
            self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        }
        if let Some(log) = self.capture.as_mut() {
            log.extend_from_slice(writes);
        }
        Ok(())
    }

    /// Allocate `bytes` aligned to `align` (power of two) and return the
    /// device address. Contents are zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = self.cursor.div_ceil(align) * align;
        self.cursor = base + bytes;
        if self.cursor as usize > self.data.len() {
            self.data.resize(self.cursor as usize, 0);
        }
        base
    }

    /// Allocate and fill with `f32` values; returns the device address.
    pub fn alloc_f32(&mut self, values: &[f32]) -> u64 {
        let addr = self.alloc(values.len() as u64 * 4, 4);
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + i as u64 * 4, v.to_bits()).unwrap();
        }
        addr
    }

    /// Allocate and fill with `u32` values; returns the device address.
    pub fn alloc_u32(&mut self, values: &[u32]) -> u64 {
        let addr = self.alloc(values.len() as u64 * 4, 4);
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + i as u64 * 4, *v).unwrap();
        }
        addr
    }

    /// One-past-the-end of the allocated extent.
    pub fn extent(&self) -> u64 {
        self.cursor
    }

    /// Returns `true` if `[addr, addr+len)` lies inside allocated memory.
    pub fn in_bounds(&self, addr: u64, len: u32) -> bool {
        let (first, last) = self.valid_starts(len);
        (first..=last).contains(&addr)
    }

    /// The addresses at which a `len`-byte access lies inside allocated
    /// memory, as the inclusive range `(first, last)`; empty when
    /// `first > last`. Two comparisons a row of lanes can make without
    /// branching.
    pub(crate) fn valid_starts(&self, len: u32) -> (u64, u64) {
        (BASE, self.cursor.saturating_sub(u64::from(len)))
    }

    /// Load each lane of `exec` from its address in `addrs`: word `k` of
    /// the access into `rows[k]`. The addresses were checked in bounds.
    pub(crate) fn load_lanes(&self, addrs: &[u64; 32], exec: u32, rows: &mut [[u32; 32]]) {
        for l in lanes(exec) {
            let i = addrs[l] as usize;
            let words = self.data[i..i + 4 * rows.len()].chunks_exact(4);
            for (row, word) in rows.iter_mut().zip(words) {
                row[l] = u32::from_le_bytes(word.try_into().expect("chunks of 4 bytes"));
            }
        }
    }

    /// Load the 32 consecutive words from `addr` into `row`, lane `l`
    /// from `addr + 4l`: [`GlobalMemory::load_lanes`] for a full warp at
    /// unit stride, as one copy. The words were checked in bounds.
    pub(crate) fn load_row(&self, addr: u64, row: &mut [u32; 32]) {
        let i = addr as usize;
        for (v, word) in row.iter_mut().zip(self.data[i..i + 128].chunks_exact(4)) {
            *v = u32::from_le_bytes(word.try_into().expect("chunks of 4 bytes"));
        }
    }

    /// Store each lane of `exec` to its address in `addrs`: word `k` of
    /// the access from `rows[k]`. Lanes store in order, each its words in
    /// order, so the highest lane wins a race and an active capture logs
    /// what [`GlobalMemory::write_u32`] per word would. The addresses
    /// were checked in bounds.
    pub(crate) fn store_lanes(&mut self, addrs: &[u64; 32], exec: u32, rows: &[[u32; 32]]) {
        for l in lanes(exec) {
            for (k, row) in rows.iter().enumerate() {
                let at = addrs[l] + 4 * k as u64;
                let i = at as usize;
                self.data[i..i + 4].copy_from_slice(&row[l].to_le_bytes());
                if let Some(log) = self.capture.as_mut() {
                    log.push((at, row[l]));
                }
            }
        }
    }

    /// Store `row` to the 32 consecutive words from `addr`, lane `l` to
    /// `addr + 4l`: [`GlobalMemory::store_lanes`] for a full warp at unit
    /// stride, as one copy, logged in the same lane order. The words were
    /// checked in bounds.
    pub(crate) fn store_row(&mut self, addr: u64, row: &[u32; 32]) {
        let i = addr as usize;
        for (word, v) in self.data[i..i + 128].chunks_exact_mut(4).zip(row) {
            word.copy_from_slice(&v.to_le_bytes());
        }
        if let Some(log) = self.capture.as_mut() {
            log.extend((addr..).step_by(4).zip(row.iter().copied()));
        }
    }

    /// Read a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when out of bounds (callers wrap this into a
    /// located [`crate::SimError`]).
    pub fn read_u32(&self, addr: u64) -> Result<u32, OobAccess> {
        if !self.in_bounds(addr, 4) {
            return Err(OobAccess);
        }
        let i = addr as usize;
        Ok(u32::from_le_bytes(self.data[i..i + 4].try_into().unwrap()))
    }

    /// Write a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when out of bounds.
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), OobAccess> {
        if !self.in_bounds(addr, 4) {
            return Err(OobAccess);
        }
        let i = addr as usize;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        if let Some(log) = self.capture.as_mut() {
            log.push((addr, value));
        }
        Ok(())
    }

    /// Read an `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when out of bounds.
    pub fn read_f32(&self, addr: u64) -> Result<f32, OobAccess> {
        self.read_u32(addr).map(f32::from_bits)
    }

    /// Read `n` consecutive `f32`s starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when any word is out of bounds.
    pub fn read_f32s(&self, addr: u64, n: usize) -> Result<Vec<f32>, OobAccess> {
        (0..n).map(|i| self.read_f32(addr + i as u64 * 4)).collect()
    }

    /// Read `n` consecutive `u32`s starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`OobAccess`] when any word is out of bounds.
    pub fn read_u32s(&self, addr: u64, n: usize) -> Result<Vec<u32>, OobAccess> {
        (0..n).map(|i| self.read_u32(addr + i as u64 * 4)).collect()
    }
}

impl Default for GlobalMemory {
    fn default() -> Self {
        GlobalMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(10, 4);
        let b = m.alloc(16, 128);
        assert_eq!(a % 4, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 10);
    }

    #[test]
    fn round_trip_values() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_f32(&[1.5, -2.0, 3.25]);
        assert_eq!(m.read_f32s(a, 3).unwrap(), vec![1.5, -2.0, 3.25]);
        let b = m.alloc_u32(&[7, 8]);
        assert_eq!(m.read_u32s(b, 2).unwrap(), vec![7, 8]);
    }

    #[test]
    fn zero_address_faults() {
        let m = GlobalMemory::new();
        assert!(m.read_u32(0).is_err());
        assert!(!m.in_bounds(0, 4));
    }

    #[test]
    fn out_of_extent_faults() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8, 4);
        assert!(m.read_u32(a + 8).is_err());
        assert!(m.write_u32(a + 8, 1).is_err());
    }

    #[test]
    fn capture_logs_and_replays() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(16, 4);
        let mut shard = m.clone();
        shard.begin_write_capture();
        shard.write_u32(a, 7).unwrap();
        shard.write_u32(a + 8, 9).unwrap();
        shard.write_u32(a, 11).unwrap(); // overwrites preserve order
        let log = shard.take_captured_writes();
        assert_eq!(log, vec![(a, 7), (a + 8, 9), (a, 11)]);
        m.apply_writes(&log).unwrap();
        assert_eq!(m, shard);
        assert_eq!(m.read_u32(a).unwrap(), 11);
        assert_eq!(m.read_u32(a + 8).unwrap(), 9);
        // Replay of an out-of-layout log is rejected.
        let small = GlobalMemory::new();
        assert!(small.clone().apply_writes(&log).is_err());
        assert_ne!(small, m);
    }

    #[test]
    fn replay_feeds_an_outer_capture() {
        // An outer capture must see the same log whether writes arrive
        // directly or via a shard replay (parallel-engine merge).
        let mut m = GlobalMemory::new();
        let a = m.alloc(8, 4);
        m.begin_write_capture();
        m.write_u32(a, 1).unwrap();
        m.apply_writes(&[(a + 4, 2), (a, 3)]).unwrap();
        assert_eq!(m.take_captured_writes(), vec![(a, 1), (a + 4, 2), (a, 3)]);
    }

    #[test]
    fn capture_disabled_by_default_and_after_take() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(4, 4);
        m.write_u32(a, 1).unwrap();
        assert!(m.take_captured_writes().is_empty());
        m.begin_write_capture();
        m.write_u32(a, 2).unwrap();
        let _ = m.take_captured_writes();
        m.write_u32(a, 3).unwrap();
        assert!(m.take_captured_writes().is_empty());
    }

    #[test]
    fn contents_zero_initialized() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(64, 4);
        assert_eq!(m.read_u32(a + 60).unwrap(), 0);
    }
}
