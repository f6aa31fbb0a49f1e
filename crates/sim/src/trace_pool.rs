//! Recycling of per-warp trace buffers across simulation runs.
//!
//! Trace collection is the allocation hot spot of the functional
//! simulator: every traced block allocates one `Vec<TraceEntry>` per
//! warp and grows it entry by entry, and a long-lived `gpa-serve`
//! process repeats that for every request. This module keeps a bounded
//! global pool of retired buffers: [`crate::func::FunctionalSim`] draws
//! from it whenever trace collection is on, and the workflow driver
//! returns a finished [`TraceSource`]'s buffers with [`reclaim`] once
//! the timing replay no longer needs them. Pooling never changes
//! results — a recycled buffer is `clear()`ed, and only its capacity
//! survives.

use crate::stats::{BlockTrace, TraceEntry};
use crate::timing::TraceSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on pooled buffers: enough for every warp of a large
/// traced grid, small enough that retained capacity stays modest.
const MAX_POOLED: usize = 4096;

static POOL: Mutex<Vec<Vec<TraceEntry>>> = Mutex::new(Vec::new());
static REUSED: AtomicU64 = AtomicU64::new(0);

/// A cleared trace buffer — recycled when the pool has one, fresh
/// otherwise.
pub fn take() -> Vec<TraceEntry> {
    let recycled = POOL.lock().expect("trace pool poisoned").pop();
    match recycled {
        Some(buf) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => Vec::new(),
    }
}

/// Retire one trace buffer into the pool. Buffers that never grew
/// carry no capacity worth keeping and are dropped, as is everything
/// past the pool bound.
pub fn give(mut buf: Vec<TraceEntry>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    let mut pool = POOL.lock().expect("trace pool poisoned");
    if pool.len() < MAX_POOLED {
        pool.push(buf);
    }
}

/// Retire every warp buffer of one block trace.
pub fn give_block(trace: BlockTrace) {
    for warp in trace.warps {
        give(warp);
    }
}

/// Return a finished trace source's buffers to the pool.
///
/// Only traces the caller exclusively owns are recycled (a cloned-out
/// `Arc` means someone still reads the trace, so it is left alone).
pub fn reclaim(source: TraceSource) {
    match source {
        TraceSource::Homogeneous(t) => reclaim_arc(t),
        TraceSource::PerBlock(v) => v.into_iter().for_each(reclaim_arc),
    }
}

fn reclaim_arc(trace: Arc<BlockTrace>) {
    if let Ok(owned) = Arc::try_unwrap(trace) {
        give_block(owned);
    }
}

/// Buffers currently parked in the pool.
pub fn pooled() -> usize {
    POOL.lock().expect("trace pool poisoned").len()
}

/// Total buffer reuses since process start (monotone; tests assert
/// deltas rather than absolute values because the pool is global).
pub fn reuses() -> u64 {
    REUSED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DstLatency;
    use gpa_hw::InstrClass;

    fn entry() -> TraceEntry {
        TraceEntry {
            class: InstrClass::TypeI,
            dst: 0,
            dst_n: 1,
            srcs: [0xFF; 8],
            nsrcs: 0,
            dst_lat: DstLatency::Alu,
            smem_half_txns: 0,
            gmem: None,
            gmem_load: false,
            bar: false,
        }
    }

    #[test]
    fn retired_capacity_is_reused_and_contents_are_not() {
        let mut buf = Vec::with_capacity(64);
        buf.push(entry());
        give(buf);

        let before = reuses();
        // Drain until we get a recycled buffer back (other tests share
        // the global pool, so pop until capacity shows up).
        let mut got = take();
        while got.capacity() == 0 && reuses() > before {
            got = take();
        }
        assert!(got.capacity() > 0, "pooled capacity must come back");
        assert!(got.is_empty(), "recycled buffers must come back cleared");
        assert!(reuses() > before);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let before = pooled();
        give(Vec::new());
        assert_eq!(pooled(), before);
    }

    #[test]
    fn reclaim_recycles_exclusive_traces_and_skips_shared_ones() {
        let block = || BlockTrace {
            warps: vec![{
                let mut v = Vec::with_capacity(8);
                v.push(entry());
                v
            }],
        };

        let before = pooled();
        reclaim(TraceSource::Homogeneous(Arc::new(block())));
        assert!(pooled() > before, "exclusive trace must be recycled");

        // A trace someone still holds is left alone.
        let shared = Arc::new(block());
        let held = Arc::clone(&shared);
        let before = pooled();
        reclaim(TraceSource::PerBlock(vec![shared]));
        assert_eq!(pooled(), before, "shared trace must not be recycled");
        assert_eq!(held.warps.len(), 1);
    }
}
