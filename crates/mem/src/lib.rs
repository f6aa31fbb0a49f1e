#![warn(missing_docs)]

//! GPU memory-system models: global-memory coalescing, shared-memory bank
//! conflicts, and a small read-only (texture) cache.
//!
//! These are the paper's two memory-side tools plus one extension:
//!
//! * [`coalesce`] — the **memory transaction simulator** of paper §4.3:
//!   implements the CUDA compute-1.2/1.3 coalescing protocol at half-warp
//!   granularity, with a configurable minimum segment size so the paper's
//!   Figure 11 "what if transactions were 16 B / 4 B?" sweeps can be run.
//! * [`bank`] — the **bank-conflict calculator** of §4.2: given the
//!   per-lane shared-memory addresses of an access, how many serialized
//!   transactions does the 16-bank shared memory need?
//! * [`texcache`] — a small set-associative read-only cache used to
//!   reproduce the `+Cache` variants of Figure 12 (the paper measured these
//!   on hardware; modelling them is this reproduction's extension).
//!
//! # Example
//!
//! ```
//! use gpa_mem::coalesce::{coalesce_half_warp, CoalesceConfig};
//!
//! // 16 lanes reading consecutive floats: one 64-byte transaction.
//! let accesses: Vec<Option<(u64, u32)>> =
//!     (0..16).map(|i| Some((i * 4, 4))).collect();
//! let txs = coalesce_half_warp(&accesses, CoalesceConfig::gt200());
//! assert_eq!(txs.len(), 1);
//! assert_eq!(txs[0].size, 64);
//! ```

pub mod bank;
pub mod coalesce;
pub mod texcache;

pub use bank::{bank_degree, bank_transactions, warp_bank_transactions, BankConfig};
pub use coalesce::{coalesce_half_warp, coalesce_warp, CoalesceConfig, SegmentSpan, Transaction};
pub use texcache::TexCache;
