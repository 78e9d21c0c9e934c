//! # pi-bitmap — sharded bitmaps with efficient deletes
//!
//! Rust implementation of the *sharded bitmap* from "Updatable
//! Materialization of Approximate Constraints" (Kläbe, Sattler, Baumann,
//! ICDE 2021), the data structure underlying the updatable PatchIndex.
//!
//! A [`ShardedBitmap`] virtually divides a dense bitmap into fixed-size
//! shards, each carrying the logical index of its first bit. Deleting a bit
//! — the operation that degrades ordinary bitmaps to `O(n)` — then shifts
//! only one shard and decrements subsequent start values, giving three to
//! four orders of magnitude faster deletes (paper, Table 2) at the cost of
//! a ~0.39% memory overhead and slightly slower single-bit access.
//!
//! Provided types:
//!
//! * [`PlainBitmap`] — ordinary bitmap baseline (Table 2 comparison).
//! * [`ShardedBitmap`] — single-threaded sharded bitmap with single
//!   [`ShardedBitmap::delete`], parallel/vectorized
//!   [`ShardedBitmap::bulk_delete`]; both run [`ShardedBitmap::condense`]
//!   themselves once half the shards are free.
//! * [`ShiftKernel`] — scalar / unrolled / AVX2 cross-element shift kernels
//!   (paper, Listing 1).
//!
//! ```
//! use pi_bitmap::{BulkDeleteMode, ShardedBitmap};
//!
//! let mut bm = ShardedBitmap::from_positions(1 << 20, &[5, 1000, 99_999]);
//! assert!(bm.get(1000));
//! // Delete rows 0..10 from the indexed table: every later bit moves down.
//! bm.bulk_delete(&(0..10).collect::<Vec<_>>(), BulkDeleteMode::ParallelVectorized);
//! assert!(bm.get(990));
//! assert_eq!(bm.len(), (1 << 20) - 10);
//! ```

#![warn(missing_docs)]

pub mod bitcopy;
mod plain;
mod sharded;
pub mod simd;

pub use plain::PlainBitmap;
pub use sharded::{BulkDeleteMode, ShardedBitmap, DEFAULT_SHARD_BITS};
pub use simd::ShiftKernel;
