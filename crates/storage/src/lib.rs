//! # pi-storage — in-memory column-store substrate
//!
//! The storage layer the PatchIndex reproduction runs on, standing in for
//! the paper's Actian Vector (X100/Vectorwise) engine. It provides exactly
//! the facilities the PatchIndex design depends on (paper, Sections 3 & 5):
//!
//! * typed, dictionary-encoded columns ([`ColumnData`]) addressed by rowID;
//! * horizontal [`Partition`]s — PatchIndexes are created per partition and
//!   all processing is partition-local;
//! * positional delta stores ([`DeltaStore`]) standing in for Positional
//!   Delta Trees: in-memory inserts/modifies/deletes with the positional
//!   rowID-shifting semantics the sharded bitmap mirrors;
//! * MinMax summaries ([`ZoneMap`], "small materialized aggregates") used
//!   for scan pruning and dynamic range propagation.
//!
//! Reader isolation is not this crate's job: `patchindex`'s
//! `TableSnapshot` / `TableWriter` pair shares [`Partition`]s behind `Arc`
//! and copies one on the writer's first mutation.

#![warn(missing_docs)]

mod column;
pub mod crc;
mod delta;
pub mod dfs;
mod dict;
pub mod parallel;
mod partition;
mod schema;
mod table;
mod value;
mod zonemap;

pub use column::{str_column, ColumnData};
pub use crc::{crc32, Crc32};
pub use delta::{merge_disjoint, DeltaStore, RowLoc};
pub use dfs::{write_atomic, DurableFs, RealFs, SimFs};
pub use dict::{new_dict, DictRef, Dictionary};
pub use partition::Partition;
pub use schema::{Field, Schema};
pub use table::{Partitioning, RowAddr, Table};
pub use value::{date, date_parts, DataType, Value};
pub use zonemap::{ScanRanges, ZoneMap, DEFAULT_BLOCK_ROWS};
