//! # pi-exec — vector-at-a-time query execution
//!
//! The execution substrate standing in for the paper's X100/Vectorwise
//! engine. Operators pull [`Batch`]es of up to [`BATCH_SIZE`] rows and
//! provide everything the PatchIndex query integration (paper, Section 3.3)
//! and update handling (Section 5) require:
//!
//! * partition [`ops::scan::ScanOp`]s with zone-map-restricted ranges and
//!   optional rowID output for the maintenance queries;
//! * the PatchIndex selection [`ops::patch_select::PatchSelectOp`]: one
//!   scan split on the fly into an `exclude_patches` and a `use_patches`
//!   flow;
//! * late materialization: patch selections and filters hand on a
//!   selection vector instead of copying rows, joins and aggregation read
//!   through it, and rows are gathered only at pipeline breakers (see
//!   [`Batch`]);
//! * [`ops::hash_join::HashJoinOp`] with *dynamic range propagation*
//!   (deferred probe construction from the build-key envelope);
//! * [`ops::merge_join::MergeJoinOp`] for the nearly-sorted fast path;
//! * [`ops::sort::SortOp`], [`ops::agg::HashAggOp`] (grouping, DISTINCT,
//!   filtered aggregates), [`ops::merge::UnionAllOp`],
//!   [`ops::merge::OrderedMergeOp`], [`ops::merge::LimitOp`];
//! * intermediate-result reuse by borrowing: a materialized [`Batch`]
//!   serves any number of [`ops::merge_join::MergeJoinOp`] sweeps and
//!   [`ops::hash_join::JoinTable::probe`]s without a copy;
//! * partition-parallel execution via [`parallel::per_partition`].

#![warn(missing_docs)]

mod batch;
pub mod expr;
pub mod hash;
mod keycmp;
mod op;
pub mod ops;
pub mod parallel;

pub use batch::{Batch, BATCH_SIZE};
pub use expr::{ArithOp, CmpOp, Expr};
pub use op::{collect, count_rows, drain, BatchSource, OpRef, Operator};
