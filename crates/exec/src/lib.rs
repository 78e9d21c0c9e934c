//! # pi-exec — vector-at-a-time query execution
//!
//! The execution substrate standing in for the paper's X100/Vectorwise
//! engine. Operators pull [`Batch`]es of up to [`BATCH_SIZE`] rows and
//! provide everything the PatchIndex query integration (paper, Section 3.3)
//! and update handling (Section 5) require:
//!
//! * partition [`ops::scan::ScanOp`]s with zone-map-restricted ranges and
//!   optional rowID output for the maintenance queries;
//! * the PatchIndex selection [`ops::patch_select::PatchSelectOp`]: a
//!   scan narrowed on the fly to its `exclude_patches` or its
//!   `use_patches` flow;
//! * late materialization: scans lend `Arc`-shared windows into base
//!   storage instead of copying it, patch selections and filters hand on
//!   a selection vector instead of copying rows, joins and aggregation
//!   read through both, and rows are copied only at pipeline breakers
//!   (see [`Batch`]);
//! * [`ops::hash_join::HashJoinOp`] and the [`ops::hash_join::JoinTable`]
//!   it builds, whose build-key envelope drives the dynamic range
//!   propagation of PatchIndex maintenance;
//! * [`ops::merge_join::PatchMergeJoinOp`] for the nearly-sorted fast
//!   path: both flows of one partition scan joined with a sorted build
//!   side in one pass, the kept rows by a sweep, the exceptions by binary
//!   search;
//! * [`ops::sort::SortOp`], [`ops::agg::HashAggOp`] (grouping, DISTINCT,
//!   filtered aggregates), [`ops::merge::UnionAllOp`],
//!   [`ops::merge::OrderedMergeOp`], [`ops::merge::LimitOp`];
//! * intermediate-result reuse by borrowing: a materialized [`Batch`]
//!   serves any number of [`ops::merge_join::PatchMergeJoinOp`] passes
//!   and [`ops::hash_join::JoinTable::probe`]s without a copy;
//! * partition-parallel execution via [`parallel::per_partition`] and
//!   [`parallel::per_morsel`], on one persistent process-wide pool
//!   ([`parallel::fan_out`]) whose calling thread helps, so no fan-out
//!   spawns a thread. The pool lives in `pi-storage`, whose
//!   `Table::propagate_all` runs one task per (dirty partition, column) on
//!   it, and is re-exported here. [`parallel::per_partition`] runs
//!   constraint discovery at index creation, the NUC collision probe of
//!   index maintenance, and the JoinIndex and materialized-view
//!   baselines. [`parallel::per_morsel`] runs the hand-lowered TPC-H
//!   plans' `orders` and `lineitem` sides in every variant, one task per
//!   window-aligned morsel of [`parallel::MORSEL_WINDOWS`] scan windows,
//!   so a one-partition table spreads over the pool too. The planner's
//!   lowered plans (one task per partition that drains that partition's
//!   pipeline), the global ordered merge's key ranges, discovery's
//!   per-partition passes and the server's shard reads use
//!   [`parallel::fan_out`] directly.

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
pub use keycmp::{cmp_rows_cross, KeyColumn};
pub use op::{collect, count_rows, drain, BatchSource, OpRef, Operator};
