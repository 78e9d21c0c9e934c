//! # patchindex — updatable materialization of approximate constraints
//!
//! Rust reproduction of "Updatable Materialization of Approximate
//! Constraints" (Kläbe, Sattler, Baumann, ICDE 2021).
//!
//! A [`PatchIndex`] materializes an approximate constraint — a constraint
//! satisfied by all tuples except a set of *patches* (exceptions) — on one
//! column of a partitioned table:
//!
//! * **NUC** (nearly unique column) and **NSC** (nearly sorted column)
//!   constraints, with [`discovery`] of minimal patch sets;
//! * two physical designs ([`Design::Bitmap`] on a sharded bitmap,
//!   [`Design::Identifier`] as a sorted rowID list);
//! * query integration via [`scan::patch_scan`], producing the
//!   `exclude_patches` / `use_patches` dataflows of the paper's Figure 2,
//!   and [`scan::patch_merge_join`], which joins both flows of one scan
//!   with a sorted build side in one pass (Figure 2, right);
//! * update handling (insert / modify / delete) without recomputation or
//!   full scans — see [`PatchIndex::handle_insert`] and friends, or use
//!   [`IndexedTable`] to keep everything consistent automatically;
//! * one write vocabulary, [`Statement`], checked ([`Statement::check`])
//!   then applied ([`IndexedTable::apply`], which returns an [`Applied`]
//!   receipt); a nearly sorted index on a
//!   `Str` column is refused ([`Statement::indexable`]) — its dictionary
//!   codes keep equality, not order;
//! * exception-rate monitoring.
//!
//! This crate knows no byte format: the `pi-durability` crate writes the
//! WAL and the checkpoint files, index images included, and rebuilds an
//! index from its image through [`PatchIndex::restore`].
//!
//! ```
//! use patchindex::{Constraint, Design, IndexedTable, SortDir};
//! use pi_planner::{Plan, QueryEngine}; // the query facade lives in pi-planner
//! use pi_exec::ops::sort::SortOrder;
//! use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
//!
//! let mut table = Table::new(
//!     "events",
//!     Schema::new(vec![Field::new("ts", DataType::Int)]),
//!     1,
//!     Partitioning::RoundRobin,
//! );
//! table.load_partition(0, &[ColumnData::Int(vec![1, 2, 100, 3, 4])]);
//! table.propagate_all();
//!
//! let mut it = IndexedTable::new(table);
//! it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
//! assert_eq!(it.index(0).exception_count(), 1); // the stray 100
//!
//! it.insert(&[vec![Value::Int(5)]]); // extends the sorted run, no patch
//! assert_eq!(it.index(0).exception_count(), 1);
//!
//! // Query through the QueryEngine facade: it snapshots the catalog
//! // ([`IndexedTable::catalog`]), rewrites ORDER BY into the Figure-2
//! // merge plan (only the stray is sorted) and executes with
//! // per-partition zero-branch pruning. A query is a read: `&self`.
//! let sorted = it.query(&Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]));
//! assert_eq!(sorted.column(0).as_int(), &[1, 2, 3, 4, 5, 100]);
//! ```

#![warn(missing_docs)]

pub mod cache;
mod catalog;
mod constraint;
pub mod discovery;
mod index;
mod indexed;
pub mod lis;
mod maintenance;
pub mod routing;
pub mod scan;
pub mod snapshot;
mod statement;
pub mod stats;
mod store;

pub use cache::{CacheStats, ResultCache};
pub use catalog::{IndexCatalog, IndexStats};
pub use constraint::{Constraint, Design, SortDir};
pub use index::{DriftBaseline, PartitionIndex, PatchIndex};
pub use indexed::{IndexedTable, MaintenancePolicy, QueryShape};
pub use maintenance::{drp_ranges, MaintenanceStats};
pub use snapshot::{
    ChangeSet, ConcurrentTable, QueryFeedback, TableSnapshot, TableWriter, WorkloadDelta,
    WorkloadEvent, WorkloadSink,
};
pub use statement::{Applied, Statement};
pub use store::PatchStore;
