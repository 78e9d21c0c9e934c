//! # pi-planner — PatchIndex-aware query optimization
//!
//! Logical plans ([`Plan`]), the PatchIndex rewrites of the paper's
//! Section 3.3 (distinct/sort subtree cloning, Figure 2) enumerated over
//! an [`IndexCatalog`] of *all* indexes on the table, a per-tuple
//! [`cost`] model gating every rewrite with per-partition statistics
//! (Section 3.5), and lowering to `pi-exec` operator trees with
//! partition-parallel combines, which applies zero-branch pruning
//! (Section 6.3) **per partition**, as it lowers each partition's
//! pipeline ([`physical`]).
//!
//! The [`QueryEngine`] facade ties it together as **one pipeline** —
//! plan → result-cache probe → lower + execute → cache insert →
//! workload evidence → trace — run over a borrowed view of an
//! `IndexedTable`, a `TableWriter`'s staging table, a `TableSnapshot` or
//! a `ConcurrentTable`. Which facade method the caller
//! invoked (`plan_query` / `query` / `query_traced`) is the only
//! selector, and the evidence each one records is tabulated on the
//! trait. Both executing methods answer in rows. A query is a read — every method takes `&self`, and evidence
//! waits in the table's `WorkloadSink` for the advisor's
//! `WorkloadSink::take`.
//!
//! Outside the facade, [`execute`] / [`execute_count`] run a plan
//! directly against a table and an index set — with [`NO_INDEXES`], the
//! index-free reference every byte-identity suite compares against.
//!
//! The TPC-H join plans of Figure 10 are hand-lowered in `pi-tpch`, using
//! the same building blocks.

#![warn(missing_docs)]

pub mod cost;
mod engine;
pub mod fingerprint;
mod logical;
mod optimizer;
pub mod physical;
#[cfg(test)]
mod testutil;

pub use engine::QueryEngine;
pub use fingerprint::{canonical_bytes, fingerprint_hash, QueryMode};
pub use logical::Plan;
pub use optimizer::{optimize, optimize_with_stats, rewrite, OptimizeStats};
pub use patchindex::{IndexCatalog, IndexStats};
pub use physical::{execute, execute_count, NO_INDEXES};
