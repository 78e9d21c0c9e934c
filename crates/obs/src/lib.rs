//! Observability substrate shared by every engine crate.
//!
//! Two pieces, both dependency-free (the crate sits below `pi-core` in
//! the workspace graph and hand-rolls its JSON the same way `pi-bench`
//! does):
//!
//! * [`MetricsRegistry`] — a lock-sharded registry of named [`Counter`]s,
//!   [`Gauge`]s, and latency [`Histogram`]s (count, sum, max). Handles are
//!   `Arc`s, and a holder that resolves them once at attach time (the
//!   result cache, the publish path) updates one with a single relaxed
//!   `fetch_add` and no map lookup. The query pipeline in `pi-planner` is
//!   the exception: with a registry attached, its `run` resolves five
//!   metrics by name on every query. The whole registry exports
//!   as one JSON snapshot ([`MetricsRegistry::snapshot_json`]) or a
//!   human-readable dump ([`MetricsRegistry::render_text`]).
//! * [`QueryTrace`] — an EXPLAIN ANALYZE-style trace of one
//!   query: per-operator wall clock and row counts, partitions pruned
//!   vs. visited, index slots bound, cache outcome. Produced by
//!   `QueryEngine::query_traced` in `pi-planner`.
//!
//! ```
//! use pi_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let hits = reg.counter("cache.hits");
//! let lat = reg.histogram("query.nanos");
//! hits.inc();
//! lat.record(1_500);
//! let snap = lat.snapshot();
//! assert_eq!(snap.count, 1);
//! assert_eq!(snap.max, 1_500);
//! assert!(reg.snapshot_json().contains("\"cache.hits\": 1"));
//! ```

#![warn(missing_docs)]

mod registry;
mod trace;

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSnapshot, MetricsRegistry,
};
pub use trace::{fmt_nanos, CacheOutcome, OperatorTrace, PlannerTrace, QueryTrace};
