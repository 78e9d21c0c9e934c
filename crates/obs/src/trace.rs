//! Per-query EXPLAIN ANALYZE traces.

use std::fmt::Write as _;

/// Whether (and how) the result cache served a traced query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No result cache attached to this engine.
    Uncached,
    /// Served from the cache without executing.
    Hit,
    /// Executed and (where possible) inserted.
    Miss,
}

impl CacheOutcome {
    fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// What the planner did for one traced query.
#[derive(Debug, Clone, Default)]
pub struct PlannerTrace {
    /// Index/plan-site pairs the rewriter considered.
    pub candidates_enumerated: u64,
    /// Candidates rejected by the cost model.
    pub cost_gated: u64,
    /// Rewrites actually applied in the final plan.
    pub rewrites_chosen: u64,
    /// Index slots the final plan binds (patch scans).
    pub slots_bound: Vec<usize>,
    /// Planning wall clock in nanoseconds.
    pub nanos: u64,
}

/// One operator's share of a traced execution.
#[derive(Debug, Clone)]
pub struct OperatorTrace {
    /// Operator label (`ScanOp`, `FilterOp`, `patch_scan`, ...).
    pub label: String,
    /// Partition the operator ran against, if it is per-partition.
    pub partition: Option<usize>,
    /// Batches pulled out of the operator.
    pub batches: u64,
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// Wall clock spent inside the operator's `next`, inclusive of its
    /// children (nanoseconds).
    pub nanos: u64,
}

/// The EXPLAIN ANALYZE record of one query.
///
/// Produced by `QueryEngine::query_traced` / `explain_analyze` in
/// `pi-planner`; the traced result is byte-identical to the untraced
/// path (CI pins `trace.exact`).
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// The logical plan as written.
    pub query: String,
    /// The plan after index rewrites, zero-patch branches included (the
    /// lowering prunes them per partition).
    pub optimized: String,
    /// Planner decisions.
    pub planner: PlannerTrace,
    /// Partitions in the table.
    pub partitions_total: usize,
    /// Partitions whose data was actually pulled.
    pub partitions_visited: u64,
    /// Partitions never pulled: pruned to nothing by per-partition
    /// zero-branch pruning, or left unread by a combine that stopped
    /// early.
    pub partitions_pruned: u64,
    /// Result-cache outcome.
    pub cache: Option<CacheOutcome>,
    /// Per-operator timings and row counts; empty on a cache hit
    /// (nothing executed).
    pub operators: Vec<OperatorTrace>,
    /// Rows in the final result.
    pub rows_out: u64,
    /// End-to-end wall clock (plan + execute) in nanoseconds.
    pub total_nanos: u64,
}

impl QueryTrace {
    /// A human-readable EXPLAIN ANALYZE dump.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query:     {}", self.query);
        let _ = writeln!(out, "optimized: {}", self.optimized);
        let p = &self.planner;
        let _ = writeln!(
            out,
            "planner:   {} candidates, {} cost-gated, {} rewrites chosen, slots bound {:?} ({})",
            p.candidates_enumerated,
            p.cost_gated,
            p.rewrites_chosen,
            p.slots_bound,
            fmt_nanos(p.nanos),
        );
        let _ = writeln!(
            out,
            "partitions: {} visited, {} pruned of {}",
            self.partitions_visited, self.partitions_pruned, self.partitions_total
        );
        if let Some(c) = &self.cache {
            let _ = writeln!(out, "cache:     {}", c.label());
        }
        let _ = writeln!(
            out,
            "result:    {} rows in {}",
            self.rows_out,
            fmt_nanos(self.total_nanos)
        );
        if !self.operators.is_empty() {
            let _ = writeln!(out, "operators:");
            let width = self
                .operators
                .iter()
                .map(|o| o.label.len())
                .max()
                .unwrap_or(0);
            for o in &self.operators {
                let part = match o.partition {
                    Some(p) => format!("p{p}"),
                    None => "--".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  {:width$}  {:>4}  rows={:<10} batches={:<6} {}",
                    o.label,
                    part,
                    o.rows_out,
                    o.batches,
                    fmt_nanos(o.nanos),
                );
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit (`ns`, `us`,
/// `ms`, `s`).
pub fn fmt_nanos(n: u64) -> String {
    if n < 1_000 {
        format!("{n}ns")
    } else if n < 1_000_000 {
        format!("{:.1}us", n as f64 / 1_000.0)
    } else if n < 1_000_000_000 {
        format!("{:.2}ms", n as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", n as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_renders_both_ways() {
        let trace = QueryTrace {
            query: "scan".into(),
            optimized: "scan".into(),
            planner: PlannerTrace {
                candidates_enumerated: 2,
                cost_gated: 1,
                rewrites_chosen: 1,
                slots_bound: vec![0],
                nanos: 10,
            },
            partitions_total: 4,
            partitions_visited: 3,
            partitions_pruned: 1,
            cache: Some(CacheOutcome::Miss),
            operators: vec![OperatorTrace {
                label: "ScanOp".into(),
                partition: Some(0),
                batches: 1,
                rows_out: 5,
                nanos: 100,
            }],
            rows_out: 5,
            total_nanos: 1_500,
        };
        let text = trace.render_text();
        assert!(text.contains("cache:     miss"), "{text}");
        assert!(text.contains("ScanOp"), "{text}");
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(5), "5ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
