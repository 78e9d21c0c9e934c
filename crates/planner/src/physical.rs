//! Lowering logical plans to executable operator trees.
//!
//! Queries run partition-locally and in parallel conceptually; this
//! lowering produces, per plan node, the per-partition pipeline plus the
//! correct global combine (union for bags, ordered merge for sorted flows,
//! a global re-aggregation for distinct), mirroring how the paper's host
//! system parallelizes over partitions.
//!
//! Zero-branch pruning happens **per partition** here: before a plan is
//! lowered for partition `p`, every Union/Merge child whose cardinality
//! upper bound is zero *in that partition* is dropped — so a table with
//! patches confined to one partition instantiates the `use_patches` flow
//! only there, and the other partitions run the clean pipeline alone.
//!
//! `LIMIT n` over plain bag scans additionally pushes a per-partition
//! limit below the combine, so every partition stops scanning after `n`
//! rows instead of draining fully. A `LIMIT` over a sorted flow needs no
//! pushdown: the global ordered merge streams, so the limit stops pulling
//! it after its first output batch, and the merge pulls each input only
//! as far as that batch needs — an NSC rewrite's kept flows stop after
//! their first batch (a per-partition `SortOp` still reads its partition).
//!
//! There is one lowering, `lower_global`, with one optional
//! `ExecObserver`: which partitions the execution depended on (the
//! result cache's footprint and the trace's visited/pruned counts) and,
//! for EXPLAIN ANALYZE, per-operator meters. The public executors
//! [`execute`] / [`execute_count`] run it unobserved; the query facade's
//! pipeline attaches the observer.

use std::borrow::{Borrow, Cow};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use patchindex::scan::patch_scan;
use patchindex::PatchIndex;
use pi_exec::ops::agg::HashAggOp;
use pi_exec::ops::filter::FilterOp;
use pi_exec::ops::merge::{LimitOp, OrderedMergeOp, UnionAllOp};
use pi_exec::ops::meter::{MeterOp, OpMeter};
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::SortOp;
use pi_exec::{collect, count_rows, Batch, OpRef};
use pi_obs::OperatorTrace;
use pi_storage::Table;

use crate::logical::Plan;

/// What one observed execution records: which partitions it actually
/// depended on — the partition half of a result-cache dependency
/// footprint — and, when `timed` (EXPLAIN ANALYZE), one meter per plan
/// node — the operator half of a [`pi_obs::QueryTrace`].
///
/// The footprint takes two signals, both required for soundness:
///
/// * **pulled** — the partition's pipeline was pulled at least once
///   (the [`MeterOp`] the lowering wraps around every per-partition
///   pipeline saw it). Combines that stop early (a pushed-down `LIMIT`
///   under a union pulls children strictly in order) leave later
///   partitions unpulled, and those are safely *excludable*: any
///   mutation that would route their rows into the result prefix must
///   first rewrite a partition that *was* pulled (row order within a
///   partition is insertion order, and the union order is fixed).
/// * **consulted-empty** — per-partition zero-branch pruning dropped
///   the whole pipeline because the partition was provably empty. The
///   result *does* depend on that emptiness (an insert there changes
///   it), so pruned-empty partitions must stay in the footprint even
///   though no operator ever existed to pull.
///
/// Execution is single-threaded, so `Rc` + `Cell` suffice.
#[derive(Debug)]
pub(crate) struct ExecObserver {
    /// Meter (and time) every plan node and global combine, not just the
    /// per-partition pipelines the footprint needs.
    timed: bool,
    consulted_empty: Vec<Cell<bool>>,
    meters: RefCell<Vec<MeterEntry>>,
}

/// One registered meter: its trace label, its partition (`None` for a
/// global combine), and whether it sits on top of that partition's
/// pipeline (so its pulled flag speaks for the partition).
#[derive(Debug)]
struct MeterEntry {
    label: &'static str,
    partition: Option<usize>,
    pipeline: bool,
    meter: Rc<OpMeter>,
}

impl ExecObserver {
    /// An observer for a table with `partitions` partitions, all
    /// untouched.
    pub(crate) fn new(partitions: usize, timed: bool) -> Self {
        ExecObserver {
            timed,
            consulted_empty: (0..partitions).map(|_| Cell::new(false)).collect(),
            meters: RefCell::default(),
        }
    }

    fn pulled_flags(&self) -> Vec<bool> {
        let mut pulled = vec![false; self.consulted_empty.len()];
        for e in self.meters.borrow().iter().filter(|e| e.pipeline) {
            if let Some(pid) = e.partition {
                pulled[pid] |= e.meter.pulled();
            }
        }
        pulled
    }

    /// Partitions whose pipelines were pulled, ascending.
    pub(crate) fn pulled(&self) -> Vec<usize> {
        let pulled = self.pulled_flags();
        (0..pulled.len()).filter(|&pid| pulled[pid]).collect()
    }

    /// The footprint partitions: pulled ∪ consulted-empty, ascending.
    pub(crate) fn footprint(&self) -> Vec<usize> {
        let pulled = self.pulled_flags();
        (0..pulled.len())
            .filter(|&pid| pulled[pid] || self.consulted_empty[pid].get())
            .collect()
    }

    /// The per-operator rows observed so far, in registration order
    /// (within a combine: its per-partition pipelines in partition
    /// order, each node after its inputs, then the combine itself).
    pub(crate) fn operators(&self) -> Vec<OperatorTrace> {
        self.meters
            .borrow()
            .iter()
            .map(|e| OperatorTrace {
                label: e.label.to_string(),
                partition: e.partition,
                batches: e.meter.batches(),
                rows_out: e.meter.rows_out(),
                nanos: e.meter.nanos(),
            })
            .collect()
    }
}

/// The short operator-level name of a plan node (one trace row per
/// node, not the full subtree rendering).
fn node_label(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan {
            filter: Some(_), ..
        } => "Scan+Filter",
        Plan::Scan { .. } => "Scan",
        Plan::PatchScan {
            mode: PatchMode::UsePatches,
            ..
        } => "PatchScan[use_patches]",
        Plan::PatchScan { .. } => "PatchScan[exclude_patches]",
        Plan::Distinct { .. } => "Distinct",
        Plan::Sort { .. } => "Sort",
        Plan::Limit { .. } => "Limit",
        Plan::Union { .. } => "UnionAll",
        Plan::Merge { .. } => "OrderedMerge",
    }
}

/// Wraps `op` in a [`MeterOp`] registered under `label` when the
/// observer wants this operator: always on top of a partition's
/// `pipeline` (its pulled flag is the footprint), otherwise only under
/// EXPLAIN ANALYZE — where the wrapper also reads the clock.
fn observe<'a>(
    op: OpRef<'a>,
    obs: Option<&ExecObserver>,
    label: &'static str,
    partition: Option<usize>,
    pipeline: bool,
) -> OpRef<'a> {
    match obs {
        Some(o) if pipeline || o.timed => {
            let meter = Rc::new(OpMeter::default());
            o.meters.borrow_mut().push(MeterEntry {
                label,
                partition,
                pipeline,
                meter: Rc::clone(&meter),
            });
            Box::new(MeterOp::new(op, meter, o.timed))
        }
        _ => op,
    }
}

/// The empty index set, pre-typed so reference executions
/// (`execute(&plan, table, NO_INDEXES)`) don't need a turbofish now that
/// the executor is generic over owned and `Arc`'d indexes.
pub const NO_INDEXES: &[PatchIndex] = &[];

/// Per-partition zero-branch pruning: returns the plan specialized for
/// partition `pid` with provably empty Union/Merge children removed, or
/// `None` when the whole subtree is guaranteed empty in this partition.
/// The lowering runs this before building each partition's pipeline; it
/// is also the inspection point for tests and EXPLAIN-style tooling.
/// (Same traversal as plan-level ZBP, with per-partition live counts as
/// the leaf bound.) The returned [`Cow`] borrows the input plan whenever
/// this partition prunes nothing — specializing a clean partition costs
/// a traversal, not a deep clone of the plan tree.
pub fn prune_for_partition<'a, I: Borrow<PatchIndex>>(
    plan: &'a Plan,
    table: &Table,
    indexes: &[I],
    pid: usize,
) -> Option<Cow<'a, Plan>> {
    let leaf = |p: &Plan| match p {
        Plan::Scan { .. } => table.partition(pid).visible_len() as u64,
        Plan::PatchScan { mode, slot, .. } => {
            let idx = indexes[*slot].borrow();
            match mode {
                PatchMode::UsePatches => idx.partition_patch_count(pid),
                PatchMode::ExcludePatches => {
                    idx.partition_rows(pid) - idx.partition_patch_count(pid)
                }
            }
        }
        _ => unreachable!("leaf bound invoked on a non-leaf node"),
    };
    // Single-partition specialization: collapsing a single-child Merge is
    // sound here because the surviving stream is sorted within `pid`.
    crate::optimizer::prune_zero_branches(plan, &leaf, true)
}

/// Lowers `plan` for a single partition (no global recombination, no
/// pruning — callers prune first), [`observe`]ing every plan node;
/// `pipeline` says the root is the top of the partition's pipeline.
fn lower_partition<'a, I: Borrow<PatchIndex>>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    pid: usize,
    obs: Option<&ExecObserver>,
    pipeline: bool,
) -> OpRef<'a> {
    let op: OpRef<'a> = match plan {
        Plan::Scan { cols, filter } => {
            let scan: OpRef<'a> = Box::new(ScanOp::new(table.partition(pid), cols.clone(), false));
            match filter {
                Some(pred) => Box::new(FilterOp::new(scan, pred.clone())),
                None => scan,
            }
        }
        Plan::PatchScan {
            cols,
            filter,
            mode,
            slot,
        } => {
            let idx = indexes
                .get(*slot)
                .expect("PatchScan slot outside the index set")
                .borrow();
            let scan = patch_scan(table.partition(pid), idx, cols.clone(), *mode);
            match filter {
                Some(pred) => Box::new(FilterOp::new(scan, pred.clone())),
                None => scan,
            }
        }
        Plan::Distinct { input, cols } => Box::new(HashAggOp::distinct(
            lower_partition(input, table, indexes, pid, obs, false),
            cols.clone(),
        )),
        Plan::Sort { input, keys } => Box::new(SortOp::new(
            lower_partition(input, table, indexes, pid, obs, false),
            keys.clone(),
        )),
        Plan::Limit { input, n } => Box::new(LimitOp::new(
            lower_partition(input, table, indexes, pid, obs, false),
            *n,
        )),
        Plan::Union { inputs } => Box::new(UnionAllOp::new(
            inputs
                .iter()
                .map(|p| lower_partition(p, table, indexes, pid, obs, false))
                .collect(),
        )),
        Plan::Merge { inputs, keys } => Box::new(OrderedMergeOp::new(
            inputs
                .iter()
                .map(|p| lower_partition(p, table, indexes, pid, obs, false))
                .collect(),
            keys.clone(),
        )),
    };
    observe(op, obs, node_label(plan), Some(pid), pipeline)
}

/// Whether a per-partition `LIMIT` below the combine preserves the exact
/// global result: only plain bag scans qualify — the partition-major
/// emission order is identical with and without the pushdown, so the
/// capped prefix is the same rows. (Flows containing Distinct/Sort lower
/// differently per partition than globally and are excluded.)
fn limit_pushes_down(plan: &Plan) -> bool {
    matches!(plan, Plan::Scan { .. } | Plan::PatchScan { .. })
}

/// Specializes `plan` for partition `pid` ([`prune_for_partition`]) and
/// lowers what survives. A partition pruned to nothing contributes no
/// stream and is recorded as consulted-empty (the result depends on its
/// emptiness).
fn lower_pruned<'a, I: Borrow<PatchIndex>>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    pid: usize,
    obs: Option<&ExecObserver>,
    pipeline: bool,
) -> Option<OpRef<'a>> {
    match prune_for_partition(plan, table, indexes, pid) {
        Some(p) => Some(lower_partition(&p, table, indexes, pid, obs, pipeline)),
        None => {
            if let Some(o) = obs {
                o.consulted_empty[pid].set(true);
            }
            None
        }
    }
}

/// Lowers `plan` across all partitions with the appropriate global
/// combine, pruning zero branches per partition. With an observer, the
/// top of every per-partition pipeline is metered (see [`ExecObserver`]
/// for the soundness argument); with a timed one, every plan node (per
/// partition) and every global combine reports wall clock, batch and row
/// counts — the EXPLAIN ANALYZE lowering. The observer never alters a
/// batch, so results are byte-identical with and without it.
pub(crate) fn lower_global<'a, I: Borrow<PatchIndex>>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    obs: Option<&ExecObserver>,
) -> OpRef<'a> {
    let parts = 0..table.partition_count();
    match plan {
        // Bags concatenate across partitions.
        Plan::Scan { .. } | Plan::PatchScan { .. } => {
            let combine: OpRef<'a> = Box::new(UnionAllOp::new(
                parts
                    .filter_map(|pid| lower_pruned(plan, table, indexes, pid, obs, true))
                    .collect(),
            ));
            observe(combine, obs, "UnionAll(global)", None, false)
        }
        // Distinct is distributive: per-partition pre-aggregation, then a
        // global aggregation over the union of partials.
        Plan::Distinct { input, cols } => {
            let partials: Vec<OpRef<'a>> = parts
                .filter_map(|pid| {
                    let partial: OpRef<'a> = Box::new(HashAggOp::distinct(
                        lower_pruned(input, table, indexes, pid, obs, false)?,
                        cols.clone(),
                    ));
                    Some(observe(partial, obs, "Distinct(partial)", Some(pid), true))
                })
                .collect();
            let combine: OpRef<'a> = Box::new(HashAggOp::distinct(
                Box::new(UnionAllOp::new(partials)),
                (0..cols.len()).collect(),
            ));
            observe(combine, obs, "Distinct(global)", None, false)
        }
        // Sorted flows merge across partitions. An input containing a
        // Distinct is not partition-distributive under a merge (only the
        // Distinct arm's global re-aggregation dedups across partitions),
        // so it is lowered globally and sorted once.
        Plan::Sort { input, keys } if input.contains_distinct() => {
            let sorted: OpRef<'a> = Box::new(SortOp::new(
                lower_global(input, table, indexes, obs),
                keys.clone(),
            ));
            observe(sorted, obs, "Sort(global)", None, false)
        }
        Plan::Sort { input, keys } => {
            let sorted: Vec<OpRef<'a>> = parts
                .filter_map(|pid| {
                    let stream: OpRef<'a> = Box::new(SortOp::new(
                        lower_pruned(input, table, indexes, pid, obs, false)?,
                        keys.clone(),
                    ));
                    Some(observe(stream, obs, "Sort(partition)", Some(pid), true))
                })
                .collect();
            let combine: OpRef<'a> = Box::new(OrderedMergeOp::new(sorted, keys.clone()));
            observe(combine, obs, "OrderedMerge(global)", None, false)
        }
        Plan::Merge { inputs, keys } => {
            // Each surviving (partition, child) stream is sorted; one
            // ≤ k·P-way streaming merge, ⌈log₂ streams⌉ comparisons per
            // winner, that pulls every stream once up front and then each
            // only as its rows are emitted. Pruned children simply
            // contribute no stream — this is where a 16-partition table
            // with patches in one partition gets 15 single-stream
            // pipelines. A child containing a Distinct contributes one
            // globally lowered stream instead (see the Sort arm).
            let mut streams: Vec<OpRef<'a>> = Vec::new();
            for child in inputs {
                if child.contains_distinct() {
                    streams.push(lower_global(child, table, indexes, obs));
                    continue;
                }
                streams.extend(
                    parts
                        .clone()
                        .filter_map(|pid| lower_pruned(child, table, indexes, pid, obs, true)),
                );
            }
            let combine: OpRef<'a> = Box::new(OrderedMergeOp::new(streams, keys.clone()));
            observe(combine, obs, "OrderedMerge(global)", None, false)
        }
        Plan::Union { inputs } => {
            let combine: OpRef<'a> = Box::new(UnionAllOp::new(
                inputs
                    .iter()
                    .map(|p| lower_global(p, table, indexes, obs))
                    .collect(),
            ));
            observe(combine, obs, "UnionAll(global)", None, false)
        }
        Plan::Limit { input, n } => {
            if limit_pushes_down(input) {
                // Cap every partition at n below the combine (each scan
                // stops early), keep the exact global cap on top.
                let capped: Vec<OpRef<'a>> = parts
                    .filter_map(|pid| {
                        let capped: OpRef<'a> = Box::new(LimitOp::new(
                            lower_pruned(input, table, indexes, pid, obs, false)?,
                            *n,
                        ));
                        Some(observe(capped, obs, "Limit(partition)", Some(pid), true))
                    })
                    .collect();
                let combine: OpRef<'a> =
                    Box::new(LimitOp::new(Box::new(UnionAllOp::new(capped)), *n));
                observe(combine, obs, "Limit(global)", None, false)
            } else {
                let capped: OpRef<'a> =
                    Box::new(LimitOp::new(lower_global(input, table, indexes, obs), *n));
                observe(capped, obs, "Limit(global)", None, false)
            }
        }
    }
}

/// Executes a plan to completion and returns the concatenated result.
pub fn execute<I: Borrow<PatchIndex>>(plan: &Plan, table: &Table, indexes: &[I]) -> Batch {
    collect(lower_global(plan, table, indexes, None).as_mut())
}

/// Executes a plan, returning only the row count (benchmark helper that
/// avoids result materialization skew).
pub fn execute_count<I: Borrow<PatchIndex>>(plan: &Plan, table: &Table, indexes: &[I]) -> usize {
    count_rows(lower_global(plan, table, indexes, None).as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use patchindex::{Constraint, Design, IndexCatalog, SortDir};
    use pi_exec::ops::sort::{is_sorted_asc, SortOrder};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            2,
            Partitioning::RoundRobin,
        );
        // Partition 0: values with duplicates (planted per partition) and
        // an unsorted stray.
        t.load_partition(
            0,
            &[
                ColumnData::Int(vec![0, 1, 2, 3]),
                ColumnData::Int(vec![5, 5, 8, 9]),
            ],
        );
        t.load_partition(
            1,
            &[
                ColumnData::Int(vec![4, 5, 6]),
                ColumnData::Int(vec![100, 101, 3]),
            ],
        );
        t.propagate_all();
        t
    }

    fn single(idx: PatchIndex) -> Vec<PatchIndex> {
        vec![idx]
    }

    /// [`execute`] with an [`ExecObserver`] attached, as the facade runs it.
    fn collect_probed<I: Borrow<PatchIndex>>(
        plan: &Plan,
        table: &Table,
        indexes: &[I],
        trace: &ExecObserver,
    ) -> Batch {
        collect(lower_global(plan, table, indexes, Some(trace)).as_mut())
    }

    #[test]
    fn reference_distinct_counts_all_values() {
        let t = table();
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let out = execute(&plan, &t, NO_INDEXES);
        // Values: 5,5,8,9,100,101,3 -> 6 distinct.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn rewritten_distinct_matches_reference() {
        let t = table();
        let idx = single(PatchIndex::create(
            &t,
            1,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx), false);
        assert!(opt.to_string().starts_with("Union"));
        let mut reference: Vec<i64> = execute(&plan, &t, NO_INDEXES).column(0).as_int().to_vec();
        let mut rewritten: Vec<i64> = execute(&opt, &t, &idx).column(0).as_int().to_vec();
        reference.sort_unstable();
        rewritten.sort_unstable();
        assert_eq!(reference, rewritten);
    }

    #[test]
    fn rewritten_sort_matches_reference() {
        let t = table();
        let idx = single(PatchIndex::create(
            &t,
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        ));
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx), false);
        assert!(opt.to_string().starts_with("Merge"), "{opt}");
        let reference = execute(&plan, &t, NO_INDEXES);
        let rewritten = execute(&opt, &t, &idx);
        assert_eq!(reference.column(0).as_int(), rewritten.column(0).as_int());
        assert!(is_sorted_asc(rewritten.column(0)));
    }

    #[test]
    fn zbp_plan_executes_on_clean_data() {
        let mut t = Table::new(
            "clean",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int((0..50).collect())]);
        t.load_partition(1, &[ColumnData::Int((50..100).collect())]);
        t.propagate_all();
        let idx = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx), true);
        assert!(opt.to_string().starts_with("PatchScan"));
        // ZBP plan: pure scan of the excluding flow, still complete.
        assert_eq!(execute_count(&opt, &t, &idx), 100);
    }

    #[test]
    fn filtered_scan_lowering() {
        let t = table();
        let plan = Plan::Scan {
            cols: vec![1],
            filter: Some(pi_exec::Expr::col(0).ge(pi_exec::Expr::LitInt(100))),
        };
        assert_eq!(execute_count(&plan, &t, NO_INDEXES), 2);
    }

    #[test]
    fn limit_applies_globally() {
        let t = table();
        let plan = Plan::scan(vec![1]).limit(3);
        assert_eq!(execute_count(&plan, &t, NO_INDEXES), 3);
    }

    #[test]
    fn pushed_down_limit_keeps_exact_row_prefix() {
        let t = table();
        // Pushdown path (bag scan): identical rows to the unpushed
        // semantics, i.e. the first n rows of the full scan in partition
        // order.
        let full: Vec<i64> = execute(&Plan::scan(vec![1]), &t, NO_INDEXES)
            .column(0)
            .as_int()
            .to_vec();
        for n in [0usize, 2, 4, 6, 100] {
            let plan = Plan::scan(vec![1]).limit(n);
            let pushed = execute(&plan, &t, NO_INDEXES);
            let got: Vec<i64> = if pushed.is_empty() {
                Vec::new()
            } else {
                pushed.column(0).as_int().to_vec()
            };
            let mut expect = full.clone();
            expect.truncate(n);
            assert_eq!(got, expect, "n={n}");
        }
    }

    /// 16 partitions, patches confined to partition 5: the lowered plan
    /// must instantiate the `use_patches` flow in exactly one partition.
    #[test]
    fn per_partition_zbp_instantiates_patch_flow_once() {
        let parts = 16usize;
        let mut t = Table::new(
            "wide",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let base = (pid * 100) as i64;
            let mut vals: Vec<i64> = (base..base + 100).collect();
            if pid == 5 {
                vals[50] = -1; // one out-of-order stray -> one patch
            }
            t.load_partition(pid, &[ColumnData::Int(vals)]);
        }
        t.propagate_all();
        let indexes = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        ));
        assert_eq!(indexes[0].exception_count(), 1);

        let plan = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &indexes), true);
        assert!(opt.to_string().starts_with("Merge"), "{opt}");

        // Plan inspection: the per-partition specialization used by the
        // lowering keeps the use_patches flow only in partition 5.
        let with_patch_flow: Vec<usize> = (0..parts)
            .filter(|&pid| {
                prune_for_partition(&opt, &t, &indexes, pid)
                    .map(|p| p.to_string().contains("use_patches"))
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(with_patch_flow, vec![5]);
        // Clean partitions collapse to the bare excluding stream.
        let clean = prune_for_partition(&opt, &t, &indexes, 0).unwrap();
        assert!(
            clean.to_string().starts_with("PatchScan[exclude_patches]"),
            "{clean}"
        );

        // And the pruned execution is still exact.
        let reference = execute(&plan, &t, NO_INDEXES);
        let got = execute(&opt, &t, &indexes);
        assert_eq!(reference.column(0).as_int(), got.column(0).as_int());
        assert_eq!(
            execute_count(&opt, &t, &indexes),
            execute_count(&plan, &t, NO_INDEXES)
        );
    }

    /// Regression: SELECT DISTINCT … ORDER BY — a Distinct nested below
    /// a Sort must still dedup across partitions (the sort's merge is not
    /// a re-aggregation, so the distinct input is lowered globally).
    #[test]
    fn distinct_below_sort_dedups_across_partitions() {
        let t = table(); // value 5 twice in p0; no cross-partition dups
        let mut t2 = Table::new(
            "dup",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t2.load_partition(0, &[ColumnData::Int(vec![1, 7, 2])]);
        t2.load_partition(1, &[ColumnData::Int(vec![7, 3])]);
        t2.propagate_all();
        for (tbl, expect) in [(&t, vec![3i64, 5, 8, 9, 100, 101]), (&t2, vec![1, 2, 3, 7])] {
            let col = if std::ptr::eq(tbl, &t) { 1 } else { 0 };
            let plan = Plan::scan(vec![col])
                .distinct(vec![0])
                .sort(vec![(0, SortOrder::Asc)]);
            let got = execute(&plan, tbl, NO_INDEXES);
            assert_eq!(got.column(0).as_int(), expect.as_slice());
        }
    }

    /// Regression: NSC sortedness is per-partition, so even a zero-patch
    /// plan must keep the global ordered merge — collapsing the Merge to
    /// a bare PatchScan would concatenate partitions unsorted.
    #[test]
    fn zbp_on_interleaved_partitions_keeps_global_merge() {
        let mut t = Table::new(
            "interleaved",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        // Each partition sorted; ranges interleave across partitions.
        t.load_partition(0, &[ColumnData::Int(vec![10, 20, 30])]);
        t.load_partition(1, &[ColumnData::Int(vec![1, 2, 3])]);
        t.propagate_all();
        let idx = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        ));
        assert_eq!(idx[0].exception_count(), 0);
        let plan = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx), true);
        // ZBP drops the patches flow but keeps the Merge wrapper.
        assert!(!opt.to_string().contains("use_patches"), "{opt}");
        assert!(opt.to_string().starts_with("Merge"), "{opt}");
        let got = execute(&opt, &t, &idx);
        assert_eq!(got.column(0).as_int(), &[1, 2, 3, 10, 20, 30]);
    }

    /// Regression: a distinct over a multi-column scan must execute (the
    /// NUC rewrite is width-restricted to single-column scans; firing it
    /// here would union mismatched widths and panic).
    #[test]
    fn multi_column_scan_distinct_executes() {
        let t = table();
        let idx = single(PatchIndex::create(
            &t,
            1,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let plan = Plan::Scan {
            cols: vec![0, 1],
            filter: None,
        }
        .distinct(vec![1]);
        let reference = execute_count(&plan, &t, NO_INDEXES);
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx), true);
        assert_eq!(execute_count(&opt, &t, &idx), reference);
    }

    /// Regression: NCC constants are partition-local, so a patch in one
    /// partition can carry another partition's constant — the rewritten
    /// distinct must still dedup across the two flows.
    #[test]
    fn ncc_rewrite_dedups_value_shared_between_flows() {
        let mut t = Table::new(
            "ncc",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        // Partition 0: constant 7. Partition 1: constant 8, one patch 7.
        t.load_partition(0, &[ColumnData::Int(vec![7, 7, 7, 7])]);
        t.load_partition(1, &[ColumnData::Int(vec![8, 8, 7, 8])]);
        t.propagate_all();
        let idx = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyConstant,
            Design::Bitmap,
        ));
        let cat = IndexCatalog::of(&t, &idx);
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        let reference = execute_count(&plan, &t, NO_INDEXES);
        assert_eq!(reference, 2);
        // Force the rewrite (the cost gate is irrelevant to correctness).
        let rewritten = crate::optimizer::rewrite(plan, &cat.indexes[0]);
        assert!(rewritten.to_string().contains("use_patches"), "{rewritten}");
        assert_eq!(execute_count(&rewritten, &t, &idx), reference);
    }

    /// Partitions that prune nothing must not deep-clone the plan: the
    /// specialization returns a borrow of the optimized tree.
    #[test]
    fn unpruned_partitions_borrow_the_plan() {
        let t = table();
        let idx = single(PatchIndex::create(
            &t,
            1,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx), false);
        // Both partitions hold patches (value 5 in p0; none in p1 — check).
        assert!(idx[0].partition_patch_count(0) > 0);
        let specialized = prune_for_partition(&opt, &t, &idx, 0).unwrap();
        assert!(
            matches!(specialized, Cow::Borrowed(_)),
            "nothing pruned in partition 0 — the plan must be borrowed"
        );
        // Partition 1 has no patches: the use_patches flow is pruned (the
        // surviving subtree may itself still be a borrow — collapsing to
        // a single child borrows that child instead of rebuilding).
        assert_eq!(idx[0].partition_patch_count(1), 0);
        let specialized = prune_for_partition(&opt, &t, &idx, 1).unwrap();
        assert!(!specialized.to_string().contains("use_patches"));
        assert_ne!(specialized.to_string(), opt.to_string());
    }

    /// Regression: a combine that collapses to a single child comes back
    /// as a *borrow of the child* — the wrapper node above it must not
    /// mistake that for "nothing pruned" and resurrect the original
    /// subtree. (The NCC rewrite nests its Union under a Distinct, so a
    /// clean partition must still lose the use_patches flow there.)
    #[test]
    fn collapse_under_a_wrapper_node_still_prunes() {
        let mut t = Table::new(
            "ncc2",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![7, 7, 9, 7])]); // 1 patch
        t.load_partition(1, &[ColumnData::Int(vec![8, 8, 8])]); // clean
        t.propagate_all();
        let idx = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlyConstant,
            Design::Bitmap,
        ));
        let cat = IndexCatalog::of(&t, &idx);
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        // The NCC shape: Distinct over a Union of two Distincts.
        let rewritten = crate::optimizer::rewrite(plan.clone(), &cat.indexes[0]);
        assert!(rewritten.to_string().starts_with("Distinct"), "{rewritten}");
        let clean = prune_for_partition(&rewritten, &t, &idx, 1).unwrap();
        assert!(
            !clean.to_string().contains("use_patches"),
            "partition 1 has no patches — the flow must be pruned under the wrapper:\n{clean}"
        );
        let dirty = prune_for_partition(&rewritten, &t, &idx, 0).unwrap();
        assert!(dirty.to_string().contains("use_patches"));
        // Results stay exact either way.
        let reference = execute_count(&plan, &t, NO_INDEXES);
        assert_eq!(execute_count(&rewritten, &t, &idx), reference);
        // Same guard for a Sort wrapper above a Merge that collapses.
        let splan = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]).limit(3);
        let nsc = single(PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        ));
        let opt = optimize(splan, &IndexCatalog::of(&t, &nsc), false);
        if opt.to_string().contains("Merge") {
            let p1 = prune_for_partition(&opt, &t, &nsc, 1).unwrap();
            assert!(!p1.to_string().contains("use_patches"), "{p1}");
        }
    }

    #[test]
    fn empty_partition_scan_is_pruned() {
        let mut t = Table::new(
            "holes",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            3,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![3, 1])]);
        // Partition 1 stays empty.
        t.load_partition(2, &[ColumnData::Int(vec![2])]);
        t.propagate_all();
        let plan = Plan::scan(vec![0]);
        assert!(prune_for_partition(&plan, &t, NO_INDEXES, 1).is_none());
        assert_eq!(execute_count(&plan, &t, NO_INDEXES), 3);
        let sorted = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        assert_eq!(
            execute(&sorted, &t, NO_INDEXES).column(0).as_int(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn traced_execution_matches_untraced() {
        let t = table();
        let idx = single(PatchIndex::create(
            &t,
            1,
            Constraint::NearlyUnique,
            Design::Bitmap,
        ));
        for plan in [
            Plan::scan(vec![1]),
            Plan::scan(vec![1]).distinct(vec![0]),
            Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]),
            Plan::scan(vec![1])
                .distinct(vec![0])
                .sort(vec![(0, SortOrder::Asc)]),
            Plan::scan(vec![1]).limit(3),
        ] {
            let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx), false);
            let trace = ExecObserver::new(t.partition_count(), true);
            let traced = collect_probed(&opt, &t, &idx, &trace);
            let plain = execute(&opt, &t, &idx);
            assert_eq!(
                traced.column(0).as_int(),
                plain.column(0).as_int(),
                "{plan}"
            );
            let ctrace = ExecObserver::new(t.partition_count(), false);
            assert_eq!(
                count_rows(lower_global(&opt, &t, &idx, Some(&ctrace)).as_mut()),
                plain.len(),
                "{plan}"
            );
        }
    }

    #[test]
    fn full_scan_footprint_covers_every_partition() {
        let t = table();
        let trace = ExecObserver::new(t.partition_count(), false);
        collect_probed(
            &Plan::scan(vec![1]).distinct(vec![0]),
            &t,
            NO_INDEXES,
            &trace,
        );
        assert_eq!(trace.footprint(), vec![0, 1]);
    }

    #[test]
    fn pushed_down_limit_excludes_unreached_partitions() {
        let t = table(); // 4 rows in p0, 3 in p1
        let trace = ExecObserver::new(t.partition_count(), false);
        let out = collect_probed(&Plan::scan(vec![1]).limit(2), &t, NO_INDEXES, &trace);
        assert_eq!(out.len(), 2);
        // Partition 0 alone satisfies the limit; the union never pulls
        // partition 1, so the footprint provably excludes it.
        assert_eq!(trace.footprint(), vec![0]);
        assert_eq!(trace.pulled(), vec![0]);
        let batches: Vec<_> = trace
            .operators()
            .iter()
            .map(|o| (o.partition, o.batches))
            .collect();
        assert_eq!(batches, [(Some(0), 1), (Some(1), 0)]);
    }

    #[test]
    fn pruned_empty_partition_stays_in_the_footprint() {
        let mut t = Table::new(
            "holes",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            3,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![3, 1])]);
        // Partition 1 stays empty (pruned before lowering).
        t.load_partition(2, &[ColumnData::Int(vec![2])]);
        t.propagate_all();
        let trace = ExecObserver::new(t.partition_count(), false);
        collect_probed(&Plan::scan(vec![0]), &t, NO_INDEXES, &trace);
        // The result depends on partition 1 *being empty*: an insert
        // there changes it, so consulted-empty keeps it in the footprint.
        assert_eq!(trace.pulled(), vec![0, 2]);
        assert_eq!(trace.footprint(), vec![0, 1, 2]);
    }
}
