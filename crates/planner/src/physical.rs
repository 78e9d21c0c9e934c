//! Lowering logical plans to executable operator trees.
//!
//! Queries run partition-locally and in parallel (paper, Section 3.2):
//! this lowering produces, per plan node, the per-partition pipeline plus
//! the correct global combine (union for bags, ordered merge for sorted
//! flows, a global re-aggregation for distinct), mirroring how the
//! paper's host system parallelizes over partitions.
//!
//! **What runs in tasks.** Each partition's part of a combine — a
//! distinct's partial, a per-partition `SortOp`, a merge's
//! (partition, child) stream, a bag scan — is one
//! [`fan_out`] task on the process-wide pool.
//! Operators are not `Send`, so the task lowers its own partition's
//! pipeline, pruning as it goes, and drains it to a `Vec<Batch>`; the
//! combine reads the pieces through a [`BatchSource`] each, in partition
//! order, so the result bytes are the sequential pull's. A global ordered
//! merge takes the drained runs themselves: its [`SplitMergeOp`] cuts
//! them into key ranges at its first pull and merges each range as one
//! more pool task, so the merge runs on the pool too.
//!
//! **What stays lazy.** Only a flow with a `LIMIT` above it: a bag scan
//! under a pushed-down or global limit, and the NSC sort rewrite's kept
//! flows, are lowered in place and pulled on demand by their combine, and
//! the ordered merge above them streams through one loser tree instead of
//! splitting. Sorts and distincts run as tasks even there, since their
//! first pull reads the whole partition anyway. The plan's shape alone
//! decides.
//!
//! Zero-branch pruning (paper, Section 6.3) is part of lowering a
//! partition's pipeline, in the same bottom-up pass
//! (`lower_partition`): a leaf whose live count *in that partition* is
//! zero lowers to nothing, a wrapper over nothing is nothing, and a
//! Union/Merge keeps the children that lowered to something — with one
//! left, it is that child. So a table with patches confined to one
//! partition instantiates the `use_patches` flow only there, and the
//! other partitions run the clean pipeline alone. A subtree that every
//! partition prunes lowers to no operator at all, and a global union left
//! with one child is that child.
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
//! `ExecObserver`: EXPLAIN ANALYZE's per-operator meters, whose pulled
//! flags also give the trace's visited/pruned partition counts. The
//! public executors [`execute`] / [`execute_count`] and every untraced
//! query run it unobserved; only a traced query attaches the observer,
//! and then every task meters under an observer of its own, whose
//! meters the caller appends after the join. A combine's meter times its
//! own work and the lazy flows below it only: the pipelines that ran as
//! tasks finished before its first pull. A split merge's meter covers
//! the split and every range's merge, which run inside its first pull.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::sync::Arc;

use patchindex::scan::patch_scan;
use patchindex::PatchIndex;
use pi_exec::ops::agg::HashAggOp;
use pi_exec::ops::filter::FilterOp;
use pi_exec::ops::merge::{LimitOp, OrderedMergeOp, SplitMergeOp, UnionAllOp};
use pi_exec::ops::meter::{MeterOp, OpMeter};
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::{SortKeySpec, SortOp};
use pi_exec::parallel::fan_out;
use pi_exec::{collect, count_rows, drain, Batch, BatchSource, OpRef};
use pi_obs::OperatorTrace;
use pi_storage::Table;

use crate::logical::Plan;

/// What one EXPLAIN ANALYZE execution records: one meter per plan node
/// and global combine — the operator half of a [`pi_obs::QueryTrace`] —
/// and, through their pulled flags, which partitions the execution
/// pulled. Combines that stop early (a pushed-down `LIMIT` under a union
/// pulls children strictly in order) leave later partitions unpulled.
///
/// A pool task lowers its partition under an observer of its own and
/// hands its meters back after the join, which the caller's observer
/// appends in partition order. A meter's counters are relaxed atomics
/// behind an `Arc`, so the entries cross the join as they are.
#[derive(Debug, Default)]
pub(crate) struct ExecObserver {
    meters: RefCell<Vec<MeterEntry>>,
}

/// One registered meter: its trace label and its partition (`None` for
/// a global combine).
#[derive(Debug)]
struct MeterEntry {
    label: &'static str,
    partition: Option<usize>,
    meter: Arc<OpMeter>,
}

impl ExecObserver {
    /// Partitions any of whose meters was pulled, ascending. A node is
    /// pulled only inside its parent's pull, so that is exactly the
    /// partitions whose pipelines were pulled.
    pub(crate) fn pulled(&self) -> Vec<usize> {
        let mut pulled: Vec<usize> = self
            .meters
            .borrow()
            .iter()
            .filter(|e| e.meter.pulled())
            .filter_map(|e| e.partition)
            .collect();
        pulled.sort_unstable();
        pulled.dedup();
        pulled
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

/// Wraps `op` in a [`MeterOp`] registered under `label` when there is
/// an observer.
fn observe<'a>(
    op: OpRef<'a>,
    obs: Option<&ExecObserver>,
    label: &'static str,
    partition: Option<usize>,
) -> OpRef<'a> {
    match obs {
        Some(o) => {
            let meter = Arc::new(OpMeter::default());
            o.meters.borrow_mut().push(MeterEntry {
                label,
                partition,
                meter: Arc::clone(&meter),
            });
            Box::new(MeterOp::new(op, meter))
        }
        None => op,
    }
}

/// The empty index set, pre-typed so reference executions
/// (`execute(&plan, table, NO_INDEXES)`) don't need a turbofish now that
/// the executor is generic over owned and `Arc`'d indexes.
pub const NO_INDEXES: &[PatchIndex] = &[];

/// Lowers `plan` for partition `pid` alone (no global recombination),
/// [`observe`]ing every plan node, and prunes its zero branches there:
/// `None` when the subtree holds no row in this partition. Each leaf
/// reads one live count — the partition's visible rows, or the index's
/// patch or kept count — and no other node reads any; a `Limit 0` is
/// empty too. Within one partition a lone surviving Merge child is
/// sorted already, so a Union or Merge left with one child is that child.
fn lower_partition<'a, I: Borrow<PatchIndex>>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    pid: usize,
    obs: Option<&ExecObserver>,
) -> Option<OpRef<'a>> {
    let lower = |p: &Plan| lower_partition(p, table, indexes, pid, obs);
    let op: OpRef<'a> = match plan {
        Plan::Scan { cols, filter } | Plan::PatchScan { cols, filter, .. } => {
            let part = table.partition(pid);
            let scan: OpRef<'a> = match plan {
                Plan::PatchScan { mode, slot, .. } => {
                    let idx = indexes
                        .get(*slot)
                        .expect("PatchScan slot outside the index set")
                        .borrow();
                    let patches = idx.partition_patch_count(pid);
                    let live = match mode {
                        PatchMode::UsePatches => patches,
                        PatchMode::ExcludePatches => idx.partition_rows(pid) - patches,
                    };
                    if live == 0 {
                        return None;
                    }
                    patch_scan(part, idx, cols.clone(), *mode)
                }
                _ if part.visible_len() == 0 => return None,
                _ => Box::new(ScanOp::new(part, cols.clone(), false)),
            };
            match filter {
                Some(pred) => Box::new(FilterOp::new(scan, pred.clone())),
                None => scan,
            }
        }
        Plan::Distinct { input, cols } => partial_distinct(input, lower(input)?, cols, indexes),
        Plan::Sort { input, keys } => Box::new(SortOp::new(lower(input)?, keys.clone())),
        Plan::Limit { n: 0, .. } => return None,
        Plan::Limit { input, n } => Box::new(LimitOp::new(lower(input)?, *n)),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            let mut kept: Vec<OpRef<'a>> = inputs.iter().filter_map(lower).collect();
            if kept.len() <= 1 {
                return kept.pop();
            }
            match plan {
                Plan::Merge { keys, .. } => Box::new(OrderedMergeOp::new(kept, keys.clone())),
                _ => Box::new(UnionAllOp::new(kept)),
            }
        }
    };
    Some(observe(op, obs, node_label(plan), Some(pid)))
}

/// One partition's distinct on `cols` over `op`, the lowered `input`.
/// Over an NCC index's kept flow ([`Plan::is_ncc_kept_flow`]) every row
/// holds the partition's constant, so the first row that passes the
/// filter is the flow's whole distinct: a `LimitOp(…, 1)` below the
/// aggregation stops the scan after its first window.
fn partial_distinct<'a, I: Borrow<PatchIndex>>(
    input: &Plan,
    op: OpRef<'a>,
    cols: &[usize],
    indexes: &[I],
) -> OpRef<'a> {
    let constant = input.is_ncc_kept_flow(cols, |slot| {
        let idx = indexes[slot].borrow();
        (idx.constraint(), idx.column())
    });
    let op: OpRef<'a> = if constant {
        Box::new(LimitOp::new(op, 1))
    } else {
        op
    };
    Box::new(HashAggOp::distinct(op, cols.to_vec()))
}

/// Whether a per-partition `LIMIT` below the combine preserves the exact
/// global result: only plain bag scans qualify — the partition-major
/// emission order is identical with and without the pushdown, so the
/// capped prefix is the same rows. (Flows containing Distinct/Sort lower
/// differently per partition than globally and are excluded.)
fn limit_pushes_down(plan: &Plan) -> bool {
    matches!(plan, Plan::Scan { .. } | Plan::PatchScan { .. })
}

/// One stream per partition that `lower(pid, obs)` does not prune, in
/// partition order. A `lazy` flow (one a `LIMIT` sits above) is lowered
/// here and pulled by its combine on demand. Any other is [`drained`] by
/// pool tasks, and its combine reads each partition's batches through a
/// [`BatchSource`].
fn pieces<'a>(
    parts: usize,
    obs: Option<&ExecObserver>,
    lazy: bool,
    lower: impl Fn(usize, Option<&ExecObserver>) -> Option<OpRef<'a>> + Sync,
) -> Vec<OpRef<'a>> {
    if lazy {
        (0..parts).filter_map(|pid| lower(pid, obs)).collect()
    } else {
        sources(drained(parts, obs, lower))
    }
}

/// One [`BatchSource`] per drained run.
fn sources<'a>(runs: Vec<Vec<Batch>>) -> Vec<OpRef<'a>> {
    let source = |batches| Box::new(BatchSource::new(batches)) as OpRef<'a>;
    runs.into_iter().map(source).collect()
}

/// The batches of every partition that `lower(pid, obs)` does not prune,
/// in partition order, each partition run as one [`fan_out`] task: the
/// task lowers its own pipeline (operators are not `Send`) under an
/// observer of its own when the query is observed, drains it, and hands
/// back its batches and its meters, which `obs` appends in partition
/// order.
fn drained<'a>(
    parts: usize,
    obs: Option<&ExecObserver>,
    lower: impl Fn(usize, Option<&ExecObserver>) -> Option<OpRef<'a>> + Sync,
) -> Vec<Vec<Batch>> {
    let observed = obs.is_some();
    let drained = fan_out(parts, |pid| {
        let own = observed.then(ExecObserver::default);
        let batches = drain(lower(pid, own.as_ref())?.as_mut());
        Some((batches, own.map(|o| o.meters.into_inner())))
    });
    drained
        .into_iter()
        .flatten()
        .map(|(batches, meters)| {
            if let (Some(obs), Some(meters)) = (obs, meters) {
                obs.meters.borrow_mut().extend(meters);
            }
            batches
        })
        .collect()
}

/// The global ordered merge of drained sorted `runs`: under a `LIMIT`
/// (`lazy`), the streaming [`OrderedMergeOp`], which stops once the limit
/// holds its rows; otherwise a [`SplitMergeOp`], which merges the runs
/// whole, one key range per pool task.
fn merge_global<'a>(
    runs: Vec<Vec<Batch>>,
    keys: &[SortKeySpec],
    obs: Option<&ExecObserver>,
    lazy: bool,
) -> Option<OpRef<'a>> {
    if runs.is_empty() {
        return None;
    }
    let combine: OpRef<'a> = if lazy {
        Box::new(OrderedMergeOp::new(sources(runs), keys.to_vec()))
    } else {
        Box::new(SplitMergeOp::new(runs, keys.to_vec()))
    };
    Some(observe(combine, obs, "OrderedMerge(global)", None))
}

/// Lowers `plan` across all partitions ([`lower_combined`]); a plan that
/// every partition prunes to nothing runs as an empty stream.
pub(crate) fn lower_global<'a, I: Borrow<PatchIndex> + Sync>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    obs: Option<&ExecObserver>,
) -> OpRef<'a> {
    lower_combined(plan, table, indexes, obs, false)
        .unwrap_or_else(|| Box::new(UnionAllOp::new(vec![])))
}

/// Lowers `plan` across all partitions with the appropriate global
/// combine, pruning zero branches per partition; `None` when every
/// partition prunes the whole subtree, so it lowers to no operator. A
/// global union of one surviving child is that child. Each partition's
/// part of a combine is one [`pieces`] stream: drained by a pool task
/// unless the flow is `lazy` — a bag under a `LIMIT` — while sorts and
/// distincts, which read their whole partition at the first pull, always
/// run as tasks. An ordered merge that is not `lazy` takes the
/// [`drained`] runs themselves ([`merge_global`]). With an observer (the EXPLAIN ANALYZE lowering), every
/// plan node (per partition) and every global combine reports wall clock,
/// batch and row counts. The observer never alters a batch, so results
/// are byte-identical with and without it.
fn lower_combined<'a, I: Borrow<PatchIndex> + Sync>(
    plan: &Plan,
    table: &'a Table,
    indexes: &'a [I],
    obs: Option<&ExecObserver>,
    lazy: bool,
) -> Option<OpRef<'a>> {
    let parts = table.partition_count();
    // A combine over no stream is none at all.
    let some = |streams: Vec<OpRef<'a>>| (!streams.is_empty()).then_some(streams);
    let op = match plan {
        // Bags concatenate across partitions.
        Plan::Scan { .. } | Plan::PatchScan { .. } => {
            let streams = pieces(parts, obs, lazy, |pid, obs| {
                lower_partition(plan, table, indexes, pid, obs)
            });
            let combine: OpRef<'a> = Box::new(UnionAllOp::new(some(streams)?));
            observe(combine, obs, "UnionAll(global)", None)
        }
        // Distinct is distributive: per-partition pre-aggregation, then a
        // global aggregation over the union of partials.
        Plan::Distinct { input, cols } => {
            let partials = pieces(parts, obs, false, |pid, obs| {
                let partial = partial_distinct(
                    input,
                    lower_partition(input, table, indexes, pid, obs)?,
                    cols,
                    indexes,
                );
                Some(observe(partial, obs, "Distinct(partial)", Some(pid)))
            });
            let combine: OpRef<'a> = Box::new(HashAggOp::distinct(
                Box::new(UnionAllOp::new(some(partials)?)),
                (0..cols.len()).collect(),
            ));
            observe(combine, obs, "Distinct(global)", None)
        }
        // Sorted flows merge across partitions. An input containing a
        // Distinct is not partition-distributive under a merge (only the
        // Distinct arm's global re-aggregation dedups across partitions),
        // so it is lowered globally and sorted once.
        Plan::Sort { input, keys } if input.contains_distinct() => {
            let input = lower_combined(input, table, indexes, obs, lazy)?;
            let sorted: OpRef<'a> = Box::new(SortOp::new(input, keys.clone()));
            observe(sorted, obs, "Sort(global)", None)
        }
        Plan::Sort { input, keys } => {
            let sorted = drained(parts, obs, |pid, obs| {
                let stream: OpRef<'a> = Box::new(SortOp::new(
                    lower_partition(input, table, indexes, pid, obs)?,
                    keys.clone(),
                ));
                Some(observe(stream, obs, "Sort(partition)", Some(pid)))
            });
            merge_global(sorted, keys, obs, lazy)?
        }
        // Each surviving (partition, child) stream is sorted, and one
        // ≤ k·P-way merge combines them. Pruned children simply contribute
        // no stream — this is where a 16-partition table with patches in
        // one partition gets 15 single-stream pipelines. A child
        // containing a Distinct contributes one globally lowered stream
        // instead (see the Sort arm).
        Plan::Merge { inputs, keys } if lazy => {
            // Under a `LIMIT` the merge streams: it pulls every stream
            // once up front and then each only as its rows are emitted.
            // A sorted child's streams still run as tasks, since the
            // merge's first pull sorts their whole partition anyway.
            let mut streams: Vec<OpRef<'a>> = Vec::new();
            for child in inputs {
                if child.contains_distinct() {
                    streams.extend(lower_combined(child, table, indexes, obs, lazy));
                    continue;
                }
                let lazy = !matches!(child, Plan::Sort { .. });
                streams.extend(pieces(parts, obs, lazy, |pid, obs| {
                    lower_partition(child, table, indexes, pid, obs)
                }));
            }
            let combine: OpRef<'a> = Box::new(OrderedMergeOp::new(some(streams)?, keys.clone()));
            observe(combine, obs, "OrderedMerge(global)", None)
        }
        Plan::Merge { inputs, keys } => {
            let mut runs: Vec<Vec<Batch>> = Vec::new();
            for child in inputs {
                if child.contains_distinct() {
                    let stream = lower_combined(child, table, indexes, obs, lazy);
                    runs.extend(stream.map(|mut op| drain(op.as_mut())));
                    continue;
                }
                runs.extend(drained(parts, obs, |pid, obs| {
                    lower_partition(child, table, indexes, pid, obs)
                }));
            }
            merge_global(runs, keys, obs, lazy)?
        }
        Plan::Union { inputs } => {
            let mut children: Vec<OpRef<'a>> = inputs
                .iter()
                .filter_map(|p| lower_combined(p, table, indexes, obs, lazy))
                .collect();
            if children.len() == 1 {
                return children.pop();
            }
            let combine: OpRef<'a> = Box::new(UnionAllOp::new(some(children)?));
            observe(combine, obs, "UnionAll(global)", None)
        }
        Plan::Limit { input, n } => {
            if limit_pushes_down(input) {
                // Cap every partition at n below the combine (each scan
                // stops early), keep the exact global cap on top.
                let capped = pieces(parts, obs, true, |pid, obs| {
                    let capped: OpRef<'a> = Box::new(LimitOp::new(
                        lower_partition(input, table, indexes, pid, obs)?,
                        *n,
                    ));
                    Some(observe(capped, obs, "Limit(partition)", Some(pid)))
                });
                let combine: OpRef<'a> =
                    Box::new(LimitOp::new(Box::new(UnionAllOp::new(some(capped)?)), *n));
                observe(combine, obs, "Limit(global)", None)
            } else {
                let input = lower_combined(input, table, indexes, obs, true)?;
                let capped: OpRef<'a> = Box::new(LimitOp::new(input, *n));
                observe(capped, obs, "Limit(global)", None)
            }
        }
    };
    Some(op)
}

/// Executes a plan to completion and returns the concatenated result.
pub fn execute<I: Borrow<PatchIndex> + Sync>(plan: &Plan, table: &Table, indexes: &[I]) -> Batch {
    collect(lower_global(plan, table, indexes, None).as_mut())
}

/// Executes a plan, returning only the row count (benchmark helper that
/// avoids result materialization skew).
pub fn execute_count<I: Borrow<PatchIndex> + Sync>(
    plan: &Plan,
    table: &Table,
    indexes: &[I],
) -> usize {
    count_rows(lower_global(plan, table, indexes, None).as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::optimizer::optimize;
    use patchindex::{Constraint, Design, IndexCatalog, IndexedTable, SortDir};
    use pi_exec::ops::sort::{is_sorted_asc, SortOrder};
    use pi_exec::{Expr, BATCH_SIZE};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Value};

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

    /// [`execute`] with an [`ExecObserver`] attached, as a traced query
    /// runs it.
    fn collect_probed<I: Borrow<PatchIndex> + Sync>(
        plan: &Plan,
        table: &Table,
        indexes: &[I],
        trace: &ExecObserver,
    ) -> Batch {
        collect(lower_global(plan, table, indexes, Some(trace)).as_mut())
    }

    /// The operator labels a traced execution of `plan` ran in each
    /// partition, indexed by partition, each node after its inputs.
    fn ran<I: Borrow<PatchIndex> + Sync>(
        plan: &Plan,
        table: &Table,
        indexes: &[I],
    ) -> Vec<Vec<String>> {
        let trace = ExecObserver::default();
        collect_probed(plan, table, indexes, &trace);
        let mut ran = vec![Vec::new(); table.partition_count()];
        for o in trace.operators() {
            if let Some(pid) = o.partition {
                ran[pid].push(o.label);
            }
        }
        ran
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
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx));
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
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx));
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
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx));
        // Every partition runs a pure scan of the excluding flow, and the
        // result is still complete.
        for labels in ran(&opt, &t, &idx) {
            assert_eq!(labels, ["PatchScan[exclude_patches]"], "{opt}");
        }
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
        let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &indexes));
        assert!(opt.to_string().starts_with("Merge"), "{opt}");

        // What ran: the use_patches flow only in partition 5.
        let ran = ran(&opt, &t, &indexes);
        let with_patch_flow: Vec<usize> = (0..parts)
            .filter(|&pid| ran[pid].iter().any(|l| l == "PatchScan[use_patches]"))
            .collect();
        assert_eq!(with_patch_flow, vec![5]);
        // Clean partitions run the bare excluding stream.
        assert_eq!(ran[0], ["PatchScan[exclude_patches]"]);

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
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx));
        // Each partition prunes its patches flow; the global merge stays.
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
        let opt = optimize(plan, &IndexCatalog::of(&t, &idx));
        assert_eq!(execute_count(&opt, &t, &idx), reference);
    }

    /// Sorted renderings of a result's rows: a distinct emits in
    /// first-seen order, which a rewrite may permute.
    fn sorted_rows(b: &Batch) -> Vec<String> {
        let mut rows: Vec<String> = (0..b.len())
            .map(|i| {
                let row: Vec<_> = (0..b.width())
                    .map(|c| b.raw_column(c).value(b.row(i)))
                    .collect();
                format!("{row:?}")
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// A two-partition table `(v, w)`, `v` as `load` gives it per
    /// partition and `w` the row's load position, with an NCC on `v`.
    fn ncc_table(dtype: DataType, load: impl Fn(&Table, usize) -> ColumnData) -> IndexedTable {
        let mut t = Table::new(
            "ncc",
            Schema::new(vec![Field::new("v", dtype), Field::new("w", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        for pid in 0..2 {
            let v = load(&t, pid);
            let w = ColumnData::Int((0..v.len() as i64).collect());
            t.load_partition(pid, &[v, w]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(0, Constraint::NearlyConstant, Design::Bitmap);
        it
    }

    /// Regression: NCC constants are partition-local, so a patch in one
    /// partition can carry another partition's constant — the rewritten
    /// distinct must still dedup across the two flows. The other inputs
    /// pin the kept flow's one-row short-circuit to the reference: a
    /// partition left with no kept row, a filter that rejects one
    /// partition's constant only, delta rows, a `Str` column and scans
    /// wider than the key.
    #[test]
    fn ncc_rewrite_dedups_value_shared_between_flows() {
        let ints = |p0: &'static [i64], p1: &'static [i64]| {
            ncc_table(DataType::Int, move |_, pid| {
                ColumnData::Int([p0, p1][pid].to_vec())
            })
        };
        let row = |v: i64, w: i64| vec![Value::Int(v), Value::Int(w)];
        // Partition 0: constant 7. Partition 1: constant 8, one patch 7.
        let shared = ints(&[7, 7, 7, 7], &[8, 8, 7, 8]);
        // Partition 0's kept rows go: two deleted, the third modified
        // into a patch beside the patch 9.
        let mut emptied = ints(&[7, 7, 7, 9], &[8, 8, 8]);
        emptied.delete(0, &[0, 1]);
        emptied.modify(0, &[0], 0, &[Value::Int(5)]);
        // Inserted rows wait in the partitions' deltas.
        let mut delta = ints(&[7, 7, 7, 7], &[8, 8, 7, 8]);
        delta.insert(&[row(7, 10), row(8, 11), row(3, 12), row(8, 13)]);
        let strs = ncc_table(DataType::Str, |t, pid| {
            t.encode_strings(0, [&["a", "a", "b", "a"][..], &["c", "c", "a"]][pid])
        });
        let key = Plan::scan(vec![0]).distinct(vec![0]);
        let wide = |filter: Option<Expr>| {
            Plan::Scan {
                cols: vec![0, 1],
                filter,
            }
            .distinct(vec![0])
        };
        let cases = [
            (&shared, key.clone()),
            (&emptied, key.clone()),
            (&delta, key.clone()),
            (&strs, key.clone()),
            // Rejects partition 0's constant 7, keeps partition 1's 8.
            (
                &shared,
                Plan::Scan {
                    cols: vec![0],
                    filter: Some(Expr::col(0).ge(Expr::LitInt(8))),
                }
                .distinct(vec![0]),
            ),
            (&shared, wide(None)),
            // The first kept rows of each partition fail the filter.
            (&delta, wide(Some(Expr::col(1).ge(Expr::LitInt(3))))),
        ];
        for (it, plan) in cases {
            it.check_consistency();
            let reference = execute(&plan, it.table(), NO_INDEXES);
            // Force the rewrite (the cost gate is irrelevant to correctness).
            let rewritten = crate::optimizer::rewrite(plan.clone(), &it.catalog().indexes[0]);
            assert!(rewritten.to_string().contains("use_patches"), "{rewritten}");
            let got = execute(&rewritten, it.table(), it.indexes());
            assert_eq!(sorted_rows(&got), sorted_rows(&reference), "{plan}");
        }
        assert_eq!(execute_count(&key, shared.table(), NO_INDEXES), 2);
        assert_eq!(emptied.index(0).partition_rows(0), 2);
        assert_eq!(emptied.index(0).partition_patch_count(0), 2);
    }

    /// An NCC kept flow's distinct reads one window per partition: under
    /// EXPLAIN ANALYZE no `exclude_patches` scan emits more than a batch,
    /// although each partition holds three batches of kept rows.
    #[test]
    fn ncc_kept_flow_distinct_reads_one_window_per_partition() {
        let parts = 3;
        let rows = 3 * BATCH_SIZE;
        let mut t = Table::new(
            "ncc_wide",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let mut vals = vec![pid as i64; rows];
            vals[rows / 2] = -1;
            t.load_partition(pid, &[ColumnData::Int(vals)]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(0, Constraint::NearlyConstant, Design::Bitmap);
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        let trace = it.explain_analyze(&plan);
        let report = trace.render_text();
        assert!(trace.optimized.contains("exclude_patches"), "{report}");
        let kept: Vec<u64> = trace
            .operators
            .iter()
            .filter(|o| o.label == "PatchScan[exclude_patches]")
            .map(|o| o.rows_out)
            .collect();
        assert_eq!(kept.len(), parts, "{report}");
        assert!(kept.iter().all(|&n| n <= BATCH_SIZE as u64), "{report}");
        assert_eq!(
            sorted_rows(&it.query(&plan)),
            sorted_rows(&execute(&plan, it.table(), NO_INDEXES))
        );
    }

    /// A combine under a wrapper node prunes too, and one left with a
    /// single child is that child: the NCC rewrite nests its Union under
    /// a Distinct, so a clean partition runs the kept flow's distinct
    /// alone, with no union above it.
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
        let ncc = ran(&rewritten, &t, &idx);
        assert_eq!(
            ncc[1],
            [
                "PatchScan[exclude_patches]",
                "Distinct",
                "Distinct(partial)"
            ],
            "partition 1 has no patches — the flow must be pruned under the wrapper"
        );
        assert!(
            ncc[0].iter().any(|l| l == "PatchScan[use_patches]"),
            "{ncc:?}"
        );
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
        let opt = optimize(splan, &IndexCatalog::of(&t, &nsc));
        if opt.to_string().contains("Merge") {
            let p1 = &ran(&opt, &t, &nsc)[1];
            assert!(!p1.iter().any(|l| l == "PatchScan[use_patches]"), "{p1:?}");
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
        assert!(ran(&plan, &t, NO_INDEXES)[1].is_empty());
        assert_eq!(execute_count(&plan, &t, NO_INDEXES), 3);
        let sorted = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        assert!(ran(&sorted, &t, NO_INDEXES)[1].is_empty());
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
            let opt = optimize(plan.clone(), &IndexCatalog::of(&t, &idx));
            let trace = ExecObserver::default();
            let traced = collect_probed(&opt, &t, &idx, &trace);
            let plain = execute(&opt, &t, &idx);
            assert_eq!(
                traced.column(0).as_int(),
                plain.column(0).as_int(),
                "{plan}"
            );
        }
    }

    /// The NSC sort rewrite on a table large enough for its global merge
    /// to split: 8 partitions × 5k rows, so the task-size rule leaves each
    /// key range at least a batch of rows on up to 9 threads. As in the
    /// benchmark's ad-hoc table, each partition's kept flow covers its own
    /// eighth of the key domain, and the 5 % patches spread over all of
    /// it; inserts and deletes wait in the deltas. The split merge answers
    /// the bytes of the index-free reference and of the one-range
    /// streaming merge a `LIMIT` keeps, traced or not, and the trace
    /// charges its time to `OrderedMerge(global)`. The pool's stress lane
    /// repeats it `PI_POOL_ITERS` times.
    #[test]
    fn split_global_merge_keeps_bytes() {
        const PARTS: usize = 8;
        const ROWS: usize = 5_000;
        let mut state = 0x5EED_u64;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % bound as u64) as usize
        };
        let domain = PARTS * ROWS * 4;
        let mut t = Table::new(
            "split",
            Schema::new(vec![Field::new("u", DataType::Int)]),
            PARTS,
            Partitioning::RoundRobin,
        );
        for pid in 0..PARTS {
            let u = (0..ROWS).map(|i| match below(20) {
                0 => below(domain) as i64,
                _ => ((pid * ROWS + i) * 4) as i64,
            });
            t.load_partition(pid, &[ColumnData::Int(u.collect())]);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let inserted: Vec<Vec<Value>> = (0..200)
            .map(|_| vec![Value::Int(below(domain) as i64)])
            .collect();
        it.insert(&inserted);
        for pid in 0..PARTS {
            it.delete(pid, &[3, 1_000 + pid, ROWS - 1]);
        }
        it.check_consistency();

        let plan = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        let reference = ints(&execute(&plan, it.table(), NO_INDEXES));
        let streamed = plan.clone().limit(reference.len());
        assert!(it.plan_query(&streamed).to_string().contains("Merge"));
        let streamed = ints(&it.query(&streamed));
        assert_eq!(streamed, reference);
        let iters = std::env::var("PI_POOL_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        for _ in 0..iters {
            let planned = ints(&it.query(&plan));
            let (traced, trace) = it.query_traced(&plan);
            assert!(trace.optimized.contains("Merge"), "{}", trace.optimized);
            assert!(planned == reference, "the split merge changed the rows");
            assert!(ints(&traced) == planned, "tracing changed the rows");
            let merge = trace
                .operators
                .iter()
                .find(|o| o.label == "OrderedMerge(global)")
                .expect("the rewrite merges globally");
            assert_eq!(merge.rows_out, reference.len() as u64);
            assert!(merge.nanos > 0, "the split ran outside the merge's meter");
        }
    }

    /// A pushed-down limit satisfied by partition 0 alone: the union
    /// never pulls partition 1, so the trace counts it as not visited
    /// and none of its operators emits a batch.
    #[test]
    fn pushed_down_limit_excludes_unreached_partitions() {
        let t = table(); // 4 rows in p0, 3 in p1
        let plan = Plan::scan(vec![1]).limit(2);
        let trace = ExecObserver::default();
        let out = collect_probed(&plan, &t, NO_INDEXES, &trace);
        assert_eq!(out.len(), 2);
        assert_eq!(trace.pulled(), vec![0]);
        let operators = trace.operators();
        let batches: Vec<_> = operators
            .iter()
            .map(|o| (o.label.as_str(), o.partition, o.batches))
            .collect();
        assert_eq!(
            batches,
            [
                ("Scan", Some(0), 1),
                ("Limit(partition)", Some(0), 1),
                ("Scan", Some(1), 0),
                ("Limit(partition)", Some(1), 0),
                ("Limit(global)", None, 1),
            ]
        );
        let report = IndexedTable::new(t).explain_analyze(&plan);
        assert_eq!(
            (report.partitions_visited, report.partitions_pruned),
            (1, 1)
        );
    }

    /// The rows of column `col`, partition by partition as each
    /// partition's own scan yields them: the order every bag result keeps,
    /// read without the lowering.
    fn scanned(t: &Table, col: usize) -> Vec<i64> {
        let mut out = Vec::new();
        for pid in 0..t.partition_count() {
            let mut scan = ScanOp::new(t.partition(pid), vec![col], false);
            while let Some(b) = pi_exec::Operator::next(&mut scan) {
                out.extend((0..b.len()).map(|i| b.raw_column(0).as_int()[b.row(i)]));
            }
        }
        out
    }

    /// Column 0 of a result (no column at all when nothing was lowered).
    fn ints(b: &Batch) -> Vec<i64> {
        match b.width() {
            0 => Vec::new(),
            _ => b.column(0).as_int().to_vec(),
        }
    }

    /// A random table `(u, c)` over `parts` partitions of up to three
    /// batches each, with a NUC (slot 0) and an NSC (slot 1) index on `u`
    /// and an NCC (slot 2) on `c`. `u` interleaves ascending values across
    /// partitions with planted strays and in-partition duplicates, `c` is
    /// one constant per partition with planted outliers; then inserted
    /// rows wait in the deltas and a few base rows are deleted.
    fn random_table(parts: usize, seed: u64) -> IndexedTable {
        let mut state = seed;
        let mut below = |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut t = Table::new(
            "random",
            Schema::new(vec![
                Field::new("u", DataType::Int),
                Field::new("c", DataType::Int),
            ]),
            parts,
            Partitioning::RoundRobin,
        );
        let mut lens = Vec::new();
        for pid in 0..parts {
            let len = below(3 * BATCH_SIZE);
            let (mut u, mut c) = (Vec::with_capacity(len), Vec::with_capacity(len));
            for i in 0..len {
                let key = (i * parts + pid) as i64;
                u.push(match below(100) {
                    0..=2 => -key - 1,
                    3..=5 if i > 0 => u[i - 1],
                    _ => 2 * key,
                });
                c.push(match below(100) {
                    0..=4 => 10 * below(parts) as i64,
                    _ => 10 * pid as i64,
                });
            }
            t.load_partition(pid, &[ColumnData::Int(u), ColumnData::Int(c)]);
            lens.push(len);
        }
        t.propagate_all();
        let mut it = IndexedTable::new(t);
        it.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(0, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        it.add_index(1, Constraint::NearlyConstant, Design::Bitmap);
        let inserted: Vec<Vec<Value>> = (0..below(40))
            .map(|j| {
                let u = match below(3) {
                    0 => 2 * below(parts * 3 * BATCH_SIZE) as i64,
                    _ => 10_000_000 + j as i64,
                };
                vec![Value::Int(u), Value::Int(10 * below(parts) as i64)]
            })
            .collect();
        it.insert(&inserted);
        for (pid, &len) in lens.iter().enumerate().filter(|(_, &len)| len > 0) {
            let mut rids: Vec<usize> = (0..below(4)).map(|_| below(len)).collect();
            rids.sort_unstable();
            rids.dedup();
            it.delete(pid, &rids);
        }
        it.check_consistency();
        it
    }

    // The partition-parallel lowering keeps the sequential answer
    // and leaves the flows under a `LIMIT` lazy. Over random tables
    // with patches and pending deltas, every rewrite shape answers
    // the same rows through `query` and `query_traced`, and the
    // index-free reference answers exactly the rows read partition by
    // partition, in partition order. Under a `LIMIT`, a bag scan
    // visits only the partitions the limit reaches, and the sort
    // rewrite's kept flows read no further than the merge's first
    // output batch needs.
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        #[test]
        fn parallel_lowering_keeps_bytes_and_laziness(
            parts in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..200,
        ) {
            let it = random_table(parts, seed);
            let t = it.table();
            let (u, c) = (scanned(t, 0), scanned(t, 1));
            let first_seen = |rows: &[i64]| {
                let mut seen = std::collections::HashSet::new();
                rows.iter().copied().filter(|v| seen.insert(*v)).collect::<Vec<_>>()
            };
            let mut sorted_u = u.clone();
            sorted_u.sort_unstable();
            let mut unique_u = first_seen(&u);
            unique_u.sort_unstable();
            let asc = vec![(0, SortOrder::Asc)];
            let both = Plan::Union {
                inputs: vec![Plan::scan(vec![0]), Plan::scan(vec![1])],
            };
            // (plan, the rows partition order gives, whether a rewrite
            // may permute them)
            let cases = [
                (Plan::scan(vec![0]), u.clone(), false),
                (Plan::scan(vec![0]).distinct(vec![0]), first_seen(&u), true),
                (Plan::scan(vec![1]).distinct(vec![0]), first_seen(&c), true),
                (Plan::scan(vec![0]).sort(asc.clone()), sorted_u.clone(), false),
                (Plan::scan(vec![0]).distinct(vec![0]).sort(asc.clone()), unique_u, false),
                (both, [u.clone(), c].concat(), false),
                (Plan::scan(vec![0]).limit(n), u[..n.min(u.len())].to_vec(), false),
                (
                    Plan::scan(vec![0]).sort(asc.clone()).limit(n),
                    sorted_u[..n.min(u.len())].to_vec(),
                    false,
                ),
            ];
            for (plan, expect, permuted) in cases {
                proptest::prop_assert_eq!(&ints(&execute(&plan, t, NO_INDEXES)), &expect, "{}", plan);
                let plain = ints(&it.query(&plan));
                let (traced, trace) = it.query_traced(&plan);
                proptest::prop_assert_eq!(&plain, &ints(&traced), "{}", trace.optimized);
                let sorted = |mut v: Vec<i64>| {
                    if permuted {
                        v.sort_unstable();
                    }
                    v
                };
                proptest::prop_assert_eq!(sorted(plain), sorted(expect), "{}", trace.optimized);
            }

            // A pushed-down limit pulls partitions in order until it holds
            // n rows, and no further.
            let trace = ExecObserver::default();
            collect_probed(&Plan::scan(vec![0]).limit(n), t, NO_INDEXES, &trace);
            let mut reached = Vec::new();
            let mut held = 0;
            for pid in (0..parts).filter(|&p| t.partition(p).visible_len() > 0) {
                if held >= n {
                    break;
                }
                reached.push(pid);
                held += t.partition(pid).visible_len();
            }
            proptest::prop_assert_eq!(trace.pulled(), reached);

            // The sort rewrite under a limit: the merge's first output
            // batch (BATCH_SIZE rows) is all the limit pulls, so each kept
            // flow reads what that batch takes from it plus at most one
            // batch, its first one, or the one that batch stopped in.
            let catalog = it.catalog();
            let rewritten = crate::optimizer::rewrite(Plan::scan(vec![0]).sort(asc), &catalog.indexes[1]).limit(n);
            proptest::prop_assert!(rewritten.to_string().contains("Merge"), "{}", rewritten);
            let trace = ExecObserver::default();
            let got = collect_probed(&rewritten, t, it.indexes(), &trace);
            proptest::prop_assert_eq!(ints(&got), sorted_u[..n.min(u.len())].to_vec());
            let kept: u64 = trace
                .operators()
                .iter()
                .filter(|o| o.label == "PatchScan[exclude_patches]")
                .map(|o| o.rows_out)
                .sum();
            let nsc = &it.indexes()[1];
            let first_batches: u64 = (0..parts)
                .map(|p| (nsc.partition_rows(p) - nsc.partition_patch_count(p)).min(BATCH_SIZE as u64))
                .sum();
            proptest::prop_assert!(
                kept <= first_batches + BATCH_SIZE as u64,
                "the kept flows read {} rows for a limit of {}", kept, n
            );
        }
    }
}
