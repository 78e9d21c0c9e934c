//! Cost model (paper, Section 3.5).
//!
//! PatchIndex plans are built from ordinary operators whose cardinalities
//! are known at optimization time (the patch count is materialized), so a
//! classical per-tuple cost model suffices. The constants approximate the
//! relative operator costs observed in the evaluation: the patch selection
//! adds a small fixed per-tuple overhead (paper: "typically below 1%" of
//! runtime), aggregation and sorting dominate.
//!
//! Statistics come from an [`IndexCatalog`] snapshot: each `PatchScan`
//! site is costed with the per-slot counts of the index it binds, and the
//! distinct-cardinality estimate is index-informed — when a NUC index
//! covers the distinct column, `distinct ≈ (rows − patches) +
//! patches / 2` replaces the conventional 50% guess (the NUC
//! materializes every occurrence of a duplicated value as a patch, so the
//! kept rows are exactly the single-occurrence values, and a patch value
//! has at least two rows until deletes thin it out).

use patchindex::{Constraint, IndexCatalog, IndexStats};
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::BATCH_SIZE;

use crate::logical::Plan;

/// Per-tuple scan cost.
const C_SCAN: f64 = 1.0;
/// Per-tuple overhead of the patch selection modes.
const C_PATCH_SELECT: f64 = 0.05;
/// Per-tuple hash-aggregation cost.
const C_AGG: f64 = 4.0;
/// Per-tuple-comparison sort constant (multiplied by log2 n).
const C_SORT: f64 = 0.6;
/// Per-tuple union/merge cost.
const C_COMBINE: f64 = 0.1;

fn slot_stats(cat: &IndexCatalog, slot: usize) -> &IndexStats {
    cat.by_slot(slot)
        .expect("PatchScan bound to a slot outside the catalog")
}

/// Whether a distinct on `cols` reads an NCC index's kept flow
/// ([`Plan::is_ncc_kept_flow`], with the slot's catalog entry).
fn is_ncc_kept_flow(input: &Plan, cols: &[usize], cat: &IndexCatalog) -> bool {
    input.is_ncc_kept_flow(cols, |slot| {
        let e = slot_stats(cat, slot);
        (e.constraint, e.column)
    })
}

/// Index-informed distinct output estimate; `None` when no materialized
/// constraint covers the (single) distinct column and the conventional
/// reduction applies. A NUC index's distinct patch values are estimated
/// here, and only here, as half its patches: the catalog keeps no exact
/// count.
fn indexed_distinct_estimate(input: &Plan, cols: &[usize], cat: &IndexCatalog) -> Option<f64> {
    if cols.len() != 1 {
        return None;
    }
    if is_ncc_kept_flow(input, cols, cat) {
        // One constant value per partition.
        return Some(cat.partitions as f64);
    }
    let distinct_patches = |e: &IndexStats| (e.patches / 2) as f64;
    match input {
        Plan::Scan {
            cols: scan_cols, ..
        } => {
            let col = *scan_cols.get(cols[0])?;
            let e = cat.nuc_on(col)?;
            Some((e.rows - e.patches) as f64 + distinct_patches(e))
        }
        Plan::PatchScan {
            cols: scan_cols,
            mode,
            slot,
            ..
        } => {
            let e = slot_stats(cat, *slot);
            if e.constraint != Constraint::NearlyUnique || scan_cols.get(cols[0]) != Some(&e.column)
            {
                return None;
            }
            Some(match mode {
                // Kept rows are unique (and each a distinct value).
                PatchMode::ExcludePatches => (e.rows - e.patches) as f64,
                // Every patch value is materialized with its duplicates.
                PatchMode::UsePatches => distinct_patches(e),
            })
        }
        _ => None,
    }
}

/// Estimated output cardinality.
pub fn cardinality(plan: &Plan, cat: &IndexCatalog) -> f64 {
    match plan {
        Plan::Scan { .. } => cat.rows as f64,
        Plan::PatchScan {
            mode: PatchMode::UsePatches,
            slot,
            ..
        } => slot_stats(cat, *slot).patches as f64,
        Plan::PatchScan {
            mode: PatchMode::ExcludePatches,
            slot,
            ..
        } => {
            let e = slot_stats(cat, *slot);
            (e.rows - e.patches) as f64
        }
        Plan::Distinct { input, cols } => {
            let input_card = cardinality(input, cat);
            indexed_distinct_estimate(input, cols, cat)
                // Distinct output is data dependent; a 50% reduction is
                // the conventional default estimate when no index informs
                // it.
                .unwrap_or(input_card * 0.5)
                .min(input_card)
        }
        Plan::Sort { input, .. } => cardinality(input, cat),
        Plan::Limit { input, n } => cardinality(input, cat).min(*n as f64),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            inputs.iter().map(|p| cardinality(p, cat)).sum()
        }
    }
}

/// The catalog's bound on the rows of `plan`, from the count each leaf
/// flow holds over all partitions. Zero means every partition prunes the
/// flow at lowering, so it runs nothing.
fn bound(plan: &Plan, cat: &IndexCatalog) -> u64 {
    match plan {
        Plan::Scan { .. } | Plan::PatchScan { .. } => cardinality(plan, cat) as u64,
        Plan::Distinct { input, .. } | Plan::Sort { input, .. } => bound(input, cat),
        Plan::Limit { input, n } => (*n as u64).min(bound(input, cat)),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            inputs.iter().map(|p| bound(p, cat)).sum()
        }
    }
}

/// Estimated execution cost of the plan tree: what the lowering runs,
/// so a flow it prunes everywhere costs nothing, and so does a combine
/// left with one non-empty child.
pub fn estimate(plan: &Plan, cat: &IndexCatalog) -> f64 {
    if bound(plan, cat) == 0 {
        return 0.0;
    }
    match plan {
        Plan::Scan { .. } => cat.rows as f64 * C_SCAN,
        // The selection reads every scanned tuple and drops a part.
        Plan::PatchScan { slot, .. } => {
            slot_stats(cat, *slot).rows as f64 * (C_SCAN + C_PATCH_SELECT)
        }
        // The lowering stops each partition's kept flow at its first row
        // (one window read), which is the flow's whole distinct.
        Plan::Distinct { input, cols } if is_ncc_kept_flow(input, cols, cat) => {
            let windows = cat.partitions as f64 * BATCH_SIZE as f64 * (C_SCAN + C_PATCH_SELECT);
            windows.min(estimate(input, cat))
        }
        Plan::Distinct { input, .. } => estimate(input, cat) + cardinality(input, cat) * C_AGG,
        Plan::Sort { input, .. } => {
            let n = cardinality(input, cat).max(2.0);
            estimate(input, cat) + n * n.log2() * C_SORT
        }
        Plan::Limit { input, .. } => estimate(input, cat),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            let children: f64 = inputs.iter().map(|p| estimate(p, cat)).sum();
            let non_empty = inputs.iter().filter(|p| bound(p, cat) > 0).count();
            match non_empty {
                1 => children,
                _ => children + cardinality(plan, cat) * C_COMBINE,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::testutil::{catalog, entry};
    use patchindex::Constraint;
    use pi_exec::ops::sort::SortOrder;

    fn nuc_cat(rows: u64, patches: u64) -> IndexCatalog {
        catalog(
            rows,
            vec![entry(0, 1, Constraint::NearlyUnique, rows, patches)],
        )
    }

    fn pscan(mode: PatchMode, slot: usize) -> Plan {
        Plan::PatchScan {
            cols: vec![1],
            filter: None,
            mode,
            slot,
        }
    }

    #[test]
    fn rewritten_distinct_cheaper_at_low_e() {
        let reference = Plan::scan(vec![1]).distinct(vec![0]);
        let rewritten = Plan::Union {
            inputs: vec![
                pscan(PatchMode::ExcludePatches, 0),
                Plan::Distinct {
                    input: Box::new(pscan(PatchMode::UsePatches, 0)),
                    cols: vec![0],
                },
            ],
        };
        let cat = nuc_cat(1_000_000, 10_000);
        assert!(estimate(&rewritten, &cat) < estimate(&reference, &cat));
        // At e = 1 the rewrite pays double scans for nothing.
        let cat1 = nuc_cat(1_000_000, 1_000_000);
        assert!(estimate(&rewritten, &cat1) > estimate(&reference, &cat1));
        // The optimizer's cost gate over an exception-rate sweep: the
        // rewrite wins iff 3.9·P + 0.1·P/2 < 2.8·R, i.e. below e ≈ 70.9%.
        for (e_pct, chosen) in [
            (0, true),
            (1, true),
            (5, true),
            (20, true),
            (50, true),
            (69, true),
            (72, false),
            (100, false),
        ] {
            let plan = optimize(reference.clone(), &nuc_cat(1_000_000, e_pct * 10_000));
            let s = plan.to_string();
            assert_eq!(s.contains("exclude_patches"), chosen, "e = {e_pct}%:\n{s}");
            assert_eq!(s.starts_with("Distinct"), !chosen, "e = {e_pct}%:\n{s}");
        }
    }

    /// A perfect NUC distinct over R rows runs only the kept flow's
    /// patch scan: the advisor's feedback (reference cost minus chosen
    /// cost) is the whole scan-and-aggregate, 5·R − 1.05·R, with nothing
    /// charged for the empty patches flow or the union it collapses.
    #[test]
    fn perfect_nuc_feedback_prices_the_pruned_patches_flow_at_zero() {
        let rows = 1_000_000u64;
        let cat = nuc_cat(rows, 0);
        let reference = Plan::scan(vec![1]).distinct(vec![0]);
        let chosen = optimize(reference.clone(), &cat);
        assert!(chosen.to_string().contains("use_patches"), "{chosen}");
        let saved = estimate(&reference, &cat) - estimate(&chosen, &cat);
        assert!(
            (saved - 3.95 * rows as f64).abs() < 1e-6 * rows as f64,
            "{saved}"
        );
        // One patch brings the patches flow and the union back.
        let one = nuc_cat(rows, 1);
        assert!(estimate(&chosen, &one) > 2.0 * rows as f64);
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let small = estimate(&sort, &nuc_cat(1_000, 0));
        let big = estimate(&sort, &nuc_cat(100_000, 0));
        assert!(big > small * 100.0);
    }

    #[test]
    fn cardinalities_split_by_patches() {
        let cat = nuc_cat(100, 30);
        let ex = pscan(PatchMode::ExcludePatches, 0);
        let us = pscan(PatchMode::UsePatches, 0);
        assert_eq!(cardinality(&ex, &cat), 70.0);
        assert_eq!(cardinality(&us, &cat), 30.0);
        assert_eq!(
            cardinality(
                &Plan::Union {
                    inputs: vec![ex, us]
                },
                &cat
            ),
            100.0
        );
    }

    #[test]
    fn limit_caps_cardinality() {
        let p = Plan::scan(vec![0]).limit(10);
        assert_eq!(cardinality(&p, &nuc_cat(1_000, 0)), 10.0);
    }

    #[test]
    fn nuc_informs_distinct_estimate() {
        // Near-unique column with 100 patches: each patch value has at
        // least two rows, so at most 50 distinct patch values. The old
        // 50% guess said 500_000; the index knows better.
        let cat = nuc_cat(1_000_000, 100);
        let full = Plan::scan(vec![1]).distinct(vec![0]);
        assert_eq!(cardinality(&full, &cat), (1_000_000 - 100 + 50) as f64);
        // The kept rows are exact; the patches flow takes the estimate.
        let ex_distinct = pscan(PatchMode::ExcludePatches, 0).distinct(vec![0]);
        assert_eq!(cardinality(&ex_distinct, &cat), (1_000_000 - 100) as f64);
        let us_distinct = pscan(PatchMode::UsePatches, 0).distinct(vec![0]);
        assert_eq!(cardinality(&us_distinct, &cat), 50.0);
    }

    #[test]
    fn distinct_over_unindexed_column_keeps_default_reduction() {
        // The NUC covers column 1; the scan produces column 0.
        let cat = catalog(
            1_000,
            vec![entry(0, 1, Constraint::NearlyUnique, 1_000, 10)],
        );
        let p = Plan::scan(vec![0]).distinct(vec![0]);
        assert_eq!(cardinality(&p, &cat), 500.0);
    }
}
