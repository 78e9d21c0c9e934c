//! The PatchIndex optimizer rules (paper, Sections 3.3 and 6.3), driven
//! by an [`IndexCatalog`] rather than a single hard-wired index.
//!
//! * `distinct` rewrite: drop the aggregation from the subtree that
//!   excludes patches, keep a small distinct over the patches, recombine
//!   with Union (Figure 2, left).
//! * `sort` rewrite: the excluding subtree is already sorted; sort only the
//!   patches and recombine with an order-preserving Merge.
//!
//! Zero-branch pruning (ZBP, Section 6.3) is not a rule here: a chosen
//! rewrite keeps its flows even when one is empty (e.g. the patches flow
//! of a perfect constraint), and the lowering drops them per partition
//! with live counts (see [`crate::physical`]).
//!
//! [`optimize`] walks the plan bottom-up; at every rewritable site it
//! enumerates one candidate per matching catalog index, costs each with
//! the [`cost`](crate::cost) model (patch counts are known exactly at
//! optimization time), and keeps the cheapest — so different sites of one
//! plan may bind different indexes, and a rewrite that does not pay off
//! (Section 3.5: Q12-style regressions "would not be chosen by the
//! optimizer") is rejected site-locally.

use patchindex::{Constraint, IndexCatalog, IndexStats, SortDir};
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::ops::sort::SortOrder;

use crate::cost::estimate;
use crate::logical::Plan;

/// What the rewriter did during one [`optimize_with_stats`] pass — the
/// planner third of an EXPLAIN ANALYZE trace.
#[derive(Debug, Default, Clone)]
pub struct OptimizeStats {
    /// Candidate (site, index) rewrites whose pattern matched.
    pub candidates_enumerated: u64,
    /// Matching candidates the cost model rejected.
    pub cost_gated: u64,
    /// Sites where a rewrite won and was applied.
    pub rewrites_chosen: u64,
}

/// Applies the PatchIndex rewrites wherever some catalog index matches
/// and the cost model approves. Zero-patch branches stay in the plan:
/// the lowering prunes them per partition ([`crate::physical`]).
pub fn optimize(plan: Plan, cat: &IndexCatalog) -> Plan {
    optimize_with_stats(plan, cat, &mut OptimizeStats::default())
}

/// [`optimize`] while counting candidates enumerated / cost-gated /
/// chosen into `stats`.
pub fn optimize_with_stats(plan: Plan, cat: &IndexCatalog, stats: &mut OptimizeStats) -> Plan {
    walk(plan, &mut |node| best_rewrite(node, cat, stats))
}

/// Rebuilds `plan` bottom-up, handing every Distinct and Sort node, its
/// input already rebuilt, to `site`: the one recursion behind
/// [`optimize_with_stats`] (cost-gated) and [`rewrite`] (forced).
fn walk(plan: Plan, site: &mut impl FnMut(Plan) -> Plan) -> Plan {
    let node = match plan {
        Plan::Distinct { input, cols } => Plan::Distinct {
            input: Box::new(walk(*input, site)),
            cols,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: Box::new(walk(*input, site)),
            keys,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(walk(*input, site)),
            n,
        },
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs.into_iter().map(|p| walk(p, site)).collect(),
        },
        Plan::Merge { inputs, keys } => Plan::Merge {
            inputs: inputs.into_iter().map(|p| walk(p, site)).collect(),
            keys,
        },
        leaf => leaf,
    };
    match node {
        Plan::Distinct { .. } | Plan::Sort { .. } => site(node),
        other => other,
    }
}

/// Enumerates the candidate rewrites of this node across every catalog
/// index and keeps the cheapest (the unrewritten node included).
fn best_rewrite(node: Plan, cat: &IndexCatalog, stats: &mut OptimizeStats) -> Plan {
    let mut best_cost = estimate(&node, cat);
    let mut best: Option<Plan> = None;
    let mut enumerated_here = 0u64;
    for e in &cat.indexes {
        if let Some(cand) = rewrite_site(&node, e) {
            enumerated_here += 1;
            let c = estimate(&cand, cat);
            if c < best_cost {
                best_cost = c;
                best = Some(cand);
            }
        }
    }
    stats.candidates_enumerated += enumerated_here;
    if best.is_some() {
        stats.rewrites_chosen += 1;
        stats.cost_gated += enumerated_here - 1;
    } else {
        stats.cost_gated += enumerated_here;
    }
    best.unwrap_or(node)
}

fn scan_produces_sorted(cols: &[usize], key: usize, e: &IndexStats) -> bool {
    matches!(e.constraint, Constraint::NearlySorted(SortDir::Asc))
        && cols.get(key) == Some(&e.column)
}

/// The Figure-2 rewrite of one node with one index, if its pattern
/// matches there (no recursion, no cost gate).
fn rewrite_site(node: &Plan, e: &IndexStats) -> Option<Plan> {
    match node {
        Plan::Distinct { input, cols } => match &**input {
            // Figure 2 (left): clone the scan into both flows; the
            // excluding flow needs no aggregation because the NUC holds
            // there (and its values are disjoint from patch values).
            // Single-column scans only: the excluding flow keeps the scan
            // width while the patches flow aggregates down to the key, so
            // a wider scan would union mismatched widths.
            Plan::Scan {
                cols: scan_cols,
                filter,
            } if matches!(e.constraint, Constraint::NearlyUnique)
                && cols.len() == 1
                && scan_cols.len() == 1
                && scan_cols.get(cols[0]) == Some(&e.column) =>
            {
                Some(Plan::Union {
                    inputs: vec![
                        Plan::PatchScan {
                            cols: scan_cols.clone(),
                            filter: filter.clone(),
                            mode: PatchMode::ExcludePatches,
                            slot: e.slot,
                        },
                        Plan::Distinct {
                            input: Box::new(Plan::PatchScan {
                                cols: scan_cols.clone(),
                                filter: filter.clone(),
                                mode: PatchMode::UsePatches,
                                slot: e.slot,
                            }),
                            cols: cols.clone(),
                        },
                    ],
                })
            }
            // NCC: both flows get a distinct, but the excluding flow
            // holds a single value per partition (the constant), so the
            // lowering reads only its first row per partition (a
            // `LimitOp(…, 1)` below the partial aggregation). The
            // paper's Section 5.5 sketches such additional constraints.
            // Unlike the NUC rewrite, the flows' value sets are NOT
            // disjoint — a patch may carry another partition's constant —
            // so a global distinct over the union dedups across flows and
            // partitions; its input is already tiny.
            Plan::Scan {
                cols: scan_cols,
                filter,
            } if matches!(e.constraint, Constraint::NearlyConstant)
                && cols.len() == 1
                && scan_cols.get(cols[0]) == Some(&e.column) =>
            {
                Some(Plan::Distinct {
                    input: Box::new(Plan::Union {
                        inputs: vec![
                            Plan::Distinct {
                                input: Box::new(Plan::PatchScan {
                                    cols: scan_cols.clone(),
                                    filter: filter.clone(),
                                    mode: PatchMode::ExcludePatches,
                                    slot: e.slot,
                                }),
                                cols: cols.clone(),
                            },
                            Plan::Distinct {
                                input: Box::new(Plan::PatchScan {
                                    cols: scan_cols.clone(),
                                    filter: filter.clone(),
                                    mode: PatchMode::UsePatches,
                                    slot: e.slot,
                                }),
                                cols: cols.clone(),
                            },
                        ],
                    }),
                    // The inner distincts emit just the key column.
                    cols: vec![0],
                })
            }
            _ => None,
        },
        // Figure 2 with the aggregation exchanged for the sort operator:
        // the excluding flow is known to be sorted. Single-column scans
        // only: the reference orders equal keys by (partition, position),
        // the merge puts every kept stream before every patch stream, and
        // that difference is invisible only when the key is the whole row.
        // (Lifting this needs a (partition, rowID) tie-break in the merge.)
        Plan::Sort { input, keys } => match &**input {
            Plan::Scan {
                cols: scan_cols,
                filter,
            } if keys.len() == 1
                && scan_cols.len() == 1
                && keys[0].1 == SortOrder::Asc
                && scan_produces_sorted(scan_cols, keys[0].0, e) =>
            {
                Some(Plan::Merge {
                    inputs: vec![
                        Plan::PatchScan {
                            cols: scan_cols.clone(),
                            filter: filter.clone(),
                            mode: PatchMode::ExcludePatches,
                            slot: e.slot,
                        },
                        Plan::Sort {
                            input: Box::new(Plan::PatchScan {
                                cols: scan_cols.clone(),
                                filter: filter.clone(),
                                mode: PatchMode::UsePatches,
                                slot: e.slot,
                            }),
                            keys: keys.clone(),
                        },
                    ],
                    keys: keys.clone(),
                })
            }
            _ => None,
        },
        _ => None,
    }
}

/// Structural rewrite with one index and without cost gating (exposed
/// for tests/ablation): applies the index's pattern wherever it matches.
pub fn rewrite(plan: Plan, e: &IndexStats) -> Plan {
    walk(plan, &mut |node| rewrite_site(&node, e).unwrap_or(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{catalog, entry};

    fn nuc_cat(rows: u64, patches: u64) -> IndexCatalog {
        catalog(
            rows,
            vec![entry(0, 1, Constraint::NearlyUnique, rows, patches)],
        )
    }

    fn nsc_cat(rows: u64, patches: u64) -> IndexCatalog {
        catalog(
            rows,
            vec![entry(
                0,
                1,
                Constraint::NearlySorted(SortDir::Asc),
                rows,
                patches,
            )],
        )
    }

    #[test]
    fn distinct_rewrite_produces_figure2_shape() {
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let opt = optimize(plan, &nuc_cat(1_000_000, 1_000));
        let s = opt.to_string();
        assert!(s.starts_with("Union"), "got:\n{s}");
        assert!(s.contains("exclude_patches"));
        assert!(s.contains("use_patches"));
        // The excluding flow must NOT contain a Distinct.
        let first_branch = s.lines().nth(1).unwrap();
        assert!(first_branch.contains("PatchScan[exclude_patches]"));
    }

    #[test]
    fn sort_rewrite_produces_merge() {
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let opt = optimize(plan, &nsc_cat(1_000_000, 5_000));
        let s = opt.to_string();
        assert!(s.starts_with("Merge"), "got:\n{s}");
        assert!(s.contains("Sort"));
    }

    #[test]
    fn mismatched_column_not_rewritten() {
        // Distinct over column 0, index on column 1.
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        let opt = optimize(plan, &nuc_cat(1_000, 10));
        assert!(opt.to_string().starts_with("Distinct"));
    }

    #[test]
    fn descending_sort_not_rewritten_by_asc_index() {
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Desc)]);
        let opt = optimize(plan, &nsc_cat(1_000, 10));
        assert!(opt.to_string().starts_with("Sort"));
    }

    #[test]
    fn zbp_keeps_nonzero_branches() {
        let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let opt = optimize(plan, &nsc_cat(1_000_000, 7));
        assert!(opt.to_string().starts_with("Merge"));
    }

    #[test]
    fn ncc_distinct_rewrite_produces_deduped_union_of_distincts() {
        let e = entry(0, 1, Constraint::NearlyConstant, 1_000_000, 100);
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let opt = rewrite(plan, &e);
        let s = opt.to_string();
        // Outer global distinct: the flows' value sets are not disjoint.
        assert!(s.starts_with("Distinct"), "got:\n{s}");
        assert!(s.lines().nth(1).unwrap().contains("Union"), "got:\n{s}");
        assert!(s.contains("exclude_patches") && s.contains("use_patches"));
    }

    #[test]
    fn full_exception_rate_keeps_reference_plan() {
        // With e = 1 the rewrite buys nothing; the cost gate rejects it.
        let plan = Plan::scan(vec![1]).distinct(vec![0]);
        let opt = optimize(plan, &nuc_cat(1_000, 1_000));
        assert!(opt.to_string().starts_with("Distinct"), "got:\n{}", opt);
    }

    #[test]
    fn selects_the_matching_index_per_query_across_columns() {
        // Two NUC indexes on different columns; each distinct query binds
        // the index of the column it scans.
        let cat = catalog(
            100_000,
            vec![
                entry(0, 1, Constraint::NearlyUnique, 100_000, 50),
                entry(1, 2, Constraint::NearlyUnique, 100_000, 80),
            ],
        );
        // Distinct over table col 1 -> slot 0.
        let q1 = Plan::scan(vec![1]).distinct(vec![0]);
        let s = optimize(q1, &cat).to_string();
        assert!(s.contains("slot=0"), "got:\n{s}");
        assert!(!s.contains("slot=1"));
        // Distinct over table col 2 -> slot 1.
        let q2 = Plan::scan(vec![2]).distinct(vec![0]);
        let s = optimize(q2, &cat).to_string();
        assert!(s.contains("slot=1"), "got:\n{s}");
        assert!(!s.contains("slot=0"));
    }

    #[test]
    fn multi_column_scan_distinct_is_not_rewritten() {
        // A wider scan must keep the reference plan: the excluding flow
        // keeps the full scan width while the patches flow aggregates to
        // the key, so the Figure-2 union would mismatch widths.
        let cat = catalog(
            1_000_000,
            vec![entry(0, 1, Constraint::NearlyUnique, 1_000_000, 10)],
        );
        let q = Plan::Scan {
            cols: vec![0, 1],
            filter: None,
        }
        .distinct(vec![1]);
        let s = optimize(q, &cat).to_string();
        assert!(s.starts_with("Distinct"), "got:\n{s}");
        assert!(!s.contains("PatchScan"));
    }

    #[test]
    fn selects_the_cheaper_index_when_both_match() {
        // NUC and NCC both cover the distinct column; whichever has the
        // (much) smaller patch set must win — tested in both directions.
        let plan = || Plan::scan(vec![1]).distinct(vec![0]);
        let nuc_cheap = catalog(
            1_000_000,
            vec![
                entry(0, 1, Constraint::NearlyUnique, 1_000_000, 100),
                entry(1, 1, Constraint::NearlyConstant, 1_000_000, 600_000),
            ],
        );
        let s = optimize(plan(), &nuc_cheap).to_string();
        assert!(s.contains("slot=0"), "NUC should win:\n{s}");
        assert!(!s.contains("slot=1"));

        let ncc_cheap = catalog(
            1_000_000,
            vec![
                entry(0, 1, Constraint::NearlyUnique, 1_000_000, 990_000),
                entry(1, 1, Constraint::NearlyConstant, 1_000_000, 100),
            ],
        );
        let s = optimize(plan(), &ncc_cheap).to_string();
        assert!(s.contains("slot=1"), "NCC should win:\n{s}");
        assert!(!s.contains("slot=0"));
    }

    #[test]
    fn different_sites_bind_different_indexes() {
        // A Union of two distinct queries over different columns: each
        // site binds its own index.
        let cat = catalog(
            100_000,
            vec![
                entry(0, 1, Constraint::NearlyUnique, 100_000, 10),
                entry(1, 2, Constraint::NearlyUnique, 100_000, 10),
            ],
        );
        let q = Plan::Union {
            inputs: vec![
                Plan::scan(vec![1]).distinct(vec![0]),
                Plan::scan(vec![2]).distinct(vec![0]),
            ],
        };
        let s = optimize(q, &cat).to_string();
        assert!(s.contains("slot=0") && s.contains("slot=1"), "got:\n{s}");
    }
}
