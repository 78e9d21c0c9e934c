//! The microbenchmark queries of Figure 7 in all evaluated configurations:
//! no constraint, specialized materialization, PI_bitmap, PI_identifier.

use patchindex::{Constraint, Design, IndexCatalog, PatchIndex, SortDir};
use pi_baselines::{DistinctView, SortKeyTable};
use pi_exec::ops::merge::OrderedMergeOp;
use pi_exec::ops::scan::ScanOp;
use pi_exec::ops::sort::SortOrder;
use pi_exec::{count_rows, OpRef};
use pi_planner::{execute_count, optimize, Plan};
use pi_storage::Table;

/// Value column of the microbenchmark table.
pub const VAL_COL: usize = 1;

/// `SELECT DISTINCT val FROM micro` without constraint information.
pub fn distinct_reference(table: &Table) -> usize {
    let plan = Plan::scan(vec![VAL_COL]).distinct(vec![0]);
    execute_count(&plan, table, pi_planner::NO_INDEXES)
}

/// Optimizes the distinct query against a single-index catalog. Run this
/// **outside** timed regions, which time execution only: the catalog
/// snapshot reads the index's patch counts, a popcount pass over a
/// Bitmap store.
pub fn plan_distinct_patchindex(table: &Table, index: &PatchIndex) -> Plan {
    let plan = Plan::scan(vec![VAL_COL]).distinct(vec![0]);
    optimize(plan, &IndexCatalog::of(table, std::slice::from_ref(index)))
}

/// Executes a pre-planned PatchIndex query (the timed body).
pub fn run_patchindex(opt: &Plan, table: &Table, index: &PatchIndex) -> usize {
    execute_count(opt, table, std::slice::from_ref(index))
}

/// The distinct query using a PatchIndex (plan + execute; convenience
/// for correctness tests — timed code pre-plans).
pub fn distinct_patchindex(table: &Table, index: &PatchIndex) -> usize {
    run_patchindex(&plan_distinct_patchindex(table, index), table, index)
}

/// The distinct query against the materialized view (plain scan).
pub fn distinct_matview(view: &DistinctView) -> usize {
    let mut scan = view.scan();
    count_rows(scan.as_mut())
}

/// `SELECT val FROM micro ORDER BY val` without constraint information.
pub fn sort_reference(table: &Table) -> usize {
    let plan = Plan::scan(vec![VAL_COL]).sort(vec![(0, SortOrder::Asc)]);
    execute_count(&plan, table, pi_planner::NO_INDEXES)
}

/// Optimizes the sort query against a single-index catalog (run outside
/// timed regions, like [`plan_distinct_patchindex`]).
pub fn plan_sort_patchindex(table: &Table, index: &PatchIndex) -> Plan {
    let plan = Plan::scan(vec![VAL_COL]).sort(vec![(0, SortOrder::Asc)]);
    optimize(plan, &IndexCatalog::of(table, std::slice::from_ref(index)))
}

/// The sort query using a PatchIndex (merge of the pre-sorted flow with
/// the sorted patches; plan + execute convenience).
pub fn sort_patchindex(table: &Table, index: &PatchIndex) -> usize {
    run_patchindex(&plan_sort_patchindex(table, index), table, index)
}

/// The sort query against the SortKey table: partition scans (already
/// sorted) merged globally.
pub fn sort_sortkey(sk: &SortKeyTable) -> usize {
    let t = sk.table();
    let streams: Vec<OpRef<'_>> = (0..t.partition_count())
        .map(|pid| Box::new(ScanOp::new(t.partition(pid), vec![sk.column()], false)) as OpRef<'_>)
        .collect();
    let mut merge = OrderedMergeOp::new(streams, vec![(0, SortOrder::Asc)]);
    count_rows(&mut merge)
}

/// Builds both PatchIndex designs on the value column.
pub fn build_indexes(table: &Table, constraint: Constraint) -> (PatchIndex, PatchIndex) {
    (
        PatchIndex::create(table, VAL_COL, constraint, Design::Bitmap),
        PatchIndex::create(table, VAL_COL, constraint, Design::Identifier),
    )
}

/// Constraint for a micro kind.
pub fn constraint_of(kind: pi_datagen::MicroKind) -> Constraint {
    match kind {
        pi_datagen::MicroKind::Nuc => Constraint::NearlyUnique,
        pi_datagen::MicroKind::Nsc => Constraint::NearlySorted(SortDir::Asc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_datagen::{generate, MicroKind, MicroSpec};

    #[test]
    fn distinct_configurations_agree() {
        let ds = generate(&MicroSpec::new(6_000, 0.3, MicroKind::Nuc));
        let (bm, id) = build_indexes(&ds.table, Constraint::NearlyUnique);
        let reference = distinct_reference(&ds.table);
        assert!(reference > 0);
        assert_eq!(distinct_patchindex(&ds.table, &bm), reference);
        assert_eq!(distinct_patchindex(&ds.table, &id), reference);
        let view = DistinctView::create(&ds.table, VAL_COL);
        assert_eq!(distinct_matview(&view), reference);
    }

    #[test]
    fn sort_configurations_agree() {
        let ds = generate(&MicroSpec::new(6_000, 0.2, MicroKind::Nsc));
        let (bm, id) = build_indexes(&ds.table, Constraint::NearlySorted(SortDir::Asc));
        let reference = sort_reference(&ds.table);
        assert_eq!(reference, 6_000);
        assert_eq!(sort_patchindex(&ds.table, &bm), reference);
        assert_eq!(sort_patchindex(&ds.table, &id), reference);
        let sk = SortKeyTable::create(&ds.table, VAL_COL);
        assert_eq!(sort_sortkey(&sk), reference);
    }

    #[test]
    fn sorted_outputs_identical_content() {
        use pi_exec::ops::sort::is_sorted_asc;
        let ds = generate(&MicroSpec::new(3_000, 0.5, MicroKind::Nsc));
        let (bm, _) = build_indexes(&ds.table, Constraint::NearlySorted(SortDir::Asc));
        let plan = Plan::scan(vec![VAL_COL]).sort(vec![(0, SortOrder::Asc)]);
        let reference = pi_planner::execute(&plan, &ds.table, pi_planner::NO_INDEXES);
        let indexes = std::slice::from_ref(&bm);
        let opt = optimize(plan, &IndexCatalog::of(&ds.table, indexes));
        let rewritten = pi_planner::execute(&opt, &ds.table, indexes);
        assert_eq!(reference.column(0).as_int(), rewritten.column(0).as_int());
        assert!(is_sorted_asc(rewritten.column(0)));
    }
}
