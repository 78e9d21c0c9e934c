//! Advisor lifecycle integration test: the three-phase grow/drift/storm
//! workload of `pi_datagen::drift` must drive the full observe → decide
//! → act loop — auto-create in the grow phase, drift-induced recompute
//! that restores `e` to near create-time levels, cost-based drop in the
//! storm — while every query result stays **byte-identical** to a
//! manually-managed reference table receiving the same update stream.
//! And the estimate the advisor creates from is the index create builds:
//! on a table small enough to be sampled whole, `sampled_match` equals
//! the created index's match fraction, for every constraint.

use patchindex::discovery::sampled_match;
use patchindex::{Constraint, Design, IndexedTable, PatchIndex, SortDir, Statement};
use pi_advisor::{Advisor, AdvisorAction, AdvisorConfig, DropReason};
use pi_datagen::{DriftOp, DriftSpec};
use pi_exec::ops::sort::SortOrder;
use pi_integration::kv_table;
use pi_planner::{execute, Plan, QueryEngine, NO_INDEXES};
use pi_storage::{Partitioning, Table, Value};
use proptest::prelude::*;

fn config() -> AdvisorConfig {
    AdvisorConfig {
        recompute_margin: 0.05,
        drop_window: 3,
        ..AdvisorConfig::default()
    }
}

/// Sorted distinct over the advised column: deterministic output, and
/// its Distinct-over-Scan root is exactly the shape the advisor counts.
fn workload_query() -> Plan {
    Plan::scan(vec![DriftSpec::VAL_COL])
        .distinct(vec![0])
        .sort(vec![(0, SortOrder::Asc)])
}

fn apply(it: &mut IndexedTable, op: &DriftOp) {
    match op {
        DriftOp::Insert(rows) => {
            it.insert(rows);
        }
        DriftOp::Modify {
            pid,
            rids,
            col,
            values,
        } => {
            it.modify(*pid, rids, *col, values);
        }
        DriftOp::Query => {}
    }
}

/// Advisor-managed result vs the manually-managed reference, byte for
/// byte (both run through the same facade).
fn assert_identical(advised: &IndexedTable, manual: &IndexedTable, at: &str) {
    let q = workload_query();
    let a = advised.query(&q);
    let m = manual.query(&q);
    assert_eq!(a.len(), m.len(), "{at}: row counts diverged");
    assert_eq!(
        a.column(0).as_int(),
        m.column(0).as_int(),
        "{at}: results diverged"
    );
    // And both agree with the index-free ground truth.
    let reference = execute(&q, manual.table(), NO_INDEXES);
    assert_eq!(
        a.column(0).as_int(),
        reference.column(0).as_int(),
        "{at}: wrong results"
    );
}

#[test]
fn full_lifecycle_on_a_drifting_workload() {
    let spec = DriftSpec::new(6_000);
    let mut advised = IndexedTable::new(spec.base_table());
    let mut manual = IndexedTable::new(spec.base_table());
    let mut advisor = Advisor::new(config());
    let mut actions: Vec<AdvisorAction> = Vec::new();
    let phases = spec.phases();

    // ---- phase 1: grow — the advisor must create the index -------------
    let grow = &phases[0];
    for op in &grow.ops {
        apply(&mut advised, op);
        apply(&mut manual, op);
        if matches!(op, DriftOp::Query) {
            assert_identical(&advised, &manual, "grow");
            actions.extend(advisor.step(&mut advised));
        }
    }
    let created: Vec<&AdvisorAction> = actions
        .iter()
        .filter(|a| matches!(a, AdvisorAction::Created { .. }))
        .collect();
    assert_eq!(
        created.len(),
        1,
        "exactly one auto-create expected: {actions:?}"
    );
    let AdvisorAction::Created {
        column,
        constraint,
        sampled_e,
        discovered_e,
        ..
    } = created[0]
    else {
        unreachable!()
    };
    assert_eq!(*column, DriftSpec::VAL_COL);
    assert_eq!(*constraint, Constraint::NearlyUnique);
    assert!(*sampled_e >= config().create_threshold);
    assert!(*discovered_e > 0.99, "grow-phase data is unique");
    assert_eq!(advised.indexes().len(), 1);
    // The index wins the workload query: the facade binds it.
    assert!(
        advised
            .plan_query(&workload_query())
            .to_string()
            .contains("PatchScan"),
        "the created index must be chosen by the optimizer"
    );
    // Manual management mirrors the advisor's decision.
    manual.add_index(
        DriftSpec::VAL_COL,
        Constraint::NearlyUnique,
        Design::Identifier,
    );
    assert_identical(&advised, &manual, "post-create");

    // ---- phase 2: drift — recompute must restore e ---------------------
    let e_at_create = advised.index(0).match_fraction();
    let drift = &phases[1];
    let mut drifted_to: Option<f64> = None;
    let before = actions.len();
    for op in &drift.ops {
        apply(&mut advised, op);
        apply(&mut manual, op);
        if matches!(op, DriftOp::Query) {
            let e_now = advised.index(0).match_fraction();
            drifted_to = Some(drifted_to.map_or(e_now, |d: f64| d.min(e_now)));
            let new = advisor.step(&mut advised);
            // Mirror every advisor recompute on the manual table.
            for a in &new {
                if matches!(a, AdvisorAction::Recomputed { .. }) {
                    manual.apply(&Statement::Recompute { slot: 0 });
                }
            }
            actions.extend(new);
            assert_identical(&advised, &manual, "drift");
        }
    }
    let recomputes: Vec<&AdvisorAction> = actions[before..]
        .iter()
        .filter(|a| matches!(a, AdvisorAction::Recomputed { .. }))
        .collect();
    // The drift rule reads patch counts only, so the trajectory is exact:
    // the margin is crossed twice over the phase.
    assert_eq!(
        recomputes.len(),
        2,
        "drift must trigger two recomputes: {actions:?}"
    );
    for r in &recomputes {
        let AdvisorAction::Recomputed {
            e_before,
            e_after,
            baseline_e,
            ..
        } = r
        else {
            unreachable!()
        };
        assert!(
            baseline_e - e_before > config().recompute_margin,
            "recompute fired before the margin: {r:?}"
        );
        assert!(e_after > e_before, "recompute must improve e: {r:?}");
        assert!(
            e_after - e_at_create > -0.01,
            "recompute must restore e to near create-time levels: {r:?}"
        );
    }
    assert!(
        drifted_to.unwrap() < e_at_create - config().recompute_margin,
        "the workload must actually have drifted"
    );

    // ---- phase 3: storm — maintenance domination must drop -------------
    let before = actions.len();
    let storm = &phases[2];
    for op in &storm.ops {
        apply(&mut advised, op);
        apply(&mut manual, op);
        actions.extend(advisor.step(&mut advised));
    }
    let drops: Vec<&AdvisorAction> = actions[before..]
        .iter()
        .filter(|a| matches!(a, AdvisorAction::Dropped { .. }))
        .collect();
    assert_eq!(
        drops.len(),
        1,
        "the storm must drop the index once: {actions:?}"
    );
    let AdvisorAction::Dropped {
        reason,
        maintenance_cost,
        query_benefit,
        ..
    } = drops[0]
    else {
        unreachable!()
    };
    assert_eq!(*reason, DropReason::CostDominated);
    assert!(maintenance_cost > query_benefit);
    assert!(
        advised.indexes().is_empty(),
        "no index must survive the storm"
    );
    assert!(
        !actions[before..]
            .iter()
            .any(|a| matches!(a, AdvisorAction::Created { .. })),
        "a dropped index must not oscillate back without fresh query evidence"
    );
    // Mirror the drop and compare end state.
    manual.apply(&Statement::DropIndex { slot: 0 });
    assert_identical(&advised, &manual, "post-drop");
    advised.check_consistency();
    manual.check_consistency();
}

/// Stepping on the update path (one `step()` after every update
/// statement, none at the queries) reaches the same end state as
/// stepping at the queries: the same workload creates, recomputes and
/// eventually drops.
#[test]
fn piggybacked_advisor_runs_the_lifecycle_hands_free() {
    let spec = DriftSpec::new(6_000);
    let mut advisor = Advisor::new(config());
    let mut it = IndexedTable::new(spec.base_table());
    let mut actions = Vec::new();
    let q = workload_query();
    for phase in spec.phases() {
        for op in &phase.ops {
            apply(&mut it, op);
            if let DriftOp::Query = op {
                let got = it.query(&q);
                let reference = execute(&q, it.table(), NO_INDEXES);
                assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
            } else {
                actions.extend(advisor.step(&mut it));
            }
        }
    }
    let kinds: Vec<&str> = actions
        .iter()
        .map(|a| match a {
            AdvisorAction::Created { .. } => "create",
            AdvisorAction::Recomputed { .. } => "recompute",
            AdvisorAction::Dropped { .. } => "drop",
        })
        .collect();
    assert!(kinds.contains(&"create"), "{kinds:?}");
    assert!(kinds.contains(&"recompute"), "{kinds:?}");
    assert!(kinds.contains(&"drop"), "{kinds:?}");
    it.check_consistency();
}

/// A value from a small pool half the time, so repeats fall inside and
/// across partitions, and an arbitrary (almost surely unique) one
/// otherwise.
fn value() -> impl Strategy<Value = i64> {
    prop_oneof![-24i64..24, any::<i64>()]
}

/// A write left pending in the delta: an insert (routed round-robin), or
/// a delete or modify of a row picked modulo the partition's size.
#[derive(Debug, Clone)]
enum Write {
    Insert(i64),
    Delete(usize, usize),
    Modify(usize, usize, i64),
}

fn write() -> impl Strategy<Value = Write> {
    prop_oneof![
        value().prop_map(Write::Insert),
        (0usize..6, 0usize..300).prop_map(|(p, r)| Write::Delete(p, r)),
        (0usize..6, 0usize..300, value()).prop_map(|(p, r, v)| Write::Modify(p, r, v)),
    ]
}

/// A `(k, v)` table of the given partitions, round-robin routed, with
/// `writes` pending on top of the propagated load.
fn pending_table(parts: &[Vec<i64>], writes: &[Write]) -> Table {
    let mut keys = 0i64..;
    let loaded = parts
        .iter()
        .map(|vals| (keys.by_ref().take(vals.len()).collect(), vals.clone()))
        .collect();
    let mut t = kv_table(Partitioning::RoundRobin, loaded);
    for w in writes {
        match *w {
            Write::Insert(v) => {
                let k = keys.next().expect("keys never run out");
                t.insert_rows(&[vec![Value::Int(k), Value::Int(v)]]);
            }
            Write::Delete(p, r) | Write::Modify(p, r, _) => {
                let pid = p % t.partition_count();
                let len = t.partition(pid).visible_len();
                if len == 0 {
                    continue;
                }
                match *w {
                    Write::Modify(_, _, v) => t.modify(pid, &[r % len], 1, &[Value::Int(v)]),
                    _ => t.delete(pid, &[r % len]),
                }
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Fewer than 2 048 visible rows make the sampling stride 1: the
    // sample is every visible row, and the advisor's estimate must be
    // exactly the match fraction of the index create builds, NUC repeats
    // across partitions included.
    #[test]
    fn a_whole_table_sample_estimates_what_create_builds(
        parts in proptest::collection::vec(proptest::collection::vec(value(), 0..300), 1..7),
        writes in proptest::collection::vec(write(), 0..40),
    ) {
        let t = pending_table(&parts, &writes);
        prop_assert!(t.visible_len() < 2_048);
        for c in [
            Constraint::NearlyUnique,
            Constraint::NearlySorted(SortDir::Asc),
            Constraint::NearlySorted(SortDir::Desc),
            Constraint::NearlyConstant,
        ] {
            let estimate = sampled_match(&t, 1, c).expect("an Int column");
            let built = PatchIndex::create(&t, 1, c, Design::Bitmap).match_fraction();
            prop_assert_eq!(estimate, built, "{:?} over {:?} with {:?}", c, parts, writes);
        }
    }
}
