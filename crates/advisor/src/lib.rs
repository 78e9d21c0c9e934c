//! # pi-advisor — workload-driven index lifecycle
//!
//! The paper's central tension is that approximate-constraint
//! materializations *decay*: every insert/modify grows the patch set,
//! the error `e` drifts, and at some point the index stops paying for
//! itself and must be reorganized or abandoned. The building blocks
//! below `pi-advisor` (fast maintenance, a cost-gated planner) are
//! mechanism; this crate adds the *policy* — a self-tuning loop over
//! the whole index lifecycle:
//!
//! * **Observe** — per-index error `e = 1 − patches/rows` and
//!   maintained rows, the query evidence taken from the table's
//!   [`patchindex::WorkloadSink`] since the last step (queries per
//!   (column, shape), and per index how often it was bound and the
//!   estimated cost it saved), and per queried column a strided sample
//!   of the table, read at each step and scored with the real discovery
//!   code ([`patchindex::discovery::sampled_match`]).
//! * **Decide** — the explicit rules of [`policy`]: create when a
//!   sampled candidate clears the error threshold *and* the workload
//!   queries it; recompute when drift pushed `e` below its create-time
//!   value by a margin (the paper's reorganization trigger); drop when
//!   windowed maintenance cost exceeds windowed query benefit — all
//!   under a global patch-memory budget with benefit-per-byte ranking.
//! * **Act** — each decision is a [`patchindex::Statement`]
//!   (`AddIndex` / `Recompute` / `DropIndex`) applied through
//!   [`patchindex::IndexedTable::apply`], so a WAL can log every index
//!   change the advisor makes. Steps run on the caller's cadence
//!   ([`Advisor::step`], or [`Advisor::step_writer`] against a writer).
//!
//! ```
//! use patchindex::{Constraint, IndexedTable};
//! use pi_advisor::{Advisor, AdvisorAction, AdvisorConfig};
//! use pi_planner::{Plan, QueryEngine};
//! use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};
//!
//! let mut t = Table::new(
//!     "orders",
//!     Schema::new(vec![Field::new("id", DataType::Int)]),
//!     1,
//!     Partitioning::RoundRobin,
//! );
//! t.load_partition(0, &[ColumnData::Int((0..10_000).collect())]);
//! t.propagate_all();
//! let mut it = IndexedTable::new(t);
//!
//! // The workload keeps asking for distinct ids...
//! let q = Plan::scan(vec![0]).distinct(vec![0]);
//! for _ in 0..4 {
//!     it.query(&q);
//! }
//! // ...so one advisor step auto-creates the NUC index.
//! let mut advisor = Advisor::new(AdvisorConfig::default());
//! let actions = advisor.step(&mut it);
//! assert!(matches!(actions[..], [AdvisorAction::Created { .. }]));
//! assert_eq!(it.index(0).constraint(), Constraint::NearlyUnique);
//! ```

#![warn(missing_docs)]

mod advisor;
pub mod policy;
mod window;

pub use advisor::{Advisor, AdvisorAction};
pub use policy::{
    decide, split_budget, AdvisorConfig, CandidateObservation, Decision, DropReason,
    IndexObservation, Observation,
};

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::{Constraint, Design, IndexedTable, SortDir, Statement};
    use pi_exec::ops::sort::SortOrder;
    use pi_planner::{Plan, QueryEngine};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

    fn table(vals: Vec<i64>, parts: usize) -> IndexedTable {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            parts,
            Partitioning::RoundRobin,
        );
        for (pid, chunk) in vals.chunks(vals.len().div_ceil(parts)).enumerate() {
            let keys: Vec<i64> = (0..chunk.len() as i64).collect();
            t.load_partition(
                pid,
                &[ColumnData::Int(keys), ColumnData::Int(chunk.to_vec())],
            );
        }
        t.propagate_all();
        IndexedTable::new(t)
    }

    #[test]
    fn create_requires_query_evidence_not_just_a_clean_column() {
        let mut it = table((0..2_000).collect(), 2);
        let mut advisor = Advisor::new(AdvisorConfig::default());
        // Clean nearly unique column, but nobody queries it: no action.
        assert!(advisor.step(&mut it).is_empty());
        // After enough distinct queries the index appears.
        let q = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..3 {
            it.query(&q);
        }
        let actions = advisor.step(&mut it);
        assert!(
            matches!(
                actions[..],
                [AdvisorAction::Created {
                    column: 1,
                    constraint: Constraint::NearlyUnique,
                    ..
                }]
            ),
            "{actions:?}"
        );
        assert!(
            advisor.step(&mut it).is_empty(),
            "already served: no re-create"
        );
    }

    /// Regression for "pointer identity is the exact dirty set": a step
    /// that drains query evidence and decides nothing must not
    /// re-version any index — observing is not maintaining.
    #[test]
    fn step_writer_without_action_leaves_every_index_version_shared() {
        use patchindex::{ConcurrentTable, WorkloadDelta};
        use std::sync::Arc;
        let mut it = table((0..2_000).collect(), 2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let published = handle.snapshot();
        let q = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..3 {
            published.query(&q);
        }
        let mut advisor = Advisor::new(AdvisorConfig::default());
        let actions = advisor.step_writer(&mut writer);
        assert!(actions.is_empty(), "{actions:?}");
        assert_eq!(
            writer.staging().sink().take(),
            WorkloadDelta::default(),
            "the step took the evidence"
        );
        assert_eq!(handle.epoch(), published.epoch(), "nothing to publish");
        for (staged, shared) in writer.staging().indexes().iter().zip(published.indexes()) {
            assert!(Arc::ptr_eq(staged, shared));
        }
    }

    #[test]
    fn sort_queries_yield_an_nsc_index_in_the_right_direction() {
        let mut it = table((0..2_000).rev().collect(), 2);
        let mut advisor = Advisor::new(AdvisorConfig::default());
        let q = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Desc)]);
        for _ in 0..3 {
            it.query(&q);
        }
        let actions = advisor.step(&mut it);
        assert!(
            matches!(
                actions[..],
                [AdvisorAction::Created {
                    constraint: Constraint::NearlySorted(SortDir::Desc),
                    ..
                }]
            ),
            "{actions:?}"
        );
    }

    #[test]
    fn dirty_columns_never_clear_the_create_threshold() {
        // Every value duplicated: sampled NUC match ≈ 0.
        let vals: Vec<i64> = (0..1_000).flat_map(|v| [v, v]).collect();
        let mut it = table(vals, 1);
        let mut advisor = Advisor::new(AdvisorConfig::default());
        let q = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..5 {
            it.query(&q);
        }
        assert!(advisor.step(&mut it).is_empty());
    }

    /// The create rule scores the column as it stands at the step, not
    /// the writes that led there: once `clean` has turned the all-pairs
    /// column of `dirty_columns_never_clear_the_create_threshold` unique,
    /// the next step creates the NUC index.
    fn cleaned_column_is_created_at_the_next_step(clean: impl FnOnce(&mut IndexedTable)) {
        let vals: Vec<i64> = (0..1_000).flat_map(|v| [v, v]).collect();
        let mut it = table(vals, 1);
        let mut advisor = Advisor::new(AdvisorConfig::default());
        assert!(advisor.step(&mut it).is_empty());
        clean(&mut it);
        let q = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..5 {
            it.query(&q);
        }
        let actions = advisor.step(&mut it);
        assert!(
            matches!(
                actions[..],
                [AdvisorAction::Created {
                    column: 1,
                    constraint: Constraint::NearlyUnique,
                    ..
                }]
            ),
            "{actions:?}"
        );
    }

    #[test]
    fn deleting_one_row_of_every_pair_lets_the_next_step_create() {
        cleaned_column_is_created_at_the_next_step(|it| {
            let rids: Vec<usize> = (0..1_000).map(|i| 2 * i).collect();
            it.delete(0, &rids);
        });
    }

    #[test]
    fn overwriting_every_value_uniquely_lets_the_next_step_create() {
        cleaned_column_is_created_at_the_next_step(|it| {
            let rids: Vec<usize> = (0..2_000).collect();
            let values: Vec<Value> = (0..2_000).map(|v| Value::Int(10_000 + v)).collect();
            it.modify(0, &rids, 1, &values);
        });
    }

    #[test]
    fn recompute_restores_drifted_e() {
        let mut it = table((0..1_000).collect(), 1);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        // Plant duplicates, then move them away again: the patches stay
        // (eager maintenance never un-patches) — pure lost optimality.
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| vec![Value::Int(2_000 + i), Value::Int(i)])
            .collect();
        it.insert(&rows);
        let pid = 0;
        let plen = it.table().partition(pid).visible_len();
        let rids: Vec<usize> = (plen - 300..plen).collect();
        let fresh: Vec<Value> = (0..300).map(|i| Value::Int(50_000 + i)).collect();
        it.modify(pid, &rids, 1, &fresh);
        let drifted = it.index(slot).match_fraction();
        assert!(it.index(slot).baseline().match_fraction - drifted > 0.1);

        let mut advisor = Advisor::new(AdvisorConfig::default());
        let actions = advisor.step(&mut it);
        assert!(
            matches!(actions[..], [AdvisorAction::Recomputed { slot: 0, .. }]),
            "{actions:?}"
        );
        assert!(it.index(slot).match_fraction() > drifted);
        assert_eq!(it.index(slot).match_fraction(), 1.0);
    }

    #[test]
    fn unqueried_index_under_update_pressure_is_dropped() {
        let mut it = table((0..1_000).collect(), 1);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let cfg = AdvisorConfig {
            drop_window: 2,
            ..AdvisorConfig::default()
        };
        let mut advisor = Advisor::new(cfg);
        let mut key = 10_000i64;
        for step in 0..3 {
            for _ in 0..50 {
                key += 1;
                it.insert(&[vec![Value::Int(key), Value::Int(key + 1_000_000)]]);
            }
            let actions = advisor.step(&mut it);
            if step < 1 {
                // Window not full yet.
                assert!(actions.is_empty(), "step {step}: {actions:?}");
            } else {
                assert!(
                    matches!(
                        actions[..],
                        [AdvisorAction::Dropped {
                            reason: DropReason::CostDominated,
                            ..
                        }]
                    ),
                    "step {step}: {actions:?}"
                );
                assert!(it.indexes().is_empty());
                return;
            }
        }
        panic!("drop rule never fired");
    }

    /// Why query feedback need not survive a restart: an advisor anchors
    /// each index's window at its first sight of the index and discards
    /// that step's drained saving, so feedback a table gathered before
    /// the advisor's first step never reaches a decision. Two copies of
    /// one table, one carrying a large pre-advisor saving, take identical
    /// statements and queries and get identical actions for a full window
    /// and one step past it — including the drop the large saving would
    /// have vetoed had it counted.
    #[test]
    fn feedback_before_the_first_step_never_changes_a_decision() {
        use patchindex::WorkloadEvent;
        let cfg = AdvisorConfig {
            drop_window: 2,
            ..AdvisorConfig::default()
        };
        let copy = || {
            let mut it = table((0..1_000).collect(), 1);
            it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
            (it, Advisor::new(cfg))
        };
        let (mut fresh, mut fresh_advisor) = copy();
        let (mut seasoned, mut seasoned_advisor) = copy();
        // Waits in the sink until the first step takes it.
        seasoned.sink().record([WorkloadEvent::Feedback {
            column: 1,
            constraint: Constraint::NearlyUnique,
            est_cost_saved: 1e12,
        }]);

        let q = Plan::scan(vec![0]).sort(vec![(0, SortOrder::Asc)]);
        let mut key = 10_000i64;
        let mut dropped = false;
        for step in 0..=cfg.drop_window {
            let rows: Vec<Vec<Value>> = (0..50)
                .map(|_| {
                    key += 1;
                    vec![Value::Int(key), Value::Int(key + 1_000_000)]
                })
                .collect();
            let mut actions = Vec::new();
            for (it, advisor) in [
                (&mut fresh, &mut fresh_advisor),
                (&mut seasoned, &mut seasoned_advisor),
            ] {
                it.insert(&rows);
                it.query(&q);
                actions.push(format!("{:?}", advisor.step(it)));
            }
            assert_eq!(actions[0], actions[1], "step {step}");
            dropped |= actions[0].contains("Dropped");
        }
        assert!(dropped, "the drop rule must fire inside the window");
    }

    /// Regression: an index dropped and re-created between two steps
    /// keeps its window, and the step after reads the new index's saving
    /// as it arrived — not as the new slot's total minus the old slot's
    /// (a negative benefit that dropped the index).
    #[test]
    fn recreated_index_is_not_dropped_on_a_negative_benefit() {
        let mut it = table((0..1_000).collect(), 1);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let mut advisor = Advisor::new(AdvisorConfig {
            drop_window: 2,
            ..AdvisorConfig::default()
        });
        let q = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..3 {
            it.query(&q);
            assert!(advisor.step(&mut it).is_empty());
        }
        it.apply(&Statement::DropIndex { slot: 0 });
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.query(&q);
        let actions = advisor.step(&mut it);
        assert!(actions.is_empty(), "{actions:?}");
    }
}
