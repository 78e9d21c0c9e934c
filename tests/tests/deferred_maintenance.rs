//! Deferred maintenance end-to-end: under *arbitrary* interleavings of
//! inserts, modifies, deletes and mid-stream flushes, the deferred flush
//! must reproduce the eager patch sets **byte-identically** for NUC and
//! NCC (including cross-partition NUC collisions), and the
//! staged-exception routing must keep queries correct before any flush.

use std::panic::{catch_unwind, AssertUnwindSafe};

use patchindex::{Constraint, Design, IndexedTable, SortDir};
use pi_datagen::MicroKind;
use pi_exec::ops::sort::SortOrder;
use pi_integration::{deferred, micro};
use pi_planner::{execute, execute_count, optimize, Plan, QueryEngine, NO_INDEXES};
use pi_storage::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    Modify {
        pid: usize,
        rid_seeds: Vec<u32>,
        values: Vec<i64>,
    },
    Delete {
        pid: usize,
        rid_seeds: Vec<u32>,
    },
    /// Explicit mid-stream flush (no-op for the eager twin).
    Flush,
}

/// Values are drawn from a small pool so collisions — also across
/// partitions — happen all the time.
fn op_strategy() -> impl Strategy<Value = Op> {
    let insert = || proptest::collection::vec(-30i64..30, 1..10).prop_map(Op::Insert);
    let modify = || {
        (
            0usize..3,
            proptest::collection::vec(any::<u32>(), 1..6),
            proptest::collection::vec(-30i64..30, 6..7),
        )
            .prop_map(|(pid, rid_seeds, values)| Op::Modify {
                pid,
                rid_seeds,
                values,
            })
    };
    prop_oneof![
        insert(),
        insert(),
        modify(),
        modify(),
        (0usize..3, proptest::collection::vec(any::<u32>(), 1..5))
            .prop_map(|(pid, rid_seeds)| Op::Delete { pid, rid_seeds }),
        Just(Op::Flush),
    ]
}

fn apply(it: &mut IndexedTable, op: &Op, next_key: &mut i64) {
    match op {
        Op::Insert(values) => {
            let rows: Vec<Vec<Value>> = values
                .iter()
                .map(|&v| {
                    *next_key += 1;
                    vec![Value::Int(*next_key), Value::Int(v)]
                })
                .collect();
            it.insert(&rows);
        }
        Op::Modify {
            pid,
            rid_seeds,
            values,
        } => {
            let len = it.table().partition(*pid).visible_len();
            if len == 0 {
                return;
            }
            let mut rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            rids.sort_unstable();
            rids.dedup();
            let vals: Vec<Value> = rids
                .iter()
                .zip(values.iter().cycle())
                .map(|(_, &v)| Value::Int(v))
                .collect();
            it.modify(*pid, &rids, 1, &vals);
        }
        Op::Delete { pid, rid_seeds } => {
            let len = it.table().partition(*pid).visible_len();
            if len == 0 {
                return;
            }
            let rids: Vec<usize> = rid_seeds.iter().map(|&s| s as usize % len).collect();
            it.delete(*pid, &rids);
        }
        Op::Flush => it.flush_maintenance(),
    }
}

/// Per-partition patch rowIDs of one index.
fn patch_sets(it: &IndexedTable, slot: usize) -> Vec<Vec<u64>> {
    (0..it.index(slot).partition_count())
        .map(|pid| it.index(slot).partition(pid).store.patch_rids())
        .collect()
}

/// Runs the same op stream through an eager twin and a deferred twin
/// (identical seeded dataset), final-flushes the deferred one and returns
/// both tables for comparison.
fn run_twins(
    kind: MicroKind,
    constraint: Constraint,
    design: Design,
    flush_rows: usize,
    ops: &[Op],
) -> (IndexedTable, IndexedTable, usize) {
    let mut eager = IndexedTable::new(micro(300, 0.1, kind).table);
    let mut deferred =
        IndexedTable::new(micro(300, 0.1, kind).table).with_policy(deferred(flush_rows));
    let slot = eager.add_index(1, constraint, design);
    assert_eq!(deferred.add_index(1, constraint, design), slot);
    let (mut k1, mut k2) = (1_000_000i64, 1_000_000i64);
    for op in ops {
        apply(&mut eager, op, &mut k1);
        apply(&mut deferred, op, &mut k2);
    }
    deferred.flush_maintenance();
    (eager, deferred, slot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // NUC, both designs: byte-identical patch sets after the flush, for
    // random insert/modify/delete/flush interleavings over 3 partitions.
    #[test]
    fn nuc_deferred_flush_matches_eager_byte_identically(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        bitmap in any::<bool>(),
    ) {
        let design = if bitmap { Design::Bitmap } else { Design::Identifier };
        let (eager, deferred, slot) =
            run_twins(MicroKind::Nuc, Constraint::NearlyUnique, design, usize::MAX, &ops);
        eager.check_consistency();
        deferred.check_consistency();
        prop_assert_eq!(patch_sets(&eager, slot), patch_sets(&deferred, slot));
        prop_assert_eq!(eager.index(slot).nrows(), deferred.index(slot).nrows());
    }

    // Auto-flush thresholds cut the stream at arbitrary points; the
    // result must not depend on where the flushes landed.
    #[test]
    fn nuc_auto_flush_threshold_is_transparent(
        ops in proptest::collection::vec(op_strategy(), 1..14),
        flush_rows in 1usize..12,
    ) {
        let (eager, deferred, slot) = run_twins(
            MicroKind::Nuc, Constraint::NearlyUnique, Design::Bitmap, flush_rows, &ops);
        deferred.check_consistency();
        prop_assert_eq!(patch_sets(&eager, slot), patch_sets(&deferred, slot));
    }

    // NCC replay: byte-identical including the order-sensitive constant
    // adoption.
    #[test]
    fn ncc_deferred_flush_matches_eager_byte_identically(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let (eager, deferred, slot) = run_twins(
            MicroKind::Nuc, Constraint::NearlyConstant, Design::Bitmap, usize::MAX, &ops);
        eager.check_consistency();
        deferred.check_consistency();
        prop_assert_eq!(patch_sets(&eager, slot), patch_sets(&deferred, slot));
    }

    // NSC: the deferred flush runs ONE merged LIS extension per
    // partition, which may keep strictly more rows than eager's
    // per-statement greedy extensions — never fewer, and never an
    // inconsistent state. (Deletes excluded: after a flush divergence
    // the twins' rowID spaces are no longer comparable under deletes.)
    #[test]
    fn nsc_deferred_flush_consistent_and_no_worse_than_eager(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let ops: Vec<Op> =
            ops.into_iter().filter(|op| !matches!(op, Op::Delete { .. })).collect();
        let (eager, deferred, slot) = run_twins(
            MicroKind::Nsc,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
            usize::MAX,
            &ops,
        );
        eager.check_consistency();
        deferred.check_consistency();
        prop_assert!(
            deferred.index(slot).exception_count() <= eager.index(slot).exception_count()
        );
    }

    // The staged-exception contract: while NSC maintenance is pending,
    // the rewritten sort query still matches the reference result — all
    // staged rows are routed through the exception flow, so the kept flow
    // really is sorted. (NUC plans exploiting patch/kept value
    // disjointness are instead masked by the facade while pending; what
    // hand-wiring them unflushed does is exercised in
    // `check_consistency_pending_vs_flushed`.)
    #[test]
    fn nsc_queries_stay_correct_while_maintenance_pending(
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let mut it = IndexedTable::new(micro(300, 0.1, MicroKind::Nsc).table)
            .with_policy(deferred(usize::MAX));
        let slot = it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let mut next_key = 1_000_000i64;
        for op in &ops {
            apply(&mut it, op, &mut next_key);
            // No flush here: query with whatever is pending right now.
            // (The facade keeps NSC-bound plans while pending — staged
            // rows route through the exception flow.)
            let plan = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
            let reference = execute(&plan, it.table(), NO_INDEXES);
            let pending_before = it.index(slot).has_pending();
            let got = it.query(&plan);
            prop_assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
            prop_assert_eq!(it.index(slot).has_pending(), pending_before);
        }
    }
}

/// The flush contract of `check_consistency`: a staged collision makes the
/// check fail (the partner row is only patched by the flush), queries stay
/// correct regardless, and after `flush_maintenance()` the check passes.
#[test]
fn check_consistency_pending_vs_flushed() {
    let mut it =
        IndexedTable::new(micro(300, 0.0, MicroKind::Nuc).table).with_policy(deferred(usize::MAX));
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    assert_eq!(it.index(slot).exception_count(), 0);

    // Duplicate an existing value within one partition: the staged row is
    // conservatively patched, but its partner (a kept row with the same
    // value) is not — exactly the state check_consistency must reject.
    let existing = it.table().partition(0).value_at(1, 0);
    let Value::Int(dup) = existing else {
        panic!("int column")
    };
    it.modify(0, &[1], 1, &[Value::Int(dup)]);
    assert!(it.index(slot).has_pending());

    // The flush-before-query contract for NUC: the distinct rewrite
    // exploits that patch values never appear among kept rows — exactly
    // the invariant a staged-but-unflushed collision suspends. The
    // conservative routing never *loses* rows, so the rewritten count can
    // only exceed the reference until the flush restores the invariant.
    // (Hand-wiring planner + executor bypasses the facade's pending-NUC
    // mask on purpose here.)
    let plan = Plan::scan(vec![1]).distinct(vec![0]);
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    let pending_cat = it.catalog();
    let opt = optimize(plan.clone(), &pending_cat, false);
    assert!(execute_count(&opt, it.table(), it.indexes()) >= reference);

    // Consistency (and with it the disjointness the rewrite needs) only
    // holds again after the flush.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pending_check = catch_unwind(AssertUnwindSafe(|| it.check_consistency()));
    std::panic::set_hook(hook);
    assert!(
        pending_check.is_err(),
        "pending collision must fail the consistency check"
    );

    it.flush_maintenance();
    it.check_consistency();
    assert_eq!(it.index(slot).exception_count(), 2);
    // Flushed: the rewritten plan is exact again, and the facade binds it.
    assert_eq!(it.query_count(&plan), reference);
}

/// The facade closes the stale-pending-state hole the direct wiring
/// leaves open without ever writing: a distinct through
/// `QueryEngine::query` masks the pending NUC binding — exact, staged
/// work untouched — and binds the rewrite again once the owner flushes.
#[test]
fn query_engine_masks_pending_nuc_until_flushed() {
    let mut it =
        IndexedTable::new(micro(300, 0.0, MicroKind::Nuc).table).with_policy(deferred(usize::MAX));
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    let Value::Int(dup) = it.table().partition(0).value_at(1, 0) else {
        panic!("int column")
    };
    it.modify(0, &[1], 1, &[Value::Int(dup)]);
    assert!(it.index(slot).has_pending());

    let plan = Plan::scan(vec![1]).distinct(vec![0]);
    let reference = execute_count(&plan, it.table(), NO_INDEXES);
    let trace = it.explain_analyze(&plan);
    assert_eq!(trace.rows_out as usize, reference);
    assert_eq!(trace.planner.masked_pending_slots, [slot]);
    assert!(trace.planner.slots_bound.is_empty());
    assert!(it.index(slot).has_pending(), "a query never flushes");

    it.flush_index(slot);
    let trace = it.explain_analyze(&plan);
    assert_eq!(trace.rows_out as usize, reference);
    assert_eq!(trace.planner.slots_bound, [slot]);
    it.check_consistency();
}

/// Regression: a value acquired and abandoned entirely while pending
/// (insert 7, modify it to 8) must patch exactly what eager would have
/// patched — nothing, unless a third row held 7 in the meantime.
#[test]
fn transient_values_reproduce_eager_semantics() {
    for (values, touch_existing) in [(vec![7i64, 8], false), (vec![7, 8], true)] {
        let mut eager = IndexedTable::new(micro(60, 0.0, MicroKind::Nuc).table);
        let mut deferred = IndexedTable::new(micro(60, 0.0, MicroKind::Nuc).table)
            .with_policy(deferred(usize::MAX));
        let slot_e = eager.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let slot_d = deferred.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        for it in [&mut eager, &mut deferred] {
            // Pin a known value onto an existing row, or not.
            if touch_existing {
                it.modify(0, &[0], 1, &[Value::Int(values[0])]);
            }
            let addr = it.insert(&[vec![Value::Int(777), Value::Int(values[0])]])[0];
            it.modify(addr.partition, &[addr.rid], 1, &[Value::Int(values[1])]);
        }
        deferred.flush_maintenance();
        eager.check_consistency();
        deferred.check_consistency();
        assert_eq!(
            patch_sets(&eager, slot_e),
            patch_sets(&deferred, slot_d),
            "touch_existing={touch_existing}"
        );
        // What deferring buys: eager pays one collision round (one build
        // side hashed) per statement, the deferred stream one per flush.
        let statements = 2 + touch_existing as u64;
        let (e, d) = (
            eager.index(slot_e).maintenance_stats(),
            deferred.index(slot_d).maintenance_stats(),
        );
        assert_eq!(
            (e.collision_rounds, e.build_invocations),
            (statements, statements)
        );
        assert_eq!((d.collision_rounds, d.build_invocations), (1, 1));
    }
}

/// Checkpointing mid-epoch would persist conservative patch bits without
/// the value histories needed to ever repair them — it must refuse.
#[test]
#[should_panic(expected = "flush deferred maintenance")]
fn checkpoint_with_pending_maintenance_panics() {
    let mut it =
        IndexedTable::new(micro(60, 0.0, MicroKind::Nuc).table).with_policy(deferred(usize::MAX));
    let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    it.insert(&[vec![Value::Int(7_000_000), Value::Int(1)]]);
    assert!(it.index(slot).has_pending());
    let path = std::env::temp_dir().join("pi_pending_checkpoint_test.bin");
    let _ = it.index(slot).checkpoint(&path);
}

/// Regression: a rowID repeated within one modify statement (last-wins,
/// accepted by the table and by eager maintenance) must not corrupt the
/// staged value history or the interval sweep.
#[test]
fn duplicate_rids_in_one_modify_statement() {
    let mut eager = IndexedTable::new(micro(60, 0.0, MicroKind::Nuc).table);
    let mut deferred =
        IndexedTable::new(micro(60, 0.0, MicroKind::Nuc).table).with_policy(deferred(usize::MAX));
    let slot = eager.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
    assert_eq!(
        deferred.add_index(1, Constraint::NearlyUnique, Design::Bitmap),
        slot
    );
    for it in [&mut eager, &mut deferred] {
        // Same rid twice in one statement, then a genuine collision with
        // the post-statement value from another row.
        it.modify(0, &[2, 2], 1, &[Value::Int(500), Value::Int(501)]);
        it.modify(0, &[3], 1, &[Value::Int(501)]);
    }
    deferred.flush_maintenance();
    eager.check_consistency();
    deferred.check_consistency();
    assert_eq!(patch_sets(&eager, slot), patch_sets(&deferred, slot));
}
