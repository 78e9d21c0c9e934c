//! Deferred (batch-amortized) index maintenance.
//!
//! Eager maintenance runs one collision join per update statement. Under
//! heavy update traffic that costs `O(statements)` probe rounds even
//! though the joins could share work. Deferred mode instead *stages*
//! pending inserts and modifies into a per-index dirty set and runs **one
//! merged collision join (NUC) / one LIS extension (NSC)** when the index
//! is flushed (explicitly, or automatically once the pending-row threshold
//! of [`crate::MaintenanceMode::Deferred`] is reached).
//!
//! ## Query correctness while pending
//!
//! Every staged row is conservatively marked as a patch the moment it is
//! staged. PatchIndex scans therefore route all pending rows through the
//! `use_patches` (exception) flow, where no constraint is assumed. That
//! keeps every plan correct whose rewrite only relies on the *kept* flow
//! satisfying the constraint (NSC merge plans, NCC constant folding,
//! exception-scan plans). One NUC invariant is suspended while pending:
//! a staged duplicate's *partner* row is only discovered (and patched) by
//! the flush, so until then a patch value may still appear among kept
//! rows. Plans exploiting that disjointness (e.g. the distinct-count
//! rewrite) can over-count, so the `pi-planner` query facade **masks a
//! pending NUC index** — at every entry point, owner and snapshot alike,
//! because a query never flushes — and answers from the reference plan.
//! Flush ([`crate::IndexedTable::flush_index`] /
//! [`crate::IndexedTable::flush_maintenance`]) to get the rewrite back;
//! code that hand-wires `optimize` + `execute` must flush first itself.
//! `check_consistency` fails in exactly the states where this matters.
//!
//! ## Eager equivalence
//!
//! For NUC and NCC the flush produces **byte-identical patch sets** to
//! running eager maintenance statement by statement. The subtle part is
//! NUC: eager joins run against intermediate table states, so the flush
//! must reconstruct which values each pending row held at which statement.
//! The dirty set stores a small value history per pending row; the flush
//! then
//!
//! 1. joins all distinct historical values of pending rows against the
//!    final table (build side hashed **once**, partition probes in
//!    parallel), counting only hits on *non-pending* rows — those rows
//!    held their value the whole time, so any value match was observable
//!    eagerly; and
//! 2. resolves pending-vs-pending collisions with a sweep over the value
//!    intervals: two pending rows collide exactly if one of them
//!    *acquired* a value (a real statement) while the other *held* the
//!    same value — precisely when an eager join would have seen them.
//!
//! Staged rows that end up collision-free get their conservative patch
//! bit removed again (unless the bit predated staging — eager mode never
//! un-patches either, the "lost optimality, not correctness" rule).
//!
//! NSC flushes run a *single* LIS extension over all pending inserted
//! values per partition — at least as long as the per-statement greedy
//! extensions combined, so deferred NSC may keep strictly *more* rows
//! than eager (never fewer, never an inconsistent state).

use std::collections::{HashMap, HashSet};

use pi_storage::{RowAddr, Table};

use crate::constraint::{Constraint, SortDir};
use crate::index::PatchIndex;
use crate::maintenance::{build_changed_batch_from, extend_sorted_run, gather_values};

/// Value history of one staged (pending) row.
#[derive(Debug, Clone)]
struct RowHistory {
    /// Value the row held before its first in-epoch modify (`None` for
    /// rows inserted in this epoch). Needed because an eager join could
    /// have matched the row's *old* value before the modify ran.
    original: Option<i64>,
    /// Whether the row's patch bit was set before staging (stale patches
    /// must survive the flush, as they do under eager maintenance).
    was_patch: bool,
    /// `(statement seq, value)` — the value the row held from that
    /// statement on; ascending in seq.
    entries: Vec<(u64, i64)>,
}

/// One staged update statement, in arrival order.
#[derive(Debug, Clone)]
enum PendingStmt {
    /// `(pid, rid, value)` of rows appended by one insert statement.
    Insert { rows: Vec<(usize, u64, i64)> },
    /// `(rid, value)` snapshots taken right after one modify statement.
    Modify { pid: usize, rows: Vec<(u64, i64)> },
}

/// The per-index dirty set of deferred maintenance.
#[derive(Debug, Clone)]
pub(crate) struct PendingMaintenance {
    /// Per-partition staged rows with their value histories.
    rows: Vec<HashMap<u64, RowHistory>>,
    /// Pre-modify snapshots recorded by `stage_modify_pre`, consumed by
    /// `stage_modify` for rows touched the first time.
    pre: HashMap<(usize, u64), (i64, bool)>,
    /// Statement log (drives NSC/NCC replay and NUC statement ordering).
    stmts: Vec<PendingStmt>,
    /// Total staged row-events (the auto-flush trigger counts these).
    staged_rows: usize,
}

impl PendingMaintenance {
    fn new(partitions: usize) -> Self {
        PendingMaintenance {
            rows: (0..partitions).map(|_| HashMap::new()).collect(),
            pre: HashMap::new(),
            stmts: Vec::new(),
            staged_rows: 0,
        }
    }
}

impl PatchIndex {
    fn pending_mut(&mut self) -> &mut PendingMaintenance {
        let partitions = self.partition_count();
        self.pending
            .get_or_insert_with(|| PendingMaintenance::new(partitions))
    }

    /// Whether deferred maintenance work is staged.
    pub fn has_pending(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| !p.stmts.is_empty())
    }

    /// Number of staged row-events awaiting a flush.
    pub fn pending_rows(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| p.staged_rows)
    }

    /// Stages an insert statement instead of maintaining eagerly: the
    /// stores grow to cover the appended rows immediately (so rowID spaces
    /// stay aligned) and the new rows are conservatively marked as patches;
    /// the collision join / LIS extension is deferred to
    /// [`PatchIndex::flush`]. Must run directly after `table.insert_rows`.
    pub fn stage_insert(&mut self, table: &Table, inserted: &[RowAddr]) {
        if inserted.is_empty() {
            return;
        }
        let col = self.column();
        let mut per_part: Vec<Vec<usize>> = vec![Vec::new(); table.partition_count()];
        for addr in inserted {
            per_part[addr.partition].push(addr.rid);
        }
        self.cover_inserted(table, &per_part);
        let pending = self.pending_mut();
        let seq = pending.stmts.len() as u64;
        let mut stmt_rows: Vec<(usize, u64, i64)> = Vec::with_capacity(inserted.len());
        for (pid, rids) in per_part.iter().enumerate() {
            if rids.is_empty() {
                continue;
            }
            let values = gather_values(table.partition(pid), col, rids);
            for (&rid, &v) in rids.iter().zip(&values) {
                let rid = rid as u64;
                stmt_rows.push((pid, rid, v));
                pending.rows[pid].insert(
                    rid,
                    RowHistory {
                        original: None,
                        was_patch: false,
                        entries: vec![(seq, v)],
                    },
                );
            }
        }
        pending.stmts.push(PendingStmt::Insert { rows: stmt_rows });
        pending.staged_rows += inserted.len();
        // Staged row-events count as maintained at stage time; the flush
        // only merges the already-counted work.
        self.note_maintained(inserted.len() as u64);
        // Conservative routing: pending rows flow as exceptions until the
        // flush decides their fate.
        for (pid, rids) in per_part.iter().enumerate() {
            if !rids.is_empty() {
                let staged: Vec<u64> = rids.iter().map(|&r| r as u64).collect();
                self.partition_mut(pid).store.add_patches(&staged);
            }
        }
    }

    /// First half of staging a modify: must run **before** `table.modify`,
    /// to snapshot the old value (and patch-bit state) of rows touched for
    /// the first time in this epoch.
    pub fn stage_modify_pre(&mut self, table: &Table, pid: usize, rids: &[usize]) {
        let col = self.column();
        let fresh: Vec<usize> = {
            let pending = self.pending_mut();
            rids.iter()
                .copied()
                .filter(|&r| {
                    !pending.rows[pid].contains_key(&(r as u64))
                        && !pending.pre.contains_key(&(pid, r as u64))
                })
                .collect()
        };
        if fresh.is_empty() {
            return;
        }
        let old_values = gather_values(table.partition(pid), col, &fresh);
        let was_patch: Vec<bool> = fresh
            .iter()
            .map(|&r| self.partition(pid).store.contains(r as u64))
            .collect();
        let pending = self.pending_mut();
        for ((&rid, &old), &was) in fresh.iter().zip(&old_values).zip(&was_patch) {
            pending.pre.insert((pid, rid as u64), (old, was));
        }
    }

    /// Second half of staging a modify: must run **after** `table.modify`
    /// (and after [`PatchIndex::stage_modify_pre`]); snapshots the new
    /// values and conservatively marks the rows as patches.
    pub fn stage_modify(&mut self, table: &Table, pid: usize, rids: &[usize]) {
        if rids.is_empty() {
            return;
        }
        let col = self.column();
        let values = gather_values(table.partition(pid), col, rids);
        let pending = self.pending_mut();
        let seq = pending.stmts.len() as u64;
        let mut stmt_rows: Vec<(u64, i64)> = Vec::with_capacity(rids.len());
        for (&rid, &v) in rids.iter().zip(&values) {
            let rid = rid as u64;
            let pre = &mut pending.pre;
            let hist = pending.rows[pid].entry(rid).or_insert_with(|| {
                let (original, was_patch) = pre
                    .remove(&(pid, rid))
                    .expect("stage_modify_pre must run (before table.modify) for new rows");
                RowHistory {
                    original: Some(original),
                    was_patch,
                    entries: Vec::new(),
                }
            });
            // A rowID repeated within one statement (last-wins, and the
            // values were gathered post-statement) must not create a
            // second same-seq history entry — it would invert intervals.
            if hist.entries.last().is_some_and(|&(s, _)| s == seq) {
                continue;
            }
            stmt_rows.push((rid, v));
            hist.entries.push((seq, v));
        }
        pending.stmts.push(PendingStmt::Modify {
            pid,
            rows: stmt_rows,
        });
        pending.staged_rows += rids.len();
        self.note_maintained(rids.len() as u64);
        let staged: Vec<u64> = rids.iter().map(|&r| r as u64).collect();
        self.partition_mut(pid).store.add_patches(&staged);
    }

    /// Runs all staged maintenance in one merged round and clears the
    /// dirty set. No-op when nothing is pending.
    pub fn flush(&mut self, table: &mut Table) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        if pending.stmts.is_empty() {
            return;
        }
        match self.constraint() {
            Constraint::NearlyUnique => self.flush_nuc(table, pending),
            Constraint::NearlySorted(dir) => self.flush_nsc(pending, dir),
            Constraint::NearlyConstant => self.flush_ncc(pending),
        }
    }

    /// NUC flush: one merged collision join (build side hashed once,
    /// partition probes in parallel) plus the pending-vs-pending interval
    /// sweep; see the module docs for why this reproduces eager results.
    fn flush_nuc(&mut self, table: &mut Table, pending: PendingMaintenance) {
        // Sorted pending rowIDs per partition — the probe-side filter.
        let dirty: Vec<Vec<u64>> = pending
            .rows
            .iter()
            .map(|m| {
                let mut v: Vec<u64> = m.keys().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        // Build side: every distinct historical (pid, rid, value) a
        // pending row exposed to some eager-visible statement.
        let mut entries: Vec<(usize, u64, i64)> = Vec::new();
        for (pid, rows) in pending.rows.iter().enumerate() {
            for (&rid, hist) in rows {
                // Distinct values only; sort+dedup keeps a hot row with a
                // long history O(k log k).
                let mut values: Vec<i64> = hist.entries.iter().map(|&(_, v)| v).collect();
                values.sort_unstable();
                values.dedup();
                entries.extend(values.into_iter().map(|v| (pid, rid, v)));
            }
        }
        let build_batch = build_changed_batch_from(&entries);
        let mut genuine: HashSet<(usize, u64)> = self
            .collision_round(table, build_batch, Some(&dirty))
            .into_iter()
            .collect();
        pending_cross_collisions(&pending.rows, &mut genuine);
        self.release_clean_staged(&pending, |pid, rid| genuine.contains(&(pid, rid)));
    }

    /// NSC flush: modify-staged rows become patches; all pending inserted
    /// values run through **one** LIS extension per partition.
    fn flush_nsc(&mut self, pending: PendingMaintenance, dir: SortDir) {
        let partitions = self.partition_count();
        let mut inserts: Vec<Vec<(u64, i64)>> = vec![Vec::new(); partitions];
        let mut genuine: Vec<HashSet<u64>> = vec![HashSet::new(); partitions];
        for stmt in &pending.stmts {
            match stmt {
                PendingStmt::Insert { rows } => {
                    for &(pid, rid, v) in rows {
                        inserts[pid].push((rid, v));
                    }
                }
                PendingStmt::Modify { pid, rows } => {
                    genuine[*pid].extend(rows.iter().map(|&(rid, _)| rid));
                }
            }
        }
        for (pid, ins) in inserts.iter().enumerate() {
            if ins.is_empty() {
                continue;
            }
            let values: Vec<i64> = ins.iter().map(|&(_, v)| v).collect();
            let part = self.partition_mut(pid);
            let (keep, last) = extend_sorted_run(&values, part.last_sorted, dir);
            if last.is_some() {
                part.last_sorted = last;
            }
            for (i, &(rid, _)) in ins.iter().enumerate() {
                if !keep.contains(&i) {
                    genuine[pid].insert(rid);
                }
            }
        }
        self.release_clean_staged(&pending, |pid, rid| genuine[pid].contains(&rid));
    }

    /// NCC flush: replays the statement log in order (constant adoption on
    /// first insert into an empty partition is order-sensitive); values
    /// are statement-time snapshots, so results match eager exactly.
    fn flush_ncc(&mut self, pending: PendingMaintenance) {
        let mut genuine: Vec<HashSet<u64>> = vec![HashSet::new(); self.partition_count()];
        for stmt in &pending.stmts {
            match stmt {
                PendingStmt::Insert { rows } => {
                    for &(pid, rid, v) in rows {
                        let part = self.partition_mut(pid);
                        let constant = *part.last_sorted.get_or_insert(v);
                        if v != constant {
                            genuine[pid].insert(rid);
                        }
                    }
                }
                PendingStmt::Modify { pid, rows } => {
                    let constant = self.partition(*pid).last_sorted;
                    for &(rid, v) in rows {
                        if constant != Some(v) {
                            genuine[*pid].insert(rid);
                        }
                    }
                }
            }
        }
        self.release_clean_staged(&pending, |pid, rid| genuine[pid].contains(&rid));
    }

    /// Removes the conservative patch bit of every staged row that the
    /// flush did not confirm as a genuine exception — unless the bit
    /// predated staging (eager maintenance never un-patches either).
    fn release_clean_staged<F: Fn(usize, u64) -> bool>(
        &mut self,
        pending: &PendingMaintenance,
        genuine: F,
    ) {
        for (pid, rows) in pending.rows.iter().enumerate() {
            let mut clear: Vec<u64> = rows
                .iter()
                .filter(|(&rid, hist)| !hist.was_patch && !genuine(pid, rid))
                .map(|(&rid, _)| rid)
                .collect();
            if !clear.is_empty() {
                clear.sort_unstable();
                self.partition_mut(pid).store.remove_patches(&clear);
            }
        }
    }
}

/// Pending-vs-pending NUC collisions: a sweep over per-value timelines.
///
/// Each pending row contributes one interval per value it held:
/// `original` values start "before time" (they can only be *collided
/// into*, never trigger — two untouched duplicates were patched at index
/// creation, not by update maintenance), entry values start at their
/// statement. Two rows collide exactly when a real statement start falls
/// inside another row's interval of the same value — then *all* rows
/// holding the value at that moment are patched, matching what the eager
/// per-statement join would have produced.
fn pending_cross_collisions(
    rows: &[HashMap<u64, RowHistory>],
    genuine: &mut HashSet<(usize, u64)>,
) {
    struct Interval {
        pid: usize,
        rid: u64,
        /// `2 * (seq + 1)` for statement starts, `0` for original values.
        start_key: u64,
        /// `2 * end_seq + 1` (sorts before same-seq starts), `u64::MAX`
        /// when the value is still current.
        end_key: u64,
    }
    let mut by_value: HashMap<i64, Vec<Interval>> = HashMap::new();
    for (pid, map) in rows.iter().enumerate() {
        for (&rid, hist) in map {
            debug_assert!(!hist.entries.is_empty(), "staged row without value entries");
            if let (Some(orig), Some(&(first_seq, _))) = (hist.original, hist.entries.first()) {
                by_value.entry(orig).or_default().push(Interval {
                    pid,
                    rid,
                    start_key: 0,
                    end_key: 2 * first_seq + 1,
                });
            }
            for (i, &(seq, v)) in hist.entries.iter().enumerate() {
                let end_key = match hist.entries.get(i + 1) {
                    Some(&(next_seq, _)) => 2 * next_seq + 1,
                    None => u64::MAX,
                };
                by_value.entry(v).or_default().push(Interval {
                    pid,
                    rid,
                    start_key: 2 * (seq + 1),
                    end_key,
                });
            }
        }
    }
    for intervals in by_value.values() {
        if intervals.len() < 2 {
            continue;
        }
        // Events: (key, is_start, interval). Ends sort before starts at
        // the same key (false < true), so a value released and re-acquired
        // within one statement never self-collides.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(intervals.len() * 2);
        for (i, iv) in intervals.iter().enumerate() {
            events.push((iv.start_key, true, i));
            if iv.end_key != u64::MAX {
                events.push((iv.end_key, false, i));
            }
        }
        events.sort_unstable();
        let mut alive = vec![false; intervals.len()];
        let mut total_active = 0usize;
        // Active intervals whose row is not yet patched (lazily pruned).
        let mut unpatched: Vec<usize> = Vec::new();
        for (key, is_start, i) in events {
            let iv = &intervals[i];
            if !is_start {
                alive[i] = false;
                total_active -= 1;
                continue;
            }
            let real_statement = key > 0;
            if real_statement && total_active > 0 {
                genuine.insert((iv.pid, iv.rid));
                for j in unpatched.drain(..) {
                    if alive[j] {
                        genuine.insert((intervals[j].pid, intervals[j].rid));
                    }
                }
            }
            alive[i] = true;
            total_active += 1;
            if !genuine.contains(&(iv.pid, iv.rid)) {
                unpatched.push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(original: Option<i64>, entries: Vec<(u64, i64)>) -> RowHistory {
        RowHistory {
            original,
            was_patch: false,
            entries,
        }
    }

    fn sweep(rows: Vec<HashMap<u64, RowHistory>>) -> Vec<(usize, u64)> {
        let mut genuine = HashSet::new();
        pending_cross_collisions(&rows, &mut genuine);
        let mut v: Vec<(usize, u64)> = genuine.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn simultaneous_inserts_of_same_value_collide() {
        let mut m = HashMap::new();
        m.insert(0u64, hist(None, vec![(0, 7)]));
        m.insert(1u64, hist(None, vec![(0, 7)]));
        assert_eq!(sweep(vec![m]), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn later_insert_collides_with_held_value_across_partitions() {
        let mut p0 = HashMap::new();
        p0.insert(0u64, hist(None, vec![(0, 7)]));
        let mut p1 = HashMap::new();
        p1.insert(5u64, hist(None, vec![(2, 7)]));
        assert_eq!(sweep(vec![p0, p1]), vec![(0, 0), (1, 5)]);
    }

    #[test]
    fn value_moved_away_before_second_insert_does_not_collide() {
        // Row 0: inserts 7 at seq 0, modified to 8 at seq 1.
        // Row 1: inserts 7 at seq 2 — row 0 no longer holds 7.
        let mut m = HashMap::new();
        m.insert(0u64, hist(None, vec![(0, 7), (1, 8)]));
        m.insert(1u64, hist(None, vec![(2, 7)]));
        assert!(sweep(vec![m]).is_empty());
    }

    #[test]
    fn original_value_is_collided_into_but_never_triggers() {
        // Row 0 originally held 7 (first touched at seq 5, moving it to 9).
        // Row 1 inserts 7 at seq 1 — while row 0 still held it: collide.
        let mut m = HashMap::new();
        m.insert(0u64, hist(Some(7), vec![(5, 9)]));
        m.insert(1u64, hist(None, vec![(1, 7)]));
        assert_eq!(sweep(vec![m]), vec![(0, 0), (0, 1)]);

        // Two rows merely sharing an original value never collide here —
        // they were patched at index creation, not by maintenance.
        let mut m = HashMap::new();
        m.insert(0u64, hist(Some(7), vec![(3, 1)]));
        m.insert(1u64, hist(Some(7), vec![(4, 2)]));
        assert!(sweep(vec![m]).is_empty());
    }

    #[test]
    fn release_and_reacquire_within_one_statement_does_not_self_collide() {
        // Row 0 holds 7 until seq 2, row 1 acquires 7 at seq 2: the end
        // sorts first, so no overlap — matches the eager join, which sees
        // the post-statement state.
        let mut m = HashMap::new();
        m.insert(0u64, hist(None, vec![(0, 7), (2, 8)]));
        m.insert(1u64, hist(None, vec![(2, 7)]));
        assert!(sweep(vec![m]).is_empty());
    }

    #[test]
    fn transient_overlap_detected() {
        // Row 0 holds 7 over [0, 3); row 1 acquires 7 at seq 1 and leaves
        // at seq 2 — overlap with a real start: both patched, even though
        // neither holds 7 at flush time.
        let mut m = HashMap::new();
        m.insert(0u64, hist(None, vec![(0, 7), (3, 1)]));
        m.insert(1u64, hist(None, vec![(1, 7), (2, 2)]));
        assert_eq!(sweep(vec![m]), vec![(0, 0), (0, 1)]);
    }
}
