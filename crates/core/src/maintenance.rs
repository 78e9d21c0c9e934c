//! Update handling: maintaining the patch sets under table inserts,
//! modifies and deletes without index recomputation or full table scans
//! (paper, Section 5 / Table 1).
//!
//! | constraint | insert | modify | delete |
//! |---|---|---|---|
//! | NUC | join inserted tuples with the table (dynamic range propagation), merge colliding rowIDs into the patches | like insert, over the modified tuples | drop tracking info |
//! | NSC | extend the existing sorted subsequence with a longest sorted subsequence of the inserted values | merge all modified rowIDs into the patches | drop tracking info |
//!
//! The NUC collision join hashes the changed tuples **once** into a
//! shared [`JoinTable`] and probes every partition with it, fanned out
//! over all cores. Each probe scans only what *dynamic range propagation*
//! leaves (paper, Section 5: "dynamically generates scan ranges during
//! query execution, e.g. during the build phase of HashJoins"): the
//! `[min, max]` envelope of the build keys prunes the partition's scan
//! through its zone map to the blocks that can hold a join partner
//! (Figure 5; see [`drp_ranges`] for the partitions it cannot prune).
//! The probe workers only *find* collisions and return them; the writer
//! thread — the one mutator an index version has (paper, Section 5.4;
//! see [`crate::snapshot`]) — applies them to the patch stores, bitmap
//! and identifier design alike.
//!
//! A statement pays for the index state it changes, not for what it
//! leaves alone. The probe scans lent base windows and reads a match's
//! rowID off its window position, so a clean block is probed uncopied.
//! The [`JoinTable`] is built flat (a head per distinct key and one
//! chain array, no list per key) and probes each window's key slice:
//! its bit filter, 128 bits per changed key, passes under 1 % of the
//! rows that match nothing, so the map lookup runs on about one probed
//! row in a hundred. Maintenance keeps no statistic beside the patch sets:
//! the optimizer's catalog reads the stores' row and patch counts (see
//! [`crate::catalog`]).

use std::ops::Range;

use pi_exec::ops::hash_join::JoinTable;
use pi_exec::ops::scan::ScanOp;
use pi_exec::parallel::per_partition;
use pi_exec::Batch;
use pi_storage::{ColumnData, Partition, RowAddr, Table};

use crate::constraint::{Constraint, SortDir};
use crate::discovery::int_view;
use crate::index::PatchIndex;
use crate::lis;

/// Counters describing the maintenance work an index performed
/// (cumulative; preserved across [`PatchIndex::recompute`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Collision-join rounds executed: one per NUC insert/modify
    /// statement.
    pub collision_rounds: u64,
    /// How many times a build side was hashed: exactly one per round.
    pub build_invocations: u64,
    /// Partition probes executed across all rounds.
    pub probed_partitions: u64,
    /// Row-events this index maintained (inserted, modified or deleted
    /// rows handled) — the denominator of the advisor's drift rate and
    /// its maintenance-cost proxy.
    pub maintained_rows: u64,
}

/// Candidate row ranges for probing values in `env` — the receiving end
/// of dynamic range propagation (paper, Figure 5: "scanning the full
/// table is reduced to only the blocks that contain potential join
/// partners"): [`Partition::candidate_ranges`], zone-map pruning over
/// base data plus the full append buffer; the whole partition where that
/// cannot prune (pending shifts or modifies, a column that is not
/// int-backed); nothing for an empty build side.
#[allow(clippy::single_range_in_vec_init)]
pub fn drp_ranges(partition: &Partition, col: usize, env: Option<(i64, i64)>) -> Vec<Range<usize>> {
    let Some((lo, hi)) = env else {
        return Vec::new();
    };
    partition
        .candidate_ranges(col, lo, hi)
        .unwrap_or_else(|| vec![0..partition.visible_len()])
}

/// Materializes the `[value, pid, rid]` build batch of the collision join
/// from the changed `(partition, rowID)` set.
fn build_changed_batch(table: &Table, col: usize, changed: &[(usize, usize)]) -> Batch {
    let mut per_part: Vec<Vec<usize>> = vec![Vec::new(); table.partition_count()];
    for &(pid, rid) in changed {
        per_part[pid].push(rid);
    }
    let mut value_col: Option<ColumnData> = None;
    let mut pid_col: Vec<i64> = Vec::with_capacity(changed.len());
    let mut rid_col: Vec<i64> = Vec::with_capacity(changed.len());
    for (pid, rids) in per_part.iter().enumerate() {
        if rids.is_empty() {
            continue;
        }
        let vals = table.partition(pid).gather(&[col], rids).pop().unwrap();
        match &mut value_col {
            Some(acc) => acc.extend_from(&vals),
            None => value_col = Some(vals),
        }
        pid_col.extend(std::iter::repeat_n(pid as i64, rids.len()));
        rid_col.extend(rids.iter().map(|&r| r as i64));
    }
    Batch::new(vec![
        value_col.expect("changed set non-empty"),
        ColumnData::Int(pid_col),
        ColumnData::Int(rid_col),
    ])
}

/// Runs the NUC collision query of Figure 5 with a **build-once** shared
/// hash table: the `[value, pid, rid]` build batch is hashed exactly once,
/// then every partition is probed in parallel with its scan restricted by
/// dynamic range propagation. Collisions may cross partitions: an inserted
/// value can collide with a tuple in a different partition, whose local
/// patch set must then be extended too. Exact self-pairs (a changed tuple
/// matching itself) are dropped.
///
/// Returns the colliding rowIDs per partition — probe-side and build-side
/// hits merged, sorted and deduplicated. Each match is read where it
/// lies: the probe rowID from the scan window's position and the build
/// (partition, rowID) from the table's rows, at the positions
/// [`JoinTable::pairs`] names — the Reuse operator's effect (Figure 5)
/// without materializing the join result. The scan asks for no rowID
/// column, so clean base blocks are probed as lent windows, uncopied.
fn nuc_collision_probe(
    table: &Table,
    col: usize,
    build_batch: Batch,
    stats: &mut MaintenanceStats,
) -> Vec<Vec<u64>> {
    let shared = JoinTable::from_batch(build_batch, 0);
    stats.collision_rounds += 1;
    stats.build_invocations += 1;
    stats.probed_partitions += table.partition_count() as u64;
    let build_pids = shared.rows().column(1).as_int();
    let build_rids = shared.rows().column(2).as_int();
    let worker = |partition: &Partition| {
        let pid = partition.id;
        let ranges = drp_ranges(partition, col, shared.envelope());
        // One value can match thousands of already-patched rows, so each
        // worker deduplicates what it found before handing it back.
        let mut scan = ScanOp::with_ranges(partition, vec![col], ranges, false);
        let mut probe_hits: Vec<u64> = Vec::new();
        let mut build_hits: Vec<(usize, u64)> = Vec::new();
        while let Some((start, batch)) = scan.next_window() {
            let (probe_pos, build_pos) = shared.pairs(&batch, 0);
            // Row `start` of the partition sits at the first position of
            // the batch's span: a lent window's base offset, or 0.
            let first = batch.span().start;
            for (p, b) in probe_pos.into_iter().zip(build_pos) {
                let probe_rid = (start + p - first) as u64;
                let (b_pid, b_rid) = (build_pids[b] as usize, build_rids[b] as u64);
                if b_pid == pid && b_rid == probe_rid {
                    continue; // a changed tuple matching itself is benign
                }
                probe_hits.push(probe_rid);
                build_hits.push((b_pid, b_rid));
            }
        }
        probe_hits.sort_unstable();
        probe_hits.dedup();
        build_hits.sort_unstable();
        build_hits.dedup();
        (probe_hits, build_hits)
    };
    let (mut hits, build_hits): (Vec<Vec<u64>>, Vec<_>) =
        per_partition(table, worker).into_iter().unzip();
    for (pid, rid) in build_hits.into_iter().flatten() {
        hits[pid].push(rid);
    }
    for rids in &mut hits {
        rids.sort_unstable();
        rids.dedup();
    }
    hits
}

impl PatchIndex {
    /// The NUC collision round for the `changed` tuples of one statement:
    /// build batch hashed once, partition probes fanned out, and every
    /// colliding row — on either side of the join — merged into its
    /// partition's patch store.
    fn nuc_round(&mut self, table: &Table, changed: &[(usize, usize)]) {
        if changed.is_empty() {
            return;
        }
        let col = self.column();
        let build_batch = build_changed_batch(table, col, changed);
        let mut stats = self.maintenance_stats();
        let hits = nuc_collision_probe(table, col, build_batch, &mut stats);
        self.set_maintenance_stats(stats);
        for (pid, rids) in hits.iter().enumerate() {
            if !rids.is_empty() {
                self.partition_mut(pid).store.add_patches(rids);
            }
        }
    }

    /// Maintains the index after `table.insert_rows` returned `inserted`.
    ///
    /// NUC: bitmap resize + collision join with dynamic range propagation.
    /// NSC: extend the sorted subsequence with a longest sorted
    /// subsequence of the inserted values; the rest become patches. This
    /// may lose global optimality (paper's (1,2,10)+(3,4) example) but
    /// never correctness; the monitoring policy recomputes eventually.
    pub fn handle_insert(&mut self, table: &mut Table, inserted: &[RowAddr]) {
        self.note_maintained(inserted.len() as u64);
        let col = self.column();
        let constraint = self.constraint();
        // Group inserted rowIDs per partition.
        let mut per_part: Vec<Vec<usize>> = vec![Vec::new(); table.partition_count()];
        for addr in inserted {
            per_part[addr.partition].push(addr.rid);
        }
        // Step one: cover the appended rows in every partition's store.
        self.cover_inserted(table, &per_part);
        match constraint {
            Constraint::NearlyUnique => {
                let changed: Vec<(usize, usize)> =
                    inserted.iter().map(|a| (a.partition, a.rid)).collect();
                self.nuc_round(table, &changed);
            }
            Constraint::NearlySorted(dir) => {
                for (pid, rids) in per_part.iter().enumerate() {
                    if rids.is_empty() {
                        continue;
                    }
                    let values = gather_values(table.partition(pid), col, rids);
                    let part = self.partition_mut(pid);
                    let (keep, last) = extend_sorted_run(&values, part.last_sorted, dir);
                    if last.is_some() {
                        part.last_sorted = last;
                    }
                    part.store.add_patches(&unkept(rids, &keep));
                }
            }
            Constraint::NearlyConstant => {
                // Local view only: inserted values that differ from the
                // partition's constant become patches. An empty partition
                // adopts the first inserted value as its constant.
                for (pid, rids) in per_part.iter().enumerate() {
                    if rids.is_empty() {
                        continue;
                    }
                    let values = gather_values(table.partition(pid), col, rids);
                    let part = self.partition_mut(pid);
                    let constant = *part.last_sorted.get_or_insert(values[0]);
                    let patches: Vec<u64> = rids
                        .iter()
                        .zip(&values)
                        .filter(|(_, &v)| v != constant)
                        .map(|(&r, _)| r as u64)
                        .collect();
                    part.store.add_patches(&patches);
                }
            }
        }
    }

    /// Extends every partition store over freshly appended rows (insert
    /// handling step one).
    fn cover_inserted(&mut self, table: &Table, per_part: &[Vec<usize>]) {
        for (pid, rids) in per_part.iter().enumerate() {
            if rids.is_empty() {
                continue;
            }
            let visible = table.partition(pid).visible_len() as u64;
            let k = rids.len() as u64;
            let part = self.partition_mut(pid);
            assert_eq!(
                part.store.nrows() + k,
                visible,
                "insert handling must run directly after the insert"
            );
            part.store.extend_rows(k);
        }
    }

    /// Maintains the index after `table.modify` patched `col` values of
    /// `rids` in partition `pid`.
    ///
    /// NUC: same collision query as insert handling (paper, Section 5.2),
    /// without the bitmap resize. NSC: all modified tuples join the patch
    /// set — no query needed.
    pub fn handle_modify(&mut self, table: &mut Table, pid: usize, rids: &[usize]) {
        if rids.is_empty() {
            return;
        }
        self.note_maintained(rids.len() as u64);
        let col = self.column();
        match self.constraint() {
            Constraint::NearlyUnique => {
                let changed: Vec<(usize, usize)> = rids.iter().map(|&r| (pid, r)).collect();
                self.nuc_round(table, &changed);
            }
            Constraint::NearlySorted(_) => {
                let patches: Vec<u64> = rids.iter().map(|&r| r as u64).collect();
                self.partition_mut(pid).store.add_patches(&patches);
            }
            Constraint::NearlyConstant => {
                // Modified values keep the constraint only if they still
                // equal the constant.
                let values = gather_values(table.partition(pid), col, rids);
                let part = self.partition_mut(pid);
                let patches: Vec<u64> = match part.last_sorted {
                    Some(c) => rids
                        .iter()
                        .zip(&values)
                        .filter(|(_, &v)| v != c)
                        .map(|(&r, _)| r as u64)
                        .collect(),
                    None => rids.iter().map(|&r| r as u64).collect(),
                };
                part.store.add_patches(&patches);
            }
        }
    }

    /// Maintains the index for a delete of `rids` (the same pre-delete
    /// rowIDs passed to `table.delete`). Tracking information about the
    /// deleted tuples is dropped; subsequent rowIDs shift down via the
    /// sharded bitmap's bulk delete / identifier decrementing (paper,
    /// Section 5.3).
    pub fn handle_delete(&mut self, pid: usize, rids: &[usize]) {
        self.note_maintained(rids.len() as u64);
        let deleted: Vec<u64> = rids.iter().map(|&r| r as u64).collect();
        self.partition_mut(pid).store.on_delete(&deleted);
    }
}

/// The values of `col` at the visible rows `rids`, as discovery reads
/// them ([`int_view`]).
pub(crate) fn gather_values(partition: &Partition, col: usize, rids: &[usize]) -> Vec<i64> {
    int_view(&partition.gather(&[col], rids)[0])
}

/// Chooses which of `values` (in insertion order) extend the existing
/// sorted run that currently ends at `last`. Returns the chosen indices,
/// ascending, and the new last value.
fn extend_sorted_run(values: &[i64], last: Option<i64>, dir: SortDir) -> (Vec<usize>, Option<i64>) {
    // Orient so the run is always non-decreasing.
    let orient = |v: i64| dir.orient(v);
    let anchor = last.map(orient);
    // Candidates must not precede the current anchor.
    let candidates: Vec<usize> = values
        .iter()
        .enumerate()
        .filter(|(_, &v)| anchor.is_none_or(|a| orient(v) >= a))
        .map(|(i, _)| i)
        .collect();
    let cand_values: Vec<i64> = candidates.iter().map(|&i| orient(values[i])).collect();
    let lis_local = lis::longest_nondecreasing_indices(&cand_values);
    let keep: Vec<usize> = lis_local.iter().map(|&j| candidates[j]).collect();
    let new_last = keep.last().map(|&i| values[i]);
    (keep, new_last)
}

/// The rowIDs of `rids` whose indices `keep` (ascending) does not name:
/// the runs of rowIDs between two kept ones.
fn unkept(rids: &[usize], keep: &[usize]) -> Vec<u64> {
    let mut out = Vec::with_capacity(rids.len() - keep.len());
    for run in lis::gaps(keep, rids.len()) {
        out.extend(rids[run].iter().map(|&r| r as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Design;
    use pi_exec::drain;
    use pi_storage::{DataType, Field, Partitioning, Schema, Value};

    fn table(vals: Vec<i64>, nparts: usize) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            nparts,
            Partitioning::RoundRobin,
        );
        for (i, chunk) in vals.chunks(vals.len().div_ceil(nparts)).enumerate() {
            let keys: Vec<i64> = (0..chunk.len() as i64).collect();
            t.load_partition(i, &[ColumnData::Int(keys), ColumnData::Int(chunk.to_vec())]);
        }
        t.propagate_all();
        t
    }

    fn row(k: i64, v: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(v)]
    }

    /// Reference for the shared-probe pipeline: the paper's collision query
    /// run one partition at a time, re-hashing the build batch for each —
    /// `O(partitions × changed)` hashing per statement — and gathering
    /// every joined row with [`JoinTable::probe`].
    fn nuc_collisions_sequential(
        table: &Table,
        col: usize,
        build_batch: Batch,
        stats: &mut MaintenanceStats,
    ) -> Vec<(usize, usize)> {
        stats.collision_rounds += 1;
        let mut patches: Vec<(usize, usize)> = Vec::new();
        for pid in 0..table.partition_count() {
            let partition = table.partition(pid);
            let build = JoinTable::from_batch(build_batch.clone(), 0);
            stats.build_invocations += 1;
            stats.probed_partitions += 1;
            // The probe scan's ranges come from the build-key envelope
            // (dynamic range propagation).
            let ranges = drp_ranges(partition, col, build.envelope());
            let mut scan = ScanOp::with_ranges(partition, vec![col], ranges, true);
            let joined: Vec<Batch> = drain(&mut scan)
                .iter()
                .map(|batch| build.probe(batch, 0))
                .collect();
            // [probe value, probe rid, build value, build pid, build rid]
            let out = Batch::concat(&joined);
            if out.is_empty() {
                continue;
            }
            let probe_rids = out.column(1).as_int();
            let build_pids = out.column(3).as_int();
            let build_rids = out.column(4).as_int();
            for i in 0..out.len() {
                let probe_rid = probe_rids[i] as usize;
                let (b_pid, b_rid) = (build_pids[i] as usize, build_rids[i] as usize);
                if b_pid == pid && b_rid == probe_rid {
                    continue; // a changed tuple matching itself
                }
                patches.push((pid, probe_rid));
                patches.push((b_pid, b_rid));
            }
        }
        patches.sort_unstable();
        patches.dedup();
        patches
    }

    #[test]
    fn nuc_insert_collision_with_existing_value() {
        let mut t = table(vec![10, 20, 30, 40], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.exception_count(), 0);
        // Insert a duplicate of 20 and a fresh 50.
        let addrs = t.insert_rows(&[row(100, 20), row(101, 50)]);
        idx.handle_insert(&mut t, &addrs);
        // Old row 1 (value 20) and new row 4 become patches; 50 stays clean.
        assert_eq!(idx.partition(0).store.patch_rids(), vec![1, 4]);
        idx.check_consistency(&t);
    }

    #[test]
    fn nuc_insert_duplicates_within_inserts() {
        let mut t = table(vec![1, 2, 3], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Identifier);
        let addrs = t.insert_rows(&[row(10, 77), row(11, 77)]);
        idx.handle_insert(&mut t, &addrs);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![3, 4]);
        idx.check_consistency(&t);
    }

    #[test]
    fn nuc_insert_no_collision_adds_no_patches() {
        let mut t = table(vec![1, 2, 3], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        let addrs = t.insert_rows(&[row(10, 100)]);
        idx.handle_insert(&mut t, &addrs);
        assert_eq!(idx.exception_count(), 0);
        assert_eq!(idx.nrows(), 4);
        idx.check_consistency(&t);
    }

    #[test]
    fn nsc_insert_extends_sorted_run() {
        let mut t = table(vec![1, 2, 3, 10], 1);
        let mut idx = PatchIndex::create(
            &t,
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        assert_eq!(idx.partition(0).last_sorted, Some(10));
        // 12 and 15 extend; 11 after 12? 11 < 12 so LIS keeps 12,15 or
        // 11,15 — longest is (12, 15) or (11, 15): both length 2.
        let addrs = t.insert_rows(&[row(20, 12), row(21, 5), row(22, 15)]);
        idx.handle_insert(&mut t, &addrs);
        // 5 < last_sorted(10): always a patch.
        assert!(idx.partition(0).store.contains(5));
        assert_eq!(idx.partition(0).store.patch_count(), 1);
        assert_eq!(idx.partition(0).last_sorted, Some(15));
        idx.check_consistency(&t);
    }

    #[test]
    fn nsc_insert_loses_optimality_but_not_correctness() {
        // The paper's example: values (1,2,10) + inserts (3,4): the global
        // LIS would keep 1,2,3,4 but the local extension keeps 10 and
        // patches 3,4.
        let mut t = table(vec![1, 2, 10], 1);
        let mut idx = PatchIndex::create(
            &t,
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
        let addrs = t.insert_rows(&[row(20, 3), row(21, 4)]);
        idx.handle_insert(&mut t, &addrs);
        assert_eq!(idx.exception_count(), 2);
        idx.check_consistency(&t); // still sorted when excluding patches
    }

    #[test]
    fn nsc_descending_insert() {
        let mut t = table(vec![9, 8, 7], 1);
        let mut idx = PatchIndex::create(
            &t,
            1,
            Constraint::NearlySorted(SortDir::Desc),
            Design::Bitmap,
        );
        let addrs = t.insert_rows(&[row(20, 6), row(21, 7), row(22, 3)]);
        idx.handle_insert(&mut t, &addrs);
        // Run ends at 7; both (6,3) and (7,3) are maximal non-increasing
        // extensions — exactly one of the three inserts becomes a patch.
        assert_eq!(idx.partition(0).store.patch_count(), 1);
        assert_eq!(idx.partition(0).last_sorted, Some(3));
        idx.check_consistency(&t);
    }

    #[test]
    fn modify_nuc_runs_collision_query() {
        let mut t = table(vec![1, 2, 3, 4], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        t.modify(0, &[3], 1, &[Value::Int(2)]); // 4 -> 2 collides with row 1
        idx.handle_modify(&mut t, 0, &[3]);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![1, 3]);
        idx.check_consistency(&t);
    }

    #[test]
    fn modify_nsc_patches_modified_rows() {
        let mut t = table(vec![1, 2, 3, 4], 1);
        let mut idx = PatchIndex::create(
            &t,
            1,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        t.modify(0, &[1], 1, &[Value::Int(100)]);
        idx.handle_modify(&mut t, 0, &[1]);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![1]);
        idx.check_consistency(&t);
    }

    #[test]
    fn delete_drops_tracking_info_and_shifts() {
        let mut t = table(vec![1, 5, 5, 9], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![1, 2]);
        // Delete rows 0 and 2 (one of the duplicates).
        t.delete(0, &[0, 2]);
        idx.handle_delete(0, &[0, 2]);
        // Remaining rows: old 1 (value 5, patch, now rid 0), old 3 (9, rid 1).
        assert_eq!(idx.partition(0).store.patch_rids(), vec![0]);
        assert_eq!(idx.nrows(), 2);
        // The lone 5 stays a patch (lost optimality, still correct).
        idx.check_consistency(&t);
    }

    #[test]
    fn multi_partition_insert_routes_maintenance() {
        let mut t = table((0..40).collect(), 4);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        let addrs = t.insert_rows(&[row(100, 3), row(101, 999)]);
        idx.handle_insert(&mut t, &addrs);
        // Value 3 collides in whichever partition holds it.
        assert_eq!(idx.exception_count(), 2);
        idx.check_consistency(&t);
    }

    #[test]
    fn ncc_insert_and_modify() {
        let mut t = table(vec![4, 4, 4, 9, 4], 1);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyConstant, Design::Bitmap);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![3]);
        assert_eq!(idx.partition(0).last_sorted, Some(4));
        // Insert one conforming and one deviating value.
        let addrs = t.insert_rows(&[row(10, 4), row(11, 7)]);
        idx.handle_insert(&mut t, &addrs);
        assert_eq!(idx.partition(0).store.patch_rids(), vec![3, 6]);
        idx.check_consistency(&t);
        // Modify a conforming row away from the constant.
        t.modify(0, &[0], 1, &[Value::Int(-1)]);
        idx.handle_modify(&mut t, 0, &[0]);
        assert!(idx.partition(0).store.contains(0));
        idx.check_consistency(&t);
        // Deletes drop tracking info like the other constraints.
        t.delete(0, &[3]);
        idx.handle_delete(0, &[3]);
        idx.check_consistency(&t);
    }

    #[test]
    fn extend_sorted_run_unit() {
        let (keep, last) = extend_sorted_run(&[12, 5, 15], Some(10), SortDir::Asc);
        assert!(keep.contains(&0) && keep.contains(&2) && !keep.contains(&1));
        assert_eq!(last, Some(15));
        let (keep, last) = extend_sorted_run(&[1, 2, 3], None, SortDir::Asc);
        assert_eq!(keep.len(), 3);
        assert_eq!(last, Some(3));
        let (keep, last) = extend_sorted_run(&[], Some(4), SortDir::Asc);
        assert!(keep.is_empty());
        assert_eq!(last, None);
        // Descending: nothing follows i64::MIN but another i64::MIN.
        let (keep, last) = extend_sorted_run(&[3, i64::MIN], Some(i64::MIN), SortDir::Desc);
        assert!(!keep.contains(&0) && keep.contains(&1));
        assert_eq!(last, Some(i64::MIN));

        // Random cases against the kept-index-set formulation: a
        // `BTreeSet` of kept indices, the patches as the rowIDs whose index
        // it does not contain, and the last value its greatest index holds.
        fn reference(
            values: &[i64],
            last: Option<i64>,
            dir: SortDir,
            rids: &[usize],
        ) -> (Vec<usize>, Vec<u64>, Option<i64>) {
            let orient = |v: i64| dir.orient(v);
            let anchor = last.map(orient);
            let candidates: Vec<usize> = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| anchor.is_none_or(|a| orient(v) >= a))
                .map(|(i, _)| i)
                .collect();
            let cand_values: Vec<i64> = candidates.iter().map(|&i| orient(values[i])).collect();
            let keep: std::collections::BTreeSet<usize> =
                lis::longest_nondecreasing_indices(&cand_values)
                    .iter()
                    .map(|&j| candidates[j])
                    .collect();
            let patches = rids
                .iter()
                .enumerate()
                .filter(|(i, _)| !keep.contains(i))
                .map(|(_, &r)| r as u64)
                .collect();
            let new_last = keep.iter().next_back().map(|&i| values[i]);
            (keep.into_iter().collect(), patches, new_last)
        }
        let mut seeds = Seeds(52);
        for case in 0..2000 {
            let n = seeds.below(40);
            let mut values = seeds.values(n, 32);
            for v in &mut values {
                match seeds.below(8) {
                    0 => *v = i64::MIN,
                    1 => *v = i64::MAX,
                    _ => {}
                }
            }
            let anchor = match case % 4 {
                0 => None,
                1 => Some(i64::MIN),
                2 => Some(i64::MAX),
                _ => Some(seeds.below(48) as i64),
            };
            let dir = [SortDir::Asc, SortDir::Desc][case / 4 % 2];
            let mut rid = seeds.below(100);
            let rids: Vec<usize> = (0..n)
                .map(|_| {
                    rid += 1 + seeds.below(3);
                    rid
                })
                .collect();
            let (keep, last) = extend_sorted_run(&values, anchor, dir);
            let got = (keep.clone(), unkept(&rids, &keep), last);
            assert_eq!(
                got,
                reference(&values, anchor, dir, &rids),
                "case {case}: {values:?} after {anchor:?} {dir:?}"
            );
        }
    }

    /// splitmix64: a deterministic stream of case inputs.
    struct Seeds(u64);

    impl Seeds {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A small (1–63 rows) or a large (64 rows to below `max`)
        /// statement size, as `large` says.
        fn size(&mut self, large: bool, max: usize) -> usize {
            match large {
                false => 1 + self.below(63),
                true => 64 + self.below(max - 64),
            }
        }

        /// `n` values from a window of `n` values at a random offset below
        /// `span`: the statement repeats some of them, and the window
        /// overlaps the table's even values or lies beyond them.
        fn values(&mut self, n: usize, span: usize) -> Vec<i64> {
            let lo = self.below(span);
            (0..n).map(|_| (lo + self.below(n)) as i64).collect()
        }
    }

    /// Acceptance guard of the build-once pipeline, over random
    /// statements: one insert and one modify per case, each hashing the
    /// build side exactly once — the sequential reference pays once per
    /// partition — and leaving the same patch sets as the reference, for
    /// small (1–63 rows) and large (64 rows and up) statements alike. An
    /// insert spreads its values round-robin over the four partitions, so
    /// a value it repeats collides across partitions; a modify's values
    /// can collide with any partition. A partition spans more than one
    /// scan batch, and some cases first leave a base delete or a base
    /// modify of the other column pending in one partition: its first
    /// batch is then copied, and its second is a window whose first row
    /// is not row 0 of its backing.
    #[test]
    fn shared_probe_hashes_build_side_exactly_once() {
        const PARTS: usize = 4;
        const ROWS: usize = pi_exec::BATCH_SIZE + 100;
        const STMT: usize = 200;
        // Statement values lie over the whole table and a little beyond.
        const SPAN: usize = 2 * PARTS * ROWS + STMT;
        let mut patched = 0;
        for case in 0..16u64 {
            let mut seeds = Seeds(case);
            let design = [Design::Bitmap, Design::Identifier][case as usize % 2];
            // Unique even values, so every collision comes from a statement.
            let vals: Vec<i64> = (0..(PARTS * ROWS) as i64).map(|v| 2 * v).collect();
            let mut shared_t = table(vals.clone(), PARTS);
            let mut seq_t = table(vals, PARTS);
            let mut shared_idx = PatchIndex::create(&shared_t, 1, Constraint::NearlyUnique, design);
            let mut seq_idx = PatchIndex::create(&seq_t, 1, Constraint::NearlyUnique, design);
            let pending = seeds.below(PARTS);
            let rids = [3, 40, 41, 97];
            for (t, idx) in [(&mut shared_t, &mut shared_idx), (&mut seq_t, &mut seq_idx)] {
                match case % 3 {
                    1 => {
                        idx.handle_delete(pending, &rids);
                        t.delete(pending, &rids);
                    }
                    2 => t.modify(pending, &rids, 0, &vec![Value::Int(-1); 4]),
                    _ => {}
                }
            }
            let mut seq_stats = MaintenanceStats::default();
            let mut reference = |t: &Table, idx: &mut PatchIndex, changed: &[(usize, usize)]| {
                let batch = build_changed_batch(t, 1, changed);
                for (pid, rid) in nuc_collisions_sequential(t, 1, batch, &mut seq_stats) {
                    idx.partition_mut(pid).store.add_patches(&[rid as u64]);
                }
            };

            let n = seeds.size(case & 2 != 0, STMT);
            let rows: Vec<Vec<Value>> = seeds
                .values(n, SPAN)
                .into_iter()
                .enumerate()
                .map(|(i, v)| row(1000 + i as i64, v))
                .collect();
            let a1 = shared_t.insert_rows(&rows);
            shared_idx.handle_insert(&mut shared_t, &a1);
            let a2 = seq_t.insert_rows(&rows);
            let mut per_part: Vec<Vec<usize>> = vec![Vec::new(); PARTS];
            for a in &a2 {
                per_part[a.partition].push(a.rid);
            }
            seq_idx.cover_inserted(&seq_t, &per_part);
            let changed: Vec<(usize, usize)> = a2.iter().map(|a| (a.partition, a.rid)).collect();
            reference(&seq_t, &mut seq_idx, &changed);
            shared_idx.check_consistency(&shared_t);

            let pid = seeds.below(PARTS);
            // Rows below `ROWS − 4` are visible whatever the delete took.
            let rows = ROWS - 4;
            let n = seeds.size(case & 4 != 0, STMT / 2);
            let mut rids: Vec<usize> = (0..rows).collect();
            for i in 0..n {
                rids.swap(i, i + seeds.below(rows - i));
            }
            rids.truncate(n);
            rids.sort_unstable();
            let values: Vec<Value> = seeds.values(n, SPAN).into_iter().map(Value::Int).collect();
            shared_t.modify(pid, &rids, 1, &values);
            shared_idx.handle_modify(&mut shared_t, pid, &rids);
            seq_t.modify(pid, &rids, 1, &values);
            let changed: Vec<(usize, usize)> = rids.iter().map(|&r| (pid, r)).collect();
            reference(&seq_t, &mut seq_idx, &changed);

            let shared_stats = shared_idx.maintenance_stats();
            assert_eq!(shared_stats.collision_rounds, 2);
            assert_eq!(
                shared_stats.build_invocations, 2,
                "build hashed once per round"
            );
            assert_eq!(shared_stats.probed_partitions, 2 * PARTS as u64);

            assert_eq!(seq_stats.collision_rounds, 2);
            assert_eq!(
                seq_stats.build_invocations,
                2 * PARTS as u64,
                "reference rebuilds per partition"
            );

            for pid in 0..PARTS {
                assert_eq!(
                    shared_idx.partition(pid).store.patch_rids(),
                    seq_idx.partition(pid).store.patch_rids(),
                    "case {case}, design {design:?}, partition {pid}"
                );
            }
            patched += shared_idx.exception_count();
            shared_idx.check_consistency(&shared_t);
        }
        assert!(patched > 0, "no case collided: a weak test");
    }

    /// Modify rounds go through the same shared pipeline.
    #[test]
    fn shared_probe_counts_modify_rounds() {
        let mut t = table((0..20).collect(), 2);
        let mut idx = PatchIndex::create(&t, 1, Constraint::NearlyUnique, Design::Bitmap);
        t.modify(0, &[0], 1, &[Value::Int(11)]); // collides with 11 (partition 1)
        idx.handle_modify(&mut t, 0, &[0]);
        let stats = idx.maintenance_stats();
        assert_eq!(stats.collision_rounds, 1);
        assert_eq!(stats.build_invocations, 1);
        assert_eq!(idx.exception_count(), 2);
        idx.check_consistency(&t);
    }
}
