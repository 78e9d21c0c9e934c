//! Constraint discovery: computing the patch set of a column (introduced in
//! the authors' earlier PatchIndex paper \[18\]; reproduced here because index
//! creation needs it).
//!
//! * **NUC** — the patch set holds *all* rowIDs of values occurring more
//!   than once in the column, in whichever partitions they lie. Excluding
//!   patches then leaves values that are unique across the table and
//!   disjoint from the patch values, which makes the distinct rewrite
//!   (`distinct(non-patches) ∪ distinct(patches)`, with no dedup across
//!   partitions) correct.
//! * **NSC** — the patch set is the complement of a longest sorted
//!   subsequence (Fredman's algorithm), the minimal set whose exclusion
//!   leaves the column sorted. Partition-local.
//! * **NCC** — the patch set holds every value but the most frequent one.
//!   Partition-local.
//!
//! [`discover`] is the one entry point over a table's partitions: index
//! create and recompute run it on every visible row, [`sampled_match`] on
//! a strided sample of the table, the estimate the advisor creates
//! indexes from.

use pi_exec::parallel::{fan_out, tasks_for};
use pi_storage::{ColumnData, DataType, Partition, Table};

use crate::constraint::{Constraint, SortDir};
use crate::lis;

/// Extracts an `i64` view of a column for discovery and maintenance: ints
/// directly, strings by dictionary code (code equality ⇔ string equality).
pub(crate) fn int_view(col: &ColumnData) -> Vec<i64> {
    match col {
        ColumnData::Int(v) => v.clone(),
        ColumnData::Str { codes, .. } => codes.iter().map(|&c| c as i64).collect(),
        other => panic!("cannot discover constraints over {:?}", other.data_type()),
    }
}

/// Reads the full visible column of a partition.
pub fn partition_column_values(partition: &Partition, col: usize) -> Vec<i64> {
    if partition.delta().is_empty() {
        int_view(partition.base_column(col))
    } else {
        let cols = partition.read_range(&[col], 0, partition.visible_len());
        int_view(&cols[0])
    }
}

/// Result of discovering one partition's patches.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// Patch rowIDs, ascending.
    pub patches: Vec<u64>,
    /// Tuples examined.
    pub nrows: u64,
    /// Constraint-specific anchor value: for NSC the last (largest for
    /// asc) value of the retained sorted subsequence — the anchor the
    /// insert handling extends from; for NCC the majority (constant)
    /// value.
    pub last_sorted: Option<i64>,
}

/// Discovers the patch sets of a column given as one slice per partition,
/// in partition order; returns one result per partition.
///
/// NUC counts each value once across all partitions and patches every
/// occurrence of a value that occurs more than once, so a value kept in
/// two partitions is patched in both. NSC and NCC are partition-local:
/// each partition is discovered on its own ([`discover_values`]). The
/// partitions' patch sets are computed in parallel on the fan-out pool
/// when the task-size rule allows one task per partition, and inline
/// otherwise.
pub fn discover(parts: &[&[i64]], constraint: Constraint) -> Vec<DiscoveryResult> {
    if constraint != Constraint::NearlyUnique {
        return per_part(parts, |pid| discover_values(parts[pid], constraint));
    }
    // value -> occurs more than once
    let mut repeated: pi_exec::hash::IntMap<bool> = pi_exec::hash::int_map();
    for &v in parts.iter().flat_map(|vals| vals.iter()) {
        repeated.entry(v).and_modify(|r| *r = true).or_insert(false);
    }
    per_part(parts, |pid| {
        let values = parts[pid];
        let patches = values
            .iter()
            .enumerate()
            .filter(|(_, v)| repeated[v])
            .map(|(i, _)| i as u64)
            .collect();
        DiscoveryResult {
            patches,
            nrows: values.len() as u64,
            last_sorted: None,
        }
    })
}

/// `f(pid)` for every partition, in partition order: one pool task per
/// partition when [`tasks_for`] gives each at least a batch of rows on
/// average, inline otherwise.
fn per_part<T: Send>(parts: &[&[i64]], f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let rows = parts.iter().map(|p| p.len()).sum();
    if tasks_for(rows, parts.len()) == parts.len() {
        fan_out(parts.len(), f)
    } else {
        (0..parts.len()).map(f).collect()
    }
}

/// Discovers the patch set of `values`, one partition's column.
pub fn discover_values(values: &[i64], constraint: Constraint) -> DiscoveryResult {
    match constraint {
        Constraint::NearlyUnique => {
            let mut results = discover(&[values], constraint);
            results.pop().expect("one result per partition")
        }
        Constraint::NearlySorted(dir) => {
            let oriented: Vec<i64>;
            let vals = match dir {
                SortDir::Asc => values,
                SortDir::Desc => {
                    oriented = values.iter().map(|&v| dir.orient(v)).collect();
                    &oriented
                }
            };
            let keep = lis::longest_nondecreasing_indices(vals);
            let last_sorted = keep.last().map(|&i| values[i]);
            let mut patches = Vec::with_capacity(values.len() - keep.len());
            patches.extend(lis::gaps(&keep, values.len()).flatten().map(|i| i as u64));
            DiscoveryResult {
                patches,
                nrows: values.len() as u64,
                last_sorted,
            }
        }
        Constraint::NearlyConstant => {
            // Majority value via one counting pass; everything else is a
            // patch. Ties break towards the first-seen value for
            // determinism.
            let mut counts: pi_exec::hash::IntMap<(u32, u32)> = pi_exec::hash::int_map();
            for (i, &v) in values.iter().enumerate() {
                let e = counts.entry(v).or_insert((i as u32, 0));
                e.1 += 1;
            }
            let constant = counts
                .iter()
                .max_by_key(|(_, (first, n))| (*n, std::cmp::Reverse(*first)))
                .map(|(v, _)| *v);
            let patches: Vec<u64> = match constant {
                Some(c) => values
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != c)
                    .map(|(i, _)| i as u64)
                    .collect(),
                None => Vec::new(),
            };
            DiscoveryResult {
                patches,
                nrows: values.len() as u64,
                last_sorted: constant,
            }
        }
    }
}

/// Fraction of tuples matching the constraint (1 − exception rate); the
/// quantity Figure 1 of the paper plots per column.
pub fn constraint_match_fraction(values: &[i64], constraint: Constraint) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let r = discover_values(values, constraint);
    1.0 - r.patches.len() as f64 / values.len() as f64
}

/// [`sampled_match`]'s stride is `visible_len / SAMPLE_ROWS` (at least
/// 1), so a column of at least this many rows yields between 1 024 and
/// about 2 048 sampled values.
const SAMPLE_ROWS: usize = 1024;

/// Estimated match fraction of `constraint` on `col`, read from the
/// table as it is now: every `max(1, visible_len / 1024)`-th visible row
/// of each partition, in row order (NSC needs the order). `None` for a
/// column that is not `Int`.
///
/// The sample is discovered as the index would be ([`discover`] over one
/// sample per partition: NUC repeats count across partitions, NSC runs
/// and NCC constants per partition), and the estimate is
/// `1 − Σ patches / Σ sampled`. A table of fewer than 2 048 visible rows
/// is sampled whole, and then the estimate equals the match fraction
/// [`crate::PatchIndex::create`] builds. An empty column scores 1.0. The
/// estimate holds no state and draws no random numbers: equal tables
/// estimate equally.
pub fn sampled_match(table: &Table, col: usize, constraint: Constraint) -> Option<f64> {
    if table.schema().field(col).dtype != DataType::Int {
        return None;
    }
    let stride = (table.visible_len() / SAMPLE_ROWS).max(1);
    let samples: Vec<Vec<i64>> = table
        .partitions()
        .iter()
        .map(|p| {
            let rids: Vec<usize> = (0..p.visible_len()).step_by(stride).collect();
            crate::maintenance::gather_values(p, col, &rids)
        })
        .collect();
    let views: Vec<&[i64]> = samples.iter().map(Vec::as_slice).collect();
    let results = discover(&views, constraint);
    let sampled: u64 = results.iter().map(|r| r.nrows).sum();
    let patches: u64 = results.iter().map(|r| r.patches.len() as u64).sum();
    Some(if sampled == 0 {
        1.0
    } else {
        1.0 - patches as f64 / sampled as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nuc_marks_all_occurrences() {
        // 5 appears twice, 7 three times; 1 and 2 unique.
        let vals = vec![5i64, 1, 7, 5, 7, 2, 7];
        let r = discover_values(&vals, Constraint::NearlyUnique);
        assert_eq!(r.patches, vec![0, 2, 3, 4, 6]);
        // Excluding patches: remaining values unique AND disjoint from
        // patch values.
        let rest: Vec<i64> = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| !r.patches.contains(&(*i as u64)))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn nuc_perfectly_unique_has_no_patches() {
        let vals: Vec<i64> = (0..100).collect();
        let r = discover_values(&vals, Constraint::NearlyUnique);
        assert!(r.patches.is_empty());
    }

    #[test]
    fn nsc_ascending() {
        let vals = vec![1i64, 2, 100, 3, 4];
        let r = discover_values(&vals, Constraint::NearlySorted(SortDir::Asc));
        assert_eq!(r.patches, vec![2]);
        assert_eq!(r.last_sorted, Some(4));
    }

    #[test]
    fn nsc_descending() {
        let vals = vec![9i64, 8, 1, 7, 5];
        let r = discover_values(&vals, Constraint::NearlySorted(SortDir::Desc));
        assert_eq!(r.patches, vec![2]);
        assert_eq!(r.last_sorted, Some(5));
        let vals = vec![i64::MIN, 5, 4];
        let r = discover_values(&vals, Constraint::NearlySorted(SortDir::Desc));
        assert_eq!(r.patches, vec![0]);
    }

    #[test]
    fn match_fraction() {
        let vals = vec![1i64, 2, 3, 0, 4];
        let f = constraint_match_fraction(&vals, Constraint::NearlySorted(SortDir::Asc));
        assert!((f - 0.8).abs() < 1e-12);
        assert_eq!(
            constraint_match_fraction(&[], Constraint::NearlyUnique),
            1.0
        );
    }

    /// A one-column Int table, one partition per entry of `parts`.
    fn int_table(parts: &[Vec<i64>]) -> Table {
        use pi_storage::{Field, Partitioning, Schema};
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            parts.len(),
            Partitioning::RoundRobin,
        );
        for (pid, vals) in parts.iter().enumerate() {
            t.load_partition(pid, &[ColumnData::Int(vals.clone())]);
        }
        t.propagate_all();
        t
    }

    /// Partition-local scoring of NSC: each partition perfectly sorted but
    /// key ranges interleaved (RoundRobin-style) — per-partition discovery
    /// finds zero patches, and so must the estimate. The same values
    /// pooled across partitions would score ~0.5.
    #[test]
    fn sampled_match_scores_interleaved_partitions_partition_locally() {
        let t = int_table(&[
            (0..2_500).map(|i| 2 * i).collect(),
            (0..2_500).map(|i| 2 * i + 1).collect(),
        ]);
        let est = sampled_match(&t, 0, Constraint::NearlySorted(SortDir::Asc)).unwrap();
        assert!(
            (est - 1.0).abs() < 1e-12,
            "per-partition sorted must score 1.0, got {est}"
        );
        // NUC is not partition-local: a value living in both partitions
        // is a repeat, and every occurrence of it is a patch, as in the
        // index create builds.
        let t = int_table(&[(0..2_000).collect(), (0..2_000).collect()]);
        let est = sampled_match(&t, 0, Constraint::NearlyUnique).unwrap();
        assert!(
            est.abs() < 1e-12,
            "cross-partition repeats are duplicates, got {est}"
        );
    }

    #[test]
    fn sampled_match_scores_an_empty_column_as_a_perfect_match() {
        let t = int_table(&[vec![], vec![]]);
        assert_eq!(sampled_match(&t, 0, Constraint::NearlyConstant), Some(1.0));
    }

    #[test]
    fn ncc_marks_non_majority_values() {
        let vals = vec![7i64, 7, 3, 7, 9, 7];
        let r = discover_values(&vals, Constraint::NearlyConstant);
        assert_eq!(r.patches, vec![2, 4]);
        assert_eq!(r.last_sorted, Some(7));
    }

    #[test]
    fn ncc_perfectly_constant() {
        let vals = vec![5i64; 40];
        let r = discover_values(&vals, Constraint::NearlyConstant);
        assert!(r.patches.is_empty());
        assert_eq!(r.last_sorted, Some(5));
    }

    #[test]
    fn ncc_empty_column() {
        let r = discover_values(&[], Constraint::NearlyConstant);
        assert!(r.patches.is_empty());
        assert_eq!(r.last_sorted, None);
    }

    /// The patch sets of `parts`, one per partition.
    fn nuc_patches(parts: &[&[i64]]) -> Vec<Vec<u64>> {
        discover(parts, Constraint::NearlyUnique)
            .into_iter()
            .map(|r| r.patches)
            .collect()
    }

    #[test]
    fn cross_partition_residual_patches_every_straddling_occurrence() {
        // 5 appears in partitions 0 and 2 (once each): all its occurrences
        // are patches. 7 is duplicated only within partition 1, and all
        // its occurrences are patches too. 9 is unique.
        let p0: Vec<i64> = vec![5, 1];
        let p1: Vec<i64> = vec![7, 7, 9];
        let p2: Vec<i64> = vec![2, 5];
        assert_eq!(
            nuc_patches(&[&p0, &p1, &p2]),
            vec![vec![0], vec![0, 1], vec![1]]
        );
        // A pool of 10 values shared by 4 otherwise disjoint partitions
        // (every 200th row): all 10 x 4 occurrences, and nothing else.
        let parts: Vec<Vec<i64>> = (0..4)
            .map(|p| {
                (0..2_000)
                    .map(|i| {
                        if i % 200 == 0 {
                            i / 200
                        } else {
                            1_000 + p * 2_000 + i
                        }
                    })
                    .collect()
            })
            .collect();
        let views: Vec<&[i64]> = parts.iter().map(Vec::as_slice).collect();
        let pool_rids: Vec<u64> = (0..10).map(|k| k * 200).collect();
        assert_eq!(nuc_patches(&views), vec![pool_rids; 4]);
    }

    #[test]
    fn cross_partition_residual_covers_kept_vs_patched_splits() {
        // 4 is duplicated inside partition 0 and also present in
        // partition 1: the partition-1 occurrence is patched too.
        let p0: Vec<i64> = vec![4, 4, 1];
        let p1: Vec<i64> = vec![4, 2];
        assert_eq!(nuc_patches(&[&p0, &p1]), vec![vec![0, 1], vec![0]]);
    }

    #[test]
    fn cross_partition_residual_empty_for_disjoint_pools() {
        // No value straddles the partitions: only partition 0's local
        // repeat is patched.
        let p0: Vec<i64> = vec![1, 2, 2];
        let p1: Vec<i64> = vec![10, 11];
        assert_eq!(nuc_patches(&[&p0, &p1]), vec![vec![1, 2], Vec::new()]);
    }

    #[test]
    fn string_columns_discover_by_code() {
        let col = pi_storage::str_column(&["a", "b", "a", "c"]);
        let vals = int_view(&col);
        let r = discover_values(&vals, Constraint::NearlyUnique);
        assert_eq!(r.patches, vec![0, 2]);
    }
}
