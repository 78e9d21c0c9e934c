//! Synthetic catalog builders shared by the planner unit tests.

use patchindex::{Constraint, IndexCatalog, IndexStats, PartitionStats};

/// A synthetic index snapshot from `(rows, patches)` pairs per partition.
pub(crate) fn entry(
    slot: usize,
    column: usize,
    constraint: Constraint,
    parts: Vec<(u64, u64)>,
    patch_distinct: u64,
) -> IndexStats {
    let parts: Vec<PartitionStats> = parts
        .into_iter()
        .map(|(rows, patches)| PartitionStats { rows, patches })
        .collect();
    let rows: u64 = parts.iter().map(|p| p.rows).sum();
    let patches: u64 = parts.iter().map(|p| p.patches).sum();
    let e = if rows == 0 {
        1.0
    } else {
        1.0 - patches as f64 / rows as f64
    };
    IndexStats {
        slot,
        column,
        constraint,
        parts,
        patch_distinct,
        e,
        baseline_e: e,
        drift_patches: 0,
        maintained_rows: 0,
        memory_bytes: 0,
    }
}

/// A synthetic catalog over the given per-partition row counts.
pub(crate) fn catalog(part_rows: Vec<u64>, indexes: Vec<IndexStats>) -> IndexCatalog {
    IndexCatalog { part_rows, indexes }
}
