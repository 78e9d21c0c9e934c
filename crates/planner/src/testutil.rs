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
    IndexStats {
        slot,
        column,
        constraint,
        parts,
        patch_distinct,
    }
}

/// A synthetic catalog over the given per-partition row counts.
pub(crate) fn catalog(part_rows: Vec<u64>, indexes: Vec<IndexStats>) -> IndexCatalog {
    IndexCatalog { part_rows, indexes }
}
