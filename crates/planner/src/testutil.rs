//! Synthetic catalog builders shared by the planner unit tests.

use patchindex::{Constraint, IndexCatalog, IndexStats};

/// A synthetic index snapshot covering `rows` rows with `patches`
/// patches.
pub(crate) fn entry(
    slot: usize,
    column: usize,
    constraint: Constraint,
    rows: u64,
    patches: u64,
) -> IndexStats {
    IndexStats {
        slot,
        column,
        constraint,
        rows,
        patches,
    }
}

/// A synthetic one-partition catalog over `rows` visible rows.
pub(crate) fn catalog(rows: u64, indexes: Vec<IndexStats>) -> IndexCatalog {
    IndexCatalog {
        rows,
        partitions: 1,
        indexes,
    }
}
