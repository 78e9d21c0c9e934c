//! Approximate constraint kinds.

/// Sort direction of a nearly sorted column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortDir {
    /// Non-decreasing.
    Asc,
    /// Non-increasing.
    Desc,
}

impl SortDir {
    /// Maps `v` so that a run sorted in this direction is non-decreasing in
    /// the mapped values. `Desc` uses `!v`, an order-reversing bijection on
    /// `i64`; `-v` is not one (it wraps at `i64::MIN`).
    pub fn orient(self, v: i64) -> i64 {
        match self {
            SortDir::Asc => v,
            SortDir::Desc => !v,
        }
    }
}

/// An approximate constraint materialized by a PatchIndex (paper,
/// Section 3.1): satisfied by all tuples except the set of patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// Nearly unique column (NUC). The patch set holds *all* occurrences of
    /// non-unique values, so excluding patches leaves values that are both
    /// unique and disjoint from patch values — the property the distinct
    /// rewrite of Section 3.3 relies on (and the invariant the insert
    /// handling of Section 5.1 maintains).
    NearlyUnique,
    /// Nearly sorted column (NSC): excluding patches leaves a sorted
    /// sequence in the given direction. The patch set is the complement of
    /// a longest sorted subsequence.
    NearlySorted(SortDir),
    /// Nearly constant column (NCC): excluding patches, every value equals
    /// the majority value. One of the additional constraints the paper's
    /// Section 5.5 / future work sketches; implemented here to demonstrate
    /// the generic PatchIndex interface (constraint-specific initial
    /// filling + insert/modify/delete support + an optimizer rule).
    NearlyConstant,
}

impl Constraint {
    /// Short display name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Constraint::NearlyUnique => "NUC",
            Constraint::NearlySorted(_) => "NSC",
            Constraint::NearlyConstant => "NCC",
        }
    }
}

/// Which physical patch-set representation an index uses (paper,
/// Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Design {
    /// One bit per tuple in a sharded bitmap: constant memory, the choice
    /// recommended by the paper's evaluation.
    #[default]
    Bitmap,
    /// Sorted list of 64-bit rowIDs: sparse storage, cheaper below
    /// exception rate 1/64.
    Identifier,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Constraint::NearlyUnique.name(), "NUC");
        assert_eq!(Constraint::NearlySorted(SortDir::Asc).name(), "NSC");
        assert_eq!(Constraint::NearlyConstant.name(), "NCC");
    }

    #[test]
    fn default_design_is_bitmap() {
        assert_eq!(Design::default(), Design::Bitmap);
    }
}
