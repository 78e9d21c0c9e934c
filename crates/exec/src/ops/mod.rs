//! Physical operators.

pub mod agg;
pub mod filter;
pub mod hash_join;
pub mod merge;
pub mod merge_join;
pub mod meter;
pub mod patch_select;
pub mod scan;
pub mod sort;
