//! # pi-tpch — TPC-H substrate for Figure 10
//!
//! A scaled dbgen-equivalent [`gen`]erator for the Q3/Q7/Q12 subset, with
//! the paper's lineitem order perturbation (0% / 5% / 10% NSC exceptions),
//! RF1/RF2-style refresh sets, and the three hand-lowered plan variants
//! per query in [`queries`] (reference hash joins, PatchIndex merge-join
//! rewrite, JoinIndex), whose `lineitem` side runs partition-parallel on
//! the fan-out pool.

#![warn(missing_docs)]

pub mod gen;
pub mod queries;

pub use gen::{cols, generate, TpchDb, TpchSpec};
pub use queries::{q12, q3, q7, QueryVariant};
