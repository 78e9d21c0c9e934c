//! # pi-bench — the paper's figures
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 6): [`experiments`] holds one function per figure/table and
//! the `repro` binary prints them
//! (`cargo run --release -p pi-bench --bin repro -- all`).
//!
//! This crate times nothing that gates a change and asserts nothing about
//! the product: regression timing is `pibench/` (see `BENCHMARK.json`),
//! exactness and deterministic counts are `cargo test`.

#![warn(missing_docs)]

pub mod experiments;
pub mod microq;
pub mod timing;
