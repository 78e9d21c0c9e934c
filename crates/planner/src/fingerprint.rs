//! Canonical plan fingerprints for the result cache.
//!
//! The cache in `patchindex::cache` identifies entries by a stable 64-bit
//! hash of a **canonical byte encoding** of the chosen (optimized)
//! logical plan, the query mode and the catalog entries its `PatchScan`
//! sites bind. The encoding — not the hash — is the
//! source of truth: entries store the canonical bytes and verify them on
//! every hit, so a hash collision degrades to a cache miss, never to a
//! wrong result.
//!
//! Two executions share a fingerprint only when they would run the same
//! operator tree against indexes materializing the same `(column,
//! constraint)` at the same slots. Everything *data-dependent* (row
//! counts, patch rates, Arc versions) is deliberately excluded — data
//! validity is the cache's job: it holds one epoch, and each publish's
//! change set decides which entries carry over to the next.
//!
//! The hash is FNV-1a over the canonical bytes: stable across runs and
//! platforms (no `RandomState`), which keeps fingerprints reproducible
//! in tests and benchmarks.

use patchindex::{Constraint, IndexCatalog, SortDir};
use pi_exec::expr::{ArithOp, CmpOp, Expr};
use pi_exec::ops::patch_select::PatchMode;
use pi_exec::ops::sort::SortOrder;

use crate::logical::Plan;

/// What a fingerprinted execution returns. Every executing entry point
/// answers in rows, so this has one value; it keeps its byte in the
/// encoding so fingerprints stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Materialized rows (`query`, `query_traced`).
    Rows = 0,
}

/// Encoding version tag — bump when the byte layout changes so stale
/// entries from an incompatible layout can never verify.
const VERSION: u8 = 1;

/// Builds the canonical byte form of `(plan, mode, bound catalog
/// entries)`. Deterministic: equal inputs yield equal bytes.
pub fn canonical_bytes(plan: &Plan, cat: &IndexCatalog, mode: QueryMode) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(VERSION);
    out.push(mode as u8);
    encode_plan(plan, &mut out);
    // Bound catalog entries: which (column, constraint) each PatchScan
    // slot resolves to. Two tables (or two epochs of one table, after
    // drops shifted slots) where slot 0 means different indexes must not
    // share a fingerprint.
    let slots = bound_slots(plan);
    push_usize(&mut out, slots.len());
    for slot in slots {
        let stats = &cat.indexes[slot];
        push_usize(&mut out, slot);
        push_usize(&mut out, stats.column);
        out.push(constraint_code(stats.constraint));
    }
    out
}

/// Stable FNV-1a 64-bit hash of the canonical bytes.
pub fn fingerprint_hash(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Every `PatchScan` slot bound anywhere in the plan, sorted and
/// deduplicated.
pub fn bound_slots(plan: &Plan) -> Vec<usize> {
    let mut slots = Vec::new();
    collect_slots(plan, &mut slots);
    slots.sort_unstable();
    slots.dedup();
    slots
}

fn collect_slots(plan: &Plan, out: &mut Vec<usize>) {
    match plan {
        Plan::Scan { .. } => {}
        Plan::PatchScan { slot, .. } => out.push(*slot),
        Plan::Distinct { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            collect_slots(input, out)
        }
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            for p in inputs {
                collect_slots(p, out);
            }
        }
    }
}

fn constraint_code(c: Constraint) -> u8 {
    match c {
        Constraint::NearlyUnique => 0,
        Constraint::NearlySorted(SortDir::Asc) => 1,
        Constraint::NearlySorted(SortDir::Desc) => 2,
        Constraint::NearlyConstant => 3,
    }
}

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_keys(out: &mut Vec<u8>, keys: &[(usize, SortOrder)]) {
    push_usize(out, keys.len());
    for (col, order) in keys {
        push_usize(out, *col);
        out.push(match order {
            SortOrder::Asc => 0,
            SortOrder::Desc => 1,
        });
    }
}

fn push_cols(out: &mut Vec<u8>, cols: &[usize]) {
    push_usize(out, cols.len());
    for &c in cols {
        push_usize(out, c);
    }
}

fn encode_plan(plan: &Plan, out: &mut Vec<u8>) {
    match plan {
        Plan::Scan { cols, filter } => {
            out.push(1);
            push_cols(out, cols);
            encode_filter(filter.as_ref(), out);
        }
        Plan::PatchScan {
            cols,
            filter,
            mode,
            slot,
        } => {
            out.push(2);
            push_cols(out, cols);
            encode_filter(filter.as_ref(), out);
            out.push(match mode {
                PatchMode::ExcludePatches => 0,
                PatchMode::UsePatches => 1,
            });
            push_usize(out, *slot);
        }
        Plan::Distinct { input, cols } => {
            out.push(3);
            encode_plan(input, out);
            push_cols(out, cols);
        }
        Plan::Sort { input, keys } => {
            out.push(4);
            encode_plan(input, out);
            push_keys(out, keys);
        }
        Plan::Limit { input, n } => {
            out.push(5);
            encode_plan(input, out);
            push_usize(out, *n);
        }
        Plan::Union { inputs } => {
            out.push(6);
            push_usize(out, inputs.len());
            for p in inputs {
                encode_plan(p, out);
            }
        }
        Plan::Merge { inputs, keys } => {
            out.push(7);
            push_usize(out, inputs.len());
            for p in inputs {
                encode_plan(p, out);
            }
            push_keys(out, keys);
        }
    }
}

fn encode_filter(filter: Option<&Expr>, out: &mut Vec<u8>) {
    match filter {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            encode_expr(e, out);
        }
    }
}

fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    match e {
        Expr::Col(i) => {
            out.push(1);
            push_usize(out, *i);
        }
        Expr::LitInt(v) => {
            out.push(2);
            push_i64(out, *v);
        }
        Expr::LitFloat(v) => {
            // Bit pattern, not value: 0.0 and -0.0 compare equal but
            // produce different downstream results in sorts — distinct
            // bits must stay distinct fingerprints.
            out.push(3);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Expr::LitCode(c) => {
            out.push(4);
            out.extend_from_slice(&c.to_le_bytes());
        }
        Expr::Cmp(op, a, b) => {
            out.push(5);
            out.push(match op {
                CmpOp::Eq => 0,
                CmpOp::Ne => 1,
                CmpOp::Lt => 2,
                CmpOp::Le => 3,
                CmpOp::Gt => 4,
                CmpOp::Ge => 5,
            });
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Between(a, lo, hi) => {
            out.push(6);
            encode_expr(a, out);
            push_i64(out, *lo);
            push_i64(out, *hi);
        }
        Expr::InInts(a, set) => {
            out.push(7);
            encode_expr(a, out);
            push_usize(out, set.len());
            for v in set {
                push_i64(out, *v);
            }
        }
        Expr::And(a, b) => {
            out.push(8);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Or(a, b) => {
            out.push(9);
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Not(a) => {
            out.push(10);
            encode_expr(a, out);
        }
        Expr::Arith(op, a, b) => {
            out.push(11);
            out.push(match op {
                ArithOp::Add => 0,
                ArithOp::Sub => 1,
                ArithOp::Mul => 2,
                ArithOp::Div => 3,
            });
            encode_expr(a, out);
            encode_expr(b, out);
        }
        Expr::Year(a) => {
            out.push(12);
            encode_expr(a, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::{Design, PatchIndex};
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};

    fn catalog(constraint: Constraint) -> IndexCatalog {
        let mut t = Table::new(
            "f",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            1,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![1, 2, 3])]);
        t.propagate_all();
        let idx = vec![PatchIndex::create(&t, 0, constraint, Design::Bitmap)];
        IndexCatalog::of(&t, &idx)
    }

    #[test]
    fn equal_plans_share_a_fingerprint() {
        let cat = catalog(Constraint::NearlyUnique);
        let a = Plan::scan(vec![0]).distinct(vec![0]);
        let b = Plan::scan(vec![0]).distinct(vec![0]);
        assert_eq!(
            canonical_bytes(&a, &cat, QueryMode::Rows),
            canonical_bytes(&b, &cat, QueryMode::Rows)
        );
    }

    #[test]
    fn shape_separates_fingerprints() {
        let cat = catalog(Constraint::NearlyUnique);
        let plan = Plan::scan(vec![0]).distinct(vec![0]);
        let rows = canonical_bytes(&plan, &cat, QueryMode::Rows);
        let other = canonical_bytes(&Plan::scan(vec![0]), &cat, QueryMode::Rows);
        assert_ne!(rows, other);
        let limited = canonical_bytes(&Plan::scan(vec![0]).limit(3), &cat, QueryMode::Rows);
        let limited9 = canonical_bytes(&Plan::scan(vec![0]).limit(9), &cat, QueryMode::Rows);
        assert_ne!(limited, limited9);
    }

    #[test]
    fn bound_entries_enter_the_encoding() {
        let plan = Plan::PatchScan {
            cols: vec![0],
            filter: None,
            mode: PatchMode::ExcludePatches,
            slot: 0,
        };
        let nuc = canonical_bytes(&plan, &catalog(Constraint::NearlyUnique), QueryMode::Rows);
        let nsc = canonical_bytes(
            &plan,
            &catalog(Constraint::NearlySorted(SortDir::Asc)),
            QueryMode::Rows,
        );
        // Same plan tree, same slot — but the slot binds a different
        // constraint, so the canonical forms differ.
        assert_ne!(nuc, nsc);
        assert_eq!(bound_slots(&plan), vec![0]);
    }

    #[test]
    fn filters_and_float_bits_are_canonical() {
        let cat = catalog(Constraint::NearlyUnique);
        let f = |e: Expr| Plan::Scan {
            cols: vec![0],
            filter: Some(e),
        };
        let a = canonical_bytes(&f(Expr::col(0).ge(Expr::LitInt(5))), &cat, QueryMode::Rows);
        let b = canonical_bytes(&f(Expr::col(0).ge(Expr::LitInt(6))), &cat, QueryMode::Rows);
        assert_ne!(a, b);
        let z = canonical_bytes(
            &f(Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Col(0)),
                Box::new(Expr::LitFloat(0.0)),
            )),
            &cat,
            QueryMode::Rows,
        );
        let nz = canonical_bytes(
            &f(Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::Col(0)),
                Box::new(Expr::LitFloat(-0.0)),
            )),
            &cat,
            QueryMode::Rows,
        );
        assert_ne!(z, nz, "distinct float bit patterns stay distinct");
    }

    #[test]
    fn hash_is_stable() {
        // Locked value: the hash must never depend on process state.
        assert_eq!(fingerprint_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            fingerprint_hash(b"patchindex"),
            fingerprint_hash(b"patchindex")
        );
        assert_ne!(fingerprint_hash(b"a"), fingerprint_hash(b"b"));
    }

    /// Locked encodings: every fingerprint and every cached entry key is
    /// made of these bytes, so a refactor must leave them unchanged.
    #[test]
    fn canonical_bytes_are_unchanged() {
        let cat = catalog(Constraint::NearlyUnique);
        let bound = Plan::PatchScan {
            cols: vec![0],
            filter: None,
            mode: PatchMode::ExcludePatches,
            slot: 0,
        };
        let float = Some(Expr::col(0).ge(Expr::LitFloat(1.5)));
        let plans = [
            Plan::scan(vec![0]),
            bound.distinct(vec![0]),
            Plan::scan(vec![0])
                .sort(vec![(0, SortOrder::Desc)])
                .limit(7),
            Plan::Scan {
                cols: vec![0],
                filter: float,
            },
        ];
        let hex = plans.map(|plan| {
            let bytes = canonical_bytes(&plan, &cat, QueryMode::Rows);
            bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()
        });
        let want = [
            "01000101000000000000000000000000000000000000000000000000",
            "0100030201000000000000000000000000000000000000000000000000000100\
             000000000000000000000000000001000000000000000000000000000000000000\
             000000000000",
            "0100050401010000000000000000000000000000000001000000000000000000\
             0000000000000107000000000000000000000000000000",
            "0100010100000000000000000000000000000001050501000000000000000003\
             000000000000f83f0000000000000000",
        ];
        assert_eq!(hex, want);
    }
}
