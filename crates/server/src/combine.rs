//! Canonical cross-shard combine.
//!
//! Each shard executes the fan-out plan over its own snapshot; the
//! server merges the per-shard row sets into one *canonically ordered*
//! result so the bytes on the wire are deterministic — independent of
//! shard count, routing, and per-shard physical plans. That determinism
//! is what the exactness audits and the prefix-replay property test
//! compare against.
//!
//! Canonical order: the spec's sort keys first (tie-broken by the
//! remaining columns ascending), full-row lexicographic ascending when
//! the spec has no sort. Values compare by `Value`'s total order. `distinct` re-deduplicates globally (shards
//! eliminate only their own duplicates); `limit` truncates last.

use std::cmp::Ordering;

use pi_exec::ops::sort::SortOrder;
use pi_exec::Batch;
use pi_storage::Value;

use crate::protocol::render_value;
use crate::spec::QuerySpec;

fn cmp_row_suffix(a: &[Value], b: &[Value], skip: &[usize]) -> Ordering {
    for i in 0..a.len() {
        if skip.contains(&i) {
            continue;
        }
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Materializes a batch as row vectors (the combine works row-wise).
pub fn batch_rows(batch: &Batch) -> Vec<Vec<Value>> {
    let ncols = batch.columns().len();
    (0..batch.len())
        .map(|r| (0..ncols).map(|c| batch.column(c).value(r)).collect())
        .collect()
}

/// Merges per-shard result rows into the canonical result: global
/// dedup when the spec has `distinct`, canonical ordering, then the
/// `limit` truncation.
pub fn canonical_rows(spec: &QuerySpec, mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let keys: Vec<(usize, SortOrder)> = spec.sort.clone().unwrap_or_default();
    let key_positions: Vec<usize> = keys.iter().map(|&(p, _)| p).collect();
    rows.sort_by(|a, b| {
        for &(pos, dir) in &keys {
            let ord = a[pos].cmp(&b[pos]);
            let ord = if matches!(dir, SortOrder::Desc) {
                ord.reverse()
            } else {
                ord
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        cmp_row_suffix(a, b, &key_positions)
    });
    if spec.distinct.is_some() {
        // Shard-local distinct already projected rows to the distinct
        // columns, so global dedup is full-row dedup; the canonical sort
        // above placed duplicates adjacently.
        rows.dedup();
    }
    if let Some(n) = spec.limit {
        rows.truncate(n);
    }
    rows
}

/// Renders rows as wire lines: one row per line, values tab-separated.
pub fn render_rows(rows: &[Vec<Value>]) -> String {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(render_value).collect();
        out.push('\n');
        out.push_str(&cells.join("\t"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[&[i64]]) -> Vec<Vec<Value>> {
        v.iter()
            .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    }

    #[test]
    fn plain_scan_is_full_row_lex_sorted() {
        let spec = QuerySpec::parse("scan 0,1").unwrap();
        let out = canonical_rows(&spec, rows(&[&[2, 0], &[1, 9], &[1, 3]]));
        assert_eq!(out, rows(&[&[1, 3], &[1, 9], &[2, 0]]));
    }

    #[test]
    fn sort_keys_then_suffix_tiebreak() {
        let spec = QuerySpec::parse("scan 0,1 | sort 1:desc").unwrap();
        let out = canonical_rows(&spec, rows(&[&[5, 1], &[2, 9], &[1, 9]]));
        assert_eq!(out, rows(&[&[1, 9], &[2, 9], &[5, 1]]));
    }

    #[test]
    fn distinct_dedups_across_shards_and_limit_truncates_last() {
        let spec = QuerySpec::parse("scan 0 | distinct 0 | limit 2").unwrap();
        // Two shards each sent their own deduped rows; 7 appears in both.
        let out = canonical_rows(&spec, rows(&[&[7], &[3], &[7], &[9]]));
        assert_eq!(out, rows(&[&[3], &[7]]));
    }

    #[test]
    fn rendering_is_tab_and_newline_separated() {
        let r = rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(render_rows(&r), "\n1\t2\n3\t4");
    }
}
