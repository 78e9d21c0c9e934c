//! Canonical cross-shard combine: the server merges the per-shard
//! batches into one *canonically ordered* result, so the bytes on the
//! wire are independent of shard count, routing and per-shard plans.
//!
//! Canonical order: the spec's sort keys first, then the remaining
//! columns ascending, under pi-exec's key comparator, the one sort and
//! ordered merge use (floats by total order; strings decoded, since each
//! shard has its own dictionary). `distinct` re-deduplicates globally
//! (the server admits no `Float` distinct column, so comparator equality
//! is row equality); `limit` truncates last. [`batch_rows`],
//! [`canonical_rows`] and [`render_rows`] are the row-wise reference over
//! `Value` rows that the tests and the benchmark's replay compare against.

use std::cmp::Ordering;
use std::fmt::Write;

use pi_exec::ops::sort::SortOrder;
use pi_exec::{cmp_rows_cross, Batch, KeyColumn};
use pi_storage::{ColumnData, Value};

use crate::protocol::render_value;
use crate::spec::QuerySpec;

/// The canonical result of `spec` over per-shard `batches` (windows and
/// selections too): `(batch, backing row)` pairs in canonical order,
/// deduplicated under `distinct` and cut at `limit`.
pub fn combine_batches<'a>(
    spec: &QuerySpec,
    batches: impl IntoIterator<Item = &'a Batch>,
) -> Vec<(&'a Batch, usize)> {
    let batches: Vec<&Batch> = batches.into_iter().filter(|b| !b.is_empty()).collect();
    let sort = spec.sort.clone().unwrap_or_default();
    let rest = (0..batches.first().map_or(0, |b| b.width()))
        .filter(|c| sort.iter().all(|&(p, _)| p != *c))
        .map(|c| (c, SortOrder::Asc));
    let keys: Vec<(usize, SortOrder)> = sort.iter().copied().chain(rest).collect();
    let key_columns = |b: &&Batch| -> Vec<KeyColumn> {
        keys.iter()
            .map(|&(c, o)| KeyColumn::build(b.raw_column(c), b.span(), o))
            .collect()
    };
    let cols: Vec<Vec<KeyColumn>> = batches.iter().map(key_columns).collect();
    // A pair holds the row's offset into its batch's span: its key row.
    let mut order: Vec<(usize, usize)> = (batches.iter().enumerate())
        .flat_map(|(s, b)| (0..b.len()).map(move |i| (s, b.row(i) - b.span().start)))
        .collect();
    let cmp = |&(s, i): &(usize, usize), &(t, j): &(usize, usize)| {
        cmp_rows_cross(&cols[s], i, &cols[t], j)
    };
    // Rows equal under the comparator render alike: no tie-break needed.
    order.sort_unstable_by(cmp);
    if spec.distinct.is_some() {
        order.dedup_by(|a, b| cmp(a, b).is_eq());
    }
    order.truncate(spec.limit.unwrap_or(usize::MAX));
    let row = |(s, i): (usize, usize)| (batches[s], batches[s].span().start + i);
    order.into_iter().map(row).collect()
}

/// Appends `rows` (a [`combine_batches`] result) as [`render_rows`] writes
/// them, each cell in [`render_value`]'s text, straight from the columns.
pub fn render_combined(rows: &[(&Batch, usize)], out: &mut String) {
    for &(batch, row) in rows {
        for c in 0..batch.width() {
            out.push(if c == 0 { '\n' } else { '\t' });
            let _ = match batch.raw_column(c) {
                ColumnData::Int(v) => write!(out, "{}", v[row]),
                ColumnData::Float(v) => write!(out, "{:?}", v[row]),
                ColumnData::Str { codes, dict } => out.write_str(dict.read().decode(codes[row])),
            };
        }
    }
}

/// Materializes a batch (any shape) as row vectors: the row-wise
/// reference's input.
pub fn batch_rows(batch: &Batch) -> Vec<Vec<Value>> {
    (0..batch.len())
        .map(|i| {
            (0..batch.width())
                .map(|c| batch.raw_column(c).value(batch.row(i)))
                .collect()
        })
        .collect()
}

/// The row-wise reference combine: global dedup when the spec has
/// `distinct`, canonical ordering by `Value`'s order, then the `limit`
/// truncation.
pub fn canonical_rows(spec: &QuerySpec, mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let keys: Vec<(usize, SortOrder)> = spec.sort.clone().unwrap_or_default();
    rows.sort_by(|a, b| {
        let rest = (0..a.len()).filter(|i| keys.iter().all(|&(p, _)| p != *i));
        let ords = keys.iter().map(|&(pos, dir)| match dir {
            SortOrder::Asc => a[pos].cmp(&b[pos]),
            SortOrder::Desc => b[pos].cmp(&a[pos]),
        });
        ords.chain(rest.map(|i| a[i].cmp(&b[i])))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    if spec.distinct.is_some() {
        // Shards projected to the distinct columns: full-row dedup.
        rows.dedup();
    }
    if let Some(n) = spec.limit {
        rows.truncate(n);
    }
    rows
}

/// Renders rows as wire lines (the row-wise reference): one row per line,
/// values tab-separated.
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
