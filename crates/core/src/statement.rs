//! The write vocabulary: a [`Statement`] is the unit of change the WAL
//! logs, recovery replays, a server shard queues and the advisor emits.
//! It is checked against the table ([`Statement::check`]), then applied
//! with every index maintained inside it ([`crate::IndexedTable::apply`];
//! paper, Section 5), which hands back an [`Applied`] receipt.

use std::sync::Arc;

use pi_storage::{DataType, RowAddr, Schema, Table, Value};

use crate::constraint::{Constraint, Design};
use crate::index::PatchIndex;

/// One write statement against an indexed table.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Rows inserted (routed by the table's partitioning).
    Insert(Vec<Vec<Value>>),
    /// One column of one partition patched.
    Modify {
        /// Partition id.
        pid: usize,
        /// Visible rowIDs patched.
        rids: Vec<usize>,
        /// Column index.
        col: usize,
        /// Replacement values, one per rid.
        values: Vec<Value>,
    },
    /// Visible rows of one partition deleted.
    Delete {
        /// Partition id.
        pid: usize,
        /// Visible rowIDs deleted (pre-delete numbering).
        rids: Vec<usize>,
    },
    /// A PatchIndex created.
    AddIndex {
        /// Indexed column.
        col: usize,
        /// Constraint kind.
        constraint: Constraint,
        /// Bitmap or Identifier design.
        design: Design,
    },
    /// The index in `slot` dropped; later indexes shift down one slot
    /// (the planner re-snapshots slots at every query).
    DropIndex {
        /// Slot at drop time.
        slot: usize,
    },
    /// The index in `slot` recomputed from the table.
    Recompute {
        /// Slot at recompute time.
        slot: usize,
    },
}

/// The receipt of one applied [`Statement`]: what the statement's kind
/// hands back, every other field empty.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// Where an [`Statement::Insert`] put its rows, in statement order.
    pub rows: Vec<RowAddr>,
    /// The slot an [`Statement::AddIndex`] filled (always the last).
    pub slot: Option<usize>,
    /// The index a [`Statement::DropIndex`] removed. Snapshots published
    /// before the drop may still be reading it, so it comes back as a
    /// shared handle.
    pub dropped: Option<Arc<PatchIndex>>,
}

impl Statement {
    /// Refuses a statement that names state a table with `indexes`
    /// indexes does not have — the check [`crate::IndexedTable::apply`]
    /// relies on. Slots, partitions, columns and rowIDs must be in range,
    /// rows and modified values must match the schema in arity and type,
    /// and an index must satisfy [`Statement::indexable`].
    pub fn check(&self, table: &Table, indexes: usize) -> Result<(), String> {
        let fields = table.schema().fields();
        let fit = |dtype: DataType, v: &Value| match (dtype, v) {
            (DataType::Int | DataType::Date, Value::Int(_))
            | (DataType::Float, Value::Float(_))
            | (DataType::Str, Value::Str(_)) => Ok(()),
            _ => Err(format!("{v:?} does not fit a {dtype:?} column")),
        };
        let visible = |pid: usize, rids: &[usize]| {
            let part = table.partitions().get(pid).ok_or_else(|| {
                format!(
                    "partition {pid} out of range ({} partitions)",
                    table.partition_count()
                )
            })?;
            let len = part.visible_len();
            match rids.iter().find(|&&rid| rid >= len) {
                Some(rid) => Err(format!(
                    "rowID {rid} out of range in partition {pid} ({len} visible rows)"
                )),
                None => Ok(()),
            }
        };
        match self {
            Statement::Insert(rows) => rows.iter().try_for_each(|row| {
                if row.len() != fields.len() {
                    return Err(format!(
                        "row of {} values into {} columns",
                        row.len(),
                        fields.len()
                    ));
                }
                fields
                    .iter()
                    .zip(row)
                    .try_for_each(|(f, v)| fit(f.dtype, v))
            }),
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            } => {
                let dtype = fields
                    .get(*col)
                    .ok_or_else(|| format!("column {col} out of range ({} columns)", fields.len()))?
                    .dtype;
                visible(*pid, rids)?;
                if rids.len() != values.len() {
                    return Err(format!("{} values for {} rowIDs", values.len(), rids.len()));
                }
                values.iter().try_for_each(|v| fit(dtype, v))
            }
            Statement::Delete { pid, rids } => visible(*pid, rids),
            Statement::AddIndex {
                col, constraint, ..
            } => Statement::indexable(table.schema(), *col, *constraint),
            Statement::DropIndex { slot } | Statement::Recompute { slot } => (*slot < indexes)
                .then_some(())
                .ok_or_else(|| format!("slot {slot} out of range ({indexes} indexes)")),
        }
    }

    /// Whether column `col` of `schema` can carry a PatchIndex for
    /// `constraint`: it exists, is not `Float` (values are read as
    /// integers), and is not `Str` if nearly sorted (strings are read as
    /// dictionary codes in first-appearance order, which keep equality but
    /// not order). Statements, index images and [`crate::PatchIndex::create`]
    /// all obey it.
    pub fn indexable(schema: &Schema, col: usize, constraint: Constraint) -> Result<(), String> {
        match schema.fields().get(col).map(|f| f.dtype) {
            None => Err(format!(
                "column {col} out of range ({} columns)",
                schema.len()
            )),
            Some(DataType::Float) => Err(format!("cannot index Float column {col}")),
            Some(DataType::Str) if matches!(constraint, Constraint::NearlySorted(_)) => {
                Err(format!(
                    "cannot keep Str column {col} nearly sorted: it is read as dictionary codes"
                ))
            }
            Some(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SortDir;
    use crate::PatchIndex;
    use pi_storage::{Field, Partitioning};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("d", DataType::Date),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
        ])
    }

    /// Int-backed columns take every constraint, a `Float` column none,
    /// and a `Str` column the equality constraints only.
    #[test]
    fn indexable_by_column_type_and_constraint() {
        let schema = schema();
        for (constraint, accepted) in [
            (Constraint::NearlyUnique, [true, true, false, true]),
            (Constraint::NearlyConstant, [true, true, false, true]),
            (
                Constraint::NearlySorted(SortDir::Asc),
                [true, true, false, false],
            ),
            (
                Constraint::NearlySorted(SortDir::Desc),
                [true, true, false, false],
            ),
        ] {
            for (col, want) in accepted.into_iter().enumerate() {
                let got = Statement::indexable(&schema, col, constraint);
                assert_eq!(got.is_ok(), want, "{constraint:?} on column {col}: {got:?}");
            }
            assert!(Statement::indexable(&schema, 4, constraint).is_err());
        }
    }

    /// Regression: a nearly sorted index on a string column was built
    /// over dictionary codes, and ORDER BY through it returned rows in
    /// first-appearance order.
    #[test]
    #[should_panic(expected = "cannot keep Str column 3 nearly sorted")]
    fn nearly_sorted_string_index_is_never_built() {
        let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
        t.insert_rows(&[vec![
            Value::Int(1),
            Value::Int(1),
            Value::Float(1.0),
            Value::from("b"),
        ]]);
        PatchIndex::create(
            &t,
            3,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Bitmap,
        );
    }
}
