//! Partitioned tables.

use std::sync::{Arc, Mutex};

use crate::column::ColumnData;
use crate::delta::ColumnMerge;
use crate::dict::{new_dict, DictRef};
use crate::parallel::{fan_out, tasks_for};
use crate::partition::Partition;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// How inserted rows are routed to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Rows cycle through partitions (default for generated datasets that
    /// were split into equal slices up front).
    RoundRobin,
    /// Rows route by the value of an integer column against sorted
    /// boundaries: partition `p` holds keys in
    /// `[boundaries[p-1], boundaries[p])` (paper: the microbenchmark data is
    /// partitioned on the unique key column).
    KeyRange {
        /// Column index of the routing key.
        col: usize,
        /// Ascending upper bounds, one per partition except the last.
        boundaries: Vec<i64>,
    },
}

impl Partitioning {
    /// Whether this routing can serve `npartitions` partitions of
    /// `schema`: a key-range key names an int-backed column, with
    /// `npartitions − 1` ascending boundaries, so every key routes to an
    /// existing partition. [`Table::new`] and [`Table::restore`] assert
    /// it; a recovery reading the routing from a file checks it first.
    pub fn validate(&self, schema: &Schema, npartitions: usize) -> Result<(), String> {
        let Partitioning::KeyRange { col, boundaries } = self else {
            return Ok(());
        };
        let field = schema.fields().get(*col).ok_or_else(|| {
            format!(
                "routing key column {col} out of range ({} columns)",
                schema.len()
            )
        })?;
        if !field.dtype.is_int_backed() {
            return Err(format!(
                "routing key must be int-backed, column {col} is {:?}",
                field.dtype
            ));
        }
        if boundaries.len() + 1 != npartitions {
            return Err(format!(
                "boundary count mismatch: {} boundaries for {npartitions} partitions",
                boundaries.len()
            ));
        }
        if !boundaries.windows(2).all(|w| w[0] <= w[1]) {
            return Err("boundaries not sorted".to_string());
        }
        Ok(())
    }
}

/// A row location within a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowAddr {
    /// Partition id.
    pub partition: usize,
    /// Visible rowID within the partition.
    pub rid: usize,
}

/// A named, partitioned table.
///
/// Partitions live behind [`Arc`]: cloning a table is cheap (one `Arc`
/// bump per partition) and shares all partition data with the clone.
/// Mutation goes through [`Table::partition_mut`], which copies a
/// partition on first write if a clone still shares it (copy-on-write) —
/// the storage half of the snapshot/writer split in
/// `patchindex::snapshot`. String dictionaries stay shared across clones
/// (they grow append-only, so a snapshot's codes always stay decodable).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    partitions: Vec<Arc<Partition>>,
    dicts: Vec<Option<DictRef>>,
    partitioning: Partitioning,
    rr_next: usize,
}

impl Table {
    /// Creates an empty table with `npartitions` partitions.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        npartitions: usize,
        partitioning: Partitioning,
    ) -> Self {
        assert!(npartitions > 0, "need at least one partition");
        if let Err(e) = partitioning.validate(&schema, npartitions) {
            panic!("{e}");
        }
        let schema = Arc::new(schema);
        // One shared dictionary per string column, spanning all partitions.
        let dicts: Vec<Option<DictRef>> = schema
            .fields()
            .iter()
            .map(|f| (f.dtype == DataType::Str).then(new_dict))
            .collect();
        let partitions = (0..npartitions)
            .map(|id| {
                let cols = schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| match f.dtype {
                        DataType::Int | DataType::Date => ColumnData::Int(Vec::new()),
                        DataType::Float => ColumnData::Float(Vec::new()),
                        DataType::Str => ColumnData::Str {
                            codes: Vec::new(),
                            dict: Arc::clone(dicts[i].as_ref().unwrap()),
                        },
                    })
                    .collect();
                Arc::new(Partition::new(id, Arc::clone(&schema), cols))
            })
            .collect();
        Table {
            name: name.into(),
            schema,
            partitions,
            dicts,
            partitioning,
            rr_next: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Shared dictionary of a string column (plan building translates
    /// string literals to codes through this).
    pub fn dict(&self, col: usize) -> Option<&DictRef> {
        self.dicts[col].as_ref()
    }

    /// All partitions (shared handles; deref to [`Partition`]).
    pub fn partitions(&self) -> &[Arc<Partition>] {
        &self.partitions
    }

    /// Mutable partition access (update paths). Copy-on-write: if a table
    /// clone (snapshot) still shares this partition, the first write
    /// copies it; otherwise this is a plain in-place borrow.
    pub fn partition_mut(&mut self, id: usize) -> &mut Partition {
        Arc::make_mut(&mut self.partitions[id])
    }

    /// Partition by id.
    pub fn partition(&self, id: usize) -> &Partition {
        &self.partitions[id]
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total visible rows across partitions.
    pub fn visible_len(&self) -> usize {
        self.partitions.iter().map(|p| p.visible_len()).sum()
    }

    /// Routes a row to its partition.
    fn route(&mut self, row: &[Value]) -> usize {
        match &self.partitioning {
            Partitioning::RoundRobin => {
                let p = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.partitions.len();
                p
            }
            Partitioning::KeyRange { col, boundaries } => {
                let key = row[*col].as_int();
                boundaries.partition_point(|&b| b <= key)
            }
        }
    }

    /// Inserts rows, returning the address of each inserted row (the
    /// PatchIndex maintenance needs these to extend its bitmaps).
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> Vec<RowAddr> {
        let mut addrs = Vec::with_capacity(rows.len());
        for row in rows {
            assert_eq!(row.len(), self.schema.len(), "row arity mismatch");
            let pid = self.route(row);
            let p = Arc::make_mut(&mut self.partitions[pid]);
            p.append_row(row);
            addrs.push(RowAddr {
                partition: pid,
                rid: p.visible_len() - 1,
            });
        }
        addrs
    }

    /// Bulk-loads a columnar batch directly into one partition (generator
    /// fast path; bypasses routing).
    pub fn load_partition(&mut self, pid: usize, batch: &[ColumnData]) {
        self.partition_mut(pid).append_batch(batch);
    }

    /// Encodes string values through the table's shared dictionary for
    /// column `col` (generators use this to build sharable batches).
    pub fn encode_strings<S: AsRef<str>>(&self, col: usize, values: &[S]) -> ColumnData {
        let dict = self.dicts[col].as_ref().expect("not a string column");
        let codes = {
            let mut d = dict.write();
            values.iter().map(|s| d.encode(s.as_ref())).collect()
        };
        ColumnData::Str {
            codes,
            dict: Arc::clone(dict),
        }
    }

    /// Deletes visible rows in one partition.
    pub fn delete(&mut self, pid: usize, rids: &[usize]) {
        self.partition_mut(pid).delete(rids);
    }

    /// Patches one column for visible rows in one partition.
    pub fn modify(&mut self, pid: usize, rids: &[usize], col: usize, values: &[Value]) {
        self.partition_mut(pid).modify(rids, col, values);
    }

    /// Propagates deltas in all partitions. A partition with no pending
    /// delta is left as it is, down to the `Arc` around it: a snapshot
    /// that shares it keeps sharing it, with its base and zone maps.
    ///
    /// Each (dirty partition, column) merge is one task on the pool, as
    /// many tasks as the task-size rule allows over the cells they move.
    /// This thread prepares them all first, partition by partition (see
    /// `DeltaStore::column_merges`): it allocates and patches, so the
    /// tasks allocate nothing and string codes come out as a sequential
    /// propagate assigns them. The delta stores and zone maps reset per
    /// partition after the join.
    pub fn propagate_all(&mut self) {
        let mut dirty: Vec<&mut Partition> = self
            .partitions
            .iter_mut()
            .filter(|p| !p.delta().is_empty())
            .map(Arc::make_mut)
            .collect();
        let merges: Vec<ColumnMerge> = dirty.iter_mut().flat_map(|p| p.column_merges()).collect();
        let tasks = tasks_for(merges.iter().map(ColumnMerge::cells).sum(), merges.len());
        let merges: Vec<Mutex<Option<ColumnMerge>>> =
            merges.into_iter().map(|m| Mutex::new(Some(m))).collect();
        fan_out(tasks, |t| {
            for merge in merges.iter().skip(t).step_by(tasks) {
                let merge = merge.lock().expect("each merge is locked once").take();
                merge.expect("each merge runs once").run();
            }
        });
        drop(merges);
        for p in dirty {
            p.finish_propagate();
        }
    }

    /// The routing policy (checkpointed by the durability layer so
    /// recovery routes replayed inserts identically).
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The round-robin routing cursor. Advances once per inserted row
    /// under [`Partitioning::RoundRobin`]; replay determinism requires
    /// restoring it alongside the data (see [`Table::restore`]).
    pub fn rr_cursor(&self) -> usize {
        self.rr_next
    }

    /// Rebuilds a table from checkpointed state: the partitions (each
    /// reassembled with [`Partition::restore`], base and pending deltas
    /// as they were checkpointed), the shared dictionaries, and the
    /// routing state. Partition `i` must have id `i` and share `schema`;
    /// its string columns must reference the matching entry of `dicts`,
    /// and `partitioning` must pass [`Partitioning::validate`].
    pub fn restore(
        name: impl Into<String>,
        schema: Arc<Schema>,
        partitions: Vec<Partition>,
        dicts: Vec<Option<DictRef>>,
        partitioning: Partitioning,
        rr_cursor: usize,
    ) -> Self {
        assert!(!partitions.is_empty(), "need at least one partition");
        assert_eq!(dicts.len(), schema.len(), "one dict slot per column");
        if let Err(e) = partitioning.validate(&schema, partitions.len()) {
            panic!("{e}");
        }
        let partitions: Vec<Arc<Partition>> = partitions
            .into_iter()
            .enumerate()
            .map(|(id, p)| {
                assert_eq!(p.id, id, "partition out of place");
                assert!(Arc::ptr_eq(p.schema(), &schema), "partition schema differs");
                Arc::new(p)
            })
            .collect();
        let rr_next = rr_cursor % partitions.len();
        Table {
            name: name.into(),
            schema,
            partitions,
            dicts,
            partitioning,
            rr_next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::Str),
        ])
    }

    fn row(k: i64, name: &str) -> Vec<Value> {
        vec![Value::Int(k), Value::from(name)]
    }

    #[test]
    fn round_robin_routing() {
        let mut t = Table::new("t", schema(), 3, Partitioning::RoundRobin);
        let addrs = t.insert_rows(&[row(1, "a"), row(2, "b"), row(3, "c"), row(4, "d")]);
        assert_eq!(
            addrs[0],
            RowAddr {
                partition: 0,
                rid: 0
            }
        );
        assert_eq!(
            addrs[1],
            RowAddr {
                partition: 1,
                rid: 0
            }
        );
        assert_eq!(
            addrs[3],
            RowAddr {
                partition: 0,
                rid: 1
            }
        );
        assert_eq!(t.visible_len(), 4);
    }

    #[test]
    fn key_range_routing() {
        let mut t = Table::new(
            "t",
            schema(),
            3,
            Partitioning::KeyRange {
                col: 0,
                boundaries: vec![10, 20],
            },
        );
        let addrs = t.insert_rows(&[row(5, "a"), row(10, "b"), row(15, "c"), row(25, "d")]);
        assert_eq!(addrs[0].partition, 0);
        assert_eq!(addrs[1].partition, 1);
        assert_eq!(addrs[2].partition, 1);
        assert_eq!(addrs[3].partition, 2);
    }

    #[test]
    fn string_dictionary_shared_across_partitions() {
        let mut t = Table::new("t", schema(), 2, Partitioning::RoundRobin);
        t.insert_rows(&[row(1, "x"), row(2, "x")]);
        // Both partitions hold code 0 referring to the same dict.
        let d0 = t.partition(0).value_at(1, 0);
        let d1 = t.partition(1).value_at(1, 0);
        assert_eq!(d0, Value::from("x"));
        assert_eq!(d1, Value::from("x"));
        assert_eq!(t.dict(1).unwrap().read().len(), 1);
        assert!(t.dict(0).is_none());
    }

    #[test]
    fn delete_and_modify_roundtrip() {
        let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
        t.insert_rows(&[row(1, "a"), row(2, "b"), row(3, "c")]);
        t.delete(0, &[0]);
        t.modify(0, &[0], 1, &[Value::from("z")]);
        assert_eq!(t.visible_len(), 2);
        assert_eq!(t.partition(0).value_at(1, 0), Value::from("z"));
        assert_eq!(t.partition(0).value_at(0, 1), Value::Int(3));
    }

    /// Pending string modifies are encoded when the writer applies them:
    /// a scan in between neither adds to the dictionary nor changes the
    /// codes and dictionary the propagate leaves.
    #[test]
    fn a_scan_before_the_propagate_leaves_the_same_dictionary() {
        let run = |scan: bool| {
            let mut t = Table::new("t", schema(), 1, Partitioning::RoundRobin);
            let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
            t.insert_rows(
                &(0..8)
                    .map(|k| row(k, names[k as usize]))
                    .collect::<Vec<_>>(),
            );
            t.propagate_all();
            t.modify(0, &[5], 1, &[Value::from("y")]);
            t.modify(0, &[2], 1, &[Value::from("z")]);
            let dict = Arc::clone(t.dict(1).unwrap());
            if scan {
                let len = dict.read().len();
                let window = t.partition(0).read_range(&[1], 4, 4).pop().unwrap();
                assert_eq!(window.value(1), Value::from("y"));
                assert_eq!(dict.read().len(), len, "the scan changed the dictionary");
            }
            t.modify(0, &[5], 1, &[Value::from("w")]);
            t.propagate_all();
            let codes = t.partition(0).read_range(&[1], 0, 8).pop().unwrap();
            let dict = dict.read();
            let strings: Vec<String> = (0..dict.len() as u32)
                .map(|c| dict.decode(c).to_string())
                .collect();
            (codes.as_codes().to_vec(), strings)
        };
        let (codes, strings) = run(false);
        assert_eq!(
            strings,
            ["a", "b", "c", "d", "e", "f", "g", "h", "y", "z", "w"]
        );
        assert_eq!(run(true), (codes, strings));
    }

    #[test]
    fn load_partition_bulk() {
        let mut t = Table::new("t", schema(), 2, Partitioning::RoundRobin);
        let names = t.encode_strings(1, &["p", "q"]);
        t.load_partition(1, &[ColumnData::Int(vec![7, 8]), names]);
        assert_eq!(t.partition(1).visible_len(), 2);
        assert_eq!(t.partition(0).visible_len(), 0);
        assert_eq!(t.partition(1).value_at(1, 1), Value::from("q"));
    }

    #[test]
    fn propagate_all_flushes_deltas() {
        let mut t = Table::new("t", schema(), 2, Partitioning::RoundRobin);
        t.insert_rows(&[row(1, "a"), row(2, "b")]);
        t.propagate_all();
        assert!(t.partitions().iter().all(|p| p.delta().is_empty()));
        assert_eq!(t.visible_len(), 2);
    }

    #[test]
    #[should_panic(expected = "boundary count mismatch")]
    fn bad_boundaries_panic() {
        Table::new(
            "t",
            schema(),
            3,
            Partitioning::KeyRange {
                col: 0,
                boundaries: vec![1],
            },
        );
    }

    #[test]
    fn validate_refuses_routing_the_schema_cannot_serve() {
        let key_range = |col, boundaries: &[i64]| Partitioning::KeyRange {
            col,
            boundaries: boundaries.to_vec(),
        };
        assert_eq!(key_range(0, &[10, 20]).validate(&schema(), 3), Ok(()));
        assert_eq!(Partitioning::RoundRobin.validate(&schema(), 3), Ok(()));
        let cases = [
            (key_range(7, &[10, 20]), "column 7 out of range"),
            (key_range(1, &[10, 20]), "int-backed, column 1 is Str"),
            (key_range(0, &[10, 20, 30]), "3 boundaries for 3 partitions"),
            (key_range(0, &[20, 10]), "not sorted"),
        ];
        for (routing, want) in cases {
            let err = routing.validate(&schema(), 3).unwrap_err();
            assert!(err.contains(want), "{routing:?}: {err}");
        }
    }
}
