//! Per-operator execution observation.
//!
//! A [`MeterOp`] transparently wraps another operator and charges every
//! `next` call to a shared [`OpMeter`]: that it was pulled at all, and
//! the batches, rows and wall clock it produced. Under EXPLAIN ANALYZE
//! the planner's lowering wraps every plan node and global combine in
//! one; the pulled flags say which partitions the execution visited (a
//! combine that stops early, such as a pushed-down `LIMIT` under a
//! union, leaves later pipelines unpulled).
//! A partition's pipeline may run as a pool task and is metered there,
//! while its meters are read on the caller's thread after the join. The
//! counters are therefore relaxed atomics behind an [`Arc`]: only the
//! operator's thread writes them, and the join orders those writes
//! before any read.
//!
//! The recorded time is inclusive of the operator's children (each
//! `next` pulls recursively), one `Instant` pair per batch — the same
//! amortized cost profile as the batches themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use crate::batch::Batch;
use crate::op::{OpRef, Operator};

/// Accumulated per-operator counters, shared between a [`MeterOp`] and
/// whoever reads them afterwards (via [`Arc`], so they outlive the
/// operator tree and may be read on another thread).
#[derive(Debug, Default)]
pub struct OpMeter {
    pulled: AtomicBool,
    batches: AtomicU64,
    rows_out: AtomicU64,
    nanos: AtomicU64,
}

impl OpMeter {
    /// Whether the metered operator was pulled at least once.
    pub fn pulled(&self) -> bool {
        self.pulled.load(Relaxed)
    }

    /// Batches pulled out of the metered operator (including empties).
    pub fn batches(&self) -> u64 {
        self.batches.load(Relaxed)
    }

    /// Rows the metered operator emitted.
    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Relaxed)
    }

    /// Wall clock spent inside the metered operator's `next`, inclusive
    /// of its children, in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Relaxed)
    }
}

/// Wraps an operator, charging every pull to `meter`.
pub struct MeterOp<'a> {
    inner: OpRef<'a>,
    meter: Arc<OpMeter>,
}

impl<'a> MeterOp<'a> {
    /// Creates a meter around `inner` reporting to `meter`.
    pub fn new(inner: OpRef<'a>, meter: Arc<OpMeter>) -> Self {
        MeterOp { inner, meter }
    }
}

impl Operator for MeterOp<'_> {
    fn next(&mut self) -> Option<Batch> {
        let m = &*self.meter;
        m.pulled.store(true, Relaxed);
        let start = Instant::now();
        let out = self.inner.next();
        m.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        if let Some(b) = &out {
            m.batches.fetch_add(1, Relaxed);
            m.rows_out.fetch_add(b.len() as u64, Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{collect, BatchSource};
    use crate::ops::merge::{LimitOp, UnionAllOp};
    use pi_storage::ColumnData;

    #[test]
    fn meter_is_transparent_and_counts() {
        let meter = Arc::new(OpMeter::default());
        let src = Box::new(BatchSource::new(vec![
            Batch::new(vec![ColumnData::Int(vec![1, 2, 3])]),
            Batch::new(vec![ColumnData::Int(vec![4])]),
        ]));
        let mut op = MeterOp::new(src, Arc::clone(&meter));
        assert_eq!(collect(&mut op).column(0).as_int(), &[1, 2, 3, 4]);
        assert!(meter.pulled());
        assert_eq!(meter.batches(), 2);
        assert_eq!(meter.rows_out(), 4);
    }

    #[test]
    fn limit_leaves_later_inputs_unpulled_and_unmetered() {
        let meters: Vec<Arc<OpMeter>> = (0..3).map(|_| Arc::default()).collect();
        let inputs: Vec<OpRef<'_>> = [&[1i64, 2, 3][..], &[4, 5], &[6]]
            .into_iter()
            .zip(&meters)
            .map(|(vals, m)| {
                let src = Box::new(BatchSource::single(Batch::new(vec![ColumnData::Int(
                    vals.to_vec(),
                )])));
                Box::new(MeterOp::new(src, Arc::clone(m))) as OpRef<'_>
            })
            .collect();
        // The limit is satisfied by the first input alone; the union
        // never reaches the later ones.
        let mut op = LimitOp::new(Box::new(UnionAllOp::new(inputs)), 2);
        assert_eq!(collect(&mut op).column(0).as_int(), &[1, 2]);
        assert!(meters[0].pulled());
        assert_eq!(meters[0].batches(), 1);
        for later in &meters[1..] {
            assert!(!later.pulled());
            assert_eq!(later.batches(), 0);
        }
    }
}
