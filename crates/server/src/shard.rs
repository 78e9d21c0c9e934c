//! One shard: a `ConcurrentTable` with a dedicated writer thread
//! consuming a bounded statement queue.
//!
//! The queue is the admission-control point: statements are sequenced
//! and enqueued under one lock (so per-shard sequence order *is* queue
//! order *is* apply order), and a full queue rejects with `ServerBusy`
//! instead of blocking the connection. The writer thread applies
//! statements in order, publishes every
//! [`crate::ServerConfig::publish_every`] statements, and records
//! `(epoch, last applied sequence)` after each publish — the pair that
//! lets readers tag every response with the exact statement prefix it
//! reflects (the contract the prefix-replay property test checks).
//!
//! Closing the queue drains it: the writer applies every remaining
//! statement, publishes, and exits — graceful shutdown is "close all
//! queues, join all writers".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use patchindex::{
    ConcurrentTable, IndexedTable, ResultCache, Statement, TableSnapshot, TableWriter,
};
use pi_advisor::{split_budget, Advisor, AdvisorConfig};
use pi_obs::{Gauge, MetricsRegistry};

use crate::protocol::{ErrorCode, ServerError};
use crate::ServerConfig;

pub(crate) enum ShardMsg {
    Statement {
        seq: u64,
        stmt: Statement,
    },
    /// Publish, ack with the new epoch.
    Publish {
        ack: mpsc::Sender<u64>,
    },
    /// Park the writer until the sender side drops (test hook for
    /// deterministic backpressure). `parked` acks right before the
    /// writer parks, so the holder knows the queue is no longer being
    /// consumed.
    Hold {
        parked: mpsc::Sender<()>,
        until: mpsc::Receiver<()>,
    },
}

struct EnqueueState {
    sender: Option<SyncSender<ShardMsg>>,
    next_seq: u64,
}

impl EnqueueState {
    /// Sends `msg` without blocking: a closed or exited queue refuses
    /// with `ShuttingDown`, a full one with `ServerBusy`.
    fn send(&self, msg: ShardMsg) -> Result<(), ServerError> {
        let Some(sender) = self.sender.as_ref() else {
            return Err(ServerError::new(
                ErrorCode::ShuttingDown,
                "shard queue closed",
            ));
        };
        sender.try_send(msg).map_err(|e| match e {
            TrySendError::Full(_) => {
                ServerError::new(ErrorCode::ServerBusy, "statement queue full; retry")
            }
            TrySendError::Disconnected(_) => {
                ServerError::new(ErrorCode::ShuttingDown, "shard writer exited")
            }
        })
    }
}

/// A shard handle: the read side (`table`), the sequenced enqueue path,
/// and the `(epoch, seq)` watermark its writer maintains.
pub(crate) struct Shard {
    pub(crate) table: ConcurrentTable,
    state: Mutex<EnqueueState>,
    applied: Arc<Mutex<(u64, u64)>>,
    /// Read-side benefit (query nanos served) — the advisor budget
    /// split's currency, shared with every shard's writer loop.
    pub(crate) benefit_nanos: Arc<AtomicU64>,
    queue_depth: Arc<Gauge>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Shard {
    pub(crate) fn spawn(
        id: usize,
        table: IndexedTable,
        registry: &Arc<MetricsRegistry>,
        cfg: &ServerConfig,
        all_benefits: &[Arc<AtomicU64>],
    ) -> Shard {
        // `with_registry` so hits/misses/invalidations surface in this
        // shard's section of the `METRICS` document.
        let cache = (cfg.cache_budget_bytes > 0)
            .then(|| ResultCache::with_registry(cfg.cache_budget_bytes, registry));
        let (table, writer) =
            ConcurrentTable::with_observability(table, cache, Arc::clone(registry));
        let applied = Arc::new(Mutex::new((table.epoch(), 0)));
        let (tx, rx) = mpsc::sync_channel(cfg.queue_capacity);
        let queue_depth = registry.gauge("queue.depth");
        // `WriterLoop::advise` sets the budget share before every step.
        let advisor = (cfg.advise_every > 0)
            .then(|| Advisor::with_metrics(AdvisorConfig::default(), registry));
        let loop_ctx = WriterLoop {
            writer,
            rx,
            applied: Arc::clone(&applied),
            publish_every: cfg.publish_every.max(1),
            queue_depth: Arc::clone(&queue_depth),
            statements: registry.counter("statements"),
            statements_refused: registry.counter("statements_refused"),
            advisor,
            advise_every: cfg.advise_every,
            advisor_budget_bytes: cfg.advisor_budget_bytes,
            shard_id: id,
            all_benefits: all_benefits.to_vec(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("pi-shard-{id}"))
            .spawn(move || loop_ctx.run())
            .expect("spawn shard writer");
        Shard {
            table,
            state: Mutex::new(EnqueueState {
                sender: Some(tx),
                next_seq: 0,
            }),
            applied,
            benefit_nanos: Arc::clone(&all_benefits[id]),
            queue_depth,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Sequences and enqueues one statement. The returned sequence
    /// number is this shard's statement-log position: a snapshot whose
    /// watermark seq is `>= seq` reflects this statement.
    pub(crate) fn enqueue(&self, stmt: Statement) -> Result<u64, ServerError> {
        let mut st = self.state.lock().unwrap();
        let seq = st.next_seq + 1;
        st.send(ShardMsg::Statement { seq, stmt })?;
        st.next_seq = seq;
        self.queue_depth.add(1);
        Ok(seq)
    }

    /// Enqueues a control message (publish / hold).
    pub(crate) fn control(&self, msg: ShardMsg) -> Result<(), ServerError> {
        self.state.lock().unwrap().send(msg)
    }

    /// A snapshot paired with the exact statement prefix it reflects.
    /// Publish (epoch swap) and watermark update are two steps; the
    /// retry loop waits out the nanoseconds-wide window between them.
    pub(crate) fn consistent_snapshot(&self) -> (TableSnapshot, u64) {
        loop {
            let (epoch, seq) = *self.applied.lock().unwrap();
            let snap = self.table.snapshot();
            if snap.epoch() == epoch {
                return (snap, seq);
            }
            std::thread::yield_now();
        }
    }

    /// Closes the queue (new statements get `ShuttingDown`) and joins
    /// the writer, which drains every queued statement through a final
    /// publish first.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().sender = None;
        if let Some(h) = self.handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

struct WriterLoop {
    writer: TableWriter,
    rx: Receiver<ShardMsg>,
    applied: Arc<Mutex<(u64, u64)>>,
    publish_every: u64,
    queue_depth: Arc<Gauge>,
    statements: Arc<pi_obs::Counter>,
    statements_refused: Arc<pi_obs::Counter>,
    advisor: Option<Advisor>,
    advise_every: u64,
    advisor_budget_bytes: usize,
    shard_id: usize,
    all_benefits: Vec<Arc<AtomicU64>>,
}

impl WriterLoop {
    fn run(mut self) {
        let mut last_seq = 0u64;
        let mut since_publish = 0u64;
        let mut since_advise = 0u64;
        // `recv` until disconnect drains the queue before returning: a
        // closed channel still yields every message already sent.
        while let Ok(msg) = self.rx.recv() {
            match msg {
                ShardMsg::Statement { seq, stmt } => {
                    self.queue_depth.add(-1);
                    self.statements.inc();
                    self.apply(stmt);
                    last_seq = seq;
                    since_publish += 1;
                    if since_publish >= self.publish_every {
                        self.publish(last_seq);
                        since_publish = 0;
                    }
                    since_advise += 1;
                    if self.advisor.is_some() && since_advise >= self.advise_every {
                        self.advise(last_seq);
                        since_advise = 0;
                    }
                }
                ShardMsg::Publish { ack } => {
                    self.publish(last_seq);
                    since_publish = 0;
                    let _ = ack.send(self.writer.epoch());
                }
                ShardMsg::Hold { parked, until } => {
                    // Parked until the test-side guard drops its sender.
                    let _ = parked.send(());
                    let _ = until.recv();
                }
            }
        }
        // Queue closed: everything above already applied; drain through
        // a final publish so acknowledged statements are visible (and
        // durable via any wrapped WAL) before the join.
        self.publish(last_seq);
    }

    /// Applies one statement. Admission ran [`Statement::check`] against
    /// the published snapshot, but a statement queued ahead may have
    /// shrunk the partition since: a statement the same check refuses
    /// against the staging table is a no-op, counted in
    /// `statements_refused`. Its sequence number is still consumed.
    fn apply(&mut self, stmt: Statement) {
        let staging = self.writer.staging();
        if stmt.check(staging.table(), staging.indexes().len()).is_ok() {
            self.writer.staging_mut().apply(&stmt);
        } else {
            self.statements_refused.inc();
        }
    }

    fn publish(&mut self, last_seq: u64) {
        let epoch = self.writer.publish();
        *self.applied.lock().unwrap() = (epoch, last_seq);
    }

    fn advise(&mut self, last_seq: u64) {
        let benefits: Vec<f64> = self
            .all_benefits
            .iter()
            .map(|b| b.load(Ordering::Relaxed) as f64)
            .collect();
        let share = split_budget(self.advisor_budget_bytes, &benefits)[self.shard_id];
        let advisor = self.advisor.as_mut().unwrap();
        advisor.set_memory_budget(share);
        advisor.step_writer(&mut self.writer);
        *self.applied.lock().unwrap() = (self.writer.epoch(), last_seq);
    }
}
