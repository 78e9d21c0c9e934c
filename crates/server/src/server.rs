//! The TCP frontend: accept loop, per-connection request loop, command
//! dispatch, and the cross-shard fan-out/combine paths.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use patchindex::routing::route_row;
use patchindex::{ConcurrentTable, IndexedTable, Statement, TableSnapshot};
use pi_exec::parallel::fan_out;
use pi_obs::{Counter, Histogram, MetricsRegistry};
use pi_planner::{Plan, QueryEngine};
use pi_storage::{DataType, Partitioning, Schema, Table, Value};

use crate::combine::{combine_batches, render_combined};
use crate::config::ServerConfig;
use crate::protocol::{parse_value, read_request, write_response, ErrorCode, ServerError};
use crate::shard::{Shard, ShardMsg};
use crate::spec::QuerySpec;

/// A running PatchIndex server: N hash-routed shards behind one TCP
/// listener. Dropping the handle shuts the server down gracefully
/// (drain queues → publish → join); [`Server::shutdown`] does the same
/// explicitly.
pub struct Server {
    inner: Arc<ServerInner>,
    listener_thread: Option<JoinHandle<()>>,
}

struct ServerInner {
    dtypes: Vec<DataType>,
    shards: Vec<Shard>,
    route_col: usize,
    registry: Arc<MetricsRegistry>,
    shard_registries: Vec<Arc<MetricsRegistry>>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
    requests: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    connections: Arc<Counter>,
    query_nanos: Arc<Histogram>,
}

/// Keeps one shard's writer parked while it exists — the deterministic
/// backpressure hook used by tests to fill a statement queue. Dropping
/// the guard releases the writer.
pub struct HoldGuard {
    _tx: mpsc::Sender<()>,
}

impl Server {
    /// Starts a server over pre-built shard tables (one `IndexedTable`
    /// per shard, identical schemas) and binds `127.0.0.1:0`; the bound
    /// port is [`Server::addr`].
    pub fn start(cfg: ServerConfig, tables: Vec<IndexedTable>) -> io::Result<Server> {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert_eq!(tables.len(), cfg.shards, "one table per shard");
        let dtypes_of = |t: &IndexedTable| -> Vec<DataType> {
            let fields = t.table().schema().fields();
            fields.iter().map(|f| f.dtype).collect()
        };
        let dtypes = dtypes_of(&tables[0]);
        for t in &tables {
            assert_eq!(dtypes_of(t), dtypes, "shard schemas must match");
        }
        assert!(cfg.route_col < dtypes.len(), "route_col out of range");

        let registry = Arc::new(MetricsRegistry::new());
        let benefits: Vec<Arc<AtomicU64>> = (0..cfg.shards)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let shard_registries: Vec<Arc<MetricsRegistry>> = (0..cfg.shards)
            .map(|_| Arc::new(MetricsRegistry::new()))
            .collect();
        let shards: Vec<Shard> = (tables.into_iter().enumerate())
            .map(|(id, t)| Shard::spawn(id, t, &shard_registries[id], &cfg, &benefits))
            .collect();

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            dtypes,
            shards,
            route_col: cfg.route_col,
            requests: registry.counter("server.requests"),
            busy_rejections: registry.counter("server.busy_rejections"),
            connections: registry.counter("server.connections"),
            query_nanos: registry.histogram("server.query.nanos"),
            registry,
            shard_registries,
            shutting_down: AtomicBool::new(false),
            addr,
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let accept_inner = Arc::clone(&inner);
        let listener_thread = std::thread::Builder::new()
            .name("pi-server-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))
            .expect("spawn accept loop");
        Ok(Server {
            inner,
            listener_thread: Some(listener_thread),
        })
    }

    /// Starts a server over empty shards of the given schema, each with
    /// `partitions_per_shard` round-robin partitions.
    pub fn empty(
        cfg: ServerConfig,
        schema: Schema,
        partitions_per_shard: usize,
    ) -> io::Result<Server> {
        let tables = (0..cfg.shards)
            .map(|i| {
                IndexedTable::new(Table::new(
                    format!("shard{i}"),
                    schema.clone(),
                    partitions_per_shard,
                    Partitioning::RoundRobin,
                ))
            })
            .collect();
        Server::start(cfg, tables)
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Read handles on the shard tables, in shard order — for audits
    /// and in-process readers; snapshots taken here see exactly what
    /// served queries see.
    pub fn tables(&self) -> Vec<ConcurrentTable> {
        self.inner.shards.iter().map(|s| s.table.clone()).collect()
    }

    /// The server-level metrics registry (connection/request counters,
    /// query latency histogram). Each shard's queue and statement
    /// metrics live in that shard's registry
    /// ([`ConcurrentTable::metrics`]), which `METRICS` serves under
    /// `"shards"`.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.registry
    }

    /// The combined metrics document served by `METRICS`.
    pub fn metrics_json(&self) -> String {
        self.inner.metrics_json()
    }

    /// Parks shard `sid`'s writer until the returned guard drops. Test
    /// hook: with the writer parked, `queue_capacity` statements fill
    /// the queue and the next one is rejected `ServerBusy`. Returns
    /// once the writer is actually parked, so admission counts are
    /// deterministic from the first statement on.
    pub fn hold_shard(&self, sid: usize) -> HoldGuard {
        let (tx, rx) = mpsc::channel();
        let (parked_tx, parked_rx) = mpsc::channel();
        self.inner.shards[sid]
            .control(ShardMsg::Hold {
                parked: parked_tx,
                until: rx,
            })
            .expect("hold message admitted");
        parked_rx.recv().expect("writer parked");
        HoldGuard { _tx: tx }
    }

    /// Graceful shutdown: stop admitting work, drain every shard queue
    /// through a final publish, join writers and connection
    /// threads. Also runs on drop; calling it twice is a no-op.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drain and join shard writers first: every acknowledged
        // statement reaches a published epoch before the sockets close.
        for shard in &self.inner.shards {
            shard.close();
        }
        // Wake the accept loop so it observes the flag, then join it.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(h) = self.listener_thread.take() {
            let _ = h.join();
        }
        // Unblock connection readers and join them.
        for (_, stream) in self.inner.conns.lock().unwrap().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let threads: Vec<JoinHandle<()>> =
            self.inner.conn_threads.lock().unwrap().drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(inner: Arc<ServerInner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let id = inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            inner.conns.lock().unwrap().insert(id, clone);
        }
        inner.connections.inc();
        let conn_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name(format!("pi-server-conn-{id}"))
            .spawn(move || {
                conn_loop(&conn_inner, stream);
                conn_inner.conns.lock().unwrap().remove(&id);
            });
        match spawned {
            Ok(handle) => {
                // A finished connection's handle has nothing left to join.
                let mut threads = inner.conn_threads.lock().unwrap();
                threads.retain(|h| !h.is_finished());
                threads.push(handle);
            }
            // No thread to serve it: dropping both halves of the stream
            // closes the connection.
            Err(_) => drop(inner.conns.lock().unwrap().remove(&id)),
        }
    }
}

fn conn_loop(inner: &ServerInner, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match read_request(&mut reader) {
            Ok(None) => break,
            Ok(Some((mode, Ok(line)))) => {
                inner.requests.inc();
                let payload = match inner.dispatch(&line) {
                    Ok(p) => p,
                    Err(e) => {
                        if e.code == ErrorCode::ServerBusy {
                            inner.busy_rejections.inc();
                        }
                        e.render()
                    }
                };
                if write_response(&mut writer, mode, &payload).is_err() {
                    break;
                }
            }
            Ok(Some((mode, Err(frame_err)))) => {
                // The stream position is unreliable after a framing
                // error: report and close.
                let _ = write_response(&mut writer, mode, &frame_err.render());
                break;
            }
            Err(_) => break,
        }
    }
}

impl ServerInner {
    fn dispatch(&self, line: &str) -> Result<String, ServerError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(ServerError::new(
                ErrorCode::ShuttingDown,
                "server is draining",
            ));
        }
        let line = line.trim();
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rest = rest.trim();
        match word.to_ascii_uppercase().as_str() {
            "PING" => Ok("OK pong".into()),
            "QUERY" => self.query(rest),
            "COUNT" => self.count(rest),
            "EXPLAIN" => self.explain(rest),
            "INSERT" => self.insert(rest),
            "MODIFY" => self.modify(rest),
            "DELETE" => self.delete(rest),
            "PUBLISH" => self.publish(),
            "METRICS" => Ok(self.metrics_json()),
            other => Err(ServerError::new(
                ErrorCode::BadCommand,
                format!("unknown command {other:?}"),
            )),
        }
    }

    fn checked_spec(&self, text: &str) -> Result<QuerySpec, ServerError> {
        let spec = QuerySpec::parse(text)?;
        for &c in &spec.scan {
            if c >= self.dtypes.len() {
                return Err(ServerError::new(
                    ErrorCode::BadPlan,
                    format!(
                        "scan column {c} out of range (table has {} columns)",
                        self.dtypes.len()
                    ),
                ));
            }
        }
        // Hash aggregation groups integer-backed keys only.
        for &p in spec.distinct.iter().flatten() {
            if self.dtypes[spec.scan[p]] == DataType::Float {
                return Err(ServerError::new(
                    ErrorCode::BadPlan,
                    format!("distinct position {p} is a Float column"),
                ));
            }
        }
        Ok(spec)
    }

    /// Runs `read` over the fan-out plan on every shard's consistent
    /// snapshot, one task per shard on the process-wide fan-out pool, this
    /// connection's thread taking part. Results come back in shard order
    /// with the `(epoch, seq)` watermark each shard was read at; each
    /// shard's elapsed read time feeds its benefit counter (the advisor
    /// budget-split currency).
    fn fanout<T: Send>(
        &self,
        spec: &QuerySpec,
        read: impl Fn(&TableSnapshot, &Plan) -> T + Sync,
    ) -> Vec<(u64, u64, T)> {
        let plan = spec.fanout_plan();
        fan_out(self.shards.len(), |s| {
            let shard = &self.shards[s];
            let (snap, seq) = shard.consistent_snapshot();
            let t0 = Instant::now();
            let out = read(&snap, &plan);
            shard
                .benefit_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            (snap.epoch(), seq, out)
        })
    }

    fn epochs_field<T>(results: &[(u64, u64, T)]) -> String {
        results
            .iter()
            .enumerate()
            .map(|(s, (e, q, _))| format!("{s}:{e}@{q}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn query(&self, rest: &str) -> Result<String, ServerError> {
        let spec = self.checked_spec(rest)?;
        let t0 = Instant::now();
        let results = self.fanout(&spec, |snap, plan| snap.query(plan));
        let rows = combine_batches(&spec, results.iter().map(|(_, _, batch)| batch));
        self.query_nanos.record(t0.elapsed().as_nanos() as u64);
        let (n, epochs) = (rows.len(), Self::epochs_field(&results));
        let mut out = format!("OK rows={n} cols={} epochs={epochs}", spec.output_width());
        render_combined(&rows, &mut out);
        Ok(out)
    }

    fn count(&self, rest: &str) -> Result<String, ServerError> {
        let spec = self.checked_spec(rest)?;
        let results = self.fanout(&spec, |snap, plan| snap.query(plan));
        let batches = results.iter().map(|(_, _, batch)| batch);
        // Distinct counts are not shard-additive: count the combined
        // result for them.
        let count = if spec.distinct.is_some() {
            combine_batches(&spec, batches).len()
        } else {
            let sum: usize = batches.map(|batch| batch.len()).sum();
            spec.limit.map_or(sum, |n| sum.min(n))
        };
        Ok(format!(
            "OK count={count} epochs={}",
            Self::epochs_field(&results)
        ))
    }

    /// The one request that observes an execution: every shard runs the
    /// plan under EXPLAIN ANALYZE and answers with its trace.
    fn explain(&self, rest: &str) -> Result<String, ServerError> {
        let spec = self.checked_spec(rest)?;
        let results = self.fanout(&spec, |snap, plan| snap.explain_analyze(plan));
        let mut out = format!(
            "OK shards={} epochs={}",
            results.len(),
            Self::epochs_field(&results)
        );
        for (s, (epoch, _, trace)) in results.iter().enumerate() {
            out.push_str(&format!("\n-- shard {s} epoch {epoch}\n"));
            out.push_str(trace.render_text().trim_end());
        }
        Ok(out)
    }

    fn insert(&self, rest: &str) -> Result<String, ServerError> {
        if rest.is_empty() {
            return Err(ServerError::new(ErrorCode::BadCommand, "INSERT needs rows"));
        }
        let mut groups: Vec<Vec<Vec<Value>>> = vec![Vec::new(); self.shards.len()];
        for row_text in rest.split(';') {
            let cells: Vec<&str> = row_text.split(',').collect();
            if cells.len() != self.dtypes.len() {
                return Err(ServerError::new(
                    ErrorCode::BadValue,
                    format!(
                        "row has {} values, schema has {}",
                        cells.len(),
                        self.dtypes.len()
                    ),
                ));
            }
            let row: Vec<Value> = cells
                .iter()
                .zip(&self.dtypes)
                .map(|(cell, &dtype)| parse_value(cell.trim(), dtype))
                .collect::<Result<_, _>>()?;
            groups[route_row(&row, self.route_col, self.shards.len())].push(row);
        }
        let mut acks = Vec::new();
        for (sid, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            match self.shards[sid].enqueue(Statement::Insert(group)) {
                Ok(seq) => acks.push(format!("{sid}:{seq}")),
                Err(mut e) => {
                    // Earlier shard groups are already enqueued; report
                    // them so the client knows the partial admission.
                    if !acks.is_empty() {
                        e.msg = format!("{} (accepted {})", e.msg, acks.join(","));
                    }
                    return Err(e);
                }
            }
        }
        Ok(format!("OK shards={}", acks.join(",")))
    }

    fn checked_shard(&self, token: &str) -> Result<usize, ServerError> {
        let sid: usize = token.parse().map_err(|_| {
            ServerError::new(ErrorCode::BadShard, format!("not a shard: {token:?}"))
        })?;
        if sid >= self.shards.len() {
            return Err(ServerError::new(
                ErrorCode::BadShard,
                format!("shard {sid} out of range ({} shards)", self.shards.len()),
            ));
        }
        Ok(sid)
    }

    /// Admits a `MODIFY` or `DELETE`: [`Statement::check`] against the
    /// shard's published snapshot, then the queue (the shard writer runs
    /// the same check against its staging table).
    fn admit(&self, sid: usize, stmt: Statement) -> Result<String, ServerError> {
        let (snap, _) = self.shards[sid].consistent_snapshot();
        stmt.check(snap.table(), snap.indexes().len())
            .map_err(|e| ServerError::new(ErrorCode::BadValue, e))?;
        let seq = self.shards[sid].enqueue(stmt)?;
        Ok(format!("OK shard={sid} seq={seq}"))
    }

    fn modify(&self, rest: &str) -> Result<String, ServerError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [sid, pid, col, assignments] = parts[..] else {
            return Err(ServerError::new(
                ErrorCode::BadCommand,
                "usage: MODIFY <shard> <pid> <col> <rid>=<val>[,...]",
            ));
        };
        let sid = self.checked_shard(sid)?;
        let pid = parse_index(pid, "partition")?;
        let col = parse_index(col, "column")?;
        let dtype = *self.dtypes.get(col).ok_or_else(|| {
            ServerError::new(ErrorCode::BadValue, format!("column {col} out of range"))
        })?;
        let mut rids = Vec::new();
        let mut values = Vec::new();
        for pair in assignments.split(',') {
            let (rid, val) = pair.split_once('=').ok_or_else(|| {
                ServerError::new(
                    ErrorCode::BadCommand,
                    format!("assignment must be rid=val, got {pair:?}"),
                )
            })?;
            rids.push(parse_index(rid, "row id")?);
            values.push(parse_value(val, dtype)?);
        }
        let stmt = Statement::Modify {
            pid,
            rids,
            col,
            values,
        };
        self.admit(sid, stmt)
    }

    fn delete(&self, rest: &str) -> Result<String, ServerError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [sid, pid, rid_list] = parts[..] else {
            return Err(ServerError::new(
                ErrorCode::BadCommand,
                "usage: DELETE <shard> <pid> <rid>[,...]",
            ));
        };
        let sid = self.checked_shard(sid)?;
        let pid = parse_index(pid, "partition")?;
        let rids = rid_list
            .split(',')
            .map(|rid| parse_index(rid, "row id"))
            .collect::<Result<_, _>>()?;
        self.admit(sid, Statement::Delete { pid, rids })
    }

    fn publish(&self) -> Result<String, ServerError> {
        let mut acks = Vec::new();
        for shard in &self.shards {
            let (tx, rx) = mpsc::channel();
            shard.control(ShardMsg::Publish { ack: tx })?;
            acks.push(rx);
        }
        let mut epochs = Vec::new();
        for (sid, rx) in acks.into_iter().enumerate() {
            let epoch = rx
                .recv()
                .map_err(|_| ServerError::new(ErrorCode::ShuttingDown, "shard writer exited"))?;
            epochs.push(format!("{sid}:{epoch}"));
        }
        Ok(format!("OK epochs={}", epochs.join(",")))
    }

    fn metrics_json(&self) -> String {
        let shards: Vec<String> = (self.shard_registries.iter().enumerate())
            .map(|(sid, reg)| format!("\"{sid}\":{}", reg.snapshot_json()))
            .collect();
        let server = self.registry.snapshot_json();
        format!(
            "{{\"server\":{server},\"shards\":{{{}}}}}",
            shards.join(",")
        )
    }
}

/// Parses a partition, column or row id token.
fn parse_index(token: &str, what: &str) -> Result<usize, ServerError> {
    token
        .parse()
        .map_err(|_| ServerError::new(ErrorCode::BadValue, format!("not a {what}: {token:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use pi_storage::Field;

    #[test]
    fn finished_connection_threads_are_not_tracked() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let server = Server::empty(ServerConfig::default(), schema, 1).unwrap();
        for _ in 0..64 {
            let mut c = Client::connect(server.addr()).unwrap();
            assert_eq!(c.request("PING").unwrap(), "OK pong");
            drop(c);
            // Wait until the server saw the close, so the next accept
            // finds this connection's thread finished or nearly so.
            while !server.inner.conns.lock().unwrap().is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let live = server.inner.conns.lock().unwrap().len();
        let tracked = server.inner.conn_threads.lock().unwrap().len();
        assert!(
            tracked <= live + 8,
            "{tracked} connection threads tracked for {live} live connections"
        );
    }
}
