//! `served_dash`: what a socket client sees. `pi-server` over loopback,
//! 4 shards × 2 partitions, a result cache per shard that the working set
//! fits in. A read op is one dashboard refresh (several tile queries back
//! to back on one connection); a write op is an `INSERT` whose keys all
//! route to one shard, a `DELETE` per partition of as many of the oldest
//! inserted rows, then the `PUBLISH` barrier. Six of seven refreshes are
//! pure cache hits; the first after each write re-executes one shard.
//!
//! The wire protocol has no propagate, so the statements work on a rolling
//! window at the end of every partition (insert new rows, retire the
//! oldest inserted ones): appended rows are deleted in place and pending
//! deltas stay where the set-up's prefill put them.

use std::sync::Arc;

use patchindex::routing::shard_of;
use patchindex::{ConcurrentTable, Constraint, Design, IndexedTable};
use pi_obs::MetricsRegistry;
use pi_planner::{execute, QueryEngine, NO_INDEXES};
use pi_server::{
    batch_rows, body_lines, canonical_rows, header, render_rows, Client, QuerySpec, Server,
    ServerConfig,
};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

use crate::cal::mean;
use crate::probes;
use crate::rec::{Recorder, Stages};
use crate::util::Rng;
use crate::workload::{table_delta_rows, Metrics, OpAgg, Workload};

const SHARDS: usize = 4;
const PARTS_PER_SHARD: usize = 2;
const INSERT_ROWS: usize = 64;
/// The first write of every round is a bulk load: the slow write class,
/// a quarter of the writes, so `write_p95_ms` sits inside a class and not
/// on the tail of one.
const BULK_ROWS: usize = 256;
const WRITES_PER_ROUND: usize = 4;
/// Rows the set-up inserts into every shard, so that each partition's
/// window always holds the `BULK_ROWS / 2` rows a bulk write retires.
const PREFILL_ROWS: usize = 2 * BULK_ROWS;
const READS_PER_WRITE: usize = 7;
const VAL_DOMAIN: u64 = 61;
const E_NUC: f64 = 0.02;
const CACHE_BYTES: usize = 8 << 20;

/// The tiles of one dashboard refresh. All are distinct-heavy on `v`:
/// per-shard execution scans the shard, but results — and so cache
/// entries and wire responses — stay tiny (61 values), the shape result
/// caching exists for. The first three are the `repro serve` mix.
const DASHBOARD: [&str; 8] = [
    "scan 1 | distinct 0 | sort 0:asc",
    "scan 1,0 | distinct 0 | sort 0:desc",
    "scan 1 | distinct 0 | limit 16",
    "scan 1 | distinct 0 | sort 0:desc | limit 10",
    "scan 1,0 | distinct 0 | limit 8",
    "scan 1 | distinct 0",
    "scan 1,0 | distinct 0 | sort 0:asc | limit 5",
    "scan 1 | distinct 0 | sort 0:asc | limit 3",
];

pub struct Input {
    seed: u64,
    /// Per shard, per partition: (k, v) columns.
    shards: Vec<Vec<(Vec<i64>, Vec<i64>)>>,
    /// Per shard: keys already present, the pool duplicates are drawn from.
    pools: Vec<Vec<i64>>,
}

pub struct ServedDash {
    server: Option<Server>,
    client: Client,
    rng: Rng,
    next_key: i64,
    pools: Vec<Vec<i64>>,
    /// Per shard, per partition: rows loaded at set-up; the window of
    /// inserted rows starts at this (visible) position.
    base_rows: Vec<Vec<usize>>,
    writes: u64,
    index_create_ms: f64,
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

fn strip_epochs(resp: &str) -> String {
    let hdr: Vec<&str> = header(resp)
        .split(' ')
        .filter(|tok| !tok.starts_with("epochs="))
        .collect();
    let mut out = hdr.join(" ");
    for line in body_lines(resp) {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// The response an index-free replay over the shard snapshots gives.
fn replay(tables: &[ConcurrentTable], spec_text: &str) -> String {
    let spec = QuerySpec::parse(spec_text).expect("dashboard spec parses");
    let plan = spec.fanout_plan();
    let mut rows = Vec::new();
    for table in tables {
        let snap = table.snapshot();
        rows.extend(batch_rows(&execute(&plan, snap.table(), NO_INDEXES)));
    }
    let rows = canonical_rows(&spec, rows);
    format!(
        "OK rows={} cols={}{}",
        rows.len(),
        spec.output_width(),
        render_rows(&rows)
    )
}

impl ServedDash {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until teardown")
    }

    /// The next `INSERT` statement: `n` rows whose keys all route to
    /// `shard`. Client-side work, so it is built outside timing.
    fn insert_statement(&mut self, shard: usize, n: usize) -> String {
        let mut rows = Vec::with_capacity(n);
        while rows.len() < n {
            let k = if self.rng.chance(E_NUC) {
                let pool = &self.pools[shard];
                pool[self.rng.below(pool.len() as u64) as usize]
            } else {
                self.next_key += 1;
                if shard_of(&Value::Int(self.next_key), SHARDS) != shard {
                    continue;
                }
                self.next_key
            };
            rows.push(format!("{k},{}", self.rng.below(VAL_DOMAIN)));
        }
        format!("INSERT {}", rows.join(";"))
    }

    /// The `DELETE` statements that retire the `n / 2` oldest inserted rows
    /// of both partitions of `shard`. A shard spreads an `INSERT` of `n`
    /// rows (n even) evenly over its two partitions, so with these the
    /// windows keep their size.
    fn delete_statements(&self, shard: usize, n: usize) -> [String; PARTS_PER_SHARD] {
        std::array::from_fn(|pid| {
            let first = self.base_rows[shard][pid];
            let rids: Vec<String> = (first..first + n / 2).map(|r| r.to_string()).collect();
            format!("DELETE {shard} {pid} {}", rids.join(","))
        })
    }

    /// One write op as the client issues it: the statements, then the
    /// barrier after which a new snapshot sees them.
    fn write(&mut self, stmt: &str, deletes: &[String], rec: &mut Recorder) {
        rec.span("insert_ack", |rec| self.request(stmt, rec));
        for delete in deletes {
            rec.span("delete_ack", |rec| self.request(delete, rec));
        }
        rec.span("publish_barrier", |rec| self.request("PUBLISH", rec));
    }

    fn request(&mut self, cmd: &str, rec: &mut Recorder) -> String {
        match self.client.request(cmd) {
            Ok(resp) if resp.starts_with("OK") => resp,
            Ok(resp) => {
                rec.fail(&format!("{}: {resp}", cmd.split(' ').next().unwrap_or("")));
                resp
            }
            Err(e) => {
                rec.fail(&format!("connection: {e}"));
                String::new()
            }
        }
    }

    fn shard_registries(&self) -> Vec<Arc<MetricsRegistry>> {
        self.server()
            .tables()
            .iter()
            .filter_map(ConcurrentTable::metrics)
            .collect()
    }
}

impl Workload for ServedDash {
    const NAME: &'static str = "served_dash";
    const OPS_PER_ROUND: usize = WRITES_PER_ROUND * (1 + READS_PER_WRITE);
    const ROUND_MS: f64 = 185.0;
    const CADENCE: usize = 4;
    type Input = Input;

    fn generate(seed: u64, smoke: bool) -> Input {
        let rows = if smoke { 8_000 } else { 400_000 };
        let mut rng = Rng::new(seed ^ 0x5E21E);
        let mut shards: Vec<Vec<(Vec<i64>, Vec<i64>)>> =
            vec![vec![(Vec::new(), Vec::new()); PARTS_PER_SHARD]; SHARDS];
        let mut pools: Vec<Vec<i64>> = vec![Vec::new(); SHARDS];
        let mut next = [0usize; SHARDS];
        for i in 0..rows as i64 {
            let mut k = i;
            let mut sid = shard_of(&Value::Int(k), SHARDS);
            if rng.chance(E_NUC) && !pools[sid].is_empty() {
                k = pools[sid][rng.below(pools[sid].len() as u64) as usize];
                sid = shard_of(&Value::Int(k), SHARDS);
            } else if pools[sid].len() < 512 {
                pools[sid].push(k);
            }
            let part = &mut shards[sid][next[sid] % PARTS_PER_SHARD];
            next[sid] += 1;
            part.0.push(k);
            part.1.push(rng.below(VAL_DOMAIN) as i64);
        }
        Input {
            seed,
            shards,
            pools,
        }
    }

    fn setup(input: &Input, _traced: bool, st: &mut Stages, rec: &mut Recorder) -> ServedDash {
        let tables: Vec<IndexedTable> = st.run("load", rec, || {
            input
                .shards
                .iter()
                .enumerate()
                .map(|(sid, parts)| {
                    let mut t = Table::new(
                        format!("shard{sid}"),
                        schema(),
                        PARTS_PER_SHARD,
                        Partitioning::RoundRobin,
                    );
                    for (pid, (k, v)) in parts.iter().enumerate() {
                        t.load_partition(
                            pid,
                            &[ColumnData::Int(k.clone()), ColumnData::Int(v.clone())],
                        );
                    }
                    t.propagate_all();
                    IndexedTable::new(t)
                })
                .collect()
        });
        let tables = st.run("index", rec, || {
            let mut tables = tables;
            for t in &mut tables {
                t.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
            }
            tables
        });
        let index_create_ms = st.stage_ms("index");
        let (server, client) = st.run("start", rec, || {
            let cfg = ServerConfig {
                shards: SHARDS,
                publish_every: 1,
                cache_budget_bytes: CACHE_BYTES,
                advise_every: 0,
                ..ServerConfig::default()
            };
            let server = Server::start(cfg, tables).expect("start server on loopback");
            let client = Client::connect(server.addr()).expect("connect to own server");
            (server, client)
        });
        let mut w = ServedDash {
            server: Some(server),
            client,
            rng: Rng::new(input.seed ^ 0xDA5B),
            next_key: 1_000_000_000,
            pools: input.pools.clone(),
            base_rows: input
                .shards
                .iter()
                .map(|parts| parts.iter().map(|(k, _)| k.len()).collect())
                .collect(),
            writes: 0,
            index_create_ms,
        };
        let prefill: Vec<String> = (0..SHARDS)
            .map(|shard| w.insert_statement(shard, PREFILL_ROWS))
            .collect();
        st.run("prefill", rec, || {
            for stmt in &prefill {
                w.client.request(stmt).expect("prefill insert");
            }
            w.client.request("PUBLISH").expect("prefill publish");
        });
        w
    }

    fn round(&mut self, r: usize, rec: &mut Recorder) {
        for w in 0..WRITES_PER_ROUND {
            // One write per shard per round; the shard the bulk load goes
            // to rotates with the round.
            let shard = (r + w) % SHARDS;
            let n = if w == 0 { BULK_ROWS } else { INSERT_ROWS };
            let (stmt, deletes) = rec.span("input", |_| {
                (
                    self.insert_statement(shard, n),
                    self.delete_statements(shard, n),
                )
            });
            rec.note(&[1, shard as u64, stmt.len() as u64, self.next_key as u64]);
            self.writes += 1;
            rec.write(|rec| self.write(&stmt, &deletes, rec));
            for _ in 0..READS_PER_WRITE {
                rec.note(&[2]);
                rec.read(|rec| {
                    for spec in DASHBOARD {
                        let cmd = format!("QUERY {spec}");
                        rec.span("rtt", |rec| self.request(&cmd, rec));
                    }
                });
            }
        }
    }

    fn audit(&mut self) -> Result<u64, String> {
        let tables = self.server().tables();
        let mut passed = 0;
        for spec in DASHBOARD {
            let resp = self
                .client
                .request(&format!("QUERY {spec}"))
                .map_err(|e| e.to_string())?;
            if strip_epochs(&resp) != replay(&tables, spec) {
                return Err(format!(
                    "served response diverged from index-free replay for {spec:?}"
                ));
            }
            passed += 1;
        }
        Ok(passed)
    }

    fn final_audit(&mut self) -> Result<u64, String> {
        let mut passed = self.audit()?;
        for table in self.server().tables() {
            table.snapshot().check_consistency();
            passed += 1;
        }
        Ok(passed)
    }

    fn index_bytes_and_rows(&self) -> (usize, usize) {
        self.server()
            .tables()
            .iter()
            .map(|t| {
                let snap = t.snapshot();
                (
                    snap.indexes()
                        .iter()
                        .map(|i| i.memory_bytes())
                        .sum::<usize>(),
                    snap.table().visible_len(),
                )
            })
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    fn delta_rows(&self) -> usize {
        self.server()
            .tables()
            .iter()
            .map(|t| table_delta_rows(t.snapshot().table()))
            .sum()
    }

    fn layers(&mut self, rec: &mut Recorder, m: &mut Metrics) {
        // What a cache miss re-executes on one shard: every tile through an
        // engine over shard 0's state that has no result cache. (The
        // `planner.*` counts it reports are replaced below by the ones the
        // serving shards kept.)
        let tables = self.server().tables();
        let snap = tables[0].snapshot();
        let mut uncached =
            IndexedTable::with_restored_indexes(snap.table().clone(), snap.indexes().to_vec(), 0);
        let mut agg = OpAgg::default();
        for spec in DASHBOARD {
            let plan = QuerySpec::parse(spec)
                .expect("dashboard spec parses")
                .fanout_plan();
            agg.add(&uncached.query_traced(&plan).1);
        }
        agg.report(m);

        let server_reg = Arc::clone(self.server().registry());
        let rtt = rec.span_mean_ms("rtt");
        let q = server_reg.histogram("server.query.nanos").snapshot();
        let query_ms = q.sum as f64 / 1e6 / q.count.max(1) as f64;
        m.insert("server.rtt_mean_ms", rtt);
        m.insert("server.query_mean_ms", query_ms);
        m.insert("server.wire_overhead_ms", (rtt - query_ms).max(0.0));
        m.insert("server.insert_ack_ms", rec.span_mean_ms("insert_ack"));
        m.insert(
            "server.publish_barrier_ms",
            rec.span_mean_ms("publish_barrier"),
        );
        m.insert(
            "server.requests",
            server_reg.counter("server.requests").get() as f64,
        );
        m.insert(
            "server.busy_rejections",
            server_reg.counter("server.busy_rejections").get() as f64,
        );
        let parse: Vec<f64> = DASHBOARD
            .iter()
            .map(|spec| {
                probes::median_ms(25, || {
                    let s = QuerySpec::parse(spec).expect("dashboard spec parses");
                    std::hint::black_box(s.fanout_plan());
                }) * 1e3
            })
            .collect();
        m.insert("server.parse_us", mean(&parse));

        let combine: Vec<f64> = DASHBOARD
            .iter()
            .map(|text| {
                let spec = QuerySpec::parse(text).expect("dashboard spec parses");
                let plan = spec.fanout_plan();
                let per_shard: Vec<_> = tables.iter().map(|t| t.snapshot().query(&plan)).collect();
                probes::median_ms(25, || {
                    let mut rows = Vec::new();
                    for b in &per_shard {
                        rows.extend(batch_rows(b));
                    }
                    std::hint::black_box(render_rows(&canonical_rows(&spec, rows)));
                }) * 1e3
            })
            .collect();
        m.insert("server.combine_us", mean(&combine));

        let shard_regs = self.shard_registries();
        let sum = |name: &str| -> f64 {
            shard_regs
                .iter()
                .map(|reg| reg.counter(name).get() as f64)
                .sum()
        };
        let (hits, misses) = (sum("cache.hits"), sum("cache.misses"));
        m.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
        m.insert("cache.misses_per_write", misses / self.writes.max(1) as f64);
        m.insert(
            "cache.invalidated_per_publish",
            sum("publish.cache_invalidated") / sum("publish.count").max(1.0),
        );
        m.insert("cache.evicted", sum("cache.evicted"));
        m.insert(
            "cache.bytes_end",
            tables
                .iter()
                .filter_map(ConcurrentTable::cache_stats)
                .map(|s| s.bytes as f64)
                .sum(),
        );
        let queries = sum("engine.queries").max(1.0);
        m.insert(
            "planner.candidates_per_query",
            sum("planner.candidates_enumerated") / queries,
        );
        m.insert(
            "planner.rewrites_per_query",
            sum("planner.rewrites_chosen") / queries,
        );
        m.insert(
            "core.partitions_copied_per_publish",
            sum("publish.partitions_copied") / sum("publish.count").max(1.0),
        );
        m.insert(
            "core.indexes_copied_per_publish",
            sum("publish.indexes_copied") / sum("publish.count").max(1.0),
        );
        let publish_ns: (f64, f64) = shard_regs
            .iter()
            .map(|reg| reg.histogram("publish.nanos").snapshot())
            .fold((0.0, 0.0), |a, h| {
                (a.0 + h.sum as f64, a.1 + h.count as f64)
            });
        // A mean, not a median: the registry's quantiles are log2 buckets.
        m.insert(
            "core.publish_p50_ms",
            publish_ns.0 / 1e6 / publish_ns.1.max(1.0),
        );
        m.insert("core.index_create_ms", self.index_create_ms);
        probes::registry_snapshot(&server_reg, m);

        let plans: Vec<_> = DASHBOARD
            .iter()
            .map(|s| {
                QuerySpec::parse(s)
                    .expect("dashboard spec parses")
                    .fanout_plan()
            })
            .collect();
        let mut planner = snap.clone();
        let plan_us: Vec<f64> = plans
            .iter()
            .map(|p| probes::median_ms(25, || drop(planner.plan_query(p))) * 1e3)
            .collect();
        m.insert("planner.plan_us", mean(&plan_us));
        m.insert(
            "core.snapshot_us",
            probes::median_ms(25, || drop(tables[0].snapshot())) * 1e3,
        );
        probes::planner_probes(&snap, &plans, m);
        probes::index_quality(snap.indexes(), m);
        probes::storage_probes(snap.table(), &mut self.rng, m);
        probes::bitmap_probe(snap.indexes(), &mut self.rng, m);
        probes::fanout_spawn(snap.table(), m);
        // Eight small writes as shard 0 sees them: an insert, then the
        // oldest inserted rows of both partitions retired.
        let mut stmts = Vec::new();
        for _ in 0..8 {
            stmts.push(probes::Stmt::Insert(
                (0..INSERT_ROWS)
                    .map(|_| {
                        self.next_key += 1;
                        vec![
                            Value::Int(self.next_key),
                            Value::Int(self.rng.below(VAL_DOMAIN) as i64),
                        ]
                    })
                    .collect(),
            ));
            for (pid, &first) in self.base_rows[0].iter().enumerate() {
                stmts.push(probes::Stmt::Delete {
                    pid,
                    rids: (first..first + INSERT_ROWS / 2).collect(),
                });
            }
        }
        probes::maintenance_twin(&snap, &stmts, m);
    }

    fn teardown(mut self, _input: &Input) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
