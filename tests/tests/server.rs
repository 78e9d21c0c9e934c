//! End-to-end tests of the `pi-server` TCP frontend.
//!
//! The central property (this PR's acceptance bar): **every response a
//! concurrent client observes is byte-identical to a single-threaded
//! replay of the statement prefix the response's `epochs` field names.**
//! Each write ack carries `(shard, seq)`; each query response carries
//! `epochs=<shard>:<epoch>@<seq>,...`. A query served at `shard s @ seq
//! q` must therefore equal the index-free reference answer over exactly
//! the statements with sequence `<= q` on each shard — no torn epochs,
//! no half-applied statements, no cache staleness, regardless of how
//! many clients were writing at the time.
//!
//! The suite also pins the two operational behaviours the wire protocol
//! documents: backpressure (a full statement queue rejects with
//! `ServerBusy` instead of blocking) and clean-shutdown drain (every
//! acknowledged statement reaches a published epoch before `shutdown`
//! returns).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use pi_exec::ops::sort::SortOrder;
use pi_exec::Batch;
use pi_planner::{execute, NO_INDEXES};
use pi_server::{
    batch_rows, body_lines, canonical_rows, combine_batches, header, header_field, read_request,
    render_combined, render_rows, Client, ErrorCode, QuerySpec, Server, ServerConfig, WireMode,
    MAX_FRAME_LEN,
};
use pi_storage::{new_dict, ColumnData, DataType, Field, Partitioning, Schema, Table, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use patchindex::IndexedTable;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ])
}

/// Parses `epochs=<shard>:<epoch>@<seq>,...` into per-shard seq watermarks.
fn parse_epoch_seqs(resp: &str, nshards: usize) -> Vec<u64> {
    let field = header_field(resp, "epochs").expect("epochs field");
    let mut seqs = vec![0u64; nshards];
    for tok in field.split(',') {
        let (shard, rest) = tok.split_once(':').expect("shard:epoch@seq");
        let (_epoch, seq) = rest.split_once('@').expect("epoch@seq");
        seqs[shard.parse::<usize>().unwrap()] = seq.parse().unwrap();
    }
    seqs
}

/// One client's recorded traffic: acked single-row inserts and full
/// query responses, in issue order.
struct ClientLog {
    /// (shard, seq, row) per acknowledged `INSERT`.
    writes: Vec<(usize, u64, Vec<Value>)>,
    /// (spec text, raw response) per `QUERY`.
    reads: Vec<(String, String)>,
    /// (spec text, raw response) per `COUNT`, one after each `QUERY`.
    counts: Vec<(String, String)>,
}

/// Replays the statement prefix `seq <= watermark[shard]` for every
/// shard and returns the index-free reference response for `spec` —
/// byte-for-byte what the server should have sent.
fn reference_response(
    spec_text: &str,
    watermarks: &[u64],
    by_shard: &[BTreeMap<u64, Vec<Value>>],
    partitions_per_shard: usize,
) -> String {
    let spec = QuerySpec::parse(spec_text).unwrap();
    let plan = spec.fanout_plan();
    let mut rows = Vec::new();
    for (sid, log) in by_shard.iter().enumerate() {
        let mut it = IndexedTable::new(Table::new(
            format!("ref{sid}"),
            schema(),
            partitions_per_shard,
            Partitioning::RoundRobin,
        ));
        for (_, row) in log.range(..=watermarks[sid]) {
            it.insert(std::slice::from_ref(row));
        }
        rows.extend(batch_rows(&execute(&plan, it.table(), NO_INDEXES)));
    }
    let rows = canonical_rows(&spec, rows);
    format!(
        "OK rows={} cols={}{}",
        rows.len(),
        spec.output_width(),
        render_rows(&rows)
    )
}

/// Strips the `epochs=...` token from a response header so reference
/// and served responses compare on everything the replay determines
/// (epoch numbers depend on publish cadence, not on content).
fn without_epochs(resp: &str) -> String {
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

/// Three clients hammer a 2-shard server with interleaved single-row
/// inserts and queries; every query response must match the
/// single-threaded index-free replay of its exact statement prefix.
#[test]
fn concurrent_clients_match_prefix_replay() {
    const NSHARDS: usize = 2;
    const PARTS: usize = 2;
    const CLIENTS: usize = 3;
    const OPS: usize = 120;
    const SPECS: [&str; 4] = [
        "scan 0,1 | sort 0:asc",
        "scan 1 | distinct 0",
        "scan 0,1 | sort 1:desc,0:asc | limit 7",
        "scan 1,0",
    ];

    let cfg = ServerConfig {
        shards: NSHARDS,
        publish_every: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), PARTS).unwrap();
    let addr = server.addr();

    let logs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for cid in 0..CLIENTS {
            let logs = &logs;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE + cid as u64);
                let mut client = Client::connect(addr).unwrap();
                let mut log = ClientLog {
                    writes: Vec::new(),
                    reads: Vec::new(),
                    counts: Vec::new(),
                };
                for i in 0..OPS {
                    if rng.gen_bool(0.6) {
                        // Globally unique key so replays are order-free
                        // across clients within one shard's seq order.
                        let k = (cid * 1_000_000 + i) as i64;
                        let v = rng.gen_range(0..50i64);
                        let resp = client.request(&format!("INSERT {k},{v}")).unwrap();
                        let acks = header_field(&resp, "shards").expect("insert ack");
                        let (shard, seq) = acks.split_once(':').unwrap();
                        log.writes.push((
                            shard.parse().unwrap(),
                            seq.parse().unwrap(),
                            vec![Value::Int(k), Value::Int(v)],
                        ));
                    } else {
                        let spec = SPECS[rng.gen_range(0..SPECS.len())];
                        let resp = client.request(&format!("QUERY {spec}")).unwrap();
                        assert!(resp.starts_with("OK "), "query failed: {resp}");
                        log.reads.push((spec.to_string(), resp));
                        let resp = client.request(&format!("COUNT {spec}")).unwrap();
                        assert!(resp.starts_with("OK "), "count failed: {resp}");
                        log.counts.push((spec.to_string(), resp));
                    }
                }
                logs.lock().unwrap().push(log);
            });
        }
    });

    let logs = logs.into_inner().unwrap();
    // Merge all clients' write acks into per-shard seq → row maps. Seq
    // order is apply order (assigned under the enqueue lock), so the
    // merged map *is* each shard's statement log.
    let mut by_shard: Vec<BTreeMap<u64, Vec<Value>>> = vec![BTreeMap::new(); NSHARDS];
    for log in &logs {
        for (shard, seq, row) in &log.writes {
            let prev = by_shard[*shard].insert(*seq, row.clone());
            assert!(prev.is_none(), "duplicate seq {seq} on shard {shard}");
        }
    }
    let mut audited = 0;
    for log in &logs {
        for (spec, resp) in &log.reads {
            let watermarks = parse_epoch_seqs(resp, NSHARDS);
            let expect = reference_response(spec, &watermarks, &by_shard, PARTS);
            assert_eq!(
                without_epochs(resp),
                expect,
                "divergence for {spec:?} at watermarks {watermarks:?}"
            );
            audited += 1;
        }
    }
    assert!(audited > 50, "too few queries audited: {audited}");
    // A `COUNT` names its own watermarks: its count is the row count of
    // the replay at exactly that prefix.
    let mut counted = 0;
    for log in &logs {
        for (spec, resp) in &log.counts {
            let watermarks = parse_epoch_seqs(resp, NSHARDS);
            let expect = reference_response(spec, &watermarks, &by_shard, PARTS);
            assert_eq!(
                header_field(resp, "count"),
                header_field(&expect, "rows"),
                "count divergence for {spec:?} at watermarks {watermarks:?}"
            );
            counted += 1;
        }
    }
    assert!(counted > 50, "too few counts audited: {counted}");
    server.shutdown();
}

/// With the writer parked, exactly `queue_capacity` statements are
/// admitted and the next is rejected `ServerBusy`; releasing the writer
/// drains the queue and the admitted rows become visible.
#[test]
fn backpressure_rejects_when_queue_full() {
    let cfg = ServerConfig {
        shards: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let hold = server.hold_shard(0);
    for i in 0..4 {
        let resp = client.request(&format!("INSERT {i},{i}")).unwrap();
        assert!(resp.starts_with("OK "), "statement {i} rejected: {resp}");
    }
    let resp = client.request("INSERT 4,4").unwrap();
    assert!(
        resp.starts_with("ERR ServerBusy "),
        "expected ServerBusy, got: {resp}"
    );
    // The connection survives admission rejection — only framing errors
    // close it.
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    drop(hold);
    // PUBLISH rides the same bounded queue: until the just-released
    // writer has dequeued a statement it is legitimately `ServerBusy`.
    let published = loop {
        let resp = client.request("PUBLISH").unwrap();
        if !resp.starts_with("ERR ServerBusy") {
            break resp;
        }
        std::thread::yield_now();
    };
    assert!(published.starts_with("OK epochs="), "{published}");
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("4"));

    let metrics = client.request("METRICS").unwrap();
    let key = "\"server.busy_rejections\": ";
    let rejections: u64 = metrics
        .split_once(key)
        .map(|(_, rest)| rest.chars().take_while(char::is_ascii_digit).collect())
        .and_then(|digits: String| digits.parse().ok())
        .unwrap_or_else(|| panic!("busy rejection not surfaced in metrics: {metrics}"));
    assert!(rejections >= 1, "{metrics}");
    server.shutdown();
}

/// Statements acked but not yet published when `shutdown` is called are
/// drained through a final publish: every ack is visible in the shard
/// tables after shutdown returns.
#[test]
fn clean_shutdown_drains_acked_statements() {
    const NSHARDS: usize = 2;
    const ROWS: i64 = 60;
    let cfg = ServerConfig {
        shards: NSHARDS,
        // Far beyond the statement count: nothing publishes during the
        // run, so visibility after shutdown proves the drain path.
        publish_every: 1_000_000,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for k in 0..ROWS {
        let resp = client.request(&format!("INSERT {k},{}", k * 10)).unwrap();
        assert!(resp.starts_with("OK "), "insert {k} failed: {resp}");
    }
    // Nothing published yet: reads still see the empty epoch.
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("0"));

    let tables = server.tables();
    server.shutdown();

    let plan = QuerySpec::parse("scan 0").unwrap().fanout_plan();
    let mut total = 0;
    for table in &tables {
        let snap = table.snapshot();
        assert!(snap.epoch() > 0, "shutdown must publish the drained prefix");
        total += execute(&plan, snap.table(), NO_INDEXES).len();
    }
    assert_eq!(total as i64, ROWS, "acked statements lost in shutdown");
}

/// Every documented error code surfaces with its wire token, and only
/// framing errors close the connection.
#[test]
fn error_codes_and_line_mode() {
    let server = Server::empty(ServerConfig::default(), schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (cmd, code) in [
        ("FROBNICATE", "BadCommand"),
        ("SLOWLOG", "BadCommand"),
        ("QUERY scan 9", "BadPlan"),
        ("QUERY scan 0 | sort 0:up", "BadPlan"),
        ("INSERT x,1", "BadValue"),
        ("INSERT 1", "BadValue"),
        ("MODIFY 7 0 0 0=1", "BadShard"),
        ("DELETE 0 9 0", "BadValue"),
        ("DELETE 0 0 9", "BadValue"),
        ("MODIFY 0 0 9 0=1", "BadValue"),
    ] {
        let resp = client.request(cmd).unwrap();
        assert!(
            resp.starts_with(&format!("ERR {code} ")),
            "{cmd:?}: expected {code}, got {resp:?}"
        );
    }
    // The same session keeps serving after recoverable errors.
    assert_eq!(client.request("PING").unwrap(), "OK pong");

    // Line mode round-trip: a human typing into `nc` gets dot-stuffed,
    // dot-terminated responses.
    let mut nc = Client::connect(server.addr()).unwrap();
    assert_eq!(nc.request_line_mode("PING").unwrap(), "OK pong");
    nc.request_line_mode("INSERT 1,10;2,20").unwrap();
    nc.request_line_mode("PUBLISH").unwrap();
    let resp = nc.request_line_mode("QUERY scan 1 | sort 0:asc").unwrap();
    assert_eq!(body_lines(&resp), vec!["10", "20"]);

    // An empty line is a request of its own: it gets `ERR BadCommand`,
    // and the line after it still gets its own response.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        raw.write_all(b"\nPING\n").unwrap();
        let mut lines = BufReader::new(raw).lines().map(Result::unwrap);
        let first = lines.next().unwrap();
        assert!(first.starts_with("ERR BadCommand "), "got {first:?}");
        assert_eq!(lines.take(3).collect::<Vec<_>>(), [".", "OK pong", "."]);
    }

    // A malformed frame gets ERR BadFrame and the connection closes.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"3x\nabc").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.contains("ERR BadFrame "), "got: {buf:?}");
        // read_to_string returning means the server closed the stream.
    }
    server.shutdown();
}

/// Regression: `distinct` over a `Float` column panicked the hash
/// aggregation inside the shard fan-out. The unwinding connection thread
/// left the server's tracked clone of its socket open, so the client got
/// neither a response nor EOF. Now the spec is refused with `BadPlan`,
/// and the same connection keeps serving.
#[test]
fn distinct_over_a_float_column_is_refused_not_hung() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("x", DataType::Float),
    ]);
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema, 1).unwrap();
    let raw = TcpStream::connect(server.addr()).unwrap();
    // A server that stops answering fails the test instead of hanging it.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut writer = raw.try_clone().unwrap();
    let mut lines = BufReader::new(raw).lines();
    // One line-mode request; returns the response's first line.
    let mut request = |cmd: &str| -> String {
        writer.write_all(format!("{cmd}\n").as_bytes()).unwrap();
        let mut read = || {
            lines
                .next()
                .expect("a response, not EOF")
                .unwrap_or_else(|e| panic!("{cmd:?}: no response ({e})"))
        };
        let first = read();
        while read() != "." {}
        first
    };
    assert!(request("INSERT 1,1.5;2,1.5;3,2.5").starts_with("OK "));
    assert!(request("PUBLISH").starts_with("OK "));
    for cmd in ["QUERY", "COUNT", "EXPLAIN"] {
        let resp = request(&format!("{cmd} scan 0,1 | distinct 1"));
        assert!(resp.starts_with("ERR BadPlan "), "{cmd}: got {resp:?}");
    }
    assert_eq!(request("PING"), "OK pong");
    server.shutdown();
}

/// `MODIFY` and `DELETE` address physical rows through the wire and the
/// results match direct table mutation semantics.
#[test]
fn modify_and_delete_round_trip() {
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("INSERT 1,10;2,20;3,30").unwrap();
    client.request("PUBLISH").unwrap();

    let resp = client.request("MODIFY 0 0 1 1=99").unwrap();
    assert!(resp.starts_with("OK shard=0 "), "{resp}");
    let resp = client.request("DELETE 0 0 0").unwrap();
    assert!(resp.starts_with("OK shard=0 "), "{resp}");
    client.request("PUBLISH").unwrap();

    let resp = client.request("QUERY scan 1 | sort 0:asc").unwrap();
    assert_eq!(body_lines(&resp), vec!["30", "99"]);
    server.shutdown();
}

/// Regression: row ids are checked against the published snapshot at
/// admission, but a statement queued ahead can shrink the partition
/// before a later one applies. The second `DELETE 0 0 2` below names a
/// row the first one removed; it used to panic the shard's writer
/// thread, after which every write and `PUBLISH` on the shard answered
/// `ERR ShuttingDown`. Now it applies as a counted no-op.
#[test]
fn stale_row_id_is_refused_at_apply_without_killing_the_writer() {
    let cfg = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.request("INSERT 1,10;2,20;3,30").unwrap();
    client.request("PUBLISH").unwrap();

    let hold = server.hold_shard(0);
    for _ in 0..2 {
        let resp = client.request("DELETE 0 0 2").unwrap();
        assert!(resp.starts_with("OK shard=0 "), "{resp}");
    }
    drop(hold);
    let published = client.request("PUBLISH").unwrap();
    assert!(published.starts_with("OK epochs="), "{published}");
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("2"));
    // The watermark moved past the refused statement too.
    assert_eq!(parse_epoch_seqs(&resp, 1), vec![3]);
    let shard_metrics = server.tables()[0].metrics().expect("shard registry");
    assert_eq!(shard_metrics.counter("statements_refused").get(), 1);

    // The writer is alive: later writes still apply.
    let resp = client.request("INSERT 4,40").unwrap();
    assert!(resp.starts_with("OK "), "{resp}");
    client.request("PUBLISH").unwrap();
    let resp = client.request("COUNT scan 0").unwrap();
    assert_eq!(header_field(&resp, "count"), Some("3"));
    server.shutdown();
}

/// Sends `INSERT k,10k` (the value column stays unique) and records the
/// acked row under its shard and sequence number; returns the shard.
fn insert_logged(client: &mut Client, by_shard: &mut [BTreeMap<u64, Vec<Value>>], k: i64) -> usize {
    let resp = client.request(&format!("INSERT {k},{}", 10 * k)).unwrap();
    let ack = header_field(&resp, "shards").expect("insert ack");
    let (shard, seq) = ack.split_once(':').unwrap();
    let shard: usize = shard.parse().unwrap();
    let prev = by_shard[shard].insert(
        seq.parse().unwrap(),
        vec![Value::Int(k), Value::Int(10 * k)],
    );
    assert!(prev.is_none(), "duplicate seq {seq} on shard {shard}");
    shard
}

/// With `advise_every: 1` each shard writer steps its advisor after every
/// statement. Three distinct queries on a clean column, then one
/// statement per shard, and every shard has created the NUC index —
/// while every query response, before and after, stays byte-identical
/// to the index-free replay of its statement prefix.
#[test]
fn advisor_creates_the_index_on_every_shard() {
    const NSHARDS: usize = 2;
    const PARTS: usize = 2;
    const SPEC: &str = "scan 1 | distinct 0";
    let cfg = ServerConfig {
        shards: NSHARDS,
        advise_every: 1,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), PARTS).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut by_shard: Vec<BTreeMap<u64, Vec<Value>>> = vec![BTreeMap::new(); NSHARDS];
    for k in 0..60 {
        insert_logged(&mut client, &mut by_shard, k);
    }
    // A publish is queued behind every statement: once it is acked, each
    // writer has applied (and advised on) the whole load.
    assert!(client.request("PUBLISH").unwrap().starts_with("OK "));

    let mut responses = Vec::new();
    for _ in 0..3 {
        responses.push(client.request(&format!("QUERY {SPEC}")).unwrap());
    }
    // One statement per shard: the advisor step after it takes the queries.
    for shard in 0..NSHARDS {
        let k = (1_000..)
            .find(|&k| patchindex::routing::shard_of(&Value::Int(k), NSHARDS) == shard)
            .unwrap();
        assert_eq!(insert_logged(&mut client, &mut by_shard, k), shard);
    }
    assert!(client.request("PUBLISH").unwrap().starts_with("OK "));

    let metrics = client.request("METRICS").unwrap();
    assert_eq!(
        metrics.matches("\"advisor.created\": 1").count(),
        NSHARDS,
        "every shard's advisor creates once: {metrics}"
    );
    let explain = client.request(&format!("EXPLAIN {SPEC}")).unwrap();
    let shards: Vec<&str> = explain.split("\n-- shard ").skip(1).collect();
    assert_eq!(shards.len(), NSHARDS, "{explain}");
    for trace in shards {
        assert!(trace.contains("PatchScan"), "{explain}");
    }

    responses.push(client.request(&format!("QUERY {SPEC}")).unwrap());
    for resp in &responses {
        let watermarks = parse_epoch_seqs(resp, NSHARDS);
        let expect = reference_response(SPEC, &watermarks, &by_shard, PARTS);
        assert_eq!(without_epochs(resp), expect, "at watermarks {watermarks:?}");
    }
    server.shutdown();
}

/// `COUNT` fans out once and forms its count from the same results
/// `QUERY` combines: on two shards that both hold the value 5, every
/// spec's `count=` equals the `rows=` of its `QUERY`.
#[test]
fn count_matches_query_rows_across_shards() {
    const NSHARDS: usize = 2;
    let cfg = ServerConfig {
        shards: NSHARDS,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema(), 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let shard_of = |k: i64| patchindex::routing::shard_of(&Value::Int(k), NSHARDS);
    // Value 5 under a key of each shard, then distinct values around it.
    for shard in 0..NSHARDS {
        let k = (0..).find(|&k| shard_of(k) == shard).unwrap();
        assert!(client
            .request(&format!("INSERT {k},5"))
            .unwrap()
            .starts_with("OK "));
    }
    for k in 100..108 {
        let resp = client.request(&format!("INSERT {k},{}", k % 4)).unwrap();
        assert!(resp.starts_with("OK "), "{resp}");
    }
    assert!(client.request("PUBLISH").unwrap().starts_with("OK "));
    let plan = QuerySpec::parse("scan 1").unwrap().fanout_plan();
    for table in server.tables() {
        let values = batch_rows(&execute(&plan, table.snapshot().table(), NO_INDEXES));
        assert!(
            values.contains(&vec![Value::Int(5)]),
            "5 missing on a shard"
        );
    }

    for spec in [
        "scan 1 | distinct 0",
        "scan 1 | distinct 0 | limit 2",
        "scan 0,1 | sort 1:desc | limit 3",
        "scan 0 | limit 4",
    ] {
        let count = client.request(&format!("COUNT {spec}")).unwrap();
        let query = client.request(&format!("QUERY {spec}")).unwrap();
        assert_eq!(
            header_field(&count, "count"),
            header_field(&query, "rows"),
            "{spec}: {count} vs {query}"
        );
    }
    server.shutdown();
}

/// A `(Str, Float, Int)` table on three shards: every shard's string
/// dictionary has its own first-seen order, and the floats hold `-0.0`,
/// `±inf` and `NaN`. Sorts over the string and the float column, a
/// distinct over the string column and the `COUNT` of a distinct spec
/// each answer byte for byte what an index-free single table answers.
#[test]
fn mixed_type_reads_match_a_single_table_replay() {
    const NSHARDS: usize = 3;
    let schema = Schema::new(vec![
        Field::new("s", DataType::Str),
        Field::new("f", DataType::Float),
        Field::new("k", DataType::Int),
    ]);
    let cfg = ServerConfig {
        shards: NSHARDS,
        route_col: 2,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema.clone(), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    const WORDS: [&str; 6] = ["pear", "apple", "zebra", "Mango", "fig", "apple pie"];
    const FLOATS: [&str; 8] = ["-0.0", "0.0", "inf", "-inf", "NaN", "1.5", "-2.25", "0.1"];
    let mut rows = Vec::new();
    for k in 0..36i64 {
        let (s, f) = (
            WORDS[(k * 5 % 7) as usize % 6],
            FLOATS[(k * 3 % 11) as usize % 8],
        );
        let resp = client.request(&format!("INSERT {s},{f},{k}")).unwrap();
        assert!(resp.starts_with("OK "), "{resp}");
        rows.push(vec![
            Value::Str(s.to_string()),
            Value::Float(f.parse().unwrap()),
            Value::Int(k),
        ]);
    }
    assert!(client.request("PUBLISH").unwrap().starts_with("OK "));
    for table in server.tables() {
        assert!(
            table.snapshot().table().visible_len() > 0,
            "a shard holds no row"
        );
    }
    let mut single = IndexedTable::new(Table::new("ref", schema, 1, Partitioning::RoundRobin));
    single.insert(&rows);
    let replay = |spec_text: &str| {
        let spec = QuerySpec::parse(spec_text).unwrap();
        let batch = execute(&spec.fanout_plan(), single.table(), NO_INDEXES);
        let rows = canonical_rows(&spec, batch_rows(&batch));
        format!(
            "OK rows={} cols={}{}",
            rows.len(),
            spec.output_width(),
            render_rows(&rows)
        )
    };
    for spec in [
        "scan 0,1,2 | sort 0:desc",
        "scan 0 | distinct 0",
        "scan 1,2 | sort 0:asc",
        "scan 1,0 | sort 0:desc,1:asc | limit 9",
    ] {
        let resp = client.request(&format!("QUERY {spec}")).unwrap();
        assert_eq!(without_epochs(&resp), replay(spec), "{spec}");
    }
    let spec = "scan 0,2 | distinct 0";
    let count = client.request(&format!("COUNT {spec}")).unwrap();
    assert_eq!(header_field(&count, "count"), Some("6"), "{count}");
    assert_eq!(
        header_field(&count, "count"),
        header_field(&replay(spec), "rows")
    );
    server.shutdown();
}

/// One request the decoder must hand back verbatim, in its mode.
fn wire_request() -> impl Strategy<Value = (WireMode, String, Vec<u8>)> {
    const FRAGMENTS: [&str; 10] = [
        "PING",
        ".",
        "QUERY scan 1 | limit 2",
        "INSERT 1,10;2,20",
        " ",
        "\t",
        "\u{e9}",
        "\r",
        "\n",
        "7",
    ];
    let text = proptest::collection::vec(0..FRAGMENTS.len(), 0..5)
        .prop_map(|ix| ix.iter().map(|&i| FRAGMENTS[i]).collect::<String>());
    (any::<bool>(), any::<bool>(), text).prop_map(|(framed, crlf, mut text)| {
        if framed {
            let bytes = format!("{}\n{text}", text.len()).into_bytes();
            return (WireMode::Framed, text, bytes);
        }
        // A line is what a human types: no newline inside, not read as a
        // length prefix, and its own `\r` ending is the terminator's.
        text.retain(|c| c != '\n');
        if text.starts_with(|c: char| c.is_ascii_digit()) {
            text.insert(0, '.');
        }
        if text.ends_with('\r') {
            text.push('.');
        }
        let bytes = format!("{text}{}", if crlf { "\r\n" } else { "\n" }).into_bytes();
        (WireMode::Line, text, bytes)
    })
}

/// A stretch of hostile bytes: noise, truncated frames, overlong length
/// prefixes, and claims up to [`MAX_FRAME_LEN`] that are never sent.
fn wire_noise() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..24),
        (
            0..=MAX_FRAME_LEN,
            proptest::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(len, sent)| [format!("{len}\n").into_bytes(), sent].concat()),
        (100_000_000u64..u64::MAX).prop_map(|n| format!("{n}\nPING").into_bytes()),
        proptest::collection::vec(
            prop_oneof![Just(b'\n'), Just(b'\r'), Just(b'.'), 0xC0u8..0xFF],
            1..6
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Well-formed framed and line requests, back to back and switching
    // modes, decode one-to-one and in order, whatever the buffer size.
    #[test]
    fn decoder_splits_concatenated_requests(
        requests in proptest::collection::vec(wire_request(), 0..8),
        capacity in 1usize..16,
    ) {
        let bytes: Vec<u8> = requests.iter().flat_map(|(_, _, b)| b.clone()).collect();
        let mut r = BufReader::with_capacity(capacity, &bytes[..]);
        for (mode, text, _) in &requests {
            let (got_mode, got) = read_request(&mut r).unwrap().expect("a request");
            prop_assert_eq!(got_mode, *mode);
            prop_assert_eq!(got.unwrap(), text.clone());
        }
        prop_assert!(read_request(&mut r).unwrap().is_none(), "{requests:?}");
    }

    // Arbitrary bytes never panic the decoder: every call ends in a
    // request, a `BadFrame` (after which the server closes), or EOF.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        stretches in proptest::collection::vec(wire_noise(), 0..6),
        capacity in 1usize..16,
    ) {
        let bytes = stretches.concat();
        let mut r = BufReader::with_capacity(capacity, &bytes[..]);
        for call in 0.. {
            // Every request consumes at least one byte.
            prop_assert!(call <= bytes.len(), "no progress over {bytes:?}");
            match read_request(&mut r).unwrap() {
                Some((_, Ok(_))) => {}
                Some((_, Err(e))) => {
                    prop_assert_eq!(e.code, ErrorCode::BadFrame);
                    break;
                }
                None => break,
            }
        }
    }
}

/// A string column whose dictionary is this shard's own: `pool` is
/// encoded first in a shuffled order, so codes follow neither the
/// lexicographic order nor another shard's codes.
fn shard_str_column(rng: &mut SmallRng, pool: &[&str], values: &[&str]) -> ColumnData {
    let dict = new_dict();
    let mut seen = pool.to_vec();
    seen.shuffle(rng);
    let codes = {
        let mut d = dict.write();
        seen.iter().for_each(|s| {
            d.encode(s);
        });
        values.iter().map(|s| d.encode(s)).collect()
    };
    ColumnData::Str { codes, dict }
}

/// One shard's result of `n` rows over `types`, in a random shape: dense,
/// a window inside padding rows, a selection, or (when empty) a batch
/// without columns.
fn shard_batch(rng: &mut SmallRng, types: &[DataType], n: usize) -> Batch {
    const WORDS: [&str; 6] = ["pear", "apple", "zebra", "Mango", "fig", ""];
    const FLOATS: [f64; 8] = [
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25,
        0.1,
    ];
    if n == 0 && rng.gen_bool(0.5) {
        return Batch::default();
    }
    let (pad_front, pad_back) = (rng.gen_range(0..3), rng.gen_range(0..3));
    let shape = rng.gen_range(0..3);
    let backing = match shape {
        1 => pad_front + n + pad_back,
        2 => n + rng.gen_range(1..4),
        _ => n,
    };
    let columns: Vec<ColumnData> = types
        .iter()
        .map(|t| match t {
            DataType::Int => ColumnData::Int((0..backing).map(|_| rng.gen_range(-2..3)).collect()),
            DataType::Float => ColumnData::Float(
                (0..backing)
                    .map(|_| FLOATS[rng.gen_range(0..FLOATS.len())])
                    .collect(),
            ),
            _ => {
                let values: Vec<&str> = (0..backing)
                    .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                    .collect();
                shard_str_column(rng, &WORDS, &values)
            }
        })
        .collect();
    match shape {
        1 => Batch::window(
            columns.into_iter().map(Arc::new).collect(),
            pad_front..pad_front + n,
        ),
        2 => {
            let mut sel: Vec<usize> = (0..backing).collect();
            sel.shuffle(rng);
            sel.truncate(n);
            sel.sort_unstable();
            Batch::selected(columns, sel)
        }
        _ => Batch::new(columns),
    }
}

/// A random spec over per-shard results of `types`: under `distinct` the
/// results are the projection to the distinct positions (no `Float`
/// among them: the server refuses one), then a multi-key sort and a
/// limit up to one past the row count.
fn combine_spec(rng: &mut SmallRng, types: &[DataType], rows: usize) -> QuerySpec {
    let width = types.len();
    let (mut scan, mut distinct): (Vec<usize>, _) = ((0..width).collect(), None);
    if !types.contains(&DataType::Float) && rng.gen_bool(0.5) {
        // The scan may be wider than the distinct subset it projects to.
        scan = (0..width + rng.gen_range(0..3)).collect();
        let mut subset = scan.clone();
        subset.shuffle(rng);
        subset.truncate(width);
        distinct = Some(subset);
    }
    let sort = rng.gen_bool(0.7).then(|| {
        let key = |rng: &mut SmallRng| {
            let dir = [SortOrder::Asc, SortOrder::Desc][rng.gen_range(0..2)];
            (rng.gen_range(0..width), dir)
        };
        (0..rng.gen_range(1..=width + 1))
            .map(|_| key(rng))
            .collect()
    });
    let limit = rng.gen_bool(0.5).then(|| rng.gen_range(0..=rows + 1));
    QuerySpec {
        scan,
        distinct,
        sort,
        limit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The columnar combine behind `QUERY` and `COUNT` writes the bytes of
    // the row-wise reference, whatever the shard count, the batch shapes
    // and each shard's string dictionary; its row count is the count.
    #[test]
    fn columnar_combine_matches_the_row_wise_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        const TYPES: [DataType; 3] = [DataType::Int, DataType::Float, DataType::Str];
        let types: Vec<DataType> = (0..rng.gen_range(1..4))
            .map(|_| TYPES[rng.gen_range(0..3)])
            .collect();
        let shards: Vec<Batch> = (0..rng.gen_range(1..6))
            .map(|_| {
                let n = rng.gen_range(0..12);
                shard_batch(&mut rng, &types, n)
            })
            .collect();
        let total = shards.iter().map(Batch::len).sum();
        let spec = combine_spec(&mut rng, &types, total);

        let rows = canonical_rows(&spec, shards.iter().flat_map(batch_rows).collect());
        let combined = combine_batches(&spec, &shards);
        let mut got = String::new();
        render_combined(&combined, &mut got);
        prop_assert_eq!(&got, &render_rows(&rows), "{:?} over {:?}", spec, shards);
        prop_assert_eq!(combined.len(), rows.len());
    }
}
