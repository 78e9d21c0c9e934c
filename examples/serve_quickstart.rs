//! Serve quickstart: start a 2-shard `pi-server`, talk to it over TCP
//! with the framed reference client, trip the backpressure path, and
//! read the metrics document — the worked transcript of
//! `docs/WIRE_PROTOCOL.md` as runnable code.
//!
//! Run with `cargo run --release --example serve_quickstart`.

use pi_server::{body_lines, header, header_field, Client, Server, ServerConfig};
use pi_storage::{DataType, Field, Schema};

fn main() {
    // 1. A 2-shard server over empty tables. Rows hash-route to a shard
    //    by column 0 (`route_col`); each shard has its own writer
    //    thread, result cache and metrics registry. The tiny queue is
    //    just to make the backpressure demo below deterministic.
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("temp", DataType::Int),
    ]);
    let cfg = ServerConfig {
        shards: 2,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = Server::empty(cfg, schema, 2).expect("bind 127.0.0.1:0");
    println!("serving on {}", server.addr());

    // 2. The framed wire mode, via the reference client. Every command
    //    is one `<len>\n<payload>` frame out, one frame back; `nc` users
    //    get the same commands in line mode (see docs/WIRE_PROTOCOL.md).
    let mut c = Client::connect(server.addr()).expect("connect");
    println!("PING        -> {}", c.request("PING").unwrap());

    // 3. INSERT routes rows to shards and acks with per-shard statement
    //    sequence numbers; PUBLISH is the write barrier that makes every
    //    acknowledged statement visible to new snapshots.
    let resp = c.request("INSERT 1,10;2,20;3,30;4,40;5,50").unwrap();
    println!("INSERT      -> {resp}");
    println!("PUBLISH     -> {}", c.request("PUBLISH").unwrap());

    // 4. Queries fan out to every shard's consistent snapshot and merge
    //    canonically — the response is byte-identical at any shard
    //    count, and its `epochs` field names the exact statement prefix
    //    (epoch@seq per shard) it reflects.
    let resp = c.request("QUERY scan 1 | sort 0:desc | limit 3").unwrap();
    println!("QUERY       -> {}", header(&resp));
    println!("  top temps    {:?}", body_lines(&resp));
    println!(
        "  reflects     epochs={}",
        header_field(&resp, "epochs").unwrap()
    );
    println!("COUNT       -> {}", c.request("COUNT scan 0").unwrap());

    // 5. Backpressure: park shard 0's writer (a test hook), fill its
    //    4-slot queue, and watch admission control reject the fifth
    //    statement with ServerBusy instead of blocking the connection.
    let hold = server.hold_shard(0);
    let mut admitted = 0;
    let mut rejection = String::new();
    for i in 0..32 {
        let resp = c.request(&format!("INSERT {},{}", 6 + i, 60 + i)).unwrap();
        if resp.starts_with("OK") {
            admitted += 1;
        } else if resp.starts_with("ERR ServerBusy") {
            rejection = resp;
            break;
        }
    }
    println!("\nheld shard 0: {admitted} inserts admitted, then:");
    println!("  {rejection}");
    drop(hold); // release the writer; the queued statements now apply
    let publish = loop {
        // The freed writer may still be draining the full queue, so even
        // the publish control message can bounce with ServerBusy — the
        // client owns the retry.
        let resp = c.request("PUBLISH").unwrap();
        if resp.starts_with("OK") {
            break resp;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    println!("PUBLISH     -> {publish}");
    println!("COUNT       -> {}", c.request("COUNT scan 0").unwrap());

    // 6. Observability: METRICS is the server registry plus every
    //    shard's engine registry as one JSON document.
    let metrics = c.request("METRICS").unwrap();
    for key in ["server.requests", "server.busy_rejections", "cache.misses"] {
        let val = metrics
            .split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .unwrap_or("?");
        println!("metric {key:24} = {val}");
    }

    // 7. Graceful shutdown drains every acknowledged statement through a
    //    final publish before the sockets close.
    server.shutdown();
    println!("\nshut down cleanly");
}
