//! # pi-server — the network frontend of the PatchIndex engine
//!
//! A TCP server speaking a small hand-rolled wire protocol (see
//! `docs/WIRE_PROTOCOL.md`) in front of N hash-routed
//! [`patchindex::ConcurrentTable`] shards:
//!
//! * **readers** never block: every query runs against a per-shard
//!   consistent snapshot, fans out across all shards on the process-wide
//!   pool of [`pi_exec::parallel::fan_out`] (no thread spawned per
//!   query), and [`combine_batches`] merges the per-shard batches into one
//!   canonically ordered response (byte-deterministic regardless of shard count);
//! * **writers** are one dedicated thread per shard consuming a bounded
//!   statement queue. The queue is the admission-control point: a full
//!   queue rejects with `ServerBusy` instead of buffering, and sequence
//!   numbers are assigned at admission so apply order is ack order.
//!   Every response carries per-shard `epoch@seq` watermarks naming the
//!   exact statement prefix it reflects;
//! * **the advisor** runs per shard inside each writer thread, under one
//!   global byte budget re-split by observed per-shard read benefit
//!   ([`pi_advisor::split_budget`]) before every step;
//! * **observability** is per shard: `METRICS` returns the server
//!   registry plus every shard's engine registry as one JSON document,
//!   and `EXPLAIN` is the one request that runs under EXPLAIN ANALYZE
//!   (`QUERY` and `COUNT` run `QueryEngine::query`, unobserved), so a
//!   slow spec is explained on demand;
//! * **shutdown** drains: closing the server applies every acknowledged
//!   statement through a final publish before joining.
//!
//! ```
//! use pi_server::{client, Server, ServerConfig};
//! use pi_storage::{DataType, Field, Schema};
//!
//! let schema = Schema::new(vec![
//!     Field::new("k", DataType::Int),
//!     Field::new("v", DataType::Int),
//! ]);
//! let server = Server::empty(ServerConfig::with_shards(2), schema, 2).unwrap();
//!
//! let mut c = client::Client::connect(server.addr()).unwrap();
//! assert_eq!(c.request("PING").unwrap(), "OK pong");
//!
//! let resp = c.request("INSERT 1,10;2,20;3,30").unwrap();
//! assert!(resp.starts_with("OK shards="), "{resp}");
//!
//! // PUBLISH is a write barrier: once it acks, every previously
//! // acknowledged statement is applied and visible to new snapshots.
//! c.request("PUBLISH").unwrap();
//!
//! let resp = c.request("QUERY scan 1 | sort 0:desc").unwrap();
//! assert_eq!(client::body_lines(&resp), vec!["30", "20", "10"]);
//! assert_eq!(client::header_field(&resp, "rows"), Some("3"));
//!
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
mod combine;
mod config;
mod protocol;
mod server;
mod shard;
mod spec;

pub use client::{body_lines, header, header_field, Client};
pub use combine::{batch_rows, canonical_rows, combine_batches, render_combined, render_rows};
pub use config::ServerConfig;
pub use protocol::{
    parse_value, read_request, render_value, write_response, ErrorCode, ServerError, WireMode,
    MAX_FRAME_LEN,
};
pub use server::{HoldGuard, Server};
pub use spec::QuerySpec;
