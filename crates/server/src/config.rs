//! Server tuning knobs.

/// Configuration of a [`crate::Server`].
///
/// The defaults suit tests and small deployments: one shard, statement
/// visibility on every publish, a result cache per shard, and the
/// advisor disabled. Production configs raise `shards` to the tenant or
/// core count and set `advise_every` to let each shard tune its own
/// indexes under the global [`ServerConfig::advisor_budget_bytes`].
///
/// ```
/// use pi_server::ServerConfig;
///
/// let cfg = ServerConfig {
///     shards: 4,
///     queue_capacity: 256,
///     advise_every: 128,
///     ..ServerConfig::default()
/// };
/// assert_eq!(cfg.shards, 4);
/// assert_eq!(cfg.route_col, 0);      // rows hash-route by column 0
/// assert_eq!(cfg.publish_every, 1);  // every statement becomes visible
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of independent `ConcurrentTable` shards.
    pub shards: usize,
    /// Column whose value hash-routes each inserted row to a shard
    /// (see `patchindex::routing`).
    pub route_col: usize,
    /// Bounded statement-queue depth per shard. A full queue rejects
    /// the statement with `ServerBusy` instead of blocking the
    /// connection — admission control, not buffering.
    pub queue_capacity: usize,
    /// Statements a shard writer applies between publishes. `1` (the
    /// default) makes every acknowledged statement promptly visible to
    /// new snapshots; larger values batch copy-on-write work at the
    /// cost of staleness.
    pub publish_every: u64,
    /// Per-shard result-cache budget in bytes; `0` disables caching.
    pub cache_budget_bytes: usize,
    /// Statements between advisor steps on each shard writer; `0` (the
    /// default) disables the advisor.
    pub advise_every: u64,
    /// Global patch-memory budget shared by all shards' advisors, split
    /// by observed per-shard read benefit (`pi_advisor::split_budget`)
    /// before every step.
    pub advisor_budget_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            route_col: 0,
            queue_capacity: 1024,
            publish_every: 1,
            cache_budget_bytes: 8 << 20,
            advise_every: 0,
            advisor_budget_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    /// A config with `shards` shards and every other knob at its
    /// default.
    pub fn with_shards(shards: usize) -> Self {
        ServerConfig {
            shards,
            ..ServerConfig::default()
        }
    }
}
