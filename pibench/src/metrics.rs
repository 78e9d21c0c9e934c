//! Every metric the benchmark prints, by name, with its unit and the
//! direction that is better. `BENCHMARK.json` at the root of the
//! repository lists the same names; a unit test keeps the two in step.

/// (name, unit, better, bound): what a user of the system sees. The bound
/// is the share of the parent's median by which the metric may get worse.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p95_ms", "ms", "lower", 0.2),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p95_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("index_bytes_per_krow", "B/krow", "lower", 0.01),
];

/// (name, unit, better): single layers, measured in the traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // server: → read_p50_ms, ops_per_s on served_dash
    ("server.rtt_mean_ms", "ms", "lower"),
    ("server.query_mean_ms", "ms", "lower"),
    ("server.wire_overhead_ms", "ms", "lower"),
    ("server.parse_us", "us", "lower"),
    ("server.combine_us", "us", "lower"),
    ("server.insert_ack_ms", "ms", "lower"),
    ("server.publish_barrier_ms", "ms", "lower"),
    ("server.requests", "count", "lower"),
    ("server.busy_rejections", "count", "lower"),
    // cache: → read_p50_ms (hits), read_p95_ms (misses) on served_dash
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.misses_per_write", "count", "lower"),
    ("cache.invalidated_per_publish", "count", "lower"),
    ("cache.evicted", "count", "lower"),
    ("cache.bytes_end", "B", "lower"),
    // planner: → read_p50_ms on adhoc_exec and served_dash
    ("planner.plan_us", "us", "lower"),
    ("planner.fingerprint_us", "us", "lower"),
    ("planner.candidates_per_query", "count", "lower"),
    ("planner.rewrites_per_query", "count", "higher"),
    ("planner.rewrite_speedup_distinct", "ratio", "higher"),
    ("planner.rewrite_speedup_sort", "ratio", "higher"),
    ("planner.rewrite_speedup_ncc", "ratio", "higher"),
    // exec: → read_p50_ms / read_p95_ms on adhoc_exec
    ("exec.scan_ms", "ms", "lower"),
    ("exec.patch_scan_exclude_ms", "ms", "lower"),
    ("exec.patch_scan_use_ms", "ms", "lower"),
    ("exec.distinct_ms", "ms", "lower"),
    ("exec.sort_ms", "ms", "lower"),
    ("exec.ordered_merge_ms", "ms", "lower"),
    ("exec.union_ms", "ms", "lower"),
    ("exec.rows_per_us", "1/us", "higher"),
    ("exec.rows_examined_per_row_returned", "ratio", "lower"),
    ("exec.fanout_spawn_us", "us", "lower"),
    // core: → write_p50_ms; the quality side → read_p50_ms, index bytes
    ("core.snapshot_us", "us", "lower"),
    ("core.publish_p50_ms", "ms", "lower"),
    ("core.partitions_copied_per_publish", "count", "lower"),
    ("core.indexes_copied_per_publish", "count", "lower"),
    ("core.insert_us_per_row", "us", "lower"),
    ("core.modify_us_per_row", "us", "lower"),
    ("core.delete_us_per_row", "us", "lower"),
    ("core.maint_overhead_ratio", "ratio", "lower"),
    ("core.collision_rounds", "count", "lower"),
    ("core.build_invocations", "count", "lower"),
    ("core.probed_partitions_per_round", "count", "lower"),
    ("core.index_create_ms", "ms", "lower"),
    ("core.recompute_ms", "ms", "lower"),
    ("core.exception_rate_nuc_end", "ratio", "lower"),
    ("core.exception_rate_nsc_end", "ratio", "lower"),
    ("core.exception_rate_ncc_end", "ratio", "lower"),
    ("core.patches_added_per_krow", "1/krow", "lower"),
    // bitmap: → write_p50_ms (deletes), read_p50_ms (fill_words)
    ("bitmap.set_ns", "ns", "lower"),
    ("bitmap.delete_ns", "ns", "lower"),
    ("bitmap.bulk_delete_ns_per_pos", "ns", "lower"),
    ("bitmap.append_ns_per_kbit", "ns", "lower"),
    ("bitmap.fill_words_ns_per_word", "ns", "lower"),
    ("bitmap.condense_ms", "ms", "lower"),
    ("bitmap.sharding_overhead", "ratio", "lower"),
    ("bitmap.utilization_end", "ratio", "higher"),
    // storage: → writes everywhere, reads on adhoc_exec
    ("storage.insert_us_per_row", "us", "lower"),
    ("storage.modify_us_per_row", "us", "lower"),
    ("storage.delete_us_per_row", "us", "lower"),
    ("storage.scan_ns_per_row", "ns", "lower"),
    ("storage.scan_delta_ns_per_row", "ns", "lower"),
    ("storage.propagate_ms", "ms", "lower"),
    ("storage.delta_rows_end", "count", "lower"),
    // durability: → write_p50_ms (WAL), write_p95_ms (checkpoint) on
    // ingest_durable only
    ("durability.wal_append_us", "us", "lower"),
    ("durability.fsyncs_per_publish", "count", "lower"),
    ("durability.fsync_mean_ms", "ms", "lower"),
    ("durability.publish_plain_p50_ms", "ms", "lower"),
    ("durability.publish_ckpt_p50_ms", "ms", "lower"),
    ("durability.checkpoint_files_per_ckpt", "count", "lower"),
    ("durability.wal_bytes_per_user_byte", "ratio", "lower"),
    (
        "durability.checkpoint_bytes_per_user_byte",
        "ratio",
        "lower",
    ),
    ("durability.write_amp", "ratio", "lower"),
    ("durability.space_amp", "ratio", "lower"),
    ("durability.compact_ms", "ms", "lower"),
    ("durability.files_removed", "count", "higher"),
    ("durability.recover_ms", "ms", "lower"),
    ("durability.replayed_records", "count", "lower"),
    // tpch: → read_* and write_* on tpch_refresh
    ("tpch.q3_ms", "ms", "lower"),
    ("tpch.q7_ms", "ms", "lower"),
    ("tpch.q12_ms", "ms", "lower"),
    ("tpch.q3_speedup", "ratio", "higher"),
    ("tpch.q7_speedup", "ratio", "higher"),
    ("tpch.q12_speedup", "ratio", "higher"),
    ("tpch.rf1_us_per_row", "us", "lower"),
    ("tpch.rf2_us_per_row", "us", "lower"),
    ("tpch.nsc_exception_rate_end", "ratio", "lower"),
    // advisor, obs: no end-to-end effect expected; they guard overhead
    ("advisor.step_ms", "ms", "lower"),
    ("advisor.actions", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.registry_snapshot_us", "us", "lower"),
    // driver: the instrument watching itself
    ("driver.cal_p50_ms", "ms", "lower"),
    ("driver.cal_cv", "ratio", "lower"),
    ("driver.ops_discarded_share", "ratio", "lower"),
    ("driver.raw_ops_per_s", "1/s", "higher"),
    ("driver.raw_read_p50_ms", "ms", "lower"),
    ("driver.raw_write_p50_ms", "ms", "lower"),
    ("driver.cpu_ms_per_op", "ms", "lower"),
    ("driver.unattributed_share", "ratio", "lower"),
    ("driver.audits_passed", "count", "higher"),
    ("driver.delta_rows_warm", "count", "lower"),
    ("driver.op_hash_lo", "count", "lower"),
];

/// Per-layer metrics that are counts made by the program or the driver:
/// for a fixed seed they must repeat exactly.
pub const EXACT: &[&str] = &[
    "server.requests",
    "server.busy_rejections",
    "cache.misses_per_write",
    "cache.invalidated_per_publish",
    "cache.evicted",
    "planner.candidates_per_query",
    "planner.rewrites_per_query",
    "exec.rows_examined_per_row_returned",
    "core.partitions_copied_per_publish",
    "core.indexes_copied_per_publish",
    "core.collision_rounds",
    "core.build_invocations",
    "core.probed_partitions_per_round",
    "core.exception_rate_nuc_end",
    "core.exception_rate_nsc_end",
    "core.exception_rate_ncc_end",
    "core.patches_added_per_krow",
    "bitmap.sharding_overhead",
    "bitmap.utilization_end",
    "storage.delta_rows_end",
    "durability.fsyncs_per_publish",
    "durability.checkpoint_files_per_ckpt",
    "durability.wal_bytes_per_user_byte",
    "durability.checkpoint_bytes_per_user_byte",
    "durability.write_amp",
    "durability.space_amp",
    "durability.files_removed",
    "durability.replayed_records",
    "tpch.nsc_exception_rate_end",
    "advisor.actions",
    "driver.audits_passed",
    "driver.delta_rows_warm",
    "driver.op_hash_lo",
];

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "served_dash",
        "What a socket client sees: cached dashboard refreshes over 4 shards, each write (insert new rows, retire the oldest) invalidating one shard; executor does little.",
    ),
    (
        "adhoc_exec",
        "Every read planned and executed on a fresh snapshot with no cache: planner, executor and patch-select do the work; cache and wire must show no change.",
    ),
    (
        "ingest_durable",
        "The write side: WAL, index maintenance, publish and every 8th publish a checkpoint, with reads showing what cheaper maintenance costs in patches.",
    ),
    (
        "tpch_refresh",
        "The paper's join-heavy scenario: RF1/RF2 through the direct PatchIndex API, then Q3, Q7, Q12; planner, cache, server and durability bypassed.",
    ),
];

pub const RUN_SECONDS: u32 = 15;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "x")));
        for (name, unit) in names {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {unit:?} for {name}"
            );
        }
        for (_, _, better, bound) in END_TO_END {
            assert!(["lower", "higher"].contains(better));
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let setup_bound = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap().3;
        assert!(END_TO_END.iter().all(|m| m.3 <= setup_bound));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name} not listed");
        }
    }

    /// The string value of `"key": "value"` in one line of the manifest.
    fn text<'a>(line: &'a str, key: &str) -> &'a str {
        let rest = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
        &rest[..rest.find('"').expect("closing quote")]
    }

    /// `BENCHMARK.json` is written by hand, one metric or workload a line;
    /// this keeps it in step with the tables the program prints from.
    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk.len() <= 64 * 1024);
        assert!(on_disk.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(on_disk.contains("\"paths\": [\"pibench\"],"));
        let section = |from: &str, to: &str| -> Vec<&str> {
            let body = &on_disk[on_disk.find(from).expect(from)..];
            body[..body.find(to).expect(to)]
                .lines()
                .filter(|l| l.contains("\"name\": "))
                .collect()
        };
        let workloads: Vec<(&str, &str)> = section("\"workloads\": [", "\"end_to_end\": [")
            .iter()
            .map(|l| (text(l, "name"), text(l, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end: Vec<(&str, &str, &str, f64)> =
            section("\"end_to_end\": [", "\"per_layer\": [")
                .iter()
                .map(|l| {
                    let bound = l[l.find("\"bound\": ").expect("bound") + 9..]
                        .trim_end_matches(['}', ',', ' '])
                        .parse()
                        .expect("bound is a number");
                    (text(l, "name"), text(l, "unit"), text(l, "better"), bound)
                })
                .collect();
        assert_eq!(end_to_end, END_TO_END);
        let per_layer: Vec<(&str, &str, &str)> = section("\"per_layer\": [", "\n}")
            .iter()
            .map(|l| (text(l, "name"), text(l, "unit"), text(l, "better")))
            .collect();
        assert_eq!(per_layer, PER_LAYER);
    }
}
