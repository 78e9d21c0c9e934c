//! CI bench-regression gate.
//!
//! Compares freshly emitted `BENCH_{maintenance,planner,advisor,
//! concurrency,durability,cache,obs,serve}.json` against the checked-in `bench_baselines/*.json`
//! and fails (exit 1) when any gated metric regressed beyond its
//! tolerance. Metrics are chosen to be machine-portable — behavioral
//! counts, ratios and speedups rather than raw seconds — so the gate
//! holds across laptop and CI-runner hardware; the tolerance absorbs
//! scheduler noise on top.
//!
//! Usage:
//! `gate [--tolerance 0.25] [--baseline-dir bench_baselines] [--current-dir .]`
//! (`PI_GATE_TOLERANCE` overrides the default tolerance too; the flag
//! wins over the env var.)
//!
//! A metric regresses when it is *worse* than baseline by more than
//! `tolerance × its tolerance weight` (relative). Improvements never
//! fail. A metric missing or null in the baseline is skipped (so new
//! metrics can land before their baseline refresh); a metric present in
//! the baseline but missing from the fresh artifact fails — silently
//! losing a metric is itself a regression.

use pi_bench::json::Json;

/// Whether larger values are better for a metric.
#[derive(Clone, Copy, PartialEq)]
enum Dir {
    Higher,
    Lower,
}

/// One gated metric: artifact file stem, dotted JSON path, direction and
/// a tolerance weight (multiplies the base tolerance — speedup metrics
/// measured on wall clocks get more slack than behavioral counts).
struct Metric {
    file: &'static str,
    path: &'static str,
    dir: Dir,
    tol_weight: f64,
}

const fn m(file: &'static str, path: &'static str, dir: Dir, tol_weight: f64) -> Metric {
    Metric {
        file,
        path,
        dir,
        tol_weight,
    }
}

/// The gated metric set. Counts are deterministic at fixed smoke config
/// (weight 1.0); wall-clock-derived speedups get weight 2.0–3.0.
const METRICS: &[Metric] = &[
    // maintenance: the deferred pipeline must keep its O(flushes) build
    // count (the seed pipeline pays O(partitions × statements)).
    m(
        "maintenance",
        "results.1.build_invocations",
        Dir::Lower,
        1.0,
    ),
    m(
        "maintenance",
        "results.3.build_invocations",
        Dir::Lower,
        1.0,
    ),
    m(
        "maintenance",
        "speedup_deferred_vs_sequential.insert",
        Dir::Higher,
        3.0,
    ),
    m(
        "maintenance",
        "speedup_deferred_vs_sequential.modify",
        Dir::Higher,
        3.0,
    ),
    // planner: per-partition ZBP must keep the patch flow confined.
    m("planner", "zbp.use_patches_partitions", Dir::Lower, 1.0),
    // advisor: the lifecycle trajectory (create/recompute/drop counts)
    // is behavioral; the indexed-query speedup is wall-clock.
    m("advisor", "actions.created", Dir::Higher, 1.0),
    m("advisor", "actions.recomputed", Dir::Higher, 1.0),
    m("advisor", "actions.dropped", Dir::Higher, 1.0),
    m("advisor", "baseline.speedup", Dir::Higher, 3.0),
    // cross-partition recompute soundness: the residual discovery count
    // is deterministic; the exactness and design-migration booleans must
    // stay pinned at 1 (any dip is a correctness regression, so they get
    // zero extra slack).
    m(
        "advisor",
        "cross_partition_recompute.values_spanning_partitions",
        Dir::Higher,
        1.0,
    ),
    m(
        "advisor",
        "cross_partition_recompute.residual_patches",
        Dir::Higher,
        1.0,
    ),
    m(
        "advisor",
        "cross_partition_recompute.distinct_exact",
        Dir::Higher,
        0.0,
    ),
    m(
        "advisor",
        "cross_partition_recompute.design_migrated",
        Dir::Higher,
        0.0,
    ),
    m(
        "advisor",
        "cross_partition_recompute.post_migration_exact",
        Dir::Higher,
        0.0,
    ),
    // concurrency: snapshot-isolated readers must beat the serialized
    // baseline during the maintenance storm. (The speedup is a ratio of
    // two runs on the same machine; raw qps values are deliberately NOT
    // gated — they would compare the baseline host against the runner.)
    m(
        "concurrency",
        "best_speedup_vs_serialized",
        Dir::Higher,
        2.0,
    ),
    // durability: recovery exactness and advisor-state restoration are
    // correctness booleans (zero extra slack — any dip fails); the
    // incremental-checkpoint byte advantage over a full snapshot is
    // deterministic at fixed smoke config.
    m("durability", "recovery.exact", Dir::Higher, 0.0),
    m(
        "durability",
        "recovery.advisor_state_restored",
        Dir::Higher,
        0.0,
    ),
    m(
        "durability",
        "checkpoint.ratio_full_over_incremental",
        Dir::Higher,
        1.0,
    ),
    // result cache: the audited byte-exactness flag is a correctness
    // boolean (zero extra slack — any dip fails); hit ratio and the
    // speedup over the uncached twin are wall-clock-coupled and get the
    // usual ratio slack.
    m("cache", "exact", Dir::Higher, 0.0),
    m("cache", "hit_ratio", Dir::Higher, 2.0),
    m("cache", "speedup_over_uncached", Dir::Higher, 3.0),
    // observability: traced answers must stay byte-identical (zero
    // slack), and the tracing machinery must stay within a few percent
    // of untraced latency — weight 0.1 pins the traced/untraced ratio to
    // ~2.5% over its baseline at the default 25% base tolerance.
    m("obs", "trace.exact", Dir::Higher, 0.0),
    m("obs", "overhead.traced_over_untraced", Dir::Lower, 0.1),
    // server: the post-quiesce byte-exactness audit is a correctness
    // boolean (zero slack). `speedup_4_over_1` and `p99_over_p50` are
    // still in the artifact but not gated: eight runs of one commit
    // spread the former over 0.85–4.16 against a floor of 1.04.
    m("serve", "exact", Dir::Higher, 0.0),
];

struct Row {
    file: &'static str,
    path: &'static str,
    baseline: Option<f64>,
    current: Option<f64>,
    allowed: f64,
    status: Status,
}

#[derive(Clone, Copy, PartialEq)]
enum Status {
    Ok,
    Improved,
    Regressed,
    MissingCurrent,
    SkippedNoBaseline,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "ok (improved)",
            Status::Regressed => "REGRESSED",
            Status::MissingCurrent => "REGRESSED (metric missing)",
            Status::SkippedNoBaseline => "skipped (no baseline)",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Status::Regressed | Status::MissingCurrent)
    }
}

/// Loads one artifact. `Ok(None)` = file absent (legitimately skippable
/// for baselines); `Err` = present but unparseable — that must FAIL the
/// gate rather than silently skip every metric of the file, or a corrupt
/// checked-in baseline would ungate its experiment forever.
fn load(dir: &str, stem: &str) -> Result<Option<Json>, String> {
    let path = format!("{dir}/BENCH_{stem}.json");
    let Ok(src) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    match Json::parse(&src) {
        Ok(j) => Ok(Some(j)),
        Err(e) => Err(format!("cannot parse {path}: {e}")),
    }
}

fn main() {
    let mut tolerance: f64 = std::env::var("PI_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let mut baseline_dir = "bench_baselines".to_string();
    let mut current_dir = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("gate: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--tolerance" => {
                tolerance = take("--tolerance").parse().unwrap_or_else(|e| {
                    eprintln!("gate: bad --tolerance: {e}");
                    std::process::exit(2);
                })
            }
            "--baseline-dir" => baseline_dir = take("--baseline-dir"),
            "--current-dir" => current_dir = take("--current-dir"),
            other => {
                eprintln!("gate: unknown argument {other:?}");
                eprintln!(
                    "usage: gate [--tolerance 0.25] [--baseline-dir DIR] [--current-dir DIR]"
                );
                std::process::exit(2);
            }
        }
    }

    let stems = [
        "maintenance",
        "planner",
        "advisor",
        "concurrency",
        "durability",
        "cache",
        "obs",
        "serve",
    ];
    let mut fresh = std::collections::HashMap::new();
    let mut base = std::collections::HashMap::new();
    let mut corrupt: Vec<String> = Vec::new();
    for stem in stems {
        match load(&current_dir, stem) {
            Ok(Some(j)) => {
                fresh.insert(stem, j);
            }
            Ok(None) => {}
            Err(e) => corrupt.push(e),
        }
        match load(&baseline_dir, stem) {
            Ok(Some(j)) => {
                base.insert(stem, j);
            }
            Ok(None) => {}
            Err(e) => corrupt.push(e),
        }
    }
    if !corrupt.is_empty() {
        for e in &corrupt {
            eprintln!("gate: {e}");
        }
        eprintln!("gate: refusing to compare against unparseable artifacts");
        std::process::exit(1);
    }

    let mut rows: Vec<Row> = Vec::new();
    for metric in METRICS {
        let baseline = base.get(metric.file).and_then(|j| j.num(metric.path));
        let current = fresh.get(metric.file).and_then(|j| j.num(metric.path));
        let allowed = tolerance * metric.tol_weight;
        let status = match (baseline, current) {
            (None, _) => Status::SkippedNoBaseline,
            (Some(_), None) => Status::MissingCurrent,
            (Some(b), Some(c)) => {
                // Relative change in the "worse" direction; improvements
                // (and equality) always pass.
                let worse = match metric.dir {
                    Dir::Higher => (b - c) / b.abs().max(1e-12),
                    Dir::Lower => (c - b) / b.abs().max(1e-12),
                };
                if worse > allowed {
                    Status::Regressed
                } else if worse < 0.0 {
                    Status::Improved
                } else {
                    Status::Ok
                }
            }
        };
        rows.push(Row {
            file: metric.file,
            path: metric.path,
            baseline,
            current,
            allowed,
            status,
        });
    }

    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}"));
    let width = rows.iter().map(|r| r.path.len()).max().unwrap_or(0).max(6);
    println!(
        "bench-regression gate (base tolerance {:.0}%)",
        tolerance * 100.0
    );
    println!(
        "{:<12} {:<width$} {:>10} {:>10} {:>8}  status",
        "experiment", "metric", "baseline", "current", "allowed"
    );
    for r in &rows {
        println!(
            "{:<12} {:<width$} {:>10} {:>10} {:>7.0}%  {}",
            r.file,
            r.path,
            fmt(r.baseline),
            fmt(r.current),
            r.allowed * 100.0,
            r.status.label()
        );
    }

    let failures = rows.iter().filter(|r| r.status.fails()).count();
    if failures > 0 {
        eprintln!("\ngate: {failures} metric(s) regressed beyond tolerance");
        std::process::exit(1);
    }
    let gated = rows
        .iter()
        .filter(|r| r.status != Status::SkippedNoBaseline)
        .count();
    println!("\ngate: {gated} metric(s) within tolerance");
}
