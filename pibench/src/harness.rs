//! The measurement protocol: closed loop, one client, fixed work.
//!
//! A run is set-up (which ends with `WARMUP` rounds) → `R` measured
//! rounds, where `R` is fixed by `--seconds` and the workload's reference
//! round time, never by a wall-clock stop condition: a slow minute
//! stretches the run, it does not change the work. The calibration kernel
//! runs before and after every op (see `cal`); a round the kernel shows
//! was disturbed is run again (`Patience`), so the statistics are always
//! over `R` rounds.

use std::time::{Duration, Instant};

use crate::cal::{self, Round, Summary};
use crate::rec::{Recorder, Stages};
use crate::util;
use crate::workload::{Metrics, Workload};

/// Warm-up rounds before the first measured round. They are the last
/// stage of set-up and count into `setup_s`: a user waits for caches to
/// fill and lazy work to finish as much as for the load.
pub const WARMUP: usize = 10;
/// Warm-up rounds of a `--smoke` run.
pub const SMOKE_WARMUP: usize = 2;
/// Measured rounds never drop below this, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 40;
/// Set-up is repeated this often and `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Rounds between two audits.
pub const AUDIT_EVERY: usize = 16;
/// Measured rounds of a `--smoke` run.
pub const SMOKE_ROUNDS: usize = 6;
/// Kernel runs of one probe of the machine, and how many of them may meet
/// a burst for it to count as settled.
const PROBE_RUNS: usize = 32;
const PROBE_BURSTS: usize = 1;
/// Pause between two probes of a machine that has not settled.
const PROBE_PAUSE: Duration = Duration::from_millis(200);
/// How long a run waits, all in all, for the machine to settle. A bad
/// minute that outlasts it is measured as it is.
const MAX_WAIT: Duration = Duration::from_secs(75);

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
    /// (name, value) in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// Uncalibrated counterparts of the timing metrics, for `--aa`.
    pub raw: Vec<(&'static str, f64)>,
    pub op_hash: u64,
    pub summary: Summary,
    /// Wall milliseconds per measured round, driver overhead included
    /// (what `Workload::ROUND_MS` is set from).
    pub round_wall_ms: f64,
}

fn rounds_for<W: Workload>(o: &Opts) -> (usize, usize) {
    if o.smoke {
        (SMOKE_WARMUP, SMOKE_ROUNDS)
    } else {
        let r = (o.seconds * 1000.0 / W::ROUND_MS).round() as usize;
        (WARMUP, r.max(MIN_ROUNDS))
    }
}

fn run_round<W: Workload>(w: &mut W, r: usize, rec: &mut Recorder) -> Round {
    rec.ops.clear();
    rec.round = r as i32;
    rec.span("round", |rec| w.round(r, rec));
    rec.round = -1;
    assert_eq!(
        rec.ops.len(),
        W::OPS_PER_ROUND,
        "every round issues the same ops"
    );
    std::mem::take(&mut rec.ops)
}

/// What a run may still spend on a disturbed machine: repeats of disturbed
/// rounds and time waiting for it to settle. All of it is decided on the
/// calibration kernel alone. A `--smoke` run has none, so its op sequence
/// depends on the seed only.
struct Patience {
    repeats: usize,
    wait: Duration,
}

impl Patience {
    /// Probes the machine until the kernel reads steadily or the waiting
    /// time is used up.
    fn settle(&mut self, rec: &mut Recorder) {
        while !self.wait.is_zero() {
            let probe: Vec<f64> = (0..PROBE_RUNS).map(|_| rec.calibrate()).collect();
            if cal::bursts(probe.into_iter(), rec.fastest_cal) <= PROBE_BURSTS {
                return;
            }
            let t = Instant::now();
            std::thread::sleep(PROBE_PAUSE);
            self.wait = self.wait.saturating_sub(t.elapsed());
        }
    }
}

/// Set-up (stages, then the warm-up rounds), returning the workload and
/// the calibrated and the raw set-up milliseconds.
fn set_up<W: Workload>(
    input: &W::Input,
    traced: bool,
    warmup: usize,
    rec: &mut Recorder,
) -> (W, f64, f64) {
    let mut st = Stages::default();
    let mut w = W::setup(input, traced, &mut st, rec);
    let (mut ms, mut raw_ms) = (st.total_ms(), st.raw_total_ms());
    for r in 0..warmup {
        let round = run_round(&mut w, r, rec);
        ms += cal::busy_ms(&round);
        raw_ms += round.iter().map(|op| op.ms).sum::<f64>();
    }
    (w, ms, raw_ms)
}

fn audit<W: Workload>(w: &mut W, fin: bool, passed: &mut u64) -> Result<(), String> {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if fin {
            w.final_audit()
        } else {
            w.audit()
        }
    }))
    .unwrap_or_else(|_| Err("audit panicked".into()));
    r.map(|n| *passed += n)
}

/// The end-to-end pass: tracing off, eight metrics out.
pub fn run_e2e<W: Workload>(o: &Opts) -> Outcome {
    let input = W::generate(o.seed, o.smoke);
    let (warmup, measured) = rounds_for::<W>(o);
    let reps = if o.smoke { 1 } else { SETUP_REPS };
    let mut patience = Patience {
        repeats: if o.smoke { 0 } else { measured / 2 },
        wait: if o.smoke { Duration::ZERO } else { MAX_WAIT },
    };
    let (mut setup_ms, mut raw_setup_ms) = (Vec::new(), Vec::new());
    let mut kept: Option<(W, Recorder)> = None;
    for _ in 0..reps {
        if let Some((w, _)) = kept.take() {
            w.teardown(&input);
        }
        // The op hash and the counts describe one pass over the op
        // sequence, so each repetition starts a recorder of its own.
        let mut rec = Recorder::new();
        patience.settle(&mut rec);
        let (w, ms, raw_ms) = set_up(&input, false, warmup, &mut rec);
        setup_ms.push(ms);
        raw_setup_ms.push(raw_ms);
        kept = Some((w, rec));
    }
    let (mut w, mut rec) = kept.expect("at least one set-up");
    let cpu0 = util::cpu_ms();
    let mut rounds = Vec::with_capacity(measured);
    let mut out = Outcome::default();
    let mut audits = 0u64;
    let mut in_rounds = Duration::ZERO;
    let mut run = 0;
    while rounds.len() < measured {
        let t = Instant::now();
        let round = run_round(&mut w, warmup + run, &mut rec);
        run += 1;
        if patience.repeats > 0 && cal::disturbed(&round, rec.fastest_cal) {
            patience.repeats -= 1;
            patience.settle(&mut rec);
            continue;
        }
        in_rounds += t.elapsed();
        rounds.push(round);
        if rounds.len() % AUDIT_EVERY == 0 && rounds.len() < measured {
            if let Err(e) = audit(&mut w, false, &mut audits) {
                out.error = Some(e);
                break;
            }
        }
    }
    let cpu_ms = util::cpu_ms() - cpu0;
    let rss = util::peak_rss_mb();
    if out.error.is_none() {
        out.error = audit(&mut w, true, &mut audits).err();
    }
    let (index_bytes, rows) = w.index_bytes_and_rows();
    w.teardown(&input);

    let s = cal::summarize(&rounds);
    out.round_wall_ms = in_rounds.as_secs_f64() * 1e3 / rounds.len().max(1) as f64;
    out.correct = out.error.is_none() && rec.failed == 0 && s.read_samples > 0;
    out.attempted = rec.attempted.max(1);
    out.failed = rec.failed;
    out.op_hash = rec.hash.0;
    out.metrics = vec![
        ("setup_s", cal::median(&mut setup_ms) / 1e3),
        ("ops_per_s", s.ops_per_s),
        ("read_p50_ms", s.read_p50),
        ("read_p95_ms", s.read_p95),
        ("write_p50_ms", s.write_p50),
        ("write_p95_ms", s.write_p95),
        ("peak_rss_mb", rss),
        (
            "index_bytes_per_krow",
            index_bytes as f64 * 1000.0 / rows.max(1) as f64,
        ),
    ];
    out.raw = vec![
        ("setup_s", cal::median(&mut raw_setup_ms) / 1e3),
        ("ops_per_s", s.raw_ops_per_s),
        ("read_p50_ms", s.raw_read_p50),
        ("read_p95_ms", s.raw_read_p95),
        ("write_p50_ms", s.raw_write_p50),
        ("write_p95_ms", s.raw_write_p95),
        ("cpu_ms_per_op", cpu_ms / s.ops.max(1) as f64),
        ("audits_passed", audits as f64),
    ];
    out.summary = s;
    out
}

/// The traced pass: per-layer metrics only. Rounds run in blocks of the
/// workload's cadence — untraced, traced, traced, untraced, and so on, so
/// a drift of the table or of the machine hits both kinds alike. The
/// tracing overhead is the median over neighbouring blocks of traced over
/// untraced calibrated time, measured in one process on one table.
pub fn run_traced<W: Workload>(o: &Opts) -> Outcome {
    let input = W::generate(o.seed, o.smoke);
    let mut rec = Recorder::new();
    rec.traced = true;
    let (warmup, measured) = rounds_for::<W>(o);
    let (mut w, _, _): (W, f64, f64) = set_up(&input, true, warmup, &mut rec);
    rec.traced = false;
    let block = if o.smoke { 1 } else { W::CADENCE };
    let blocks = (measured / block).max(2) & !1;

    let delta_rows_warm = w.delta_rows();
    let cpu0 = util::cpu_ms();
    let mut plain = Vec::new();
    // Calibrated milliseconds per block, [untraced, traced] per pair.
    let mut pairs = vec![[0.0f64; 2]; blocks / 2];
    for b in 0..blocks {
        rec.traced = [false, true, true, false][b % 4];
        for k in 0..block {
            let round = run_round(&mut w, warmup + b * block + k, &mut rec);
            pairs[b / 2][usize::from(rec.traced)] += cal::busy_ms(&round);
            if !rec.traced {
                plain.push(round);
            }
        }
    }
    rec.traced = false;
    let mut overhead: Vec<f64> = pairs.iter().map(|[p, t]| t / p.max(1e-9)).collect();
    let cpu_ms = util::cpu_ms() - cpu0;
    let mut out = Outcome::default();
    let mut audits = 0u64;
    out.error = audit(&mut w, false, &mut audits).err();

    let s_plain = cal::summarize(&plain);
    let mut m = Metrics::new();
    m.insert("storage.delta_rows_end", w.delta_rows() as f64);
    m.insert("driver.delta_rows_warm", delta_rows_warm as f64);
    m.insert("driver.unattributed_share", rec.unattributed_share());
    w.layers(&mut rec, &mut m);
    if out.error.is_none() {
        out.error = audit(&mut w, true, &mut audits).err();
    }
    w.teardown(&input);

    m.insert("obs.trace_overhead_ratio", cal::median(&mut overhead));
    m.insert("driver.cal_p50_ms", s_plain.cal_p50);
    m.insert("driver.cal_cv", s_plain.cal_cv);
    m.insert("driver.ops_discarded_share", s_plain.discarded_share);
    m.insert("driver.raw_ops_per_s", s_plain.raw_ops_per_s);
    m.insert("driver.raw_read_p50_ms", s_plain.raw_read_p50);
    m.insert("driver.raw_write_p50_ms", s_plain.raw_write_p50);
    m.insert(
        "driver.cpu_ms_per_op",
        cpu_ms / (blocks * block * W::OPS_PER_ROUND) as f64,
    );
    m.insert("driver.audits_passed", audits as f64);
    m.insert("driver.op_hash_lo", (rec.hash.0 & 0xFFFF_FFFF) as f64);

    let trace_file = util::scratch_dir().join(format!("trace-{}.jsonl", W::NAME));
    if let Err(e) = rec.write_trace(&trace_file) {
        out.error
            .get_or_insert(format!("writing {}: {e}", trace_file.display()));
    }

    out.correct = out.error.is_none() && rec.failed == 0;
    out.attempted = rec.attempted.max(1);
    out.failed = rec.failed;
    out.op_hash = rec.hash.0;
    out.metrics = crate::metrics::PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    out.summary = s_plain;
    out
}
