//! The calibration kernel and the estimators built on it.
//!
//! The box this benchmark runs on is a few cores of a shared host. It
//! changes *speed* — it flips between a fast and a ~1.4x slower state every
//! few hundred milliseconds (a neighbour on the sibling hyper-thread) — and
//! in bad minutes the host takes the cores away in bursts of milliseconds.
//! Both only ever add time. Three things keep that out of the numbers:
//!
//! * a fixed kernel that touches no product code runs before and after
//!   every op, and an op's time is scaled by how long its two kernel runs
//!   took relative to a reference, so a number means "milliseconds on a
//!   quiet box" whichever speed the box ran at;
//! * an op whose two kernel runs disagree saw the machine change speed, or
//!   a burst, and is not counted (a decision on calibration alone, never on
//!   the op's own time);
//! * rounds are identical in shape, so position `j` of every round is the
//!   same kind of op: each position keeps its fastest samples, a third of
//!   them — the ones no burst fell into — and the latency quantiles are
//!   taken over the kept samples of all positions, the throughput from the
//!   sum of the positions' typical times.
//!
//! A bad minute is waited out rather than measured: a round in which more
//! than a tenth of the kernel runs took over twice as long as the fastest
//! one of the process is repeated once the kernel reads steadily again
//! (see `harness::Patience`).

use std::time::Instant;

/// Kernel time on a quiet box (ms). Calibrated ≈ raw when the machine is
/// quiet. Changing it re-bases every timing the benchmark reports.
pub const CAL_REF_MS: f64 = 1.3;
/// An op counts only if its two kernel runs agree within this share of the
/// shorter one.
pub const CAL_AGREE: f64 = 0.15;
/// Share of a position's counted samples, fastest first, that is kept (of
/// the position with the fewest: all positions keep the same number).
pub const KEEP_SHARE: f64 = 1.0 / 3.0;
/// A kernel run this many times as long as the fastest one of the process
/// met a burst: the machine's slow state costs 1.4-1.5x, never 2x.
pub const BURST_FACTOR: f64 = 2.0;
/// A round is disturbed when more than this share of its kernel runs met a
/// burst (a quiet run: 0.1-2 %, a bad minute: 9-15 %).
pub const DISTURBED_SHARE: f64 = 0.10;
const CAL_LEN: usize = 1 << 16;
const CAL_SLOTS: usize = 1 << 12;

/// Buffers of the kernel, allocated once so a run times no allocator.
pub struct Cal {
    buf: Vec<u64>,
    hist: Vec<u32>,
}

impl Cal {
    pub fn new() -> Cal {
        Cal {
            buf: vec![0; CAL_LEN],
            hist: vec![0; CAL_SLOTS],
        }
    }

    /// One kernel run: xorshift64 fill from a constant, unstable sort,
    /// histogram of the top 12 bits. Returns (milliseconds, checksum).
    /// About a millisecond: short enough to bracket every op, long
    /// enough to tell the machine's two speeds apart.
    pub fn run(&mut self) -> (f64, u64) {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for slot in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        self.buf.sort_unstable();
        self.hist.fill(0);
        for &v in &self.buf {
            self.hist[(v >> 52) as usize] += 1;
        }
        let mut sum = self.buf[CAL_LEN / 2];
        for (i, &h) in self.hist.iter().enumerate() {
            sum = sum.wrapping_mul(0x0000_0100_0000_01b3) ^ (h as u64 + i as u64);
        }
        let sum = std::hint::black_box(sum);
        (t.elapsed().as_secs_f64() * 1e3, sum)
    }

    pub fn ms(&mut self) -> f64 {
        self.run().0
    }
}

/// The factor a timing bracketed by two calibrations is multiplied by.
pub fn factor(cal_before: f64, cal_after: f64) -> f64 {
    CAL_REF_MS / ((cal_before + cal_after) / 2.0)
}

/// How many of the kernel runs `ms` met a burst, given the fastest run of
/// the process.
pub fn bursts(ms: impl Iterator<Item = f64>, fastest: f64) -> usize {
    ms.filter(|&ms| ms > BURST_FACTOR * fastest).count()
}

/// Whether the machine was disturbed while `round` ran — more than one of
/// its kernel runs met a burst, and more than `DISTURBED_SHARE` of them: a
/// decision on the kernel runs alone, never on the ops' own times.
pub fn disturbed(round: &Round, fastest: f64) -> bool {
    let runs = round
        .first()
        .map(|op| op.cal_before)
        .into_iter()
        .chain(round.iter().map(|op| op.cal_after));
    let bursts = bursts(runs, fastest);
    bursts > 1 && bursts as f64 > DISTURBED_SHARE * (round.len() + 1) as f64
}

/// Quantile by linear interpolation between order statistics (the
/// definition NumPy calls "linear"). Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Coefficient of variation (population standard deviation over mean).
pub fn cv(v: &[f64]) -> f64 {
    let m = mean(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt() / m
}

/// One op as measured: raw milliseconds between two calibrations.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub write: bool,
    pub cal_before: f64,
    pub ms: f64,
    pub cal_after: f64,
}

/// The ops of one measured round, in order.
pub type Round = Vec<OpSample>;

/// Calibrated time the client waited for the product in a round.
pub fn busy_ms(round: &Round) -> f64 {
    round.iter().map(OpSample::calibrated_ms).sum()
}

impl OpSample {
    /// Whether the machine ran at one speed around the op.
    pub fn steady(&self) -> bool {
        (self.cal_before - self.cal_after).abs() <= CAL_AGREE * self.cal_before.min(self.cal_after)
    }

    pub fn calibrated_ms(&self) -> f64 {
        self.ms * factor(self.cal_before, self.cal_after)
    }
}

/// Timing estimators over the rounds of a run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub rounds: usize,
    pub ops: usize,
    /// Sum over the positions of a round of the position's typical time.
    pub round_ms: f64,
    pub ops_per_s: f64,
    pub read_p50: f64,
    pub read_p95: f64,
    pub write_p50: f64,
    pub write_p95: f64,
    pub raw_round_ms: f64,
    pub raw_ops_per_s: f64,
    pub raw_read_p50: f64,
    pub raw_read_p95: f64,
    pub raw_write_p50: f64,
    pub raw_write_p95: f64,
    pub cal_p50: f64,
    pub cal_cv: f64,
    /// Kept samples the read and the write quantiles are taken over.
    pub read_samples: usize,
    pub write_samples: usize,
    /// Share of the ops whose two kernel runs disagreed.
    pub discarded_share: f64,
}

/// One figure per latency and throughput metric from the samples of every
/// position: (round ms, read p50, read p95, write p50, write p95, kept
/// read samples, kept write samples). Every position keeps the same number
/// of samples — the fastest `KEEP_SHARE` of the position that has the
/// fewest — so each weighs the same in the pooled quantiles, however many
/// of its ops were counted.
fn estimate(positions: Vec<(bool, Vec<f64>)>) -> (f64, [f64; 4], [usize; 2]) {
    let fewest = positions.iter().map(|(_, v)| v.len()).min().unwrap_or(0);
    let keep = ((fewest as f64 * KEEP_SHARE).ceil() as usize).max(1);
    let mut round_ms = 0.0;
    // [read, write]
    let mut pool: [Vec<f64>; 2] = Default::default();
    for (write, mut samples) in positions {
        samples.sort_unstable_by(f64::total_cmp);
        samples.truncate(keep);
        round_ms += median(&mut samples);
        pool[usize::from(write)].extend(samples);
    }
    let [reads, writes] = &mut pool;
    (
        round_ms,
        [
            quantile(reads, 0.5),
            quantile(reads, 0.95),
            quantile(writes, 0.5),
            quantile(writes, 0.95),
        ],
        [reads.len(), writes.len()],
    )
}

/// Position-paired estimation over rounds of identical shape (see the
/// module text). A position none of whose ops ran at one speed — the
/// machine was never quiet — falls back to all its samples. The `raw_`
/// figures are the same estimators over the unscaled times of all ops.
pub fn summarize(rounds: &[Round]) -> Summary {
    let mut s = Summary {
        rounds: rounds.len(),
        ..Summary::default()
    };
    let Some(shape) = rounds.first() else {
        return s;
    };
    let (reads, writes) = (
        shape.iter().filter(|op| !op.write).count(),
        shape.iter().filter(|op| op.write).count(),
    );
    if reads == 0 || writes == 0 {
        return s;
    }
    let mut steady_ops = 0;
    let (mut calibrated, mut raw) = (Vec::new(), Vec::new());
    for (j, first) in shape.iter().enumerate() {
        let at = || rounds.iter().map(move |round| &round[j]);
        assert!(
            at().all(|op| op.write == first.write),
            "position {j} is a read in one round and a write in another"
        );
        let mut steady: Vec<f64> = at()
            .filter(|op| op.steady())
            .map(OpSample::calibrated_ms)
            .collect();
        steady_ops += steady.len();
        if steady.is_empty() {
            steady = at().map(OpSample::calibrated_ms).collect();
        }
        calibrated.push((first.write, steady));
        raw.push((first.write, at().map(|op| op.ms).collect()));
    }
    s.ops = rounds.len() * shape.len();
    s.discarded_share = 1.0 - steady_ops as f64 / s.ops as f64;
    let per_s = |ms: f64| shape.len() as f64 * 1000.0 / ms;
    let (round_ms, [r50, r95, w50, w95], [read_samples, write_samples]) = estimate(calibrated);
    (s.round_ms, s.ops_per_s) = (round_ms, per_s(round_ms));
    (s.read_p50, s.read_p95, s.write_p50, s.write_p95) = (r50, r95, w50, w95);
    (s.read_samples, s.write_samples) = (read_samples, write_samples);
    let (round_ms, [r50, r95, w50, w95], _) = estimate(raw);
    (s.raw_round_ms, s.raw_ops_per_s) = (round_ms, per_s(round_ms));
    (s.raw_read_p50, s.raw_read_p95) = (r50, r95);
    (s.raw_write_p50, s.raw_write_p95) = (w50, w95);
    let mut cals: Vec<f64> = rounds.iter().flatten().map(|op| op.cal_before).collect();
    s.cal_cv = cv(&cals);
    s.cal_p50 = median(&mut cals);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Changing the kernel re-bases every number the benchmark has ever
    /// reported, so its output is pinned.
    #[test]
    fn kernel_checksum_is_frozen() {
        let mut cal = Cal::new();
        let (_, a) = cal.run();
        let (_, b) = cal.run();
        assert_eq!(a, b, "kernel must not depend on buffer state");
        assert_eq!(a, 0xc776_12ca_a504_5aac, "calibration kernel changed");
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert!((quantile(&mut v, 0.95) - 4.8).abs() < 1e-12);
        let mut one = vec![7.0];
        assert_eq!(quantile(&mut one, 0.95), 7.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
    }

    /// A synthetic run: each round does one 2 ms write and three reads of
    /// 5, 6 and 20 ms; `speed[r]` stretches everything in round `r`,
    /// calibration included.
    fn synthetic(speed: &[f64]) -> Vec<Round> {
        speed
            .iter()
            .enumerate()
            .map(|(r, &k)| {
                let wobble = 1.0 + (r % 5) as f64 * 0.004;
                [(true, 2.0), (false, 5.0), (false, 6.0), (false, 20.0)]
                    .iter()
                    .map(|&(write, ms)| OpSample {
                        write,
                        cal_before: CAL_REF_MS * k,
                        ms: ms * wobble * k,
                        cal_after: CAL_REF_MS * k,
                    })
                    .collect()
            })
            .collect()
    }

    fn timings(s: &Summary) -> [f64; 5] {
        [
            s.ops_per_s,
            s.read_p50,
            s.read_p95,
            s.write_p50,
            s.write_p95,
        ]
    }

    fn assert_close(a: &Summary, b: &Summary, share: f64) {
        for (x, y) in timings(a).into_iter().zip(timings(b)) {
            assert!((x - y).abs() / x < share, "{x} vs {y}");
        }
    }

    #[test]
    fn injected_slowdown_calibrates_back() {
        let clean = summarize(&synthetic(&[1.0; 60]));
        let mut speed = vec![1.0; 60];
        for k in speed.iter_mut().skip(20).take(20) {
            *k = 2.0;
        }
        let slowed = summarize(&synthetic(&speed));
        assert_close(&clean, &slowed, 0.02);
        assert_eq!(slowed.discarded_share, 0.0);
        // The raw figures carry the slow-down once it lasts longer than
        // the share of rounds the trimming sets aside.
        let mut speed = vec![2.0; 60];
        for k in speed.iter_mut().take(10) {
            *k = 1.0;
        }
        let slowed = summarize(&synthetic(&speed));
        assert_close(&clean, &slowed, 0.02);
        assert!(slowed.raw_read_p95 > 1.5 * clean.raw_read_p95);
    }

    /// Bursts the kernel runs never see — time added to the op alone, in
    /// half of the rounds — fall into the slower samples of their position
    /// and are set aside.
    #[test]
    fn bursts_inside_ops_are_trimmed() {
        let clean = summarize(&synthetic(&[1.0; 60]));
        let mut rounds = synthetic(&[1.0; 60]);
        for (r, round) in rounds.iter_mut().enumerate() {
            if r % 2 == 0 {
                round[r % 4].ms += 4.0;
            }
        }
        assert_close(&clean, &summarize(&rounds), 0.02);
    }

    #[test]
    fn an_op_that_saw_a_flip_is_not_counted() {
        let mut rounds = synthetic(&[1.0; 12]);
        // The machine slows down 1.4x halfway through round 3's 20 ms
        // read: it takes 1.2x as long, and the second calibration is 40 % up.
        rounds[3][3].cal_after = CAL_REF_MS * 1.4;
        rounds[3][3].ms *= 1.2;
        assert!(!rounds[3][3].steady() && rounds[3][2].steady());
        let s = summarize(&rounds);
        assert_eq!((s.rounds, s.ops), (12, 48));
        assert!((s.discarded_share - 1.0 / 48.0).abs() < 1e-12);
        // A third of the 11 samples the position with one op out has left.
        assert_eq!((s.write_samples, s.read_samples), (4, 12));
        assert!((s.read_p95 - 20.0).abs() < 0.2, "{}", s.read_p95);
        // In set-up, where nothing is dropped, it is scaled by the mean of
        // the two states it ran in.
        assert!((busy_ms(&rounds[3]) - 33.0 * 1.012).abs() < 0.05);
    }

    #[test]
    fn a_position_that_was_never_steady_keeps_all_its_samples() {
        let mut rounds = synthetic(&[1.0; 9]);
        for round in &mut rounds {
            round[0].cal_after *= 1.3;
        }
        let s = summarize(&rounds);
        assert!((s.discarded_share - 0.25).abs() < 1e-12);
        assert_eq!(s.write_samples, 3);
        assert!(s.write_p50 > 1.5 && s.write_p50 < 2.0, "{}", s.write_p50);
    }

    #[test]
    fn a_round_with_bursts_is_disturbed() {
        let mut rounds = synthetic(&[1.0, 1.45]);
        // The slow state is not a burst.
        assert!(!disturbed(&rounds[0], CAL_REF_MS) && !disturbed(&rounds[1], CAL_REF_MS));
        // One burst can hit the quietest machine...
        rounds[0][1].cal_after = CAL_REF_MS * 3.0;
        assert!(!disturbed(&rounds[0], CAL_REF_MS));
        // ... two in a round's five kernel runs do not.
        rounds[0][2].cal_after = CAL_REF_MS * 2.5;
        assert!(disturbed(&rounds[0], CAL_REF_MS));
        // In a long round two bursts are within the tenth it may have.
        let mut long: Round = synthetic(&[1.0; 8]).concat();
        long[3].cal_after = CAL_REF_MS * 3.0;
        long[9].cal_after = CAL_REF_MS * 3.0;
        long[20].cal_after = CAL_REF_MS * 3.0;
        assert!(!disturbed(&long, CAL_REF_MS));
        long[21].cal_after = CAL_REF_MS * 3.0;
        assert!(disturbed(&long, CAL_REF_MS));
    }

    #[test]
    fn quiet_box_leaves_numbers_alone() {
        let s = summarize(&synthetic(&[1.0; 9]));
        assert!((s.ops_per_s - s.raw_ops_per_s).abs() < 1e-9);
        assert!((s.cal_p50 - CAL_REF_MS).abs() < 1e-12);
        assert!(s.cal_cv < 1e-12);
        // Rounds differ by the 0.4 % wobble only, so the typical round is
        // the plain sum of its ops.
        assert!((s.round_ms - 33.0).abs() < 0.2, "{}", s.round_ms);
    }
}
