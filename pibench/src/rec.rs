//! What a workload reports into while it runs: op latencies, attempts and
//! failures, the op-sequence hash and — in a traced run only — a span
//! around every public call the driver makes.

use std::io::Write;
use std::time::Instant;

use crate::cal::{Cal, OpSample, Round};
use crate::util::OpHash;

/// One recorded span. `parent` indexes into the same span list (-1 for a
/// root); spans of one round share `round` (-1 during set-up).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i32,
    pub round: i32,
}

/// Spans the driver opens around its own work; every other span is a call
/// into the product.
const DRIVER_SPANS: [&str; 5] = ["round", "read", "write", "cal", "input"];

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Recorder {
    /// Whether spans are recorded and reads take the traced query path.
    pub traced: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub round: i32,
    /// The ops of the round in progress.
    pub ops: Round,
    cal: Cal,
    /// The latest calibration and when it ended: an op that starts right
    /// after it reuses it as its "before".
    last_cal: Option<(Instant, f64)>,
    /// The fastest kernel run so far (ms): the machine at its quietest.
    pub fastest_cal: f64,
    pub attempted: u64,
    pub failed: u64,
    pub hash: OpHash,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            traced: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: -1,
            ops: Vec::new(),
            cal: Cal::new(),
            last_cal: None,
            fastest_cal: f64::INFINITY,
            attempted: 0,
            failed: 0,
            hash: OpHash::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when untraced).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().map_or(-1, |&p| p as i32),
            round: self.round,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// One calibration sample, attributed to a `cal` span when traced.
    pub fn calibrate(&mut self) -> f64 {
        let ms = self.span("cal", |rec| rec.cal.ms());
        self.last_cal = Some((Instant::now(), ms));
        self.fastest_cal = self.fastest_cal.min(ms);
        ms
    }

    fn op<T>(&mut self, write: bool, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.attempted += 1;
        let cal_before = match self.last_cal {
            Some((at, ms)) if at.elapsed().as_micros() < 500 => ms,
            _ => self.calibrate(),
        };
        let t = Instant::now();
        let out = self.span(if write { "write" } else { "read" }, f);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cal_after = self.calibrate();
        self.ops.push(OpSample {
            write,
            cal_before,
            ms,
            cal_after,
        });
        out
    }

    /// One read op: timed from submit to result in hand.
    pub fn read<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op(false, f)
    }

    /// One write op: timed from submit until the write is visible to a
    /// new snapshot.
    pub fn write<T>(&mut self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op(true, f)
    }

    /// Counts the op in progress as failed (refused, errored).
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("pibench: op failed: {why}");
    }

    /// Feeds op kind and parameters into the op-sequence hash.
    pub fn note(&mut self, words: &[u64]) {
        self.hash.feed(words);
    }

    /// Total duration (ms) of the spans named `name`.
    pub fn span_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Mean duration (ms) of the spans named `name` (0 when there is none).
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        let n = self.spans.iter().filter(|s| s.name == name).count();
        self.span_total_ms(name) / n.max(1) as f64
    }

    /// Durations (ms) of the spans named `name` that lie in a round.
    pub fn span_samples(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.round >= 0)
            .map(Span::ms)
            .collect()
    }

    /// Share of round time spent outside calls into the product: the
    /// driver's own calibration, input generation and glue. Only spans
    /// around product calls count as covered (the outermost ones, should
    /// they ever nest).
    pub fn unattributed_share(&self) -> f64 {
        let is_driver = |s: &Span| DRIVER_SPANS.contains(&s.name);
        let total = self.span_total_ms("round");
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.round >= 0 && !is_driver(s))
            .filter(|s| s.parent < 0 || is_driver(&self.spans[s.parent as usize]))
            .map(Span::ms)
            .sum();
        if total == 0.0 {
            0.0
        } else {
            (1.0 - covered / total).max(0.0)
        }
    }

    /// Writes the spans as JSON lines: name, start and end in ns since
    /// the recorder was created, parent span id, round id.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.round
            )?;
        }
        out.flush()
    }
}

/// Set-up stages, each calibrated by the kernel runs before and after it
/// (the fastest of three on either side: a stage runs once, so a burst in
/// its one calibration would go straight into `setup_s`).
#[derive(Default)]
pub struct Stages {
    /// (stage name, calibrated ms, raw ms)
    pub done: Vec<(&'static str, f64, f64)>,
}

impl Stages {
    pub fn run<T>(&mut self, name: &'static str, rec: &mut Recorder, f: impl FnOnce() -> T) -> T {
        fn fastest_of_three(rec: &mut Recorder) -> f64 {
            (0..3)
                .map(|_| rec.calibrate())
                .fold(f64::INFINITY, f64::min)
        }
        let before = fastest_of_three(rec);
        let t = Instant::now();
        let out = rec.span(name, |_| f());
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let after = fastest_of_three(rec);
        self.done
            .push((name, raw * crate::cal::factor(before, after), raw));
        out
    }

    pub fn total_ms(&self) -> f64 {
        self.done.iter().map(|(_, ms, _)| ms).sum()
    }

    pub fn raw_total_ms(&self) -> f64 {
        self.done.iter().map(|(_, _, raw)| raw).sum()
    }

    pub fn stage_ms(&self, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, ms, _)| ms)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attribute() {
        let mut rec = Recorder::new();
        rec.traced = true;
        rec.round = 0;
        rec.span("round", |rec| {
            rec.read(|rec| {
                rec.span("plan", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                })
            });
            rec.write(|_| ());
        });
        let names: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("round", -1),
                ("cal", 0),
                ("read", 0),
                ("plan", 2),
                ("cal", 0),
                ("write", 0),
                ("cal", 0)
            ],
            "the write reuses the read's second calibration"
        );
        assert_eq!((rec.attempted, rec.ops.len()), (2, 2));
        assert_eq!(rec.ops[0].cal_after, rec.ops[1].cal_before);
        assert!(!rec.ops[0].write && rec.ops[1].write);
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        // `plan` (4 ms) is the only product span; the round's three
        // calibrations (~1.3 ms each) are the driver's.
        let share = rec.unattributed_share();
        assert!(share > 0.2 && share < 0.8, "{share}");
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut rec = Recorder::new();
        rec.read(|rec| rec.span("plan", |_| ()));
        assert!(rec.spans.is_empty());
        assert_eq!(rec.ops.len(), 1);
    }
}
