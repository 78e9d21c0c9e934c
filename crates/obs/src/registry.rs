//! Lock-sharded metrics registry: named counters, gauges, and latency
//! histograms (count, sum, max).
//!
//! Registration (name → handle) takes a shard lock once; the returned
//! `Arc` handle is then held by the instrumented subsystem, so every
//! hot-path update is a single relaxed atomic RMW with no map lookup
//! and no lock.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that can move both ways (epoch numbers,
/// entry counts, bytes resident).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-footprint latency histogram: count, sum and exact maximum.
///
/// `record` is three atomic RMWs — cheap enough for per-operation hot
/// paths. The count increment is the publishing store (`Release`) and
/// [`Histogram::snapshot`] loads the count first (`Acquire`), so a
/// snapshot never counts an observation whose sum and max it has not
/// seen.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.max.fetch_max(v, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Acquire);
        // Read after the count: every observation counted above
        // published its sum and max updates before its count increment.
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// The state of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (at least those `count` covers).
    pub sum: u64,
    /// Exact maximum observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// What kind of metric a name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A [`Counter`].
    Counter,
    /// A [`Gauge`].
    Gauge,
    /// A [`Histogram`].
    Histogram,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One metric's value in a registry snapshot.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

const SHARDS: usize = 16;

/// A lock-sharded registry of named metrics.
///
/// Names are dotted lowercase paths (`"cache.hits"`,
/// `"publish.nanos"`). Registering an existing name returns the same
/// underlying metric (handles are shared), so independent subsystems
/// can attach to one registry without coordination. Registering a name
/// as a different kind panics — that is a programming error, not a
/// runtime condition.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Metric>> {
        // FNV-1a, same as the result cache's fingerprint hash.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    fn get_or_register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let shard = self.shard(name);
        if let Some(m) = shard.read().get(name) {
            return m.clone();
        }
        let mut w = shard.write();
        w.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter named `name`, registering it at 0 if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_register(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            m => panic!("metric {name:?} is a {:?}, not a counter", m.kind()),
        }
    }

    /// The gauge named `name`, registering it at 0 if new.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_register(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            m => panic!("metric {name:?} is a {:?}, not a gauge", m.kind()),
        }
    }

    /// The histogram named `name`, registering it empty if new.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_register(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            m => panic!("metric {name:?} is a {:?}, not a histogram", m.kind()),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out: Vec<(String, MetricSnapshot)> = Vec::new();
        for shard in &self.shards {
            for (name, metric) in shard.read().iter() {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                out.push((name.clone(), snap));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The whole registry as one JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}` with
    /// keys sorted, histograms carrying `count`/`sum`/`max`/`mean`.
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for (name, m) in &snap {
            match m {
                MetricSnapshot::Counter(v) => {
                    let sep = if counters.is_empty() { "" } else { ", " };
                    let _ = write!(counters, "{sep}{}: {v}", json_str(name));
                }
                MetricSnapshot::Gauge(v) => {
                    let sep = if gauges.is_empty() { "" } else { ", " };
                    let _ = write!(gauges, "{sep}{}: {v}", json_str(name));
                }
                MetricSnapshot::Histogram(h) => {
                    let sep = if hists.is_empty() { "" } else { ", " };
                    let _ = write!(
                        hists,
                        "{sep}{}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}}}",
                        json_str(name),
                        h.count,
                        h.sum,
                        h.max,
                        h.mean(),
                    );
                }
            }
        }
        format!(
            "{{\"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \
             \"histograms\": {{{hists}}}}}"
        )
    }

    /// A human-readable dump, one metric per line, sorted by name.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, m) in &snap {
            match m {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(out, "counter {name:width$}  {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    let _ = writeln!(out, "gauge   {name:width$}  {v}");
                }
                MetricSnapshot::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "hist    {name:width$}  count={} mean={} max={}",
                        h.count,
                        crate::fmt_nanos(h.mean() as u64),
                        crate::fmt_nanos(h.max),
                    );
                }
            }
        }
        out
    }
}

/// Quotes and escapes `s` as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same metric.
        assert_eq!(reg.counter("a.count").get(), 5);
        let g = reg.gauge("a.gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_tracks_count_sum_and_max() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (7, 1107, 1000));
        assert!((s.mean() - 1107.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_extremes() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("z.c").add(3);
        reg.gauge("a.g").set(-2);
        reg.histogram("m.h").record(5);
        let json = reg.snapshot_json();
        assert!(json.contains("\"z.c\": 3"), "{json}");
        assert!(json.contains("\"a.g\": -2"), "{json}");
        assert!(
            json.contains("\"m.h\": {\"count\": 1, \"sum\": 5, \"max\": 5, \"mean\": 5.0}"),
            "{json}"
        );
        let text = reg.render_text();
        assert!(text.contains("counter"), "{text}");
        assert!(text.contains("gauge"), "{text}");
        assert!(text.contains("hist"), "{text}");
    }
}
