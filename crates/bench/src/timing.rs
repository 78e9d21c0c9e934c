//! Wall-clock measurement helpers for the reproduction harness.

use std::time::{Duration, Instant};

/// Times one execution of `f`, returning `(duration, result)`.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Times `f` `reps` times and returns the minimum duration (robust against
/// scheduler noise on small machines).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let (d, _) = time_once(&mut f);
        best = best.min(d);
    }
    best
}

/// Times `f` `reps` times and returns the median duration.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1)).map(|_| time_once(&mut f).0).collect();
    times.sort();
    times[times.len() / 2]
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Simple aligned table printer for harness output.
pub struct TablePrinter {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Starts a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut t = TablePrinter {
            widths: vec![0; header.len()],
            rows: Vec::new(),
        };
        t.row(header.iter().map(|s| s.to_string()).collect());
        t
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        for (i, c) in cells.iter().enumerate() {
            if i < self.widths.len() {
                self.widths[i] = self.widths[i].max(c.len());
            }
        }
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (ri, row) in self.rows.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", c, width = self.widths[i]));
            }
            out.push('\n');
            if ri == 0 {
                for w in &self.widths {
                    out.push_str(&"-".repeat(*w));
                    out.push_str("  ");
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures() {
        let (d, v) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_duration(Duration::from_nanos(500)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("us"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with("s"));
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = TablePrinter::new(&["a", "longer"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("a     "));
        assert!(s.lines().count() >= 3);
    }
}
