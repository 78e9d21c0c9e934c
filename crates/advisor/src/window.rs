//! The advisor's per-step sliding windows.
//!
//! The drop rule weighs *recent* maintenance against *recent* savings,
//! and the create rule wants *recent* query evidence. Each is a
//! [`Window`] of per-step samples; an index's two windows travel
//! together in an [`IndexWindow`], which differences the index's
//! cumulative maintained-row counter into per-step samples.

use std::collections::VecDeque;
use std::ops::AddAssign;

/// The last `cap` per-step samples of one quantity: push, trim, sum.
#[derive(Debug)]
pub(crate) struct Window<T> {
    cap: usize,
    samples: VecDeque<T>,
}

impl<T: Copy + Default + AddAssign> Window<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Window {
            cap,
            samples: VecDeque::new(),
        }
    }

    /// Appends one step's sample, dropping the oldest beyond `cap`.
    pub(crate) fn push(&mut self, sample: T) {
        self.samples.push_back(sample);
        while self.samples.len() > self.cap {
            self.samples.pop_front();
        }
    }

    pub(crate) fn sum(&self) -> T {
        let mut acc = T::default();
        for &s in &self.samples {
            acc += s;
        }
        acc
    }

    /// Whether `cap` steps are in — the point at which sums stop growing
    /// just because time passes.
    pub(crate) fn is_full(&self) -> bool {
        self.samples.len() >= self.cap
    }
}

/// One live index's windows: maintained rows (differenced from the
/// index's cumulative counter) and drained query savings, in lockstep.
#[derive(Debug)]
pub(crate) struct IndexWindow {
    last_maintained: u64,
    pub(crate) maintained: Window<u64>,
    pub(crate) saved: Window<f64>,
}

impl IndexWindow {
    /// A window that counts maintenance from `maintained` rows on.
    pub(crate) fn anchored(cap: usize, maintained: u64) -> Self {
        IndexWindow {
            last_maintained: maintained,
            maintained: Window::new(cap),
            saved: Window::new(cap),
        }
    }

    pub(crate) fn push(&mut self, maintained: u64, saved: f64) {
        self.maintained
            .push(maintained.saturating_sub(self.last_maintained));
        self.last_maintained = maintained;
        self.saved.push(saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_zero_counts_history() {
        // A fresh index anchors at zero: its first step counts every
        // row maintained so far.
        let mut w = IndexWindow::anchored(3, 0);
        w.push(100, 0.0);
        assert_eq!(w.maintained.sum(), 100);
        w.push(110, 0.0);
        assert_eq!(w.maintained.sum(), 110);
        assert!(!w.maintained.is_full());
    }

    #[test]
    fn anchored_excludes_history() {
        let mut w = IndexWindow::anchored(3, 100);
        w.push(110, 0.0);
        assert_eq!(w.maintained.sum(), 10);
    }

    #[test]
    fn trims_to_capacity() {
        let mut w: Window<u64> = Window::new(2);
        w.push(1);
        assert_eq!(w.sum(), 1);
        assert!(!w.is_full());
        for sample in [2, 3, 4] {
            w.push(sample);
        }
        assert_eq!(w.sum(), 7, "the last two samples");
        assert!(w.is_full());
    }

    #[test]
    fn zero_capacity_is_always_full_and_empty() {
        let mut w: Window<u64> = Window::new(0);
        w.push(5);
        assert_eq!(w.sum(), 0);
        assert!(w.is_full());
    }

    #[test]
    fn counter_reset_saturates() {
        let mut w = IndexWindow::anchored(4, 10);
        w.push(4, 0.0); // a re-created index counts from zero again
        assert_eq!(w.maintained.sum(), 0);
        w.push(9, 0.0);
        assert_eq!(w.maintained.sum(), 5);
    }

    #[test]
    fn float_windows() {
        let mut w = IndexWindow::anchored(2, 0);
        w.push(0, 1.0);
        w.push(0, 2.5);
        w.push(0, 1.5);
        assert!((w.saved.sum() - 4.0).abs() < 1e-12, "the last two savings");
        assert!(w.saved.is_full());
    }
}
