//! Order statistics and operation tallies.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it. `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median by nearest rank (the lower middle for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50).unwrap_or(0.0)
}

/// A tail latency and the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency sample.
    pub value: f64,
    /// Percentile of the sample's rank.
    pub pct: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The 99th percentile, or, when fewer than ten samples lie beyond it, the
/// highest rank with at least ten samples beyond it — but never below the
/// median, which stands in when the samples are too few for a tail.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    const BEYOND: usize = 10;
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let p99 = (99 * n).div_ceil(100).max(1);
    let rank = if n - p99 >= BEYOND {
        p99
    } else {
        n.saturating_sub(BEYOND).max(n.div_ceil(2))
    };
    Some(Tail {
        value: s[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed. An operation fails when the program
/// errs, refuses it, or its output fails a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Of those, operations that did not produce a checked-correct result.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` operations that share one outcome.
    pub fn record_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Operations that completed correctly.
    #[must_use]
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// A run is correct only if it attempted something and nothing failed.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[7.0], 50), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 99), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 50), Some(1.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 51), Some(2.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 99), Some(2.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 100), Some(100.0));
        let s67: Vec<f64> = (1..=67).map(f64::from).collect();
        // ceil(0.99 * 67) = 67: no rounding down to sample 66.
        assert_eq!(nearest_rank(&s67, 99), Some(67.0));
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&big).expect("non-empty");
        assert_eq!((t.value, t.samples), (1980.0, 2000));
        assert!((t.pct - 99.0).abs() < 1e-9);

        let mid: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&mid).expect("non-empty");
        assert_eq!(
            t.value, 490.0,
            "p99 would leave 5 beyond; rank n-10 instead"
        );
        assert!((t.pct - 98.0).abs() < 1e-9);

        let one = tail(&[4.0]).expect("non-empty");
        assert_eq!((one.value, one.samples), (4.0, 1));
        let two = tail(&[9.0, 4.0]).expect("non-empty");
        assert_eq!(two.value, 4.0, "two samples: the median stands in");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(
            tail(&eleven).expect("non-empty").value,
            6.0,
            "never below the median"
        );
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty).expect("non-empty").value, 20.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.all_ok(), "nothing attempted is not a pass");
        t.record(true);
        t.record(true);
        assert!(t.all_ok());
        t.record(false);
        assert_eq!((t.attempted, t.failed, t.succeeded()), (3, 1, 2));
        assert!(!t.all_ok());

        let mut sweep = Tally::default();
        sweep.record_many(50, false);
        sweep.record_many(50, true);
        assert_eq!(
            (sweep.attempted, sweep.failed, sweep.succeeded()),
            (100, 50, 50)
        );
        assert!(!sweep.all_ok());
    }
}
