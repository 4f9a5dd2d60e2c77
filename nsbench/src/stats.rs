//! Quantiles under the percentile rule, and the open-loop latency
//! bookkeeping of the upload schedule.

use std::time::Duration;

/// Frames needed before anything beyond the median is reported.
pub const MIN_TAIL_SAMPLES: usize = 40;
/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// Whether quantile `q` of `n` samples may be reported: the median always
/// (given one sample), anything higher only from [`MIN_TAIL_SAMPLES`]
/// samples and with at least [`MIN_BEYOND`] of them beyond it — so p90
/// needs 100 samples and p99 needs 1,000.
pub fn reportable(q: f64, n: usize) -> bool {
    if q <= 0.5 {
        return n >= 1;
    }
    n >= MIN_TAIL_SAMPLES && n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9
}

/// Quantile `q` of ascending `sorted` values, interpolating linearly
/// between the closest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// The median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency distribution summarized under the percentile rule: a quantile
/// the sample count cannot support is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, from 100 samples.
    pub p90: Option<f64>,
    /// 99th percentile, from 1,000 samples.
    pub p99: Option<f64>,
    /// Largest value, from [`MIN_TAIL_SAMPLES`] samples.
    pub max: Option<f64>,
}

impl Summary {
    /// Summarizes `values` (any order); `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |q: f64| reportable(q, n).then(|| quantile(&v, q));
        Some(Self {
            count: n,
            p50: quantile(&v, 0.5),
            p90: at(0.90),
            p99: at(0.99),
            max: (n >= MIN_TAIL_SAMPLES).then(|| v[n - 1]),
        })
    }
}

/// The end-to-end frame latency figures of a run: the median over passes
/// of each pass's p50 and p90. A pass is one loop of the workload's
/// capture, so every pass offers the same rounds; the median over passes
/// keeps a few seconds of a slow machine out of the run's figure. Fails
/// when a pass holds too few frames for a p90.
pub fn pass_p50_p90(passes: &[Vec<f64>]) -> Result<(f64, f64), String> {
    let mut p50 = Vec::with_capacity(passes.len());
    let mut p90 = Vec::with_capacity(passes.len());
    for (i, pass) in passes.iter().enumerate() {
        let s = Summary::of(pass).ok_or_else(|| format!("pass {i} decoded no frames"))?;
        p50.push(s.p50);
        p90.push(
            s.p90
                .ok_or_else(|| format!("pass {i}: {} frames cannot support a p90", s.count))?,
        );
    }
    if passes.is_empty() {
        return Err("no passes".to_string());
    }
    Ok((median(&p50), median(&p90)))
}

/// A fixed open-loop upload schedule: piece `k` (samples
/// `[k·piece, (k+1)·piece)` of the looped stream) is due once its last
/// sample exists on a radio producing `rate` samples per second, i.e. at
/// `(k+1)·piece / rate` after the schedule starts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Samples per piece.
    pub piece: u64,
    /// Offered samples per second.
    pub rate: f64,
}

impl Schedule {
    /// Offset from the schedule start at which piece `k` is due.
    pub fn piece_due(&self, k: u64) -> Duration {
        Duration::from_secs_f64((k + 1) as f64 * self.piece as f64 / self.rate)
    }

    /// Offset at which `sample` was due: the due time of its piece.
    pub fn sample_due(&self, sample: u64) -> Duration {
        self.piece_due(sample / self.piece)
    }

    /// Frame latency in ms: receipt offset minus the due offset of the
    /// round's last sample. Negative means the bookkeeping is broken.
    pub fn latency_ms(&self, last_sample: u64, received: Duration) -> f64 {
        (received.as_secs_f64() - self.sample_due(last_sample).as_secs_f64()) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_gates_the_tail_on_sample_count() {
        assert!(reportable(0.5, 1));
        assert!(!reportable(0.5, 0));
        assert!(!reportable(0.75, 39));
        assert!(reportable(0.75, 40));
        assert!(!reportable(0.9, 99));
        assert!(reportable(0.9, 100));
        assert!(!reportable(0.99, 999));
        assert!(reportable(0.99, 1000));
    }

    #[test]
    fn summary_withholds_what_the_count_cannot_support() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        let s = Summary::of(&few).unwrap();
        assert_eq!((s.count, s.p50), (39, 19.0));
        assert_eq!((s.p90, s.p99, s.max), (None, None, None));

        let many: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!(s.p50, 499.5);
        assert!((s.p90.unwrap() - 899.1).abs() < 1e-9);
        assert!((s.p99.unwrap() - 989.01).abs() < 1e-9);
        assert_eq!(s.max, Some(999.0));

        let mid: Vec<f64> = (0..500).map(f64::from).collect();
        let s = Summary::of(&mid).unwrap();
        assert!(s.p90.is_some() && s.p99.is_none());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn pass_figures_are_medians_of_per_pass_quantiles() {
        let pass = |offset: f64| -> Vec<f64> { (0..100).map(|i| offset + i as f64).collect() };
        let (p50, p90) = pass_p50_p90(&[pass(0.0), pass(1000.0), pass(2.0)]).unwrap();
        assert_eq!(p50, 2.0 + 49.5);
        assert!((p90 - (2.0 + 89.1)).abs() < 1e-9);
        assert!(pass_p50_p90(&[pass(0.0), vec![1.0; 99]]).is_err());
        assert!(pass_p50_p90(&[]).is_err());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn schedule_prices_a_sample_at_its_piece_due_time() {
        // 8192-sample pieces at 4 Msps: one piece every 2.048 ms.
        let s = Schedule {
            piece: 8192,
            rate: 4e6,
        };
        assert_eq!(s.piece_due(0), Duration::from_micros(2048));
        assert_eq!(s.sample_due(0), s.piece_due(0));
        assert_eq!(s.sample_due(8191), s.piece_due(0));
        assert_eq!(s.sample_due(8192), s.piece_due(1));
        // Looping does not reset the clock: sample 3·8192+5 is in piece 3.
        assert_eq!(s.sample_due(3 * 8192 + 5), Duration::from_micros(4 * 2048));
        let lat = s.latency_ms(8191, Duration::from_micros(2048 + 18_000));
        assert!((lat - 18.0).abs() < 1e-9);
        assert!(s.latency_ms(8192, Duration::from_micros(2048)) < 0.0);
    }
}
