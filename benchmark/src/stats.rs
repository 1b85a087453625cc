//! Order statistics and the regression rule, kept free of I/O so they
//! can be unit-tested.

/// Ascending copy of `values` (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile (`q` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Each query's wall time over the yardstick's wall time for the same
/// source, run right after it on the same thread.
pub fn paired_ratios(query_s: &[f64], yardstick_s: &[f64]) -> Vec<f64> {
    assert_eq!(query_s.len(), yardstick_s.len(), "one yardstick per query");
    query_s
        .iter()
        .zip(yardstick_s)
        .map(|(q, y)| q / y)
        .collect()
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so a spread computed here equals the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => panic!("quartiles of no samples"),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median and quartiles of the runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        let s = sorted(values);
        Self {
            median,
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing run set B against run set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound, so the medians cannot
    /// resolve a change of that size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of A's median by which B's median is worse (negative = better).
pub fn worsening(a_median: f64, b_median: f64, better: Better) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b_median - a_median) / a_median.abs(),
        Better::Higher => (a_median - b_median) / a_median.abs(),
    }
}

/// The regression rule: `unresolved` when either side's quartile spread
/// is wider than the bound (unless every B run beats every A run),
/// `worse` when B's median is worse by more than the bound, else `ok`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let b_always_better = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    if b_always_better {
        Verdict::Ok
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if worsening(sa.median, sb.median, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_three_ignores_one_outlier() {
        assert_eq!(median(&[0.80, 5.0, 0.82]), 0.82);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn paired_ratio_cancels_a_common_slowdown() {
        let q = [20.0, 40.0, 30.0];
        let y = [4.0, 8.0, 6.0]; // the host was 2x slow during pair 2
        assert_eq!(paired_ratios(&q, &y), vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        let s = Summary::of(&v);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_logic() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.2, 10.1, 10.0, 10.3, 10.15];
        let slow = [11.6, 11.5, 11.7, 11.55, 11.65];
        let noisy = [8.0, 12.0, 10.0, 13.0, 7.0];
        let fast = [5.0, 5.1, 4.9, 5.0, 5.2];
        assert_eq!(judge(&a, &same, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &slow, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &fast, Better::Lower, 0.10), Verdict::Ok);
        // Higher-is-better flips the direction; a zero bound allows no loss.
        assert_eq!(judge(&a, &slow, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&slow, &a, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&[2.0], &[2.0], Better::Higher, 0.0), Verdict::Ok);
        assert_eq!(judge(&[2.0], &[1.999], Better::Higher, 0.0), Verdict::Worse);
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }
}
