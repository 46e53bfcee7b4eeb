//! Order statistics and metric-name rules shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// The reported tail of a latency sample: the highest nearest-rank
/// percentile that still has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 × rank / n`.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs` by the rule above; `None` when there are too few
/// samples for any percentile to have `TAIL_BEYOND` samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Metric names are `[A-Za-z0-9_.-]+`, at most 64 characters, starting
/// with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.n, 200);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_the_smallest_sample_that_has_one() {
        let xs: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let xs: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 99.5);
        assert_eq!(t.value, 1989.0);
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in [
            "wall_s",
            "shield.consume_us",
            "parallel.speedup_w2",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "has space",
            "µs",
            "a/b",
            "x:y",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
