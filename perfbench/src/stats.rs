//! Order statistics over measured samples.

/// A sorted copy of `v` (NaNs sort last and never come from a clock).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quantile `q` of already sorted samples, linearly interpolated between
/// closest ranks. 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The lower quartile over consecutive blocks of `block` samples of each
/// block's quantile `q`; the plain quantile when `block` is 0 or the sample
/// is shorter than a block. Host noise on a shared machine only ever slows
/// a block of work down, and comes in bursts, so, like `timeit` taking the
/// fastest of its repeats, this takes the fast end over blocks.
pub fn block_quantile(v: &[f64], block: usize, q: f64) -> f64 {
    if block == 0 || v.len() < block {
        return quantile(&sorted(v), q);
    }
    let per_block: Vec<f64> = v.chunks_exact(block).map(|c| quantile(&sorted(c), q)).collect();
    quantile(&sorted(&per_block), 0.25)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// those computed from the same values with Python. Needs two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// regression bounds are judged against. 0 with fewer than two samples.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    match quartiles(v) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert!((quantile(&s, 0.99) - 4.96).abs() < 1e-9);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn block_statistics_ignore_a_burst_in_one_block() {
        let mut v = vec![1.0; 400];
        v[..100].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(block_quantile(&v, 100, 0.99), 1.0);
        assert_eq!(block_quantile(&v, 0, 0.99), 50.0);
        assert_eq!(block_quantile(&v[..50], 100, 0.5), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
