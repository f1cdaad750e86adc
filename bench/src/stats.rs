//! Order statistics over small samples.

/// Nearest-rank quantile of an ascending slice; NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method) — the spread the acceptance rule uses.
/// `None` below two values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(3) - at(1)) / median(&v).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4)
        //   -> [3.5, 13.5, 31.0]; median 13.5
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(median(&v), 13.5);
        assert!((iqr_share(&v).unwrap() - 27.5 / 13.5).abs() < 1e-12);
        assert_eq!(quantile(&v, 0.5), 11.0);
        assert_eq!(quantile(&v, 0.99), 46.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
    }
}
