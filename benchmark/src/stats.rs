//! Order statistics and rank correlation used by every workload.

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The fastest of repeated timings of the same work; 0 for an empty set.
/// Interference on a shared machine only ever adds time, and on the VMs
/// this runs on it comes in bursts of seconds: the fastest of a few passes
/// repeats to about 2 % where their median moves by 10 %.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The percentile ladder a tail may be reported at, in per mille.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a set of `n`; `None` when even p75 has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the acceptance spread is defined with. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, clamped to the data range.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Geometric mean of positive values; 0 when empty or any value is ≤ 0.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Kendall's τ-b between two equally long series (ties corrected);
/// 0 when fewer than two points or one series is constant.
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    let (mut concordant, mut discordant, mut tie_x, mut tie_y) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i].total_cmp(&xs[j]);
            let dy = ys[i].total_cmp(&ys[j]);
            use std::cmp::Ordering::Equal;
            match (dx, dy) {
                (Equal, Equal) => {}
                (Equal, _) => tie_x += 1,
                (_, Equal) => tie_y += 1,
                _ if dx == dy => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let denom =
        (((concordant + discordant + tie_x) * (concordant + discordant + tie_y)) as f64).sqrt();
    if denom > 0.0 {
        (concordant - discordant) as f64 / denom
    } else {
        0.0
    }
}

/// The `k` worst rank inversions between a predicted and a measured
/// series: pairs the prediction orders one way and the measurement the
/// other, ranked by the product of the two relative gaps.
pub fn worst_inversions(pred: &[f64], meas: &[f64], k: usize) -> Vec<(usize, usize, f64)> {
    let n = pred.len().min(meas.len());
    let mut inv = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let dp = pred[i] - pred[j];
            let dm = meas[i] - meas[j];
            if dp * dm < 0.0 {
                let rel = |d: f64, a: f64, b: f64| d.abs() / a.abs().max(b.abs()).max(1e-12);
                inv.push((i, j, rel(dp, pred[i], pred[j]) * rel(dm, meas[i], meas[j])));
            }
        }
    }
    inv.sort_by(|a, b| b.2.total_cmp(&a.2));
    inv.truncate(k);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(600), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn kendall_tau_on_known_permutations() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(kendall_tau(&x, &x), 1.0);
        assert_eq!(kendall_tau(&x, &[5.0, 4.0, 3.0, 2.0, 1.0]), -1.0);
        // One adjacent swap out of 10 pairs: (9 - 1) / 10.
        assert!((kendall_tau(&x, &[2.0, 1.0, 3.0, 4.0, 5.0]) - 0.8).abs() < 1e-12);
        assert_eq!(kendall_tau(&x, &[1.0; 5]), 0.0);
    }

    #[test]
    fn inversions_are_ranked_by_gap() {
        let pred = [1.0, 2.0, 3.0];
        let meas = [1.0, 3.0, 0.5];
        let inv = worst_inversions(&pred, &meas, 3);
        assert_eq!(inv.len(), 2);
        // (0, 2): gaps 2/3 and 1/2; (1, 2): gaps 1/3 and 5/6.
        assert_eq!((inv[0].0, inv[0].1), (0, 2));
        assert_eq!((inv[1].0, inv[1].1), (1, 2));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
