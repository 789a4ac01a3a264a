//! Observability inside the product: fixed-size summaries the serving loop
//! records into as it runs, so what it reports costs the same memory
//! whatever the run's length.
//!
//! [`LatencySummary`] is the served-latency summary of a fleet run (and so
//! of [`crate::serve`], a 1 × 1 fleet): an exact, order-independent mean
//! and a p99 read off a log-bucketed histogram. One sample costs an integer
//! add into the exact sum, one bucket increment and a max; the summary is
//! allocated once and never grows.

/// Sub-buckets per octave, as a power of two: 2^10, so a bucket is at most
/// 2^-10 of its lower edge wide.
const SUB_BITS: u32 = 10;
/// Low bits of an `f64` pattern below the sub-bucket index.
const SHIFT: u32 = 52 - SUB_BITS;
/// Bit pattern of 2^-40 s, the lower edge of the first regular bucket.
const LOW: i64 = (1023 - 40) << 52;
/// Bit pattern of 2^24 s, the upper edge of the last regular bucket.
const HIGH: i64 = (1023 + 24) << 52;
/// The low edge bin (below 2^-40 s: zero, subnormal, negative), 64 octaves
/// of 2^10 buckets, and the high edge bin (2^24 s and above).
const BUCKETS: usize = ((HIGH - LOW) >> SHIFT) as usize + 2;
/// Exponent fields of finite `f64`s; 2047 is infinity and NaN.
const EXPONENTS: usize = 2047;
/// 64-bit limbs of the exact sum in units of 2^-1074: a bin's sum is
/// below 2^127 and its scale at most 2^2045, so 35 limbs hold the total
/// with a sign limb to spare.
const LIMBS: usize = 35;

/// Served latencies summarised in fixed memory: a count per log bucket, a
/// sum of integer significands per binary exponent, the count and the
/// maximum. The summary depends on the multiset of samples only, never on
/// the order they were recorded in.
pub(crate) struct LatencySummary {
    /// Samples per bucket; see [`BUCKETS`].
    counts: Vec<u64>,
    /// Per exponent field `e`, the sum of the signed 53-bit integer
    /// significands `m` of the finite samples `m · 2^(max(e, 1) − 1075)`.
    sums: Vec<i128>,
    /// The sum of the non-finite samples; 0 when there are none.
    non_finite: f64,
    n: u64,
    max: f64,
}

impl LatencySummary {
    pub(crate) fn new() -> LatencySummary {
        LatencySummary {
            counts: vec![0; BUCKETS],
            sums: vec![0; EXPONENTS],
            non_finite: 0.0,
            n: 0,
            max: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn record(&mut self, x: f64) {
        let bits = x.to_bits();
        let e = (bits >> 52) as usize & EXPONENTS;
        if e == EXPONENTS {
            self.non_finite += x;
        } else {
            let m = ((bits & ((1 << 52) - 1)) | (u64::from(e != 0) << 52)) as i128;
            self.sums[e] += if x.is_sign_negative() { -m } else { m };
        }
        // Positive patterns order like their values; every negative one is
        // below `LOW` and lands in the low edge bin.
        let bucket = ((bits as i64).saturating_sub(LOW) >> SHIFT) + 1;
        self.counts[bucket.clamp(0, BUCKETS as i64 - 1) as usize] += 1;
        self.n += 1;
        self.max = self.max.max(x);
    }

    /// The mean, correctly rounded: Σ/n taken exactly, rounded once to
    /// nearest, ties to even; 0 when empty. Non-finite samples make it
    /// their float sum (±∞ or NaN).
    pub(crate) fn mean(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.non_finite != 0.0 {
            return self.non_finite;
        }
        // Σ in units of 2^-1074, two's complement.
        let mut q = [0u64; LIMBS];
        for (e, &sum) in self.sums.iter().enumerate() {
            if sum != 0 {
                add_shifted(&mut q, sum, e.max(1) - 1);
            }
        }
        let negative = q[LIMBS - 1] >> 63 == 1;
        if negative {
            let mut carry = true;
            for limb in &mut q {
                (*limb, carry) = (!*limb).overflowing_add(u64::from(carry));
            }
        }
        // |Σ| / n = q + rem / n.
        let n = u128::from(self.n);
        let mut rem = 0u128;
        for limb in q.iter_mut().rev() {
            let cur = (rem << 64) | u128::from(*limb);
            *limb = (cur / n) as u64;
            rem = cur % n;
        }
        // Keep the top 53 bits of q, dropping k; what is dropped decides
        // the rounding.
        let len = q
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |i| 64 * i + 64 - q[i].leading_zeros() as usize);
        let k = len.saturating_sub(53);
        let mant = window(&q, k) & ((1 << 53) - 1);
        let up = if k == 0 {
            2 * rem > n || (2 * rem == n && mant & 1 == 1)
        } else {
            let half = window(&q, k - 1) & 1 == 1;
            let sticky = rem != 0 || any_below(&q, k - 1);
            half && (sticky || mant & 1 == 1)
        };
        // The value is mant · 2^(k − 1074): for k = 0 that pattern is mant
        // itself (subnormal up to the first binade), and each further k adds
        // one to the exponent field. A carry out of the mantissa carries
        // into the exponent, and overflow saturates at infinity.
        let magnitude = ((k as u64) << 52)
            .saturating_add(mant + u64::from(up))
            .min(f64::INFINITY.to_bits());
        f64::from_bits(magnitude | (u64::from(negative) << 63))
    }

    /// The sample at rank `ceil(0.99·n) − 1` to within its bucket: the
    /// bucket's upper edge, clamped to the exact maximum. Never below the
    /// order statistic and, inside the regular range, at most 2^-10 of it
    /// above; the high edge bin reports the maximum. 0 when empty.
    pub(crate) fn p99(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n as f64 * 0.99).ceil() as u64).saturating_sub(1);
        let above = self.n - 1 - rank;
        let mut seen = 0;
        let bucket = self
            .counts
            .iter()
            .rposition(|&c| {
                seen += c;
                seen > above
            })
            .unwrap_or(BUCKETS - 1);
        if bucket == BUCKETS - 1 {
            return self.max;
        }
        f64::from_bits((LOW + ((bucket as i64) << SHIFT)) as u64).min(self.max)
    }
}

/// Adds `value · 2^shift` to the two's-complement integer `acc`.
fn add_shifted(acc: &mut [u64; LIMBS], value: i128, shift: usize) {
    let words = [value as u64, (value >> 64) as u64];
    let fill = (value >> 127) as u64;
    let off = shift % 64;
    let mut below = 0u64;
    let mut carry = false;
    for (i, limb) in acc[shift / 64..].iter_mut().enumerate() {
        let word = words.get(i).copied().unwrap_or(fill);
        let shifted = if off == 0 {
            word
        } else {
            (word << off) | (below >> (64 - off))
        };
        below = word;
        let (sum, c1) = limb.overflowing_add(shifted);
        let (sum, c2) = sum.overflowing_add(u64::from(carry));
        *limb = sum;
        carry = c1 || c2;
    }
}

/// The 64 bits of `q` from bit `at` up (zeros past the top).
fn window(q: &[u64; LIMBS], at: usize) -> u64 {
    let (i, off) = (at / 64, at % 64);
    let lo = u128::from(q[i]);
    let hi = u128::from(q.get(i + 1).copied().unwrap_or(0));
    (((hi << 64) | lo) >> off) as u64
}

/// Whether any bit of `q` below bit `at` is set.
fn any_below(q: &[u64; LIMBS], at: usize) -> bool {
    let (i, off) = (at / 64, at % 64);
    q[..i].iter().any(|&limb| limb != 0) || q[i] & ((1 << off) - 1) != 0
}

/// The summary by sorting: sorts `latencies` and returns the mean summed
/// in ascending order and the sample at rank `ceil(0.99·n) − 1`; `(0, 0)`
/// when empty. The reference the tests hold [`LatencySummary`] to.
#[cfg(test)]
pub(crate) fn sorted_summary(latencies: &mut [f64]) -> (f64, f64) {
    latencies.sort_unstable_by(f64::total_cmp);
    let n = latencies.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let idx = ((n as f64 * 0.99).ceil() as usize).saturating_sub(1);
    (latencies.iter().sum::<f64>() / n as f64, latencies[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 2^-10, the relative bucket width.
    const WIDTH: f64 = 1.0 / 1024.0;

    fn summary(xs: &[f64]) -> (f64, f64) {
        let mut s = LatencySummary::new();
        for &x in xs {
            s.record(x);
        }
        (s.mean(), s.p99())
    }

    /// Latency-like samples: log-uniform over 1 µs … 100 s.
    fn latencies(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-6.0..2.0)))
            .collect()
    }

    /// Σ/n correctly rounded, for samples that are multiples of 2^-60
    /// below 2^20 and at most 2^14 of them: an exact fixed-point sum,
    /// divided with enough quotient bits that a jammed sticky bit sits
    /// below the rounding position of the `u128` → `f64` conversion.
    fn fixed_point_mean(xs: &[f64]) -> f64 {
        let sum: u128 = xs
            .iter()
            .map(|&x| {
                let units = x * 2f64.powi(60);
                assert!((0.0..2f64.powi(20)).contains(&x) && units.fract() == 0.0);
                units as u128
            })
            .sum();
        if sum == 0 {
            return 0.0;
        }
        let n = xs.len() as u128;
        let k = sum.leading_zeros() - 1;
        let scaled = sum << k;
        let q = (scaled / n) | u128::from(!scaled.is_multiple_of(n));
        assert!(q >> 56 != 0, "the jammed bit is below the rounding bit");
        q as f64 * f64::from_bits(u64::from(1023 - 60 - k) << 52)
    }

    #[test]
    fn p99_reports_the_bucket_of_the_ceil_099n_minus_one_sample() {
        assert_eq!(summary(&[]), (0.0, 0.0));
        assert_eq!(summary(&[0.25]), (0.25, 0.25));
        // Unsorted input; sample i has value i, so the p99 sample is its
        // rank. 98 is a bucket's lower edge (64 + 34 · 2^-4); 99, the
        // maximum, is in a higher bucket, so the upper edge stands.
        let hundred: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(summary(&hundred), (49.5, 98.0 + 1.0 / 16.0));
        let hundred_one: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert_eq!(summary(&hundred_one), (50.0, 99.0 + 1.0 / 16.0));
        // With n ≤ 100 the rank is the maximum's: exact.
        assert_eq!(summary(&hundred[1..]).1, 98.0);
    }

    #[test]
    fn any_order_gives_the_same_summary() {
        let mut rng = StdRng::seed_from_u64(0x0B5);
        let mut xs = latencies(&mut rng, 5000);
        // Mixed signs and magnitudes, where a float sum depends on order.
        xs.extend([1e16, -1e16, 3.0, 1e-300, -2.5e-310, 7e200]);
        let reference = summary(&xs);
        for _ in 0..20 {
            for i in (1..xs.len()).rev() {
                xs.swap(i, rng.gen_range(0..=i));
            }
            let (mean, p99) = summary(&xs);
            assert_eq!(mean.to_bits(), reference.0.to_bits());
            assert_eq!(p99.to_bits(), reference.1.to_bits());
        }
    }

    #[test]
    fn p99_is_within_one_bucket_above_the_order_statistic() {
        let mut rng = StdRng::seed_from_u64(0x99);
        for n in [1, 2, 99, 100, 101, 150, 1000, 4321, 20_000] {
            for _ in 0..5 {
                let mut xs = latencies(&mut rng, n);
                let (_, p99) = summary(&xs);
                let (_, exact) = sorted_summary(&mut xs);
                assert!(
                    exact <= p99 && p99 <= exact * (1.0 + WIDTH),
                    "n {n}: {p99} against {exact}"
                );
            }
        }
    }

    #[test]
    fn mean_is_the_correctly_rounded_exact_mean() {
        let mut rng = StdRng::seed_from_u64(0x3EA);
        for n in [1, 2, 3, 7, 100, 1000, 16_000] {
            for _ in 0..10 {
                let xs: Vec<f64> = latencies(&mut rng, n)
                    .into_iter()
                    .map(|x| (x * 2f64.powi(60)).round() / 2f64.powi(60))
                    .collect();
                assert_eq!(summary(&xs).0, fixed_point_mean(&xs), "n {n}");
            }
        }
        // Where a float sum loses or overflows.
        assert_eq!(summary(&[1e16, 1.0, -1e16]).0, 1.0 / 3.0);
        assert_eq!(summary(&[f64::MAX, f64::MAX]).0, f64::MAX);
        assert_eq!(summary(&[-f64::MAX, -f64::MAX]).0, -f64::MAX);
        // Subnormals: 2^-1074 / 2 ties to even (0); 3 · 2^-1074 / 2 to 2^-1073.
        let tiny = f64::from_bits(1);
        assert_eq!(summary(&[tiny, 0.0]).0, 0.0);
        assert_eq!(summary(&[3.0 * tiny, 0.0]).0, 2.0 * tiny);
        assert_eq!(
            summary(&[f64::MIN_POSITIVE, 0.0]).0,
            f64::MIN_POSITIVE / 2.0
        );
        assert_eq!(summary(&[f64::INFINITY, 1.0]).0, f64::INFINITY);
        assert!(summary(&[f64::INFINITY, f64::NEG_INFINITY]).0.is_nan());
    }

    #[test]
    fn bucket_edges_and_edge_bins() {
        // A sample on a lower edge reports the upper edge unless it is the
        // maximum.
        let mut on_edge = vec![1.0; 150];
        on_edge.push(2.0);
        assert_eq!(summary(&on_edge).1, 1.0 + WIDTH);
        on_edge.pop();
        assert_eq!(summary(&on_edge).1, 1.0);
        // The regular range's ends.
        let low = 2f64.powi(-40);
        let high = 2f64.powi(24);
        assert_eq!(summary(&[low; 3]).1, low);
        let mut below_high = vec![high * (1.0 - f64::EPSILON); 150];
        below_high.push(high * 2.0);
        assert_eq!(summary(&below_high).1, high);
        // The low edge bin: its upper edge 2^-40, clamped to the maximum.
        let tiny = [1e-15, 0.0, -3.0, 5e-324];
        assert_eq!(summary(&tiny).1, 1e-15);
        let mut low_bin = vec![1e-15; 150];
        low_bin.push(1.0);
        assert_eq!(summary(&low_bin).1, low);
        // The high edge bin reports the maximum.
        let mut both = vec![1e-15; 100];
        both.extend([1e8, 3e9, 2e8]);
        assert_eq!(summary(&both).1, 3e9);
        assert_eq!(summary(&[1e30, f64::INFINITY]).1, f64::INFINITY);
    }
}
