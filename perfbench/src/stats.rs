//! Order statistics over timing samples, and a seeded shuffle.

use licom_server::Rng;

/// Value at quantile `q` (0..=1) of `v`, by the nearest-rank rule on the
/// sorted samples. `0.0` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Seeded Fisher–Yates shuffle, for benchmark-side choices such as the
/// order the execution spaces run in.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a = [0, 1, 2, 3];
        let mut b = [0, 1, 2, 3];
        shuffle(&mut Rng::new(7), &mut a);
        shuffle(&mut Rng::new(7), &mut b);
        assert_eq!(a, b);
        let mut s = a;
        s.sort_unstable();
        assert_eq!(s, [0, 1, 2, 3]);
    }
}
