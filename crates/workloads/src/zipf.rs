//! Zipf-distributed sampling for skewed access patterns (hot users, hot
//! products — the "predominant queries" of the motivating scenario).

use rand::Rng;

/// A Zipf(θ) sampler over `0..n` using inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` items with skew `theta` (0 = uniform,
    /// ~1 = classic Zipf).
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    /// Sample one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skewed_sampling_prefers_low_indices() {
        let z = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 5);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn the_total_order_draws_what_the_partial_order_drew() {
        // The sampler once compared with `partial_cmp(..).unwrap()`; the
        // CDF holds no NaN and no -0.0, so `total_cmp` must pick the same
        // index for every draw (seeded op streams sample through it).
        for theta in [0.0, 0.5, 0.9, 1.0, 1.5, 3.0] {
            let z = Zipf::new(500, theta);
            let (mut new, mut old) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for _ in 0..5_000 {
                let u: f64 = old.random();
                let was = match z.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
                    Ok(i) => i,
                    Err(i) => i.min(z.cdf.len() - 1),
                };
                assert_eq!(z.sample(&mut new), was, "theta {theta}, u {u}");
            }
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!(c > 700 && c < 1300, "count {c} too far from uniform");
        }
    }
}
