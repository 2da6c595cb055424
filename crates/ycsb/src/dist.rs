//! Key-choice distributions.
//!
//! Ports of the YCSB generators the paper's evaluation uses. Each generator
//! draws abstract record ids in `0..n`; [`crate::keys::KeySpace`] turns ids
//! into key bytes.

use hdnh_common::rng::{mix64, XorShift64Star};

/// A source of record ids in `0..n()`.
pub trait KeyDist {
    /// Draws the next record id.
    fn next_id(&mut self, rng: &mut XorShift64Star) -> u64;
    /// Current id-space size.
    fn n(&self) -> u64;
}

/// Uniform over `0..n`.
#[derive(Clone, Debug)]
pub struct Uniform {
    n: u64,
}

impl Uniform {
    /// Uniform distribution over `0..n` (n > 0).
    pub fn new(n: u64) -> Self {
        assert!(n > 0);
        Uniform { n }
    }
}

impl KeyDist for Uniform {
    #[inline]
    fn next_id(&mut self, rng: &mut XorShift64Star) -> u64 {
        // 64-bit multiply-shift; bias is negligible for our n.
        ((rng.next_u64() as u128 * self.n as u128) >> 64) as u64
    }

    fn n(&self) -> u64 {
        self.n
    }
}

/// Zipfian over `0..n` with exponent `s` ("theta" in YCSB), using the
/// rejection-free method of Gray et al. ("Quickly generating billion-record
/// synthetic databases", SIGMOD'94) exactly as YCSB's `ZipfianGenerator`
/// implements it. Rank 0 is the most popular item.
///
/// ```
/// use hdnh_ycsb::{KeyDist, Zipfian};
/// use hdnh_common::rng::XorShift64Star;
///
/// let mut dist = Zipfian::new(1_000_000, 0.99);
/// let mut rng = XorShift64Star::new(42);
/// let hot_hits = (0..10_000).filter(|_| dist.next_id(&mut rng) < 100).count();
/// assert!(hot_hits > 2_000, "top-100 ids dominate at s=0.99: {hot_hits}");
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
}

impl Zipfian {
    /// Zipfian over `0..n` with exponent `theta` (YCSB default 0.99).
    ///
    /// `theta` must be in `(0, 1) ∪ (1, ..)`; the math degenerates at
    /// exactly 1.0, so we nudge it like YCSB users conventionally do.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!(theta > 0.0, "zipfian exponent must be positive");
        let theta = if (theta - 1.0).abs() < 1e-9 { 1.0 + 1e-9 } else { theta };
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
        }
    }

    /// Harmonic-like partial sum Σ_{i=1..n} 1/i^theta.
    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Draws a *rank*: 0 is the hottest item.
    #[inline]
    pub fn next_rank(&self, rng: &mut XorShift64Star) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    #[allow(dead_code)]
    fn zeta2(&self) -> f64 {
        self.zeta2theta
    }
}

impl KeyDist for Zipfian {
    #[inline]
    fn next_id(&mut self, rng: &mut XorShift64Star) -> u64 {
        self.next_rank(rng)
    }

    fn n(&self) -> u64 {
        self.n
    }
}

/// Scrambled zipfian: zipfian *popularity*, but the popular items are
/// scattered uniformly over the id space (YCSB `ScrambledZipfianGenerator`).
/// This is what makes "hot keys" hash-neutral — exactly the situation
/// HDNH's hot table targets.
#[derive(Clone, Debug)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Scrambled zipfian over `0..n` with exponent `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n, theta),
        }
    }
}

impl KeyDist for ScrambledZipfian {
    #[inline]
    fn next_id(&mut self, rng: &mut XorShift64Star) -> u64 {
        let rank = self.inner.next_rank(rng);
        mix64(rank) % self.inner.n
    }

    fn n(&self) -> u64 {
        self.inner.n
    }
}

/// "Latest" distribution: zipfian over recency — the most recently inserted
/// ids are the most popular (YCSB `SkewedLatestGenerator`).
#[derive(Clone, Debug)]
pub struct Latest {
    inner: Zipfian,
}

impl Latest {
    /// Latest distribution over `0..n` with exponent `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        Latest {
            inner: Zipfian::new(n, theta),
        }
    }
}

impl KeyDist for Latest {
    #[inline]
    fn next_id(&mut self, rng: &mut XorShift64Star) -> u64 {
        let rank = self.inner.next_rank(rng);
        self.inner.n - 1 - rank
    }

    fn n(&self) -> u64 {
        self.inner.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShift64Star {
        XorShift64Star::new(0xC0FFEE)
    }

    #[test]
    fn uniform_covers_range() {
        let mut d = Uniform::new(100);
        let mut r = rng();
        let mut seen = [false; 100];
        for _ in 0..20_000 {
            let id = d.next_id(&mut r);
            assert!(id < 100);
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform should cover all ids");
    }

    #[test]
    fn uniform_is_flat() {
        let mut d = Uniform::new(10);
        let mut r = rng();
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[d.next_id(&mut r) as usize] += 1;
        }
        let (min, max) = counts.iter().fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(min as f64 / max as f64 > 0.9, "uniform too skewed: {counts:?}");
    }

    #[test]
    fn zipfian_in_range() {
        let mut d = Zipfian::new(1000, 0.99);
        let mut r = rng();
        for _ in 0..50_000 {
            assert!(d.next_id(&mut r) < 1000);
        }
    }

    #[test]
    fn zipfian_rank_zero_dominates() {
        let mut d = Zipfian::new(1000, 0.99);
        let mut r = rng();
        let mut c0 = 0;
        let mut c_rest = 0;
        for _ in 0..100_000 {
            if d.next_id(&mut r) == 0 {
                c0 += 1;
            } else {
                c_rest += 1;
            }
        }
        // At theta=0.99, rank 0 should get several percent of all draws.
        assert!(c0 > 2_000, "rank-0 count {c0}");
        assert!(c_rest > 0);
    }

    #[test]
    fn higher_theta_means_more_skew() {
        let mut r = rng();
        let hits_top10 = |theta: f64, r: &mut XorShift64Star| {
            let mut d = Zipfian::new(10_000, theta);
            let mut hits = 0;
            for _ in 0..50_000 {
                if d.next_id(r) < 10 {
                    hits += 1;
                }
            }
            hits
        };
        let low = hits_top10(0.5, &mut r);
        let mid = hits_top10(0.99, &mut r);
        let high = hits_top10(1.22, &mut r);
        assert!(low < mid && mid < high, "skew ordering: {low} {mid} {high}");
    }

    #[test]
    fn zipfian_matches_alibaba_hotspot_observation() {
        // The paper motivates the hot table with "50% (daily) to 90%
        // (extreme) of accesses touch 1% of items". Check our sampler
        // reproduces that: at s=0.99 the top 1% should absorb a large share.
        let mut d = Zipfian::new(100_000, 0.99);
        let mut r = rng();
        let mut top1 = 0u32;
        const N: u32 = 200_000;
        for _ in 0..N {
            if d.next_id(&mut r) < 1_000 {
                top1 += 1;
            }
        }
        let share = top1 as f64 / N as f64;
        assert!(share > 0.4, "top-1% share at s=0.99: {share}");
        let mut d = Zipfian::new(100_000, 1.22);
        let mut top1 = 0u32;
        for _ in 0..N {
            if d.next_id(&mut r) < 1_000 {
                top1 += 1;
            }
        }
        let share_extreme = top1 as f64 / N as f64;
        assert!(share_extreme > 0.75, "top-1% share at s=1.22: {share_extreme}");
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_ids() {
        let mut d = ScrambledZipfian::new(10_000, 0.99);
        let mut r = rng();
        let mut counts = std::collections::HashMap::<u64, u32>::new();
        for _ in 0..100_000 {
            *counts.entry(d.next_id(&mut r)).or_default() += 1;
        }
        // Still skewed: the hottest id has many hits...
        let max = counts.values().copied().max().unwrap();
        assert!(max > 2_000, "max {max}");
        // ...but hot ids are NOT clustered at 0: the hottest id is
        // (with overwhelming probability) not id 0 or 1.
        let hottest = counts.iter().max_by_key(|(_, &c)| c).map(|(&id, _)| id).unwrap();
        assert!(hottest > 1, "hottest id {hottest} not scrambled");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut d = Latest::new(1000, 0.99);
        let mut r = rng();
        let mut newest = 0;
        for _ in 0..10_000 {
            if d.next_id(&mut r) >= 990 {
                newest += 1;
            }
        }
        assert!(newest > 3_000, "newest-10 share {newest}/10000");
    }

    #[test]
    fn zipfian_frequencies_follow_power_law() {
        // freq(rank k) ∝ 1/k^s ⇒ freq(1)/freq(4) ≈ 4^s. Check the measured
        // ratio against theory within sampling tolerance.
        for s in [0.7f64, 0.99] {
            let mut d = Zipfian::new(100_000, s);
            let mut r = XorShift64Star::new(0x51ab);
            let mut counts = [0u32; 8];
            const N: u32 = 400_000;
            for _ in 0..N {
                let id = d.next_id(&mut r);
                if id < 8 {
                    counts[id as usize] += 1;
                }
            }
            let measured = counts[0] as f64 / counts[3] as f64;
            let theory = 4f64.powf(s);
            assert!(
                (measured / theory - 1.0).abs() < 0.25,
                "s={s}: freq(1)/freq(4) measured {measured:.2}, theory {theory:.2}"
            );
        }
    }

    #[test]
    fn theta_one_is_nudged_not_nan() {
        let mut d = Zipfian::new(100, 1.0);
        let mut r = rng();
        for _ in 0..1000 {
            let id = d.next_id(&mut r);
            assert!(id < 100);
        }
    }
}
