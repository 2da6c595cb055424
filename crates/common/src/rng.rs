//! Small deterministic PRNGs.
//!
//! Two generators cover every random choice in the reproduction:
//!
//! * [`mix64`] — a one-shot SplitMix64 (Steele, Lea, Flood 2014) scramble
//!   for seeding and for the YCSB generator's scrambled zipfian ranks.
//! * [`XorShift64Star`] — the per-thread generator behind RAFL's random
//!   eviction (paper §3.3) and the randomized crash simulator. A three-shift
//!   xorshift with a multiply finisher: one word of state, a few cycles per
//!   draw, never in the measured NVM path long enough to matter.

/// One-shot SplitMix64 scramble of a single word. Used where a stateless
/// permutation-ish mixing of an integer is needed (scrambled zipfian).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* — tiny, fast, never zero-state.
#[derive(Clone, Debug)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator; a zero seed is remapped (xorshift requires
    /// nonzero state).
    #[inline]
    pub fn new(seed: u64) -> Self {
        // Stretch the seed so that small consecutive seeds (thread ids)
        // start in very different parts of the sequence.
        let s = mix64(seed);
        XorShift64Star {
            state: if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s },
        }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..bound` (Lemire's multiply-shift; slight modulo
    /// bias is irrelevant for eviction choice but we avoid it anyway).
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        let r = self.next_u64() as u32 as u64;
        ((r * bound as u64) >> 32) as u32
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        // SplitMix64's reference first outputs for states 0 and 1234567.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1_234_567), 6_457_827_717_110_365_317);
    }

    #[test]
    fn splitmix_differs_across_seeds() {
        // Consecutive seeds land far apart: about half the bits differ.
        for seed in 0..64u64 {
            let flipped = (mix64(seed) ^ mix64(seed + 1)).count_ones();
            assert!((16..=48).contains(&flipped), "seed {seed}: {flipped} bits");
        }
    }

    #[test]
    fn xorshift_zero_seed_is_usable() {
        let mut g = XorShift64Star::new(0);
        let x = g.next_u64();
        let y = g.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut g = XorShift64Star::new(7);
        for _ in 0..10_000 {
            assert!(g.next_below(8) < 8);
        }
    }

    #[test]
    fn next_below_hits_every_residue() {
        let mut g = XorShift64Star::new(9);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[g.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = XorShift64Star::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn mix64_spreads_consecutive_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a >> 56, b >> 56, "high bytes should differ for 1,2");
    }
}
