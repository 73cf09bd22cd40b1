//! Seeded input generation. Every workload's inputs are a pure function of
//! `--seed` through this module's generator, and every generated input is
//! folded into an [`InputDigest`] so a run can show which inputs it saw.
//!
//! The generator is the benchmark's own (splitmix64), not the repository's
//! test RNG, so a change to the program under test cannot change the
//! inputs it is measured on.

/// splitmix64: small, fast, and good enough to draw workload shapes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for one stream (a connection, a session) of a seed, so
    /// streams never depend on how another stream consumed numbers.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over every generated input, in generation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InputDigest(u64);

impl Default for InputDigest {
    fn default() -> Self {
        InputDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl InputDigest {
    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        self.add(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_and_replayable() {
        let a: Vec<u64> = (0..8).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(7, 2).next_u64());
        assert_ne!(Rng::stream(7, 1).next_u64(), Rng::stream(8, 1).next_u64());
    }

    #[test]
    fn digest_separates_boundaries() {
        let mut a = InputDigest::default();
        a.add_str("ab");
        a.add_str("c");
        let mut b = InputDigest::default();
        b.add_str("a");
        b.add_str("bc");
        assert_ne!(a, b);
    }
}
