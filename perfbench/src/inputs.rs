//! Deterministic input derivation: every input of a run comes from the
//! `--seed` argument through these functions, so one seed always gives
//! the same inputs.

/// Seed of a run's `j`-th input. Input 0 uses the run seed itself, so
/// at the default seed it is exactly the graph `cspm generate` writes
/// for that seed; later inputs use well-mixed derived seeds, so
/// neighbouring run seeds share no inputs.
pub fn input_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        SplitMix64(seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }
}

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_zero_is_the_run_seed_and_others_differ() {
        assert_eq!(input_seed(2022, 0), 2022);
        let derived: Vec<u64> = (1..6).map(|j| input_seed(2022, j)).collect();
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), derived.len());
        assert_ne!(input_seed(2022, 1), input_seed(2023, 1));
        assert_eq!(input_seed(7, 3), input_seed(7, 3));
    }
}
