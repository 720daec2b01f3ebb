//! Deterministic per-bank seed derivation.
//!
//! DRAM banks are independent in the disturbance model: an activation in
//! one bank never disturbs rows of another, and every mitigation keeps
//! per-bank state.  The bank-sharded run engine exploits this by giving
//! each bank its own pseudo-random sub-stream, derived here from the run
//! seed and the bank id with a splitmix64 chain.  The derivation is a
//! pure function of `(run_seed, bank)` — independent of worker count,
//! scheduling, or how many other banks exist — which is what makes
//! sharded runs bit-identical to sequential ones.

use crate::addr::BankId;

/// Derives the seed of `bank`'s pseudo-random sub-stream from the run
/// seed.
///
/// Distinct banks (and distinct run seeds) get well-separated streams;
/// the result also differs from `run_seed` itself, so a per-bank stream
/// never aliases the undivided run stream.
///
/// ```
/// use dram_sim::{bank_seed, BankId};
/// let s0 = bank_seed(42, BankId(0));
/// let s1 = bank_seed(42, BankId(1));
/// assert_ne!(s0, s1);
/// assert_ne!(s0, 42);
/// assert_eq!(s0, bank_seed(42, BankId(0)));
/// ```
pub fn bank_seed(run_seed: u64, bank: BankId) -> u64 {
    // Offset the state by (bank + 1) golden-ratio increments, then run
    // two splitmix64 rounds to decorrelate neighbouring banks.
    let mut state = run_seed
        ^ u64::from(bank.0)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = rand::splitmix64(&mut state);
    rand::splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_get_distinct_streams() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..64).map(|b| bank_seed(7, BankId(b))).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn run_seeds_get_distinct_streams() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..64).map(|s| bank_seed(s, BankId(3))).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn derivation_is_pure() {
        assert_eq!(bank_seed(123, BankId(5)), bank_seed(123, BankId(5)));
    }

    #[test]
    fn does_not_alias_the_run_seed() {
        for seed in 0..32 {
            assert_ne!(bank_seed(seed, BankId(0)), seed);
        }
    }
}
