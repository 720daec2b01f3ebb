//! Deterministic per-device seed derivation.
//!
//! One campaign seed fans out to millions of device seeds the same way
//! a run seed fans out to bank seeds ([`dram_sim::bank_seed`]): a
//! splitmix64 chain keyed by the device index.  The derivation is a
//! pure function of `(campaign_seed, device)` — independent of cohort
//! layout, worker count, or how many other devices exist — which is
//! what lets a single device be re-run in isolation
//! ([`crate::CampaignSpec::device`] + [`rh_harness::Runner`]) and
//! reproduce its fleet metrics bit-for-bit.
//!
//! The seed tree of a campaign is therefore two levels deep:
//!
//! ```text
//! campaign_seed
//! ├── device_seed(campaign_seed, 0)        device 0 (run seed)
//! │   ├── bank_seed(device_seed, 0)        bank 0 decision stream
//! │   └── bank_seed(device_seed, 1)        bank 1 decision stream
//! ├── device_seed(campaign_seed, 1)        device 1
//! │   └── …
//! └── …
//! ```

/// Derives device `device`'s run seed from the campaign seed.
///
/// Distinct devices (and distinct campaign seeds) get well-separated
/// streams; the result also differs from `campaign_seed` itself, so a
/// device's stream never aliases the campaign-level stream.
///
/// ```
/// use rh_fleet::device_seed;
/// let s0 = device_seed(42, 0);
/// let s1 = device_seed(42, 1);
/// assert_ne!(s0, s1);
/// assert_ne!(s0, 42);
/// assert_eq!(s0, device_seed(42, 0));
/// ```
pub fn device_seed(campaign_seed: u64, device: u64) -> u64 {
    // Offset the state by (device + 1) golden-ratio increments, then
    // run two splitmix64 rounds to decorrelate neighbouring devices —
    // the same construction as `dram_sim::bank_seed`, with a distinct
    // tweak constant so a device's seed never collides with the bank
    // seeds derived *from* it.
    let mut state = campaign_seed
        ^ 0xF1EE_7000_0000_0000u64
            .wrapping_add(device)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = rand::splitmix64(&mut state);
    rand::splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_get_distinct_streams() {
        let seeds: std::collections::BTreeSet<u64> = (0..1024).map(|d| device_seed(7, d)).collect();
        assert_eq!(seeds.len(), 1024);
    }

    #[test]
    fn campaign_seeds_get_distinct_streams() {
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|s| device_seed(s, 3)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn derivation_is_pure_and_does_not_alias() {
        assert_eq!(device_seed(123, 5), device_seed(123, 5));
        for seed in 0..32 {
            assert_ne!(device_seed(seed, 0), seed);
        }
    }

    #[test]
    fn device_seeds_differ_from_their_own_bank_seeds() {
        // The per-device run seed feeds `dram_sim::bank_seed`; the two
        // levels of the tree must not collide for small indices.
        for device in 0..16 {
            let run_seed = device_seed(9, device);
            for bank in 0..8 {
                assert_ne!(
                    run_seed,
                    dram_sim::bank_seed(run_seed, dram_sim::BankId(bank))
                );
            }
        }
    }
}
