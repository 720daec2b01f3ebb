//! One-word probabilistic decision helpers of the lane kernels.
//!
//! The lane kernels prefetch whole runs of raw `u64` stream words
//! ([`crate::BankRngs::draw_block`]) and decide each event from its one
//! word, so a bank's stream advances one word per event however its
//! activations are cut into batches.  The eager paper forms that the
//! time-varying variants keep as their kernel's oracle
//! ([`crate::Mitigation::on_activate`]) pull the same word per event
//! straight from the stream and feed it to the same helpers.  That is
//! what keeps batched runs bit-identical to the pinned scalar reference
//! (DESIGN.md §15).
//!
//! The gate reproduces the `rand` shim's Bernoulli sampling exactly: the
//! word's 53 high bits become the uniform sample in `[0, 1)`, compared
//! against `p` in `f64`.  For loops with a fixed `p`, [`threshold`] /
//! [`gate_at`] hoist that compare into a precomputed integer bound —
//! *provably* equal to the float compare, because every step of the
//! reduction (the `2^53` scaling, the `ceil`) is exact in `f64`, so the
//! integer threshold introduces no rounding of its own.

/// One ulp of the 53-bit uniform sample: `2^-53`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Bernoulli gate with probability `p` on a pre-drawn stream word.
///
/// Matches `RngExt::random_bool` evaluated on the same word: the top 53
/// bits map to `[0, 1)` and compare against `p`, with `p <= 0` and
/// `p >= 1` short-circuiting (the word is still consumed — the one-word
/// discipline draws unconditionally so run lengths alone determine
/// stream positions).
#[inline]
#[must_use]
pub fn gate(word: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    (word >> 11) as f64 * UNIT < p
}

/// The integer gate bound for probability `p`: [`gate_at`]`(word,
/// threshold(p))` equals [`gate`]`(word, p)` for **every** word and
/// **every** `p`, so kernels with a loop-invariant probability hoist
/// the float compare out of the loop entirely.
///
/// Exactness: for `0 < p < 1` the gate tests `a·2⁻⁵³ < p` with
/// `a = word >> 11` an integer below `2⁵³`.  Multiplying both sides by
/// `2⁵³` (an exact power-of-two scaling in `f64`, even for subnormal
/// `p`) gives `a < p·2⁵³`, and for an integer `a` that is equivalent to
/// `a < ⌈p·2⁵³⌉` — `ceil` on an `f64` below `2⁵³` is also exact.  No
/// step rounds, so the two gates cannot disagree.
#[inline]
#[must_use]
pub fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        return 1u64 << 53;
    }
    if p <= 0.0 {
        return 0;
    }
    #[allow(
        clippy::cast_possible_truncation,
        reason = "lossless: 0 < p < 1 bounds the product below 2⁵³ (see above)"
    )]
    let bound = (p * (1u64 << 53) as f64).ceil() as u64;
    bound
}

/// Bernoulli gate against a precomputed [`threshold`] bound: one shift
/// and one integer compare per word.
#[inline]
#[must_use]
pub fn gate_at(word: u64, threshold: u64) -> bool {
    (word >> 11) < threshold
}

/// Direction bit for neighbor selection: bit 0 of the same word the
/// gate consumed — one word decides both whether and which way.
///
/// (The gate reads the 53 *high* bits, so the two decisions use
/// disjoint bits of the word and stay independent.)
#[inline]
#[must_use]
pub fn direction_up(word: u64) -> bool {
    word & 1 == 1
}

/// Uniform draw in `0..2^exponent` from a pre-drawn stream word —
/// identical to `random_range(0..(1 << exponent))`, whose modulo
/// reduction is a mask for power-of-two spans.
#[inline]
#[must_use]
pub fn masked(word: u64, exponent: u32) -> u64 {
    word & ((1u64 << exponent) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, RngExt, SeedableRng};

    #[test]
    fn gate_matches_random_bool_word_for_word() {
        for p in [0.0, 1e-9, 0.001, 0.25, 0.5, 0.999, 1.0] {
            let mut sampled = StdRng::seed_from_u64(5);
            let mut worded = StdRng::seed_from_u64(5);
            for _ in 0..2000 {
                // random_bool consumes no word at the clamped ends; the
                // one-word discipline always consumes, so only the
                // decision (not the stream position) is compared there.
                let word = worded.next_u64();
                if p > 0.0 && p < 1.0 {
                    assert_eq!(gate(word, p), sampled.random_bool(p));
                } else {
                    assert_eq!(gate(word, p), p >= 1.0);
                }
            }
        }
    }

    #[test]
    fn threshold_gate_equals_float_gate_everywhere() {
        let mut rng = StdRng::seed_from_u64(21);
        // Dense probability sweep plus adversarial points: clamped
        // ends, subnormals, values straddling exact 2^-53 multiples.
        let mut probs: Vec<f64> = vec![
            -1.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            1e-300,
            UNIT,
            UNIT * 1.5,
            0.5 - UNIT,
            0.5,
            0.5 + UNIT,
            1.0 - UNIT,
            1.0,
            2.0,
        ];
        for i in 1..1000 {
            probs.push(f64::from(i) / 1000.0);
        }
        for &p in &probs {
            let t = threshold(p);
            for _ in 0..200 {
                let word = rng.next_u64();
                assert_eq!(gate_at(word, t), gate(word, p), "p={p} word={word}");
            }
            // The boundary words around the threshold itself (53-bit
            // samples only — `word >> 11` can never reach 2^53).
            for a in [t.saturating_sub(1), t, t.saturating_add(1)] {
                if a < (1u64 << 53) {
                    let word = a << 11;
                    assert_eq!(gate_at(word, t), gate(word, p), "p={p} edge a={a}");
                }
            }
        }
    }

    #[test]
    fn masked_matches_random_range_for_pow2_spans() {
        let mut ranged = StdRng::seed_from_u64(8);
        let mut worded = StdRng::seed_from_u64(8);
        for _ in 0..2000 {
            let want: u64 = ranged.random_range(0..(1u64 << 23));
            assert_eq!(masked(worded.next_u64(), 23), want);
        }
    }

    #[test]
    fn direction_splits_roughly_evenly_and_independently() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ups = 0u32;
        let mut gated_ups = 0u32;
        let mut gated = 0u32;
        for _ in 0..10_000 {
            let word = rng.next_u64();
            if direction_up(word) {
                ups += 1;
            }
            if gate(word, 0.5) {
                gated += 1;
                if direction_up(word) {
                    gated_ups += 1;
                }
            }
        }
        assert!((4_500..5_500).contains(&ups), "ups {ups}");
        // Conditional on the gate, the direction still splits evenly.
        let ratio = f64::from(gated_ups) / f64::from(gated);
        assert!((0.45..0.55).contains(&ratio), "ratio {ratio}");
    }
}
