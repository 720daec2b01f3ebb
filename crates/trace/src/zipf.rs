//! A small deterministic Zipf sampler.
//!
//! Row popularity in real memory traces is heavily skewed: a few hot
//! rows (stack, hot heap pages, code) absorb most activations.  The
//! workload generator models this with a Zipf distribution over the hot
//! set; the skew is what makes TiVaPRoMi's 32-entry history table
//! effective, so it is a first-class calibration knob.
//!
//! Sampling is an exact inverse-CDF lookup: the rank drawn for a uniform
//! `u` is always `cdf.partition_point(|&c| c < u)` (clamped to the last
//! rank), whichever search finds it.  Small tables count `c < u`
//! branch-free; large ones start from a guide table (the cut-point
//! method) and scan forward.  Large tables are pure functions of
//! `(n, s)` and are built once per process and shared.

use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::{Arc, Mutex, PoisonError};

/// Tables up to this many ranks are searched by a branch-free count,
/// which beats any indexed search at the workload's 8-rank hot set.
const SMALL_RANKS: usize = 32;

/// Tables of at least this many ranks are memoized per process.
const SHARED_MIN_RANKS: usize = 1024;

/// At most this many tables are memoized; later ones are built per
/// call, so callers sweeping `n` cannot grow the memo without bound.
const SHARED_MAX_TABLES: usize = 16;

/// A built table: the CDF and, for large `n`, its guide table.
#[derive(Debug, Clone)]
struct Tables {
    /// Cumulative probabilities, `cdf[k] = P(rank ≤ k)`.
    cdf: Arc<[f64]>,
    /// `guide[j]` is the number of ranks `k` with
    /// `(cdf[k] * n) as usize < j`, for `j` in `0..=n`; none when
    /// `n ≤ SMALL_RANKS`.  Stored as `u32` to halve its cache footprint.
    guide: Option<Arc<[u32]>>,
}

/// Memoized large tables, keyed by `(n, s.to_bits())`.
static SHARED: Mutex<Vec<((usize, u64), Tables)>> = Mutex::new(Vec::new());

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ (k + 1)^-s`.
///
/// ```
/// use mem_trace::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(100, 1.4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut counts = vec![0u32; 100];
/// for _ in 0..10_000 {
///     counts[zipf.sample(&mut rng)] += 1;
/// }
/// assert!(counts[0] > counts[50]); // rank 0 is the hottest
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    tables: Tables,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be ≥ 0");
        if n < SHARED_MIN_RANKS {
            return Zipf {
                tables: Tables::build(n, s),
            };
        }
        let key = (n, s.to_bits());
        // Every update pushes a complete entry, so a poisoned memo is
        // still valid.
        let mut shared = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, tables)) = shared.iter().find(|(k, _)| *k == key) {
            return Zipf {
                tables: tables.clone(),
            };
        }
        let tables = Tables::build(n, s);
        if shared.len() < SHARED_MAX_TABLES {
            shared.push((key, tables.clone()));
        }
        Zipf { tables }
    }

    /// Draws a rank in `0..n`.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.rank(rng.random())
    }

    /// The rank drawn for the uniform value `u`: the first rank whose
    /// cdf is `≥ u`, clamped to the last rank.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let cdf = &*self.tables.cdf;
        let below = match &self.tables.guide {
            None => cdf.iter().map(|&c| usize::from(c < u)).sum(),
            Some(guide) => {
                // `bucket` is monotone in `u`, so every rank the guide
                // skips has `cdf[k] < u`: the scan never starts past the
                // answer.
                let start = guide[bucket(u, cdf.len())] as usize;
                start + cdf[start..].iter().take_while(|&&c| c < u).count()
            }
        };
        below.min(cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.tables.cdf.len()
    }

    /// Always `false`: [`Zipf::new`] rejects an empty rank set.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability mass of the `k` hottest ranks — used to calibrate the
    /// workload's top-k coverage against the paper's trace statistics.
    pub fn top_k_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.tables.cdf[k.min(self.len()) - 1]
        }
    }
}

/// The guide-table slot of probability `p` in an `n`-rank table:
/// `⌊p·n⌋`, clamped to `n`.  Monotone in `p`, which is all the guide
/// table's exactness rests on.
#[inline]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the float-to-int cast saturates (and maps NaN to 0); `min` bounds it"
)]
fn bucket(p: f64, n: usize) -> usize {
    ((p * n as f64) as usize).min(n)
}

impl Tables {
    fn build(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Arc<[f64]> = (0..n)
            .map(|k| {
                acc += ((k + 1) as f64).powf(-s);
                acc
            })
            .collect();
        let total = acc;
        for v in Arc::get_mut(&mut cdf).expect("a fresh table is unshared") {
            *v /= total;
        }
        let guide = (n > SMALL_RANKS).then(|| {
            let mut k = 0;
            (0..=n)
                .map(|j| {
                    while k < n && bucket(cdf[k], n) < j {
                        k += 1;
                    }
                    u32::try_from(k).expect("a guide table holds fewer than 2^32 ranks")
                })
                .collect()
        });
        Tables { cdf, guide }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The specification `Zipf::rank` must match for every `u`.
    fn reference(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    #[test]
    fn cdf_is_monotone_and_normalised() {
        let z = Zipf::new(64, 1.2);
        for w in z.tables.cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((z.tables.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(z.len(), 64);
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        assert!((z.top_k_mass(1) - 0.25).abs() < 1e-12);
        assert!((z.top_k_mass(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_follow_skew() {
        let z = Zipf::new(50, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        // Empirical top-8 share should be near the analytic mass.
        let top8: u32 = counts[..8].iter().sum();
        let empirical = f64::from(top8) / 50_000.0;
        assert!((empirical - z.top_k_mass(8)).abs() < 0.02);
    }

    #[test]
    fn sample_never_exceeds_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn large_tables_are_shared() {
        let a = Zipf::new(20_000, 0.9);
        let b = Zipf::new(20_000, 0.9);
        assert!(Arc::ptr_eq(&a.tables.cdf, &b.tables.cdf));
        assert!(Arc::ptr_eq(
            a.tables.guide.as_ref().unwrap(),
            b.tables.guide.as_ref().unwrap()
        ));
        // A different exponent is a different table.
        let c = Zipf::new(20_000, 0.9 + f64::EPSILON);
        assert!(!Arc::ptr_eq(&a.tables.cdf, &c.tables.cdf));
        // A sweep over many sizes leaves the memo bounded.
        for n in 0..2 * SHARED_MAX_TABLES {
            let _ = Zipf::new(SHARED_MIN_RANKS + n, 1.0);
        }
        let memo = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(memo.len(), SHARED_MAX_TABLES);
    }

    #[test]
    fn only_large_tables_get_a_guide() {
        assert!(Zipf::new(SMALL_RANKS, 1.1).tables.guide.is_none());
        let guide = Zipf::new(SMALL_RANKS + 1, 1.1).tables.guide.unwrap();
        assert_eq!(guide.len(), SMALL_RANKS + 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both lookups return exactly the partition-point rank at
        /// every cdf value, one ulp either side of it, and `u = 0`.
        #[test]
        fn rank_matches_partition_point(
            n in prop_oneof![1usize..=SMALL_RANKS + 8, 1usize..=40_000],
            s in 0.0f64..3.0,
        ) {
            // Built directly, so the sweep leaves the shared memo alone.
            let z = Zipf { tables: Tables::build(n, s) };
            let cdf = &*z.tables.cdf;
            prop_assert_eq!(z.rank(0.0), reference(cdf, 0.0), "u = 0, n {}, s {}", n, s);
            for &c in cdf {
                let bits = c.to_bits();
                for u in [f64::from_bits(bits - 1), c, f64::from_bits(bits + 1)] {
                    prop_assert_eq!(z.rank(u), reference(cdf, u), "u {}, n {}, s {}", u, n, s);
                }
            }
        }
    }
}
