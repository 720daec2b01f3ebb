//! A deterministic, mergeable quantile sketch over non-negative values.
//!
//! DDSketch-style logarithmic buckets: value `x > 0` lands in bucket
//! `k` with `γ^(k-1) < x ≤ γ^k`, so every value in a bucket is within a
//! relative factor `γ` of the bucket's upper bound.  Counts are exact
//! `u64`s, bucket keys are exact `i64`s, and merging is bucket-wise
//! addition — an associative, commutative operation whose result is a
//! pure function of the multiset of inserted values, never of insertion
//! or merge order.  That is the property the fleet layer needs: shards
//! of a campaign can sketch independently and merge in any grouping
//! with *byte-identical* serialized results.
//!
//! The rank guarantee: [`QuantileSketch::quantile_bracket`] returns
//! `(lo, hi)` with `count(x ≤ hi) ≥ r` and `count(x ≤ lo) < r` for the
//! target rank `r` — the true rank-`r` value lies in `(lo, hi]`, an
//! interval of relative width `γ`.  The bucket invariant is enforced
//! with the same `γ^k` computation the bracket reports
//! ([`QuantileSketch::bucket_value`]), so the guarantee holds exactly,
//! not just up to floating-point rounding.

use serde::{Deserialize, Serialize};

/// Default relative accuracy: bucket bounds within 2% of each other.
pub const DEFAULT_ALPHA: f64 = 0.01;

/// A mergeable log-bucket quantile sketch for non-negative samples.
///
/// ```
/// use rh_fleet::QuantileSketch;
///
/// let mut sketch = QuantileSketch::new();
/// for x in 1..=100 {
///     sketch.insert(f64::from(x));
/// }
/// let p50 = sketch.quantile(0.5).expect("non-empty");
/// assert!((p50 - 50.0).abs() / 50.0 < 0.03);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Bucket growth factor `γ = (1 + α) / (1 - α)`.
    gamma: f64,
    /// Samples equal to zero (they have no logarithm).
    zero_count: u64,
    /// Total inserted samples, including zeros.
    total: u64,
    /// `(bucket key, count)`, sorted by key — a sorted vec rather than
    /// a map so the serialized form is canonical and byte-stable.
    buckets: Vec<(i64, u64)>,
}

impl QuantileSketch {
    /// A sketch at the default relative accuracy [`DEFAULT_ALPHA`].
    pub fn new() -> Self {
        QuantileSketch::with_alpha(DEFAULT_ALPHA)
    }

    /// A sketch with relative accuracy `alpha` (0 < alpha < 1).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        QuantileSketch {
            gamma: (1.0 + alpha) / (1.0 - alpha),
            zero_count: 0,
            total: 0,
            buckets: Vec::new(),
        }
    }

    /// Samples inserted so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been inserted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The bucket growth factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The upper value bound `γ^key` of a bucket.
    ///
    /// This is the *only* way bucket bounds are computed — inserts
    /// enforce the bucket invariant against it, so quantile brackets
    /// built from it are exact.
    pub fn bucket_value(&self, key: i64) -> f64 {
        self.gamma.powf(key as f64)
    }

    /// The bucket key of a positive sample: the smallest `k` with
    /// `x ≤ γ^k`, i.e. `γ^(k-1) < x ≤ γ^k` by the same
    /// [`QuantileSketch::bucket_value`] arithmetic the quantile side
    /// uses.
    fn bucket_key(&self, x: f64) -> i64 {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "the rounded log is only a seed guess; the adjustment loops below re-anchor it, so truncation cannot move the bucket"
        )]
        let mut key = (x.ln() / self.gamma.ln()).ceil() as i64;
        // `ln`/`ceil` land within one bucket of the invariant; the
        // adjustment loops pin it exactly in `bucket_value` arithmetic,
        // so rank brackets hold with no floating-point slack.
        while self.bucket_value(key) < x {
            key += 1;
        }
        while self.bucket_value(key - 1) >= x {
            key -= 1;
        }
        key
    }

    /// Inserts one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative samples — the fleet's sketched
    /// quantities (first-flip times, flip rates) are non-negative by
    /// construction, so a negative here is an upstream bug.
    pub fn insert(&mut self, x: f64) {
        assert!(x >= 0.0, "sketch samples must be non-negative, got {x}");
        self.total += 1;
        if x == 0.0 {
            self.zero_count += 1;
            return;
        }
        let key = self.bucket_key(x);
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (key, 1)),
        }
    }

    /// Merges `other` into `self` (bucket-wise count addition).
    ///
    /// Associative and commutative: the result depends only on the
    /// multiset of inserted samples, so fleet shards can merge in any
    /// grouping and compare sketches with `==`.
    ///
    /// # Panics
    ///
    /// Panics when the sketches were built with different accuracies
    /// (their buckets would not align).
    // Rule D8: a float fold here would make the merged bits depend on
    // merge order.
    #[deny(clippy::float_arithmetic)]
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.gamma == other.gamma,
            "cannot merge sketches with different accuracies"
        );
        self.zero_count += other.zero_count;
        self.total += other.total;
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() && j < other.buckets.len() {
            let (ka, ca) = self.buckets[i];
            let (kb, cb) = other.buckets[j];
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    merged.push((ka, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((kb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ka, ca + cb));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.buckets[i..]);
        merged.extend_from_slice(&other.buckets[j..]);
        self.buckets = merged;
    }

    /// The 1-based target rank of quantile `q` over `n` samples:
    /// `max(1, ⌈q·n⌉)`, clamped to `n`.
    fn rank(&self, q: f64) -> u64 {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "`q ≤ 1`, so `q·n ≤ n` fits u64 exactly; the clamp also pins any rounding at the ends"
        )]
        let r = (q * self.total as f64).ceil() as u64;
        r.clamp(1, self.total)
    }

    /// An estimate of quantile `q ∈ [0, 1]`, or `None` when empty.
    ///
    /// The estimate is the upper bound of the bucket holding the
    /// rank-`⌈q·n⌉` sample — within a relative factor γ above the true
    /// quantile (and never below it); see
    /// [`QuantileSketch::quantile_bracket`] for the exact guarantee.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_bracket(q).map(|(_, hi)| hi)
    }

    /// The exact rank bracket of quantile `q`: `Some((lo, hi))` such
    /// that for the target rank `r = max(1, ⌈q·n⌉)`,
    /// `count(x ≤ hi) ≥ r` and `count(x ≤ lo) < r`.  Returns `None`
    /// when the sketch is empty.  For zero-valued samples the bracket
    /// is `(-1.0, 0.0)` (zeros sort below every bucket).
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]` or NaN.
    pub fn quantile_bracket(&self, q: f64) -> Option<(f64, f64)> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0, 1], got {q}"
        );
        if self.total == 0 {
            return None;
        }
        let r = self.rank(q);
        if r <= self.zero_count {
            return Some((-1.0, 0.0));
        }
        let mut cum = self.zero_count;
        for &(key, count) in &self.buckets {
            cum += count;
            if cum >= r {
                // Every sample at or below this bucket is ≤ γ^key
                // (zeros included, since γ^(key-1) > 0), and fewer
                // than r samples are ≤ γ^(key-1): exactly the bucket
                // invariant `insert` enforced.
                return Some((self.bucket_value(key - 1), self.bucket_value(key)));
            }
        }
        unreachable!("total covers all buckets");
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sketch = QuantileSketch::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.quantile(0.5), None);
    }

    #[test]
    fn singleton_brackets_its_value() {
        let mut sketch = QuantileSketch::new();
        sketch.insert(42.0);
        for q in [0.0, 0.5, 1.0] {
            let (lo, hi) = sketch.quantile_bracket(q).expect("one sample");
            assert!(lo < 42.0 && 42.0 <= hi, "q={q}: ({lo}, {hi}]");
        }
    }

    #[test]
    fn zeros_live_below_every_bucket() {
        let mut sketch = QuantileSketch::new();
        sketch.insert(0.0);
        sketch.insert(0.0);
        sketch.insert(10.0);
        assert_eq!(sketch.quantile(0.5), Some(0.0));
        let p99 = sketch.quantile(0.99).expect("non-empty");
        assert!(p99 >= 10.0);
    }

    #[test]
    fn merge_is_exact_bucket_addition() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for x in 1..=50 {
            a.insert(f64::from(x));
        }
        for x in 51..=100 {
            b.insert(f64::from(x));
        }
        let mut whole = QuantileSketch::new();
        for x in 1..=100 {
            whole.insert(f64::from(x));
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic(expected = "different accuracies")]
    fn merging_mismatched_accuracies_panics() {
        let mut a = QuantileSketch::with_alpha(0.01);
        a.merge(&QuantileSketch::with_alpha(0.02));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_samples_panic() {
        QuantileSketch::new().insert(-1.0);
    }

    #[test]
    fn serialization_round_trips() {
        let mut sketch = QuantileSketch::new();
        for x in [0.0, 0.5, 3.0, 3.0, 1e9] {
            sketch.insert(x);
        }
        let json = serde_json::to_string(&sketch).expect("serializes");
        let back: QuantileSketch = serde_json::from_str(&json).expect("parses");
        assert_eq!(sketch, back);
    }
}
