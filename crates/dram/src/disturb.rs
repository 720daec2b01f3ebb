//! Per-bank disturbance accounting — the physical core of the row-hammer
//! model.
//!
//! Every row carries a disturbance counter: the number of aggressor
//! activations its neighbors have performed since the row's charge was
//! last restored (by refreshing it or by activating it).  When the
//! counter reaches the flip threshold the row's data is considered
//! corrupted — a successful row-hammer attack.

use crate::{RowAddr, FLIP_THRESHOLD};
use serde::{Deserialize, Serialize};

/// Fixed-point scale of the internal disturbance counters: counts are
/// kept in sixteenths of an activation so that fractional distance-2
/// coupling (the blast-radius extension) composes with the integer
/// distance-1 model without floating point on the hot path.
pub const DISTURB_SCALE: u32 = 16;

/// Disturbance state of one bank.
///
/// ```
/// use dram_sim::{DisturbState, RowAddr};
/// let mut bank = DisturbState::new(16, 3);
/// // Hammering row 5 disturbs rows 4 and 6:
/// for _ in 0..3 {
///     bank.restore(RowAddr(5));       // activation restores the row itself…
///     bank.disturb(RowAddr(4));       // …and disturbs its neighbors
///     bank.disturb(RowAddr(6));
/// }
/// assert!(bank.is_flipped(RowAddr(4)));
/// assert_eq!(bank.disturbance(RowAddr(6)), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisturbState {
    /// Counters in sixteenths of an activation (see [`DISTURB_SCALE`]).
    counters: Vec<u32>,
    flipped: Vec<bool>,
    /// Threshold in whole activations.
    flip_threshold: u32,
    /// Rows that newly crossed the threshold since the last call to
    /// [`DisturbState::take_new_flips`].
    new_flips: Vec<RowAddr>,
    /// Highest disturbance value ever observed (attack-margin metric).
    max_disturbance_seen: u32,
    /// Per-row threshold overrides in whole activations.  Empty (the
    /// default) means every row uses the uniform [`Self::flip_threshold`];
    /// non-empty means row `r` flips at `row_thresholds[r]` — the
    /// heterogeneous weak-cell model (see `crate::weakmap`).
    row_thresholds: Vec<u32>,
    /// The smallest of `row_thresholds`, cached when they are installed
    /// (unused while they are empty); see [`Self::threshold_floor`].
    row_threshold_floor: u32,
}

impl DisturbState {
    /// Creates the state for a bank of `rows` rows with the given flip
    /// threshold (use [`FLIP_THRESHOLD`] for the paper's 139 K).
    pub fn new(rows: u32, flip_threshold: u32) -> Self {
        DisturbState {
            counters: vec![0; rows as usize],
            flipped: vec![false; rows as usize],
            flip_threshold,
            new_flips: Vec::new(),
            max_disturbance_seen: 0,
            row_thresholds: Vec::new(),
            row_threshold_floor: flip_threshold,
        }
    }

    /// Creates the state with the paper's 139 K threshold.
    pub fn with_paper_threshold(rows: u32) -> Self {
        DisturbState::new(rows, FLIP_THRESHOLD)
    }

    /// Registers one full disturbance event on `row` (an immediate
    /// neighbor of `row` was activated).  Records a flip the first time
    /// the counter reaches the threshold.
    #[inline]
    pub fn disturb(&mut self, row: RowAddr) {
        self.disturb_scaled(row, DISTURB_SCALE);
    }

    /// Registers a fractional disturbance event in sixteenths of an
    /// activation — distance-2 coupling in the blast-radius extension.
    #[inline]
    pub fn disturb_scaled(&mut self, row: RowAddr, sixteenths: u32) {
        let c = &mut self.counters[row.index()];
        *c += sixteenths;
        if *c > self.max_disturbance_seen {
            self.max_disturbance_seen = *c;
        }
        let threshold = match self.row_thresholds.get(row.index()) {
            Some(&t) => t,
            None => self.flip_threshold,
        };
        if *c >= threshold.saturating_mul(DISTURB_SCALE) && !self.flipped[row.index()] {
            self.flipped[row.index()] = true;
            self.new_flips.push(row);
        }
    }

    /// One activation of physical row `phys`: the row's own charge is
    /// restored and its neighbors disturbed (see [`disturb_neighbors`]).
    #[inline]
    pub(crate) fn activate(&mut self, phys: RowAddr, d2: u32) {
        self.restore(phys);
        disturb_neighbors(phys, self.counters.len(), d2, |row, sixteenths| {
            self.disturb_scaled(row, sixteenths);
        });
    }

    /// [`Self::activate`] for each of the physical rows `phys` in turn,
    /// keeping the high-water mark exact but testing no threshold: the
    /// caller has shown through [`Self::flip_headroom`] that none of
    /// these activations can flip a row.
    #[inline]
    pub(crate) fn activate_within_headroom(
        &mut self,
        phys: impl IntoIterator<Item = RowAddr>,
        d2: u32,
    ) {
        let counters = self.counters.as_mut_slice();
        let rows = counters.len();
        let mut seen = self.max_disturbance_seen;
        for phys in phys {
            counters[phys.index()] = 0;
            disturb_neighbors(phys, rows, d2, |row, sixteenths| {
                let c = &mut counters[row.index()];
                *c += sixteenths;
                seen = seen.max(*c);
            });
        }
        self.max_disturbance_seen = seen;
    }

    /// How many further activations this bank can take before any row
    /// could reach its flip threshold.
    ///
    /// One activation adds at most [`DISTURB_SCALE`] to any counter
    /// (distance-2 coupling is capped at a full event), and no counter
    /// exceeds the high-water mark `seen`.  So after `k` activations
    /// every counter is at most `seen + 16·k`, which stays below the
    /// smallest threshold `16·T_min` while
    /// `k ≤ (16·T_min − seen − 1) / 16`.  The bound is tight: a weakest
    /// row at the high-water mark whose neighbor is hammered flips on
    /// the next activation past it.  It is zero once the mark reaches
    /// the floor, and the mark never falls.
    #[inline]
    pub(crate) fn flip_headroom(&self) -> u64 {
        let floor = u64::from(self.threshold_floor().saturating_mul(DISTURB_SCALE));
        floor.saturating_sub(u64::from(self.max_disturbance_seen) + 1) / u64::from(DISTURB_SCALE)
    }

    /// Restores `row`'s charge (the row was activated or refreshed):
    /// its disturbance counter resets to zero.
    ///
    /// A flip that already happened is *not* undone — refreshing a
    /// corrupted row rewrites the corrupted data.
    #[inline]
    pub fn restore(&mut self, row: RowAddr) {
        self.counters[row.index()] = 0;
    }

    /// Current disturbance of `row`, in whole activations (fractional
    /// distance-2 contributions are truncated).
    #[inline]
    pub fn disturbance(&self, row: RowAddr) -> u32 {
        self.counters[row.index()] / DISTURB_SCALE
    }

    /// Whether `row` has ever crossed the flip threshold.
    #[inline]
    pub fn is_flipped(&self, row: RowAddr) -> bool {
        self.flipped[row.index()]
    }

    /// Whether any row crossed the threshold since the last
    /// [`DisturbState::take_new_flips`].
    #[inline]
    pub(crate) fn has_new_flips(&self) -> bool {
        !self.new_flips.is_empty()
    }

    /// Drains the rows that crossed the threshold since the last call.
    pub fn take_new_flips(&mut self) -> Vec<RowAddr> {
        std::mem::take(&mut self.new_flips)
    }

    /// Total number of rows that have flipped.
    pub fn flipped_count(&self) -> usize {
        self.flipped.iter().filter(|&&f| f).count()
    }

    /// Largest disturbance ever reached in this bank, in whole
    /// activations — how close the closest-run attack came to the
    /// threshold.
    pub fn max_disturbance_seen(&self) -> u32 {
        self.max_disturbance_seen / DISTURB_SCALE
    }

    /// The configured flip threshold.
    pub fn flip_threshold(&self) -> u32 {
        self.flip_threshold
    }

    /// Changes the flip threshold (used by small-scale tests/examples).
    pub fn set_flip_threshold(&mut self, threshold: u32) {
        self.flip_threshold = threshold;
    }

    /// Installs per-row flip thresholds (whole activations), one per
    /// tracked row — the heterogeneous weak-cell model.  Rows keep
    /// their already-recorded flips; only future threshold checks use
    /// the per-row values.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` does not cover every tracked row.
    pub fn set_row_thresholds(&mut self, thresholds: Vec<u32>) {
        assert_eq!(
            thresholds.len(),
            self.counters.len(),
            "one threshold per tracked row"
        );
        self.row_threshold_floor = thresholds.iter().copied().min().unwrap_or(u32::MAX);
        self.row_thresholds = thresholds;
    }

    /// Removes per-row thresholds, returning to the uniform model.
    pub fn clear_row_thresholds(&mut self) {
        self.row_thresholds.clear();
    }

    /// Effective flip threshold of `row`: its per-row override when a
    /// weak-cell map is installed, the uniform threshold otherwise.
    pub fn row_threshold(&self, row: RowAddr) -> u32 {
        match self.row_thresholds.get(row.index()) {
            Some(&t) => t,
            None => self.flip_threshold,
        }
    }

    /// The smallest flip threshold of any row: the weakest row's when a
    /// weak-cell map is installed, the uniform threshold otherwise.
    fn threshold_floor(&self) -> u32 {
        if self.row_thresholds.is_empty() {
            self.flip_threshold
        } else {
            self.row_threshold_floor
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> u32 {
        u32::try_from(self.counters.len()).expect("row count fits u32")
    }
}

/// Calls `disturb(row, sixteenths)` for each row an activation of
/// physical row `phys` disturbs in a bank of `rows` rows: a full event
/// at distance one, `d2` sixteenths of one at distance two.
#[inline]
fn disturb_neighbors(phys: RowAddr, rows: usize, d2: u32, mut disturb: impl FnMut(RowAddr, u32)) {
    if phys.0 > 0 {
        disturb(RowAddr(phys.0 - 1), DISTURB_SCALE);
    }
    if phys.index() + 1 < rows {
        disturb(RowAddr(phys.0 + 1), DISTURB_SCALE);
    }
    if d2 > 0 {
        if phys.0 > 1 {
            disturb(RowAddr(phys.0 - 2), d2);
        }
        if phys.index() + 2 < rows {
            disturb(RowAddr(phys.0 + 2), d2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturb_accumulates_and_restore_resets() {
        let mut s = DisturbState::new(8, 100);
        s.disturb(RowAddr(3));
        s.disturb(RowAddr(3));
        assert_eq!(s.disturbance(RowAddr(3)), 2);
        s.restore(RowAddr(3));
        assert_eq!(s.disturbance(RowAddr(3)), 0);
        assert!(!s.is_flipped(RowAddr(3)));
    }

    #[test]
    fn flip_fires_exactly_once_at_threshold() {
        let mut s = DisturbState::new(8, 3);
        s.disturb(RowAddr(1));
        s.disturb(RowAddr(1));
        assert!(s.take_new_flips().is_empty());
        s.disturb(RowAddr(1));
        assert_eq!(s.take_new_flips(), vec![RowAddr(1)]);
        assert!(s.is_flipped(RowAddr(1)));
        // Further disturbance does not re-report the same row.
        s.disturb(RowAddr(1));
        assert!(s.take_new_flips().is_empty());
        assert_eq!(s.flipped_count(), 1);
    }

    #[test]
    fn restore_does_not_undo_flip() {
        let mut s = DisturbState::new(8, 2);
        s.disturb(RowAddr(0));
        s.disturb(RowAddr(0));
        assert!(s.is_flipped(RowAddr(0)));
        s.restore(RowAddr(0));
        assert!(s.is_flipped(RowAddr(0)));
        assert_eq!(s.disturbance(RowAddr(0)), 0);
    }

    #[test]
    fn max_disturbance_tracks_high_watermark() {
        let mut s = DisturbState::new(8, 1000);
        for _ in 0..5 {
            s.disturb(RowAddr(2));
        }
        s.restore(RowAddr(2));
        for _ in 0..3 {
            s.disturb(RowAddr(2));
        }
        assert_eq!(s.max_disturbance_seen(), 5);
    }

    #[test]
    fn paper_threshold_is_139k() {
        let s = DisturbState::with_paper_threshold(4);
        assert_eq!(s.flip_threshold(), 139_000);
        assert_eq!(s.rows(), 4);
    }

    #[test]
    fn scaled_disturbance_accumulates_fractions() {
        let mut s = DisturbState::new(8, 2);
        // 4/16 per event: 8 events = 2 whole activations → flip.
        for _ in 0..7 {
            s.disturb_scaled(RowAddr(1), 4);
        }
        assert!(!s.is_flipped(RowAddr(1)));
        assert_eq!(s.disturbance(RowAddr(1)), 1); // 28/16 truncated
        s.disturb_scaled(RowAddr(1), 4);
        assert!(s.is_flipped(RowAddr(1)));
    }

    #[test]
    fn per_row_thresholds_override_the_uniform_one() {
        let mut s = DisturbState::new(4, 100);
        s.set_row_thresholds(vec![100, 2, 100, 100]);
        s.disturb(RowAddr(1));
        s.disturb(RowAddr(2));
        s.disturb(RowAddr(1));
        s.disturb(RowAddr(2));
        // Row 1 is weak (threshold 2), row 2 is strong (100).
        assert_eq!(s.take_new_flips(), vec![RowAddr(1)]);
        assert!(!s.is_flipped(RowAddr(2)));
        assert_eq!(s.row_threshold(RowAddr(1)), 2);
        assert_eq!(s.row_threshold(RowAddr(0)), 100);
    }

    #[test]
    fn clearing_row_thresholds_restores_the_uniform_model() {
        let mut s = DisturbState::new(4, 3);
        s.set_row_thresholds(vec![1000; 4]);
        for _ in 0..5 {
            s.disturb(RowAddr(0));
        }
        assert!(!s.is_flipped(RowAddr(0)));
        s.clear_row_thresholds();
        assert_eq!(s.row_threshold(RowAddr(0)), 3);
        s.disturb(RowAddr(0));
        assert!(s.is_flipped(RowAddr(0)));
    }

    #[test]
    fn headroom_follows_the_high_water_mark_and_the_floor() {
        let mut s = DisturbState::new(4, 10);
        assert_eq!(s.flip_headroom(), 9);
        s.disturb_scaled(RowAddr(1), 20); // 1.25 activations
        assert_eq!(s.flip_headroom(), 8); // (160 − 20 − 1) / 16
        s.restore(RowAddr(1)); // the mark never falls
        assert_eq!(s.flip_headroom(), 8);
        s.set_row_thresholds(vec![10, 10, 4, 10]);
        assert_eq!(s.threshold_floor(), 4);
        assert_eq!(s.flip_headroom(), 2); // (64 − 20 − 1) / 16
        s.clear_row_thresholds();
        assert_eq!(s.threshold_floor(), 10);
        s.disturb_scaled(RowAddr(3), 150); // within one activation of the floor
        assert_eq!(s.flip_headroom(), 0);
    }

    #[test]
    #[should_panic(expected = "one threshold per tracked row")]
    fn row_threshold_length_mismatch_rejected() {
        DisturbState::new(4, 3).set_row_thresholds(vec![1, 2]);
    }

    #[test]
    fn scaled_and_whole_events_compose() {
        let mut s = DisturbState::new(8, 3);
        s.disturb(RowAddr(2)); // 1.0
        s.disturb_scaled(RowAddr(2), 16); // 1.0
        s.disturb_scaled(RowAddr(2), 15); // 0.9375 → total 2.9375 < 3
        assert!(!s.is_flipped(RowAddr(2)));
        s.disturb_scaled(RowAddr(2), 1);
        assert!(s.is_flipped(RowAddr(2)));
    }
}
