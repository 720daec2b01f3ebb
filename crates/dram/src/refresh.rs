//! Refresh-order policies.
//!
//! TiVaPRoMi's weight equation assumes "a refresh interval refreshes rows
//! with neighboring addresses", but §IV checks the technique against
//! three alternative policies.  A [`RefreshSchedule`] materialises any
//! policy as a permutation of all rows, chunked into
//! `rows_per_interval`-sized groups — interval `i` refreshes group `i`.

use crate::{Geometry, RowAddr};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The four refresh-order policies evaluated in §IV.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RefreshOrder {
    /// (i) The paper's base assumption: interval `i` refreshes rows
    /// `i·RowsPI … (i+1)·RowsPI − 1`.
    #[default]
    SequentialNeighbors,
    /// (ii) Sequential, but with a few defected rows replaced by spares:
    /// each `(defect, spare)` pair swaps the two rows' refresh slots.
    SequentialWithReplacements {
        /// `(defected row, spare row)` swaps.
        replacements: Vec<(RowAddr, RowAddr)>,
    },
    /// (iii) A fully random (seeded) permutation of all rows.
    FullyRandom {
        /// Seed for the permutation.
        seed: u64,
    },
    /// (iv) Counter combined with a mask: the interval counter is
    /// scrambled by an odd multiplier and XOR mask before selecting the
    /// refreshed row group, a cheap hardware address-scrambling scheme.
    CounterMask {
        /// XOR mask applied to the scrambled counter.
        mask: u32,
    },
}

impl std::fmt::Display for RefreshOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshOrder::SequentialNeighbors => write!(f, "sequential neighbors"),
            RefreshOrder::SequentialWithReplacements { replacements } => {
                write!(f, "sequential with {} replacements", replacements.len())
            }
            RefreshOrder::FullyRandom { seed } => write!(f, "fully random (seed {seed})"),
            RefreshOrder::CounterMask { mask } => write!(f, "counter + mask {mask:#x}"),
        }
    }
}

/// A materialised refresh order: which rows each interval refreshes.
///
/// ```
/// use dram_sim::{Geometry, RefreshOrder, RefreshSchedule, RowAddr};
/// let g = Geometry::new(64, 1, 8)?;
/// let s = RefreshSchedule::new(&g, &RefreshOrder::SequentialNeighbors);
/// assert_eq!(s.rows_for_interval(1), &[RowAddr(8), RowAddr(9), RowAddr(10),
///     RowAddr(11), RowAddr(12), RowAddr(13), RowAddr(14), RowAddr(15)]);
/// assert_eq!(s.interval_of(RowAddr(9)), 1);
/// # Ok::<(), dram_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RefreshSchedule {
    /// All rows in refresh order; interval `i` refreshes the `i`-th chunk
    /// of `rows_per_interval` entries.
    order: Vec<RowAddr>,
    /// Inverse map: row → interval refreshing it.
    interval_of: Vec<u32>,
    rows_per_interval: u32,
}

impl RefreshSchedule {
    /// Builds the schedule for `policy` under `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if a replacement pair in
    /// [`RefreshOrder::SequentialWithReplacements`] names a row outside
    /// the bank.
    pub fn new(geometry: &Geometry, policy: &RefreshOrder) -> Self {
        let rows = geometry.rows_per_bank();
        let rpi = geometry.rows_per_interval();
        let intervals = geometry.intervals_per_window();
        let mut order: Vec<RowAddr> = (0..rows).map(RowAddr).collect();

        match policy {
            RefreshOrder::SequentialNeighbors => {}
            RefreshOrder::SequentialWithReplacements { replacements } => {
                for &(a, b) in replacements {
                    assert!(a.0 < rows && b.0 < rows, "replacement row out of range");
                    order.swap(a.index(), b.index());
                }
            }
            RefreshOrder::FullyRandom { seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
            }
            RefreshOrder::CounterMask { mask } => {
                // Scramble the *group* order: group g is refreshed at the
                // interval whose scrambled counter equals g.  An odd
                // multiplier modulo a power-of-two interval count is a
                // bijection, so every group is refreshed exactly once.
                const ODD_MULTIPLIER: u64 = 2_654_435_761; // Knuth's odd constant
                assert!(
                    intervals.is_power_of_two(),
                    "counter+mask refresh order needs a power-of-two interval count"
                );
                let mut scrambled = vec![RowAddr(0); rows as usize];
                for i in 0..intervals {
                    #[allow(
                        clippy::cast_possible_truncation,
                        reason = "truncation to u32 IS the scramble: the low word of the Knuth product is the hashed counter"
                    )]
                    let g = ((u64::from(i) * ODD_MULTIPLIER) as u32 ^ mask) % intervals;
                    for k in 0..rpi {
                        scrambled[(i * rpi + k) as usize] = RowAddr(g * rpi + k);
                    }
                }
                order = scrambled;
            }
        }

        let mut interval_of = vec![0u32; rows as usize];
        for (pos, row) in order.iter().enumerate() {
            interval_of[row.index()] = u32::try_from(pos).expect("row position fits u32") / rpi;
        }

        RefreshSchedule {
            order,
            interval_of,
            rows_per_interval: rpi,
        }
    }

    /// Rows refreshed by interval `interval` (within the window).
    ///
    /// # Panics
    ///
    /// Panics if `interval` ≥ intervals per window.
    pub fn rows_for_interval(&self, interval: u32) -> &[RowAddr] {
        let rpi = self.rows_per_interval as usize;
        let start = interval as usize * rpi;
        &self.order[start..start + rpi]
    }

    /// The interval (within the window) that refreshes `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn interval_of(&self, row: RowAddr) -> u32 {
        self.interval_of[row.index()]
    }

    /// Total number of intervals in the schedule.
    pub fn intervals(&self) -> u32 {
        u32::try_from(self.order.len() / self.rows_per_interval as usize)
            .expect("interval count fits u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::new(64, 1, 8).unwrap()
    }

    fn is_permutation(s: &RefreshSchedule, rows: u32) -> bool {
        let mut seen = vec![false; rows as usize];
        for i in 0..s.intervals() {
            for &r in s.rows_for_interval(i) {
                if seen[r.index()] {
                    return false;
                }
                seen[r.index()] = true;
            }
        }
        seen.iter().all(|&b| b)
    }

    #[test]
    fn sequential_matches_paper_mapping() {
        let g = geometry();
        let s = RefreshSchedule::new(&g, &RefreshOrder::SequentialNeighbors);
        for r in 0..g.rows_per_bank() {
            assert_eq!(s.interval_of(RowAddr(r)), g.home_interval(RowAddr(r)));
        }
    }

    #[test]
    fn every_policy_refreshes_every_row_once() {
        let g = geometry();
        let policies = [
            RefreshOrder::SequentialNeighbors,
            RefreshOrder::SequentialWithReplacements {
                replacements: vec![(RowAddr(3), RowAddr(40)), (RowAddr(17), RowAddr(55))],
            },
            RefreshOrder::FullyRandom { seed: 7 },
            RefreshOrder::CounterMask { mask: 0b101 },
        ];
        for p in &policies {
            let s = RefreshSchedule::new(&g, p);
            assert!(is_permutation(&s, g.rows_per_bank()), "policy {p}");
        }
    }

    #[test]
    fn replacements_swap_refresh_slots() {
        let g = geometry();
        let s = RefreshSchedule::new(
            &g,
            &RefreshOrder::SequentialWithReplacements {
                replacements: vec![(RowAddr(0), RowAddr(63))],
            },
        );
        // Row 0 now occupies row 63's old slot (last interval) and vice versa.
        assert_eq!(s.interval_of(RowAddr(0)), 7);
        assert_eq!(s.interval_of(RowAddr(63)), 0);
        // Everything else is untouched.
        assert_eq!(s.interval_of(RowAddr(9)), 1);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let g = geometry();
        let a = RefreshSchedule::new(&g, &RefreshOrder::FullyRandom { seed: 1 });
        let b = RefreshSchedule::new(&g, &RefreshOrder::FullyRandom { seed: 1 });
        let c = RefreshSchedule::new(&g, &RefreshOrder::FullyRandom { seed: 2 });
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn counter_mask_keeps_groups_contiguous() {
        let g = geometry();
        let s = RefreshSchedule::new(&g, &RefreshOrder::CounterMask { mask: 3 });
        // Within one interval the rows are still a contiguous RowsPI group
        // (the mask permutes *groups*, not individual rows).
        for i in 0..s.intervals() {
            let rows = s.rows_for_interval(i);
            let base = rows[0].0;
            assert_eq!(base % g.rows_per_interval(), 0);
            for (k, r) in rows.iter().enumerate() {
                assert_eq!(r.0, base + k as u32);
            }
        }
    }

    #[test]
    fn display_names_all_policies() {
        assert!(RefreshOrder::SequentialNeighbors
            .to_string()
            .contains("sequential"));
        assert!(RefreshOrder::FullyRandom { seed: 3 }
            .to_string()
            .contains("random"));
        assert!(RefreshOrder::CounterMask { mask: 1 }
            .to_string()
            .contains("mask"));
        let r = RefreshOrder::SequentialWithReplacements {
            replacements: vec![(RowAddr(1), RowAddr(2))],
        };
        assert!(r.to_string().contains("replacements"));
    }
}
