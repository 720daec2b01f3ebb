//! Heterogeneous weak-cell maps: per-row flip thresholds and weak-cell
//! columns.
//!
//! Real DRAM devices do not have one flip threshold — retention and
//! disturbance sensitivity vary cell to cell, and a profiling-equipped
//! attacker exploits exactly that variation.  [`WeakCellMap`] is the
//! ground truth of one device: for every `(bank, row)` it records the
//! row's flip threshold (whole activations) and the column of the
//! row's weakest cell — the bit that flips when the row's disturbance
//! counter crosses the threshold.
//!
//! Maps are never stored in configs or campaign specs; the serializable
//! [`WeakCellSpec`] is, and [`WeakCellSpec::materialize`] regenerates
//! the identical map from the spec on every shard (the per-bank RNG is
//! seeded by [`bank_seed`], so worker count and bank order cannot
//! change a single cell).

use crate::{bank_seed, BankId, Geometry, RowAddr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Columns modeled per row.  [`Geometry`] has no column dimension — the
/// disturbance model is row-granular — so the weak-cell model fixes the
/// row width here (1 KiB rows, one weak bit per row).
pub const WEAK_CELL_COLUMNS: u32 = 1024;

/// Ground-truth weak-cell map of one device: a flip threshold and a
/// weak-cell column for every `(bank, row)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeakCellMap {
    rows_per_bank: u32,
    base_threshold: u32,
    /// Bank-major `banks × rows_per_bank` thresholds, whole activations.
    thresholds: Vec<u32>,
    /// Bank-major weak-cell column per row, `< WEAK_CELL_COLUMNS`.
    columns: Vec<u32>,
}

impl WeakCellMap {
    fn index(&self, bank: BankId, row: RowAddr) -> usize {
        bank.index() * self.rows_per_bank as usize + row.index()
    }

    /// Number of banks covered.
    pub fn banks(&self) -> u32 {
        u32::try_from(self.thresholds.len() / self.rows_per_bank as usize)
            .expect("bank count fits u32")
    }

    /// Rows per bank covered.
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// The uniform threshold the map's weak rows deviate from.
    pub fn base_threshold(&self) -> u32 {
        self.base_threshold
    }

    /// Flip threshold of `(bank, row)` in whole activations.
    pub fn threshold(&self, bank: BankId, row: RowAddr) -> u32 {
        self.thresholds[self.index(bank, row)]
    }

    /// Column of the row's weakest cell — the bit that corrupts when
    /// the row flips.
    pub fn column(&self, bank: BankId, row: RowAddr) -> u32 {
        self.columns[self.index(bank, row)]
    }

    /// Whether the row's threshold is below the map's base threshold.
    pub fn is_weak(&self, bank: BankId, row: RowAddr) -> bool {
        self.threshold(bank, row) < self.base_threshold
    }

    /// All weak rows of `bank`, in row order.
    pub fn weak_rows(&self, bank: BankId) -> Vec<RowAddr> {
        (0..self.rows_per_bank)
            .map(RowAddr)
            .filter(|&row| self.is_weak(bank, row))
            .collect()
    }

    /// The per-row threshold vector of `bank`, ready for
    /// [`crate::DisturbState::set_row_thresholds`].
    pub fn bank_thresholds(&self, bank: BankId) -> Vec<u32> {
        let start = bank.index() * self.rows_per_bank as usize;
        self.thresholds[start..start + self.rows_per_bank as usize].to_vec()
    }
}

/// Serializable recipe for a device's weak-cell population.  Campaign
/// specs and run configs carry the spec; every shard rebuilds the same
/// [`WeakCellMap`] from it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WeakCellSpec {
    /// The legacy model: one global threshold (`RunConfig::flip_threshold`),
    /// no per-row state installed.  The default everywhere, so every
    /// pre-weak-map config keeps meaning exactly what it meant.
    #[default]
    Uniform,
    /// Every row shares `threshold`, but through the per-row path —
    /// behaviourally identical to `Uniform` at the same threshold, used
    /// to pin that equivalence and to give uniform devices weak-cell
    /// columns.
    Flat {
        /// Flip threshold of every row, whole activations.
        threshold: u32,
    },
    /// The heterogeneous model: most rows flip at `strong`; about
    /// `weak_per_mille`‰ of rows are weak and flip somewhere in
    /// `weak_lo..=weak_hi`, sampled per bank from `seed`.
    Sampled {
        /// Base seed; each bank derives its stream via [`bank_seed`].
        seed: u64,
        /// Threshold of the strong (ordinary) rows.
        strong: u32,
        /// Lowest weak-row threshold (inclusive).
        weak_lo: u32,
        /// Highest weak-row threshold (inclusive).
        weak_hi: u32,
        /// Weak rows per thousand.
        weak_per_mille: u32,
    },
}

impl WeakCellSpec {
    /// The spec's stable name (the JSON tag for payload variants).
    pub fn name(&self) -> &'static str {
        match self {
            WeakCellSpec::Uniform => "uniform",
            WeakCellSpec::Flat { .. } => "flat",
            WeakCellSpec::Sampled { .. } => "sampled",
        }
    }

    /// Builds the ground-truth map for `geometry`.  `Uniform` returns
    /// `None` (no per-row state; the uniform threshold applies).
    ///
    /// Deterministic per `(spec, geometry)`: each bank's cells come
    /// from its own [`bank_seed`]-derived RNG in fixed row order
    /// (column first, then the weakness roll, then the weak threshold),
    /// so sharded and sequential runs see the identical device.
    ///
    /// # Panics
    ///
    /// Panics if a `Sampled` spec has `weak_lo > weak_hi` or
    /// `weak_per_mille > 1000`.
    pub fn materialize(&self, geometry: &Geometry) -> Option<WeakCellMap> {
        let rows = geometry.rows_per_bank();
        let banks = geometry.banks();
        let cells = rows as usize * banks as usize;
        match *self {
            WeakCellSpec::Uniform => None,
            WeakCellSpec::Flat { threshold } => {
                // Columns still vary row to row so a flat device has a
                // well-defined victim bit; derive them from the
                // threshold so equal specs give equal maps.
                let mut columns = Vec::with_capacity(cells);
                for bank in 0..banks {
                    let mut state = bank_seed(u64::from(threshold), BankId(bank));
                    for _ in 0..rows {
                        columns.push(
                            u32::try_from(
                                rand::splitmix64(&mut state) % u64::from(WEAK_CELL_COLUMNS),
                            )
                            .expect("column fits u32"),
                        );
                    }
                }
                Some(WeakCellMap {
                    rows_per_bank: rows,
                    base_threshold: threshold,
                    thresholds: vec![threshold; cells],
                    columns,
                })
            }
            WeakCellSpec::Sampled {
                seed,
                strong,
                weak_lo,
                weak_hi,
                weak_per_mille,
            } => {
                assert!(weak_lo <= weak_hi, "weak threshold band inverted");
                assert!(weak_per_mille <= 1000, "weak_per_mille is per thousand");
                let mut thresholds = Vec::with_capacity(cells);
                let mut columns = Vec::with_capacity(cells);
                for bank in 0..banks {
                    let mut rng = StdRng::seed_from_u64(bank_seed(seed, BankId(bank)));
                    for _ in 0..rows {
                        columns.push(rng.random_range(0..WEAK_CELL_COLUMNS));
                        let weak = rng.random_range(0u32..1000) < weak_per_mille;
                        thresholds.push(if weak {
                            rng.random_range(weak_lo..=weak_hi)
                        } else {
                            strong
                        });
                    }
                }
                Some(WeakCellMap {
                    rows_per_bank: rows,
                    base_threshold: strong,
                    thresholds,
                    columns,
                })
            }
        }
    }
}

impl std::fmt::Display for WeakCellSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WeakCellSpec::Uniform => write!(f, "uniform"),
            WeakCellSpec::Flat { threshold } => write!(f, "flat({threshold})"),
            WeakCellSpec::Sampled {
                seed,
                strong,
                weak_lo,
                weak_hi,
                weak_per_mille,
            } => write!(
                f,
                "sampled(seed {seed}, strong {strong}, weak {weak_lo}..={weak_hi}, {weak_per_mille}\u{2030})"
            ),
        }
    }
}

// Manual serde impls (the derive cannot express `if_absent`): encoded
// like the derive would — `"uniform"` as a bare string, payload
// variants as single-key objects — with `Uniform` as the absent-field
// default so every pre-weak-map JSON config parses unchanged
// (mirroring `BackendSpec`'s absent-means-exact contract).
impl Serialize for WeakCellSpec {
    fn to_json_value(&self) -> serde::json::Value {
        use serde::json::Value;
        match *self {
            WeakCellSpec::Uniform => Value::Str("uniform".to_string()),
            WeakCellSpec::Flat { threshold } => Value::Object(vec![(
                "flat".to_string(),
                Value::Object(vec![("threshold".to_string(), threshold.to_json_value())]),
            )]),
            WeakCellSpec::Sampled {
                seed,
                strong,
                weak_lo,
                weak_hi,
                weak_per_mille,
            } => Value::Object(vec![(
                "sampled".to_string(),
                Value::Object(vec![
                    ("seed".to_string(), seed.to_json_value()),
                    ("strong".to_string(), strong.to_json_value()),
                    ("weak_lo".to_string(), weak_lo.to_json_value()),
                    ("weak_hi".to_string(), weak_hi.to_json_value()),
                    ("weak_per_mille".to_string(), weak_per_mille.to_json_value()),
                ]),
            )]),
        }
    }
}

impl Deserialize for WeakCellSpec {
    fn from_json_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        use serde::json::{field, Error, Value};
        match v {
            Value::Str(s) if s == "uniform" => Ok(WeakCellSpec::Uniform),
            Value::Str(other) => Err(Error::new(format!(
                "unknown weak-cell spec {other:?} (expected uniform, flat, sampled)"
            ))),
            Value::Object(pairs) if pairs.len() == 1 => {
                let (tag, inner) = &pairs[0];
                match tag.as_str() {
                    "flat" => {
                        let obj = inner.as_object("WeakCellSpec::Flat")?;
                        Ok(WeakCellSpec::Flat {
                            threshold: field(obj, "threshold")?,
                        })
                    }
                    "sampled" => {
                        let obj = inner.as_object("WeakCellSpec::Sampled")?;
                        Ok(WeakCellSpec::Sampled {
                            seed: field(obj, "seed")?,
                            strong: field(obj, "strong")?,
                            weak_lo: field(obj, "weak_lo")?,
                            weak_hi: field(obj, "weak_hi")?,
                            weak_per_mille: field(obj, "weak_per_mille")?,
                        })
                    }
                    other => Err(Error::new(format!(
                        "unknown weak-cell spec {other:?} (expected flat, sampled)"
                    ))),
                }
            }
            other => Err(Error::new(format!(
                "invalid weak-cell spec: {}",
                other.kind()
            ))),
        }
    }

    /// Absent means the legacy uniform model — the stable campaign
    /// contract for every config written before weak-cell maps.
    fn if_absent() -> Option<Self> {
        Some(WeakCellSpec::Uniform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> Geometry {
        Geometry::new(256, 2, 8).expect("geometry")
    }

    fn sampled() -> WeakCellSpec {
        WeakCellSpec::Sampled {
            seed: 9,
            strong: 4096,
            weak_lo: 1024,
            weak_hi: 2048,
            weak_per_mille: 100,
        }
    }

    #[test]
    fn uniform_materializes_to_none() {
        assert!(WeakCellSpec::Uniform.materialize(&geometry()).is_none());
    }

    #[test]
    fn flat_map_is_uniform_with_columns() {
        let map = WeakCellSpec::Flat { threshold: 500 }
            .materialize(&geometry())
            .expect("flat map");
        assert_eq!(map.banks(), 2);
        assert_eq!(map.rows_per_bank(), 256);
        for bank in [BankId(0), BankId(1)] {
            assert!(map.weak_rows(bank).is_empty());
            for row in 0..256 {
                assert_eq!(map.threshold(bank, RowAddr(row)), 500);
                assert!(map.column(bank, RowAddr(row)) < WEAK_CELL_COLUMNS);
            }
        }
    }

    #[test]
    fn sampled_map_is_deterministic_and_in_band() {
        let a = sampled().materialize(&geometry()).expect("map");
        let b = sampled().materialize(&geometry()).expect("map");
        assert_eq!(a, b, "same spec + geometry must give the same map");
        let mut weak = 0usize;
        for bank in [BankId(0), BankId(1)] {
            for row in 0..256 {
                let t = a.threshold(bank, RowAddr(row));
                if t == 4096 {
                    continue;
                }
                assert!((1024..=2048).contains(&t), "weak threshold {t} out of band");
                assert!(a.is_weak(bank, RowAddr(row)));
                weak += 1;
            }
            assert_eq!(a.weak_rows(bank).len(), {
                (0..256).filter(|&r| a.is_weak(bank, RowAddr(r))).count()
            });
        }
        // 512 rows at 100‰: expect ~51 weak rows; the seeded draw must
        // land in a loose band around it.
        assert!((20..=110).contains(&weak), "weak rows: {weak}");
    }

    #[test]
    fn banks_sample_independent_streams() {
        let map = sampled().materialize(&geometry()).expect("map");
        assert_ne!(
            map.bank_thresholds(BankId(0)),
            map.bank_thresholds(BankId(1)),
            "banks must not repeat each other's cells"
        );
    }

    #[test]
    fn bank_thresholds_slice_matches_point_lookups() {
        let map = sampled().materialize(&geometry()).expect("map");
        let slice = map.bank_thresholds(BankId(1));
        assert_eq!(slice.len(), 256);
        for row in 0..256 {
            assert_eq!(slice[row as usize], map.threshold(BankId(1), RowAddr(row)));
        }
    }

    #[test]
    fn spec_json_round_trips_and_defaults_to_uniform() {
        for spec in [
            WeakCellSpec::Uniform,
            WeakCellSpec::Flat { threshold: 4096 },
            sampled(),
        ] {
            let json = spec.to_json_value();
            let back = WeakCellSpec::from_json_value(&json).expect("round trip");
            assert_eq!(back, spec);
        }
        assert_eq!(WeakCellSpec::if_absent(), Some(WeakCellSpec::Uniform));
        assert_eq!(WeakCellSpec::default(), WeakCellSpec::Uniform);
        assert!(
            WeakCellSpec::from_json_value(&serde::json::Value::Str("weak".to_string())).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "band inverted")]
    fn inverted_band_rejected() {
        let _ = WeakCellSpec::Sampled {
            seed: 1,
            strong: 4096,
            weak_lo: 2048,
            weak_hi: 1024,
            weak_per_mille: 10,
        }
        .materialize(&geometry());
    }
}
