//! Logical→physical row neighbor relationships.
//!
//! MRLoc and ProHit assume the neighbors of row `N` are `N−1` and `N+1`,
//! "but this is not always true, as defected rows might be remapped to
//! other rows" (§II, citing TWiCe).  The [`RowMapping`] trait makes the
//! neighbor relation explicit so both the device and the mitigations can
//! be exercised with and without remapping.

use crate::{Geometry, RowAddr};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Resolves the *physical* neighbors of a row.
///
/// Implementations must be deterministic: the device and the analysis
/// code both query the mapping and must agree.
pub trait RowMapping: Debug + Send + Sync {
    /// Physical location backing logical row `row`.
    ///
    /// For the identity mapping this is `row` itself; remapped (defect
    /// replaced) rows live elsewhere.
    fn physical(&self, row: RowAddr) -> RowAddr;

    /// Whether [`RowMapping::physical`] is the identity, so callers on a
    /// per-activation path may skip the call.
    fn is_identity(&self) -> bool {
        false
    }

    /// The physical neighbors disturbed when `row` is activated.
    ///
    /// Rows 0 and `RowsPB − 1` have only one physical neighbor, so the
    /// result holds one or two rows.
    fn neighbors(&self, row: RowAddr, geometry: &Geometry) -> Neighbors {
        let phys = self.physical(row);
        let mut out = Neighbors::default();
        if phys.0 > 0 {
            out.push(RowAddr(phys.0 - 1));
        }
        if phys.0 + 1 < geometry.rows_per_bank() {
            out.push(RowAddr(phys.0 + 1));
        }
        out
    }
}

/// Up to two neighbor rows, inline (no allocation on the hot path).
///
/// ```
/// use dram_sim::{IdentityMapping, RowMapping, Geometry, RowAddr};
/// let g = Geometry::new(64, 1, 8)?;
/// let n = IdentityMapping.neighbors(RowAddr(0), &g);
/// assert_eq!(n.as_slice(), &[RowAddr(1)]); // edge row: one neighbor
/// # Ok::<(), dram_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Neighbors {
    rows: [RowAddr; 2],
    len: u8,
}

impl Neighbors {
    /// Adds a neighbor.
    ///
    /// # Panics
    ///
    /// Panics if already holding two rows.
    pub fn push(&mut self, row: RowAddr) {
        assert!(self.len < 2, "a row has at most two neighbors");
        self.rows[self.len as usize] = row;
        self.len += 1;
    }

    /// View of the stored neighbors.
    pub fn as_slice(&self) -> &[RowAddr] {
        &self.rows[..self.len as usize]
    }

    /// Number of neighbors (1 for edge rows, 2 otherwise).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no neighbors (only possible in 1-row banks).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the neighbors by value.
    pub fn iter(&self) -> impl Iterator<Item = RowAddr> + '_ {
        self.as_slice().iter().copied()
    }
}

impl<'a> IntoIterator for &'a Neighbors {
    type Item = RowAddr;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, RowAddr>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

/// The common case: logical row `r` is physical row `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityMapping;

impl RowMapping for IdentityMapping {
    #[inline]
    fn physical(&self, row: RowAddr) -> RowAddr {
        row
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// A mapping with defect-replaced rows: selected logical rows are backed
/// by spare physical rows, so their disturbance lands elsewhere.
///
/// ```
/// use dram_sim::{RemappedMapping, RowMapping, Geometry, RowAddr};
/// let g = Geometry::new(64, 1, 8)?;
/// let m = RemappedMapping::new(vec![(RowAddr(10), RowAddr(60))]);
/// // Row 10 is physically row 60, so activating it disturbs 59 and 61:
/// let n = m.neighbors(RowAddr(10), &g);
/// assert_eq!(n.as_slice(), &[RowAddr(59), RowAddr(61)]);
/// # Ok::<(), dram_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RemappedMapping {
    remap: BTreeMap<RowAddr, RowAddr>,
}

impl RemappedMapping {
    /// Creates a mapping from `(logical, physical)` replacement pairs.
    /// Rows not listed map to themselves.
    pub fn new<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (RowAddr, RowAddr)>,
    {
        RemappedMapping {
            remap: pairs.into_iter().collect(),
        }
    }

    /// Number of remapped rows.
    pub fn remapped_count(&self) -> usize {
        self.remap.len()
    }
}

impl RowMapping for RemappedMapping {
    #[inline]
    fn physical(&self, row: RowAddr) -> RowAddr {
        self.remap.get(&row).copied().unwrap_or(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> Geometry {
        Geometry::new(64, 1, 8).unwrap()
    }

    #[test]
    fn identity_interior_row_has_two_neighbors() {
        let g = small_geometry();
        let n = IdentityMapping.neighbors(RowAddr(5), &g);
        assert_eq!(n.as_slice(), &[RowAddr(4), RowAddr(6)]);
        assert_eq!(n.len(), 2);
        assert!(!n.is_empty());
        assert!(IdentityMapping.is_identity());
    }

    #[test]
    fn identity_edge_rows_have_one_neighbor() {
        let g = small_geometry();
        assert_eq!(
            IdentityMapping.neighbors(RowAddr(0), &g).as_slice(),
            &[RowAddr(1)]
        );
        assert_eq!(
            IdentityMapping.neighbors(RowAddr(63), &g).as_slice(),
            &[RowAddr(62)]
        );
    }

    #[test]
    fn remapped_row_disturbs_replacement_site() {
        let g = small_geometry();
        let m = RemappedMapping::new(vec![(RowAddr(1), RowAddr(30))]);
        assert_eq!(m.physical(RowAddr(1)), RowAddr(30));
        assert_eq!(m.physical(RowAddr(2)), RowAddr(2));
        assert_eq!(
            m.neighbors(RowAddr(1), &g).as_slice(),
            &[RowAddr(29), RowAddr(31)]
        );
        assert_eq!(m.remapped_count(), 1);
        assert!(!m.is_identity());
    }

    #[test]
    fn neighbors_iterates_by_value() {
        let g = small_geometry();
        let n = IdentityMapping.neighbors(RowAddr(5), &g);
        let collected: Vec<RowAddr> = n.iter().collect();
        assert_eq!(collected, vec![RowAddr(4), RowAddr(6)]);
        let collected2: Vec<RowAddr> = (&n).into_iter().collect();
        assert_eq!(collected, collected2);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn neighbors_rejects_third_push() {
        let mut n = Neighbors::default();
        n.push(RowAddr(0));
        n.push(RowAddr(1));
        n.push(RowAddr(2));
    }
}
