//! Address mapping across geometries: the geometry admits exactly its
//! (bank, row) pairs, every mapping sends each admitted row to its own
//! physical row inside the bank, and the bank's edge rows have one
//! neighbor each.

use dram_sim::{BankId, Geometry, IdentityMapping, RemappedMapping, RowAddr, RowMapping};

const ROWS: u32 = 64;

fn geometries() -> [Geometry; 3] {
    [1, 3, 4].map(|banks| Geometry::new(ROWS, banks, 8).expect("geometry"))
}

/// Logical rows 2k and 2k+1 trade physical rows, for every k below
/// `pairs`: a remapping with no spare rows, so it is a permutation.
fn swapped(pairs: u32) -> RemappedMapping {
    RemappedMapping::new((0..pairs).flat_map(|k| {
        let (a, b) = (RowAddr(2 * k), RowAddr(2 * k + 1));
        [(a, b), (b, a)]
    }))
}

#[test]
fn geometry_admits_exactly_its_banks_and_rows() {
    for g in geometries() {
        for bank in 0..g.banks() + 2 {
            assert_eq!(
                g.check_bank(BankId(bank)).is_ok(),
                bank < g.banks(),
                "bank {bank} of {g:?}"
            );
        }
        for row in 0..ROWS + 2 {
            assert_eq!(
                g.check_row(RowAddr(row)).is_ok(),
                row < ROWS,
                "row {row} of {g:?}"
            );
        }
        assert!(g.check_bank(BankId(u32::MAX)).is_err());
        assert!(g.check_row(RowAddr(u32::MAX)).is_err());
    }
}

#[test]
fn mappings_send_every_admitted_row_to_a_distinct_row_in_the_bank() {
    let mappings: [(&str, Box<dyn RowMapping>); 3] = [
        ("identity", Box::new(IdentityMapping)),
        ("one swap", Box::new(swapped(1))),
        ("every row swapped", Box::new(swapped(ROWS / 2))),
    ];
    for g in geometries() {
        for (name, mapping) in &mappings {
            for bank in 0..g.banks() {
                assert!(g.check_bank(BankId(bank)).is_ok());
                let mut hit = vec![false; ROWS as usize];
                for row in (0..ROWS).map(RowAddr) {
                    let physical = mapping.physical(row);
                    assert!(g.check_row(physical).is_ok(), "{name}: {row} -> {physical}");
                    assert!(!hit[physical.index()], "{name}: {physical} mapped twice");
                    hit[physical.index()] = true;
                }
                assert!(hit.iter().all(|&h| h), "{name} is a permutation");
            }
        }
    }
    assert_eq!(swapped(ROWS / 2).remapped_count(), ROWS as usize);
}

#[test]
fn the_first_and_last_rows_have_one_neighbor_inside_the_bank() {
    for g in geometries() {
        for (row, neighbor) in [(0, 1), (ROWS - 1, ROWS - 2)] {
            let neighbors = IdentityMapping.neighbors(RowAddr(row), &g);
            assert_eq!(neighbors.as_slice(), &[RowAddr(neighbor)], "row {row}");
            assert!(g.check_row(RowAddr(neighbor)).is_ok());
        }
        // A remapped edge row disturbs around its physical site instead;
        // the row remapped onto an edge has that edge's one neighbor.
        let m = swapped(1);
        assert_eq!(m.neighbors(RowAddr(1), &g).as_slice(), &[RowAddr(1)]);
        assert_eq!(
            m.neighbors(RowAddr(0), &g).as_slice(),
            &[RowAddr(0), RowAddr(2)]
        );
        let last = RemappedMapping::new([(RowAddr(5), RowAddr(ROWS - 1))]);
        assert_eq!(
            last.neighbors(RowAddr(5), &g).as_slice(),
            &[RowAddr(ROWS - 2)]
        );
    }
}
