//! Property-based tests for the trace substrate.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::{
    read_jsonl, write_jsonl, AttackConfig, AttackKind, Attacker, MixedTrace, ReplayTrace,
    SpecLikeWorkload, TraceEvent, TraceSource, TraceStats, WorkloadConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The workload generator respects geometry bounds and the
    /// per-interval cap for arbitrary (small) configurations.
    #[test]
    fn workload_respects_bounds(
        mean in 1.0f64..40.0,
        hot_rows in 1usize..16,
        locality in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let geometry = Geometry::scaled_down(256);
        let mut config = WorkloadConfig::paper(&geometry).with_intervals(64);
        config.mean_acts_per_interval = mean;
        config.hot_rows = hot_rows;
        config.locality = locality;
        let mut workload = SpecLikeWorkload::new(config, seed);
        let mut out = Vec::new();
        while {
            out.clear();
            workload.next_interval(&mut out)
        } {
            prop_assert!(out.len() as u32 <= config.max_acts_per_interval * config.banks);
            for e in &out {
                prop_assert!(e.row.0 < geometry.rows_per_bank());
                prop_assert!(!e.aggressor);
            }
        }
    }

    /// The attacker emits exactly its budget every active interval, all
    /// labelled as aggressor accesses.
    #[test]
    fn attacker_budget_is_exact(
        budget in 1u32..40,
        start in 0u64..8,
        total in 8u64..32,
        double_sided in any::<bool>(),
    ) {
        let kind = if double_sided {
            AttackKind::DoubleSided { victim: RowAddr(100) }
        } else {
            AttackKind::SingleSided { aggressor: RowAddr(100) }
        };
        let mut attacker = Attacker::new(AttackConfig {
            kind,
            target_banks: vec![BankId(0)],
            acts_per_interval: budget,
            start_interval: start,
            intervals: total,
            ramp_hold_intervals: 0,
        });
        let mut out = Vec::new();
        let mut interval = 0u64;
        while {
            out.clear();
            attacker.next_interval(&mut out)
        } {
            let expected = if interval >= start { budget as usize } else { 0 };
            prop_assert_eq!(out.len(), expected, "interval {}", interval);
            prop_assert!(out.iter().all(|e| e.aggressor));
            interval += 1;
        }
        prop_assert_eq!(interval, total);
    }

    /// The ramp's aggressor count is monotone non-decreasing and spans
    /// 1..=max.
    #[test]
    fn ramp_is_monotone(hold in 1u64..64, max in 2u32..20) {
        let attacker = Attacker::new(AttackConfig {
            kind: AttackKind::MultiAggressorRamp {
                base_row: RowAddr(1000),
                max_aggressors: max,
            },
            target_banks: vec![BankId(0)],
            acts_per_interval: 10,
            start_interval: 0,
            intervals: hold * u64::from(max) + 10,
            ramp_hold_intervals: hold,
        });
        let mut previous = 0usize;
        for interval in 0..attacker.config().intervals {
            let k = attacker.aggressors_at(interval).len();
            prop_assert!(k >= previous);
            prop_assert!(k >= 1 && k <= max as usize);
            previous = k;
        }
        prop_assert_eq!(previous, max as usize);
    }

    /// The mixer never exceeds the per-bank cap, and every input event is
    /// either delivered or counted as dropped.
    #[test]
    fn mixer_conserves_events(
        a_events in proptest::collection::vec((0u32..2, 0u32..100), 1..8),
        b_events in proptest::collection::vec((0u32..2, 0u32..100), 1..8),
        cap in 1u32..50,
    ) {
        let to_intervals = |spec: &[(u32, u32)], aggressor: bool| -> Vec<Vec<TraceEvent>> {
            spec.iter()
                .map(|&(bank, n)| {
                    (0..n)
                        .map(|i| TraceEvent {
                            bank: BankId(bank),
                            row: RowAddr(i),
                            aggressor,
                        })
                        .collect()
                })
                .collect()
        };
        let total_in: u64 = a_events.iter().map(|&(_, n)| u64::from(n)).sum::<u64>()
            + b_events.iter().map(|&(_, n)| u64::from(n)).sum::<u64>();
        let a = ReplayTrace::new(to_intervals(&a_events, false));
        let b = ReplayTrace::new(to_intervals(&b_events, true));
        let mut mix = MixedTrace::new(vec![Box::new(a), Box::new(b)], cap);
        let mut out = Vec::new();
        let mut delivered = 0u64;
        loop {
            out.clear();
            if !mix.next_interval(&mut out) {
                break;
            }
            let mut per_bank = std::collections::BTreeMap::new();
            for e in &out {
                *per_bank.entry(e.bank).or_insert(0u32) += 1;
            }
            for (&bank, &n) in &per_bank {
                prop_assert!(n <= cap, "bank {bank} got {n} > cap {cap}");
            }
            delivered += out.len() as u64;
        }
        prop_assert_eq!(delivered + mix.dropped(), total_in);
    }

    /// JSON-lines serialization round-trips arbitrary traces.
    #[test]
    fn jsonl_roundtrip(
        intervals in proptest::collection::vec(
            proptest::collection::vec((0u32..4, 0u32..65_536, any::<bool>()), 0..10),
            0..10,
        ),
    ) {
        let source: Vec<Vec<TraceEvent>> = intervals
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&(bank, row, aggressor)| TraceEvent {
                        bank: BankId(bank),
                        row: RowAddr(row),
                        aggressor,
                    })
                    .collect()
            })
            .collect();
        let mut buffer = Vec::new();
        write_jsonl(ReplayTrace::new(source.clone()), &mut buffer).unwrap();
        let mut replay = read_jsonl(buffer.as_slice()).unwrap();
        let mut out = Vec::new();
        let mut got = Vec::new();
        while {
            out.clear();
            replay.next_interval(&mut out)
        } {
            got.push(out.clone());
        }
        prop_assert_eq!(got, source);
    }

    /// Statistics are internally consistent: aggregate counters match
    /// the per-row map.
    #[test]
    fn stats_are_consistent(
        intervals in proptest::collection::vec(
            proptest::collection::vec((0u32..3, 0u32..50, any::<bool>()), 0..20),
            1..10,
        ),
    ) {
        let source: Vec<Vec<TraceEvent>> = intervals
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|&(bank, row, aggressor)| TraceEvent {
                        bank: BankId(bank),
                        row: RowAddr(row),
                        aggressor,
                    })
                    .collect()
            })
            .collect();
        let stats = TraceStats::collect(ReplayTrace::new(source));
        let from_map: u64 = stats.row_counts.values().sum();
        prop_assert_eq!(from_map, stats.total_activations);
        prop_assert!(stats.aggressor_activations <= stats.total_activations);
        prop_assert!(stats.top_k_coverage(1_000_000) <= 1.0 + 1e-12);
    }
}
