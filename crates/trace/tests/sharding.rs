//! Property tests for the `TraceSplit` contract: per-bank sub-streams
//! partition the interleaved stream.
//!
//! For every shardable source, `bank_shard(b)` must reproduce exactly
//! the parent's bank-`b` events, in the parent's per-bank order, over
//! exactly the parent's interval count — so the union of the shards is
//! a partition of the full trace (no event lost, duplicated, or moved
//! across intervals), independent of which other banks exist.  Every
//! parent and shard is drained twice, through `next_interval` and
//! through the engine's delivery path, `next_batch`, and both must agree.
//! The mix is also held to `model_mix`, a map-based reference merge, on
//! recordings whose intervals name banks in any order.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::{
    AttackConfig, AttackKind, Attacker, EventBatch, MixedTrace, ReplayTrace, SpecLikeWorkload,
    TraceEvent, TraceSource, TraceSplit, WorkloadConfig, DEFAULT_BATCH_EVENTS,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Drains a source into per-interval batches.
fn drain<S: TraceSource>(mut source: S) -> Vec<Vec<TraceEvent>> {
    let mut intervals = Vec::new();
    let mut out = Vec::new();
    while source.next_interval(&mut out) {
        intervals.push(out.clone());
        out.clear();
    }
    intervals
}

/// Drains a source through `next_batch` at `target_events` per fill,
/// splitting each batch back into its intervals.
fn drain_batched<S: TraceSource>(mut source: S, target_events: usize) -> Vec<Vec<TraceEvent>> {
    let mut batch = EventBatch::with_target_events(target_events);
    let mut intervals = Vec::new();
    while source.next_batch(&mut batch, u64::MAX) {
        for interval in 0..batch.intervals() {
            intervals.push(batch.segment(interval).map(|i| batch.event(i)).collect());
        }
    }
    intervals
}

/// Drains one source from `make` through `next_interval` and another
/// through `next_batch` at `target_events`, and requires the same
/// events and interval boundaries from both.
fn drain_both(
    make: &dyn Fn() -> Box<dyn TraceSplit>,
    target_events: usize,
) -> Vec<Vec<TraceEvent>> {
    let intervals = drain(make());
    assert_eq!(
        drain_batched(make(), target_events),
        intervals,
        "next_batch at {target_events} events per fill diverges from next_interval"
    );
    intervals
}

/// Asserts the partition property for a source builder: each bank's
/// shard equals the parent's bank filter, interval by interval, and the
/// shards jointly cover every parent event, on both delivery paths.
fn assert_partition(make: &dyn Fn() -> Box<dyn TraceSplit>, banks: u32, target_events: usize) {
    let parent = drain_both(make, target_events);
    let mut covered = 0usize;
    for bank in (0..banks).map(BankId) {
        let shard = drain_both(&|| make().bank_shard(bank), target_events);
        assert_eq!(
            shard.len(),
            parent.len(),
            "bank {bank:?} shard ticked {} intervals, parent {}",
            shard.len(),
            parent.len()
        );
        for (interval, (shard_batch, parent_batch)) in shard.iter().zip(&parent).enumerate() {
            let filtered: Vec<TraceEvent> = parent_batch
                .iter()
                .filter(|e| e.bank == bank)
                .copied()
                .collect();
            assert_eq!(
                shard_batch, &filtered,
                "bank {bank:?} shard diverges at interval {interval}"
            );
            covered += shard_batch.len();
        }
    }
    let total: usize = parent.iter().map(Vec::len).sum();
    assert_eq!(covered, total, "shards must cover every parent event");
    assert!(
        parent
            .iter()
            .flatten()
            .all(|e| e.bank.index() < banks as usize),
        "parent emitted an out-of-range bank"
    );
}

fn workload(banks: u32, intervals: u64, seed: u64) -> SpecLikeWorkload {
    let geometry = Geometry::scaled_down(64).with_banks(banks);
    SpecLikeWorkload::new(
        WorkloadConfig::paper(&geometry).with_intervals(intervals),
        seed,
    )
}

/// Recorded intervals over banks 0..4.
fn recorded() -> impl Strategy<Value = Vec<Vec<TraceEvent>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..4, 0u32..1024, any::<bool>()), 0..20),
        1..20,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|batch| {
                batch
                    .into_iter()
                    .map(|(bank, row, aggressor)| TraceEvent {
                        bank: BankId(bank),
                        row: RowAddr(row),
                        aggressor,
                    })
                    .collect()
            })
            .collect()
    })
}

/// The reference mix: `sources[s][i]` is source `s`'s interval `i`.
/// Per interval, each source's events are split into bank lanes
/// through a map; per bank, in ascending order, the lanes are
/// interleaved round-robin and everything past `cap` is dropped.
/// Returns the merged intervals and the number of dropped events.
fn model_mix(sources: &[Vec<Vec<TraceEvent>>], cap: u32) -> (Vec<Vec<TraceEvent>>, u64) {
    let intervals = sources.iter().map(Vec::len).max().unwrap_or(0);
    let mut merged = Vec::with_capacity(intervals);
    let mut dropped = 0;
    for interval in 0..intervals {
        let mut lanes: BTreeMap<BankId, Vec<Vec<TraceEvent>>> = BTreeMap::new();
        for (index, source) in sources.iter().enumerate() {
            for &event in source.get(interval).into_iter().flatten() {
                lanes
                    .entry(event.bank)
                    .or_insert_with(|| vec![Vec::new(); sources.len()])[index]
                    .push(event);
            }
        }
        let mut out = Vec::new();
        for lanes in lanes.into_values() {
            let mut used = 0u32;
            let mut cursors = vec![0usize; lanes.len()];
            loop {
                let mut progressed = false;
                for (lane, cursor) in lanes.iter().zip(&mut cursors) {
                    if let Some(&event) = lane.get(*cursor) {
                        *cursor += 1;
                        progressed = true;
                        if used < cap {
                            used += 1;
                            out.push(event);
                        } else {
                            dropped += 1;
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        merged.push(out);
    }
    (merged, dropped)
}

/// A mix of one replay per recording under `cap`.
fn replay_mix(recordings: &[Vec<Vec<TraceEvent>>], cap: u32) -> MixedTrace {
    MixedTrace::new(
        recordings
            .iter()
            .map(|intervals| Box::new(ReplayTrace::new(intervals.clone())) as Box<dyn TraceSplit>)
            .collect(),
        cap,
    )
}

fn attacker(kind_index: usize, banks: u32, intervals: u64) -> Attacker {
    let kind = match kind_index {
        0 => AttackKind::SingleSided {
            aggressor: RowAddr(100),
        },
        1 => AttackKind::DoubleSided {
            victim: RowAddr(200),
        },
        2 => AttackKind::Flooding { row: RowAddr(7) },
        3 => AttackKind::DecoyAssisted {
            victim: RowAddr(300),
            decoys: 12,
        },
        _ => AttackKind::MultiAggressorRamp {
            base_row: RowAddr(500),
            max_aggressors: 6,
        },
    };
    Attacker::new(AttackConfig {
        kind,
        target_banks: (0..banks).map(BankId).collect(),
        acts_per_interval: 24,
        start_interval: 2,
        intervals,
        ramp_hold_intervals: 8,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The benign workload's per-bank sub-streams partition its
    /// interleaved stream for any seed and bank count.
    #[test]
    fn workload_shards_partition_the_stream(
        seed in any::<u64>(),
        banks in 1u32..=8,
        target_events in 1usize..=256,
    ) {
        assert_partition(&|| Box::new(workload(banks, 24, seed)), banks, target_events);
    }

    /// Every attack pattern's shards partition its stream.
    #[test]
    fn attacker_shards_partition_the_stream(
        kind_index in 0usize..5,
        banks in 1u32..=6,
        target_events in 1usize..=256,
    ) {
        assert_partition(&|| Box::new(attacker(kind_index, banks, 32)), banks, target_events);
    }

    /// The mixed trace — workload plus attacker under a shared per-bank
    /// activation cap — shards exactly, including the dropped-event
    /// accounting's effect on what each bank keeps.
    #[test]
    fn mixed_trace_shards_partition_the_stream(
        seed in any::<u64>(),
        banks in 1u32..=6,
        kind_index in 0usize..5,
        cap in 8u32..48,
        target_events in 1usize..=256,
    ) {
        assert_partition(
            &|| {
                Box::new(MixedTrace::new(
                    vec![
                        Box::new(workload(banks, 24, seed)),
                        Box::new(attacker(kind_index, banks, 24)),
                    ],
                    cap,
                ))
            },
            banks,
            target_events,
        );
    }

    /// A mix of recordings whose intervals name banks in any order
    /// delivers exactly the reference mix's events, interval by
    /// interval, through both delivery paths, and drops what it drops,
    /// at caps small enough to bind.  The batched path is drained at
    /// one event per fill, at a few, and at the engine's default, and
    /// with the intervals per fill limited, and the two paths may take
    /// turns on one mix.
    #[test]
    fn mixed_replays_match_the_reference_merge(
        recordings in proptest::collection::vec(recorded(), 2..=3),
        cap in 1u32..=8,
        target_events in 1usize..=64,
        max_intervals in 1u64..=4,
    ) {
        let (expected, dropped) = model_mix(&recordings, cap);
        let mut mix = replay_mix(&recordings, cap);
        let mut delivered = Vec::new();
        let mut out = Vec::new();
        while mix.next_interval(&mut out) {
            delivered.push(std::mem::take(&mut out));
        }
        prop_assert_eq!(&delivered, &expected);
        prop_assert_eq!(mix.dropped(), dropped);
        for target in [1, 7, target_events, DEFAULT_BATCH_EVENTS] {
            let mut mix = replay_mix(&recordings, cap);
            prop_assert_eq!(&drain_batched(&mut mix, target), &expected);
            prop_assert_eq!(mix.dropped(), dropped);
        }
        // Fills of at most `max_intervals` intervals, alternating with
        // single intervals through `next_interval`.
        let mut mix = replay_mix(&recordings, cap);
        let mut batch = EventBatch::with_target_events(target_events);
        let mut delivered = Vec::new();
        loop {
            if !mix.next_batch(&mut batch, max_intervals) {
                break;
            }
            prop_assert!(batch.intervals() as u64 <= max_intervals);
            for interval in 0..batch.intervals() {
                delivered.push(batch.segment(interval).map(|i| batch.event(i)).collect());
            }
            out.clear();
            if !mix.next_interval(&mut out) {
                break;
            }
            delivered.push(out.clone());
        }
        prop_assert_eq!(&delivered, &expected);
        prop_assert_eq!(mix.dropped(), dropped);
    }

    /// Replayed traces shard by plain per-interval bank filtering.
    #[test]
    fn replay_shards_partition_the_stream(
        intervals in recorded(),
        target_events in 1usize..=64,
    ) {
        assert_partition(&|| Box::new(ReplayTrace::new(intervals.clone())), 4, target_events);
    }

    /// Clones and shards of one recording share it: a shard of a clone,
    /// a shard of a shard, and a shard of a partly consumed trace each
    /// replay their bank from interval 0.
    #[test]
    fn replay_shards_of_clones_shards_and_consumed_traces(
        intervals in recorded(),
        consumed in 0usize..24,
        target_events in 1usize..=64,
    ) {
        let trace = ReplayTrace::new(intervals);
        // Every clone's shards come from the lanes the first one built.
        assert_partition(&|| Box::new(trace.clone()), 4, target_events);
        let mut partly = trace.clone();
        let mut out = Vec::new();
        for _ in 0..consumed {
            partly.next_interval(&mut out);
        }
        for bank in (0..4).map(BankId) {
            let shard = drain_both(&|| trace.bank_shard(bank), target_events);
            assert_eq!(
                drain_both(&|| trace.bank_shard(bank).bank_shard(bank), target_events),
                shard,
                "re-sharding bank {bank:?} changed its stream"
            );
            for other in (0..6).map(BankId).filter(|&other| other != bank) {
                let idle = drain_both(&|| trace.bank_shard(bank).bank_shard(other), target_events);
                assert_eq!(idle.len(), shard.len(), "{bank:?} shard's {other:?} shard lost ticks");
                assert!(idle.iter().all(Vec::is_empty), "{bank:?} shard leaked into {other:?}");
            }
            assert_eq!(
                drain_both(&|| partly.bank_shard(bank), target_events),
                shard,
                "bank {bank:?} shard taken after {consumed} intervals must start at interval 0"
            );
        }
    }
}

#[test]
fn shard_of_untouched_bank_is_idle_but_ticks_every_interval() {
    // Attacker on bank 0 only; bank 3's shard must stay aligned.
    let source = attacker(2, 1, 40);
    let idle = drain(source.bank_shard(BankId(3)));
    assert_eq!(idle.len(), 40);
    assert!(idle.iter().all(Vec::is_empty));
}

#[test]
fn attacker_shards_keep_aggressor_labels() {
    let source = attacker(4, 4, 32);
    for bank in (0..4).map(BankId) {
        let shard = drain(source.bank_shard(bank));
        let events: Vec<&TraceEvent> = shard.iter().flatten().collect();
        assert!(!events.is_empty(), "targeted bank {bank:?} must see attack");
        assert!(events.iter().all(|e| e.aggressor && e.bank == bank));
    }
}

#[test]
fn shards_are_reproducible() {
    // Sharding is a pure function of configuration and bank: two shards
    // of the same fresh source are identical streams.
    let make = || {
        MixedTrace::new(
            vec![
                Box::new(workload(4, 24, 11)) as Box<dyn TraceSplit>,
                Box::new(attacker(4, 4, 24)),
            ],
            32,
        )
    };
    for bank in (0..4).map(BankId) {
        let a = drain(make().bank_shard(bank));
        let b = drain(make().bank_shard(bank));
        assert_eq!(a, b);
    }
}

#[test]
fn recordings_with_extreme_bank_ids_shard_and_mix() {
    // A recording read from outside may name any bank id; no lane or
    // merge may be a table indexed by it.
    let (low, high) = (BankId(0), BankId(u32::MAX));
    let recording = vec![
        vec![
            TraceEvent::benign(high, RowAddr(1)),
            TraceEvent::attack(low, RowAddr(2)),
            TraceEvent::benign(high, RowAddr(3)),
        ],
        vec![],
        vec![TraceEvent::attack(high, RowAddr(4))],
    ];
    let trace = ReplayTrace::new(recording.clone());
    for bank in [low, high] {
        let expected: Vec<Vec<TraceEvent>> = recording
            .iter()
            .map(|events| events.iter().filter(|e| e.bank == bank).copied().collect())
            .collect();
        for target_events in [1, 2, 64] {
            assert_eq!(
                drain_both(&|| trace.bank_shard(bank), target_events),
                expected,
                "{bank:?} shard"
            );
        }
    }
    let (expected, dropped) = model_mix(&[recording.clone(), recording.clone()], 3);
    for target_events in [1, 2, 64] {
        let mix = || Box::new(replay_mix(&[recording.clone(), recording.clone()], 3)) as _;
        assert_eq!(drain_both(&mix, target_events), expected);
    }
    let mut mix = replay_mix(&[recording.clone(), recording], 3);
    drain(&mut mix);
    assert_eq!(mix.dropped(), dropped);
}
