//! Golden stream digests: every generator's full event stream, hashed.
//!
//! The sharding suites prove sequential ≡ sharded; these pin "the same
//! stream as before".  Each digest is FNV-1a over every interval's events
//! (bank, row, aggressor label) plus an end-of-interval marker, so a
//! generator rewrite that changes any event, its order, or an interval
//! boundary changes the digest.  Change a value here only for a
//! deliberate stream change, and say why in the commit.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::{
    AttackConfig, AttackKind, Attacker, CoreBehavior, CpuWorkload, CpuWorkloadConfig, EventBatch,
    MixedTrace, SpecLikeWorkload, TraceEvent, TraceSource, TraceSplit, WorkloadConfig,
};

const SEED: u64 = 42;

/// FNV-1a over a stream, with event and interval counts for readable
/// failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    hash: u64,
    events: u64,
    intervals: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
            intervals: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn event(&mut self, event: TraceEvent) {
        self.bytes(&event.bank.0.to_le_bytes());
        self.bytes(&event.row.0.to_le_bytes());
        self.bytes(&[u8::from(event.aggressor)]);
        self.events += 1;
    }

    fn end_interval(&mut self) {
        self.bytes(&[0xff]);
        self.intervals += 1;
    }
}

/// Drains a source one interval at a time into `d`.
fn feed(d: &mut Digest, mut source: impl TraceSource) {
    let mut out = Vec::new();
    while {
        out.clear();
        source.next_interval(&mut out)
    } {
        for &event in &out {
            d.event(event);
        }
        d.end_interval();
    }
}

/// Drains a source through its batched delivery path into `d`, in the
/// same format as [`feed`], so both paths must agree with one value.
fn feed_batched(d: &mut Digest, mut source: impl TraceSource) {
    let mut batch = EventBatch::with_target_events(1000);
    while source.next_batch(&mut batch, u64::MAX) {
        for interval in 0..batch.intervals() {
            for i in batch.segment(interval) {
                d.event(batch.event(i));
            }
            d.end_interval();
        }
    }
}

/// Digest of a source drained one interval at a time.
fn digest(source: impl TraceSource) -> Digest {
    let mut d = Digest::new();
    feed(&mut d, source);
    d
}

/// Digest of a source drained through its batched delivery path.
fn batch_digest(source: impl TraceSource) -> Digest {
    let mut d = Digest::new();
    feed_batched(&mut d, source);
    d
}

/// Digest of bank shards `0..banks` of fresh sources from `make`, drained
/// one after another by `drain` into one stream.
fn shards_digest(
    make: &dyn Fn() -> Box<dyn TraceSplit>,
    banks: u32,
    drain: fn(&mut Digest, Box<dyn TraceSplit>),
) -> Digest {
    let mut d = Digest::new();
    for bank in (0..banks).map(BankId) {
        drain(&mut d, make().bank_shard(bank));
    }
    d
}

/// Holds a source from `make` to `whole` and its bank shards, drained in
/// bank order, to `shards`, each as `(hash, events, intervals)` and each
/// through both `next_interval` and `next_batch`.
fn assert_every_path(
    name: &str,
    make: &dyn Fn() -> Box<dyn TraceSplit>,
    banks: u32,
    whole: (u64, u64, u64),
    shards: (u64, u64, u64),
) {
    let (hash, events, intervals) = whole;
    assert_digest(name, digest(make()), hash, events, intervals);
    assert_digest(name, batch_digest(make()), hash, events, intervals);
    let (hash, events, intervals) = shards;
    let shards = |drain| shards_digest(make, banks, drain);
    assert_digest(name, shards(feed), hash, events, intervals);
    assert_digest(name, shards(feed_batched), hash, events, intervals);
}

fn assert_digest(name: &str, got: Digest, hash: u64, events: u64, intervals: u64) {
    assert_eq!(
        got,
        Digest {
            hash,
            events,
            intervals
        },
        "{name}: stream changed (got hash {:#018x}, {} events, {} intervals)",
        got.hash,
        got.events,
        got.intervals
    );
}

fn speclike(banks: u32) -> SpecLikeWorkload {
    let geometry = Geometry::scaled_down(64).with_banks(banks);
    SpecLikeWorkload::new(WorkloadConfig::paper(&geometry), SEED)
}

#[test]
fn speclike_one_bank() {
    assert_digest(
        "speclike/1",
        digest(speclike(1)),
        0x286d2f945a6700a0,
        57240,
        2048,
    );
}

#[test]
fn speclike_four_banks() {
    assert_digest(
        "speclike/4",
        digest(speclike(4)),
        0x3f18d6917a1d4159,
        229345,
        2048,
    );
}

#[test]
fn speclike_wide_hot_set() {
    // 40 hot rows: past the small-table sampler, onto the guide table.
    let mut config = WorkloadConfig::paper(&Geometry::scaled_down(16)).with_intervals(600);
    config.hot_rows = 40;
    config.locality = 0.7;
    config.phase_intervals = 100;
    assert_digest(
        "speclike/wide",
        digest(SpecLikeWorkload::new(config, SEED)),
        0xf47bbb3081c35965,
        16790,
        600,
    );
}

/// 3 banks of 1 000 rows, a bank size that is not a power of two (every
/// other golden's is), with a hot set of `hot_rows` on the small-table
/// Zipf sampler.
fn odd_bank(hot_rows: usize, locality: f64) -> WorkloadConfig {
    let mut config =
        WorkloadConfig::paper(&Geometry::scaled_down(64).with_banks(3)).with_intervals(300);
    config.rows_per_bank = 1000;
    config.hot_rows = hot_rows;
    config.locality = locality;
    config.phase_intervals = 100;
    config
}

#[test]
fn speclike_odd_bank() {
    assert_every_path(
        "speclike/odd",
        &|| Box::new(SpecLikeWorkload::new(odd_bank(12, 0.9), SEED)),
        3,
        (0xc6f3c8213916d25e, 25102, 300),
        (0x3022b2792e5eb830, 25102, 900),
    );
}

#[test]
fn speclike_always_hot() {
    // A locality of 1 draws no locality word at all.
    assert_every_path(
        "speclike/always-hot",
        &|| Box::new(SpecLikeWorkload::new(odd_bank(32, 1.0), SEED)),
        3,
        (0x87ebd338003a1456, 24949, 300),
        (0xcd38a498b4ca979e, 24949, 900),
    );
}

fn attack(kind: AttackKind) -> Attacker {
    Attacker::new(AttackConfig {
        kind,
        target_banks: vec![BankId(0), BankId(2)],
        // Prime, so the rotation carries across intervals.
        acts_per_interval: 23,
        start_interval: 5,
        intervals: 300,
        ramp_hold_intervals: 16,
    })
}

#[test]
fn attacker_every_kind() {
    let cases: [(&str, AttackKind, u64, u64, u64); 8] = [
        (
            "single-sided",
            AttackKind::SingleSided {
                aggressor: RowAddr(100),
            },
            0xe2e687a261f3d36d,
            13570,
            300,
        ),
        (
            "double-sided",
            AttackKind::DoubleSided {
                victim: RowAddr(200),
            },
            0x80fe903a9a42ff93,
            13570,
            300,
        ),
        (
            "ramp",
            AttackKind::MultiAggressorRamp {
                base_row: RowAddr(500),
                max_aggressors: 7,
            },
            0x3df5fd6a4544e857,
            13570,
            300,
        ),
        (
            "flooding",
            AttackKind::Flooding { row: RowAddr(7) },
            0x4e4075bc6a6f02a3,
            13570,
            300,
        ),
        (
            "decoy",
            AttackKind::DecoyAssisted {
                victim: RowAddr(300),
                decoys: 3,
            },
            0xffdcff89a3ea3a35,
            13570,
            300,
        ),
        (
            "phase-shifted",
            AttackKind::PhaseShifted {
                base_row: RowAddr(400),
                max_aggressors: 5,
                shift_intervals: 32,
            },
            0xb521eb21bc71cc03,
            13570,
            300,
        ),
        (
            "profiling-sweep",
            AttackKind::ProfilingSweep {
                base_row: RowAddr(50),
                span_rows: 7,
                dwell_intervals: 3,
            },
            0x56bd1b7b636f715b,
            13570,
            300,
        ),
        (
            "burst",
            AttackKind::RefreshSyncBurst {
                base_row: RowAddr(600),
                pairs: 3,
                duty_intervals: 4,
                period_intervals: 10,
                phase: 2,
            },
            0x92b50e87c725e955,
            5474,
            300,
        ),
    ];
    let changed: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, kind, hash, events, intervals)| {
            let got = digest(attack(kind));
            (got != Digest {
                hash,
                events,
                intervals,
            })
            .then(|| {
                format!(
                    "{name}: {:#018x}, {} events, {} intervals",
                    got.hash, got.events, got.intervals
                )
            })
        })
        .collect();
    assert!(
        changed.is_empty(),
        "attack streams changed:\n{}",
        changed.join("\n")
    );
}

#[test]
fn cpu_workload_paper() {
    let config = CpuWorkloadConfig::paper(&Geometry::paper(), 256);
    assert_digest(
        "cpu/paper",
        digest(CpuWorkload::new(config, SEED)),
        0xfe76fed15aff9e84,
        38601,
        256,
    );
}

#[test]
fn cpu_workload_one_bank_custom_cores() {
    let config = CpuWorkloadConfig {
        cores: vec![
            CoreBehavior::WorkingSet {
                lines: 40_000,
                zipf_exponent: 0.7,
            },
            CoreBehavior::WorkingSet {
                lines: 20,
                zipf_exponent: 1.3,
            },
            CoreBehavior::Streaming { length_lines: 5000 },
            CoreBehavior::Attacker {
                aggressor_rows: 3,
                base_row: 100,
            },
        ],
        ..CpuWorkloadConfig::paper(&Geometry::scaled_down(64), 300)
    };
    assert_digest(
        "cpu/custom",
        digest(CpuWorkload::new(config, SEED)),
        0x14f33160212557ab,
        48428,
        300,
    );
}

/// The paper mix at a scaled-down geometry: benign traffic plus the
/// 1→20 ramp re-based into the bank, under the DDR4 cap of 165.
fn paper_mix(banks: u32) -> MixedTrace {
    let geometry = Geometry::scaled_down(64).with_banks(banks);
    let ipw = u64::from(geometry.intervals_per_window());
    let intervals = 4 * ipw;
    let workload = SpecLikeWorkload::new(
        WorkloadConfig::paper(&geometry).with_intervals(intervals),
        SEED,
    );
    let mut ramp = AttackConfig::paper_ramp(banks, intervals, ipw);
    ramp.kind = AttackKind::MultiAggressorRamp {
        base_row: RowAddr(geometry.rows_per_bank() * 30_000 / 65_536),
        max_aggressors: 20,
    };
    MixedTrace::new(vec![Box::new(workload), Box::new(Attacker::new(ramp))], 165)
}

fn flooding_mix() -> MixedTrace {
    let geometry = Geometry::scaled_down(64);
    let intervals = 4 * u64::from(geometry.intervals_per_window());
    let workload = SpecLikeWorkload::new(
        WorkloadConfig::paper(&geometry).with_intervals(intervals),
        SEED,
    );
    let flood = AttackConfig::flooding(RowAddr(geometry.rows_per_bank() / 2), intervals);
    MixedTrace::new(
        vec![Box::new(workload), Box::new(Attacker::new(flood))],
        165,
    )
}

/// Nine sources: more than the merge keeps cursors for on the stack.
fn wide_mix() -> MixedTrace {
    let geometry = Geometry::scaled_down(64).with_banks(2);
    let mut sources: Vec<Box<dyn TraceSplit>> = Vec::new();
    for s in 0..9u32 {
        if s % 3 == 0 {
            let config = WorkloadConfig::paper(&geometry).with_intervals(200);
            sources.push(Box::new(SpecLikeWorkload::new(config, SEED + u64::from(s))));
        } else {
            sources.push(Box::new(Attacker::new(AttackConfig {
                kind: AttackKind::DoubleSided {
                    victim: RowAddr(10 * s + 1),
                },
                target_banks: vec![BankId(s % 2)],
                acts_per_interval: 5 + s,
                start_interval: u64::from(s),
                intervals: 150 + 10 * u64::from(s),
                ramp_hold_intervals: 0,
            })));
        }
    }
    MixedTrace::new(sources, 40)
}

#[test]
fn mixed_paper_one_bank() {
    let (hash, events, intervals) = (0x3f4486b056decea1, 26576, 512);
    assert_digest("mix/paper/1", digest(paper_mix(1)), hash, events, intervals);
    assert_digest(
        "mix/paper/1 batched",
        batch_digest(paper_mix(1)),
        hash,
        events,
        intervals,
    );
}

#[test]
fn mixed_paper_four_banks() {
    let (hash, events, intervals) = (0x33404d9ba6db9b04, 106501, 512);
    assert_digest("mix/paper/4", digest(paper_mix(4)), hash, events, intervals);
    assert_digest(
        "mix/paper/4 batched",
        batch_digest(paper_mix(4)),
        hash,
        events,
        intervals,
    );
}

#[test]
fn mixed_flooding() {
    let (hash, events, intervals) = (0x85eb5a3aa6bfab2b, 83394, 512);
    assert_digest(
        "mix/flooding",
        digest(flooding_mix()),
        hash,
        events,
        intervals,
    );
    assert_digest(
        "mix/flooding batched",
        batch_digest(flooding_mix()),
        hash,
        events,
        intervals,
    );
}

#[test]
fn mixed_nine_sources() {
    let (hash, events, intervals) = (0x1166c6b9862146f5, 16630, 230);
    assert_digest("mix/nine", digest(wide_mix()), hash, events, intervals);
    assert_digest(
        "mix/nine batched",
        batch_digest(wide_mix()),
        hash,
        events,
        intervals,
    );
}

/// The odd-bank workload mixed with a ramp on banks 0 and 2 under a cap
/// that binds, so bank 1 merges one source and the others two.
fn odd_mix(hot_rows: usize, locality: f64) -> Box<dyn TraceSplit> {
    let workload = SpecLikeWorkload::new(odd_bank(hot_rows, locality), SEED);
    let ramp = Attacker::new(AttackConfig {
        kind: AttackKind::MultiAggressorRamp {
            base_row: RowAddr(300),
            max_aggressors: 20,
        },
        target_banks: vec![BankId(0), BankId(2)],
        acts_per_interval: 30,
        start_interval: 10,
        intervals: 280,
        ramp_hold_intervals: 12,
    });
    Box::new(MixedTrace::new(
        vec![Box::new(workload), Box::new(ramp)],
        50,
    ))
}

#[test]
fn mixed_odd_bank() {
    assert_every_path(
        "mix/odd",
        &|| odd_mix(12, 0.9),
        3,
        (0xbf5f93b4028ea85d, 36928, 300),
        (0x3023b0a4f98f797b, 36928, 900),
    );
}

#[test]
fn mixed_always_hot() {
    assert_every_path(
        "mix/always-hot",
        &|| odd_mix(32, 1.0),
        3,
        (0xa5b75e12e3d4e07f, 36896, 300),
        (0x1d07dc8f4137b351, 36896, 900),
    );
}
