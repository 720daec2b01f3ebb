//! MRLoc (You & Yang, DAC 2019 — "MRLoc: Mitigating Row-hammering based
//! on memory Locality").
//!
//! MRLoc refines PARA with *memory locality*: a per-bank FIFO queue
//! remembers recently seen victim candidates (the neighbors of activated
//! rows).  When a victim candidate reappears, the trigger probability is
//! weighted by how recently it was last seen — victims of rows hammered
//! in tight loops (the row-hammer signature) get near-maximal
//! probability, while victims of well-spread benign traffic stay near the
//! minimum.  As the paper notes, MRLoc "slightly reduces the false
//! positive rate but ends up with a higher or equal number of extra
//! activations compared to PARA" and stays vulnerable to the same
//! adaptive patterns.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::EventBatch;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use tivapromi::{ActionSink, BankRngs, Mitigation, MitigationAction};

/// Configuration of an [`MrLoc`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MrLocConfig {
    /// Number of banks.
    pub banks: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Queue entries per bank.
    pub queue_entries: usize,
    /// Probability for a victim at the *newest* queue position; scales
    /// down linearly with queue age.
    pub max_probability: f64,
    /// Probability for a victim not present in the queue.
    pub min_probability: f64,
}

impl MrLocConfig {
    /// The DAC 2019-style configuration calibrated against the paper's
    /// Table III: overhead at or slightly above PARA's (0.11 % vs
    /// 0.1 %) with a slightly smaller false-positive share.
    pub fn paper(geometry: &Geometry) -> Self {
        MrLocConfig {
            banks: geometry.banks(),
            rows_per_bank: geometry.rows_per_bank(),
            queue_entries: 64,
            max_probability: 0.0011,
            min_probability: 0.0002,
        }
    }
}

/// Slots in a [`QueueFilter`]; a power of two so the hash is a mask.
const FILTER_SLOTS: usize = 1024;

/// Per-bank counting membership filter over the victim queue: slot
/// `row mod FILTER_SLOTS` counts the queued rows hashing there, so a
/// zero slot *proves* the row is absent.  The lane kernel uses that
/// proof to skip the queue scan for the dominant miss case; a colliding
/// nonzero slot merely falls back to the scan the unfiltered path would
/// have paid anyway, so decisions never change.  `u16` counts cannot
/// overflow: [`MrLoc::new`] bounds the queue (every queued row holds
/// one count) to `u16::MAX` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct QueueFilter(Box<[u16; FILTER_SLOTS]>);

impl QueueFilter {
    fn new() -> Self {
        QueueFilter(Box::new([0; FILTER_SLOTS]))
    }

    #[inline]
    fn slot(row: RowAddr) -> usize {
        row.0 as usize & (FILTER_SLOTS - 1)
    }

    #[inline]
    fn add(&mut self, row: RowAddr) {
        self.0[Self::slot(row)] += 1;
    }

    #[inline]
    fn remove(&mut self, row: RowAddr) {
        self.0[Self::slot(row)] -= 1;
    }

    /// `false` is definitive absence; `true` means "scan the queue".
    #[inline]
    fn may_contain(&self, row: RowAddr) -> bool {
        self.0[Self::slot(row)] != 0
    }
}

/// The MRLoc mitigation.
///
/// ```
/// use rh_baselines::MrLoc;
/// use tivapromi::Mitigation;
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let mut mrloc = MrLoc::paper(&Geometry::paper(), 11);
/// let mut actions = Vec::new();
/// for _ in 0..200_000 {
///     mrloc.on_activate(BankId(0), RowAddr(4000), &mut actions);
/// }
/// // A hammered row's victims stay at the queue head → near-max p.
/// assert!(!actions.is_empty());
/// assert!(actions.iter().all(|a| a.row().0 == 3999 || a.row().0 == 4001));
/// ```
#[derive(Debug)]
pub struct MrLoc {
    config: MrLocConfig,
    /// Per-bank victim queue; front = newest.
    queues: Vec<VecDeque<RowAddr>>,
    /// Per-bank membership filters mirroring `queues` — every mutation
    /// path keeps them coherent so the kernel's scan skip stays sound.
    filters: Vec<QueueFilter>,
    rngs: BankRngs,
}

impl MrLoc {
    /// Creates MRLoc from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the queue size is zero or the probabilities are not in
    /// `[0, 1]` with `min ≤ max`.
    pub fn new(config: MrLocConfig, seed: u64) -> Self {
        assert!(config.queue_entries > 0, "queue must be nonempty");
        assert!(
            config.queue_entries <= usize::from(u16::MAX),
            "queue must fit the membership filter's u16 counts"
        );
        assert!(
            (0.0..=1.0).contains(&config.max_probability)
                && (0.0..=1.0).contains(&config.min_probability)
                && config.min_probability <= config.max_probability,
            "probabilities must satisfy 0 ≤ min ≤ max ≤ 1"
        );
        MrLoc {
            queues: (0..config.banks).map(|_| VecDeque::new()).collect(),
            filters: (0..config.banks).map(|_| QueueFilter::new()).collect(),
            rngs: BankRngs::with_banks(seed, config.banks),
            config,
        }
    }

    /// The paper-calibrated configuration (see [`MrLocConfig::paper`]).
    pub fn paper(geometry: &Geometry, seed: u64) -> Self {
        MrLoc::new(MrLocConfig::paper(geometry), seed)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MrLocConfig {
        &self.config
    }

    fn handle_victim(
        &mut self,
        bank: BankId,
        victim: RowAddr,
        actions: &mut Vec<MitigationAction>,
    ) {
        let queue = &mut self.queues[bank.index()];
        let filter = &mut self.filters[bank.index()];
        if victim_fires(queue, filter, self.rngs.get(bank), &self.config, victim) {
            actions.push(MitigationAction::RefreshRow { bank, row: victim });
        }
    }
}

/// Re-inserts `victim` at the queue front given its scan result, keeps
/// the membership filter coherent, and draws — the shared tail of both
/// decision paths.  A found victim moves without a net filter change
/// (one removal, one re-insertion); a miss adds it and removes whatever
/// the bounded queue evicts.
#[inline]
fn requeue_and_draw(
    queue: &mut VecDeque<RowAddr>,
    filter: &mut QueueFilter,
    rng: &mut StdRng,
    config: &MrLocConfig,
    victim: RowAddr,
    position: Option<usize>,
    probability: f64,
) -> bool {
    if let Some(pos) = position {
        queue.remove(pos);
    } else {
        filter.add(victim);
    }
    queue.push_front(victim);
    if queue.len() > config.queue_entries {
        let evicted = *queue.back().expect("queue was just pushed to");
        filter.remove(evicted);
        queue.truncate(config.queue_entries);
    }

    rng.random_bool(probability)
}

/// One victim-candidate lookup: computes the locality-weighted
/// probability, updates the queue, and draws.  Shared by the scalar
/// path and the lane kernel so both consume the per-bank stream
/// identically (one word per candidate).
fn victim_fires(
    queue: &mut VecDeque<RowAddr>,
    filter: &mut QueueFilter,
    rng: &mut StdRng,
    config: &MrLocConfig,
    victim: RowAddr,
) -> bool {
    // Weighted probability: age 0 (front) → max; beyond the queue →
    // min.
    let probability = match queue.iter().position(|&r| r == victim) {
        Some(age) => {
            let span = config.max_probability - config.min_probability;
            let weight = 1.0 - age as f64 / config.queue_entries as f64;
            config.min_probability + span * weight
        }
        None => config.min_probability,
    };
    // Re-insert the victim at the front (most recent), deduplicated —
    // the paper's two-step formulation, scanning again for the dedup.
    let position = queue.iter().position(|&r| r == victim);
    requeue_and_draw(queue, filter, rng, config, victim, position, probability)
}

/// Kernel-path victim decision: behaviorally identical to
/// [`victim_fires`] — same probability formula, same queue mutations,
/// same single stream draw — but engineered around the scans that
/// dominate MRLoc's per-event cost.  The membership filter rejects the
/// dominant miss case without touching the queue; a possible hit pays
/// *one* merged scan (age lookup and dedup position search for the same
/// victim) over the deque's contiguous slices.  The scalar reference
/// keeps the paper's two-step formulation.
fn victim_fires_merged(
    queue: &mut VecDeque<RowAddr>,
    filter: &mut QueueFilter,
    rng: &mut StdRng,
    config: &MrLocConfig,
    victim: RowAddr,
) -> bool {
    let position = if filter.may_contain(victim) {
        let (front, back) = queue.as_slices();
        front.iter().position(|&r| r == victim).or_else(
            // Same index space as `queue.iter().position`: the back
            // slice continues where the front slice ends.
            || {
                back.iter()
                    .position(|&r| r == victim)
                    .map(|p| p + front.len())
            },
        )
    } else {
        None
    };
    let probability = match position {
        Some(age) => {
            let span = config.max_probability - config.min_probability;
            let weight = 1.0 - age as f64 / config.queue_entries as f64;
            config.min_probability + span * weight
        }
        None => config.min_probability,
    };
    requeue_and_draw(queue, filter, rng, config, victim, position, probability)
}

impl Mitigation for MrLoc {
    fn name(&self) -> &str {
        "MRLoc"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        // MRLoc assumes neighbors are row±1 (the paper criticises exactly
        // this assumption in §II — remapped rows escape it).
        if row.0 > 0 {
            self.handle_victim(bank, RowAddr(row.0 - 1), actions);
        }
        if row.0 + 1 < self.config.rows_per_bank {
            self.handle_victim(bank, RowAddr(row.0 + 1), actions);
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the trigger probability depends on the queue
        // state at each candidate, so the draws cannot be prefetched —
        // instead the queue, filter and stream lookups are hoisted once
        // per bank run, the kernel walks the row column directly, and
        // each candidate pays a filter probe plus at most one merged
        // queue scan ([`victim_fires_merged`]) instead of the reference
        // path's two scans.
        let rows_per_bank = self.config.rows_per_bank;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let queue = &mut self.queues[bank.index()];
            let filter = &mut self.filters[bank.index()];
            let rng = self.rngs.get(bank);
            for i in run {
                let row = rows[i];
                if row.0 > 0 {
                    let victim = RowAddr(row.0 - 1);
                    if victim_fires_merged(queue, &mut *filter, &mut *rng, &self.config, victim) {
                        sink.push(i as u32, MitigationAction::RefreshRow { bank, row: victim });
                    }
                }
                if row.0 + 1 < rows_per_bank {
                    let victim = RowAddr(row.0 + 1);
                    if victim_fires_merged(queue, &mut *filter, &mut *rng, &self.config, victim) {
                        sink.push(i as u32, MitigationAction::RefreshRow { bank, row: victim });
                    }
                }
            }
        }
    }

    fn on_refresh_interval(&mut self, _actions: &mut Vec<MitigationAction>) {}

    fn storage_bits_per_bank(&self) -> u64 {
        let row_bits = u64::from(u32::BITS - (self.config.rows_per_bank - 1).leading_zeros());
        self.config.queue_entries as u64 * (row_bits + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mrloc() -> MrLoc {
        MrLoc::paper(&Geometry::paper().with_banks(1), 5)
    }

    #[test]
    fn queue_keeps_most_recent_victims() {
        let mut m = mrloc();
        let mut actions = Vec::new();
        m.on_activate(BankId(0), RowAddr(100), &mut actions);
        assert_eq!(m.queues[0].front(), Some(&RowAddr(101)));
        assert!(m.queues[0].contains(&RowAddr(99)));
    }

    #[test]
    fn queue_is_bounded_and_deduplicated() {
        let mut m = mrloc();
        let mut actions = Vec::new();
        for r in 0..200u32 {
            m.on_activate(BankId(0), RowAddr(1 + r % 80), &mut actions);
        }
        assert!(m.queues[0].len() <= m.config.queue_entries);
        let mut sorted: Vec<_> = m.queues[0].iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), m.queues[0].len(), "duplicates in queue");
    }

    #[test]
    fn hammering_gets_higher_rate_than_scattered_access() {
        let trials = 300_000;
        let mut hammer = mrloc();
        let mut actions = Vec::new();
        for _ in 0..trials {
            hammer.on_activate(BankId(0), RowAddr(4000), &mut actions);
        }
        let hammer_triggers = actions.len();

        let mut scattered = mrloc();
        let mut actions = Vec::new();
        for i in 0..trials {
            scattered.on_activate(BankId(0), RowAddr(10 + (i * 97) % 50_000), &mut actions);
        }
        let scattered_triggers = actions.len();

        assert!(
            hammer_triggers as f64 > 2.0 * scattered_triggers as f64,
            "hammer {hammer_triggers} vs scattered {scattered_triggers}"
        );
    }

    #[test]
    fn overall_rate_is_para_class() {
        // Hammered traffic should trigger near 2 · max_probability per
        // activation (both victims at the queue head).
        let mut m = mrloc();
        let mut actions = Vec::new();
        let trials = 500_000;
        for _ in 0..trials {
            m.on_activate(BankId(0), RowAddr(4000), &mut actions);
        }
        let rate = actions.len() as f64 / trials as f64;
        let expected = 2.0 * m.config.max_probability;
        assert!((rate - expected).abs() < expected * 0.3, "rate {rate}");
    }

    #[test]
    fn storage_is_hundreds_of_bytes() {
        let m = mrloc();
        let bytes = m.storage_bytes_per_bank();
        assert!(bytes > 50.0 && bytes < 500.0, "got {bytes}");
    }

    #[test]
    fn batched_kernel_matches_scalar_path() {
        use mem_trace::TraceEvent;
        // High probabilities so the assertion compares real triggers.
        let mut cfg = MrLocConfig::paper(&Geometry::paper().with_banks(3));
        cfg.max_probability = 0.6;
        cfg.min_probability = 0.2;
        let mut kernel = MrLoc::new(cfg, 13);
        let mut scalar = MrLoc::new(cfg, 13);

        let mut events = Vec::new();
        for i in 0..512u32 {
            events.push(TraceEvent::benign(BankId(i % 3), RowAddr(200 + i % 13)));
        }
        let mut batch = EventBatch::new();
        batch.push_interval(&events);
        let mut sink = ActionSink::new();
        kernel.on_batch(&batch, batch.segment(0), &mut sink);

        let mut expected = Vec::new();
        for e in &events {
            scalar.on_activate(e.bank, e.row, &mut expected);
        }
        let mut drained = Vec::new();
        for tag in 0..u32::try_from(events.len()).expect("fits") {
            while let Some(a) = sink.next_for(tag) {
                drained.push(a);
            }
        }
        assert_eq!(drained, expected);
        assert!(!drained.is_empty());
        assert_eq!(kernel.queues, scalar.queues);
        assert_eq!(kernel.filters, scalar.filters);
    }

    #[test]
    fn filter_mirrors_queue_membership() {
        // After arbitrary mixed traffic — churn past the queue bound,
        // repeats, both decision paths — every filter slot must count
        // exactly the queued rows hashing there, including rows whose
        // addresses collide modulo the filter size.
        let mut m = MrLoc::paper(&Geometry::paper().with_banks(2), 7);
        let mut actions = Vec::new();
        for i in 0..5000u32 {
            let row = RowAddr(1 + (i * 37) % 3000);
            m.on_activate(BankId(i % 2), row, &mut actions);
        }
        use mem_trace::TraceEvent;
        let events: Vec<TraceEvent> = (0..512)
            .map(|i| TraceEvent::benign(BankId(i % 2), RowAddr(1 + (i * 13) % 2100)))
            .collect();
        let mut batch = EventBatch::new();
        batch.push_interval(&events);
        let mut sink = ActionSink::new();
        m.on_batch(&batch, batch.segment(0), &mut sink);

        for (queue, filter) in m.queues.iter().zip(&m.filters) {
            let mut expected = QueueFilter::new();
            for &row in queue {
                expected.add(row);
            }
            assert_eq!(filter, &expected);
        }
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn min_above_max_rejected() {
        let mut cfg = MrLocConfig::paper(&Geometry::paper());
        cfg.min_probability = 0.5;
        cfg.max_probability = 0.1;
        let _ = MrLoc::new(cfg, 1);
    }
}
