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
//!
//! ## The lane kernel reads the queue only when a draw can fire
//!
//! Every victim candidate draws one stream word and fires when
//! `(word >> 11) < draw::threshold(p)`, where `p` falls with the
//! candidate's queue age.  A word at or above the bound of the largest
//! probability cannot fire at any age.  So the kernel draws an
//! activation's words first, and when none can fire it only appends the
//! activated row to a per-bank touch log — about 998 activations in 1000
//! at the paper's probabilities.  When a word passes the bound, or the
//! log fills, the queue is brought up to date (the logged victims by last
//! touch, then the old queue's untouched rows, cut to `queue_entries`)
//! and the activation is decided on it as the eager path decides it.
//! Three facts keep every decision, queue and stream position equal to
//! the eager path:
//!
//! - **Bound.**  The probability is monotone in age, so its age-0 value
//!   is the largest, and `draw::threshold` is monotone and exact; a word
//!   at or above the age-0 bound fails the gate at every age.
//! - **Stream.**  [`MrLoc::new`] requires `0 < min ≤ max < 1`, where
//!   `random_bool` always consumes exactly one word, so drawing before
//!   the age is known moves no stream position.
//! - **Replay.**  An untouched row only ever moves back in a
//!   move-to-front queue, so cutting the queue once after the log equals
//!   cutting it after every touch.
//!
//! [`Mitigation::on_activate`] stays the eager reference: it scans and
//! requeues every candidate.

use dram_sim::{BankId, Geometry, RowAddr};
use mem_trace::EventBatch;
use rand::{RngCore, RngExt};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tivapromi::{draw, ActionSink, BankRngs, Mitigation, MitigationAction};

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

    /// The locality-weighted trigger probability of a victim at queue
    /// position `age` (0 = newest; `None` = not queued).  It never grows
    /// with age, so `Some(0)` gives the largest value.
    fn probability(&self, age: Option<usize>) -> f64 {
        match age {
            Some(age) => {
                let span = self.max_probability - self.min_probability;
                let weight = 1.0 - age as f64 / self.queue_entries as f64;
                self.min_probability + span * weight
            }
            None => self.min_probability,
        }
    }
}

/// Activations the lane kernel logs per bank before it brings the
/// queue up to date: 2 KiB per bank.
const LOG_ENTRIES: usize = 512;

/// The victim candidates of an activation of `row`, in decision order:
/// the row below, then the row above, each if the bank has it.  MRLoc
/// assumes neighbors are row±1 (the paper criticises exactly this
/// assumption in §II — remapped rows escape it).
fn victims(row: RowAddr, rows_per_bank: u32) -> [Option<RowAddr>; 2] {
    [
        (row.0 > 0).then(|| RowAddr(row.0 - 1)),
        (row.0 + 1 < rows_per_bank).then(|| RowAddr(row.0 + 1)),
    ]
}

/// One bank's victim queue and the lane kernel's touch log.
#[derive(Debug, PartialEq, Eq)]
struct VictimQueue {
    /// Queued victims, newest first.
    rows: Vec<RowAddr>,
    /// Activated rows whose victims are not yet moved to the front,
    /// oldest first.
    log: Vec<RowAddr>,
}

impl VictimQueue {
    fn new(entries: usize) -> Self {
        VictimQueue {
            rows: Vec::with_capacity(entries),
            log: Vec::with_capacity(LOG_ENTRIES),
        }
    }

    /// The eager decision: reads the victim's age, moves it to the front
    /// (evicting the oldest row of a full queue) and returns the
    /// probability to draw against.
    fn touch(&mut self, victim: RowAddr, config: &MrLocConfig) -> f64 {
        let age = self.rows.iter().position(|&r| r == victim);
        match age {
            Some(age) => self.rows[..=age].rotate_right(1),
            None => {
                if self.rows.len() == config.queue_entries {
                    self.rows.pop();
                }
                self.rows.insert(0, victim);
            }
        }
        config.probability(age)
    }

    /// Logs an activation of `row` whose draws cannot fire.
    #[inline]
    fn defer(&mut self, row: RowAddr, rebuild: &mut Rebuild, config: &MrLocConfig) {
        self.log.push(row);
        if self.log.len() == LOG_ENTRIES {
            self.apply_log(rebuild, config);
        }
    }

    /// Applies the log as if each activation's victims had been moved to
    /// the front in turn: the logged victims by last touch, newest first,
    /// then the old queue's untouched rows, cut to `queue_entries`.  The
    /// walk goes newest first, so an activation older than one of the
    /// same row finds both its victims placed and is skipped.
    fn apply_log(&mut self, rebuild: &mut Rebuild, config: &MrLocConfig) {
        if self.log.is_empty() {
            return;
        }
        let entries = config.queue_entries;
        rebuild.placed.clear();
        rebuild.walked.clear();
        'log: for &row in self.log.iter().rev() {
            if !rebuild.walked.insert(row) {
                continue;
            }
            for victim in victims(row, config.rows_per_bank)
                .into_iter()
                .rev()
                .flatten()
            {
                if rebuild.rows.len() == entries {
                    break 'log;
                }
                rebuild.place(victim);
            }
        }
        for &row in &self.rows {
            if rebuild.rows.len() == entries {
                break;
            }
            rebuild.place(row);
        }
        std::mem::swap(&mut self.rows, &mut rebuild.rows);
        rebuild.rows.clear();
        self.log.clear();
    }
}

/// An open-addressed set of rows that empties in O(1): a slot is live
/// when its stamp is the current one.
#[derive(Debug)]
struct RowSet {
    slots: Vec<(RowAddr, u32)>,
    stamp: u32,
    /// Fibonacci-hash shift: keeps the top `log2(slots.len())` bits.
    shift: u32,
}

impl RowSet {
    /// A set for at most `rows` rows between clears; twice as many slots
    /// keep the probes short.
    fn new(rows: usize) -> Self {
        let slots = (2 * rows).next_power_of_two();
        RowSet {
            slots: vec![(RowAddr(0), 0); slots],
            stamp: 1,
            shift: u32::BITS - slots.trailing_zeros(),
        }
    }

    fn clear(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill((RowAddr(0), 0));
            self.stamp = 1;
        }
    }

    /// Adds `row`; returns whether it was absent.
    #[inline]
    fn insert(&mut self, row: RowAddr) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (row.0.wrapping_mul(0x9E37_79B9) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.1 != self.stamp {
                *slot = (row, self.stamp);
                return true;
            }
            if slot.0 == row {
                return false;
            }
            i = (i + 1) & mask;
        }
    }
}

/// The buffers [`VictimQueue::apply_log`] rebuilds a queue in.
#[derive(Debug)]
struct Rebuild {
    /// The new queue.
    rows: Vec<RowAddr>,
    /// The rows in `rows`.
    placed: RowSet,
    /// The logged rows already walked: a later activation of a row has
    /// already placed both its victims.
    walked: RowSet,
}

impl Rebuild {
    fn new(entries: usize) -> Self {
        Rebuild {
            rows: Vec::with_capacity(entries),
            placed: RowSet::new(entries),
            // A walked row places a victim (at most `entries` do) or
            // finds its victims placed: its lower one, which bounds such
            // rows by `entries`, or, for row 0, row 1.
            walked: RowSet::new(2 * entries + 1),
        }
    }

    /// Appends `row` to the new queue unless it is already there.
    #[inline]
    fn place(&mut self, row: RowAddr) {
        if self.placed.insert(row) {
            self.rows.push(row);
        }
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
    queues: Vec<VictimQueue>,
    rebuild: Rebuild,
    /// `draw::threshold` of the age-0 probability: a word at or above it
    /// cannot fire at any queue age.
    bound: u64,
    rngs: BankRngs,
}

impl MrLoc {
    /// Creates MRLoc from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the queue size is zero or the probabilities do not
    /// satisfy `0 < min ≤ max < 1`.  At 0 or 1 `random_bool` decides
    /// without drawing, so the number of stream words used would depend
    /// on queue age, and the lane kernel, which draws before it knows
    /// the age, would shift the stream.
    pub fn new(config: MrLocConfig, seed: u64) -> Self {
        assert!(config.queue_entries > 0, "queue must be nonempty");
        assert!(
            0.0 < config.min_probability
                && config.min_probability <= config.max_probability
                && config.max_probability < 1.0,
            "probabilities must satisfy 0 < min ≤ max < 1: at 0 or 1 a draw uses no \
             stream word, so stream positions would depend on queue age"
        );
        MrLoc {
            queues: (0..config.banks)
                .map(|_| VictimQueue::new(config.queue_entries))
                .collect(),
            rebuild: Rebuild::new(config.queue_entries),
            bound: draw::threshold(config.probability(Some(0))),
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
        // Activations a lane kernel left in the log come first.
        queue.apply_log(&mut self.rebuild, &self.config);
        let probability = queue.touch(victim, &self.config);
        if self.rngs.get(bank).random_bool(probability) {
            actions.push(MitigationAction::RefreshRow { bank, row: victim });
        }
    }
}

impl Mitigation for MrLoc {
    fn name(&self) -> &str {
        "MRLoc"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, actions: &mut Vec<MitigationAction>) {
        for victim in victims(row, self.config.rows_per_bank)
            .into_iter()
            .flatten()
        {
            self.handle_victim(bank, victim, actions);
        }
    }

    #[allow(
        clippy::cast_possible_truncation,
        reason = "event tags: segment indices are bounded by the batch length, far below u32::MAX"
    )]
    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, sink: &mut ActionSink) {
        // Lane kernel: the queue and stream are resolved once per bank
        // run, each activation draws its candidates' words first, and
        // only an activation with a word that can fire reads the queue;
        // any other is only logged (module docs).
        let MrLoc {
            config,
            queues,
            rebuild,
            bound,
            rngs,
        } = self;
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let queue = &mut queues[bank.index()];
            let rng = rngs.get(bank);
            for i in run {
                let candidates = victims(rows[i], config.rows_per_bank);
                // One word per candidate, in decision order.
                let words = candidates.map(|victim| victim.map(|_| rng.next_u64()));
                if words.iter().flatten().all(|&word| word >> 11 >= *bound) {
                    queue.defer(rows[i], rebuild, config);
                    continue;
                }
                queue.apply_log(rebuild, config);
                for (victim, word) in candidates.into_iter().zip(words) {
                    if let (Some(victim), Some(word)) = (victim, word) {
                        if draw::gate(word, queue.touch(victim, config)) {
                            sink.push(i as u32, MitigationAction::RefreshRow { bank, row: victim });
                        }
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
        assert_eq!(m.queues[0].rows.first(), Some(&RowAddr(101)));
        assert!(m.queues[0].rows.contains(&RowAddr(99)));
    }

    #[test]
    fn queue_is_bounded_and_deduplicated() {
        let mut m = mrloc();
        let mut actions = Vec::new();
        for r in 0..200u32 {
            m.on_activate(BankId(0), RowAddr(1 + r % 80), &mut actions);
        }
        let rows = &m.queues[0].rows;
        assert!(rows.len() <= m.config.queue_entries);
        let mut sorted: Vec<_> = rows.iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rows.len(), "duplicates in queue");
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
        for queue in &mut kernel.queues {
            queue.apply_log(&mut kernel.rebuild, &cfg);
        }
        assert_eq!(kernel.queues, scalar.queues);
    }

    #[test]
    fn log_replay_equals_eager_requeue() {
        // Churn past the queue bound with repeats and both edge rows:
        // replaying the log in one step leaves the queue the eager path
        // builds touch by touch, whether the log is applied early or
        // fills (the last 2000 activations fill it three times).
        let mut cfg = MrLocConfig::paper(&Geometry::paper().with_banks(1));
        cfg.rows_per_bank = 40;
        cfg.queue_entries = 8;
        let mut eager = VictimQueue::new(cfg.queue_entries);
        let mut lazy = VictimQueue::new(cfg.queue_entries);
        let mut rebuild = Rebuild::new(cfg.queue_entries);
        for i in 0..3000u32 {
            let row = RowAddr(if i % 7 == 3 {
                39
            } else {
                (i * 5) % 13 + (i / 400) * 3
            });
            for victim in victims(row, cfg.rows_per_bank).into_iter().flatten() {
                let _ = eager.touch(victim, &cfg);
            }
            lazy.defer(row, &mut rebuild, &cfg);
            if i < 1000 && i % 37 == 0 {
                lazy.apply_log(&mut rebuild, &cfg);
                assert_eq!(lazy.rows, eager.rows, "after activation {i}");
            }
        }
        lazy.apply_log(&mut rebuild, &cfg);
        assert_eq!(lazy.rows, eager.rows);
        assert!(lazy.log.is_empty() && rebuild.rows.is_empty());
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn min_above_max_rejected() {
        let mut cfg = MrLocConfig::paper(&Geometry::paper());
        cfg.min_probability = 0.5;
        cfg.max_probability = 0.1;
        let _ = MrLoc::new(cfg, 1);
    }

    #[test]
    #[should_panic(expected = "a draw uses no stream word")]
    fn zero_min_probability_rejected() {
        let mut cfg = MrLocConfig::paper(&Geometry::paper());
        cfg.min_probability = 0.0;
        let _ = MrLoc::new(cfg, 1);
    }

    #[test]
    #[should_panic(expected = "a draw uses no stream word")]
    fn unit_max_probability_rejected() {
        let mut cfg = MrLocConfig::paper(&Geometry::paper());
        cfg.max_probability = 1.0;
        let _ = MrLoc::new(cfg, 1);
    }
}
