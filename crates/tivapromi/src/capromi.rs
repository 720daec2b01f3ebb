//! CaPRoMi — counter-assisted probabilistic weighting (Section III-D).
//!
//! Unlike the purely probabilistic variants, CaPRoMi defers its decisions
//! to the end of each refresh interval: a small lockable counter table
//! tracks how often each row was activated within the interval, and the
//! trigger probability combines the count with the logarithmic weight:
//!
//! ```text
//! p_r = cnt_r · w_log_r · P_base
//! ```
//!
//! The extra activations decided at interval end are issued during the
//! following refresh interval.
//!
//! The history table changes only in `on_refresh_interval`, and the
//! counter table is drained there too, so within an interval a row's
//! history link cannot change after its counter entry is made.  The lane
//! kernel therefore searches the history only for a row that has no
//! counter entry yet ([`CounterTable::observe_linking_new`]).  The
//! scalar [`Mitigation::on_activate`] stays the eager reference and
//! searches on every activation.

use crate::bank_rng::BankRngs;
use crate::config::TivaConfig;
use crate::counter_table::{CounterEntry, CounterTable};
use crate::history::HistoryTable;
use crate::mitigation::{ActionSink, Mitigation, MitigationAction};
use crate::weight::{linear_weight, log_weight};
use dram_sim::{BankId, RowAddr};
use mem_trace::EventBatch;
use rand::RngExt;
use std::ops::Range;

/// The counter-assisted TiVaPRoMi variant.
///
/// ```
/// use tivapromi::{CaPromi, Mitigation, TivaConfig};
/// use dram_sim::{BankId, Geometry, RowAddr};
///
/// let cfg = TivaConfig::paper(&Geometry::paper());
/// let mut m = CaPromi::new(cfg, 9);
/// let mut actions = Vec::new();
/// // Flood a row; decisions are made at interval ends, so triggers
/// // appear from `on_refresh_interval`.
/// let mut triggered = false;
/// for _ in 0..2000 {
///     for _ in 0..150 {
///         m.on_activate(BankId(0), RowAddr(900), &mut actions);
///         assert!(actions.is_empty(), "CaPRoMi never triggers on act");
///     }
///     m.on_refresh_interval(&mut actions);
///     triggered |= !actions.is_empty();
///     actions.clear();
/// }
/// assert!(triggered);
/// ```
#[derive(Debug)]
pub struct CaPromi {
    config: TivaConfig,
    histories: Vec<HistoryTable>,
    counters: Vec<CounterTable>,
    /// Extra activations decided at the previous interval's end, issued
    /// during the current interval ("the extra activations will then be
    /// issued during the next refresh interval").
    pending: Vec<MitigationAction>,
    /// Current refresh interval within the window.
    interval: u32,
    /// Per-bank draw streams (bank-shardable determinism).
    rngs: BankRngs,
    /// Drain staging reused every interval so the steady-state ref walk
    /// never touches the heap (`tests/alloc_free.rs`).
    drained: Vec<CounterEntry>,
    triggers: u64,
}

impl CaPromi {
    /// Creates a CaPRoMi instance for `config`, seeded deterministically.
    pub fn new(config: TivaConfig, seed: u64) -> Self {
        CaPromi {
            histories: (0..config.banks)
                .map(|_| HistoryTable::with_policy(config.history_entries, config.history_policy))
                .collect(),
            counters: (0..config.banks)
                .map(|_| CounterTable::new(config.counter_entries, config.lock_threshold))
                .collect(),
            // Each counter entry decides at most once per interval, so
            // `counter_entries × banks` bounds the pending backlog
            // exactly — preallocating it keeps the steady state
            // heap-quiet.
            pending: Vec::with_capacity(config.counter_entries * config.banks as usize),
            interval: 0,
            rngs: BankRngs::with_banks(seed, config.banks),
            drained: Vec::with_capacity(config.counter_entries),
            config,
            triggers: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TivaConfig {
        &self.config
    }

    /// Current refresh interval within the window.
    pub fn current_interval(&self) -> u32 {
        self.interval
    }

    /// Total extra activations triggered so far.
    pub fn trigger_count(&self) -> u64 {
        self.triggers
    }

    /// Current activation count recorded for `row` (diagnostic).
    pub fn count_of(&self, bank: BankId, row: RowAddr) -> Option<u32> {
        self.counters[bank.index()].entry(row).map(|e| e.count)
    }
}

impl Mitigation for CaPromi {
    fn name(&self) -> &str {
        "CaPRoMi"
    }

    fn on_activate(&mut self, bank: BankId, row: RowAddr, _actions: &mut Vec<MitigationAction>) {
        // The history table is searched in parallel with the counter
        // table (Fig. 3 "find linked"/"link" states); a hit links the
        // counter entry to the history slot so the ref-side weight
        // calculation can start from the stored trigger interval.
        let slot = self.histories[bank.index()].position(row);
        let _ = self.counters[bank.index()].observe(row, slot, self.rngs.get(bank));
    }

    fn on_batch(&mut self, batch: &EventBatch, range: Range<usize>, _sink: &mut ActionSink) {
        // CaPRoMi's act path only counts — decisions happen at the
        // interval end — so the batched loop skips the action-tagging
        // bookkeeping of the default fan-out entirely.  Per bank run,
        // the history/counter/rng lookups are hoisted once and the
        // kernel walks the row column directly; the history is searched
        // only for a row without a counter entry (module docs).
        let (_, rows, _) = batch.columns();
        for (bank, run) in batch.bank_runs(range) {
            let history = &self.histories[bank.index()];
            let counters = &mut self.counters[bank.index()];
            let rng = self.rngs.get(bank);
            for i in run {
                let row = rows[i];
                let _ = counters.observe_linking_new(row, || history.position(row), &mut *rng);
            }
        }
    }

    fn on_refresh_interval(&mut self, actions: &mut Vec<MitigationAction>) {
        // Issue the activations decided at the previous interval's end.
        actions.append(&mut self.pending);

        let i = self.interval;
        let ref_int = self.config.ref_int;
        let exponent = self.config.p_base_exponent;

        let mut drained = std::mem::take(&mut self.drained);
        for bank_idx in 0..self.counters.len() {
            let bank_id = BankId(u32::try_from(bank_idx).expect("bank count fits u32"));
            self.counters[bank_idx].drain_into(&mut drained);
            let history = &mut self.histories[bank_idx];
            for &entry in &drained {
                let base = entry
                    .history_slot
                    .and_then(|s| history.interval_at(s))
                    .unwrap_or_else(|| self.config.home_interval(entry.row));
                let w = linear_weight(i, base % ref_int, ref_int);
                let w_log = log_weight(w);
                // p = cnt · w_log · P_base, realised as a scaled compare
                // against a uniform `exponent`-bit draw; a product that
                // exceeds the draw range triggers deterministically.
                let scaled = u64::from(entry.count) * u64::from(w_log);
                let draw: u64 = self.rngs.get(bank_id).random_range(0..(1u64 << exponent));
                if draw < scaled {
                    self.pending.push(MitigationAction::ActivateNeighbors {
                        bank: bank_id,
                        row: entry.row,
                    });
                    history.record(entry.row, i);
                    self.triggers += 1;
                }
            }
        }
        drained.clear();
        self.drained = drained;

        self.interval += 1;
        if self.interval == ref_int {
            self.interval = 0;
            for h in &mut self.histories {
                h.clear();
            }
        }
    }

    fn storage_bits_per_bank(&self) -> u64 {
        self.config.history_bits() + self.config.counter_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::Geometry;

    fn config() -> TivaConfig {
        TivaConfig::paper(&Geometry::paper().with_banks(1))
    }

    #[test]
    fn never_triggers_on_act() {
        let mut m = CaPromi::new(config(), 1);
        let mut actions = Vec::new();
        for r in 0..1000u32 {
            m.on_activate(BankId(0), RowAddr(r % 64), &mut actions);
        }
        assert!(actions.is_empty());
    }

    #[test]
    fn counter_table_drains_each_interval() {
        let mut m = CaPromi::new(config(), 2);
        let mut actions = Vec::new();
        m.on_activate(BankId(0), RowAddr(5), &mut actions);
        assert_eq!(m.count_of(BankId(0), RowAddr(5)), Some(1));
        m.on_refresh_interval(&mut actions);
        assert_eq!(m.count_of(BankId(0), RowAddr(5)), None);
    }

    #[test]
    fn flooded_row_triggers_within_a_window() {
        let mut m = CaPromi::new(config(), 3);
        let mut actions = Vec::new();
        let mut first_trigger = None;
        let mut acts = 0u64;
        'outer: for _interval in 0..8192 {
            for _ in 0..165 {
                m.on_activate(BankId(0), RowAddr(4000), &mut actions);
                acts += 1;
            }
            m.on_refresh_interval(&mut actions);
            if !actions.is_empty() {
                first_trigger = Some(acts);
                break 'outer;
            }
        }
        let first = first_trigger.expect("flooded row must trigger");
        // §IV: CaPRoMi's first extra activation under flooding arrives
        // well before the 69 K one-sided safety bound.
        assert!(first < 69_000, "first trigger at {first} activations");
    }

    #[test]
    fn trigger_updates_history_and_shrinks_weight() {
        let mut m = CaPromi::new(config(), 4);
        let mut actions = Vec::new();
        // Flood until a trigger lands.
        loop {
            for _ in 0..165 {
                m.on_activate(BankId(0), RowAddr(4000), &mut actions);
            }
            m.on_refresh_interval(&mut actions);
            if !actions.is_empty() {
                break;
            }
        }
        // The actions surfaced one interval after the decision (deferred
        // issue), so the recorded history interval is two back.
        let trigger_interval = m.current_interval() - 2;
        assert_eq!(m.histories[0].lookup(RowAddr(4000)), Some(trigger_interval));
    }

    #[test]
    fn quiet_rows_rarely_trigger_early_in_window() {
        // A single activation of a freshly-refreshed row has
        // p = 1 · w_log(small) · 2^-23 ≈ 2^-22 — over 1000 intervals the
        // expected number of triggers is ≈ 0.001.
        let mut m = CaPromi::new(config(), 5);
        let mut actions = Vec::new();
        let mut total = 0;
        for interval in 0..1000u32 {
            // Activate the row currently being refreshed (weight ≈ 0).
            let row = RowAddr((interval % 8192) * 8);
            m.on_activate(BankId(0), row, &mut actions);
            m.on_refresh_interval(&mut actions);
            total += actions.len();
            actions.clear();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn storage_includes_both_tables() {
        let m = CaPromi::new(config(), 6);
        // 120 B history + 256 B counters = 376 B ≈ the paper's 374 B.
        assert_eq!(m.storage_bits_per_bank(), 960 + 2048);
        assert!((m.storage_bytes_per_bank() - 376.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = CaPromi::new(config(), seed);
            let mut actions = Vec::new();
            let mut n = 0;
            for _ in 0..2000 {
                for _ in 0..100 {
                    m.on_activate(BankId(0), RowAddr(4000), &mut actions);
                }
                m.on_refresh_interval(&mut actions);
                n += actions.len();
                actions.clear();
            }
            n
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn batched_kernel_matches_scalar_path() {
        use crate::mitigation::ActionSink;
        use mem_trace::{EventBatch, TraceEvent};
        let cfg = TivaConfig::paper(&Geometry::paper().with_banks(3));
        let mut kernel = CaPromi::new(cfg, 11);
        let mut scalar = CaPromi::new(cfg, 11);
        let mut sink = ActionSink::new();
        let mut kernel_actions = Vec::new();
        let mut scalar_actions = Vec::new();
        for interval in 0..600u32 {
            // Mixed-bank traffic with single-event runs plus a flooded row.
            let mut events = Vec::new();
            for i in 0..150u32 {
                let bank = BankId(i % 3);
                let row = if i % 5 == 0 {
                    RowAddr(4000)
                } else {
                    RowAddr(100 + (i + interval) % 9)
                };
                events.push(TraceEvent::benign(bank, row));
            }
            let mut batch = EventBatch::new();
            batch.push_interval(&events);
            sink.reset();
            kernel.on_batch(&batch, batch.segment(0), &mut sink);
            for e in &events {
                scalar.on_activate(e.bank, e.row, &mut scalar_actions);
            }
            kernel.on_refresh_interval(&mut kernel_actions);
            scalar.on_refresh_interval(&mut scalar_actions);
            assert_eq!(kernel_actions, scalar_actions, "interval {interval}");
            kernel_actions.clear();
            scalar_actions.clear();
        }
        assert_eq!(kernel.trigger_count(), scalar.trigger_count());
        assert!(kernel.trigger_count() > 0);
    }
}
