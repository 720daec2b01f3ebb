//! The cycle tier: per-bank row-buffer state and a bank clock on top of
//! the exact model.
//!
//! [`CycleBackend`] wraps a [`DramDevice`] — every disturbance-visible
//! result (flips, activity statistics, the disturbance high-water mark)
//! is the exact model's, by construction.  What the tier *adds* is time.
//! Each bank keeps its open row and a clock, and every command is priced
//! from the device timing's [`crate::CycleBudget`] and timed on its bank's
//! clock:
//!
//! * a workload activation that **hits** the open row costs a column
//!   access, approximated as `act_cycles / 3` (tRC covers
//!   activate-restore-precharge; a CAS-only access rides the open row);
//! * a **miss** costs the full `act_cycles` (tRC) and re-opens the row;
//! * a mitigation command (`act_n` neighbor activation, victim refresh)
//!   costs `act_cycles` per physical activation and *closes* the open
//!   row — the conservative choice, since a mitigation activate evicts
//!   whatever the workload had open;
//! * the end-of-interval auto-refresh costs `ref_cycles` (tRFC) and
//!   closes every row.
//!
//! The prices land in [`CycleStats`], per-bank-additive except the
//! per-interval refresh cost (see [`CycleStats::merge`]).  The clocks
//! turn them into demand latency, [`LatencyStats`]:
//!
//! * **Arrival.** A bank's k-th workload activation of a refresh
//!   interval arrives in slot k of
//!   [`crate::DramTiming::max_activations_per_interval`] slots spread
//!   evenly over the time the refresh leaves free: `⌊k·F/slots⌋` cycles
//!   into the interval, with `F = tREFI − tRFC`.  Activations past the
//!   last slot arrive when the refresh falls due, at `F`.
//! * **Service.** A demand starts once it has arrived and its bank is
//!   free, and holds the bank for its hit or miss price; its latency runs
//!   from arrival to the end of service.
//! * **Refresh** falls due `F` cycles into the interval and runs for
//!   tRFC once the bank is free.  A command that would start at or after
//!   the due time waits until the refresh is done.
//! * **Mitigation** activations hold the bank for tRC each, under a
//!   [`MitigationPriority`]: urgent ones as soon as the bank is free,
//!   ahead of later demands; background ones (the default) wait in a
//!   per-bank backlog and start only while the bank is free and no demand
//!   waits.  Nothing preempts, so a background activation that starts
//!   just before a demand arrives still delays it.  A demand's
//!   mitigation stall is how much later it starts than it would have
//!   without the mitigation activations issued since its bank's previous
//!   demand.
//!
//! Row-buffer state follows command order: a background activation
//! closes the row when the mitigation asks for it, not when it issues.
//! Every rule reads only its bank's state and the interval clock all
//! banks share, so bank-sharded runs price and time exactly like
//! sequential ones, and each command costs O(1) with no allocation after
//! construction.

use crate::backend::{CycleStats, DisturbanceBackend};
use crate::{BankId, Command, DeviceStats, DramDevice, FlipEvent, RowAddr};

/// When mitigation activations take their bank, relative to demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MitigationPriority {
    /// Mitigation activations yield to demand: they issue only while the
    /// bank is free and no demand waits — the Fig. 1 buffer-and-wait
    /// behaviour.
    #[default]
    Background,
    /// Mitigation activations issue as soon as the bank is free, ahead
    /// of later demand — bounded staleness, higher demand latency.
    Urgent,
}

/// Demand-latency accounting of the cycle tier.
///
/// Every field sums across disjoint bank shards of one run except
/// `max_latency_cycles`, which takes the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Workload (demand) activations served.
    pub demands: u64,
    /// Sum of demand latencies, arrival to end of service, in cycles.
    pub total_latency_cycles: u64,
    /// Worst single demand latency, in cycles.
    pub max_latency_cycles: u64,
    /// Mitigation activations the banks serve (a background backlog left
    /// at the end of a run issues after the last command, where it delays
    /// no demand).
    pub mitigation_activations: u64,
    /// Cycles demands started late because of mitigation activations.
    pub mitigation_stall_cycles: u64,
}

impl LatencyStats {
    /// Mean demand latency in cycles (0 for an empty run).
    pub fn mean_latency(&self) -> f64 {
        if self.demands == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.demands as f64
        }
    }
}

/// A bank's clock.
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// First cycle the bank is free.
    free_at: u64,
    /// When the interval's refresh falls due; `u64::MAX` once it has run.
    refresh_due: u64,
}

impl Clock {
    /// The cycle a command that may start at `earliest` starts: once the
    /// bank is free, and after the pending refresh if that is due by
    /// then.
    #[inline]
    fn start(&mut self, earliest: u64, refresh_cycles: u64) -> u64 {
        let start = earliest.max(self.free_at);
        if start < self.refresh_due {
            return start;
        }
        self.refresh(refresh_cycles);
        earliest.max(self.free_at)
    }

    /// Runs the pending refresh once it is due and the bank is free.
    fn refresh(&mut self, refresh_cycles: u64) {
        self.free_at = self.free_at.max(self.refresh_due) + refresh_cycles;
        self.refresh_due = u64::MAX;
    }

    /// Closes the interval: runs its refresh if no command has yet, and
    /// sets the next one due at `next_due`.
    fn end_interval(&mut self, next_due: u64, refresh_cycles: u64) {
        if self.refresh_due != u64::MAX {
            self.refresh(refresh_cycles);
        }
        self.refresh_due = next_due;
    }
}

/// The cycle costs and the interval clock every bank shares.
#[derive(Debug)]
struct Timing {
    /// tRC: a row-buffer miss or one mitigation activation.
    act_cycles: u64,
    /// Cost of a row-buffer hit: `act_cycles / 3`, at least 1.
    hit_cycles: u64,
    /// tRFC.
    refresh_cycles: u64,
    /// tREFI.
    interval_cycles: u64,
    /// tREFI − tRFC: when the refresh falls due, into the interval.
    free_cycles: u64,
    /// Arrival offset of each slot within an interval.  Consecutive
    /// slots are at least one service apart, so a bank free when one
    /// demand arrives is free at the next slot too.
    slots: Box<[u64]>,
    /// First cycle of the current refresh interval.
    interval_start: u64,
}

impl Timing {
    /// When an interval's `k`-th activation of a bank arrives.
    #[inline]
    fn arrival(&self, k: usize) -> u64 {
        self.interval_start + self.slots.get(k).copied().unwrap_or(self.free_cycles)
    }
}

/// One bank's state machine.
#[derive(Debug, Clone, Copy)]
struct Bank {
    /// The open row (logical address); `None` after refresh or a
    /// mitigation command.
    open_row: Option<RowAddr>,
    /// Workload activations so far this interval: the next one's slot.
    arrivals: usize,
    clock: Clock,
    /// The clock as it stood before the first mitigation activation
    /// issued since the bank's last demand (`None` if there was none),
    /// carried forward without them: the next demand's stall is how much
    /// later it starts on `clock` than here.
    unmitigated: Option<Clock>,
    /// Background mitigation activations not yet issued.
    backlog: u64,
}

impl Bank {
    /// Prices a run of the bank's workload activations and serves them on
    /// the clock, in order.
    #[inline]
    fn serve(
        &mut self,
        mut rows: &[RowAddr],
        timing: &Timing,
        cycles: &mut CycleStats,
        latency: &mut LatencyStats,
    ) {
        while let Some((&row, rest)) = rows.split_first() {
            if self.backlog == 0 && self.unmitigated.is_none() {
                break;
            }
            self.serve_after_mitigation(row, timing, cycles, latency);
            rows = rest;
        }
        self.serve_plain(rows, timing, cycles, latency);
    }

    /// Serves the first demand after mitigation activations were asked
    /// for: backlogged activations that can start before it arrives
    /// issue first, and any issued since the previous demand charge it a
    /// stall.
    #[cold]
    fn serve_after_mitigation(
        &mut self,
        row: RowAddr,
        timing: &Timing,
        cycles: &mut CycleStats,
        latency: &mut LatencyStats,
    ) {
        let arrival = timing.arrival(self.arrivals);
        self.issue_backlog(arrival, timing.act_cycles);
        if let Some(mut unmitigated) = self.unmitigated.take() {
            latency.mitigation_stall_cycles += self.clock.start(arrival, timing.refresh_cycles)
                - unmitigated.start(arrival, timing.refresh_cycles);
        }
        self.serve_plain(std::slice::from_ref(&row), timing, cycles, latency);
    }

    /// [`Bank::serve`] with no mitigation activation pending: each
    /// activation is a hit on the open row or a miss that opens it,
    /// arrives in its slot and holds the bank for its price.  The state
    /// and tallies live in locals for the loop, and the function inlines
    /// into every caller, so one activation costs no loop set-up.
    #[inline(always)]
    fn serve_plain(
        &mut self,
        rows: &[RowAddr],
        timing: &Timing,
        cycles: &mut CycleStats,
        latency: &mut LatencyStats,
    ) {
        let first = self.arrivals;
        self.arrivals += rows.len();
        let mut open_row = self.open_row;
        let mut hits = 0;
        let mut price = |row| {
            if open_row == Some(row) {
                hits += 1;
                timing.hit_cycles
            } else {
                open_row = Some(row);
                timing.act_cycles
            }
        };
        let mut waits = 0;
        let mut max = latency.max_latency_cycles;
        if self.arrivals <= timing.slots.len() && self.clock.free_at <= timing.arrival(first) {
            // The bank is free when the run's first demand arrives, and
            // the run's slots are at least one service apart: no demand
            // waits, so each one's latency is its price.
            let mut service = 0;
            for &row in rows {
                service = price(row);
                max = max.max(service);
            }
            if !rows.is_empty() {
                self.clock.free_at = timing.arrival(self.arrivals - 1) + service;
            }
        } else {
            let mut clock = self.clock;
            for (slot, &row) in (first..).zip(rows) {
                let service = price(row);
                let arrival = timing.arrival(slot);
                let start = clock.start(arrival, timing.refresh_cycles);
                clock.free_at = start + service;
                waits += start - arrival;
                max = max.max(clock.free_at - arrival);
            }
            self.clock = clock;
        }
        self.open_row = open_row;
        let misses = u64::try_from(rows.len()).expect("run length fits u64") - hits;
        let served = hits * timing.hit_cycles + misses * timing.act_cycles;
        cycles.row_buffer_hits += hits;
        cycles.row_buffer_misses += misses;
        cycles.workload_cycles += served;
        latency.demands += hits + misses;
        latency.total_latency_cycles += served + waits;
        latency.max_latency_cycles = max;
    }

    /// Issues backlogged activations while the bank is free before
    /// `until` (and before a pending refresh), one tRC after another.
    fn issue_backlog(&mut self, until: u64, act_cycles: u64) {
        if self.backlog == 0 {
            // Every bank passes here once per interval: skip the division.
            return;
        }
        let idle = until
            .min(self.clock.refresh_due)
            .saturating_sub(self.clock.free_at);
        let issued = idle.div_ceil(act_cycles.max(1)).min(self.backlog);
        if issued > 0 {
            self.unmitigated.get_or_insert(self.clock);
            self.clock.free_at += issued * act_cycles;
            self.backlog -= issued;
        }
    }
}

/// The row-buffer + bank-clock backend (`--backend cycle`).
#[derive(Debug)]
pub struct CycleBackend {
    inner: DramDevice,
    banks: Vec<Bank>,
    priority: MitigationPriority,
    timing: Timing,
    cycles: CycleStats,
    latency: LatencyStats,
}

impl CycleBackend {
    /// Wraps an exact device; cycle costs and the interval clock derive
    /// from its timing, and mitigation runs at background priority.
    pub fn new(inner: DramDevice) -> Self {
        let device_timing = inner.timing();
        let budget = device_timing.cycle_budget();
        let act_cycles = u64::from(budget.act_cycles);
        let refresh_cycles = u64::from(budget.ref_cycles);
        let interval_cycles = device_timing.refresh_interval_cycles();
        let free_cycles = interval_cycles.saturating_sub(refresh_cycles);
        let hit_cycles = (act_cycles / 3).max(1);
        // The activation budget, which leaves every slot a full tRC for
        // any real timing; the cap keeps that true for any timing.
        let slots = u64::from(device_timing.max_activations_per_interval())
            .min(free_cycles / act_cycles.max(hit_cycles));
        let slots: Box<[u64]> = (0..slots).map(|k| k * free_cycles / slots).collect();
        let bank = Bank {
            open_row: None,
            arrivals: 0,
            clock: Clock {
                free_at: 0,
                refresh_due: free_cycles,
            },
            unmitigated: None,
            backlog: 0,
        };
        CycleBackend {
            banks: vec![bank; inner.geometry().banks() as usize],
            priority: MitigationPriority::Background,
            timing: Timing {
                act_cycles,
                hit_cycles,
                refresh_cycles,
                interval_cycles,
                free_cycles,
                slots,
                interval_start: 0,
            },
            inner,
            cycles: CycleStats::default(),
            latency: LatencyStats::default(),
        }
    }

    /// Returns the backend with mitigation activations at `priority`.
    #[must_use]
    pub fn with_priority(mut self, priority: MitigationPriority) -> Self {
        self.priority = priority;
        self
    }

    /// The wrapped event-accurate device.
    pub fn inner(&self) -> &DramDevice {
        &self.inner
    }

    /// The cycle accounting so far.
    pub fn cycles(&self) -> CycleStats {
        self.cycles
    }

    /// The demand-latency accounting so far.
    pub fn latency(&self) -> LatencyStats {
        self.latency
    }

    /// Prices `activations` mitigation activations in `bank`, closes its
    /// row, and issues or backlogs them by priority.
    fn mitigate(&mut self, bank: BankId, activations: u64) {
        let timing = &self.timing;
        self.cycles.mitigation_cycles += activations * timing.act_cycles;
        self.latency.mitigation_activations += activations;
        let state = &mut self.banks[bank.index()];
        state.open_row = None;
        match self.priority {
            MitigationPriority::Background => state.backlog += activations,
            MitigationPriority::Urgent => {
                state.unmitigated.get_or_insert(state.clock);
                for _ in 0..activations {
                    let clock = &mut state.clock;
                    clock.free_at =
                        clock.start(clock.free_at, timing.refresh_cycles) + timing.act_cycles;
                }
            }
        }
    }

    /// Ends the refresh interval on every bank: backlogged activations
    /// fill the free time before the refresh, the refresh runs, and the
    /// next interval's slots and refresh are set.
    fn refresh(&mut self) {
        let timing = &mut self.timing;
        self.cycles.refresh_cycles += timing.refresh_cycles;
        timing.interval_start += timing.interval_cycles;
        let next_due = timing.interval_start + timing.free_cycles;
        for state in &mut self.banks {
            if state.clock.refresh_due != u64::MAX {
                state.issue_backlog(state.clock.refresh_due, timing.act_cycles);
            }
            state.clock.end_interval(next_due, timing.refresh_cycles);
            if let Some(unmitigated) = &mut state.unmitigated {
                unmitigated.end_interval(next_due, timing.refresh_cycles);
            }
            state.open_row = None;
            state.arrivals = 0;
        }
    }
}

impl DisturbanceBackend for CycleBackend {
    #[inline]
    fn apply(&mut self, command: Command) {
        match command {
            Command::Activate { bank, row } => {
                self.banks[bank.index()].serve(
                    std::slice::from_ref(&row),
                    &self.timing,
                    &mut self.cycles,
                    &mut self.latency,
                );
                self.inner.apply(command);
            }
            Command::Refresh => {
                self.inner.apply(command);
                self.refresh();
            }
            Command::ActivateNeighbors { bank, .. } | Command::RefreshRow { bank, .. } => {
                // Mitigation fan-out varies (edge rows have one
                // neighbor): price the activations the device actually
                // issued, via the stats delta.
                let before = self.inner.stats().mitigation_activations;
                self.inner.apply(command);
                let issued = self.inner.stats().mitigation_activations - before;
                self.mitigate(bank, issued);
            }
        }
    }

    #[inline]
    fn flip_headroom(&self, bank: BankId) -> u64 {
        self.inner.flip_headroom(bank)
    }

    /// Prices and times the slice's activations, one run of equal bank
    /// at a time — the bank clocks depend on nothing the device computes
    /// — then hands the slice to the device's own run delivery.
    fn apply_activations(&mut self, banks: &[BankId], rows: &[RowAddr]) {
        let mut start = 0;
        while let Some(&bank) = banks.get(start) {
            let len = banks[start..].iter().take_while(|&&b| b == bank).count();
            self.banks[bank.index()].serve(
                &rows[start..start + len],
                &self.timing,
                &mut self.cycles,
                &mut self.latency,
            );
            start += len;
        }
        self.inner.apply_activations(banks, rows);
    }

    #[inline]
    fn flips(&self) -> &[FlipEvent] {
        self.inner.flips()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn max_disturbance_seen(&self) -> u32 {
        self.inner.max_disturbance_seen()
    }

    fn device(&self) -> Option<&DramDevice> {
        Some(&self.inner)
    }

    fn cycle_stats(&self) -> Option<CycleStats> {
        Some(self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramTiming, Geometry};

    fn backend() -> CycleBackend {
        let mut device = DramDevice::new(Geometry::new(64, 2, 8).expect("geometry"));
        device.set_flip_threshold(10);
        CycleBackend::new(device)
    }

    fn act(bank: u32, row: u32) -> Command {
        Command::Activate {
            bank: BankId(bank),
            row: RowAddr(row),
        }
    }

    fn act_n(bank: u32, row: u32) -> Command {
        Command::ActivateNeighbors {
            bank: BankId(bank),
            row: RowAddr(row),
        }
    }

    // DDR4 at 1.2 GHz: tRC 54, a hit 18, tRFC 420, tREFI 9360; 165
    // slots over the 8940 cycles the refresh leaves free.
    const T_RC: u64 = 54;
    const T_RFC: u64 = 420;
    const FREE: u64 = 9360 - 420;

    #[test]
    fn repeat_activations_hit_the_row_buffer() {
        let mut b = backend();
        b.apply(act(0, 5)); // miss: opens the row
        b.apply(act(0, 5)); // hit
        b.apply(act(0, 5)); // hit
        b.apply(act(0, 7)); // miss: conflict
        let c = b.cycles();
        assert_eq!(c.row_buffer_hits, 2);
        assert_eq!(c.row_buffer_misses, 2);
        assert_eq!(
            c.workload_cycles,
            2 * b.timing.act_cycles + 2 * b.timing.hit_cycles
        );
        assert!((c.row_buffer_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn banks_track_open_rows_independently() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(act(1, 5)); // different bank: its own miss
        b.apply(act(0, 5)); // still open in bank 0
        let c = b.cycles();
        assert_eq!(c.row_buffer_hits, 1);
        assert_eq!(c.row_buffer_misses, 2);
    }

    #[test]
    fn mitigation_commands_are_priced_and_close_the_row() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(act_n(0, 5));
        // Interior row: two neighbors activated, two activations priced.
        assert_eq!(b.cycles().mitigation_cycles, 2 * b.timing.act_cycles);
        assert_eq!(b.stats().mitigation_activations, 2);
        b.apply(act(0, 5)); // mitigation closed the row: miss again
        assert_eq!(b.cycles().row_buffer_misses, 2);
        assert!(b.cycles().bandwidth_overhead_percent() > 0.0);
    }

    #[test]
    fn edge_row_mitigation_prices_single_neighbor() {
        let mut b = backend();
        b.apply(act_n(0, 0));
        assert_eq!(b.stats().mitigation_activations, 1);
        assert_eq!(b.cycles().mitigation_cycles, b.timing.act_cycles);
    }

    #[test]
    fn refresh_costs_trfc_and_flushes_row_buffers() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(Command::Refresh);
        assert_eq!(b.cycles().refresh_cycles, b.timing.refresh_cycles);
        b.apply(act(0, 5)); // refresh closed it: miss
        assert_eq!(b.cycles().row_buffer_misses, 2);
    }

    #[test]
    fn disturbance_results_are_the_exact_models() {
        let mut cycle = backend();
        let mut exact = DramDevice::new(Geometry::new(64, 2, 8).expect("geometry"));
        exact.set_flip_threshold(10);
        for _ in 0..12 {
            cycle.apply(act(0, 5));
            exact.apply(act(0, 5));
        }
        cycle.apply(Command::Refresh);
        exact.apply(Command::Refresh);
        assert_eq!(cycle.flips(), exact.flips());
        assert_eq!(cycle.stats(), exact.stats());
        assert_eq!(cycle.max_disturbance_seen(), exact.max_disturbance_seen());
        assert!(cycle.device().is_some());
        assert!(cycle.cycle_stats().is_some());
    }

    #[test]
    fn ddr4_clock_constants() {
        let t = backend().timing;
        assert_eq!((t.act_cycles, t.hit_cycles), (T_RC, 18));
        assert_eq!((t.refresh_cycles, t.interval_cycles), (T_RFC, 9360));
        assert_eq!(t.free_cycles, FREE);
        let slots = DramTiming::ddr4().max_activations_per_interval();
        assert_eq!(t.slots.len(), slots as usize);
    }

    #[test]
    fn arrival_slots_spread_the_activation_budget_over_the_free_time() {
        let t = backend().timing;
        // Slot k is ⌊k·8940/165⌋: 54.18 cycles apart on average, never
        // closer than tRC; past the last slot, arrivals come when the
        // refresh falls due.
        let arrivals: Vec<u64> = (0..7).map(|k| t.arrival(k)).collect();
        assert_eq!(arrivals, [0, 54, 108, 162, 216, 270, 325]);
        assert_eq!(t.arrival(164), 8885);
        assert_eq!((t.arrival(165), t.arrival(1000)), (FREE, FREE));
        assert!(t.slots.windows(2).all(|w| w[1] - w[0] >= T_RC));
    }

    #[test]
    fn a_lone_demand_on_an_idle_bank_costs_its_service_time() {
        let mut b = backend();
        b.apply(act(0, 5));
        let l = b.latency();
        assert_eq!((l.demands, l.total_latency_cycles), (1, T_RC));
        b.apply(Command::Refresh);
        b.apply(act(0, 5));
        b.apply(act(0, 5)); // a hit, in slot 1
        let l = b.latency();
        assert_eq!(l.total_latency_cycles, 2 * T_RC + b.timing.hit_cycles);
        assert_eq!((l.max_latency_cycles, l.mitigation_stall_cycles), (T_RC, 0));
    }

    #[test]
    fn a_full_interval_of_misses_never_queues() {
        let mut b = backend();
        for row in 0..165 {
            b.apply(act(0, row % 64));
        }
        let l = b.latency();
        assert_eq!(l.total_latency_cycles, 165 * T_RC);
        assert_eq!(l.max_latency_cycles, T_RC);
    }

    #[test]
    fn demands_past_the_budget_wait_out_the_refresh_then_serialize() {
        let mut b = backend();
        for row in 0..168 {
            b.apply(act(0, row % 64));
        }
        // The last three arrive when the refresh falls due: it goes
        // first, then they take the bank one after another.
        let l = b.latency();
        let extra = (T_RFC + T_RC) + (T_RFC + 2 * T_RC) + (T_RFC + 3 * T_RC);
        assert_eq!(l.total_latency_cycles, 165 * T_RC + extra);
        assert_eq!(l.max_latency_cycles, T_RFC + 3 * T_RC);
        // The refresh already ran, so the Refresh command runs no second
        // one: the next interval's first demand, at 9360, waits only for
        // the spill-over to end at 9522.
        b.apply(Command::Refresh);
        b.apply(act(0, 1));
        let first = 9522 + T_RC - 9360;
        assert_eq!(b.latency().total_latency_cycles, 165 * T_RC + extra + first);
    }

    #[test]
    fn background_mitigation_yields_to_a_waiting_demand() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(act_n(0, 5)); // two activations, backlogged
        b.apply(act(0, 9)); // arrives at 54 as the bank frees: goes first
        let l = b.latency();
        assert_eq!(l.total_latency_cycles, 2 * T_RC);
        assert_eq!(l.mitigation_stall_cycles, 0);
        // The backlog issues in the idle time before the refresh.
        b.apply(Command::Refresh);
        assert_eq!(b.banks[0].backlog, 0);
        assert_eq!(b.latency().mitigation_activations, 2);
        assert_eq!(b.banks[0].clock.free_at, 9360);
    }

    #[test]
    fn a_background_activation_started_in_a_gap_delays_the_next_demand() {
        let mut b = backend();
        b.apply(act(0, 5));
        b.apply(act(0, 5)); // a hit: [54, 72), the bank idles until 108
        b.apply(act_n(0, 5));
        b.apply(act(0, 9)); // slot 2 at 108; one act_n started at 72
        let l = b.latency();
        assert_eq!(l.mitigation_stall_cycles, 72 + T_RC - 108);
        assert_eq!(l.mitigation_activations, 2);
    }

    #[test]
    fn urgent_mitigation_delays_the_next_demand_by_t_rc_per_activation() {
        let mut b = backend().with_priority(MitigationPriority::Urgent);
        b.apply(act(0, 5));
        b.apply(act_n(0, 5)); // [54, 162)
        b.apply(act(0, 9)); // arrives at 54, starts at 162
        b.apply(act(1, 9)); // another bank: unaffected
        let l = b.latency();
        assert_eq!(l.mitigation_stall_cycles, 2 * T_RC);
        assert_eq!(l.total_latency_cycles, T_RC + (2 * T_RC + T_RC) + T_RC);
        // Same-bank demands queue behind one another: slot 2 arrives
        // at 108 and starts when slot 1 is done, at 216.
        b.apply(act(0, 11));
        assert_eq!(b.latency().max_latency_cycles, 216 + T_RC - 108);
        assert_eq!(b.latency().mitigation_stall_cycles, 2 * T_RC);
    }

    #[test]
    fn urgent_mitigation_past_the_due_time_waits_for_the_refresh() {
        let mut b = backend().with_priority(MitigationPriority::Urgent);
        for row in 0..165 {
            b.apply(act(0, 1 + row % 60));
        }
        // The last demand ends at 8939; the act_n's second activation
        // would start at 8993, past the due time, so the refresh goes
        // first and the bank is free at 8993 + 420 + 54.
        b.apply(act_n(0, 1));
        b.apply(Command::Refresh);
        b.apply(act(0, 1)); // arrives at 9360
        let l = b.latency();
        assert_eq!(l.mitigation_stall_cycles, 8993 + T_RFC + T_RC - 9360);
    }
}
