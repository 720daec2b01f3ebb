//! A cycle-level memory-controller model — the integration point of
//! Fig. 1.
//!
//! The paper's mitigations live *next to* the controller: they observe
//! `act`/`ref`, and when they want an extra activation they raise
//! `IRQ_RH`, which the controller buffers while `wait` is high and
//! arbitrates against demand traffic.  The activation-count overhead of
//! Fig. 4 only becomes a *performance* cost through this arbitration:
//! every mitigation activation occupies a bank for `tRC` and delays
//! queued demand requests.  This model makes that cost measurable.
//!
//! Scope: a single-channel FCFS controller with per-bank state machines
//! honoring `tRC` (activate-to-activate, same bank), `tRFC` (refresh)
//! and `tREFI` (refresh cadence), a closed-page policy (every request is
//! an activation — the stream the row-hammer model cares about), and a
//! mitigation queue with lower priority than refresh but configurable
//! priority against demand reads.

use crate::{BankId, DramTiming, Geometry, RowAddr};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Arbitration priority of buffered mitigation activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationPriority {
    /// Mitigation activations yield to demand requests (issued only on
    /// idle bank cycles) — the Fig. 1 buffer-and-wait behaviour.
    Background,
    /// Mitigation activations are issued ahead of demand requests —
    /// bounded staleness, higher demand latency.
    Urgent,
}

/// Controller configuration, derived from a [`DramTiming`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Activate-to-activate time per bank, in controller cycles (tRC).
    pub t_rc: u64,
    /// Refresh execution time, in cycles (tRFC) — all banks blocked.
    pub t_rfc: u64,
    /// Refresh cadence, in cycles (tREFI).
    pub t_refi: u64,
    /// Mitigation arbitration priority.
    pub priority: MitigationPriority,
}

impl ControllerConfig {
    /// Derives cycle counts from a timing set (DDR4: tRC 54, tRFC 420,
    /// tREFI 9360 cycles at 1.2 GHz).
    #[allow(
        clippy::cast_possible_truncation,
        reason = "cycle counts derived from ns-scale timings are small positive integers; the rounded float always fits u64"
    )]
    pub fn from_timing(timing: &DramTiming) -> Self {
        let cycles_per_ns = timing.frequency_ghz;
        ControllerConfig {
            t_rc: (timing.act_to_act_ns * cycles_per_ns).round() as u64,
            t_rfc: (timing.refresh_time_ns * cycles_per_ns).round() as u64,
            t_refi: (timing.refresh_interval_us * 1000.0 * cycles_per_ns).round() as u64,
            priority: MitigationPriority::Background,
        }
    }

    /// Returns a copy with the given mitigation priority.
    pub fn with_priority(mut self, priority: MitigationPriority) -> Self {
        self.priority = priority;
        self
    }
}

/// A demand memory request (one activation under the closed-page
/// policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Target bank.
    pub bank: BankId,
    /// Target row.
    pub row: RowAddr,
    /// Cycle the request entered the controller queue.
    pub arrival_cycle: u64,
}

/// Latency statistics of completed demand requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Completed demand requests.
    pub completed: u64,
    /// Sum of queueing+service latencies, in cycles.
    pub total_latency_cycles: u64,
    /// Worst single-request latency, in cycles.
    pub max_latency_cycles: u64,
    /// Mitigation activations issued.
    pub mitigation_activations: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Cycles any demand request was stalled behind a mitigation
    /// activation occupying its bank.
    pub mitigation_stall_cycles: u64,
}

impl LatencyStats {
    /// Mean demand latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.completed as f64
        }
    }
}

/// Per-bank availability tracking.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// First cycle the bank can accept another activation.
    ready_at: u64,
    /// If the bank is currently busy on a mitigation activation, when it
    /// started (for stall attribution).
    busy_on_mitigation_until: u64,
}

/// The single-channel FCFS controller.
///
/// ```
/// use dram_sim::controller::{ControllerConfig, MemoryController, Request};
/// use dram_sim::{BankId, DramTiming, Geometry, RowAddr};
///
/// let config = ControllerConfig::from_timing(&DramTiming::ddr4());
/// let mut mc = MemoryController::new(Geometry::paper(), config);
/// mc.enqueue_demand(Request { bank: BankId(0), row: RowAddr(5), arrival_cycle: 0 });
/// mc.run_until(1000);
/// assert_eq!(mc.stats().completed, 1);
/// ```
#[derive(Debug)]
pub struct MemoryController {
    config: ControllerConfig,
    banks: Vec<BankState>,
    demand: VecDeque<Request>,
    /// Buffered `act_n` requests from the mitigation (Fig. 1's
    /// TiVaPRoMi buffer): each entry is one neighbor activation.
    mitigation: VecDeque<(BankId, RowAddr)>,
    cycle: u64,
    next_refresh: u64,
    stats: LatencyStats,
    /// Completed activations in issue order (bank, row, cycle) for
    /// co-simulation with the disturbance model.
    issued: Vec<(BankId, RowAddr, u64)>,
    record_issued: bool,
}

impl MemoryController {
    /// Creates an idle controller.
    pub fn new(geometry: Geometry, config: ControllerConfig) -> Self {
        MemoryController {
            banks: vec![BankState::default(); geometry.banks() as usize],
            demand: VecDeque::new(),
            mitigation: VecDeque::new(),
            cycle: 0,
            next_refresh: config.t_refi,
            config,
            stats: LatencyStats::default(),
            issued: Vec::new(),
            record_issued: false,
        }
    }

    /// Enables recording of every issued activation (for co-simulation;
    /// costs memory proportional to the run length).
    pub fn record_issued(&mut self, enable: bool) {
        self.record_issued = enable;
    }

    /// Queues a demand request.  `arrival_cycle` may be in the future;
    /// the request is not visible to arbitration before it.
    pub fn enqueue_demand(&mut self, request: Request) {
        self.demand.push_back(request);
    }

    /// Queues one mitigation activation (one neighbor of an `act_n`).
    pub fn enqueue_mitigation(&mut self, bank: BankId, row: RowAddr) {
        self.mitigation.push_back((bank, row));
    }

    /// Number of queued (not yet issued) mitigation activations.
    pub fn mitigation_backlog(&self) -> usize {
        self.mitigation.len()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LatencyStats {
        self.stats
    }

    /// Issued activations, if recording was enabled.
    pub fn issued(&self) -> &[(BankId, RowAddr, u64)] {
        &self.issued
    }

    fn issue_refresh(&mut self) {
        // All banks are blocked for tRFC.
        let until = self.cycle + self.config.t_rfc;
        for bank in &mut self.banks {
            bank.ready_at = bank.ready_at.max(until);
        }
        self.stats.refreshes += 1;
        self.next_refresh += self.config.t_refi;
    }

    fn try_issue_mitigation(&mut self) -> bool {
        if let Some(&(bank, row)) = self.mitigation.front() {
            let state = &mut self.banks[bank.index()];
            if state.ready_at <= self.cycle {
                state.ready_at = self.cycle + self.config.t_rc;
                state.busy_on_mitigation_until = state.ready_at;
                self.stats.mitigation_activations += 1;
                if self.record_issued {
                    self.issued.push((bank, row, self.cycle));
                }
                self.mitigation.pop_front();
                return true;
            }
        }
        false
    }

    fn try_issue_demand(&mut self) -> bool {
        // First-ready, first-come-first-served (FR-FCFS style): the
        // oldest request whose bank is free issues; a blocked head does
        // not stall independent banks.  The scan window bounds the
        // scheduler's associativity like a real command queue.
        const SCHEDULER_WINDOW: usize = 16;
        let mut head_stalled_on_mitigation = false;
        let mut pick: Option<usize> = None;
        for (i, request) in self.demand.iter().take(SCHEDULER_WINDOW).enumerate() {
            if request.arrival_cycle > self.cycle {
                // Arrivals are FCFS-ordered: nothing later is here yet.
                break;
            }
            let state = &self.banks[request.bank.index()];
            if state.ready_at <= self.cycle {
                pick = Some(i);
                break;
            }
            if i == 0 && state.busy_on_mitigation_until > self.cycle {
                head_stalled_on_mitigation = true;
            }
        }
        if let Some(i) = pick {
            let request = self.demand.remove(i).expect("picked index is valid");
            let state = &mut self.banks[request.bank.index()];
            state.ready_at = self.cycle + self.config.t_rc;
            // Latency: from arrival to the end of the activation.
            let latency = self.cycle + self.config.t_rc - request.arrival_cycle;
            self.stats.completed += 1;
            self.stats.total_latency_cycles += latency;
            self.stats.max_latency_cycles = self.stats.max_latency_cycles.max(latency);
            if self.record_issued {
                self.issued.push((request.bank, request.row, self.cycle));
            }
            return true;
        }
        if head_stalled_on_mitigation {
            self.stats.mitigation_stall_cycles += 1;
        }
        false
    }

    /// Advances one cycle: refresh first (mandatory cadence), then the
    /// configured arbitration between mitigation and demand.
    pub fn step(&mut self) {
        if self.cycle >= self.next_refresh {
            self.issue_refresh();
        }
        match self.config.priority {
            MitigationPriority::Urgent => {
                if !self.try_issue_mitigation() {
                    self.try_issue_demand();
                }
            }
            MitigationPriority::Background => {
                if !self.try_issue_demand() {
                    self.try_issue_mitigation();
                }
            }
        }
        self.cycle += 1;
    }

    /// Runs until `cycle` (exclusive).
    pub fn run_until(&mut self, cycle: u64) {
        while self.cycle < cycle {
            self.step();
        }
    }

    /// Runs until both queues are drained (and at least to `min_cycle`).
    pub fn drain(&mut self, min_cycle: u64) {
        while self.cycle < min_cycle || !self.demand.is_empty() || !self.mitigation.is_empty() {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemoryController {
        let config = ControllerConfig::from_timing(&DramTiming::ddr4());
        MemoryController::new(Geometry::paper().with_banks(4), config)
    }

    #[test]
    fn config_from_ddr4_timing() {
        let c = ControllerConfig::from_timing(&DramTiming::ddr4());
        assert_eq!(c.t_rc, 54);
        assert_eq!(c.t_rfc, 420);
        assert_eq!(c.t_refi, 9360);
    }

    #[test]
    fn single_request_completes_in_t_rc() {
        let mut mc = controller();
        mc.enqueue_demand(Request {
            bank: BankId(0),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.drain(0);
        let s = mc.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.total_latency_cycles, 54);
    }

    #[test]
    fn same_bank_requests_serialize_at_t_rc() {
        let mut mc = controller();
        for _ in 0..3 {
            mc.enqueue_demand(Request {
                bank: BankId(0),
                row: RowAddr(1),
                arrival_cycle: 0,
            });
        }
        mc.drain(0);
        let s = mc.stats();
        assert_eq!(s.completed, 3);
        // Completions at 54, 108, 162 → latencies 54 + 108 + 162.
        assert_eq!(s.total_latency_cycles, 54 + 108 + 162);
        assert_eq!(s.max_latency_cycles, 162);
    }

    #[test]
    fn refresh_blocks_all_banks() {
        let mut mc = controller();
        // Arrive exactly at the refresh cadence.
        mc.enqueue_demand(Request {
            bank: BankId(1),
            row: RowAddr(1),
            arrival_cycle: 9360,
        });
        mc.drain(0);
        let s = mc.stats();
        assert_eq!(s.refreshes, 1);
        // The request waits out tRFC: latency = 420 + 54 (approximately;
        // the refresh issues at cycle 9360, bank free at 9780).
        assert_eq!(s.total_latency_cycles, 420 + 54);
    }

    #[test]
    fn background_mitigation_yields_to_demand() {
        let config = ControllerConfig::from_timing(&DramTiming::ddr4());
        let mut mc = MemoryController::new(Geometry::paper().with_banks(4), config);
        mc.enqueue_mitigation(BankId(0), RowAddr(9));
        mc.enqueue_demand(Request {
            bank: BankId(0),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.drain(0);
        let s = mc.stats();
        // Demand went first: latency exactly tRC.
        assert_eq!(s.total_latency_cycles, 54);
        assert_eq!(s.mitigation_activations, 1);
    }

    #[test]
    fn urgent_mitigation_delays_demand() {
        let config = ControllerConfig::from_timing(&DramTiming::ddr4())
            .with_priority(MitigationPriority::Urgent);
        let mut mc = MemoryController::new(Geometry::paper().with_banks(4), config);
        mc.enqueue_mitigation(BankId(0), RowAddr(9));
        mc.enqueue_demand(Request {
            bank: BankId(0),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.drain(0);
        let s = mc.stats();
        // Demand waited for the mitigation activation: 54 + 54.
        assert_eq!(s.total_latency_cycles, 108);
        assert!(s.mitigation_stall_cycles > 0);
    }

    #[test]
    fn different_banks_proceed_back_to_back() {
        let mut mc = controller();
        mc.enqueue_demand(Request {
            bank: BankId(0),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.enqueue_demand(Request {
            bank: BankId(1),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.drain(0);
        let s = mc.stats();
        // Second request issues one cycle later (command bus), not tRC.
        assert_eq!(s.total_latency_cycles, 54 + 55);
    }

    #[test]
    fn issued_recording_captures_order() {
        let mut mc = controller();
        mc.record_issued(true);
        mc.enqueue_mitigation(BankId(2), RowAddr(7));
        mc.enqueue_demand(Request {
            bank: BankId(0),
            row: RowAddr(1),
            arrival_cycle: 0,
        });
        mc.drain(0);
        let issued = mc.issued();
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[0].0, BankId(0)); // demand first (background prio)
        assert_eq!(issued[1].0, BankId(2));
    }

    #[test]
    fn backlog_reports_pending_mitigations() {
        let mut mc = controller();
        mc.enqueue_mitigation(BankId(0), RowAddr(1));
        mc.enqueue_mitigation(BankId(0), RowAddr(3));
        assert_eq!(mc.mitigation_backlog(), 2);
        mc.drain(0);
        assert_eq!(mc.mitigation_backlog(), 0);
    }
}
