//! The allocation-free steady-state contract.
//!
//! The lane-kernel architecture promises that once a mitigation's
//! working set is warm, driving batches through `on_batch`, draining
//! the [`ActionSink`] arena, and turning refresh intervals over — the
//! engine's entire decision side — performs **zero** heap allocations.
//! Every per-batch buffer is a reusable arena (`ActionSink::reset`),
//! every table reset happens in place (Graphene summaries, CAT trees,
//! CaPRoMi's drain scratch), and the per-bank RNG block refills reuse
//! one scratch lane.
//!
//! This test pins the contract with a counting global allocator: after
//! two full refresh windows of warm-up (covering every window-wrap
//! reset path), one further window must not touch the heap, for all
//! nine Table III techniques.
//!
//! The first test drives the mitigation layer directly, isolating the
//! decision side — the arena, the kernels, the interval turnover.  The
//! second drives the whole engine on every backend tier, so trace
//! delivery, replay, the aggressor ledger and device refresh are held
//! to the same contract.  Its traces are a recording and the paper mix,
//! each whole and as a bank shard, so the recording's bank lanes and the
//! mix's merge and synthesis are measured too.  Its traffic never flips
//! a bit: a flip log grows with device state, which is workload
//! physics, not engine overhead.  For the same reason the paper mix
//! skips the fast tier, whose list of each interval's touched rows
//! grows with the distinct rows per bank-interval, a count the mix's
//! ramp raises window after window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dram_sim::{BackendSpec, BankId, Geometry, RowAddr};
use tivapromi_suite::harness::{
    engine, scenario, techniques, ExperimentScale, IntervalSnapshot, Observer, RunConfig,
};
use tivapromi_suite::hwmodel::Technique;
use tivapromi_suite::tivapromi::{ActionSink, Mitigation};
use tivapromi_suite::trace::{EventBatch, ReplayTrace, TraceEvent, TraceSplit};

/// Counts every allocation and reallocation made by the measuring
/// thread; frees are not counted — the contract is "no heap traffic",
/// and a free implies a matching earlier allocation anyway.
///
/// Both the flag that arms counting and the count itself are
/// thread-local: the libtest harness runs the tests of this file on
/// concurrent threads, and an allocation from one of them landing
/// inside another's window must not fail that window's contract.  Both
/// are `const`-initialized so touching them never allocates, and
/// `try_with` falls back to not counting during TLS teardown.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_this_thread() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    }
}

/// Allocations this thread has made while counting was armed.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: the impl forwards every call to `System` verbatim and only
// bumps a thread-local counter, so it upholds `GlobalAlloc`'s contract
// exactly as `System` does.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        // SAFETY: verbatim `System` forwarding per the trait contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_this_thread();
        // SAFETY: verbatim `System` forwarding per the trait contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_this_thread();
        // SAFETY: verbatim `System` forwarding per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: verbatim `System` forwarding per the trait contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const BANKS: u32 = 4;

fn config() -> RunConfig {
    let mut config = RunConfig::paper(&ExperimentScale {
        windows: 3,
        banks: BANKS,
        seeds: 1,
    });
    config.geometry = Geometry::scaled_down(64).with_banks(BANKS);
    config
}

/// One interval's traffic: heavy hammering of a few rows per bank (so
/// counter tables, histories, trigger paths and the engine's aggressor
/// ledger are exercised) plus a benign spread, identical every interval
/// so the warm-up's high-water marks cover the measured window.
fn interval_events() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for i in 0..160u32 {
        let bank = BankId(i % BANKS);
        events.push(if i % 2 == 0 {
            // Hammered set: three aggressors per bank.
            TraceEvent::attack(bank, RowAddr(500 + i % 3))
        } else {
            // Benign spread across the bank.
            TraceEvent::benign(bank, RowAddr((i * 37) % 1024))
        });
    }
    events
}

/// Zero heap allocations per steady-state batch, for all nine
/// techniques: warm up two full windows (hitting every window-wrap
/// reset), then measure one more.
#[test]
fn steady_state_batches_never_allocate() {
    let config = config();
    let intervals_per_window = config.geometry.intervals_per_window() as u64;
    let events = interval_events();
    let mut batch = EventBatch::new();
    batch.push_interval(&events);
    let range = batch.segment(0);

    let mut total_triggers = 0u64;
    for technique in Technique::TABLE3 {
        let mut mitigation = techniques::build_any(technique, &config, 17);
        let mut sink = ActionSink::with_capacity(1024);
        let mut actions = Vec::with_capacity(1024);
        let mut triggers = 0u64;

        let mut drive_interval = |mitigation: &mut tivapromi_suite::baselines::AnyMitigation,
                                  sink: &mut ActionSink,
                                  triggers: &mut u64| {
            sink.reset();
            Mitigation::on_batch(mitigation, &batch, range.clone(), sink);
            for tag in 0..u32::try_from(events.len()).expect("event count fits u32") {
                while sink.next_for(tag).is_some() {
                    *triggers += 1;
                }
            }
            mitigation.on_refresh_interval(&mut actions);
            *triggers += actions.len() as u64;
            actions.clear();
        };

        // Warm-up: two full windows, including both window-wrap resets.
        for _ in 0..(2 * intervals_per_window) {
            drive_interval(&mut mitigation, &mut sink, &mut triggers);
        }

        // Measurement: one further window — including its wrap — must
        // be allocation-free.  Counting is armed only on this thread
        // and only for the window, so concurrent harness threads
        // cannot pollute the reading.
        COUNTING.with(|flag| flag.set(true));
        let before = allocations();
        for _ in 0..intervals_per_window {
            drive_interval(&mut mitigation, &mut sink, &mut triggers);
        }
        let after = allocations();
        COUNTING.with(|flag| flag.set(false));
        assert_eq!(
            after - before,
            0,
            "{technique:?} allocated {} times in a steady-state window",
            after - before
        );
        total_triggers += triggers;
    }
    // The contract must be proven on exercised trigger paths, not on
    // techniques idling through empty decision loops.
    assert!(total_triggers > 0, "no trigger path was exercised");
}

/// Arms the allocation counter from inside the engine loop: on at the
/// end of interval `from - 1`, off at the end of interval `to - 1`, so
/// the measured span is intervals `from..to` — trace delivery, decision,
/// replay, refresh and interval turnover — and nothing before or after.
struct WindowProbe {
    from: u64,
    to: u64,
    allocations: Option<u64>,
    before: u64,
}

impl Observer for WindowProbe {
    fn on_interval_end(&mut self, snapshot: &IntervalSnapshot) {
        let next = snapshot.interval + 1;
        if next == self.from {
            self.before = allocations();
            COUNTING.with(|flag| flag.set(true));
        } else if next == self.to {
            COUNTING.with(|flag| flag.set(false));
            self.allocations = Some(allocations() - self.before);
        }
    }
}

/// Zero heap allocations per steady-state engine window, for all nine
/// techniques on every backend tier and every trace input: two warm-up
/// windows, then one measured window of the engine.
#[test]
fn steady_state_engine_windows_never_allocate() {
    let base = config();
    let intervals_per_window = u64::from(base.geometry.intervals_per_window());
    let recorded = ReplayTrace::new(vec![
        interval_events();
        usize::try_from(base.intervals()).expect("fits")
    ]);
    let shard = BankId(1);
    // Each input: its name, whether it runs on the fast tier (see the
    // module docs), and its trace for a configuration.
    type Input<'a> = (&'a str, bool, &'a dyn Fn(&RunConfig) -> Box<dyn TraceSplit>);
    let inputs: [Input; 4] = [
        ("recording", true, &|_| Box::new(recorded.clone())),
        ("recording shard", true, &|_| recorded.bank_shard(shard)),
        ("paper mix", false, &|config| {
            Box::new(scenario::paper_mix(config, 5))
        }),
        ("paper mix shard", false, &|config| {
            scenario::paper_mix(config, 5).bank_shard(shard)
        }),
    ];
    for backend in BackendSpec::ALL {
        let config = base.clone().with_backend(backend);
        for (input, on_fast, trace) in inputs {
            if backend == BackendSpec::Fast && !on_fast {
                continue;
            }
            let mut triggers = 0;
            for technique in Technique::TABLE3 {
                let mut mitigation = techniques::build_any(technique, &config, 17);
                let mut probe = WindowProbe {
                    from: 2 * intervals_per_window,
                    to: 3 * intervals_per_window,
                    allocations: None,
                    before: 0,
                };
                let metrics =
                    engine::run_observed(trace(&config), &mut mitigation, &config, &mut probe);
                assert_eq!(metrics.intervals, 3 * intervals_per_window);
                assert_eq!(
                    metrics.flips, 0,
                    "{technique:?} on {backend}, {input}: traffic must not flip"
                );
                assert_eq!(
                    probe.allocations,
                    Some(0),
                    "{technique:?} on {backend}, {input}: allocations in a steady-state engine window"
                );
                triggers += metrics.trigger_events;
            }
            assert!(
                triggers > 0,
                "{backend}, {input}: no trigger path was exercised"
            );
        }
    }
}
