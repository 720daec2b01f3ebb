//! Concurrency model check for the worker pool's two-level scheduler.
//!
//! The determinism suite (`tests/determinism.rs`) proves sequential ≡
//! sharded ≡ batched on *sampled* schedules — whatever interleavings
//! the OS happens to produce.  This test closes the gap: it models
//! [`rh_harness::parallel::TwoLevelDispatcher`]'s claim protocol and
//! the in-order hand-over of [`rh_harness::parallel::run_in_order`] as
//! a small state machine and lets the vendored `interleave` explorer
//! run **every** interleaving of 2–3 workers over 1–3 devices × 1–3
//! jobs, asserting on each terminal state
//!
//! 1. device-claim uniqueness: the outer FIFO hands each device to
//!    exactly one owner;
//! 2. job exclusivity across owners *and* thieves: every
//!    `(device, job)` is dispatched exactly once — the property the
//!    `Ordering::Relaxed` audit in `src/parallel.rs` rests on;
//! 3. no cross-device slot leakage, and that handing devices over in
//!    index order (each device's results merged in job order, devices
//!    folded in index order) matches the sequential reference under
//!    every completion order.
//!
//! The one-device shapes are [`rh_harness::parallel::map_workers`]'
//! case: the owner and every thief draw from one inner cursor.  A
//! negative model seeds a stale device cursor — the outer claim split
//! into read and write-back — and proves the explorer catches a device
//! owned by two workers, so the green runs are evidence and not
//! vacuity.

use dram_sim::{BankId, RowAddr};
use interleave::{any_schedule, explore, Model};
use rh_harness::metrics::{FlipRecord, RunMetrics};

/// Per-job metrics fixture: distinct counters per index plus staggered
/// `Option` firsts so the min-over-`Option` legs of the merge algebra
/// are exercised, not just the sums.
fn job_metrics(index: usize) -> RunMetrics {
    let i = index as u64;
    RunMetrics {
        technique: "model".to_string(),
        workload_activations: 10 * (i + 1),
        aggressor_activations: 3 * i,
        mitigation_activations: i,
        trigger_events: i % 3,
        false_positive_events: i % 2,
        flips: index % 2,
        max_disturbance: u32::try_from(100 + 7 * i).expect("small fixture"),
        flip_threshold: 1000,
        first_trigger_act: if index.is_multiple_of(2) {
            Some(50 - i)
        } else {
            None
        },
        time_to_first_flip: if index >= 3 { Some(90 - i) } else { None },
        flip_log: if index % 2 == 1 {
            vec![FlipRecord {
                bank: BankId(u32::try_from(index).expect("small fixture")),
                row: RowAddr(200),
                interval: 90 - i,
                bank_act: 90 - i,
            }]
        } else {
            Vec::new()
        },
        storage_bytes_per_bank: 8.0,
        intervals: 5 + i,
        timeseries: None,
        cycle: None,
    }
}

/// Per-(device, job) metrics fixture.  The `device * 10` stride keeps
/// every device's jobs disjoint from every other's, so a claim leaking
/// across devices produces a *different* `RunMetrics` and is caught by
/// the slot assertion, not just by counters.
fn device_job_metrics(device: usize, job: usize) -> RunMetrics {
    job_metrics(device * 10 + job)
}

/// The sequential reference: each device's jobs merged in job (bank)
/// order, devices folded in index order with the population merge —
/// exactly what the in-order hand-over must reproduce under every
/// schedule.
fn fleet_sequential(counts: &[usize]) -> RunMetrics {
    counts
        .iter()
        .enumerate()
        .map(|(d, &c)| {
            (0..c)
                .map(|j| device_job_metrics(d, j))
                .reduce(RunMetrics::merge)
                .expect("every device has at least one job")
        })
        .reduce(RunMetrics::merge_population)
        .expect("at least one device")
}

/// Replays the pool's hand-over over one completion order: each
/// finished job fills its `(device, job)` slot, and the devices whose
/// jobs are all in are handed over strictly in index order — their
/// slots merged in job order, then folded with the population merge.
/// Mirrors `run_in_order` and the fleet's fold on top of it.
fn in_order_fold(counts: &[usize], arrivals: &[(usize, usize)]) -> RunMetrics {
    let mut slots: Vec<Vec<Option<RunMetrics>>> = counts.iter().map(|&c| vec![None; c]).collect();
    let mut remaining = counts.to_vec();
    let mut next = 0usize;
    let mut folded: Option<RunMetrics> = None;
    for &(d, j) in arrivals {
        assert!(slots[d][j].is_none(), "job ({d}, {j}) arrived twice");
        slots[d][j] = Some(device_job_metrics(d, j));
        remaining[d] -= 1;
        while next < counts.len() && remaining[next] == 0 {
            let device = slots[next]
                .drain(..)
                .map(|slot| slot.expect("every job of a handed-over device has run"))
                .reduce(RunMetrics::merge)
                .expect("every device has at least one job");
            folded = Some(match folded.take() {
                Some(acc) => acc.merge_population(device),
                None => device,
            });
            next += 1;
        }
    }
    assert_eq!(next, counts.len(), "every device handed over in order");
    folded.expect("at least one device")
}

#[derive(Clone)]
struct FleetWorker {
    /// Owned device (`WorkerCursor::device`).
    device: Option<usize>,
    /// Broken-variant staging: an outer cursor value read but not yet
    /// written back.  Always `None` in the sound model.
    staged_outer: Option<usize>,
    done: bool,
}

#[derive(Clone)]
struct FleetState {
    /// Outer device cursor (`device_cursor`).
    outer: usize,
    /// Inner job cursor per device (`job_cursors`).
    inner: Vec<usize>,
    /// Times each device was handed out by the outer claim; the sound
    /// model must end with every entry exactly 1.
    owners: Vec<u32>,
    /// Dispatch count per (device, job).
    dispatched: Vec<Vec<u32>>,
    /// Claim order — the completion order the hand-over replays.
    arrivals: Vec<(usize, usize)>,
    workers: Vec<FleetWorker>,
}

/// Models `TwoLevelDispatcher::claim` at atomic-operation granularity:
/// the own-device inner `fetch_add`, the outer `fetch_add`, and the
/// steal sweep are separate steps, so claims by owners and thieves
/// interleave freely.  The sweep's consecutive inner `fetch_add`s are
/// coalesced into one step — every modeled schedule is still a real
/// schedule (the sweep run without interruption), it only trims the
/// state space under the explorer's interleaving guard.
struct TwoLevelModel {
    workers: usize,
    counts: Vec<usize>,
}

impl TwoLevelModel {
    fn record_claim(&self, state: &mut FleetState, device: usize, job: usize) {
        state.dispatched[device][job] += 1;
        state.arrivals.push((device, job));
    }

    /// One inner `fetch_add` on `device`: returns the claimed job, or
    /// `None` with the cursor advanced past the end.
    fn claim_job(&self, state: &mut FleetState, device: usize) -> Option<usize> {
        let job = state.inner[device];
        state.inner[device] += 1;
        (job < self.counts[device]).then_some(job)
    }

    /// The steal sweep plus termination, entered once the outer cursor
    /// is exhausted.
    fn sweep(&self, state: &mut FleetState, t: usize) {
        for device in 0..self.counts.len() {
            if let Some(job) = self.claim_job(state, device) {
                self.record_claim(state, device, job);
                return;
            }
        }
        state.workers[t].done = true;
    }
}

impl Model for TwoLevelModel {
    type State = FleetState;

    fn initial(&self) -> FleetState {
        FleetState {
            outer: 0,
            inner: vec![0; self.counts.len()],
            owners: vec![0; self.counts.len()],
            dispatched: self.counts.iter().map(|&c| vec![0; c]).collect(),
            arrivals: Vec::new(),
            workers: vec![
                FleetWorker {
                    device: None,
                    staged_outer: None,
                    done: false,
                };
                self.workers
            ],
        }
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn runnable(&self, state: &FleetState, t: usize) -> bool {
        !state.workers[t].done
    }

    fn step(&self, state: &mut FleetState, t: usize) {
        if let Some(device) = state.workers[t].device {
            // Level 1a: one inner fetch_add on the owned device.
            match self.claim_job(state, device) {
                Some(job) => self.record_claim(state, device, job),
                None => state.workers[t].device = None,
            }
        } else {
            // Level 1b: one outer fetch_add; exhausted, fall through to
            // the steal sweep (level 2) in the same claim call.
            let device = state.outer;
            state.outer += 1;
            if device < self.counts.len() {
                state.owners[device] += 1;
                state.workers[t].device = Some(device);
            } else {
                self.sweep(state, t);
            }
        }
    }

    fn check(&self, state: &FleetState, schedule: &[usize]) {
        // 1. Device-claim uniqueness: the outer FIFO handed every
        // device to exactly one owner.
        for (device, &owners) in state.owners.iter().enumerate() {
            assert_eq!(
                owners, 1,
                "device {device} owned {owners}× under {schedule:?}"
            );
        }
        // 2. Job exclusivity across owners and thieves: every
        // (device, job) dispatched exactly once.
        for (device, jobs) in state.dispatched.iter().enumerate() {
            for (job, &count) in jobs.iter().enumerate() {
                assert_eq!(
                    count, 1,
                    "job ({device}, {job}) dispatched {count}× under {schedule:?}"
                );
            }
        }
        // 3. No cross-device leakage + in-order hand-over: the fold over
        // this schedule's completion order (slot identity checked
        // inside) equals the sequential fleet reference.
        assert_eq!(
            in_order_fold(&self.counts, &state.arrivals),
            fleet_sequential(&self.counts),
            "fleet merge diverged under {schedule:?}"
        );
    }
}

#[test]
fn two_level_scheduler_sound_under_every_interleaving() {
    // Device shapes from the pool's real operating points: one device
    // (`map_workers`, where every worker but the owner steals), and
    // uneven shard counts so owners drain at different times and the
    // steal phase genuinely fires.
    for (workers, counts) in [
        (2, vec![3]),
        (3, vec![2]),
        (2, vec![2, 2]),
        (2, vec![3, 1]),
        (2, vec![1, 2, 1]),
        (3, vec![1, 2]),
        (3, vec![2, 1, 1]),
    ] {
        let stats = explore(&TwoLevelModel {
            workers,
            counts: counts.clone(),
        });
        assert!(
            stats.interleavings > 1,
            "exploration degenerate for {workers}w/{counts:?}"
        );
        println!(
            "two-level model ok: {workers} workers, devices {counts:?}: \
             {} interleavings, {} steps, depth {}",
            stats.interleavings, stats.steps, stats.max_depth
        );
    }
}

/// The seeded bug: a stale device cursor.  The outer claim is split
/// into an unsynchronized *read* step and a *write-back* step, as if
/// `device_cursor` were a plain variable instead of a `fetch_add` —
/// two workers can read the same cursor value and both take ownership
/// of that device.
struct StaleDeviceCursorModel {
    inner: TwoLevelModel,
}

impl Model for StaleDeviceCursorModel {
    type State = FleetState;

    fn initial(&self) -> FleetState {
        self.inner.initial()
    }

    fn threads(&self) -> usize {
        self.inner.workers
    }

    fn runnable(&self, state: &FleetState, t: usize) -> bool {
        !state.workers[t].done
    }

    fn step(&self, state: &mut FleetState, t: usize) {
        if let Some(device) = state.workers[t].device {
            match self.inner.claim_job(state, device) {
                Some(job) => self.inner.record_claim(state, device, job),
                None => state.workers[t].device = None,
            }
        } else if let Some(device) = state.workers[t].staged_outer.take() {
            // Step 2 of the broken claim: write back the advanced
            // cursor.  Another worker may have staged the same value.
            state.outer = device + 1;
            if device < self.inner.counts.len() {
                state.owners[device] += 1;
                state.workers[t].device = Some(device);
            } else {
                self.inner.sweep(state, t);
            }
        } else {
            // Step 1 of the broken claim: unsynchronized read.
            state.workers[t].staged_outer = Some(state.outer);
        }
    }

    fn check(&self, _state: &FleetState, _schedule: &[usize]) {
        // Verdicts are taken via `any_schedule` predicates instead.
    }
}

#[test]
fn model_checker_catches_stale_device_cursor() {
    let broken = StaleDeviceCursorModel {
        inner: TwoLevelModel {
            workers: 2,
            counts: vec![2, 2],
        },
    };
    // The explorer must surface a schedule where some device is owned
    // by two workers — the device-claim uniqueness violation the outer
    // fetch_add rules out.  If this stops failing, the positive
    // two-level test above is vacuous.
    assert!(
        any_schedule(&broken, |s| s.owners.iter().any(|&c| c > 1)),
        "explorer failed to find the duplicate device owner in the broken model"
    );
    // Under the single-threaded schedule the broken model still works,
    // so the defect really is an interleaving bug, not a modeling bug.
    assert!(any_schedule(&broken, |s| {
        s.owners.iter().all(|&c| c == 1) && s.dispatched.iter().flatten().all(|&c| c == 1)
    }));
}
