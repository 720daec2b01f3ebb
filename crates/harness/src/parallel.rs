//! The worker pool behind multi-seed sweeps, bank-sharded runs and
//! fleet campaigns.
//!
//! The simulator itself is single-threaded per run; the harness
//! parallelises across independent jobs — experiment grids (one device
//! per cell, one job per seed), per-bank shards and fleet devices —
//! with plain `std::thread` scoped threads, so no extra dependencies
//! are needed.
//!
//! There is one pool, [`run_in_order`].  Its jobs are grouped into
//! *devices*: workers claim `(device, job)` pairs from a lock-free
//! [`TwoLevelDispatcher`], and the calling thread hands each device's
//! results, in job order, to a callback strictly in device order — so
//! whatever the schedule, the caller folds results in one canonical
//! order.  [`map_workers`] and [`map`] are its one-device case: one
//! device whose jobs are the inputs, handed over once, in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// The number of worker threads [`map`] uses: the `RH_WORKERS`
/// environment variable if [`parse_workers`] accepts it, otherwise
/// `std::thread::available_parallelism`.
pub fn available_workers() -> usize {
    parse_workers(std::env::var("RH_WORKERS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The worker count an `RH_WORKERS` value asks for: a positive integer,
/// surrounding whitespace allowed.  Unset, zero or unparsable values
/// give `None`, which means auto-detect.
pub fn parse_workers(value: Option<&str>) -> Option<usize> {
    value?.trim().parse().ok().filter(|&n| n > 0)
}

/// Worker-local cursor state for [`TwoLevelDispatcher`]: the device the
/// worker currently owns, if any.
///
/// Keeping the affinity worker-local (instead of inside the dispatcher)
/// means claiming from the owned device is a single inner `fetch_add`
/// with no shared scheduler state beyond the cursors themselves.
#[derive(Debug, Default)]
pub struct WorkerCursor {
    device: Option<usize>,
}

impl WorkerCursor {
    /// A fresh cursor owning no device.
    pub fn new() -> Self {
        WorkerCursor::default()
    }

    /// The device this worker currently claims jobs from, if any.
    pub fn device(&self) -> Option<usize> {
        self.device
    }
}

/// The two-level work-stealing scheduler behind [`run_in_order`]: an
/// outer FIFO cursor hands whole *devices* to workers, and each device
/// has an inner cursor handing out its *jobs* (a fleet device's bank
/// shards, or the inputs of a one-device [`map_workers`] call).
///
/// Claim protocol, per [`TwoLevelDispatcher::claim`] call:
///
/// 1. **Own device first** — if the worker owns a device, claim its
///    next job with one inner `fetch_add` (device affinity keeps a
///    device's bank shards on one worker while the fleet is wide).
/// 2. **Fresh device next** — otherwise claim the next unclaimed
///    device from the outer cursor (`fetch_add`, FIFO in device
///    order), so at most one worker ever *owns* a given device.
/// 3. **Steal last** — when the outer cursor is exhausted, scan the
///    devices in ascending order and steal leftover jobs directly
///    from their inner cursors, so the tail of a campaign (a few big
///    devices still in flight) is finished by every idle worker
///    instead of serialising on the owners.  With one device this is
///    how every worker but the owner takes its jobs.
///
/// Every job index is handed out by exactly one inner `fetch_add`, so
/// claim uniqueness needs only RMW atomicity, at any memory ordering,
/// whether the claimer is the device's owner or a thief.  The model
/// check in `tests/model_check.rs` verifies the protocol (device-claim
/// uniqueness, job exclusivity, in-order release) under every
/// interleaving of 2–3 workers, including the steal phase and the
/// one-device shapes.
#[derive(Debug)]
pub struct TwoLevelDispatcher {
    /// Outer cursor: next unowned device.
    device_cursor: AtomicUsize,
    /// Inner cursor per device: next unclaimed job of that device.
    job_cursors: Vec<AtomicUsize>,
    /// Job count per device.
    job_counts: Vec<usize>,
}

impl TwoLevelDispatcher {
    /// A dispatcher over `job_counts.len()` devices, device `d` having
    /// `job_counts[d]` jobs.
    pub fn new(job_counts: Vec<usize>) -> Self {
        TwoLevelDispatcher {
            device_cursor: AtomicUsize::new(0),
            job_cursors: job_counts.iter().map(|_| AtomicUsize::new(0)).collect(),
            job_counts,
        }
    }

    /// Total jobs across all devices.
    pub fn total_jobs(&self) -> usize {
        self.job_counts.iter().sum()
    }

    /// Claims one job of `device`, or `None` when its jobs are gone.
    ///
    /// Memory-ordering audit: `Relaxed` is sufficient, not an
    /// optimisation gamble.  Claim uniqueness needs only the
    /// *atomicity* of the read-modify-write — all RMWs on one atomic
    /// observe a single total modification order, so no two workers can
    /// ever receive the same job index, at any ordering.  The cursors
    /// order no other memory: [`run_in_order`]'s job inputs are
    /// published before `thread::scope` spawns the workers (spawn
    /// synchronizes-with thread start), and each result travels through
    /// a `Mutex` slot the worker unlocks before it reports the job done
    /// over a channel, so those are the happens-before edges the data
    /// rides on.
    fn claim_job(&self, device: usize) -> Option<(usize, usize)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "Relaxed: the RMW total order alone hands each (device, job) index out exactly once"
        )]
        let job = self.job_cursors[device].fetch_add(1, Ordering::Relaxed);
        (job < self.job_counts[device]).then_some((device, job))
    }

    /// Claims the next `(device, job)` pair for a worker, or `None`
    /// when the whole fleet is drained.
    pub fn claim(&self, cursor: &mut WorkerCursor) -> Option<(usize, usize)> {
        loop {
            // Level 1a: the worker's own device.
            if let Some(device) = cursor.device {
                if let Some(claim) = self.claim_job(device) {
                    return Some(claim);
                }
                cursor.device = None;
            }
            // Level 1b: own a fresh device (FIFO in device order).
            #[expect(
                clippy::disallowed_methods,
                reason = "Relaxed: as in `claim_job`, RMW atomicity alone gives each device index at most one owner"
            )]
            let device = self.device_cursor.fetch_add(1, Ordering::Relaxed);
            if device < self.job_counts.len() {
                cursor.device = Some(device);
                continue;
            }
            // Level 2: steal leftover jobs from in-flight devices, in
            // ascending device order.  The inner fetch_add makes the
            // steal race-free against the owner: whichever side claims
            // a job index first owns it exclusively.
            for device in 0..self.job_counts.len() {
                if let Some(claim) = self.claim_job(device) {
                    return Some(claim);
                }
            }
            return None;
        }
    }
}

/// Runs `job(device, index)` for every job of every device on up to
/// `workers` threads, and hands each device's results, in job order, to
/// `on_device` on the calling thread, strictly in device order.
///
/// Device `d` has `job_counts[d]` jobs; a device without jobs is handed
/// over, with no results, in its turn.  Workers claim jobs from a
/// [`TwoLevelDispatcher`], so a device that finishes early waits until
/// every device before it has been handed over.  `on_device` thus sees
/// the same calls at every worker count and schedule, and can fold
/// results while later devices are still running.
///
/// `workers == 0` means [`available_workers`].  With one worker (or one
/// job) everything runs inline on the calling thread.  A panicking job
/// panics the caller.
///
/// ```
/// use rh_harness::parallel::run_in_order;
/// let mut sums = Vec::new();
/// run_in_order(&[2, 0, 3], 2, |device, job| 10 * device + job, |device, results| {
///     sums.push((device, results.iter().sum::<usize>()));
/// });
/// assert_eq!(sums, vec![(0, 1), (1, 0), (2, 63)]);
/// ```
pub fn run_in_order<O, F, G>(job_counts: &[usize], workers: usize, job: F, mut on_device: G)
where
    O: Send,
    F: Fn(usize, usize) -> O + Sync,
    G: FnMut(usize, Vec<O>),
{
    // One result slot per job, grouped by device.
    let slots: Vec<Vec<Mutex<Option<O>>>> = job_counts
        .iter()
        .map(|&jobs| (0..jobs).map(|_| Mutex::new(None)).collect())
        .collect();
    run_in_order_erased(
        job_counts,
        workers,
        &|device, index| {
            let result = job(device, index);
            *slots[device][index].lock().expect("result slot") = Some(result);
        },
        &mut |device| {
            let results = slots[device]
                .iter()
                .map(|slot| {
                    slot.lock()
                        .expect("result slot")
                        .take()
                        .expect("every job of a handed-over device has run")
                })
                .collect();
            on_device(device, results);
        },
    );
}

/// The pool behind [`run_in_order`], kept free of the result type so
/// every caller shares one copy of it: `job` runs one job and stores its
/// result, and `release` is called once per device, in device order,
/// after all of that device's jobs have run.
fn run_in_order_erased(
    job_counts: &[usize],
    workers: usize,
    job: &(dyn Fn(usize, usize) + Sync),
    release: &mut dyn FnMut(usize),
) {
    let total: usize = job_counts.iter().sum();
    let workers = if workers == 0 {
        available_workers()
    } else {
        workers
    }
    .min(total);
    if workers <= 1 {
        for (device, &jobs) in job_counts.iter().enumerate() {
            for index in 0..jobs {
                job(device, index);
            }
            release(device);
        }
        return;
    }

    let dispatcher = TwoLevelDispatcher::new(job_counts.to_vec());
    let mut remaining = job_counts.to_vec();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let dispatcher = &dispatcher;
            scope.spawn(move || {
                let mut cursor = WorkerCursor::new();
                while let Some((device, index)) = dispatcher.claim(&mut cursor) {
                    job(device, index);
                    done_tx
                        .send(device)
                        .expect("the receiver outlives the workers");
                }
            });
        }
        drop(done_tx);
        // Hand devices over in device order as their last jobs report
        // in; a device that finishes early waits for those before it.
        let mut next = 0;
        loop {
            while next < remaining.len() && remaining[next] == 0 {
                release(next);
                next += 1;
            }
            if next == remaining.len() {
                break;
            }
            // Every worker gone with jobs outstanding means one of them
            // panicked; the scope re-raises that panic on return.
            let Ok(device) = done_rx.recv() else {
                break;
            };
            remaining[device] -= 1;
        }
    });
}

/// Maps `f` over `inputs` on up to `workers` threads, preserving input
/// order in the output.  Jobs are dispatched in FIFO (input) order.
///
/// This is [`run_in_order`] over one device whose jobs are the inputs.
/// `workers == 0` means [`available_workers`].  With one worker (or one
/// input) the map runs inline on the calling thread.
pub fn map_workers<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let len = inputs.len();
    // Each input waits in its own cell until the worker that claims its
    // index takes it.
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let mut outputs = Vec::new();
    run_in_order(
        &[len],
        workers,
        |_, index| {
            let input = inputs[index]
                .lock()
                .expect("input cell")
                .take()
                .expect("job dispatched twice");
            f(input)
        },
        |_, results| outputs = results,
    );
    outputs
}

/// Maps `f` over `inputs` using up to [`available_workers`] threads,
/// preserving input order in the output.
///
/// ```
/// use rh_harness::parallel::map;
/// let squares = map(vec![1, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    map_workers(inputs, 0, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn devices_are_handed_over_in_order_with_results_in_job_order() {
        for shape in [vec![0, 2, 0, 3], vec![5], vec![]] {
            let expected: Vec<(usize, Vec<(usize, usize)>)> = shape
                .iter()
                .enumerate()
                .map(|(device, &jobs)| (device, (0..jobs).map(|job| (device, job)).collect()))
                .collect();
            for workers in [1, 2, 3, 8] {
                let mut seen = Vec::new();
                run_in_order(
                    &shape,
                    workers,
                    |device, job| (device, job),
                    |device, results| seen.push((device, results)),
                );
                assert_eq!(seen, expected, "shape {shape:?}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_device_that_finishes_first_is_still_handed_over_in_its_turn() {
        // Job (0, 0) blocks its worker, so the other worker runs jobs
        // (1, 0) and then (2, 0), reporting device 1 done before it
        // starts job (2, 0).  Job (0, 0) waits on a channel job (2, 0)
        // signals, so device 1's report reaches the caller before
        // device 0's.
        let (signal, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let finished = Mutex::new(Vec::new());
        let mut handed = Vec::new();
        run_in_order(
            &[1, 1, 1],
            2,
            |device, _| {
                if device == 0 {
                    wait.lock()
                        .expect("receiver")
                        .recv()
                        .expect("job (2, 0) signals");
                }
                finished.lock().expect("finish log").push(device);
                if device == 2 {
                    signal.send(()).expect("job (0, 0) waits");
                }
            },
            |device, _| handed.push(device),
        );
        assert_eq!(finished.into_inner().expect("finish log"), vec![1, 2, 0]);
        assert_eq!(handed, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_job_panics_the_caller() {
        run_in_order(
            &[2, 3],
            2,
            |device, job| {
                if (device, job) == (1, 1) {
                    panic!("job (1, 1) fails");
                }
            },
            |_, _| {},
        );
    }

    #[test]
    fn map_workers_matches_sequential_at_any_worker_count() {
        let expected: Vec<i64> = (0..57).map(|x| x * x - 3).collect();
        for workers in [1, 2, 3, 8] {
            let out = map_workers((0..57).collect(), workers, |x: i64| x * x - 3);
            assert_eq!(out, expected, "workers {workers}");
        }
    }

    #[test]
    fn two_level_single_worker_drains_in_device_order() {
        let d = TwoLevelDispatcher::new(vec![2, 3, 1]);
        assert_eq!(d.total_jobs(), 6);
        let mut cursor = WorkerCursor::new();
        let mut claimed = Vec::new();
        while let Some(claim) = d.claim(&mut cursor) {
            claimed.push(claim);
        }
        // One worker owns each device in turn and drains it fully.
        assert_eq!(
            claimed,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0)]
        );
        assert_eq!(d.claim(&mut cursor), None);
    }

    #[test]
    fn two_level_covers_every_job_exactly_once_across_threads() {
        let counts = vec![3usize, 1, 4, 2, 5];
        let d = TwoLevelDispatcher::new(counts.clone());
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut cursor = WorkerCursor::new();
                    while let Some(claim) = d.claim(&mut cursor) {
                        seen.lock().expect("collector lock").push(claim);
                    }
                });
            }
        });
        let mut seen = seen.into_inner().expect("collector lock");
        seen.sort_unstable();
        let expected: Vec<(usize, usize)> = counts
            .iter()
            .enumerate()
            .flat_map(|(device, &jobs)| (0..jobs).map(move |job| (device, job)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn two_level_steals_from_in_flight_devices() {
        // Worker A owns device 0 but stalls after one job; worker B
        // exhausts the outer cursor and must steal device 0's leftovers.
        let d = TwoLevelDispatcher::new(vec![3, 1]);
        let mut a = WorkerCursor::new();
        let mut b = WorkerCursor::new();
        assert_eq!(d.claim(&mut a), Some((0, 0)));
        assert_eq!(a.device(), Some(0));
        assert_eq!(d.claim(&mut b), Some((1, 0)));
        // B's own device is drained; the outer cursor is exhausted, so
        // the next claims are steals from device 0.
        assert_eq!(d.claim(&mut b), Some((0, 1)));
        assert_eq!(d.claim(&mut b), Some((0, 2)));
        assert_eq!(d.claim(&mut b), None);
        // The stalled owner finds its device empty and exits cleanly.
        assert_eq!(d.claim(&mut a), None);
    }

    #[test]
    fn two_level_handles_empty_devices_and_empty_fleet() {
        let d = TwoLevelDispatcher::new(vec![0, 2, 0]);
        let mut cursor = WorkerCursor::new();
        assert_eq!(d.claim(&mut cursor), Some((1, 0)));
        assert_eq!(d.claim(&mut cursor), Some((1, 1)));
        assert_eq!(d.claim(&mut cursor), None);
        let empty = TwoLevelDispatcher::new(Vec::new());
        assert_eq!(empty.total_jobs(), 0);
        assert_eq!(empty.claim(&mut WorkerCursor::new()), None);
    }

    #[test]
    fn worker_env_values_parse_or_fall_back_to_auto() {
        assert_eq!(parse_workers(Some("4")), Some(4));
        assert_eq!(parse_workers(Some(" 3 ")), Some(3));
        assert_eq!(parse_workers(Some("0")), None);
        assert_eq!(parse_workers(Some("garbage")), None);
        assert_eq!(parse_workers(None), None);
    }
}
