//! Thread-pool helper for multi-seed sweeps and bank-sharded runs.
//!
//! The simulator itself is single-threaded per run; the harness
//! parallelises across independent jobs — (technique, seed) sweeps and
//! per-bank shards — with plain `std::thread` scoped threads, so no
//! extra dependencies are needed.
//!
//! Work is handed out by a lock-free [`Dispatcher`]: workers claim
//! contiguous chunks of the input with a single `fetch_add` on an atomic
//! cursor, so the hot path takes no lock and jobs are claimed in FIFO
//! (input) order.  Each output is written into its input's slot, so the
//! result order always matches the input order regardless of scheduling.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Hands out `0..len` in contiguous chunks, in ascending (FIFO) order.
///
/// Claiming is a single `fetch_add`, so concurrent workers never block
/// each other and every index is claimed exactly once.
#[derive(Debug)]
pub struct Dispatcher {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl Dispatcher {
    /// A dispatcher over `len` jobs for `workers` threads.
    ///
    /// The chunk size balances claim overhead against load balance:
    /// several chunks per worker, but at least one job per claim.
    pub fn new(len: usize, workers: usize) -> Self {
        Dispatcher {
            cursor: AtomicUsize::new(0),
            len,
            chunk: (len / workers.max(1) / 4).max(1),
        }
    }

    /// Claims the next chunk of job indices, or `None` when exhausted.
    ///
    /// Memory-ordering audit: `Relaxed` is sufficient, not an
    /// optimisation gamble.  Claim uniqueness needs only the
    /// *atomicity* of the read-modify-write — all RMWs on one atomic
    /// observe a single total modification order, so no two workers
    /// can ever receive overlapping ranges, at any ordering.  The
    /// cursor orders no other memory: job inputs are populated before
    /// `thread::scope` spawns the workers (spawn synchronizes-with
    /// thread start) and result slots are read only after the scope
    /// joins them (termination synchronizes-with join), so those are
    /// the happens-before edges the data rides on, and the model
    /// checker in `tests/model_check.rs` exhaustively verifies the
    /// claim/merge algebra under every interleaving.
    pub fn claim(&self) -> Option<Range<usize>> {
        #[expect(
            clippy::disallowed_methods,
            reason = "Relaxed: the RMW total order alone makes claims disjoint; scope spawn/join carry the data edges"
        )]
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// A result slot array writable from multiple workers.
///
/// SAFETY argument: the dispatcher hands every index to exactly one
/// worker (a `fetch_add` cursor never returns overlapping ranges), so at
/// most one thread ever touches a given slot, and the scope joins all
/// workers before the slots are read.
struct Slots<T>(Vec<UnsafeCell<MaybeUninit<T>>>);

// SAFETY: the dispatcher hands each index to exactly one worker, so
// slot access is exclusive; see the struct-level argument.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(len: usize) -> Self {
        Slots(
            (0..len)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        )
    }

    /// Writes `value` into slot `index`.
    ///
    /// # Safety
    ///
    /// `index` must be claimed from the dispatcher by the calling worker
    /// (exclusive access), and written at most once.
    unsafe fn write(&self, index: usize, value: T) {
        // SAFETY: the caller holds the dispatcher claim for `index`, so
        // the cell is never aliased.
        unsafe { (*self.0[index].get()).write(value) };
    }

    /// Consumes the slots.
    ///
    /// # Safety
    ///
    /// Every slot must have been written exactly once, and all writers
    /// joined.
    unsafe fn into_vec(self) -> Vec<T> {
        self.0
            .into_iter()
            // SAFETY: per the fn contract each cell was written exactly
            // once, so `assume_init` is sound.
            .map(|cell| unsafe { cell.into_inner().assume_init() })
            .collect()
    }
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

/// The two-level work-stealing scheduler behind fleet campaigns: an
/// outer FIFO cursor hands whole *devices* to workers, and each device
/// has an inner cursor handing out its *jobs* (bank shards, or the one
/// whole-device job of an unshardable trace).
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
///    instead of serialising on the owners.
///
/// Every job index is handed out by exactly one inner `fetch_add`, so
/// — exactly as for [`Dispatcher`] — claim uniqueness needs only RMW
/// atomicity, at any memory ordering, whether the claimer is the
/// device's owner or a thief.  The two-level model check in
/// `tests/model_check.rs` verifies the protocol (device-claim
/// uniqueness, job exclusivity, merge independence) under every
/// interleaving of 2–3 workers, including the steal phase.
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
    /// Memory-ordering audit: as in [`Dispatcher::claim`], uniqueness
    /// rides on the RMW total modification order alone; job inputs are
    /// published before `thread::scope` spawns the workers and results
    /// are read after it joins them, so those edges carry the data.
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

/// Maps `f` over `inputs` on up to `workers` threads, preserving input
/// order in the output.  Jobs are dispatched in FIFO (input) order.
///
/// `workers == 0` means [`available_workers`].  With one worker (or one
/// input) the map runs inline on the calling thread.
pub fn map_workers<I, O, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = if workers == 0 {
        available_workers()
    } else {
        workers
    }
    .min(inputs.len().max(1));
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let dispatcher = Dispatcher::new(inputs.len(), workers);
    let slots = Slots::new(inputs.len());
    // Jobs are moved into per-index option cells so workers can take
    // them by claimed index without a queue lock.
    let jobs: Vec<UnsafeCell<Option<I>>> = inputs
        .into_iter()
        .map(|i| UnsafeCell::new(Some(i)))
        .collect();
    struct Jobs<I>(Vec<UnsafeCell<Option<I>>>);
    // SAFETY: same exclusivity argument as `Slots` — each index is
    // claimed by exactly one worker.
    unsafe impl<I: Send> Sync for Jobs<I> {}
    impl<I> Jobs<I> {
        /// # Safety
        ///
        /// `index` must be exclusively claimed by the calling worker.
        unsafe fn take(&self, index: usize) -> Option<I> {
            // SAFETY: the caller holds the claim for `index`.
            unsafe { (*self.0[index].get()).take() }
        }
    }
    let jobs = Jobs(jobs);

    std::thread::scope(|scope| {
        let jobs = &jobs;
        let slots = &slots;
        let dispatcher = &dispatcher;
        let f = &f;
        for _ in 0..workers {
            scope.spawn(move || {
                while let Some(range) = dispatcher.claim() {
                    for index in range {
                        // SAFETY: `index` came from `dispatcher.claim()`
                        // on this thread, so no other thread reads or
                        // writes these cells.
                        let input = unsafe { jobs.take(index) }.expect("job dispatched twice");
                        let output = f(input);
                        // SAFETY: the same claim covers the write.
                        unsafe { slots.write(index, output) };
                    }
                }
            });
        }
    });
    // SAFETY: the scope joined every worker, and the dispatcher handed
    // out each index exactly once, so every slot is initialised.
    unsafe { slots.into_vec() }
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
    use std::sync::Mutex;

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
    fn dispatcher_claims_fifo_ascending() {
        let d = Dispatcher::new(10, 3);
        let mut claimed = Vec::new();
        while let Some(range) = d.claim() {
            claimed.push(range);
        }
        // Ranges are contiguous, ascending and cover 0..10 exactly.
        let mut next = 0;
        for range in &claimed {
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn dispatcher_covers_all_indices_across_threads() {
        let d = Dispatcher::new(1000, 4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(range) = d.claim() {
                        seen.lock().unwrap().extend(range);
                    }
                });
            }
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
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
