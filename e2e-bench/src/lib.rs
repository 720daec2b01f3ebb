//! # rh-e2e-bench — the simulator's end-to-end benchmark
//!
//! One command measures the simulator end to end on four workloads and,
//! on request, splits each workload's time over the simulator's layers.
//! It replaces no criterion bench: those measure single-ratio A/B
//! comparisons, this measures what a user of the CLIs waits for.
//!
//! ## Running
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! Without `--workload` the four workloads run one after another, each
//! in a fresh child process so that peak memory is per workload.  Every
//! workload runs on two workers, pinned through the public APIs
//! (`parallel::map_workers`, `Parallelism::with_workers`,
//! `Fleet::workers`, `SearchConfig::with_workers`).  The seed is the
//! only input; the simulator receives what the workload generates from
//! it.  The last output line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it give every
//! metric with its quartiles and sample count, the simulated statistics
//! (`sim_acts`, `sim_triggers`, `sim_flips`), an FNV-1a `digest` of the
//! workload's rendered or serialized report, and `nproc`.  The process
//! exits non-zero when any output check fails.
//!
//! ## Workloads
//!
//! A workload is a fixed *unit* of work, run again and again on freshly
//! built but identical inputs for `--seconds`.  Unit sizes keep a unit
//! between 0.5 and 1.5 s on two cores, so one run holds many of them.
//!
//! | name | unit | why |
//! |---|---|---|
//! | `table3-paper` | 9 Table III techniques × seeds {s, s+1}, 4 banks × 2 windows, exact tier, then Table III | the paper's headline experiment: trace synthesis, kernels and per-event replay |
//! | `fleet-campaign` | the `fleet` CLI's three-cohort campaign (`--quick` size, 1024 devices), fast tier | thousands of short devices: per-device set-up, synthesis, the fast tier's chunked replay, the CPU trace model and the two-level dispatcher |
//! | `trace-replay` | a recorded 4-bank window replayed for the 9 techniques on the cycle tier | no synthesis: trace clone and `bank_shard` copies, kernels, and the only cycle-tier replay |
//! | `redteam-frontier` | 2 `--thorough` frontier searches, each frontier re-run | many tiny observed runs with one-interval batches and the result cache: per-run overheads |
//!
//! ## Metrics
//!
//! End to end (untraced units): `wall_s`, the wall time of a unit;
//! `cpu_s`, the CPU time of a unit over all threads, which separates
//! less work from better overlap; `setup_s`, the median time to build
//! one unit's inputs (the traces or the recording, the device list, and
//! one of every mitigation and backend the unit's engine runs build),
//! measured before the first unit and before each later one, so that
//! work moved into set-up shows; and `peak_rss_mib`, the process's peak
//! resident memory.  Unit timings are the fastest unit of the run
//! (min-of-N): on a shared host, other tenants' load only adds time and
//! drifts over seconds, so the minimum is the steadiest estimate of the
//! code's cost; the text lines give medians and quartiles beside it.
//! Failed ops (runs, devices or searches) are the JSON line's `failed`
//! out of `attempted`.  The simulated activation rate
//! (`sim_macts_per_s`) is printed where the benchmark can count the
//! activations, which excludes the red-team search.
//!
//! Per layer (`--trace 1`), averaged per traced unit: busy time and
//! counts for `setup`, `trace`, `kernel`, `dram`, `engine`, `merge`
//! and `report`, the pool's idle time and utilization, per-op latency,
//! and the tracing overhead.  Busy times are summed over workers, so
//! `Σ busy + pool.idle_s = workers × traced wall`.
//!
//! ## How the split is measured
//!
//! Everything is measured from outside through public APIs
//! ([`timed`]): the traced unit rebuilds each entrypoint from its public
//! parts and wraps the trait objects it drives (`TraceSource`,
//! `Mitigation`, `DisturbanceBackend`), which forward every method.  The
//! traced unit alternates with untraced ones, must produce the same
//! digests, and the ratio of their fastest walls, less one, is
//! `tracing.overhead_frac`.
//!
//! A span costs two clock reads, calibrated at start-up
//! ([`clock::Calibration`]).  The per-event exact and cycle `apply`
//! costs less than a span, so it is not timed: `engine.replay_s` is the
//! residual of each engine run, its wall time minus the timed children
//! minus the spans' calibrated cost, and it holds the per-event replay
//! and ledger work.
//!
//! What the outside-in split cannot see: time inside a call that is
//! not a trait-object boundary (the engine's own bookkeeping lands in
//! the residual); the red-team search's evaluations, which run inside
//! `run_search` and are charged as one opaque span at `workers ×` its
//! wall (so that search's activations are not counted either); and
//! waiting inside the library's worker pools, which shows only as
//! `pool.idle_s`.

pub mod clock;
pub mod measure;
pub mod timed;
pub mod workloads;
