//! Offline stand-in for `criterion`.
//!
//! Provides the `criterion_group!`/`criterion_main!` entry points and
//! the `Criterion`/`BenchmarkGroup`/`Bencher` measurement API used by
//! the workspace's benches. Measurement is a simple calibrated
//! wall-clock loop: warm up until the closure's cost is known, then
//! run enough iterations to fill the measurement window and report the
//! mean time per iteration (plus throughput when configured).
//!
//! When invoked with `--test` (as `cargo test` does for
//! `harness = false` bench targets) each benchmark body runs exactly
//! once so test runs stay fast.
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall time; its readings never reach simulation results"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Bytes in a decimal unit (treated the same as `Bytes` here).
    BytesDecimal(u64),
}

/// Top-level benchmark driver.
pub struct Criterion {
    test_mode: bool,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            test_mode,
            measurement_time: Duration::from_millis(400),
            warm_up_time: Duration::from_millis(80),
        }
    }
}

impl Criterion {
    /// Parse command-line arguments (kept for API compatibility; the
    /// only recognized flag is `--test`, detected in `default()`).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Override the measurement window.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Override the number of samples (accepted for compatibility; the
    /// shim's measurement window is time-based).
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(
            id,
            None,
            self.test_mode,
            self.warm_up_time,
            self.measurement_time,
            f,
        );
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            measurement_time: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for compatibility; measurement is time-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Override the measurement window for this group.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = Some(t);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_one(
            &full,
            self.throughput,
            self.criterion.test_mode,
            self.criterion.warm_up_time,
            self.measurement_time
                .unwrap_or(self.criterion.measurement_time),
            f,
        );
        self
    }

    /// Finish the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Timing loop handle passed to each benchmark body.
pub struct Bencher {
    test_mode: bool,
    warm_up: Duration,
    window: Duration,
    /// Mean nanoseconds per iteration, filled in by `iter`.
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Measure `f`, storing the mean wall-clock time per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            black_box(f());
            self.mean_ns = 0.0;
            self.iters = 1;
            return;
        }
        // Warm-up/calibration: double the batch until it fills the
        // warm-up window, giving a cost estimate for sizing the run.
        let mut batch = 1u64;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.warm_up || batch >= 1 << 30 {
                break elapsed.as_secs_f64() / batch as f64;
            }
            batch *= 2;
        };
        let total = ((self.window.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 32);
        let start = Instant::now();
        for _ in 0..total {
            black_box(f());
        }
        let elapsed = start.elapsed();
        self.mean_ns = elapsed.as_secs_f64() * 1e9 / total as f64;
        self.iters = total;
    }
}

fn run_one<F>(
    id: &str,
    throughput: Option<Throughput>,
    test_mode: bool,
    warm_up: Duration,
    window: Duration,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        test_mode,
        warm_up,
        window,
        mean_ns: 0.0,
        iters: 0,
    };
    f(&mut bencher);
    if test_mode {
        println!("{id}: ok (test mode)");
        return;
    }
    let time = format_ns(bencher.mean_ns);
    match throughput {
        Some(Throughput::Elements(n)) if bencher.mean_ns > 0.0 => {
            let rate = n as f64 * 1e9 / bencher.mean_ns;
            println!(
                "{id:<50} time: [{time}]   thrpt: [{} elem/s]",
                format_rate(rate)
            );
        }
        Some(Throughput::Bytes(n)) | Some(Throughput::BytesDecimal(n)) if bencher.mean_ns > 0.0 => {
            let rate = n as f64 * 1e9 / bencher.mean_ns;
            println!(
                "{id:<50} time: [{time}]   thrpt: [{} B/s]",
                format_rate(rate)
            );
        }
        _ => println!("{id:<50} time: [{time}]"),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.4} ns")
    }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.3}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.3}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.3}K", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

/// Define a benchmark group function callable from `criterion_main!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` running one or more benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
