//! What every workload shares: repeated set-up, a
//! time-boxed loop of identical units, output checks, and the metrics.

use crate::clock::{Calibration, Layer, LayerClock, Totals};
use rh_harness::RunMetrics;
use rh_hwmodel::Technique;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker threads every workload is pinned to.
pub const WORKERS: usize = 2;

/// Simulated statistics of one unit: a speed-only change leaves them
/// identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    /// Workload plus mitigation activations, when the benchmark can see
    /// them.
    pub acts: Option<u64>,
    /// Mitigation triggers.
    pub triggers: u64,
    /// Bit flips.
    pub flips: u64,
}

impl Sim {
    /// Empty totals that count activations.
    pub fn counting() -> Sim {
        Sim {
            acts: Some(0),
            ..Sim::default()
        }
    }

    /// Totals over a set of runs.
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> Sim {
        let mut sim = Sim::counting();
        for m in runs {
            sim.add(m);
        }
        sim
    }

    /// Adds one run.
    pub fn add(&mut self, m: &RunMetrics) {
        self.acts = self
            .acts
            .map(|a| a + m.workload_activations + m.mitigation_activations);
        self.triggers += m.trigger_events;
        self.flips += m.flips as u64;
    }
}

/// The outcome of one unit of work.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// One digest per op (run, device or search), in op order.
    pub op_digests: Vec<u64>,
    /// FNV-1a of the unit's rendered or serialized report.
    pub digest: u64,
    /// Failed self-checks (JSON round trips, re-verifications).
    pub problems: Vec<String>,
    /// Simulated statistics.
    pub sim: Sim,
    /// Workload-specific exact counts, printed with the metrics.
    pub counts: Vec<(&'static str, u64)>,
}

/// One workload of the benchmark.
pub trait Workload {
    /// What one unit consumes.
    type Inputs;

    /// What one op is ("run", "device", "search").
    const OP: &'static str;

    /// Builds one unit's inputs from the seed.
    fn setup(&self) -> Self::Inputs;

    /// Set-up repetitions before the first unit.
    fn setup_reps(&self) -> usize {
        7
    }

    /// Runs one unit: through the public entrypoints when `clock` is
    /// `None`, rebuilt from public parts with every layer timed
    /// otherwise.  Both must produce identical outputs.
    fn run(&self, inputs: Self::Inputs, clock: Option<&LayerClock>) -> Unit;

    /// Reference gates against independent computations, run once
    /// after measuring; returns the failures.
    fn verify(&self, reference: &Unit) -> Vec<String>;
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops run (runs, devices or searches).
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before it.
    pub lines: Vec<String>,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` (the exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Taken after clamping, as Python does.
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `q`-quantile of `values` by nearest rank.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cheap digest of one run's simulated outcome (the report digest
/// covers every serialized byte).
pub fn metrics_digest(m: &RunMetrics) -> u64 {
    let mut words = vec![
        m.workload_activations,
        m.aggressor_activations,
        m.mitigation_activations,
        m.trigger_events,
        m.false_positive_events,
        m.flips as u64,
        u64::from(m.max_disturbance),
        m.first_trigger_act.unwrap_or(u64::MAX),
        m.time_to_first_flip.unwrap_or(u64::MAX),
        m.intervals,
    ];
    for f in &m.flip_log {
        words.extend([
            u64::from(f.bank.0),
            u64::from(f.row.0),
            f.interval,
            f.bank_act,
        ]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(m.technique.as_bytes()) ^ fnv1a(&bytes)
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// CPU time this process has used on all its threads, in clock ticks
/// of 1/100 s.
pub fn cpu_ticks() -> u64 {
    // utime and stime are fields 14 and 15.
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("numeric tick count"))
        .sum()
}

/// Op failures of `unit` against the reference unit.
fn failures(reference: Option<&Unit>, unit: &Unit) -> u64 {
    let ops = unit.op_digests.len() as u64;
    if !unit.problems.is_empty() {
        return ops.max(1);
    }
    let Some(reference) = reference else {
        return 0;
    };
    if reference.op_digests.len() != unit.op_digests.len() {
        return ops;
    }
    let mismatched = reference
        .op_digests
        .iter()
        .zip(&unit.op_digests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if mismatched == 0 && (reference.digest != unit.digest || reference.sim != unit.sim) {
        ops
    } else {
        mismatched
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The smallest of `values` (0 when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Runs `workload`: set-up `setup_reps` times, then identical units
/// on fresh inputs for at least `seconds` (alternating untraced and
/// traced units when `trace` is set), then the reference gates.
/// `setup_s` is the median over every set-up, the first ones and each
/// unit's.
///
/// Timings of units are reported as the fastest unit (min-of-N): on a
/// shared machine other tenants only ever add time, and their load
/// drifts over seconds, so the minimum is the steady estimate of what
/// the code costs.  Medians and quartiles are printed beside it.
pub fn measure<W: Workload>(
    workload: &W,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let calibration = trace.then(Calibration::measure);
    let mut setup = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let built = black_box(workload.setup());
        setup.push(secs(start.elapsed()));
        built
    };
    let mut inputs = None;
    for _ in 0..workload.setup_reps() {
        // Drop the previous inputs first, so peak memory is one set.
        drop(inputs.take());
        inputs = Some(set_up());
    }

    let started = Instant::now();
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let mut traced_wall = Vec::new();
    let mut layers = Totals::default();
    let mut reference: Option<Unit> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    for i in 0usize.. {
        let traced = trace && i % 2 == 1;
        // Every unit gets fresh inputs; timing their set-up too spreads
        // the set-up samples over the run.
        let unit_inputs = inputs.take().unwrap_or_else(&mut set_up);
        let clock = calibration
            .filter(|_| traced)
            .map(|c| LayerClock::new(WORKERS, c));
        let cpu_start = cpu_ticks();
        let start = Instant::now();
        let unit = workload.run(unit_inputs, clock.as_ref());
        let elapsed = secs(start.elapsed());
        let cpu_used = (cpu_ticks() - cpu_start) as f64 / 100.0;
        attempted += unit.op_digests.len() as u64;
        let bad = failures(reference.as_ref(), &unit);
        if bad > 0 {
            failed += bad;
            problems.extend(unit.problems.iter().cloned());
            problems.push(format!(
                "unit {i} ({}): {bad} {}(s) differ from the first unit",
                if traced { "traced" } else { "untraced" },
                W::OP
            ));
        }
        match &clock {
            Some(clock) => {
                traced_wall.push(elapsed);
                layers.absorb(&clock.take());
            }
            None => {
                wall.push(elapsed);
                cpu.push(cpu_used);
            }
        }
        if reference.is_none() {
            reference = Some(unit);
        }
        let enough = !wall.is_empty() && (!trace || !traced_wall.is_empty());
        if enough && secs(started.elapsed()) >= seconds {
            break;
        }
    }
    // Before the reference gates, which run their own computations.
    let peak_rss = peak_rss_mib();
    let reference = reference.expect("at least one unit ran");
    let ops = reference.op_digests.len() as u64;
    let gate = workload.verify(&reference);
    if !gate.is_empty() {
        failed += ops;
        problems.extend(gate);
    }

    let mut lines = vec![format!(
        "rh-bench workload={name} seed={seed} trace={} nproc={} workers={WORKERS} \
         units={} traced_units={} ops_per_unit={ops} op={}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        wall.len(),
        traced_wall.len(),
        W::OP,
    )];
    let spread = |label: &str, values: &[f64], unit: &str| {
        let (q1, q3) = quartiles(values);
        format!(
            "  {label:<14} min {:>11.6} median {:>11.6} q1 {:>11.6} q3 {:>11.6} n={} {unit}",
            min(values),
            median(values),
            q1,
            q3,
            values.len()
        )
    };
    let wall_s = min(&wall);
    let end_to_end = vec![
        metric("wall_s", wall_s, "s"),
        metric("cpu_s", min(&cpu), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    lines.push(spread("wall_s", &wall, "s"));
    lines.push(spread("cpu_s", &cpu, "s"));
    lines.push(spread("setup_s", &setup, "s"));
    lines.push(format!("  {:<14} {peak_rss:.3} MiB", "peak_rss_mib"));
    let sim = reference.sim;
    let per_op_ms = 1e3 * wall_s / ops.max(1) as f64;
    lines.push(format!(
        "  wall per {}: {per_op_ms:.4} ms ({:.3} min per million)",
        W::OP,
        per_op_ms * 1e6 / 6e4,
    ));
    match sim.acts {
        Some(acts) => lines.push(format!(
            "  sim_acts {acts} sim_triggers {} sim_flips {} sim_macts_per_s {:.4}",
            sim.triggers,
            sim.flips,
            acts as f64 / wall_s / 1e6
        )),
        None => lines.push(format!(
            "  sim_triggers {} sim_flips {} (activations not visible from outside)",
            sim.triggers, sim.flips
        )),
    }
    for (label, value) in &reference.counts {
        lines.push(format!("  {label} {value}"));
    }
    lines.push(format!("  digest {:#018x}", reference.digest));

    let metrics = if trace {
        let (per_layer, layer_lines) = per_layer(&layers, &traced_wall, &wall, calibration);
        lines.extend(layer_lines);
        per_layer
    } else {
        end_to_end
    };
    if !problems.is_empty() {
        lines.push(format!("  FAILED checks ({}):", problems.len()));
        lines.extend(problems.iter().map(|p| format!("    {p}")));
    }
    Outcome {
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// The per-layer metrics of the traced units, averaged per unit.
fn per_layer(
    t: &Totals,
    traced_wall: &[f64],
    wall: &[f64],
    calibration: Option<Calibration>,
) -> (Vec<Metric>, Vec<String>) {
    let n = traced_wall.len().max(1) as f64;
    let s = |layer: Layer| t.busy_ns(layer) as f64 / n / 1e9;
    let per = |count: u64| count as f64 / n;
    let ns_per = |ns: u64, events: u64| ns as f64 / events as f64;
    let dram = s(Layer::DramRefresh) + s(Layer::DramCmd) + s(Layer::DramBulk);
    let engine = t.engine_ns as f64 / n / 1e9;
    let tracing = t.overhead_ns as f64 / n / 1e9;
    let busy = s(Layer::Setup)
        + s(Layer::TracePrep)
        + s(Layer::Trace)
        + s(Layer::Kernel)
        + s(Layer::KernelRefresh)
        + dram
        + s(Layer::Merge)
        + s(Layer::Report)
        + s(Layer::Opaque)
        + engine
        + tracing;
    let traced = traced_wall.iter().sum::<f64>() / n;
    let capacity = WORKERS as f64 * traced;
    let idle = capacity - busy;
    let op_ms: Vec<f64> = t.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let metrics = vec![
        metric("setup.busy_s", s(Layer::Setup), "s"),
        metric("trace.busy_s", s(Layer::Trace), "s"),
        metric("trace.calls", per(t.spans(Layer::Trace)), "count"),
        metric("trace.events", per(t.trace_events), "count"),
        metric(
            "trace.ns_per_event",
            ns_per(t.busy_ns(Layer::Trace), t.trace_events),
            "ns",
        ),
        metric("trace.shard_prep_s", s(Layer::TracePrep), "s"),
        metric("kernel.busy_s", s(Layer::Kernel), "s"),
        metric("kernel.calls", per(t.spans(Layer::Kernel)), "count"),
        metric(
            "kernel.ns_per_event",
            ns_per(t.busy_ns(Layer::Kernel), t.kernel_events),
            "ns",
        ),
        metric("kernel.refresh_busy_s", s(Layer::KernelRefresh), "s"),
        metric("kernel.actions", per(t.kernel_actions), "count"),
        metric("dram.busy_s", dram, "s"),
        metric("dram.refresh_busy_s", s(Layer::DramRefresh), "s"),
        metric("dram.cmd_busy_s", s(Layer::DramCmd), "s"),
        metric("dram.acts", per(t.dram_acts), "count"),
        metric("engine.replay_s", engine, "s"),
        metric(
            "engine.ns_per_event",
            ns_per(t.engine_ns, t.trace_events),
            "ns",
        ),
        metric("merge.busy_s", s(Layer::Merge), "s"),
        metric("merge.calls", per(t.merge_calls), "count"),
        metric("report.busy_s", s(Layer::Report), "s"),
        metric("report.bytes", per(t.report_bytes), "B"),
        metric("pool.idle_s", idle, "s"),
        metric("pool.utilization", busy / capacity, "ratio"),
        metric("op.p50_ms", percentile(&op_ms, 0.5), "ms"),
        metric("op.p99_ms", percentile(&op_ms, 0.99), "ms"),
        metric(
            "tracing.overhead_frac",
            min(traced_wall) / min(wall) - 1.0,
            "ratio",
        ),
        metric(
            "tracing.span_ns",
            calibration.map_or(0.0, |c| c.span_ns),
            "ns",
        ),
    ];
    let mut lines = vec![format!(
        "  per-layer split, per traced unit ({} units, {WORKERS} workers x {traced:.4} s = {capacity:.4} s):",
        traced_wall.len()
    )];
    let share = |v: f64| 100.0 * v / capacity;
    let mut split = vec![
        ("setup", s(Layer::Setup)),
        ("trace.shard_prep", s(Layer::TracePrep)),
        ("trace", s(Layer::Trace)),
        ("kernel", s(Layer::Kernel)),
        ("kernel.refresh", s(Layer::KernelRefresh)),
        ("dram.refresh", s(Layer::DramRefresh)),
        ("dram.cmd", s(Layer::DramCmd)),
        ("dram.bulk", s(Layer::DramBulk)),
        ("engine (residual)", engine),
        ("merge", s(Layer::Merge)),
        ("report", s(Layer::Report)),
        ("redteam.search (opaque)", s(Layer::Opaque)),
        ("tracing overhead", tracing),
    ];
    split.push(("pool.idle", idle));
    for (label, v) in &split {
        lines.push(format!("    {label:<24} {v:>10.4} s {:>6.2} %", share(*v)));
    }
    lines.push(format!(
        "    closure: busy {busy:.4} s + idle {idle:.4} s = {capacity:.4} s; {}",
        if idle >= -0.03 * capacity {
            "idle >= -3% of capacity, the split closes"
        } else {
            "idle < -3% of capacity: the split does not close"
        }
    ));
    for (i, t_ns) in t.kernel_ns_by_technique.iter().enumerate() {
        lines.push(format!(
            "    kernel.busy_s.{:<12} {:>10.4} s",
            Technique::TABLE3[i].name(),
            *t_ns as f64 / n / 1e9
        ));
    }
    lines.push(format!("    dram.bulk_busy_s {:.4} s", s(Layer::DramBulk)));
    lines.push(format!("    dram.flips {}", per(t.dram_flips)));
    lines.push(format!("    tracing.busy_s {tracing:.4} s"));
    lines.push(format!(
        "    redteam.search_busy_s {:.4} s",
        s(Layer::Opaque)
    ));
    lines.extend(
        metrics
            .iter()
            .map(|m| format!("    {:<24} {:>14.6} {}", m.name, m.value, m.unit)),
    );
    (metrics, lines)
}

/// The final output line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // Clamped ends extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
