//! One module per paper table/figure, plus the ablations and extensions.
//!
//! Every experiment follows the same pattern: a `run(scale)` function
//! returning structured results, a `render(results)` function producing
//! its text table, and a `report(scale)` function returning everything
//! `rh <name>` prints. [`ALL`] is the one list of experiments.
//!
//! Each `run` that measures a grid of cells over seeds does so through
//! one function, `sweep`: every cell is one device of the worker pool
//! and every seed one of its jobs, so a cell's runs reach its summary in
//! seed order and cells come back in the order they were listed.

use crate::config::ExperimentScale;
use crate::metrics::{MeanStd, RunMetrics};
use crate::parallel;
use std::io::{self, Write};

pub mod ablation;
pub mod aggressor_sweep;
pub mod blast_radius;
pub mod extensions;
pub mod fig4;
pub mod flooding;
pub mod latency;
pub mod refresh_policies;
pub mod reliability;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod trace_stats;
pub mod vulnerability;
pub mod weak_dram;

/// One experiment of the `rh` runner.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `rh` takes, e.g. `table3`.
    pub name: &'static str,
    /// One line for `rh list`.
    pub description: &'static str,
    /// Everything `rh <name>` prints at a scale.
    pub report: fn(&ExperimentScale) -> String,
}

/// Every experiment, in the order `rh all` runs them.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "table1",
        description: "Table I — simulated system specification",
        report: table1::report,
    },
    Experiment {
        name: "trace-stats",
        description: "Table I — synthetic trace calibration",
        report: trace_stats::report,
    },
    Experiment {
        name: "table2",
        description: "Table II — FSM clock cycles (exact)",
        report: table2::report,
    },
    Experiment {
        name: "fig4",
        description: "Fig. 4 — table size vs activation overhead",
        report: fig4::report,
    },
    Experiment {
        name: "table3",
        description: "Table III — LUTs, vulnerability, overhead, FPR",
        report: table3::report,
    },
    Experiment {
        name: "reliability",
        description: "§IV — no attack succeeds under any technique",
        report: reliability::report,
    },
    Experiment {
        name: "refresh-policies",
        description: "§IV — four refresh-order policies",
        report: refresh_policies::report,
    },
    Experiment {
        name: "flooding",
        description: "§IV — flooding first-trigger points",
        report: flooding::report,
    },
    Experiment {
        name: "vulnerability",
        description: "Table III 'Vulnerable' column evidence",
        report: vulnerability::report,
    },
    Experiment {
        name: "ablation",
        description: "design-choice sweeps",
        report: ablation::report,
    },
    Experiment {
        name: "weak-dram",
        description: "extension: weak-DRAM threshold sweep",
        report: weak_dram::report,
    },
    Experiment {
        name: "blast-radius",
        description: "extension: distance-2 coupling",
        report: blast_radius::report,
    },
    Experiment {
        name: "latency",
        description: "extension: demand latency on the cycle tier's bank clocks",
        report: latency::report,
    },
    Experiment {
        name: "aggressor-sweep",
        description: "extension: fixed aggressor counts",
        report: aggressor_sweep::report,
    },
    Experiment {
        name: "extensions",
        description: "extension: CAT/Graphene + cache-workload validation",
        report: extensions::report,
    },
];

/// Writes each experiment's report at `scale` to `out` under a
/// `==== name ====` header: what `rh <name>` and `rh all` print.
///
/// # Errors
///
/// Returns the first error writing to `out`.
pub fn write_reports(
    out: &mut impl Write,
    experiments: &[Experiment],
    scale: &ExperimentScale,
) -> io::Result<()> {
    for e in experiments {
        // The header goes out before the experiment runs, so a long
        // `rh all` shows what it is computing.
        writeln!(out, "==== {} ====", e.name)?;
        out.flush()?;
        writeln!(out, "{}", (e.report)(scale))?;
    }
    out.flush()
}

/// Runs `run(cell, seed)` for every cell and seed `1..=seeds` on the
/// worker pool, and returns `summarize(cell, runs)` for each cell, in
/// cell order, with `runs` in seed order.
///
/// Each cell is one device of [`parallel::run_in_order`] and each seed
/// one of its jobs, so `summarize` folds a cell's runs in one canonical
/// order at every worker count (`RH_WORKERS`, or auto).  With no seeds
/// every cell is summarized over no runs.
pub(crate) fn sweep<C: Sync, R: Send, S>(
    cells: &[C],
    seeds: u32,
    run: impl Fn(&C, u64) -> R + Sync,
    mut summarize: impl FnMut(&C, Vec<R>) -> S,
) -> Vec<S> {
    let jobs = vec![seeds as usize; cells.len()];
    let mut summaries = Vec::with_capacity(cells.len());
    parallel::run_in_order(
        &jobs,
        0,
        |cell, job| run(&cells[cell], job as u64 + 1),
        |cell, runs| summaries.push(summarize(&cells[cell], runs)),
    );
    summaries
}

/// μ ± σ of `metric` over a cell's runs, folded in seed order.
pub(crate) fn mean_std(runs: &[RunMetrics], metric: impl Fn(&RunMetrics) -> f64) -> MeanStd {
    MeanStd::of(&runs.iter().map(metric).collect::<Vec<_>>())
}

/// The worst attack margin (max disturbance / flip threshold) over a
/// cell's runs; 0 for no runs.
pub(crate) fn worst_margin(runs: &[RunMetrics]) -> f64 {
    runs.iter()
        .map(RunMetrics::attack_margin)
        .fold(0.0, f64::max)
}

/// Bit flips summed over a cell's runs.
pub(crate) fn total_flips(runs: &[RunMetrics]) -> usize {
    runs.iter().map(|m| m.flips).sum()
}

/// μ ± σ of the attacker activations before each run's first trigger;
/// a run that never triggered counts as infinitely late.
pub(crate) fn first_trigger(runs: &[RunMetrics]) -> MeanStd {
    mean_std(runs, |m| {
        m.first_trigger_act
            .map_or(f64::INFINITY, |acts| acts as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_hands_each_cell_its_runs_in_seed_order() {
        let cells = ['a', 'b', 'c'];
        let mut summarized = Vec::new();
        let out = sweep(
            &cells,
            4,
            |&cell, seed| (cell, seed),
            |&cell, runs| {
                summarized.push(cell);
                runs
            },
        );
        // Cells in input order, each summarized once.
        assert_eq!(summarized, cells);
        for (&cell, runs) in cells.iter().zip(&out) {
            let want: Vec<(char, u64)> = (1..=4).map(|seed| (cell, seed)).collect();
            assert_eq!(*runs, want);
        }
    }

    #[test]
    fn sweep_of_no_cells_is_empty() {
        let out = sweep(&[] as &[u8], 3, |_, seed| seed, |_, runs| runs.len());
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_of_no_seeds_summarizes_every_cell_over_no_runs() {
        let out = sweep(&[1u8, 2], 0, |_, seed| seed, |&cell, runs| (cell, runs));
        assert_eq!(out, vec![(1, Vec::new()), (2, Vec::new())]);
    }
}
