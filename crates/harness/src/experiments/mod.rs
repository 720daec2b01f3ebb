//! One module per paper table/figure, plus the ablations and extensions.
//!
//! Every experiment follows the same pattern: a `run(scale)` function
//! returning structured results, a `render(results)` function producing
//! its text table, and a `report(scale)` function returning everything
//! `rh <name>` prints. [`ALL`] is the one list of experiments.

use crate::config::ExperimentScale;

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
        description: "extension: demand latency through the controller",
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
