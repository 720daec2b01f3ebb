//! Ablation sweeps of the design choices: history-table size, `P_base`
//! exponent, CaPRoMi lock threshold and counter-table size.
//!
//! Usage: `ablation [quick|paper|full]` (default: paper).

use rh_harness::experiments::ablation;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let mut results = ablation::history_sweep(&scale);
    results.extend(ablation::p_base_sweep(&scale));
    results.extend(ablation::lock_threshold_sweep(&scale));
    results.extend(ablation::counter_table_sweep(&scale));
    results.extend(ablation::history_policy_sweep(&scale));
    println!("Ablations — design-choice sweeps (paper values: history 32,");
    println!("P_base 2^-23, counter table 64)");
    println!();
    print!("{}", ablation::render(&results));
}
