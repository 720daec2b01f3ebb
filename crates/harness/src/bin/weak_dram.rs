//! Weak-DRAM extension study: the flip-threshold sweep and the `P_base`
//! re-tuning sweep for next-generation DRAM.
//!
//! Usage: `weak_dram [quick|paper|full]` (default: paper).

use rh_harness::experiments::weak_dram;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    println!("Weak-DRAM study — paper-tuned mitigations on weaker devices");
    println!("(worst-phase flooding)");
    println!();
    print!("{}", weak_dram::render(&weak_dram::run(&scale)));
    println!();
    println!("LoPRoMi P_base re-tuning for 16 K DRAM:");
    println!();
    print!("{}", weak_dram::render_retune(&weak_dram::retune(&scale)));
}
