//! Fixed aggressor-count sweep — the 1→20 ramp decomposed into phases.
//!
//! Usage: `aggressor_sweep [quick|paper|full]` (default: paper).

use rh_harness::experiments::aggressor_sweep;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    println!("Aggressor-count sweep — fixed k aggressors per bank, mixed workload");
    println!();
    print!("{}", aggressor_sweep::render(&aggressor_sweep::run(&scale)));
}
