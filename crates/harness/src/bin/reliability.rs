//! §IV reliability check — the ramping multi-aggressor attack flips
//! bits unprotected and is stopped by all nine techniques.
//!
//! Usage: `reliability [quick|paper|full]` (default: paper).

use rh_harness::experiments::reliability;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let results = reliability::run(&scale);
    println!("Reliability — 1→20 aggressors per bank, mixed workload");
    println!();
    print!("{}", reliability::render(&results));
}
