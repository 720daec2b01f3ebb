//! Blast-radius extension study: second-order disturbance coupling vs
//! ±1-only mitigations, and the ±2-widened `act_n` fix.
//!
//! Usage: `blast_radius [quick|paper|full]` (default: paper).

use rh_harness::experiments::blast_radius;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    println!("Blast-radius study — distance-2 coupling under worst-phase flooding");
    println!("(`+d2` = act_n widened to ±2 via the WideNeighborhood adapter)");
    println!();
    print!("{}", blast_radius::render(&blast_radius::run(&scale)));
}
