//! §IV flooding check — first extra activation under a full-rate flood
//! of one row, for the four TiVaPRoMi variants (PARA as reference).
//!
//! Usage: `flooding [quick|paper|full]` (default: paper).

use rh_harness::experiments::flooding;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let results = flooding::run(&scale);
    println!("Flooding attack — worst-phase flood (attack starts right after the");
    println!("flooded row's refresh, where time-varying weights are smallest)");
    println!();
    print!("{}", flooding::render(&results));
}
