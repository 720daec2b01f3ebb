//! Regenerates Table I — simulated system specifications.
//!
//! Usage: `table1_system [quick|paper|full]` (default: full, since
//! Table I is pure configuration).

use rh_harness::experiments::table1;
use rh_harness::ExperimentScale;

fn main() {
    let scale = match std::env::args().nth(1) {
        None => ExperimentScale::full(),
        arg => ExperimentScale::from_arg_or_exit(arg.as_deref()),
    };
    println!("Table I — simulated system specifications");
    println!();
    print!("{}", table1::render(&scale));
}
