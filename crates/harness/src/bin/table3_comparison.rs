//! Regenerates Table III — LUTs (DDR4/DDR3), vulnerability, activation
//! overhead μ ± σ, and false-positive rate, next to the paper's values.
//!
//! Usage: `table3_comparison [quick|paper|full]` (default: paper).

use rh_harness::experiments::table3;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    eprintln!(
        "running table3 at {} windows × {} banks × {} seeds…",
        scale.windows, scale.banks, scale.seeds
    );
    let results = table3::run(&scale);
    println!("Table III — comparison with state-of-the-art RH mitigation solutions");
    println!();
    print!("{}", table3::render(&results));
}
