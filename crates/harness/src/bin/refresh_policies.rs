//! §IV refresh-policy robustness — the four refresh orders against the
//! four TiVaPRoMi variants.
//!
//! Usage: `refresh_policies [quick|paper|full]` (default: paper).

use rh_harness::experiments::refresh_policies;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let results = refresh_policies::run(&scale);
    println!("Refresh-policy robustness — TiVaPRoMi variants × 4 policies");
    println!();
    print!("{}", refresh_policies::render(&results));
    println!();
    println!("max overhead deviation vs. sequential baseline:");
    for (t, dev) in refresh_policies::policy_spread(&results) {
        println!("  {t}: {:.1}%", dev * 100.0);
    }
}
