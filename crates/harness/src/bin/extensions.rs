//! Extension techniques (CAT, Graphene) on the Fig. 4 plane, plus the
//! access-level cache-filtered workload cross-validation.
//!
//! Usage: `extensions [quick|paper|full]` (default: paper).

use rh_harness::experiments::extensions;
use rh_harness::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let points = extensions::extension_points(&scale);
    let validation = extensions::cache_validation(&scale);
    print!("{}", extensions::render(&points, &validation));
}
