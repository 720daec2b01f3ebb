//! `rh` — the unified experiment runner.
//!
//! ```text
//! rh <experiment> [quick|paper|full]
//! rh all [quick|paper|full]
//! rh list
//! ```
//!
//! Each experiment is also available as a standalone binary (see
//! `cargo run --release --bin <name>`); this multiplexer exists so a
//! full regeneration is one command: `rh all paper`.

use rh_harness::experiments::{
    ablation, aggressor_sweep, blast_radius, extensions, fig4, flooding, latency, refresh_policies,
    reliability, table1, table2, table3, vulnerability, weak_dram,
};
use rh_harness::ExperimentScale;

const USAGE: &str = "usage: rh <experiment|all|list> [quick|paper|full]";

const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "Table I — simulated system specification"),
    ("table2", "Table II — FSM clock cycles (exact)"),
    ("fig4", "Fig. 4 — table size vs activation overhead"),
    ("table3", "Table III — LUTs, vulnerability, overhead, FPR"),
    (
        "reliability",
        "§IV — no attack succeeds under any technique",
    ),
    ("refresh-policies", "§IV — four refresh-order policies"),
    ("flooding", "§IV — flooding first-trigger points"),
    ("vulnerability", "Table III 'Vulnerable' column evidence"),
    ("ablation", "design-choice sweeps"),
    ("weak-dram", "extension: weak-DRAM threshold sweep"),
    ("blast-radius", "extension: distance-2 coupling"),
    (
        "latency",
        "extension: demand latency through the controller",
    ),
    ("aggressor-sweep", "extension: fixed aggressor counts"),
    (
        "extensions",
        "extension: CAT/Graphene + cache-workload validation",
    ),
];

fn run_one(name: &str, scale: &ExperimentScale) -> bool {
    println!("==== {name} ====");
    match name {
        "table1" => print!("{}", table1::render(scale)),
        "table2" => print!("{}", table2::render(&table2::run())),
        "fig4" => {
            let points = fig4::run(scale);
            print!("{}", fig4::render(&points));
            for (desc, ok) in fig4::shape_checks(&points) {
                println!("[{}] {desc}", if ok { "ok" } else { "MISS" });
            }
        }
        "table3" => print!("{}", table3::render(&table3::run(scale))),
        "reliability" => print!("{}", reliability::render(&reliability::run(scale))),
        "refresh-policies" => {
            print!(
                "{}",
                refresh_policies::render(&refresh_policies::run(scale))
            )
        }
        "flooding" => print!("{}", flooding::render(&flooding::run(scale))),
        "vulnerability" => print!("{}", vulnerability::render(&vulnerability::run(scale))),
        "ablation" => {
            let mut results = ablation::history_sweep(scale);
            results.extend(ablation::p_base_sweep(scale));
            results.extend(ablation::lock_threshold_sweep(scale));
            results.extend(ablation::counter_table_sweep(scale));
            results.extend(ablation::history_policy_sweep(scale));
            print!("{}", ablation::render(&results));
        }
        "weak-dram" => {
            print!("{}", weak_dram::render(&weak_dram::run(scale)));
            println!();
            print!("{}", weak_dram::render_retune(&weak_dram::retune(scale)));
        }
        "blast-radius" => print!("{}", blast_radius::render(&blast_radius::run(scale))),
        "latency" => print!("{}", latency::render(&latency::run(scale))),
        "aggressor-sweep" => {
            print!("{}", aggressor_sweep::render(&aggressor_sweep::run(scale)))
        }
        "extensions" => {
            let points = extensions::extension_points(scale);
            let validation = extensions::cache_validation(scale);
            print!("{}", extensions::render(&points, &validation));
        }
        _ => return false,
    }
    println!();
    true
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "list".into());
    let scale = ExperimentScale::from_arg(args.next().as_deref()).unwrap_or_else(|err| {
        eprintln!("error: {err}\n{USAGE}");
        std::process::exit(2)
    });

    match command.as_str() {
        "list" | "--help" | "-h" => {
            println!("{USAGE}\n");
            for (name, description) in EXPERIMENTS {
                println!("  {name:16} {description}");
            }
        }
        "all" => {
            for (name, _) in EXPERIMENTS {
                assert!(run_one(name, &scale), "unknown experiment {name}");
            }
        }
        name => {
            if !run_one(name, &scale) {
                eprintln!("unknown experiment `{name}`; try `rh list`");
                std::process::exit(2);
            }
        }
    }
}
