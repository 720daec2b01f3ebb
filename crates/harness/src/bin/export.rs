//! Exports the main experiment series as CSV files for plotting
//! (Fig. 4 scatter, flooding points, latency table).
//!
//! Usage: `export [quick|paper|full] [output-dir]` (defaults: paper,
//! `./results`).

use rh_harness::experiments::{fig4, flooding, latency};
use rh_harness::{report, ExperimentScale};
use std::fs::File;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let scale = ExperimentScale::from_arg_or_exit(std::env::args().nth(1).as_deref());
    let dir = PathBuf::from(std::env::args().nth(2).unwrap_or_else(|| "results".into()));
    std::fs::create_dir_all(&dir)?;

    eprintln!("running fig4…");
    let points = fig4::run(&scale);
    report::fig4_csv(&points, File::create(dir.join("fig4.csv"))?)?;
    std::fs::write(dir.join("fig4.svg"), rh_harness::plot::fig4_svg(&points))?;
    eprintln!("running flooding…");
    report::flooding_csv(
        &flooding::run(&scale),
        File::create(dir.join("flooding.csv"))?,
    )?;
    eprintln!("running latency…");
    report::latency_csv(
        &latency::run(&scale),
        File::create(dir.join("latency.csv"))?,
    )?;
    eprintln!(
        "wrote fig4.csv, flooding.csv, latency.csv to {}",
        dir.display()
    );
    Ok(())
}
