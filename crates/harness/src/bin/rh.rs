//! `rh` — the experiment runner: one front door to every paper table
//! and figure.
//!
//! ```text
//! rh <experiment> [quick|paper|full]
//! rh all [quick|paper|full]
//! rh list
//! ```
//!
//! The experiments are `rh_harness::experiments::ALL`; a full
//! regeneration is one command: `rh all paper`.

use rh_harness::experiments::{write_reports, ALL};
use rh_harness::ExperimentScale;
use std::io::{self, Write};

const USAGE: &str = "usage: rh <experiment|all|list> [quick|paper|full]";

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "list".into());
    let scale = ExperimentScale::from_arg(args.next().as_deref()).unwrap_or_else(|err| {
        eprintln!("error: {err}\n{USAGE}");
        std::process::exit(2)
    });

    let mut out = io::stdout().lock();
    let printed = match command.as_str() {
        "list" | "--help" | "-h" => list(&mut out),
        "all" => write_reports(&mut out, ALL, &scale),
        name => {
            let Some(at) = ALL.iter().position(|e| e.name == name) else {
                eprintln!("unknown experiment `{name}`; try `rh list`");
                std::process::exit(2);
            };
            write_reports(&mut out, &ALL[at..=at], &scale)
        }
    };
    match printed {
        // A reader that stopped early (`rh all quick | head`) wants no
        // more output; that is not a failure.
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
        _ => {}
    }
}

fn list(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{USAGE}\n")?;
    for e in ALL {
        writeln!(out, "  {:16} {}", e.name, e.description)?;
    }
    out.flush()
}
