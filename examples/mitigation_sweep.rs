//! The Fig. 4 trade-off on your terminal: storage vs. activation
//! overhead for all nine techniques, with an ASCII log-log scatter.
//!
//! Run with `cargo run --release --example mitigation_sweep [quick|paper|full]`.

use tivapromi_suite::harness::experiments::fig4;
use tivapromi_suite::harness::ExperimentScale;

fn main() {
    let scale = match std::env::args().nth(1) {
        None => ExperimentScale::quick(),
        arg => ExperimentScale::from_arg_or_exit(arg.as_deref()),
    };
    eprintln!(
        "sweeping 9 techniques at {} windows × {} banks × {} seeds…",
        scale.windows, scale.banks, scale.seeds
    );
    let points = fig4::run(&scale);
    println!("{}", fig4::render(&points));

    // ASCII scatter: x = log10(bytes+1) over 0..6, y = log10(overhead)
    // over -4..0 (top = high overhead).
    const W: usize = 64;
    const H: usize = 16;
    let mut grid = vec![vec![' '; W]; H];
    let mut legend = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let letter = (b'A' + i as u8) as char;
        let x = ((p.storage_bytes + 1.0).log10() / 6.0 * (W - 1) as f64).clamp(0.0, (W - 1) as f64)
            as usize;
        let y_norm = ((p.overhead.mean.max(1e-4)).log10() + 4.0) / 4.0;
        let y = ((1.0 - y_norm) * (H - 1) as f64).clamp(0.0, (H - 1) as f64) as usize;
        grid[y][x] = letter;
        legend.push(format!("{letter} = {}", p.technique));
    }
    println!("activation overhead (log) ↑, table size per bank (log) →");
    for row in &grid {
        println!("|{}", row.iter().collect::<String>());
    }
    println!("+{}", "-".repeat(W));
    println!("{}", legend.join("   "));
    println!();
    for (desc, ok) in fig4::shape_checks(&points) {
        println!("[{}] {desc}", if ok { "ok" } else { "MISS" });
    }
}
