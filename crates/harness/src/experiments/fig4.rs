//! Fig. 4 — the table-size vs. activation-overhead trade-off of all
//! nine techniques on the mixed workload (SPEC-like load + ramping
//! attacker).
//!
//! The paper plots storage per bank (bytes, log) on x and activation
//! overhead (%, log) on y: the probabilistic cluster (PARA, MRLoc,
//! ProHit) sits at tiny storage / high overhead, the tabled counters
//! (TWiCe, CRA) at huge storage / tiny overhead, and the four TiVaPRoMi
//! variants in between — Pareto-optimal compromises.

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::{mean_std, sweep, total_flips};
use crate::metrics::{MeanStd, RunMetrics};
use crate::runner::Runner;
use crate::scenario;
use crate::table::TextTable;
use rh_hwmodel::Technique;

/// One point of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Technique.
    pub technique: Technique,
    /// Storage per bank in bytes (x-axis).
    pub storage_bytes: f64,
    /// Activation overhead % across seeds (y-axis).
    pub overhead: MeanStd,
    /// False-positive rate % across seeds.
    pub fpr: MeanStd,
    /// Total bit flips across all seeds (must be zero).
    pub flips: usize,
}

/// Runs one technique at one seed on the standard mixed trace.
pub fn run_one(technique: Technique, config: &RunConfig, seed: u64) -> RunMetrics {
    let trace = scenario::paper_mix(config, seed);
    Runner::new(config.clone())
        .technique(technique)
        .seed(seed)
        .run(trace)
}

/// Regenerates all nine Fig. 4 points at the given scale.
pub fn run(scale: &ExperimentScale) -> Vec<Fig4Point> {
    points(&Technique::TABLE3, scale)
}

/// Fig. 4 points for `techniques` on the standard mixed trace, over
/// `scale.seeds` seeds.
pub(crate) fn points(techniques: &[Technique], scale: &ExperimentScale) -> Vec<Fig4Point> {
    let config = RunConfig::paper(scale);
    sweep(
        techniques,
        scale.seeds,
        |&t, seed| run_one(t, &config, seed),
        |&t, runs| Fig4Point {
            technique: t,
            storage_bytes: runs.first().map_or(0.0, |m| m.storage_bytes_per_bank),
            overhead: mean_std(&runs, RunMetrics::overhead_percent),
            fpr: mean_std(&runs, RunMetrics::fpr_percent),
            flips: total_flips(&runs),
        },
    )
}

/// Renders the Fig. 4 series as a table (the figure's data points).
pub fn render(points: &[Fig4Point]) -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "table size/bank [B]",
        "activation overhead [%]",
        "FPR [%]",
        "flips",
    ]);
    for p in points {
        table.row(vec![
            p.technique.to_string(),
            format!("{:.0}", p.storage_bytes),
            p.overhead.to_string(),
            format!("{:.4}", p.fpr.mean),
            p.flips.to_string(),
        ]);
    }
    table.render()
}

/// The paper's headline claims about Fig. 4, checked against regenerated
/// points.  Returns human-readable verdict lines.
pub fn shape_checks(points: &[Fig4Point]) -> Vec<(String, bool)> {
    let get = |t: Technique| points.iter().find(|p| p.technique == t).expect("present");
    let tiva = [
        Technique::LiPromi,
        Technique::LoPromi,
        Technique::LoLiPromi,
        Technique::CaPromi,
    ];
    let mut checks = Vec::new();

    // TiVaPRoMi overhead below every probabilistic baseline.
    let min_prob = [Technique::Para, Technique::MrLoc, Technique::ProHit]
        .iter()
        .map(|&t| get(t).overhead.mean)
        .fold(f64::INFINITY, f64::min);
    let max_tiva = tiva
        .iter()
        .map(|&t| get(t).overhead.mean)
        .fold(0.0, f64::max);
    checks.push((
        format!(
            "TiVaPRoMi overhead below all probabilistic baselines ({max_tiva:.4}% < {min_prob:.4}%)"
        ),
        max_tiva < min_prob,
    ));

    // Storage 9×–27× below TWiCe.
    let twice = get(Technique::TwiCe).storage_bytes;
    let ratios: Vec<f64> = tiva.iter().map(|&t| twice / get(t).storage_bytes).collect();
    let min_ratio = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
    checks.push((
        format!("storage {min_ratio:.1}×–{max_ratio:.1}× below TWiCe (paper: 9×–27×)"),
        min_ratio >= 7.0 && max_ratio <= 40.0,
    ));

    // Tabled counters keep the lowest overhead overall.
    let tabled = get(Technique::TwiCe)
        .overhead
        .mean
        .min(get(Technique::Cra).overhead.mean);
    checks.push((
        format!("tabled counters have the lowest overhead ({tabled:.4}%)"),
        tiva.iter().all(|&t| get(t).overhead.mean >= tabled),
    ));

    // Nobody lets an attack through.
    let flips: usize = points.iter().map(|p| p.flips).sum();
    checks.push((
        format!("no bit flips under any technique ({flips})"),
        flips == 0,
    ));

    checks
}

/// Everything `rh fig4` prints: the points, then each shape check.
pub fn report(scale: &ExperimentScale) -> String {
    let points = run(scale);
    let checks: String = shape_checks(&points)
        .into_iter()
        .map(|(desc, ok)| format!("[{}] {desc}\n", if ok { "ok" } else { "MISS" }))
        .collect();
    format!(
        "Fig. 4 — table size vs. activation overhead (log-log in the paper)\n\n{}\n\
         shape checks:\n{checks}",
        render(&points)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_produces_nine_points() {
        let points = run(&ExperimentScale::quick());
        assert_eq!(points.len(), 9);
        for p in &points {
            assert_eq!(p.flips, 0, "{} let an attack through", p.technique);
            assert!(p.overhead.mean >= 0.0);
        }
        let s = render(&points);
        assert!(s.contains("TWiCe"));
    }
}
