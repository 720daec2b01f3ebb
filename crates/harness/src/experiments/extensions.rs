//! Extension techniques on the Fig. 4 plane, plus the access-level
//! workload cross-validation.
//!
//! * **CAT** (adaptive counter tree, ISCA 2018) — discussed in the
//!   paper's §II but not plotted in Fig. 4.
//! * **Graphene** (Misra–Gries tracker, MICRO 2020) — contemporaneous
//!   work that reaches tabled-counter determinism at TiVaPRoMi-class
//!   storage, i.e. a point that dominates part of the paper's trade-off
//!   curve.  Including it shows where the field moved the Pareto front
//!   a year before TiVaPRoMi's publication venue.
//! * **Cache-filtered workload** — replaces the interval-level
//!   statistical workload with the access-level 4-core/cache model
//!   (`mem_trace::cpu`) and re-checks reliability and overhead ordering,
//!   validating that the headline results do not hinge on the direct
//!   generator's calibration.

use crate::config::{ExperimentScale, RunConfig};
use crate::experiments::fig4::{self, Fig4Point};
use crate::experiments::{mean_std, sweep, total_flips};
use crate::metrics::{MeanStd, RunMetrics};
use crate::runner::Runner;
use crate::table::TextTable;
use mem_trace::cpu::{CpuWorkload, CpuWorkloadConfig};
use rh_hwmodel::Technique;

/// Fig. 4-style points for the extension techniques on the standard
/// mixed trace.
pub fn extension_points(scale: &ExperimentScale) -> Vec<Fig4Point> {
    fig4::points(&Technique::EXTENSIONS, scale)
}

/// One row of the cache-workload cross-validation.
#[derive(Debug, Clone)]
pub struct CacheValidationResult {
    /// Technique.
    pub technique: Technique,
    /// Overhead % on the cache-filtered trace.
    pub overhead: MeanStd,
    /// Bit flips (must be 0).
    pub flips: usize,
}

/// Re-runs a representative technique set on the access-level workload.
pub fn cache_validation(scale: &ExperimentScale) -> Vec<CacheValidationResult> {
    let config = RunConfig::paper(scale);
    let under_test = [
        Technique::Para,
        Technique::TwiCe,
        Technique::Graphene,
        Technique::LiPromi,
        Technique::LoLiPromi,
    ];
    sweep(
        &under_test,
        scale.seeds.max(2),
        |&t, seed| {
            // CpuWorkload couples banks through shared caches and a global
            // RNG, so it cannot implement TraceSplit; these runs stay on the
            // sequential engine (the per-seed jobs still parallelise).
            let trace = CpuWorkload::new(
                CpuWorkloadConfig::paper(&config.geometry, config.intervals()),
                seed,
            );
            Runner::new(config.clone())
                .technique(t)
                .seed(seed)
                .run_sequential(trace)
        },
        |&t, runs| CacheValidationResult {
            technique: t,
            overhead: mean_std(&runs, RunMetrics::overhead_percent),
            flips: total_flips(&runs),
        },
    )
}

/// Renders both parts.
pub fn render(points: &[Fig4Point], validation: &[CacheValidationResult]) -> String {
    let mut out = String::from("Extension techniques on the Fig. 4 plane:\n\n");
    out.push_str(&fig4::render(points));
    out.push_str("\nCache-filtered (access-level) workload cross-validation:\n\n");
    let mut table = TextTable::new(vec!["technique", "overhead [%]", "flips"]);
    for r in validation {
        table.row(vec![
            r.technique.to_string(),
            r.overhead.to_string(),
            r.flips.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out
}

/// Everything `rh extensions` prints: both parts.
pub fn report(scale: &ExperimentScale) -> String {
    render(&extension_points(scale), &cache_validation(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphene_dominates_part_of_the_tradeoff() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 1;
        let points = extension_points(&scale);
        let graphene = points
            .iter()
            .find(|p| p.technique == Technique::Graphene)
            .unwrap();
        // Deterministic-class overhead from TiVaPRoMi-class storage.
        assert!(graphene.storage_bytes < 500.0);
        assert!(graphene.overhead.mean < 0.01, "{}", graphene.overhead.mean);
        assert_eq!(graphene.flips, 0);
        let cat = points
            .iter()
            .find(|p| p.technique == Technique::Cat)
            .unwrap();
        assert_eq!(cat.flips, 0);
    }

    #[test]
    fn cache_workload_reproduces_reliability_and_ordering() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 2;
        let results = cache_validation(&scale);
        for r in &results {
            assert_eq!(r.flips, 0, "{}", r.technique);
        }
        let get = |t: Technique| {
            results
                .iter()
                .find(|r| r.technique == t)
                .unwrap()
                .overhead
                .mean
        };
        // The class ordering survives the workload-model swap.
        assert!(get(Technique::TwiCe) < get(Technique::LiPromi));
        assert!(get(Technique::LiPromi) < get(Technique::Para));
        let rendered = render(&extension_points(&scale), &results);
        assert!(rendered.contains("Graphene"));
    }
}
