//! Machine-readable experiment exports (CSV) for plotting.
//!
//! Every regenerator prints a human-readable table; for gnuplot /
//! matplotlib consumers `rh export` writes the same series as CSV via
//! these helpers.

use crate::experiments::fig4::Fig4Point;
use crate::experiments::flooding::FloodingResult;
use crate::experiments::latency::LatencyResult;
use crate::metrics::TimeSeries;
use std::io::{self, Write};

/// Writes Fig. 4 points as CSV (`technique,storage_bytes,overhead_mean,
/// overhead_std,fpr_mean,flips`).
///
/// A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn fig4_csv<W: Write>(points: &[Fig4Point], mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "technique,storage_bytes,overhead_mean_pct,overhead_std_pct,fpr_mean_pct,flips"
    )?;
    for p in points {
        writeln!(
            writer,
            "{},{:.1},{:.6},{:.6},{:.6},{}",
            p.technique, p.storage_bytes, p.overhead.mean, p.overhead.std, p.fpr.mean, p.flips
        )?;
    }
    Ok(())
}

/// Writes flooding results as CSV.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn flooding_csv<W: Write>(results: &[FloodingResult], mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "technique,phase_intervals,first_trigger_mean,first_trigger_std,worst,paper,flips"
    )?;
    for r in results {
        writeln!(
            writer,
            "{},{},{:.0},{:.0},{},{},{}",
            r.technique,
            r.phase,
            r.first_trigger.mean,
            r.first_trigger.std,
            r.worst,
            r.paper.map_or_else(|| "-".into(), |p| p.to_string()),
            r.flips
        )?;
    }
    Ok(())
}

/// Writes latency results as CSV.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn latency_csv<W: Write>(results: &[LatencyResult], mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "technique,mean_latency_cycles,max_latency_cycles,slowdown_pct,mitigation_acts,stall_cycles"
    )?;
    for r in results {
        writeln!(
            writer,
            "{},{:.3},{},{:.4},{},{}",
            r.technique,
            r.mean_latency,
            r.max_latency,
            r.slowdown_percent,
            r.mitigation_activations,
            r.mitigation_stall_cycles
        )?;
    }
    Ok(())
}

/// Writes a [`TimeSeries`] (as recorded by
/// [`crate::TimeSeriesRecorder`]) as CSV, one sample point per row.
/// All counters are cumulative since the start of the run.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn timeseries_csv<W: Write>(series: &TimeSeries, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "interval,activations,mitigation_activations,triggers,false_positives,max_disturbance"
    )?;
    for p in &series.points {
        writeln!(
            writer,
            "{},{},{},{},{},{}",
            p.interval,
            p.activations,
            p.mitigation_activations,
            p.triggers,
            p.false_positives,
            p.max_disturbance
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    #[test]
    fn fig4_csv_is_parseable() {
        let mut scale = ExperimentScale::quick();
        scale.seeds = 1;
        let points = crate::experiments::fig4::run(&scale);
        let mut buffer = Vec::new();
        fig4_csv(&points, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10); // header + 9 techniques
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 6, "{line}");
        }
        assert!(text.contains("PARA"));
    }

    #[test]
    fn timeseries_csv_round_trips_points() {
        let mut series = TimeSeries::new(8);
        series.points.push(crate::metrics::TimePoint {
            interval: 7,
            activations: 100,
            mitigation_activations: 2,
            triggers: 3,
            false_positives: 1,
            max_disturbance: 42,
        });
        let mut buffer = Vec::new();
        timeseries_csv(&series, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("interval,"));
        assert!(text.contains("7,100,2,3,1,42"));
    }

    #[test]
    fn latency_csv_has_header_and_rows() {
        let rows = vec![crate::experiments::latency::LatencyResult {
            technique: "X".into(),
            mean_latency: 54.2,
            max_latency: 99,
            slowdown_percent: 0.1,
            mitigation_activations: 3,
            mitigation_stall_cycles: 1,
        }];
        let mut buffer = Vec::new();
        latency_csv(&rows, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.starts_with("technique,"));
        assert!(text.contains("54.200"));
    }
}
