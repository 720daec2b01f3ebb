//! Smoke test of the benchmark command: every workload, at a tiny size,
//! passes its output checks and emits exactly the metrics
//! `BENCHMARK.json` declares, with their units.

use serde_json::Value;
use std::process::Command;

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(benchmark: &[(String, Value)], list: &str) -> Vec<(String, String)> {
    let items = Value::get(benchmark, list)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .as_array(list)
        .expect("a list");
    items
        .iter()
        .map(|item| {
            let pairs = item.as_object(list).expect("an object");
            let text = |key: &str| match Value::get(pairs, key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{list} entry has no string {key}: {other:?}"),
            };
            (text("name"), text("unit"))
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let benchmark = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let benchmark = benchmark.as_object("BENCHMARK.json").expect("an object");
    let workloads: Vec<String> = Value::get(benchmark, "workloads")
        .expect("workloads")
        .as_array("workloads")
        .expect("a list")
        .iter()
        .map(
            |w| match Value::get(w.as_object("workload").expect("object"), "name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("workload without a name: {other:?}"),
            },
        )
        .collect();
    assert_eq!(workloads, rh_e2e_bench::workloads::NAMES);

    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(benchmark, list);
        for (name, unit) in &expected {
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} of {name}");
        }
        for workload in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_rh-bench"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("rh-bench starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}"
            );
            let last = stdout.lines().last().expect("output");
            let result = serde_json::parse(last).expect("last line is JSON");
            let result = result.as_object("result").expect("an object");
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(matches!(
                Value::get(result, "correct"),
                Some(Value::Bool(true))
            ));
            let attempted = Value::get(result, "attempted").expect("attempted").as_u64();
            assert!(attempted.expect("whole number") >= 1);
            let failed = Value::get(result, "failed").expect("failed").as_u64();
            assert_eq!(failed.expect("whole number"), 0);
            let metrics = Value::get(result, "metrics")
                .expect("metrics")
                .as_object("metrics")
                .expect("an object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let m = m.as_object(name).expect("metric object");
                    let value = Value::get(m, "value").expect("value").as_f64();
                    assert!(value.expect("numeric").is_finite(), "{workload} {name}");
                    match Value::get(m, "unit") {
                        Some(Value::Str(unit)) => (name.clone(), unit.clone()),
                        other => panic!("{workload} {name} has no unit: {other:?}"),
                    }
                })
                .collect();
            assert_eq!(emitted, expected, "{workload} trace={trace}");
        }
    }
}
