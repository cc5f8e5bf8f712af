//! The benchmark's own checks: determinism of its inputs and counters,
//! metric naming, and agreement between `BENCHMARK.json` and what each
//! workload reports. Workloads are shrunk so the tests run in seconds.

use enviromic_perfbench::pipeline::{run_iteration, Workload, NAMES};
use enviromic_perfbench::report::{run, RunOptions, END_TO_END, PER_LAYER};
use enviromic_perfbench::spans::Tracer;

fn small(name: &str) -> Workload {
    let full = Workload::named(name).expect("registered workload");
    match name {
        "city-100k" => Workload {
            nodes: 1_000,
            sim_secs: 4.0,
            archive_records: 2_000,
            queries: 200,
            ..full
        },
        "indoor-pipeline" => Workload {
            sim_secs: 200.0,
            mule_rounds: 2,
            ..full
        },
        _ => Workload {
            sim_secs: 200.0,
            archive_records: 5_000,
            queries: 500,
            ..full
        },
    }
}

fn benchmark_json() -> serde::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde::Value::from_json(&text).expect("BENCHMARK.json parses")
}

fn names(list: &serde::Value, key: &str) -> Vec<String> {
    list.get(key)
        .and_then(serde::Value::as_seq)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(serde::Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn same_seed_repeats_counters_and_another_seed_changes_inputs() {
    for name in NAMES {
        let w = small(name);
        let mut tr = Tracer::new();
        let a = run_iteration(&w, 7, 2, &mut tr);
        let b = run_iteration(&w, 7, 1, &mut tr);
        let c = run_iteration(&w, 8, 2, &mut tr);
        assert_eq!(a.counters, b.counters, "{name}: seed 7 counters differ");
        assert!(a.counters["sim.events"] > 0, "{name}: nothing simulated");
        assert_ne!(
            a.counters["trace.digest"], c.counters["trace.digest"],
            "{name}: seeds 7 and 8 produced the same run"
        );
        assert_eq!(
            a.oracle_mismatches + a.uncovered_gaps,
            0,
            "{name}: checks failed"
        );
    }
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let all = END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in all {
        assert!(is_metric_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name), "metric {name} declared twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
    assert!(NAMES.iter().all(|n| is_metric_name(n)));
}

#[test]
fn benchmark_json_matches_the_code() {
    let bench = benchmark_json();
    assert_eq!(names(&bench, "workloads"), NAMES.to_vec());
    let e2e = bench
        .get("end_to_end")
        .and_then(serde::Value::as_seq)
        .expect("list");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (json, &(name, unit, better, bound)) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(json.get("name").and_then(serde::Value::as_str), Some(name));
        assert_eq!(json.get("unit").and_then(serde::Value::as_str), Some(unit));
        assert_eq!(
            json.get("better").and_then(serde::Value::as_str),
            Some(better)
        );
        assert_eq!(
            json.get("bound").and_then(serde::Value::as_f64),
            Some(bound)
        );
    }
    let layers = bench
        .get("per_layer")
        .and_then(serde::Value::as_seq)
        .expect("list");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (json, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(json.get("name").and_then(serde::Value::as_str), Some(name));
        assert_eq!(json.get("unit").and_then(serde::Value::as_str), Some(unit));
        assert_eq!(
            json.get("better").and_then(serde::Value::as_str),
            Some(better)
        );
    }
}

#[test]
fn each_workload_reports_exactly_its_declared_metrics() {
    let bench = benchmark_json();
    for name in NAMES {
        let w = small(name);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = RunOptions {
                seed: 3,
                seconds: 0.01,
                trace,
            };
            let result = run(&w, &opts);
            let reported: Vec<String> = result.metrics.iter().map(|m| m.0.to_string()).collect();
            assert_eq!(reported, names(&bench, key), "{name} trace {trace}");
            assert!(result.correct, "{name}: {:?}", result.notes);
            assert!(result.attempted > 0);
            assert!(result.metrics.iter().all(|m| m.1.is_finite()));
            if !trace {
                assert!(
                    result.metrics.iter().all(|m| m.1 > 0.0),
                    "{name}: an end-to-end metric read 0: {:?}",
                    result.metrics
                );
            }
            let line = result.result_json();
            let parsed = serde::Value::from_json(&line).expect("result line is JSON");
            let keys: Vec<&str> = parsed
                .as_map()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}
