//! Self-tests of the benchmark: its workloads pass their output checks at
//! small sizes, the traced driver is the runtime's program, and the
//! printed metrics are the ones `BENCHMARK.json` declares.

use serde_json::Value;
use sphinx_db::{Database, MemWal};
use sphinx_perfbench::bench::{self, END_TO_END, PER_LAYER};
use sphinx_perfbench::workload::{Workload, NAMES};
use sphinx_perfbench::{driver, run};
use std::sync::Arc;
use std::time::Duration;

fn tiny(name: &str) -> Workload {
    Workload::named(name).expect("known workload").tiny()
}

fn names(metrics: &[bench::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn tiny_workloads_pass_the_output_checks() {
    for name in NAMES {
        let w = tiny(name);
        let result = bench::run(&w, 1, Duration::ZERO, false);
        assert!(result.correct, "{name}: {:?}", result.problems);
        assert_eq!(result.failed, 0, "{name}");
        assert_eq!(result.repeats, w.seeds_per_run as usize + 1, "{name}");
        assert_eq!(result.attempted, w.jobs() * result.repeats as u64);
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&result.metrics), expected, "{name}");
        assert!(
            result.metrics.iter().all(|m| m.value > 0.0),
            "{name}: every end-to-end metric is positive: {:?}",
            result.metrics
        );
    }
}

#[test]
fn shard_failover_adopts_exactly_once() {
    let outcome = run::untraced(&tiny("shard-failover"), 1).expect("runs");
    assert_eq!(outcome.adoptions, 1);
    assert!(run::check(&tiny("shard-failover"), &outcome).is_empty());
}

#[test]
fn traced_driver_is_byte_identical_to_the_runtime() {
    for name in ["scale-10k", "grid3-faults"] {
        for seed in [1, 7] {
            let outcome = run::traced(&tiny(name), seed).expect("runs");
            assert!(outcome.matches_runtime, "{name} seed {seed}");
            assert!(outcome.grid_events > 0);
            let profile = outcome.profile.expect("unsharded runs are profiled");
            assert!(profile.unattributed_frac() < 0.5, "{name} seed {seed}");
        }
    }
}

#[test]
fn trace_comparison_detects_a_different_program() {
    let w = tiny("grid3-faults");
    let run = |seed: u64| {
        let db = Arc::new(Database::with_wal(Box::new(MemWal::shared())));
        driver::run(&w.scenario(seed), db).expect("runs")
    };
    let (a, b, other) = (run(1), run(1), run(2));
    assert!(run::same_trace(&a.telemetry, &b.telemetry));
    assert!(!run::same_trace(&a.telemetry, &other.telemetry));
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    for name in NAMES {
        let result = bench::run(&tiny(name), 3, Duration::ZERO, true);
        assert!(result.correct, "{name}: {:?}", result.problems);
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&result.metrics), expected, "{name}");
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn json_line_carries_every_metric_with_its_unit() {
    let result = bench::run(&tiny("scale-10k"), 1, Duration::ZERO, false);
    let doc: Value = serde_json::from_str(&bench::to_json(&result)).expect("valid JSON");
    assert_eq!(
        doc.get("correct").and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true)
    );
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, unit) in END_TO_END {
        let m = metrics.get(name).expect(name);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(|v| v > 0.0));
    }
}
