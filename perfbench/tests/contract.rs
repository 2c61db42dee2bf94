//! The benchmark's own contract: metric names and units, determinism of
//! the simulated metrics, and the tracing-off path.

use perfbench::metrics::{valid_name, Output, END_TO_END, PER_LAYER, SIMULATED};
use perfbench::runner;
use perfbench::spec::{self, Scale, Spec, WorkloadId};
use simcore::json::Json;
use std::collections::HashSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = HashSet::new();
    assert!(SIMULATED.iter().all(|s| END_TO_END.iter().any(|(n, _)| n == s)));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(seen.insert(*name), "metric {name} declared twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit} of {name}"
        );
    }
    for bad in ["", ".lead", "white space", "quote\"", "x".repeat(65).as_str()] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let doc = benchmark_json();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_prints_with_its_unit() {
    let mut out = Output { correct: true, attempted: 3, failed: 0, ..Default::default() };
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        out.push(name, 0.125 * (i + 1) as f64);
    }
    out.complete(&END_TO_END).expect("all end-to-end metrics present");
    let doc = Json::parse(&out.to_json()).expect("result line is JSON");
    assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
    let metrics = doc.get("metrics").expect("metrics object");
    for (i, (name, unit)) in END_TO_END.iter().enumerate() {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.125 * (i + 1) as f64));
    }
}

fn sim_metrics(out: &Output) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|(n, _)| SIMULATED.contains(n))
        .map(|(n, v)| (*n, v.to_bits()))
        .collect()
}

#[test]
fn same_seed_reproduces_sim_metrics_and_another_seed_changes_them() {
    for id in WorkloadId::ALL {
        let run = |seed| runner::untraced(id, Scale::Test, seed, 0.01).expect("run completes");
        let (a, b, c) = (run(7), run(7), run(8));
        for out in [&a, &b, &c] {
            assert!(out.correct && out.failed == 0, "{}: checks failed", id.name());
            out.complete(&END_TO_END).expect("every end-to-end metric");
        }
        assert_eq!(sim_metrics(&a), sim_metrics(&b), "{}: same seed", id.name());
        for name in ["sim_access_time_s", "sim_bytes_per_request"] {
            assert_ne!(a.get(name), c.get(name), "{}: {name} ignores the seed", id.name());
        }
    }
}

#[test]
fn tracing_off_path_runs_with_obs_disabled() {
    assert!(!spec::untraced().enabled);
    assert!(spec::traced().enabled);
    let spec = Spec::build(WorkloadId::EagerLossyMesh, Scale::Test);
    let (off_report, off_obs) = spec.run(3, spec.shards, &spec::untraced());
    assert!(off_obs.profiles.is_empty(), "disabled obs still profiled");
    assert_eq!(off_obs.registry.counters().count(), 0, "disabled obs still counted");
    let (on_report, on_obs) = spec.run(3, spec.shards, &spec::traced());
    assert!(!on_obs.profiles.is_empty());
    assert_eq!(off_report, on_report, "tracing changed the simulation");
}

#[test]
fn traced_run_reports_every_layer_metric() {
    for id in WorkloadId::ALL {
        let out = runner::traced(id, Scale::Test, 5).expect("traced run completes");
        assert!(out.correct, "{}: traced run failed a check", id.name());
        out.complete(&PER_LAYER).expect("every per-layer metric");
        assert!(out.get("sched.events").is_some_and(|v| v > 0.0));
        assert!(out.get("workload.requests").is_some_and(|v| v > 0.0));
    }
}
