//! Self-test of the benchmark: every workload declared in
//! `BENCHMARK.json`, and `serve-mixed`, runs at the small size on a second
//! seed, untraced and traced, and must print every declared metric with its unit and a
//! finite value; each traced run must report its residual next to the
//! end-to-end latency it was taken from.
//!
//! Run with `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use smokescreen_rt::json::Json;

/// Not the default seed (1), so the self-test covers a second input set.
const SECOND_SEED: &str = "2";

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, field: &str) -> Vec<(String, String)> {
    spec.get(field)
        .and_then(|v| v.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

/// Runs one invocation and returns the parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_smokescreen-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SECOND_SEED,
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "small"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .unwrap()
        .get(name)
        .unwrap()
        .get("value")
        .unwrap()
        .as_f64()
        .unwrap()
}

fn check_result(workload: &str, result: &Json, declared: &[(String, String)], positive: bool) {
    let Json::Obj(top) = result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys.len(), 4, "{workload}: keys {keys:?}");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(keys.contains(&key), "{workload}: missing {key}");
    }
    assert_eq!(
        result.get("correct").unwrap(),
        &Json::Bool(true),
        "{workload}"
    );
    assert!(
        result.get("attempted").unwrap().as_f64().unwrap() >= 1.0,
        "{workload}"
    );
    assert_eq!(
        result.get("failed").unwrap().as_f64().unwrap(),
        0.0,
        "{workload}"
    );
    let Json::Obj(metrics) = result.get("metrics").unwrap() else {
        panic!("{workload}: metrics is not an object");
    };
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = result
            .get("metrics")
            .unwrap()
            .get(name)
            .unwrap_or_else(|_| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").unwrap().as_str().unwrap(),
            unit,
            "{workload}: {name} unit"
        );
        let v = m.get("value").unwrap().as_f64().unwrap();
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        if positive {
            assert!(v > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(workloads.len() >= 2);
    // `serve-mixed` is not in BENCHMARK.json (see README) but stays
    // runnable, so its write-path checks run here too.
    for workload in workloads.iter().map(String::as_str).chain(["serve-mixed"]) {
        let plain = run(workload, false);
        check_result(workload, &plain, &end_to_end, true);

        let traced = run(workload, true);
        check_result(workload, &traced, &per_layer, false);
        // The residual sits next to the measured latency it is carved
        // out of, and the spans it leaves over do not exceed it.
        let (latency, residual) = if workload == "profile-fleet" {
            ("core.generate_ms", "core.residual_ms")
        } else {
            ("server.request_us", "server.residual_us")
        };
        let total = value(&traced, latency);
        let rest = value(&traced, residual);
        assert!(total > 0.0, "{workload}: {latency} = {total}");
        assert!(
            rest.abs() < total,
            "{workload}: {residual} {rest} vs {latency} {total}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload", "--seconds", "1"],
        vec!["--workload", "serve-read", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_smokescreen-e2ebench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("\"correct\""),
            "{args:?} must not print a result"
        );
    }
}
