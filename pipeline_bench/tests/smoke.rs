//! Runs the benchmark at smoke scale and holds its output against
//! `BENCHMARK.json`: every workload and metric named there must come out,
//! and nothing may come out that is not named there.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::Value;

const BENCH: &str = env!("CARGO_BIN_EXE_pipeline_bench");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeSet<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .expect(list)
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric of an emitted `{name: {value, unit}}` map.
fn emitted(metrics: Option<&Value>) -> BTreeSet<(String, String)> {
    match metrics {
        Some(Value::Object(m)) => m
            .iter()
            .map(|(k, v)| {
                assert!(
                    v.get("value").and_then(Value::as_f64).is_some(),
                    "{k} has no value"
                );
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn keys(v: &Value) -> BTreeSet<String> {
    match v {
        Value::Object(m) => m.keys().cloned().collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn smoke_ledger_matches_benchmark_json() {
    let declared_doc = benchmark_json();
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-ledger.json");
    let status = Command::new(BENCH)
        .args(["--all", "--smoke", "--seed", "1", "--seconds", "1", "--out"])
        .arg(&out)
        .status()
        .expect("pipeline_bench starts");
    assert!(status.success(), "smoke ledger failed a correctness check");
    let ledger = serde_json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();

    let workloads = ledger.get("workloads").expect("workloads");
    let names: BTreeSet<String> = declared(&declared_doc, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(
        keys(workloads),
        names,
        "workloads differ from BENCHMARK.json"
    );
    assert!(ledger
        .get("host_cpus")
        .and_then(Value::as_u64)
        .is_some_and(|n| n >= 1));

    for name in &names {
        let w = workloads.get(name).unwrap();
        assert_eq!(
            emitted(w.get("end_to_end")),
            declared(&declared_doc, "end_to_end"),
            "{name}: end-to-end metrics differ from BENCHMARK.json"
        );
        assert_eq!(
            emitted(w.get("per_layer")),
            declared(&declared_doc, "per_layer"),
            "{name}: per-layer metrics differ from BENCHMARK.json"
        );
        assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{name}");
        assert!(w
            .get("repetitions")
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1));
        for m in ["pipeline_s", "setup_s", "peak_heap_mb"] {
            let v = w
                .get("end_to_end")
                .and_then(|e| e.get(m))
                .and_then(|e| e.get("value"));
            assert!(
                v.and_then(Value::as_f64).is_some_and(|v| v > 0.0),
                "{name}: {m} is 0"
            );
        }
    }
    // The verifier and the server never run on the convergence workload.
    let wan = workloads
        .get("wan1000_converge")
        .and_then(|w| w.get("per_layer"))
        .unwrap();
    for (name, _) in emitted(Some(wan)) {
        if name.starts_with("verify.") || name.starts_with("serve.") {
            let v = wan
                .get(&name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert_eq!(v, Some(0.0), "{name} on wan1000_converge");
        }
    }

    // A ledger agrees with itself; a count that moved does not pass.
    let compare = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(BENCH)
            .arg("--compare")
            .args([a, b])
            .output()
            .expect("compare runs")
    };
    assert!(compare(&out, &out).status.success());
    let drifted = out.with_file_name("smoke-ledger-drifted.json");
    let text = std::fs::read_to_string(&out).unwrap();
    let needle = "\"emulator.events_processed\": {\n";
    assert!(text.contains(needle));
    std::fs::write(
        &drifted,
        text.replacen(needle, "\"emulator.events_processed_gone\": {\n", 1),
    )
    .unwrap();
    assert!(!compare(&out, &drifted).status.success());
}

#[test]
fn one_run_prints_the_contract_line() {
    let declared_doc = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(BENCH)
            .args([
                "--workload",
                "grid60_verify",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--smoke",
            ])
            .args(["--trace", trace])
            .output()
            .expect("pipeline_bench starts");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = serde_json::parse(stdout.lines().last().unwrap()).unwrap();
        let want: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(keys(&result), want);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result
            .get("attempted")
            .and_then(Value::as_u64)
            .is_some_and(|n| n >= 1));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert_eq!(
            emitted(result.get("metrics")),
            declared(&declared_doc, list)
        );
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(BENCH)
        .args([
            "--workload",
            "grid61_verify",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
