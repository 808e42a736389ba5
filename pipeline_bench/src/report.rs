//! Repetitions, results and comparison. A run of a workload is a parent
//! that starts one child process per repetition (so peak RSS belongs to one
//! repetition of one workload), takes medians over them, and prints the
//! result line the benchmark contract asks for.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use serde_json::{Map, Number, Value};

use crate::spec::{self, Metric};
use crate::stats::median;
use crate::workloads::{host_cpus, Rep};

fn num(v: f64) -> Value {
    Value::Number(Number::F(v))
}

fn uint(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<Map>(),
    )
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serialises")
}

fn numbers(v: Option<&Value>) -> BTreeMap<String, f64> {
    match v {
        Some(Value::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn strings(v: Option<&Value>) -> BTreeMap<String, String> {
    match v {
        Some(Value::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    }
}

// ------------------------------------------------------- one repetition

/// The line a repetition child prints for its parent.
pub fn rep_line(rep: &Rep) -> String {
    render(&object([
        (
            "metrics",
            object(rep.metrics.iter().map(|(k, v)| (k.clone(), num(*v)))),
        ),
        (
            "ids",
            object(rep.ids.iter().map(|(k, v)| (k.clone(), text(v.as_str())))),
        ),
        ("attempted", uint(rep.attempted)),
        ("failed", uint(rep.failed)),
        (
            "notes",
            Value::Array(rep.notes.iter().map(|n| text(n.as_str())).collect()),
        ),
    ]))
}

fn parse_rep(line: &str) -> Result<Rep, String> {
    let v = serde_json::parse(line).map_err(|e| format!("repetition printed no result: {e}"))?;
    Ok(Rep {
        metrics: numbers(v.get("metrics")),
        ids: strings(v.get("ids")),
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
        notes: match v.get("notes") {
            Some(Value::Array(a)) => a
                .iter()
                .filter_map(|n| n.as_str().map(String::from))
                .collect(),
            _ => Vec::new(),
        },
    })
}

fn spawn_rep(workload: &str, seed: u64, trace: bool, smoke: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    cmd.envs(crate::mem::CHILD_ENV);
    // `output` waits for the child; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    parse_rep(last)
}

// ------------------------------------------------- one run of a workload

/// Medians over the repetitions of one workload in one mode.
pub struct Outcome {
    pub workload: String,
    pub reps: usize,
    pub metrics: BTreeMap<String, f64>,
    pub ids: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Repeats the workload while another repetition still fits in `seconds`
/// (always at least once). The traced run is one staged replay.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome {
        workload: workload.to_string(),
        reps: 0,
        metrics: BTreeMap::new(),
        ids: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    loop {
        let rep_started = Instant::now();
        match spawn_rep(workload, seed, trace, smoke) {
            Ok(rep) => {
                for (k, v) in rep.metrics {
                    samples.entry(k).or_default().push(v);
                }
                for (k, v) in rep.ids {
                    if let Some(first) = out.ids.get(&k).filter(|first| **first != v) {
                        out.attempted += 1;
                        out.failed += 1;
                        out.notes
                            .push(format!("{k} differs between repetitions: {first} then {v}"));
                    }
                    out.ids.entry(k).or_insert(v);
                }
                out.attempted += rep.attempted;
                out.failed += rep.failed;
                out.notes.extend(rep.notes);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.notes.push(e);
            }
        }
        out.reps += 1;
        let last = rep_started.elapsed().as_secs_f64();
        if trace || out.failed > 0 || started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    out.metrics = samples.into_iter().map(|(k, v)| (k, median(&v))).collect();
    out
}

fn metric_values(specs: &[Metric], prefix: &str, outcome: &Outcome, fill: bool) -> Value {
    object(specs.iter().filter_map(|m| {
        let value = outcome.metrics.get(&format!("{prefix}{}", m.name)).copied();
        let value = if fill {
            Some(value.unwrap_or(0.0))
        } else {
            value
        }?;
        Some((
            m.name.to_string(),
            object([("value", num(value)), ("unit", text(m.unit))]),
        ))
    }))
}

/// The two lines a run ends with: what the run was made of, then the
/// result object of the benchmark contract.
pub fn contract_lines(outcome: &Outcome, seed: u64, trace: bool) -> (String, String) {
    let detail = object([
        ("workload", text(outcome.workload.as_str())),
        ("seed", uint(seed)),
        ("repetitions", uint(outcome.reps as u64)),
        ("host_cpus", uint(host_cpus() as u64)),
        (
            "stages",
            metric_values(spec::STAGES, "stage.", outcome, false),
        ),
        (
            "ids",
            object(
                outcome
                    .ids
                    .iter()
                    .map(|(k, v)| (k.clone(), text(v.as_str()))),
            ),
        ),
        (
            "notes",
            Value::Array(outcome.notes.iter().map(|n| text(n.as_str())).collect()),
        ),
    ]);
    let metrics = if trace {
        metric_values(spec::PER_LAYER, "", outcome, true)
    } else {
        metric_values(spec::END_TO_END, "", outcome, true)
    };
    let result = object([
        ("correct", Value::Bool(outcome.failed == 0)),
        (
            "attempted",
            Value::Number(Number::U(outcome.attempted.max(1))),
        ),
        ("failed", Value::Number(Number::U(outcome.failed))),
        ("metrics", metrics),
    ]);
    (render(&object([("detail", detail)])), render(&result))
}

// ------------------------------------------------------------ the ledger

/// Every workload, untraced then traced, as one document: the file
/// `--compare` reads and the baseline later changes are measured against.
pub fn ledger(seed: u64, seconds: f64, smoke: bool) -> (Value, bool) {
    let mut ok = true;
    let workloads = spec::WORKLOADS.iter().map(|w| {
        eprintln!("pipeline_bench: {w}, untraced");
        let plain = run_workload(w, seed, seconds, false, smoke);
        eprintln!("pipeline_bench: {w}, traced");
        let traced = run_workload(w, seed, seconds, true, smoke);
        ok &= plain.failed == 0 && traced.failed == 0;
        let pipeline = plain.metrics.get("pipeline_s").copied().unwrap_or(0.0);
        let overhead = traced
            .metrics
            .get("trace.pipeline_s")
            .copied()
            .unwrap_or(0.0)
            - pipeline;
        let mut ids = plain.ids.clone();
        ids.extend(
            traced
                .ids
                .iter()
                .map(|(k, v)| (format!("traced.{k}"), v.clone())),
        );
        let notes = plain.notes.iter().chain(&traced.notes);
        let doc = object([
            ("repetitions", uint(plain.reps as u64)),
            ("attempted", uint(plain.attempted + traced.attempted)),
            ("failed", uint(plain.failed + traced.failed)),
            (
                "end_to_end",
                metric_values(spec::END_TO_END, "", &plain, true),
            ),
            (
                "stages",
                metric_values(spec::STAGES, "stage.", &plain, false),
            ),
            (
                "per_layer",
                metric_values(spec::PER_LAYER, "", &traced, true),
            ),
            ("traced_minus_untraced_s", num(overhead)),
            ("ids", object(ids.into_iter().map(|(k, v)| (k, text(v))))),
            (
                "notes",
                Value::Array(notes.map(|n| text(n.as_str())).collect()),
            ),
        ]);
        (*w, doc)
    });
    let workloads = object(workloads.collect::<Vec<_>>());
    let doc = object([
        ("schema", text("pipeline-bench/1")),
        ("host_cpus", uint(host_cpus() as u64)),
        ("seed", uint(seed)),
        ("seconds", num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("workloads", workloads),
    ]);
    (doc, ok)
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always serialises")
}

// --------------------------------------------------------------- compare

fn value_of(doc: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Per workload and metric: both values, how much worse B is than A as a
/// share of A, and the bound. False when a bound is exceeded, when an
/// exact count or id differs, or when a side lacks a value.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = format!(
        "A: {} cpus, B: {} cpus\n",
        a.get("host_cpus").and_then(Value::as_u64).unwrap_or(0),
        b.get("host_cpus").and_then(Value::as_u64).unwrap_or(0),
    );
    let mut ok = true;
    for w in spec::WORKLOADS {
        out.push_str(&format!("{w}\n"));
        let bounded = [("end_to_end", spec::END_TO_END), ("stages", spec::STAGES)];
        for (section, specs) in bounded {
            for m in specs {
                let (va, vb) = (
                    value_of(a, w, section, m.name),
                    value_of(b, w, section, m.name),
                );
                let (Some(va), Some(vb)) = (va, vb) else {
                    if va.is_some() != vb.is_some() || section == "end_to_end" {
                        ok = false;
                        out.push_str(&format!("  {:<16} missing on one side  FAIL\n", m.name));
                    }
                    continue;
                };
                let worse =
                    if m.higher_is_better { va - vb } else { vb - va } / va.abs().max(1e-12);
                let verdict = if worse > m.bound { "FAIL" } else { "ok" };
                ok &= worse <= m.bound;
                out.push_str(&format!(
                    "  {:<16} {va:>14.4} {vb:>14.4} {:<5} worse by {:>+7.2}%  bound {:.0}%  {verdict}\n",
                    m.name,
                    m.unit,
                    worse * 100.0,
                    m.bound * 100.0,
                ));
            }
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (
                value_of(a, w, "per_layer", m.name),
                value_of(b, w, "per_layer", m.name),
            );
            if va != vb {
                ok = false;
                out.push_str(&format!("  {:<32} {va:?} != {vb:?}  FAIL\n", m.name));
            }
        }
        let ids = |doc: &Value| {
            strings(
                doc.get("workloads")
                    .and_then(|x| x.get(w))
                    .and_then(|x| x.get("ids")),
            )
        };
        let (ia, ib) = (ids(a), ids(b));
        if ia != ib {
            ok = false;
            out.push_str(&format!("  ids differ: {ia:?} != {ib:?}  FAIL\n"));
        }
    }
    out.push_str(if ok { "agree\n" } else { "DIFFER\n" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pipeline_s: f64, events: f64) -> Value {
        let metric = |v: f64| object([("value", num(v)), ("unit", text("s"))]);
        let w = object([
            (
                "end_to_end",
                object(spec::END_TO_END.iter().map(|m| {
                    (
                        m.name.to_string(),
                        metric(if m.name == "pipeline_s" {
                            pipeline_s
                        } else {
                            1.0
                        }),
                    )
                })),
            ),
            ("stages", Value::Object(Map::new())),
            (
                "per_layer",
                object([("emulator.events_processed", metric(events))]),
            ),
            ("ids", Value::Object(Map::new())),
        ]);
        object([(
            "workloads",
            object(spec::WORKLOADS.iter().map(|n| (*n, w.clone()))),
        )])
    }

    #[test]
    fn compare_accepts_noise_and_improvement_rejects_regression_and_count_drift() {
        let edge = 10.0 * (1.0 + spec::END_TO_END[0].bound);
        assert!(compare(&doc(10.0, 5.0), &doc(edge - 0.1, 5.0)).1);
        assert!(compare(&doc(10.0, 5.0), &doc(5.0, 5.0)).1);
        assert!(!compare(&doc(10.0, 5.0), &doc(edge + 0.1, 5.0)).1);
        assert!(!compare(&doc(10.0, 5.0), &doc(10.0, 6.0)).1);
    }

    #[test]
    fn rep_line_round_trips() {
        let mut rep = Rep::default();
        rep.metrics.insert("pipeline_s".to_string(), 1.25);
        rep.ids.insert("digest".to_string(), "00ff".to_string());
        rep.attempted = 3;
        rep.notes.push("a \"quoted\" note".to_string());
        let back = parse_rep(&rep_line(&rep)).unwrap();
        assert_eq!(back.metrics["pipeline_s"], 1.25);
        assert_eq!(back.ids["digest"], "00ff");
        assert_eq!((back.attempted, back.failed), (3, 0));
        assert_eq!(back.notes, rep.notes);
    }
}
