//! `pipeline_bench`: the repository's benchmark. One harness for configs →
//! dataplane → verdict → served query, on four workloads, with a traced
//! run that attributes the time to the layers underneath.
//!
//! ```text
//! pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one run of one workload; the last line of stdout is the result
//! pipeline_bench --all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//!     every workload, untraced then traced, as one ledger document
//! pipeline_bench --compare <A.json> <B.json>
//!     two ledgers side by side against the bounds; non-zero when B is worse
//! ```

mod api;
mod mem;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 30.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    rep: bool,
    all: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(&mut it, "--workload")?;
                if !spec::is_workload(&w) {
                    return Err(format!(
                        "unknown workload {w}; one of {:?}",
                        spec::WORKLOADS
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds")?;
                args.seconds = Some(v.parse().map_err(|_| format!("bad --seconds {v}"))?);
            }
            "--trace" => {
                args.trace = match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--rep" => args.rep = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(value(&mut it, "--out")?),
            "--compare" => {
                args.compare = Some((value(&mut it, "--compare")?, value(&mut it, "--compare")?))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn read_ledger(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);

    if let Some((a, b)) = &args.compare {
        let (text, ok) = report::compare(&read_ledger(a)?, &read_ledger(b)?);
        print!("{text}");
        return Ok(ok);
    }
    if args.all {
        let (doc, ok) = report::ledger(seed, seconds, args.smoke);
        let text = report::pretty(&doc);
        match &args.out {
            Some(path) => std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?,
            None => println!("{text}"),
        }
        return Ok(ok);
    }
    let workload = args
        .workload
        .ok_or("give --workload <name>, --all or --compare <A> <B>")?;
    if args.rep {
        let rep = workloads::run(&workload, seed, args.trace, args.smoke);
        println!("{}", report::rep_line(&rep));
        return Ok(true);
    }
    let outcome = report::run_workload(&workload, seed, seconds, args.trace, args.smoke);
    for note in &outcome.notes {
        eprintln!("pipeline_bench: {workload}: {note}");
    }
    let (detail, result) = report::contract_lines(&outcome, seed, args.trace);
    println!("{detail}");
    println!("{result}");
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::from(2)
        }
    }
}
