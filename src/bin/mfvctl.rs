//! `mfvctl` — command-line front end for the model-free verification
//! pipeline, operating on topology files (the same JSON documents the
//! emulator uses).
//!
//! ```text
//! mfvctl example six-node > topo.json         write a scenario topology file
//! mfvctl run topo.json [--seed N] [--machines N]
//! mfvctl diff before.json after.json [--scope CIDR]
//! mfvctl trace topo.json <src-node> <dst-ip>
//! mfvctl show topo.json <node> [--seed N] [--machines N] <show command...>
//! mfvctl model topo.json                       model-based baseline + coverage
//! mfvctl lint topo.json... [--json] [--deny-warnings]
//! mfvctl serve topo.json [--port N] [--workers N] [--baseline model]
//! mfvctl query addr:port [REQUEST...]          client for a running server
//! ```

// P1 (DESIGN.md § "Determinism & panic-safety invariants"): every failure
// is a message and exit 1, never a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::io::{self, Write};
use std::process::ExitCode;

use mfv_conflint::analyze;
use mfv_core::{
    deliverability_changes, differential_reachability_with, scenarios, unreachable_pairs_with,
    Backend, EmulationBackend, ForwardingAnalysis, ModelBackend, Snapshot,
};
use mfv_emulator::Topology;
use mfv_serve::{query_once, QueryIndex, Server, ServerConfig};
use mfv_types::{IpSet, NodeId};

/// Why a command stopped: a message for the user, or the `io::Error` of a
/// failed write to stdout (the only error passed on unconverted).
type Failure = Box<dyn std::error::Error>;

/// Every line any command prints goes through this one handle (line
/// buffered, so `serve`'s address is visible before it blocks).
type Out = io::StdoutLock<'static>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(failure) = run(&args, &mut io::stdout().lock()) else {
        return ExitCode::SUCCESS;
    };
    // `mfvctl run topo.json | head -3`: the reader has what it wanted.
    if let Some(io::ErrorKind::BrokenPipe) = failure.downcast_ref().map(io::Error::kind) {
        return ExitCode::SUCCESS;
    }
    eprintln!("mfvctl: {failure}");
    ExitCode::FAILURE
}

fn run(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let (cmd, args) = args
        .split_first()
        .map_or(("help", args), |(c, a)| (c.as_str(), a));
    // Every command but the variadic show, query and lint takes at most this
    // many words besides its options; a word past them is never ignored.
    let arity = match cmd {
        "example" | "run" | "model" | "serve" => Some(1),
        "diff" => Some(2),
        "trace" => Some(3),
        _ => None,
    };
    if let Some(extra) = arity.and_then(|n| positional(args).nth(n)) {
        return Err(format!("unexpected argument '{extra}' to {cmd}").into());
    }
    match cmd {
        "example" => example(args.first().map_or("six-node", |s| s.as_str()), out),
        "run" => cmd_run(args, out),
        "diff" => cmd_diff(args, out),
        "trace" => cmd_trace(args, out),
        "show" => cmd_show(args, out),
        "model" => cmd_model(args, out),
        "serve" => cmd_serve(args, out),
        "query" => cmd_query(args, out),
        "lint" => cmd_lint(args, out),
        "help" | "--help" | "-h" => Ok(write!(out, "{HELP}")?),
        other => Err(format!("unknown command '{other}' (try `mfvctl help`)").into()),
    }
}

const HELP: &str = "\
mfvctl — model-free network verification

USAGE:
  mfvctl example [NAME]                       print a scenario topology file
                                              (six-node, six-node-broken,
                                               fig3-line, rr-cluster, clos,
                                               interplay, conflint-base)
  mfvctl run TOPOLOGY [--seed N] [--machines N]
                                              emulate, converge, verify
  mfvctl diff BEFORE AFTER [--scope CIDR]     differential reachability
  mfvctl trace TOPOLOGY SRC-NODE DST-IP       single-packet traceroute
  mfvctl show TOPOLOGY NODE [--seed N] [--machines N] COMMAND...
                                              operator CLI on the converged net
  mfvctl model TOPOLOGY                       model-based baseline + coverage
  mfvctl serve TOPOLOGY [--port N] [--workers N] [--baseline model]
                                              converge once, precompute the
                                              class index, answer queries
                                              over TCP (REACH, FATE, TRACE,
                                              DIFF, NODES, STATS, QUIT)
  mfvctl query ADDR:PORT [REQUEST...]         send one request (or stdin
                                              lines) to a running server
  mfvctl lint TOPOLOGY... [--json] [--deny-warnings]
                                              cross-device config analysis
";

fn example(name: &str, out: &mut Out) -> Result<(), Failure> {
    let snapshot = match name {
        "six-node" => scenarios::six_node(),
        "six-node-broken" => scenarios::six_node_broken(),
        "fig3-line" => scenarios::three_node_line_fig3(),
        "rr-cluster" => scenarios::rr_cluster(4),
        "clos" => scenarios::clos(2, 4),
        "interplay" => scenarios::interplay_chain(),
        "conflint-base" => scenarios::conflint_base(),
        other => return Err(format!("unknown example '{other}'").into()),
    };
    Ok(writeln!(out, "{}", snapshot.topology.to_json())?)
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let topo = Topology::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    topo.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(Snapshot::new(path.to_string(), topo))
}

/// The value after option `name`, if the option is given; an option given
/// with nothing after it fails by name rather than running without it.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) => Ok(Some(value.clone())),
        None => Err(format!("option '{name}' needs a value")),
    }
}

/// The words of a command that are neither an `--option` nor its value.
fn positional(args: &[String]) -> impl Iterator<Item = &String> {
    let mut after_option = false;
    args.iter().filter(move |a| {
        let word = !after_option && !a.starts_with("--");
        after_option = !after_option && a.starts_with("--");
        word
    })
}

/// Fails by name on any `--option` not in `known`, so a misspelt or retired
/// one never silently runs without it.
fn reject_unknown_options(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(unknown) => Err(format!("unknown option '{unknown}' (try `mfvctl help`)")),
        None => Ok(()),
    }
}

/// The backend every emulating command builds from `--seed` / `--machines`.
/// `also` names the command's own options.
fn backend_from(args: &[String], also: &[&str]) -> Result<EmulationBackend, String> {
    reject_unknown_options(args, &[&["--seed", "--machines"], also].concat())?;
    let mut backend = EmulationBackend::default();
    if let Some(seed) = flag(args, "--seed")? {
        backend.seed = seed.parse().map_err(|_| "bad --seed".to_string())?;
    }
    if let Some(m) = flag(args, "--machines")? {
        backend.cluster_machines = m.parse().map_err(|_| "bad --machines".to_string())?;
    }
    Ok(backend)
}

fn cmd_run(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let path = args.first().ok_or("usage: mfvctl run TOPOLOGY")?;
    let snapshot = load(path)?;
    let backend = backend_from(args, &[])?;
    let result = backend.compute(&snapshot).map_err(|e| e.to_string())?;
    writeln!(out, "snapshot:    {}", snapshot.name)?;
    writeln!(out, "nodes:       {}", result.dataplane.nodes.len())?;
    writeln!(out, "converged:   {}", result.meta.converged)?;
    if let Some(boot) = result.meta.boot_time {
        writeln!(out, "boot:        {boot}")?;
    }
    if let Some(conv) = result.meta.convergence_time {
        writeln!(out, "convergence: {conv} after boot")?;
    }
    writeln!(out, "messages:    {}", result.meta.messages)?;
    writeln!(out, "crashes:     {}", result.meta.crashes)?;
    writeln!(out, "fib entries: {}", result.dataplane.total_entries())?;

    let broken = unreachable_pairs_with(&ForwardingAnalysis::new(&result.dataplane));
    if broken.is_empty() {
        writeln!(out, "\nreachability: full mesh ✓")?;
    } else {
        writeln!(out, "\nreachability: {} broken pairs", broken.len())?;
        for r in broken.iter().take(10) {
            for (set, disp) in r.failed.iter().take(2) {
                writeln!(out, "  {} -> {}: {} [{}]", r.src, r.dst_node, set, disp)?;
            }
        }
    }
    Ok(())
}

fn cmd_diff(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let (a, b) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("usage: mfvctl diff BEFORE AFTER [--scope CIDR]".into()),
    };
    let scope = match flag(args, "--scope")? {
        Some(cidr) => Some(IpSet::from_prefix(
            &cidr.parse().map_err(|_| format!("bad --scope '{cidr}'"))?,
        )),
        None => None,
    };
    let backend = backend_from(args, &["--scope"])?;
    let before = backend.compute(&load(a)?).map_err(|e| e.to_string())?;
    let after = backend.compute(&load(b)?).map_err(|e| e.to_string())?;
    let findings = differential_reachability_with(
        &ForwardingAnalysis::new(&before.dataplane),
        &ForwardingAnalysis::new(&after.dataplane),
        scope.as_ref(),
    );
    writeln!(out, "{} fate-changed packet classes", findings.len())?;
    let lost = deliverability_changes(&findings);
    writeln!(out, "{} deliverability changes:", lost.len())?;
    for f in lost {
        writeln!(out, "  {f}")?;
    }
    Ok(())
}

fn cmd_trace(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let (path, src, dst) = match (args.first(), args.get(1), args.get(2)) {
        (Some(p), Some(s), Some(d)) => (p, s, d),
        _ => return Err("usage: mfvctl trace TOPOLOGY SRC-NODE DST-IP".into()),
    };
    let dst: std::net::Ipv4Addr = dst
        .parse()
        .map_err(|_| format!("bad destination '{dst}'"))?;
    let backend = backend_from(args, &[])?;
    let snapshot = load(path)?;
    let src = NodeId::from(src.as_str());
    if snapshot.topology.node(&src).is_none() {
        return Err(format!("no such node '{src}'").into());
    }
    let result = backend.compute(&snapshot).map_err(|e| e.to_string())?;
    let trace = ForwardingAnalysis::new(&result.dataplane).trace(&src, dst);
    Ok(writeln!(out, "{trace}")?)
}

fn cmd_show(args: &[String], out: &mut Out) -> Result<(), Failure> {
    const USAGE: &str = "usage: mfvctl show TOPOLOGY NODE [--seed N] [--machines N] COMMAND...";
    let (path, node) = match (args.first(), args.get(1)) {
        (Some(p), Some(n)) => (p, n),
        _ => return Err(USAGE.into()),
    };
    // `--option value` pairs come first; the device command is the rest.
    let rest = args.get(2..).unwrap_or_default();
    let mut split = 0;
    while rest.get(split).is_some_and(|a| a.starts_with("--")) {
        split = (split + 2).min(rest.len());
    }
    let (options, command) = rest.split_at(split);
    let backend = backend_from(options, &[])?;
    if command.is_empty() {
        return Err(USAGE.into());
    }
    let (emu, _) = backend.run(&load(path)?).map_err(|e| e.to_string())?;
    match emu.cli(&NodeId::from(node.as_str()), &command.join(" ")) {
        Some(text) => Ok(write!(out, "{text}")?),
        None => Err(format!("no such node '{node}'").into()),
    }
}

fn cmd_serve(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let path = args.first().ok_or("usage: mfvctl serve TOPOLOGY")?;
    let snapshot = load(path)?;
    let backend = backend_from(args, &["--port", "--workers", "--baseline"])?;
    let baseline_name = flag(args, "--baseline")?;
    let mut cfg = ServerConfig::default();
    if let Some(p) = flag(args, "--port")? {
        cfg.port = p.parse().map_err(|_| "bad --port".to_string())?;
    }
    if let Some(w) = flag(args, "--workers")? {
        cfg.workers = w.parse().map_err(|_| "bad --workers".to_string())?;
    }
    let result = backend.compute(&snapshot).map_err(|e| e.to_string())?;
    if !result.meta.converged {
        return Err("snapshot did not converge; refusing to serve it".into());
    }
    let baseline = match baseline_name.as_deref() {
        Some("model") => Some(
            ModelBackend
                .compute(&snapshot)
                .map_err(|e| e.to_string())?
                .dataplane,
        ),
        Some(other) => return Err(format!("unknown --baseline '{other}' (try 'model')").into()),
        None => None,
    };
    let index = match &baseline {
        Some(base) => QueryIndex::with_baseline(&result.dataplane, base),
        None => QueryIndex::new(&result.dataplane),
    };
    let classes = index.warm();
    let handle =
        Server::start(std::sync::Arc::new(index), &cfg).map_err(|e| format!("bind: {e}"))?;
    writeln!(out, "snapshot:  {}", snapshot.name)?;
    writeln!(out, "nodes:     {}", result.dataplane.nodes.len())?;
    writeln!(out, "classes:   {classes}")?;
    writeln!(out, "workers:   {}", cfg.workers.max(1))?;
    writeln!(out, "listening on {}", handle.addr())?;
    handle.wait();
    Ok(())
}

fn cmd_query(args: &[String], out: &mut Out) -> Result<(), Failure> {
    use std::io::{BufRead as _, BufReader, BufWriter};
    let addr = args
        .first()
        .ok_or("usage: mfvctl query ADDR:PORT [REQUEST...]")?;
    let conn = std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(conn);
    let mut send = |req: &str| -> Result<bool, Failure> {
        let (ok, payload) = query_once(&mut reader, &mut writer, req).map_err(|e| e.to_string())?;
        if ok {
            writeln!(out, "{payload}")?;
        } else {
            writeln!(out, "error: {payload}")?;
        }
        Ok(ok)
    };
    let rest = args.get(1..).unwrap_or_default();
    if rest.is_empty() {
        // Scripted mode: one request per stdin line, all on one connection.
        let mut all_ok = true;
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            all_ok &= send(line)?;
            if line == "QUIT" {
                break;
            }
        }
        if all_ok {
            Ok(())
        } else {
            Err("some requests failed".into())
        }
    } else {
        let req = rest.join(" ");
        if send(&req)? {
            Ok(())
        } else {
            Err("request failed".into())
        }
    }
}

fn cmd_model(args: &[String], out: &mut Out) -> Result<(), Failure> {
    let path = args.first().ok_or("usage: mfvctl model TOPOLOGY")?;
    reject_unknown_options(args, &[])?;
    let snapshot = load(path)?;
    let result = ModelBackend.compute(&snapshot).map_err(|e| e.to_string())?;
    writeln!(out, "config      total  recognized  unrecognized")?;
    for report in &result.meta.coverage {
        writeln!(
            out,
            "{:<10} {:>6}  {:>10}  {:>12}",
            report.hostname,
            report.total_lines,
            report.recognized_lines,
            report.unrecognized_count()
        )?;
    }
    let broken = unreachable_pairs_with(&ForwardingAnalysis::new(&result.dataplane));
    if broken.is_empty() {
        writeln!(out, "\nmodel dataplane: full mesh reachability")?;
    } else {
        writeln!(out, "\nmodel dataplane: {} broken pairs", broken.len())?;
        for r in broken.iter().take(10) {
            writeln!(out, "  {} -> {}", r.src, r.dst_node)?;
        }
    }
    Ok(())
}

fn cmd_lint(args: &[String], out: &mut Out) -> Result<(), Failure> {
    reject_unknown_options(args, &["--json", "--deny-warnings"])?;
    let given = |option: &str| args.iter().any(|a| a == option);
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        return Err("usage: mfvctl lint TOPOLOGY... [--json] [--deny-warnings]".into());
    }
    let mut failed = 0;
    for path in &paths {
        let report = analyze(&load(path)?.topology).map_err(|e| format!("{path}: {e}"))?;
        if given("--json") {
            write!(out, "{}", report.render_json())?;
        } else {
            write!(out, "{}", report.render())?;
        }
        let denied = given("--deny-warnings") && !report.findings.is_empty();
        failed += usize::from(denied || report.errors() > 0);
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} of {} topologies failed the lint", paths.len()).into()),
    }
}
