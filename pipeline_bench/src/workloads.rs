//! The four workloads, one repetition each. The untraced run goes through
//! the product's own entry points (`compute`, `run_watch`, the link-cut
//! sweep); the traced run replays the same work as the staged sequence of
//! public calls underneath them, with a span around each, and then runs
//! each layer's functions alone over the tables the workload extracted.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use crate::api;
use crate::mem;
use crate::stats::{fnv64, median, percentile, Mix};
use crate::trace::Tracer;

/// Known answers at seed 1, full scale. A change that only makes the
/// program faster leaves every one of them as it is.
const PINS: &[(&str, &str, &str)] = &[
    ("wan1000_converge", "digest", "3c674dbfa66e78c7"),
    ("wan1000_converge", "events_processed", "776235"),
    ("wan1000_converge", "messages_delivered", "322807"),
    ("grid60_verify", "digest", "92d72deef6b05465"),
    ("grid60_verify", "events_processed", "80760"),
    ("grid60_verify", "messages_delivered", "51493"),
    ("grid60_verify", "classes", "3660"),
    ("grid60_verify", "reply_fnv", "9a59d5202e8317e4"),
    ("grid42_watch", "events_processed", "39480"),
    ("grid42_watch", "evaluations", "38"),
    ("grid42_watch", "journal_fnv", "f6eab2bc8e682a4b"),
    ("grid30_whatif", "events_processed", "19243"),
    ("grid30_whatif", "contexts", "49"),
    ("grid30_whatif", "verdict_fnv", "429650de4670bf60"),
];

/// What one repetition hands back to the parent process.
#[derive(Default)]
pub struct Rep {
    pub metrics: BTreeMap<String, f64>,
    /// Digests, hashes and counts that repeat exactly for a seed.
    pub ids: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Rep {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn id(&mut self, name: &str, value: impl ToString) {
        self.ids.insert(name.to_string(), value.to_string());
    }

    /// One operation or known-answer check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.many(1, u64::from(!ok), what);
    }

    fn many(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{failed}/{attempted} failed: {}", what()));
        }
    }
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How much heap a repetition touches before it is timed: a little more
/// than the workload's peak (2,086 MiB allocated, 2,470 MiB resident on
/// `wan1000_converge`; some 30 MiB on the grids).
fn warm_heap_mb(workload: &str, smoke: bool) -> usize {
    match (workload, smoke) {
        ("wan1000_converge", false) => 2_700,
        _ => 64,
    }
}

/// More faults than this inside the timed stages mean the warmed heap no
/// longer covers the workload (the grids' sweep and server threads, whose
/// arenas are their own, stay below 20,000).
const MANY_FAULTS: u64 = 100_000;

/// Median wall of `f` over `samples` and enough further calls to fill a
/// fifth of a second (at least 15 in all): set-up is milliseconds, so one
/// call says little.
fn median_wall<T>(mut samples: Vec<f64>, mut f: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let out = f();
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 15 && started.elapsed().as_secs_f64() >= 0.2 {
            return (out, median(&samples));
        }
    }
}

pub fn run(workload: &str, seed: u64, trace: bool, smoke: bool) -> Rep {
    let mut rep = Rep::default();
    let mut tr = Tracer::new(trace);
    let t = Instant::now();
    let snapshot = api::scenario(workload, smoke);
    let first_setup = t.elapsed().as_secs_f64();
    let backend = api::backend(workload, smoke, seed);
    mem::warm_heap(warm_heap_mb(workload, smoke));
    mem::reset_peak();
    let faults = mem::minor_faults();

    let ((), wall) = tr.span("pipeline", |tr| {
        let r = &mut rep;
        let outcome = match workload {
            "wan1000_converge" => wan_converge(tr, r, &backend, &snapshot),
            "grid60_verify" => grid_verify(tr, r, &backend, &snapshot, seed, smoke),
            "grid42_watch" => grid_watch(tr, r, &backend, &snapshot, smoke),
            "grid30_whatif" => grid_whatif(tr, r, &backend, &snapshot),
            other => Err(format!("unknown workload {other}")),
        };
        if let Err(e) = outcome {
            r.check(false, || e);
        }
    });

    // The traced run's host-parallel convergence allocates from its pool
    // threads' own arenas, which nothing has warmed; only the untraced run
    // is held to the limit.
    let faults = mem::minor_faults() - faults;
    if !trace && faults > MANY_FAULTS {
        rep.notes.push(format!(
            "{faults} page faults inside the run: the {} MiB warmed before it no longer cover it",
            warm_heap_mb(workload, smoke)
        ));
    }

    if !smoke && backend.seed == 1 {
        for (_, key, want) in PINS.iter().filter(|(w, _, _)| *w == workload) {
            if let Some(got) = rep.ids.get(*key).cloned() {
                rep.check(&got == want, || {
                    format!("{key} is {got}, pinned {want} at seed 1")
                });
            }
        }
    }

    // `pipeline_s` is the sum of the stages, so that what the harness does
    // between them (request generation, checks) stays out of it.
    let stages: f64 = [
        "dataplane_s",
        "verdict_s",
        "index_build_s",
        "serve_s",
        "watch_s",
        "sweep_s",
    ]
    .iter()
    .filter_map(|s| rep.metrics.get(&format!("stage.{s}")))
    .sum();
    if trace {
        rep.set("trace.pipeline_s", stages);
        rep.set("trace.spans", tr.len() as f64);
        rep.set("host.cpus", host_cpus() as f64);
        let by_name = tr.by_name();
        let own: f64 = by_name
            .iter()
            .filter(|(n, _)| n.starts_with("stage.") || n.starts_with("core.whatif_"))
            .map(|(_, (_, own, _))| own)
            .sum();
        rep.set("trace.harness_self_s", own);
        write_trace(&tr, workload, wall);
    } else {
        rep.set("pipeline_s", stages);
        rep.set("peak_heap_mb", mem::peak_mb());
    }
    // Set-up is sampled once the workload has run: a process's first tenth
    // of a second on a cold core reads up to 1.6 times slower than the rest.
    let ((), setup_s) = median_wall(vec![first_setup], || drop(api::scenario(workload, smoke)));
    *rep.metrics.entry("setup_s".to_string()).or_default() += setup_s;
    rep
}

/// Spans go next to the executable: inside the checkout's build directory,
/// which no commit ever carries.
fn write_trace(tr: &Tracer, workload: &str, wall: f64) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("pipeline_bench-trace-{workload}.json"));
    match std::fs::write(&path, tr.to_json(workload)) {
        Ok(()) => eprintln!(
            "pipeline_bench: {} spans over {wall:.3} s written to {}",
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("pipeline_bench: cannot write {}: {e}", path.display()),
    }
}

// ---------------------------------------------------- the dataplane stage

struct Extracted {
    dataplane: api::Dataplane,
    /// Two nodes' state trees, kept by the staged replay for the gNMI loops.
    telemetry: Option<api::TelemetryPair>,
}

/// Configs → extracted dataplane, as the `stage.dataplane` of a workload.
fn dataplane_stage(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
) -> Result<Extracted, String> {
    let (out, secs) = tr.span("stage.dataplane", |tr| {
        extract_dataplane(tr, rep, backend, snapshot)
    });
    rep.set("stage.dataplane_s", secs);
    let out = out?;
    rep.id("digest", format!("{:016x}", api::digest(&out.dataplane)));
    Ok(out)
}

/// Untraced: `EmulationBackend::compute`. Traced: the calls `compute`
/// makes, one span each.
fn extract_dataplane(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
) -> Result<Extracted, String> {
    if !tr.enabled() {
        let result = api::compute(backend, snapshot)?;
        rep.check(result.meta.converged, || {
            format!("{} did not converge", snapshot.name)
        });
        rep.check(result.meta.extraction_coverage == Some(1.0), || {
            format!(
                "{} extraction coverage {:?}",
                snapshot.name, result.meta.extraction_coverage
            )
        });
        rep.id("messages_delivered", result.meta.messages);
        return Ok(Extracted {
            dataplane: result.dataplane,
            telemetry: None,
        });
    }
    let emu = boot_and_converge(tr, rep, backend, snapshot)?;
    let (reference, secs) = tr.span("emulator.export_dataplane", |_| api::export_dataplane(&emu));
    rep.set("emulator.export_dataplane_s", secs);
    let (collection, secs) = tr.span("mgmt.collect", |_| api::collect(backend, &emu));
    rep.set("mgmt.collect_s", secs);
    rep.set("mgmt.rpc_attempts", collection.attempts as f64);
    let (afts, secs) = tr.span("mgmt.collect_afts", |_| api::collect_afts(&collection));
    rep.set("mgmt.collect_afts_s", secs);
    rep.set("mgmt.aft_entries", api::aft_entries(&afts) as f64);
    let (dataplane, secs) = tr.span("mgmt.dataplane_from_afts", |_| {
        api::dataplane_from_afts(&afts, &reference)
    });
    rep.set("mgmt.dataplane_from_afts_s", secs);
    rep.check(collection.coverage() == 1.0, || {
        format!(
            "{} extraction coverage {}",
            snapshot.name,
            collection.coverage()
        )
    });
    // `compute` also pays for letting go of the emulation and of every
    // node's state tree before it returns.
    let telemetry = api::telemetry_pair(&collection);
    let ((), secs) = tr.span("mgmt.teardown", |_| drop((collection, afts)));
    rep.set("mgmt.teardown_s", secs);
    let ((), secs) = tr.span("emulator.teardown", |_| drop((emu, reference)));
    rep.set("emulator.teardown_s", secs);
    Ok(Extracted {
        dataplane,
        telemetry,
    })
}

/// Conflint gate, `Emulation::new`, `run_until_converged`, and the engine
/// and router counters of the run.
fn boot_and_converge(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
) -> Result<api::Emulation, String> {
    let (lint, secs) = tr.span("conflint.analyze", |_| api::conflint_errors(snapshot));
    rep.set("conflint.analyze_s", secs);
    lint?;
    let (emu, secs) = tr.span("emulator.new", |_| api::emulation_new(backend, snapshot));
    rep.set("emulator.new_s", secs);
    let mut emu = emu?;
    let (report, secs) = tr.span("emulator.converge", |_| api::run_until_converged(&mut emu));
    rep.check(report.converged, || {
        format!("{} did not converge", snapshot.name)
    });
    rep.set("emulator.converge_s", secs);
    rep.set(
        "emulator.us_per_event",
        secs * 1e6 / report.events_processed.max(1) as f64,
    );
    rep.set("emulator.events_processed", report.events_processed as f64);
    rep.set("emulator.events_scheduled", report.events_scheduled as f64);
    rep.set(
        "emulator.messages_delivered",
        report.messages_delivered as f64,
    );
    rep.id("events_processed", report.events_processed);
    rep.id("messages_delivered", report.messages_delivered);
    let (boot_s, converge_s) = api::sim_boot_converge_s(&report);
    rep.set("emulator.sim_boot_s", boot_s);
    rep.set("emulator.sim_converge_s", converge_s);
    rep.set("emulator.shards", api::shard_count(&emu) as f64);

    let obs = api::export_obs(&emu);
    let counter = |name: &str| api::obs_counter(&obs, name) as f64;
    rep.set(
        "emulator.deliver_isis",
        counter("engine.events.deliver_isis"),
    );
    rep.set("emulator.deliver_bgp", counter("engine.events.deliver_bgp"));
    rep.set("emulator.router_polls", counter("engine.polls.router"));
    let (patches, full) = (
        counter("vrouter.fib.patches"),
        counter("vrouter.fib.full_refreshes"),
    );
    rep.set("vrouter.fib_patches", patches);
    rep.set("vrouter.fib_full_refreshes", full);
    rep.set("vrouter.patch_ratio", patches / (patches + full).max(1.0));
    rep.set("vrouter.rib_resyncs", counter("vrouter.rib.resyncs"));
    rep.set("vrouter.decode_errors", counter("vrouter.decode_errors"));
    Ok(emu)
}

// ---------------------------------------------------------------- wan1000

fn wan_converge(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
) -> Result<(), String> {
    let extracted = dataplane_stage(tr, rep, backend, snapshot)?;
    if !tr.enabled() {
        return Ok(());
    }
    let sequential = (
        api::digest(&extracted.dataplane),
        rep.metrics["emulator.events_processed"],
        rep.metrics["emulator.converge_s"],
    );
    layer_loops(
        tr,
        rep,
        &extracted.dataplane,
        extracted.telemetry.as_ref(),
        None,
    );
    drop(extracted);

    // Does a second thread help? The same convergence with the engine's
    // worker pool at host parallelism; results must not change.
    let parallel = api::with_host_threads(backend);
    let mut emu = api::emulation_new(&parallel, snapshot)?;
    let (report, secs) = tr.span("emulator.converge_par", |_| {
        api::run_until_converged(&mut emu)
    });
    rep.set("emulator.converge_par_s", secs);
    rep.set("emulator.thread_speedup", sequential.2 / secs.max(1e-9));
    rep.check(
        api::digest(&api::export_dataplane(&emu)) == sequential.0
            && report.events_processed as f64 == sequential.1,
        || "host-parallel convergence differs from the sequential one".to_string(),
    );
    Ok(())
}

// ----------------------------------------------------------------- grid60

/// One third each REACH / FATE (third address never delivered) / TRACE,
/// in the order `query_bench` generates them.
fn build_requests(
    nodes: &[String],
    addresses: &[Ipv4Addr],
    count: usize,
    seed: u64,
) -> Vec<String> {
    let mut mix = Mix(seed ^ 0x71_75_65_72_79); // "query"
    (0..count)
        .map(|i| {
            let (src, dst) = (mix.pick(nodes), mix.pick(nodes));
            let (a, b) = (mix.pick(addresses), mix.pick(addresses));
            match i % 3 {
                0 => format!("REACH {src} {dst}"),
                1 => format!("FATE {src} {a} {b} 203.0.113.77"),
                _ => format!("TRACE {src} {a}"),
            }
        })
        .collect()
}

/// Does the reply give the answer a healthy network must give?
fn reply_is_right(request: &str, reply: &str, owner: &BTreeMap<String, String>) -> bool {
    let words: Vec<&str> = request.split_whitespace().collect();
    let accepted_at = |ip: &str| owner.get(ip).map(|o| format!("[accepted at {o}]"));
    match words.as_slice() {
        ["REACH", ..] => reply.contains("fully_reachable=true"),
        ["FATE", _, a, b, miss] => {
            let lines: Vec<&str> = reply.lines().collect();
            lines.len() == 3
                && accepted_at(a).is_some_and(|want| lines[0] == format!("{a} {want}"))
                && accepted_at(b).is_some_and(|want| lines[1] == format!("{b} {want}"))
                && lines[2].starts_with(miss)
                && !lines[2].contains("accepted")
        }
        ["TRACE", _, a] => owner
            .get(*a)
            .is_some_and(|o| reply.lines().last() == Some(format!("=> accepted at {o}").as_str())),
        _ => false,
    }
}

struct Served {
    /// Client-observed latency per request, in request order.
    latency_us: Vec<f64>,
    replies: Vec<(bool, String)>,
    wall_s: f64,
}

/// One request as its client saw it.
struct Answer {
    index: usize,
    span: (u64, u64),
    ok: bool,
    payload: String,
}

/// Closed loop: every connection sends its next request when the reply to
/// the last one is in. Connection `c` of `n` carries requests `c, c+n, …`.
fn serve_requests(
    tr: &mut Tracer,
    index: &std::sync::Arc<api::QueryIndex>,
    requests: &[String],
    connections: usize,
) -> Result<Served, String> {
    let handle = api::server_start(index, connections).map_err(|e| format!("bind: {e}"))?;
    let addr = api::server_addr(&handle);
    let clock = &*tr;
    let started = Instant::now();
    let per_conn: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                s.spawn(move || {
                    let mut client = api::client_connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for (index, req) in requests.iter().enumerate().skip(c).step_by(connections) {
                        let start_ns = clock.now_ns();
                        let (ok, payload) =
                            api::client_query(&mut client, req).map_err(|e| e.to_string())?;
                        out.push(Answer {
                            index,
                            span: (start_ns, clock.now_ns()),
                            ok,
                            payload,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    api::server_shutdown(handle);

    let mut rows = Vec::with_capacity(requests.len());
    for conn in per_conn {
        rows.extend(conn?);
    }
    rows.sort_by_key(|r| r.index);
    let intervals: Vec<(u64, u64)> = rows.iter().map(|r| r.span).collect();
    tr.adopt("serve.client_query", &intervals);
    Ok(Served {
        latency_us: intervals
            .iter()
            .map(|(a, b)| (b - a) as f64 / 1e3)
            .collect(),
        replies: rows.into_iter().map(|r| (r.ok, r.payload)).collect(),
        wall_s,
    })
}

fn grid_verify(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
    seed: u64,
    smoke: bool,
) -> Result<(), String> {
    let extracted = dataplane_stage(tr, rep, backend, snapshot)?;
    let dp = &extracted.dataplane;

    // Dataplane in hand → the three batch verdicts of `mfvctl run`.
    let (fa, secs) = tr.span("stage.verdict", |tr| {
        let (fa, secs) = tr.span("verify.analysis_new", |_| api::analysis_new(dp));
        rep.set("verify.analysis_new_s", secs);
        let (unreachable, secs) = tr.span("verify.unreachable_pairs", |_| api::unreachable_pairs(&fa));
        rep.set("verify.unreachable_pairs_s", secs);
        let (loops, secs) = tr.span("verify.loops", |_| api::loops(&fa));
        rep.set("verify.loops_s", secs);
        let (holes, secs) = tr.span("verify.blackholes", |_| api::blackholes(&fa));
        rep.set("verify.blackholes_s", secs);
        rep.check(unreachable == 0 && loops == 0 && holes == 0, || {
            format!("healthy grid has {unreachable} unreachable pairs, {loops} loops, {holes} black holes")
        });
        fa
    });
    rep.set("stage.verdict_s", secs);
    let (hits, misses) = api::memo_stats(&fa);
    rep.set("verify.memo_hits", hits as f64);
    rep.set("verify.memo_misses", misses as f64);
    rep.set(
        "verify.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    // What `mfvctl serve` spends before it listens.
    let (index, secs) = tr.span("stage.index_build", |tr| {
        let (index, secs) = tr.span("serve.index_new", |_| api::index_new(dp));
        rep.set("serve.index_new_s", secs);
        let (classes, secs) = tr.span("verify.warm", |_| api::index_warm(&index));
        rep.set("verify.warm_s", secs);
        rep.set("verify.classes", classes as f64);
        rep.id("classes", classes);
        index
    });
    rep.set("stage.index_build_s", secs);

    let nodes = api::node_names(dp);
    let owned = api::owned_addresses(dp);
    let addresses: Vec<Ipv4Addr> = owned.iter().map(|(a, _)| *a).collect();
    let count = if smoke { 300 } else { 6000 };
    let (requests, request_gen_s) = median_wall(Vec::new(), || {
        build_requests(&nodes, &addresses, count, seed)
    });
    *rep.metrics.entry("setup_s".to_string()).or_default() += request_gen_s;

    let connections = (host_cpus() / 2).max(1);
    let (served, secs) = tr.span("stage.serve", |tr| {
        serve_requests(tr, &index, &requests, connections)
    });
    let served = served?;
    rep.set("stage.serve_s", secs);
    let (p50, p99) = (
        percentile(&served.latency_us, 50.0),
        percentile(&served.latency_us, 99.0),
    );
    let qps = requests.len() as f64 / served.wall_s.max(1e-9);
    for (stage, layer, value) in [
        ("stage.query_p50_us", "serve.client_p50_us", p50),
        ("stage.query_p99_us", "serve.client_p99_us", p99),
        ("stage.query_qps", "serve.client_qps", qps),
    ] {
        rep.set(if tr.enabled() { layer } else { stage }, value);
    }

    let owner: BTreeMap<String, String> =
        owned.into_iter().map(|(a, o)| (a.to_string(), o)).collect();
    let wrong = requests
        .iter()
        .zip(&served.replies)
        .filter(|(req, (ok, reply))| !ok || !reply_is_right(req, reply, &owner))
        .count();
    rep.many(requests.len() as u64, wrong as u64, || {
        "served replies that are ERR or not the known answer".to_string()
    });
    rep.id(
        "reply_fnv",
        format!(
            "{:016x}",
            fnv64(served.replies.iter().map(|(_, p)| p.as_str()))
        ),
    );

    if tr.enabled() {
        // The same requests answered in process: what is left of the
        // client's latency is framing, the socket and the worker hand-off.
        let mut by_verb: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut differs = 0;
        for (req, (_, served_reply)) in requests.iter().zip(&served.replies) {
            let (name, verb) = match req.as_bytes()[0] {
                b'R' => ("serve.handle_reach", "reach"),
                b'F' => ("serve.handle_fate", "fate"),
                _ => ("serve.handle_trace", "trace"),
            };
            let ((_, reply), secs) = tr.span(name, |_| api::handle(&index, req));
            differs += usize::from(&reply != served_reply);
            by_verb.entry(verb).or_default().push(secs * 1e6);
        }
        rep.check(differs == 0, || {
            format!("{differs} in-process replies differ from the served ones")
        });
        rep.set(
            "serve.handle_reach_us_p50",
            percentile(&by_verb["reach"], 50.0),
        );
        rep.set(
            "serve.handle_reach_us_p99",
            percentile(&by_verb["reach"], 99.0),
        );
        rep.set(
            "serve.handle_fate_us_p50",
            percentile(&by_verb["fate"], 50.0),
        );
        rep.set(
            "serve.handle_trace_us_p50",
            percentile(&by_verb["trace"], 50.0),
        );
        let all: Vec<f64> = by_verb.into_values().flatten().collect();
        rep.set("serve.framing_overhead_us", p50 - percentile(&all, 50.0));
        layer_loops(tr, rep, dp, extracted.telemetry.as_ref(), Some(&fa));
    }
    Ok(())
}

// ----------------------------------------------------------------- grid42

fn grid_watch(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
    smoke: bool,
) -> Result<(), String> {
    let cfg = api::watch_config(snapshot, backend, smoke);
    if !tr.enabled() {
        let (report, secs) = tr.span("stage.watch", |_| api::run_watch(snapshot, &cfg));
        let report = report?;
        rep.set("stage.watch_s", secs);
        rep.check(report.converged, || {
            "watch: network did not converge".to_string()
        });
        rep.check(api::watch_recovered(&report), || {
            "watch: coverage not complete at the end of the window".to_string()
        });
        rep.id(
            "journal_fnv",
            format!("{:016x}", fnv64(report.journal_text.lines())),
        );
        rep.id("evaluations", report.evaluations);
        return Ok(());
    }

    // `run_watch`, call by call.
    let mut journal: Vec<String> = Vec::new();
    let (mut tick_ms, mut dataplane_ms, mut evaluate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (w, secs) = tr.span("stage.watch", |tr| -> Result<api::WatchLoop, String> {
        let emu = boot_and_converge(tr, rep, backend, snapshot)?;
        let mut w = api::watch_loop_start(emu, snapshot, &cfg);
        let (tick, duration) = api::watch_tick_ms(&cfg);
        let end = w.start_ms + duration;
        let (mut now, mut last_class) = (w.start_ms, None);
        while now < end {
            now = (now + tick).min(end);
            tr.span("emulator.run_until", |_| api::watch_advance(&mut w, now));
            let (changed, secs) = tr.span("mgmt.watch_tick", |_| api::watch_tick(&mut w, now));
            tick_ms.push(secs * 1e3);
            let (coverage, class) = api::watch_coverage(&w, now);
            if !changed && last_class.as_ref() == Some(&class) {
                continue;
            }
            last_class = Some(class);
            let (dp, secs) = tr.span("mgmt.watch_dataplane", |_| api::watch_dataplane(&w, now));
            dataplane_ms.push(secs * 1e3);
            let (lines, secs) = tr.span("verify.standing_evaluate", |_| {
                api::watch_evaluate(&mut w, now, &dp, &coverage)
            });
            evaluate_ms.push(secs * 1e3);
            journal.extend(lines);
        }
        let (coverage, _) = api::watch_coverage(&w, now);
        rep.check(coverage.is_complete(), || {
            "watch: coverage not complete at the end of the window".to_string()
        });
        Ok(w)
    });
    let w = w?;
    rep.set("stage.watch_s", secs);
    rep.id(
        "journal_fnv",
        format!("{:016x}", fnv64(journal.iter().map(String::as_str))),
    );
    rep.id("evaluations", evaluate_ms.len());
    rep.set("mgmt.watch_tick_ms_p50", percentile(&tick_ms, 50.0));
    rep.set("mgmt.watch_tick_ms_p99", percentile(&tick_ms, 99.0));
    rep.set("mgmt.watch_dataplane_ms", median(&dataplane_ms));
    rep.set(
        "verify.standing_evaluate_ms_p50",
        percentile(&evaluate_ms, 50.0),
    );
    rep.set(
        "verify.standing_evaluate_ms_p99",
        percentile(&evaluate_ms, 99.0),
    );
    let (gaps, resyncs) = api::watch_stream_stats(&w);
    rep.set("mgmt.watch_gaps", gaps as f64);
    rep.set("mgmt.watch_resyncs", resyncs as f64);
    let ((evaluated, reused), (hits, misses)) = api::watch_standing_stats(&w);
    rep.set("verify.pair_evaluations", evaluated as f64);
    rep.set("verify.pair_reuses", reused as f64);
    rep.set(
        "verify.pair_reuse_ratio",
        reused as f64 / (evaluated + reused).max(1) as f64,
    );
    rep.set(
        "verify.class_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let telemetry = api::telemetry_pair(&api::collect(backend, &w.emu));
    let dp = api::export_dataplane(&w.emu);
    let fa = api::analysis_new(&dp);
    layer_loops(tr, rep, &dp, telemetry.as_ref(), Some(&fa));
    Ok(())
}

// ----------------------------------------------------------------- grid30

fn grid_whatif(
    tr: &mut Tracer,
    rep: &mut Rep,
    backend: &api::EmulationBackend,
    snapshot: &api::Snapshot,
) -> Result<(), String> {
    let contexts = api::link_cut_contexts(snapshot);
    if !tr.enabled() {
        let (report, secs) = tr.span("stage.sweep", |_| api::sweep(snapshot, backend, contexts));
        let report = report?;
        rep.set("stage.sweep_s", secs);
        let (lines, failed) = api::sweep_verdict_lines(&report);
        rep.many(lines.len() as u64, failed as u64, || {
            "cut contexts returned Err".to_string()
        });
        rep.id(
            "verdict_fnv",
            format!("{:016x}", fnv64(lines.iter().map(String::as_str))),
        );
        rep.id("contexts", lines.len());
        return Ok(());
    }

    // The sweep replayed one context after the other, from outside.
    let cache = api::ClassCache::new();
    let (mut lines, mut errors) = (Vec::new(), Vec::new());
    let (mut context_ms, mut diff_ms, mut compute_s) = (Vec::new(), Vec::new(), 0.0);
    let (base, secs) = tr.span("stage.sweep", |tr| -> Result<_, String> {
        let (base, secs) = tr.span("core.whatif_baseline", |tr| -> Result<_, String> {
            let extracted = extract_dataplane(tr, rep, backend, snapshot)?;
            let fa = tr
                .span("verify.analysis_with_cache", |_| {
                    api::analysis_with_cache(&extracted.dataplane, &cache)
                })
                .0;
            Ok((extracted, fa))
        });
        rep.set("core.whatif_baseline_s", secs);
        let base = base?;
        for cuts in &contexts {
            let (line, secs) = tr.span("core.whatif_context", |tr| -> Result<String, String> {
                let variant = api::without_links(snapshot, cuts);
                let (result, secs) = tr.span("core.compute", |_| api::compute(backend, &variant));
                compute_s += secs;
                let result = result?;
                let after = tr
                    .span("verify.analysis_with_cache", |_| {
                        api::analysis_with_cache(&result.dataplane, &cache)
                    })
                    .0;
                let ((_, line), secs) =
                    tr.span("verify.diff", |_| api::diff_verdict(&base.1, &after, cuts));
                diff_ms.push(secs * 1e3);
                Ok(line)
            });
            context_ms.push(secs * 1e3);
            match line {
                Ok(line) => lines.push(line),
                Err(e) => errors.push(e),
            }
        }
        Ok(base)
    });
    let (extracted, fa) = base?;
    rep.set("stage.sweep_s", secs);
    rep.many(contexts.len() as u64, errors.len() as u64, || {
        errors.join("; ")
    });
    rep.id(
        "verdict_fnv",
        format!("{:016x}", fnv64(lines.iter().map(String::as_str))),
    );
    rep.id("contexts", contexts.len());
    rep.set("core.whatif_context_ms_p50", percentile(&context_ms, 50.0));
    rep.set("core.whatif_context_ms_p99", percentile(&context_ms, 99.0));
    rep.set(
        "core.whatif_emulate_share",
        compute_s * 1e3 / context_ms.iter().sum::<f64>().max(1e-9),
    );
    rep.set("verify.diff_ms_p50", percentile(&diff_ms, 50.0));
    let (hits, misses) = api::class_cache_stats(&cache);
    rep.set(
        "verify.class_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layer_loops(
        tr,
        rep,
        &extracted.dataplane,
        extracted.telemetry.as_ref(),
        Some(&fa),
    );
    Ok(())
}

// ------------------------------------------------- one layer at a time

/// Rounds of a loop over `n` items that add up to about `target` items.
fn rounds(n: usize, target: usize) -> usize {
    target.div_ceil(n.max(1)).max(1)
}

/// Each layer's public functions alone, over the largest table the
/// workload extracted: nanoseconds per operation, outside any stage.
fn layer_loops(
    tr: &mut Tracer,
    rep: &mut Rep,
    dp: &api::Dataplane,
    telemetry: Option<&api::TelemetryPair>,
    fa: Option<&api::ForwardingAnalysis>,
) {
    let per_op = |(ops, secs): (usize, f64)| secs * 1e9 / ops.max(1) as f64;
    let (_, secs) = tr.span("dataplane.digest", |_| api::digest(dp));
    rep.set("dataplane.digest_s", secs);
    rep.set("dataplane.fib_entries", api::total_entries(dp) as f64);

    let (node, entries) = api::largest_fib(dp);
    let n = entries.len();
    let fib = api::fib_of(&entries);
    rep.set(
        "routing.rib_to_fib_ns_per_route",
        per_op(tr.span("routing.rib_to_fib", |_| {
            api::rib_to_fib(&entries, rounds(n, 50_000))
        })),
    );
    rep.set(
        "routing.fib_lookup_ns",
        per_op(tr.span("routing.fib_lookup", |_| {
            api::fib_lookups(&fib, &entries, rounds(n, 1_000_000))
        })),
    );
    rep.set(
        "types.trie_insert_ns",
        per_op(tr.span("types.trie_insert", |_| {
            api::trie_inserts(&entries, rounds(n, 300_000))
        })),
    );
    rep.set(
        "types.trie_lookup_ns",
        per_op(tr.span("types.trie_lookup", |_| {
            api::trie_lookups(&entries, rounds(n, 1_000_000))
        })),
    );

    let mut corrupt = 0;
    let ((ops, bad), secs) = tr.span("wire.bgp_update_roundtrip", |_| {
        api::bgp_update_roundtrips(&entries, rounds(n, 100_000))
    });
    corrupt += bad;
    rep.set("wire.bgp_update_roundtrip_ns", per_op((ops, secs)));
    let ((ops, bad), secs) = tr.span("wire.isis_lsp_roundtrip", |_| {
        api::isis_lsp_roundtrips(&entries, 2_000)
    });
    corrupt += bad;
    rep.set("wire.isis_lsp_roundtrip_ns", per_op((ops, secs)));
    let ((ops, bad), secs) = tr.span("mgmt.aft_json_roundtrip", |_| {
        api::aft_json_roundtrips(&entries, rounds(n, 30_000))
    });
    corrupt += bad;
    rep.set("mgmt.aft_json_roundtrip_ns_per_entry", per_op((ops, secs)));

    if let Some((a, b)) = telemetry {
        let (ops, secs) = tr.span("mgmt.gnmi_diff", |_| api::gnmi_diffs(a, b, 200));
        rep.set("mgmt.gnmi_diff_us", per_op((ops, secs)) / 1e3);
        let ((ops, bad), secs) = tr.span("mgmt.gnmi_apply", |_| api::gnmi_applies(a, b, 200));
        corrupt += bad;
        rep.set("mgmt.gnmi_apply_us", per_op((ops, secs)) / 1e3);
    }
    rep.check(corrupt == 0, || {
        format!("{corrupt} codec round trips did not reproduce their input")
    });

    if let Some(fa) = fa {
        let sets = api::partition_sets(fa, &node);
        rep.set(
            "types.ipset_intersect_ns",
            per_op(tr.span("types.ipset_intersect", |_| api::ipset_intersect_all(&sets))),
        );
        rep.set(
            "types.ipset_subtract_ns",
            per_op(tr.span("types.ipset_subtract", |_| api::ipset_subtract_all(&sets))),
        );
    }
}
