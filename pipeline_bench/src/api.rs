//! Every call into the system under test lives in this file. The rest of
//! the harness times, traces and checks; it never names an `mfv_*` item.
//! When an entry point is renamed or an API family is folded into one
//! function, this is the only file of the benchmark that has to follow.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;

use mfv_core::{scenarios, Backend};
use mfv_emulator::{ChaosPlan, Cluster, EmulationConfig};
use mfv_mgmt::{Aft, Telemetry};
use mfv_routing::{Fib, FibEntry, Rib, RibRoute};
use mfv_types::{IpSet, NodeId, PrefixTrie, SimDuration, SimTime};
use mfv_wire::{bgp, isis};

use mfv_core::{BackendResult, SweepReport, WatchReport, WatchRunConfig};
use mfv_emulator::RunReport;
use mfv_mgmt::{CollectionReport, Watcher};
use mfv_obs::Obs;
use mfv_serve::ServerHandle;
use mfv_verify::{Coverage, StandingQueries};

pub use mfv_core::{EmulationBackend, Snapshot};
pub use mfv_dataplane::Dataplane;
pub use mfv_emulator::Emulation;
pub use mfv_serve::QueryIndex;
pub use mfv_verify::{ClassCache, ForwardingAnalysis};

// ---------------------------------------------------------------- inputs

/// The four benchmark inputs. `smoke` swaps in the seconds-scale stand-ins
/// (same code paths, same workload names).
pub fn scenario(workload: &str, smoke: bool) -> Snapshot {
    match (workload, smoke) {
        ("wan1000_converge", false) => scenarios::regional_wan(20, 50),
        ("wan1000_converge", true) => scenarios::regional_wan(3, 4),
        ("grid60_verify", false) => scenarios::isis_grid(10, 6),
        ("grid42_watch", false) => scenarios::isis_grid(7, 6),
        ("grid30_whatif", false) => scenarios::isis_grid(6, 5),
        ("grid30_whatif", true) => scenarios::six_node(),
        (_, true) => scenarios::isis_grid(3, 2),
        (other, _) => panic!("no scenario for workload {other}"),
    }
}

/// The product-default backend with only the cluster size and the seed
/// set. `threads` stays 1 (what `mfvctl run` does) unless a traced run
/// asks for the host-parallel comparison.
///
/// `grid42_watch` keeps the default seed whatever the benchmark's: where
/// the faults land against the 1 s tick decides how many evaluations the
/// window holds (31 to 43 over sixteen seeds, 11.4 to 14.4 s), so another
/// seed there is another amount of work, not another sample of the same.
pub fn backend(workload: &str, smoke: bool, seed: u64) -> EmulationBackend {
    let seed = match workload {
        "grid42_watch" => EmulationBackend::default().seed,
        _ => seed,
    };
    let cluster_machines = match (workload, smoke) {
        ("wan1000_converge", false) => 17,
        ("wan1000_converge", true) | ("grid42_watch", _) => 2,
        _ => 1,
    };
    EmulationBackend {
        cluster_machines,
        seed,
        ..Default::default()
    }
}

pub fn with_host_threads(backend: &EmulationBackend) -> EmulationBackend {
    EmulationBackend {
        threads: 0,
        ..backend.clone()
    }
}

/// The continuous-verification window: three fault classes (link flap,
/// routing-process kill, machine failure) under a lossy telemetry stream.
/// Two machines, so losing `node-1` degrades the network instead of
/// erasing it. The stream-fault rolls keep the product's default seed, as
/// the emulation does here (see [`backend`]).
pub fn watch_config(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    smoke: bool,
) -> WatchRunConfig {
    let link = snapshot.topology.links[0].id();
    let victim = snapshot.topology.nodes[snapshot.topology.nodes.len() / 2]
        .name
        .clone();
    WatchRunConfig {
        backend: backend.clone(),
        watch: mfv_mgmt::WatchConfig {
            faults: mfv_mgmt::StreamFaultModel {
                drop_pct: 10,
                session_loss_pct: 2,
            },
            ..Default::default()
        },
        chaos: ChaosPlan::new()
            .link_flap(link, SimTime(5_000), SimDuration::from_secs(8))
            .kill_routing(victim, SimTime(20_000))
            .fail_machine("node-1", SimTime(35_000)),
        tick: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(if smoke { 30 } else { 60 }),
    }
}

// ------------------------------------------------- product entry points

pub fn compute(backend: &EmulationBackend, snapshot: &Snapshot) -> Result<BackendResult, String> {
    backend.compute(snapshot).map_err(|e| e.to_string())
}

pub fn run_watch(snapshot: &Snapshot, cfg: &WatchRunConfig) -> Result<WatchReport, String> {
    mfv_core::run_watch(snapshot, cfg, &mut Obs::new()).map_err(|e| e.to_string())
}

pub fn watch_recovered(report: &WatchReport) -> bool {
    report.final_coverage.is_complete()
}

pub fn link_cut_contexts(snapshot: &Snapshot) -> Vec<Vec<mfv_types::LinkId>> {
    mfv_core::link_cut_contexts(snapshot, 1)
}

pub fn sweep(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    contexts: Vec<Vec<mfv_types::LinkId>>,
) -> Result<SweepReport, String> {
    mfv_core::verify_link_cuts_detailed(snapshot, backend, contexts, None)
        .map_err(|e| e.to_string())
}

/// One line per context: the cut, then every finding — the text the
/// verdict hash is taken over. `Err` contexts render their error.
pub fn sweep_verdict_lines(report: &SweepReport) -> (Vec<String>, usize) {
    let mut failed = 0;
    let lines = report
        .verdicts
        .iter()
        .map(|v| match v {
            Ok(v) => cut_verdict_line(&v.cuts, &v.findings, v.lost_reachability),
            Err(e) => {
                failed += 1;
                format!("ERR {e}")
            }
        })
        .collect();
    (lines, failed)
}

fn cut_verdict_line(
    cuts: &[mfv_types::LinkId],
    findings: &[mfv_verify::DiffFinding],
    lost: usize,
) -> String {
    let mut line = String::new();
    for c in cuts {
        line.push_str(&format!("{c} "));
    }
    line.push_str(&format!("lost={lost}"));
    for f in findings {
        line.push_str(&format!(" | {f}"));
    }
    line
}

// ------------------------------------------ the dataplane stage, staged

pub fn conflint_errors(snapshot: &Snapshot) -> Result<usize, String> {
    mfv_conflint::analyze(&snapshot.topology)
        .map(|r| r.errors())
        .map_err(|e| e.to_string())
}

/// `Emulation::new` with the configuration `EmulationBackend::run` builds.
pub fn emulation_new(backend: &EmulationBackend, snapshot: &Snapshot) -> Result<Emulation, String> {
    let cfg = EmulationConfig {
        seed: backend.seed,
        quiet_period: backend.quiet_period,
        max_sim_time: backend.max_sim_time,
        auto_restart_crashed: backend.auto_restart,
        profile_overrides: backend.profiles.clone(),
        inject_after_boot: true,
        chaos: backend.chaos.clone(),
        threads: backend.threads,
        ..Default::default()
    };
    Emulation::new(
        snapshot.topology.clone(),
        Cluster::of_size(backend.cluster_machines),
        cfg,
    )
}

pub fn run_until_converged(emu: &mut Emulation) -> RunReport {
    emu.run_until_converged()
}

pub fn sim_boot_converge_s(report: &RunReport) -> (f64, f64) {
    match report.boot_complete_at {
        Some(boot) => (
            (boot - SimTime::ZERO).as_secs_f64(),
            report.converged_at.since(boot).as_secs_f64(),
        ),
        None => (0.0, 0.0),
    }
}

pub fn export_dataplane(emu: &Emulation) -> Dataplane {
    emu.dataplane()
}

pub fn export_obs(emu: &Emulation) -> Obs {
    emu.export_obs()
}

pub fn obs_counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics.counter(name)
}

pub fn shard_count(emu: &Emulation) -> usize {
    emu.shard_count()
}

pub fn collect(backend: &EmulationBackend, emu: &Emulation) -> CollectionReport {
    backend.collector.collect(
        emu.topology
            .nodes
            .iter()
            .map(|n| (n.name.clone(), emu.router(&n.name))),
    )
}

pub fn collect_afts(report: &CollectionReport) -> BTreeMap<NodeId, Aft> {
    mfv_mgmt::collect_afts(&report.telemetry)
}

pub fn aft_entries(afts: &BTreeMap<NodeId, Aft>) -> usize {
    afts.values().map(Aft::len).sum()
}

pub fn dataplane_from_afts(afts: &BTreeMap<NodeId, Aft>, reference: &Dataplane) -> Dataplane {
    mfv_mgmt::dataplane_from_afts(afts, reference)
}

// ------------------------------------------------------------ dataplane

pub fn digest(dp: &Dataplane) -> u64 {
    dp.digest()
}

pub fn total_entries(dp: &Dataplane) -> usize {
    dp.total_entries()
}

pub fn node_names(dp: &Dataplane) -> Vec<String> {
    dp.nodes.keys().map(|n| n.to_string()).collect()
}

/// Every owned address with its owner, in node then address order.
pub fn owned_addresses(dp: &Dataplane) -> Vec<(Ipv4Addr, String)> {
    dp.nodes
        .iter()
        .flat_map(|(name, n)| n.addresses.iter().map(move |a| (*a, name.to_string())))
        .collect()
}

/// The node with the most FIB entries (first in name order on a tie) and
/// its entries: the table the per-layer loops run over.
pub fn largest_fib(dp: &Dataplane) -> (String, Vec<FibEntry>) {
    let mut best: Option<(&NodeId, &Vec<FibEntry>)> = None;
    for (name, node) in &dp.nodes {
        if best.is_none_or(|(_, e)| node.entries.len() > e.len()) {
            best = Some((name, &node.entries));
        }
    }
    best.map(|(n, e)| (n.to_string(), e.clone()))
        .unwrap_or_default()
}

// --------------------------------------------------------------- verify

pub fn analysis_new(dp: &Dataplane) -> ForwardingAnalysis {
    ForwardingAnalysis::new(dp)
}

pub fn analysis_with_cache(dp: &Dataplane, cache: &ClassCache) -> ForwardingAnalysis {
    ForwardingAnalysis::with_cache(dp, cache)
}

pub fn unreachable_pairs(fa: &ForwardingAnalysis) -> usize {
    mfv_verify::unreachable_pairs_with(fa).len()
}

pub fn loops(fa: &ForwardingAnalysis) -> usize {
    mfv_verify::detect_loops_with(fa).len()
}

pub fn blackholes(fa: &ForwardingAnalysis) -> usize {
    mfv_verify::detect_blackholes_with(fa).len()
}

pub fn memo_stats(fa: &ForwardingAnalysis) -> (usize, usize) {
    fa.memo_stats()
}

pub fn class_cache_stats(cache: &ClassCache) -> (usize, usize) {
    cache.stats()
}

/// Differential reachability of `after` against `before`; returns the
/// finding count, the lost-reachability count and the rendered verdict.
pub fn diff_verdict(
    before: &ForwardingAnalysis,
    after: &ForwardingAnalysis,
    cuts: &[mfv_types::LinkId],
) -> (usize, String) {
    let findings = mfv_verify::differential_reachability_with(before, after, None);
    let lost = mfv_verify::deliverability_changes(&findings)
        .into_iter()
        .filter(|f| f.before.is_delivered())
        .count();
    (findings.len(), cut_verdict_line(cuts, &findings, lost))
}

pub fn without_links(snapshot: &Snapshot, cuts: &[mfv_types::LinkId]) -> Snapshot {
    snapshot.without_links(cuts)
}

/// The class sets of one source's partition of the full destination
/// space: the operands of the header-space loops.
pub fn partition_sets(fa: &ForwardingAnalysis, src: &str) -> Vec<IpSet> {
    fa.dispositions_from(&NodeId::from(src), &IpSet::full())
        .into_iter()
        .map(|(set, _)| set)
        .collect()
}

pub fn ipset_intersect_all(sets: &[IpSet]) -> usize {
    let mut ops = 0;
    for a in sets {
        for b in sets {
            std::hint::black_box(a.intersect(b));
            ops += 1;
        }
    }
    ops
}

pub fn ipset_subtract_all(sets: &[IpSet]) -> usize {
    let mut ops = 0;
    for a in sets {
        for b in sets {
            std::hint::black_box(a.subtract(b));
            ops += 1;
        }
    }
    ops
}

// ---------------------------------------------------------------- serve

pub fn index_new(dp: &Dataplane) -> Arc<QueryIndex> {
    Arc::new(QueryIndex::new(dp))
}

pub fn index_warm(index: &QueryIndex) -> usize {
    index.warm()
}

/// `(ok, payload)` of one request answered in process, no socket.
pub fn handle(index: &QueryIndex, line: &str) -> (bool, String) {
    match index.handle(line) {
        mfv_serve::Reply::Ok(p) => (true, p),
        mfv_serve::Reply::Err(p) => (false, p),
        mfv_serve::Reply::Quit => (true, "bye".to_string()),
    }
}

pub fn server_start(index: &Arc<QueryIndex>, workers: usize) -> std::io::Result<ServerHandle> {
    mfv_serve::Server::start(
        Arc::clone(index),
        &mfv_serve::ServerConfig { port: 0, workers },
    )
}

pub fn server_addr(handle: &ServerHandle) -> SocketAddr {
    handle.addr()
}

pub fn server_shutdown(handle: ServerHandle) {
    handle.shutdown()
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

pub fn client_connect(addr: SocketAddr) -> std::io::Result<Client> {
    let conn = TcpStream::connect(addr)?;
    Ok(Client {
        reader: BufReader::new(conn.try_clone()?),
        writer: BufWriter::new(conn),
    })
}

/// Write request, read the full reply: what `mfvctl query` waits for.
pub fn client_query(client: &mut Client, request: &str) -> std::io::Result<(bool, String)> {
    mfv_serve::query_once(&mut client.reader, &mut client.writer, request)
}

// ---------------------------------------------------------------- watch

/// The pieces `run_watch` drives, for the staged replay of its loop.
pub struct WatchLoop {
    pub emu: Emulation,
    pub watcher: Watcher,
    pub standing: StandingQueries,
    nodes: Vec<NodeId>,
    pub start_ms: u64,
}

/// What `run_watch` does between convergence and its first tick.
pub fn watch_loop_start(
    mut emu: Emulation,
    snapshot: &Snapshot,
    cfg: &WatchRunConfig,
) -> WatchLoop {
    let started_at = emu.now();
    emu.schedule_chaos(&cfg.chaos.shifted(started_at - SimTime::ZERO));
    let nodes: Vec<NodeId> = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .collect();
    WatchLoop {
        watcher: Watcher::new(cfg.watch.clone(), nodes.iter().cloned()),
        standing: StandingQueries::new(),
        emu,
        nodes,
        start_ms: started_at.0,
    }
}

pub fn watch_advance(w: &mut WatchLoop, now_ms: u64) {
    w.emu.run_until(SimTime(now_ms));
}

/// `Watcher::tick`; returns whether any mirror changed.
pub fn watch_tick(w: &mut WatchLoop, now_ms: u64) -> bool {
    let (emu, nodes) = (&w.emu, &w.nodes);
    let report = w.watcher.tick(
        SimTime(now_ms),
        nodes.iter().map(|n| (n.clone(), emu.router(n))),
    );
    !report.changed.is_empty()
}

/// Coverage as of `now`, and the fresh/stale/missing partition `run_watch`
/// compares between ticks.
pub fn watch_coverage(w: &WatchLoop, now_ms: u64) -> (Coverage, Vec<Vec<String>>) {
    let coverage = Coverage::from_status(&w.watcher.status(SimTime(now_ms)));
    let names = |it: &mut dyn Iterator<Item = &NodeId>| it.map(|n| n.to_string()).collect();
    let class = vec![
        names(&mut coverage.fresh.iter()),
        names(&mut coverage.stale.keys()),
        names(&mut coverage.missing.keys()),
    ];
    (coverage, class)
}

pub fn watch_dataplane(w: &WatchLoop, now_ms: u64) -> Dataplane {
    w.watcher.dataplane(SimTime(now_ms), &w.emu.dataplane())
}

/// `StandingQueries::evaluate`; returns the journal lines it emitted.
pub fn watch_evaluate(
    w: &mut WatchLoop,
    now_ms: u64,
    dp: &Dataplane,
    coverage: &Coverage,
) -> Vec<String> {
    w.standing
        .evaluate(SimTime(now_ms), dp, coverage)
        .iter()
        .map(|u| u.to_string())
        .collect()
}

pub fn watch_tick_ms(cfg: &WatchRunConfig) -> (u64, u64) {
    (cfg.tick.as_millis(), cfg.duration.as_millis())
}

/// `(gaps, resyncs)` of the watcher's streams.
pub fn watch_stream_stats(w: &WatchLoop) -> (u64, u64) {
    (w.watcher.stats().gaps, w.watcher.stats().resyncs)
}

/// `(evaluated, reused)` pairs and `(hits, misses)` of the class cache.
pub fn watch_standing_stats(w: &WatchLoop) -> ((u64, u64), (usize, usize)) {
    (w.standing.pair_stats(), w.standing.cache_stats())
}

// ----------------------------------------------- single-layer workloads
//
// Each loop below runs one layer's public functions over tables the
// workload itself extracted, and returns how many operations it did; the
// caller times it. Results pass through `black_box` so the work stays.

pub fn fib_of(entries: &[FibEntry]) -> Fib {
    let mut fib = Fib::new();
    for e in entries {
        fib.insert(e.clone());
    }
    fib
}

fn rib_routes(entries: &[FibEntry]) -> BTreeMap<mfv_types::RouteProtocol, Vec<RibRoute>> {
    let mut by_proto: BTreeMap<_, Vec<RibRoute>> = BTreeMap::new();
    for e in entries {
        let nh = e
            .next_hops
            .first()
            .map_or(mfv_routing::NextHop::Discard, |h| match h.via {
                Some(gw) => mfv_routing::NextHop::ViaIface(gw, h.iface.clone()),
                None => mfv_routing::NextHop::Connected(h.iface.clone()),
            });
        by_proto
            .entry(e.proto)
            .or_default()
            .push(RibRoute::new(e.prefix, e.proto, 10, nh));
    }
    by_proto
}

/// `Rib::set_protocol_routes` per protocol, then `Rib::to_fib`, `rounds`
/// times over the table; returns routes processed.
pub fn rib_to_fib(entries: &[FibEntry], rounds: usize) -> usize {
    let routes = rib_routes(entries);
    for _ in 0..rounds {
        let mut rib = Rib::new();
        for (proto, rs) in &routes {
            rib.set_protocol_routes(*proto, rs.clone());
        }
        std::hint::black_box(rib.to_fib());
    }
    entries.len() * rounds
}

fn probe_addresses(entries: &[FibEntry]) -> Vec<Ipv4Addr> {
    entries
        .iter()
        .map(|e| Ipv4Addr::from(e.prefix.last()))
        .collect()
}

pub fn fib_lookups(fib: &Fib, entries: &[FibEntry], rounds: usize) -> usize {
    let probes = probe_addresses(entries);
    for _ in 0..rounds {
        for ip in &probes {
            std::hint::black_box(fib.lookup(*ip));
        }
    }
    probes.len() * rounds
}

pub fn trie_inserts(entries: &[FibEntry], rounds: usize) -> usize {
    for _ in 0..rounds {
        let mut trie = PrefixTrie::new();
        for (i, e) in entries.iter().enumerate() {
            trie.insert(e.prefix, i);
        }
        std::hint::black_box(trie.len());
    }
    entries.len() * rounds
}

pub fn trie_lookups(entries: &[FibEntry], rounds: usize) -> usize {
    let trie: PrefixTrie<usize> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.prefix, i))
        .collect();
    let probes = probe_addresses(entries);
    for _ in 0..rounds {
        for ip in &probes {
            std::hint::black_box(trie.lookup(*ip));
        }
    }
    probes.len() * rounds
}

/// One BGP UPDATE per prefix: `BgpMsg::encode` then `decode`. Returns
/// `(round trips, decode mismatches)`.
pub fn bgp_update_roundtrips(entries: &[FibEntry], rounds: usize) -> (usize, usize) {
    use mfv_types::{AsNum, AsPath, Origin};
    let updates: Vec<bgp::BgpMsg> = entries
        .iter()
        .map(|e| {
            bgp::BgpMsg::Update(bgp::UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    bgp::PathAttr::Origin(Origin::Igp),
                    bgp::PathAttr::AsPath(AsPath::sequence([AsNum(64512), AsNum(64513)])),
                    bgp::PathAttr::NextHop(Ipv4Addr::new(172, 16, 0, 1)),
                    bgp::PathAttr::LocalPref(100),
                ],
                nlri: vec![e.prefix],
            })
        })
        .collect();
    let mut bad = 0;
    for _ in 0..rounds {
        for u in &updates {
            match u.encode() {
                Ok(mut buf) => match bgp::BgpMsg::decode(&mut buf) {
                    Ok(back) if &back == u => {}
                    _ => bad += 1,
                },
                Err(_) => bad += 1,
            }
        }
    }
    (updates.len() * rounds, bad)
}

/// One LSP carrying the table's prefixes (64 per reachability TLV, as a
/// router's own LSP does): `IsisPdu::encode` then `decode`.
pub fn isis_lsp_roundtrips(entries: &[FibEntry], rounds: usize) -> (usize, usize) {
    let system = isis::SystemId::from_ip(Ipv4Addr::new(2, 2, 2, 1));
    let reaches: Vec<isis::IpReach> = entries
        .iter()
        .take(192)
        .map(|e| isis::IpReach {
            metric: 10,
            prefix: e.prefix,
            down: false,
        })
        .collect();
    let mut tlvs = vec![
        isis::Tlv::Protocols(vec![0xcc]),
        isis::Tlv::Hostname("pipeline-bench".to_string()),
        isis::Tlv::ExtIsReach(vec![isis::IsNeighbor {
            neighbor: isis::SystemId::from_ip(Ipv4Addr::new(2, 2, 2, 2)),
            pseudonode: 0,
            metric: 10,
        }]),
    ];
    tlvs.extend(
        reaches
            .chunks(24)
            .map(|c| isis::Tlv::ExtIpReach(c.to_vec())),
    );
    let pdu = isis::IsisPdu::Lsp(isis::Lsp {
        lifetime_secs: 1200,
        lsp_id: isis::LspId::of(system),
        seq: 7,
        tlvs,
    });
    let mut bad = 0;
    for _ in 0..rounds {
        let mut buf = pdu.encode();
        match isis::IsisPdu::decode(&mut buf) {
            Ok(back) if back == pdu => {}
            _ => bad += 1,
        }
    }
    (rounds, bad)
}

/// `Aft::to_json` then `Aft::from_json` over the table's AFT.
pub fn aft_json_roundtrips(entries: &[FibEntry], rounds: usize) -> (usize, usize) {
    let aft = Aft::from_fib(&fib_of(entries));
    let mut bad = 0;
    for _ in 0..rounds {
        match aft.to_json().map(|s| Aft::from_json(&s)) {
            Ok(Ok(back)) if back.len() == aft.len() => {}
            _ => bad += 1,
        }
    }
    (aft.len() * rounds, bad)
}

pub type TelemetryPair = (Telemetry, Telemetry);

/// The state trees of the first two nodes of a collection, the operands
/// of the gNMI loops.
pub fn telemetry_pair(report: &CollectionReport) -> Option<TelemetryPair> {
    let mut it = report.telemetry.values();
    Some((it.next()?.clone(), it.next()?.clone()))
}

pub fn gnmi_diffs(a: &Telemetry, b: &Telemetry, rounds: usize) -> usize {
    for _ in 0..rounds {
        std::hint::black_box(mfv_mgmt::diff(a, b));
    }
    rounds
}

/// `gnmi::apply` of the a→b update batch; returns `(applies, results that
/// did not reproduce b)`.
pub fn gnmi_applies(a: &Telemetry, b: &Telemetry, rounds: usize) -> (usize, usize) {
    let updates = mfv_mgmt::diff(a, b);
    let mut bad = 0;
    for _ in 0..rounds {
        if mfv_mgmt::apply(a, &updates).root() != b.root() {
            bad += 1;
        }
    }
    (rounds, bad)
}
