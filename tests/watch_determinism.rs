//! Continuous-verification acceptance tests: the watcher + standing-query
//! loop under chaos must (a) react to every fault class, degrade coverage
//! while streams are down, and recover; (b) replay byte-identically from
//! the same seed; and (c) heal a sequence gap with a *single-node* resync —
//! proven through the standing queries' class-cache counters, not by
//! trusting the implementation.

use model_free_verification::core::{
    run_watch, scenarios, EmulationBackend, Snapshot, WatchRunConfig,
};
use model_free_verification::emulator::ChaosPlan;
use model_free_verification::mgmt::{StreamFaultModel, Watcher};
use model_free_verification::types::{NodeId, SimDuration, SimTime};
use model_free_verification::verify::{Coverage, StandingQueries};

fn chaos_cfg(seed: u64, snapshot: &Snapshot) -> WatchRunConfig {
    let link = snapshot.topology.links[0].id();
    let victim = snapshot.topology.nodes[snapshot.topology.nodes.len() / 2]
        .name
        .clone();
    WatchRunConfig {
        backend: EmulationBackend {
            cluster_machines: 2,
            seed,
            ..Default::default()
        },
        watch: model_free_verification::mgmt::WatchConfig {
            seed,
            faults: StreamFaultModel {
                drop_pct: 20,
                session_loss_pct: 3,
            },
        },
        chaos: ChaosPlan::new()
            .link_flap(link, SimTime(5_000), SimDuration::from_secs(8))
            .kill_routing(victim, SimTime(20_000))
            .fail_machine("node-1", SimTime(35_000)),
        tick: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(60),
    }
}

#[test]
fn chaos_watch_reacts_degrades_and_recovers() {
    let snapshot = scenarios::isis_grid(4, 3);
    let cfg = chaos_cfg(11, &snapshot);
    let mut obs = model_free_verification::obs::Obs::new();
    let report = run_watch(&snapshot, &cfg, &mut obs).expect("watch runs");
    assert!(report.converged);

    // Faults surfaced as verdict churn beyond the initial three verdicts,
    // and the fault window genuinely broke the invariants at some point.
    assert!(
        report.verdict_updates.len() > 3,
        "no churn:\n{}",
        report.journal_text
    );
    assert!(
        report
            .verdict_updates
            .iter()
            .any(|u| u.query == "reachability" && !u.verdict.holds),
        "chaos never broke reachability:\n{}",
        report.journal_text
    );
    // The lossy stream and the machine failure both degraded telemetry:
    // some verdicts were coverage-qualified while streams were down.
    assert!(report.stats.gaps + report.stats.session_losses > 0);
    assert!(
        report
            .verdict_updates
            .iter()
            .any(|u| !u.verdict.caveats.is_empty()),
        "no coverage-qualified verdict despite stream faults:\n{}",
        report.journal_text
    );
    // Resync healed every outage: full coverage by the end of the window.
    assert!(report.stats.resyncs > 0);
    assert!(
        report.final_coverage.is_complete(),
        "streams did not recover: {:?}",
        report.final_coverage
    );
}

#[test]
fn chaos_watch_replays_byte_identically() {
    let snapshot = scenarios::isis_grid(4, 3);
    let cfg = chaos_cfg(11, &snapshot);
    let mut obs_a = model_free_verification::obs::Obs::new();
    let a = run_watch(&snapshot, &cfg, &mut obs_a).expect("first run");
    let mut obs_b = model_free_verification::obs::Obs::new();
    let b = run_watch(&snapshot, &cfg, &mut obs_b).expect("second run");

    assert_eq!(a.journal_text, b.journal_text);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.verdict_latencies_ms, b.verdict_latencies_ms);
    assert_eq!(a.cache_stats, b.cache_stats);
    assert_eq!(a.started_at, b.started_at);
    assert_eq!(obs_a.to_json(false), obs_b.to_json(false));
}

/// The incrementality proof: a sequence gap on one node's stream triggers a
/// resync of that node only. The standing queries' class cache shows it —
/// re-evaluation after the resync performs zero class rebuilds (misses
/// frozen) because the resynced mirror carries the same FIB digest, while
/// hits grow by one full sweep. A global re-analysis would rebuild every
/// node and the miss counter would double.
#[test]
fn seq_gap_resyncs_one_node_without_reanalysis() {
    let snapshot = scenarios::isis_line(4);
    let backend = EmulationBackend::with_seed(5);
    let (mut emu, _meta) = backend.run(&snapshot).expect("converges");
    let nodes: Vec<NodeId> = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .collect();
    let n = nodes.len();

    // Fault-free stream: the only disruption is the gap we inject.
    let mut watcher = Watcher::new(
        model_free_verification::mgmt::WatchConfig {
            seed: 5,
            ..Default::default()
        },
        nodes.iter().cloned(),
    );
    let mut standing = StandingQueries::new();
    let mut now = emu.now();
    let tick = |emu: &mut model_free_verification::emulator::Emulation,
                watcher: &mut Watcher,
                now: &mut SimTime| {
        *now += SimDuration::from_secs(1);
        emu.run_until(*now);
        watcher.tick(
            *now,
            nodes.iter().map(|node| (node.clone(), emu.router(node))),
        )
    };

    // Initial sync: every stream comes up, first evaluation builds classes
    // for all n nodes.
    let first = tick(&mut emu, &mut watcher, &mut now);
    assert_eq!(first.changed.len(), n, "initial sync covers every node");
    let dp = watcher.dataplane(now, &emu.dataplane());
    let cov = Coverage::from_status(&watcher.status(now));
    assert!(cov.is_complete());
    standing.evaluate(now, &dp, &cov);
    let (h0, m0) = standing.cache_stats();
    assert_eq!(m0, n, "first evaluation builds one class set per node");

    // Drop the next delivery for one node. The quiet network only sends
    // heartbeats, so the following heartbeat exposes the sequence gap.
    let victim = nodes[1].clone();
    watcher.inject_drop(&victim, 1);
    let mut resynced_at = None;
    for _ in 0..20 {
        let r = tick(&mut emu, &mut watcher, &mut now);
        for node in r.changed.keys() {
            assert_eq!(node, &victim, "only the gapped node may resync");
        }
        if !r.changed.is_empty() {
            resynced_at = Some(now);
            break;
        }
    }
    resynced_at.expect("gap must be healed by a resync within the window");
    // The journal tells the victim's story once: a gap, then its resync.
    let mut obs = model_free_verification::obs::Obs::new();
    watcher.observe_into(&mut obs);
    let after_sync = obs.journal.events().filter(|e| e.kind != "watch.sync");
    let story: Vec<_> = after_sync.map(|e| (e.kind, e.detail.clone())).collect();
    assert_eq!(story.len(), 2, "{story:?}");
    assert_eq!(
        story[0].0, "watch.gap",
        "injected drop never surfaced as a sequence gap"
    );
    assert_eq!(story[1].0, "watch.resync");
    assert!(story
        .iter()
        .all(|(_, detail)| detail.starts_with(&format!("{victim}: "))));
    assert_eq!(watcher.stats().gaps, 1);
    assert_eq!(watcher.stats().resyncs, 1);
    assert_eq!(watcher.stats().session_losses, 0);

    // Re-evaluate: the resynced node's content is unchanged, so its digest
    // hits the cache — no rebuilds anywhere (misses frozen at n), one full
    // sweep of hits. Global re-analysis would show m1 == 2n.
    let dp = watcher.dataplane(now, &emu.dataplane());
    let cov = Coverage::from_status(&watcher.status(now));
    let updates = standing.evaluate(now, &dp, &cov);
    let (h1, m1) = standing.cache_stats();
    assert_eq!(m1, m0, "resync must not rebuild any node's classes");
    assert!(h1 >= h0 + n, "hits {h0} -> {h1} must grow by a full sweep");
    // Identical content + identical coverage: no verdict transitions.
    assert!(updates.is_empty(), "{updates:?}");
}
