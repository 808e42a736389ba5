//! The sharded engine's determinism contract: the shard layout and the
//! width of the fan-out a run is part of are *execution* knobs, never
//! *behaviour* knobs. One emulation runs on one thread; the same
//! `(topology, seed, chaos plan)` must converge to the same dataplane
//! wherever the partition cuts (events carry content-derived keys and
//! per-entity RNG streams, so the window structure does not reach the
//! dataplane), and a
//! sweep or a multi-seed run must return the same bytes whether its
//! emulations run one at a time or side by side.

use model_free_verification::core::{
    link_cut_contexts, scenarios, verify_link_cuts_detailed, EmulationBackend,
};
use model_free_verification::emulator::pool::run_indexed;
use model_free_verification::emulator::{
    run_seeds, ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig, ShardMode,
    Topology,
};
use model_free_verification::mgmt::Telemetry;
use model_free_verification::types::{LinkId, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

/// A multi-vendor WAN with external route feeds — every subsystem the
/// window protocol touches (ISIS floods, iBGP mesh, feed injection,
/// vendor-specific timing) is live.
fn wan_topology() -> Topology {
    scenarios::production_wan(9, 2, true, 40).topology
}

/// A chaos plan crossing shard boundaries: flap a link, kill a router.
fn wan_chaos() -> ChaosPlan {
    ChaosPlan::new()
        .repeated_link_flap(
            LinkId::new(
                ("r2".into(), "Ethernet2".into()),
                ("r3".into(), "Ethernet1".into()),
            ),
            SimTime(500_000),
            SimDuration::from_secs(8),
            2,
            SimDuration::from_secs(20),
        )
        .kill_routing("r5", SimTime(560_000))
}

fn cfg(shards: ShardMode) -> EmulationConfig {
    EmulationConfig {
        seed: 5,
        chaos: wan_chaos(),
        shards,
        ..Default::default()
    }
}

/// Everything a verification consumer can observe from one run, as bytes.
fn observable_run(topology: Topology, cfg: EmulationConfig) -> (u64, Vec<String>, String) {
    let mut emu = Emulation::new(topology, Cluster::single_node(), cfg).expect("topology builds");
    let report = emu.run_until_converged();
    assert!(report.converged, "{report:?}");
    let dataplane = emu.dataplane();
    let mut afts = Vec::new();
    for node in dataplane.nodes.keys() {
        let node = NodeId::from(node.as_str());
        let router = emu.router(&node).expect("router booted");
        let telemetry = Telemetry::from_router(router).expect("state tree extracts");
        let aft = telemetry.aft().expect("telemetry carries an AFT");
        afts.push(aft.to_json().expect("AFT serialises"));
    }
    (dataplane.digest(), afts, emu.export_obs().to_json(false))
}

/// The what-if sweep hands `EmulationBackend::threads` to the pool: every
/// verdict — cuts, findings, events after the fork, FIBs moved — is the
/// same at one context at a time, two, and the host's parallelism.
/// (`SweepReport::class_cache` is left out: two contexts that miss on the
/// same digest at once both count a miss, by design.)
#[test]
fn a_sweep_is_identical_at_any_fan_out_width() {
    let snapshot = scenarios::six_node();
    let sweep = |threads: usize| {
        let backend = EmulationBackend {
            threads,
            ..Default::default()
        };
        let report =
            verify_link_cuts_detailed(&snapshot, &backend, link_cut_contexts(&snapshot, 1), None)
                .expect("baseline converges");
        assert!(report.verdicts.iter().all(|v| v.is_ok()), "{report:?}");
        format!("{:?}", (report.baseline_events, report.verdicts))
    };
    let reference = sweep(1);
    for threads in [2usize, 0] {
        assert_eq!(
            reference,
            sweep(threads),
            "sweep diverged at width {threads}"
        );
    }
}

/// `run_seeds` hands `EmulationConfig::threads` to the pool: four faulted,
/// four-shard WAN runs give the same reports and dataplanes, in seed order,
/// at any width.
#[test]
fn seed_runs_are_identical_at_any_fan_out_width() {
    let topo = wan_topology();
    let seeds = |threads: usize| {
        let cfg = EmulationConfig {
            threads,
            ..cfg(ShardMode::Fixed(4))
        };
        let runs = run_seeds(&topo, Cluster::single_node, &cfg, &[1, 2, 3, 4]);
        assert!(runs.iter().all(|r| r.is_ok()), "a seed failed");
        format!("{runs:?}")
    };
    let reference = seeds(1);
    for threads in [2usize, 0] {
        assert_eq!(
            reference,
            seeds(threads),
            "seed runs diverged at width {threads}"
        );
    }
}

/// The window counter is a function of topology, seed, plan and layout:
/// two same-seed runs export it, and every other byte of the dump,
/// identically. One shard is never held back by another, so it runs the
/// fewest windows; the per-shard-pair counters of the threaded engine are
/// gone from the dump.
#[test]
fn window_counters_repeat_and_vanish_on_one_shard() {
    let run = |shards: ShardMode| {
        let mut emu = Emulation::new(wan_topology(), Cluster::single_node(), cfg(shards))
            .expect("topology builds");
        assert!(emu.run_until_converged().converged);
        let obs = emu.export_obs();
        (obs.to_json(false), obs.metrics.counter("engine.windows"))
    };
    let (json, windows) = run(ShardMode::Fixed(4));
    assert!(json.contains("\"engine.windows\""), "{json}");
    assert!(!json.contains("multi_shard"), "{json}");
    assert_eq!(run(ShardMode::Fixed(4)).0, json, "same-seed dumps diverged");

    let (_, one) = run(ShardMode::Fixed(1));
    assert!(
        0 < one && one < windows,
        "{one} windows on one shard, {windows} on four"
    );
}

/// Known flaw, pinned here and not fixed: a layout moves the work a
/// fault-free run does. Shard `i`'s window ends at `min over j≠i of due_j +
/// W`, which ignores `i`'s own sends coming back through another shard; they
/// can arrive from `due_i + 2W` on, so the shard may already have run past
/// them and handles them behind its clock, polling a router a second time
/// at that instant. `six_node` at seed 1 takes 922 work items on one shard
/// and 925 / 923 / 923 on two / three / four; `isis_grid(3, 3)` takes 2,307
/// and delivers 1,214 messages on one, 2,376 / 1,215 on two and 2,361 /
/// 1,192 on three and four. The fix is one line in `plan`, a window end of
/// `min(min over j≠i of due_j + W, due_i + 2W)`; it moves the traced
/// `wan1000_converge` pin (776,235 → 776,233 work items), so it waits for
/// the benchmark to pin work counts apart from answers.
#[test]
#[ignore = "ROADMAP item 4: a window end ignores the shard's own round trips"]
fn a_layout_moves_no_work_item() {
    for (network, snapshot) in [
        ("six_node", scenarios::six_node()),
        ("isis_grid(3, 3)", scenarios::isis_grid(3, 3)),
    ] {
        let work = |shards: usize| {
            let cfg = EmulationConfig {
                seed: 1,
                shards: ShardMode::Fixed(shards),
                ..Default::default()
            };
            let mut emu = Emulation::new(snapshot.topology.clone(), Cluster::single_node(), cfg)
                .expect("topology builds");
            let report = emu.run_until_converged();
            assert!(report.converged, "{network} on {shards} shards: {report:?}");
            (report.events_processed, report.messages_delivered)
        };
        let one = work(1);
        for shards in 2..=4 {
            assert_eq!(
                work(shards),
                one,
                "{network}: (work items, messages) on {shards} shards against one"
            );
        }
    }
}

/// The oscillation watchdog's evidence is accumulated *per shard* during
/// the windows and merged exactly once at the post-mortem. Oscillating
/// (never converging) four-shard runs must produce the identical verdicts
/// and the identical merged churn dumps whether they run one at a time or
/// side by side on the pool: an emulation shares nothing with its
/// neighbours.
#[test]
fn oscillating_churn_digest_is_fan_out_width_invariant() {
    // Fault-free control run finds the boot instant so the flap train can
    // be placed entirely in steady state.
    let boot_ms = {
        let mut emu = Emulation::new(
            wan_topology(),
            Cluster::single_node(),
            EmulationConfig {
                seed: 5,
                shards: ShardMode::Fixed(4),
                ..Default::default()
            },
        )
        .expect("topology builds");
        let report = emu.run_until_converged();
        assert!(report.converged, "{report:?}");
        report.boot_complete_at.expect("boot completed").0
    };
    // Flap a ring link every 20s (8s down) past a shortened budget: the
    // network can never stay quiet, so the watchdog must post-mortem.
    let flapped = {
        let topo = wan_topology();
        let l = topo.links.first().expect("WAN has links").clone();
        LinkId::new((l.a_node, l.a_iface), (l.b_node, l.b_iface))
    };
    let churn_run = |seed: u64| {
        let cfg = EmulationConfig {
            seed,
            chaos: ChaosPlan::new().repeated_link_flap(
                flapped.clone(),
                SimTime(boot_ms + 60_000),
                SimDuration::from_secs(8),
                40,
                SimDuration::from_secs(20),
            ),
            shards: ShardMode::Fixed(4),
            max_sim_time: SimDuration::from_millis(boot_ms + 400_000),
            ..Default::default()
        };
        let mut emu =
            Emulation::new(wan_topology(), Cluster::single_node(), cfg).expect("topology builds");
        let report = emu.run_until_converged();
        assert!(!report.converged, "flap train must prevent convergence");
        assert!(
            matches!(report.verdict, ConvergenceVerdict::Oscillating { .. }),
            "{:?}",
            report.verdict
        );
        let churn = emu.churn_dump();
        assert!(!churn.is_empty(), "oscillation must leave churn evidence");
        (report.verdict, churn)
    };
    let fan_out = |threads: usize| run_indexed(threads, 4, |i| churn_run(5 + i as u64));
    let reference = fan_out(1);
    assert!(reference.iter().all(|r| r.is_ok()), "{reference:?}");
    for threads in [2usize, 0] {
        assert_eq!(reference, fan_out(threads), "diverged at width {threads}");
    }
}

#[test]
fn auto_partition_matches_fixed_partitions() {
    // The cluster-placement cut (Auto) and arbitrary Fixed cuts are just
    // different window structures over the same event content.
    let auto = observable_run(wan_topology(), cfg(ShardMode::Auto));
    let fixed = observable_run(wan_topology(), cfg(ShardMode::Fixed(3)));
    assert_eq!(auto.0, fixed.0, "digest depends on the partition cut");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Random shard counts on a small IS-IS line: the converged dataplane
    // digest is partition-invariant.
    #[test]
    fn random_shard_counts_converge_identically(shards in 1usize..=7) {
        let reference = {
            let topo = scenarios::isis_line(5).topology;
            let mut emu = Emulation::new(
                topo,
                Cluster::single_node(),
                EmulationConfig { seed: 3, ..Default::default() },
            ).unwrap();
            prop_assert!(emu.run_until_converged().converged);
            emu.dataplane().digest()
        };
        let topo = scenarios::isis_line(5).topology;
        let mut emu = Emulation::new(
            topo,
            Cluster::single_node(),
            EmulationConfig {
                seed: 3,
                shards: ShardMode::Fixed(shards),
                ..Default::default()
            },
        ).unwrap();
        prop_assert!(emu.run_until_converged().converged);
        prop_assert_eq!(emu.dataplane().digest(), reference);
    }
}
