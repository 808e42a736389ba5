//! The O(changed) contract as an exact count.
//!
//! A router poll re-resolves only the FIB prefixes its inputs changed and
//! re-decides only the BGP prefixes whose candidates moved. Wall time
//! cannot pin that on a shared host; the deterministic work counters the
//! engine exports can. Redoing a table per poll would count
//! `polls × table size`; the ceilings below sit a little over what the
//! delta pipeline does today and far more than an order of magnitude under
//! that product.
//!
//! The same goes for a what-if cut and for extraction: a fork re-converges
//! what the cut changed, not the network, and extraction holds one router's
//! AFT at a time, not every router's and no state tree — counted in events
//! and in bytes this thread has live. And a converged emulation stores each
//! distinct attribute set and next-hop set once per table, not once per
//! route, and each BGP route once per router — counted in live bytes per FIB
//! entry and in gateway entries per router — and computes each distinct
//! thing once: reachability per session and IGP move, one resolution per
//! gateway and batch, one export per group and prefix. And IS-IS encodes
//! and checksums each LSP once: where it is originated, and where it is
//! received, and SPF's route pass merges the prefixes a run moved, not
//! every reached one. And a shard holds a schedule, not a slot per router:
//! the emulation's bytes barely move with the shard count. And a watch renders
//! a device's state tree per sync and per change, not per read, decodes a
//! mirror per change, not per evaluation, and allocates nothing in a tick
//! where nothing moved. And an IS-IS frame costs one allocation, its own, on
//! its way through the engine, router and shard. And a what-if sweep records
//! what each of its contexts cost, phase by phase. Heap costs are counted by
//! the workspace's one counting allocator, `mfv_obs::alloc`.

use std::collections::BTreeMap;

use model_free_verification::core::{
    extract_snapshot, link_cut_contexts, scenarios, verify_link_cuts_detailed, Backend,
    EmulationBackend, Snapshot, PHASES,
};
use model_free_verification::emulator::{
    ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig, ShardMode,
};
use model_free_verification::mgmt::{Aft, Telemetry, WatchConfig, Watcher};
use model_free_verification::obs::alloc::{held_by, made, Accountant};
use model_free_verification::obs::Obs;
use model_free_verification::routing::rib::GatewayMemo;
use model_free_verification::routing::{Fib, NextHop, RibRoute};
use model_free_verification::types::{
    IfaceId, NodeId, Prefix, RouteProtocol, SimDuration, SimTime,
};
use model_free_verification::vrouter::VirtualRouter;

#[global_allocator]
static ALLOC: Accountant = Accountant;

struct Work {
    /// Router polls × mean FIB size: what a rebuild per poll would touch.
    rebuild_per_poll: u64,
    prefixes_resolved: u64,
    prefix_decisions: u64,
}

fn converge(snapshot: &Snapshot) -> Work {
    let result = EmulationBackend::with_seed(1)
        .compute(snapshot)
        .expect("scenario converges");
    let obs = &result.obs;
    assert!(result.meta.converged);
    let mean_table = (result.dataplane.total_entries() / snapshot.topology.nodes.len()) as u64;
    Work {
        rebuild_per_poll: obs.metrics.counter("engine.polls.router") * mean_table,
        prefixes_resolved: obs.metrics.counter("vrouter.fib.prefixes_resolved"),
        prefix_decisions: obs.metrics.counter("bgp.prefix_decisions"),
    }
}

#[test]
fn convergence_work_stays_proportional_to_what_changed() {
    // 30 routers, 79-entry tables, 6,585 polls: 4,041 resolutions today.
    // Nothing is originated into BGP on the grid, so nothing is decided.
    let grid = converge(&scenarios::isis_grid(6, 5));
    assert!(grid.rebuild_per_poll > 500_000);
    assert!(
        grid.prefixes_resolved <= 4_500,
        "{} FIB prefixes resolved",
        grid.prefixes_resolved
    );
    assert_eq!(grid.prefix_decisions, 0);

    // The BGP side, on the small stand-in for the 1,000-router WAN: 12
    // routers, 16-entry tables, 1,516 polls: 249 resolutions and 200
    // decisions today.
    let wan = converge(&scenarios::regional_wan(3, 4));
    assert!(wan.rebuild_per_poll > 24_000);
    assert!(
        wan.prefixes_resolved <= 300,
        "{} FIB prefixes resolved",
        wan.prefixes_resolved
    );
    assert!(
        wan.prefix_decisions <= 250,
        "{} BGP prefixes decided",
        wan.prefix_decisions
    );
}

#[test]
fn a_cut_costs_what_it_changes() {
    // One cold boot of the 30-router grid: 19,243 events. Re-converging a
    // fork after one wire is gone: 665 to 687, for each of the 49 links.
    let snapshot = scenarios::isis_grid(6, 5);
    let (converged, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    let cold_boot = converged.events_processed();
    for link in snapshot.link_ids() {
        let mut fork = converged.clone();
        fork.remove_wire(&link);
        let report = fork.run_until_converged();
        assert_eq!(report.verdict, ConvergenceVerdict::Converged, "{link}");
        let after_fork = report.events_processed - cold_boot;
        assert!(after_fork > 0, "{link}: the cut changed nothing");
        assert!(
            after_fork * 20 <= cold_boot,
            "{link}: {after_fork} events after the fork, {cold_boot} for the cold boot"
        );
    }
}

#[test]
fn a_fork_copies_no_route() {
    // A fork of the converged 30-router grid, counted in allocations. Its
    // routers hold some 130 routes each, leaving through a handful of
    // next-hop sets. A copy of every route's next hops and of every
    // router's config made 9,664 allocations; with each RIB's sets interned
    // and the config shared, 3,242 were left (the tables' nodes, the LSDBs,
    // the sessions and the engine), and 3,218 with each FIB's next-hop sets
    // in a table of groups. The ceiling is 5 % over the 3,242.
    let snapshot = scenarios::isis_grid(6, 5);
    let (converged, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    let before = made();
    let fork = converged.clone();
    let allocs = made() - before;
    drop(fork);
    assert!(allocs <= 3_404, "{allocs} allocations to fork the grid");
}

#[test]
fn extraction_holds_one_routers_aft_at_a_time() {
    let snapshot = scenarios::isis_grid(6, 5);
    let backend = EmulationBackend::with_seed(1);
    let (emu, _) = backend.run(&snapshot).expect("grid boots");
    assert_eq!(snapshot.topology.nodes.len(), 30);
    let digest = emu.dataplane().digest();
    // Every grid router carries the same 79 prefixes; one AFT is one AFT.
    let router = emu
        .router(&snapshot.topology.nodes[0].name)
        .expect("router booted");
    let (aft, (aft_bytes, _), _) = held_by(|| Aft::from_fib(router.fib()));
    drop(aft);
    let (tree, (tree_bytes, _), _) = held_by(|| Telemetry::from_router(router).expect("tree"));
    drop(tree);

    // Handed the network, extraction lets go of all but the routers and
    // each router once its Get is answered, so the heap never rises above
    // where it started — the emulation, live — by more than the AFT in
    // hand and the sweep's tallies: today not at all. Building the
    // dataplane beside the whole emulation rose 127,632 B; one 76,702 B
    // state tree is not built at all.
    let (extracted, _, (transient, _)) =
        held_by(|| extract_snapshot(emu, &backend.collector, None, &mut Obs::new()));
    assert!(extracted.is_complete());
    assert_eq!(extracted.dataplane.digest(), digest);
    assert!(transient < tree_bytes / 10, "{transient} B transient");
    assert!(
        transient <= 2 * aft_bytes,
        "{transient} B above the live emulation for a {aft_bytes} B AFT"
    );
}

#[test]
fn a_converged_wan_stores_each_distinct_set_once() {
    // 100 routers, 12,010 FIB entries; every router's hundred BGP routes
    // carry some six attribute sets and leave through five or six next-hop
    // sets. A copy per route held 1,275 live bytes per FIB entry here; a
    // handle per route held 742, 718 with one Adj-RIB-Out per export group
    // and 683 with IS-IS's LSPs stored as their bytes. With BGP's routes
    // kept once — the selection, not a RIB copy of it; shared next-hop sets
    // in it; no per-prefix gateway index — it held 537, then 521. With one
    // table per BGP engine (a slot per prefix holding its paths and its
    // selection, a path count per next hop) and each trie one arena, 385.
    // With a FIB entry eight bytes — its next-hop group's id and its
    // protocol — 355.1. With a BGP slot 32 bytes — a `u32` arrival, and a
    // selection naming its winner and next-hop set instead of copying
    // them — 315.2; the ceiling is 5 % over that.
    let snapshot = scenarios::regional_wan(5, 20);
    let backend = EmulationBackend {
        cluster_machines: 2,
        ..EmulationBackend::with_seed(1)
    };
    let ((emu, meta), (live, _), _) = held_by(|| backend.run(&snapshot).expect("wan boots"));
    assert!(meta.converged);
    let entries = emu.dataplane().total_entries();
    assert!(entries > 12_000);
    assert!(
        live <= 331 * entries,
        "{} B live per FIB entry ({live} B, {entries} entries)",
        live / entries
    );
    // What the FIB's resolutions looked up is kept per gateway, not per
    // prefix: a router's hundred-odd BGP routes resolve through a handful
    // of next hops (at most 2 today, against 121 FIB entries).
    let nodes = snapshot.topology.nodes.iter();
    let routers = nodes.filter_map(|n| emu.router(&n.name));
    let most = routers.map(|r| r.gateways().entries()).max();
    assert!(most <= Some(8), "{most:?} gateway entries in one router");
}

/// A walk over a FIB: its name, the tables it walks, and the walk.
type Walk = (&'static str, usize, fn(&Fib) -> u64);

#[test]
fn walking_a_fib_allocates_one_small_buffer() {
    // Every converged table of the 100-router WAN, 121 entries each (a
    // wan1000 router holds 1,050): a walk in prefix order and the
    // comparison the convergence detector makes. Collecting the walk
    // cost an allocation per table and 16 B per entry; an explicit-stack
    // walk holds one 33-entry stack, whatever the table's size (inline
    // since a quiet watch read walks BGP's table: no allocation at all).
    let snapshot = scenarios::regional_wan(5, 20);
    let backend = EmulationBackend {
        cluster_machines: 2,
        ..EmulationBackend::with_seed(1)
    };
    let (emu, meta) = backend.run(&snapshot).expect("wan boots");
    assert!(meta.converged);
    for node in &snapshot.topology.nodes {
        let fib = emu.router(&node.name).expect("router booted").fib();
        assert!(fib.len() > 100);
        let walks: [Walk; 2] = [
            ("entries", 1, |fib| fib.entries().count() as u64),
            ("same_as", 2, |fib| u64::from(fib.same_as(fib))),
        ];
        for (walk, tables, f) in walks {
            let before = made();
            let (_, _, (peak, _)) = held_by(|| f(fib));
            let allocs = made() - before;
            assert!(
                allocs <= tables && peak <= 400 * tables,
                "{}: {walk} made {allocs} allocations, {peak} B",
                node.name
            );
        }
    }
}

#[test]
fn a_shard_costs_no_per_node_state() {
    // A shard is a schedule: its heap, wake sets, FIFO clocks and outbox,
    // which hold the run's pending work and not a slot per router. With a
    // slot for every router, RNG stream and wake in every shard, eight
    // shards of this 100-router WAN held 1,168,812 B more than one; with one
    // table of them for the emulation, 62,560 B — the eight heaps' and
    // outboxes' growth slack, and what the layout's extra work items left.
    let snapshot = scenarios::regional_wan(5, 20);
    let converged = |shards: usize| {
        let cfg = EmulationConfig {
            seed: 1,
            shards: ShardMode::Fixed(shards),
            ..Default::default()
        };
        let (emu, (live, _), _) = held_by(|| {
            let topology = snapshot.topology.clone();
            let mut emu = Emulation::new(topology, Cluster::of_size(2), cfg).expect("wan builds");
            assert!(emu.run_until_converged().converged);
            emu
        });
        assert_eq!(emu.shard_count(), shards);
        (live, emu.dataplane().digest())
    };
    let (one, digest) = converged(1);
    let (eight, digest_eight) = converged(8);
    assert_eq!(digest_eight, digest);
    let gap = one.abs_diff(eight);
    assert!(
        gap < 100_000,
        "{eight} B live on eight shards, {one} B on one"
    );
}

#[test]
fn a_reflector_computes_each_distinct_thing_once() {
    // Region 0's reflector of `regional_wan(5, 20)`: nineteen client
    // sessions under one export policy and one eBGP session into the ring,
    // a hundred-odd BGP routes.
    let snapshot = scenarios::regional_wan(5, 20);
    let backend = EmulationBackend {
        cluster_machines: 2,
        ..EmulationBackend::with_seed(1)
    };
    let (emu, meta) = backend.run(&snapshot).expect("wan boots");
    assert!(meta.converged);
    let mut rr = emu.router(&"r00x00".into()).expect("reflector").clone();
    let bgp = rr.bgp_engine().expect("reflector runs BGP");
    let sessions = bgp.summaries().count();
    // One Adj-RIB-Out for the clients, one for the ring.
    assert_eq!((sessions, bgp.export_groups()), (20, 2));

    // Nothing dirty: a poll asks the IGP view about no peer and works no
    // advertisement out.
    let mut now = SimTime(emu.now().0 + 1);
    rr.poll(now, &|| 0, &mut Vec::new());
    assert_eq!(rr.bgp_work, emu.router(&"r00x00".into()).unwrap().bgp_work);

    // The ring port loses light: the IGP view moves at its /31 and nowhere
    // else, and the one session with its peer in there asks again. That
    // session falls, every route it brought is decided again, and each is
    // exported once — to the client group; the ring group has nobody left
    // in sync — where a table per session did so nineteen times.
    let work = rr.bgp_work;
    rr.set_link(&"Ethernet8".into(), false);
    now = SimTime(now.0 + 1);
    rr.poll(now, &|| 0, &mut Vec::new());
    assert_eq!(rr.bgp_work.liveness_lookups - work.liveness_lookups, 1);
    let scope = rr.bgp_work.prefix_decisions - work.prefix_decisions;
    assert!(scope >= 50, "{scope} prefixes decided");
    assert_eq!(
        rr.bgp_work.export_computations - work.export_computations,
        scope
    );

    // A batch of N prefixes whose winners name G gateways costs G
    // resolutions: here the reflector's whole table — its RIB with the BGP
    // selection as routes, rebuilt from the sources — patched into an empty
    // FIB as one batch.
    let rr = emu.router(&"r00x00".into()).expect("reflector");
    let rib = rr.reference_rib();
    let (mut fib, mut memo, mut looked_up) = (Fib::new(), GatewayMemo::default(), Vec::new());
    let mut named = std::collections::BTreeSet::new();
    for (prefix, route) in rib.winners() {
        fib.patch(&rib, None, prefix, &mut memo, &mut looked_up);
        if let [NextHop::Via(gateway)] = route.next_hops[..] {
            named.insert(gateway);
        }
    }
    assert!(fib.same_as(rr.fib()));
    assert!(
        fib.len() >= 100 && named.len() <= 4,
        "{} over {named:?}",
        fib.len()
    );
    assert_eq!(memo.resolutions(), named.len());

    // And over the whole run, 100 routers and 38,434 polls: 390 liveness
    // lookups for 200 sessions (a router that asks on every poll asks at
    // least once per poll), 1,002 gateway resolutions behind 16,215
    // resolved prefixes.
    let obs = emu.export_obs();
    let count = |name| obs.metrics.counter(name);
    assert!(count("engine.polls.router") > 30_000);
    assert!(count("bgp.liveness_lookups") <= 500);
    assert!(count("fib.gateway_resolutions") * 10 <= count("vrouter.fib.prefixes_resolved"));
}

#[test]
fn an_spf_run_merges_only_the_prefixes_it_moved() {
    // 30 routers converge in 1,312 SPF runs. A route pass over every
    // reached system's prefixes merged 100,343 reach entries; one over the
    // prefixes of the systems a run moved and of the advertisements that
    // changed merges 7,252.
    let snapshot = scenarios::isis_grid(6, 5);
    let (emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    let evaluations: u64 = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| {
            let isis = emu.router(&n.name).and_then(|r| r.isis_engine());
            isis.expect("every grid router runs IS-IS")
                .prefix_evaluations()
        })
        .sum();
    assert!(evaluations <= 7_614, "{evaluations} reach entries merged");
}

#[test]
fn an_spf_run_allocates_only_the_routes_it_hands_out() {
    // An interior router of the converged 30-router grid loses three of its
    // four adjacencies, one SPF run each, on a copy of its IS-IS engine.
    // The second and third runs hand out 66 routes, one allocation each
    // (its next hops). A fresh first-hop list, route-pass buffer, merge
    // buffer and change list per run, and an interface name copied per next
    // hop, made 167 allocations; buffers kept between runs (the engine's,
    // and the change list its caller keeps), grown by the first run, add
    // 10, where the third run outgrows the second.
    let snapshot = scenarios::isis_grid(6, 5);
    let (emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    let router = emu.router(&NodeId::from("r8")).expect("r8 booted");
    let mut isis = router.isis_engine().expect("r8 runs IS-IS").clone();
    let rib = router.rib().protocol_routes(RouteProtocol::Isis);
    let mut installed: BTreeMap<Prefix, RibRoute> = rib.map(|(p, r)| (*p, r.clone())).collect();
    let ports: Vec<IfaceId> = router
        .ports()
        .filter(|p| !p.is_loopback())
        .cloned()
        .collect();
    assert_eq!(ports.len(), 4, "{ports:?}");
    let mut changes = Vec::new();
    let mut cut = |port: &IfaceId| {
        isis.set_link(port, false);
        let before = made();
        isis.take_route_changes(installed.iter(), &mut changes);
        let allocs = made() - before;
        let routes = changes.iter().filter(|(_, r)| r.is_some()).count();
        for (prefix, route) in changes.drain(..) {
            match route {
                Some(route) => installed.insert(prefix, route),
                None => installed.remove(&prefix),
            };
        }
        (allocs, routes)
    };
    // The first run after the copy grows the copy's buffers.
    cut(&ports[0]);
    let ((a1, r1), (a2, r2)) = (cut(&ports[1]), cut(&ports[2]));
    let (allocs, routes) = (a1 + a2, r1 + r2);
    assert_eq!(routes, 66);
    assert!(
        allocs <= routes + 10,
        "{allocs} allocations for {routes} routes"
    );
}

#[test]
fn an_lsp_is_encoded_and_checksummed_once() {
    // 30 routers, 128 own-LSP originations, 5,007 LSPs received. Encoding
    // per flood, re-encoding to checksum on every decode, ack and CSNP
    // entry made that 3,290 encodes and 13,885 checksums; an LSP stored as
    // the bytes it arrived in makes it 128 and 5,135.
    let snapshot = scenarios::isis_grid(6, 5);
    let (emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    // Nothing restarts here, so a router's own sequence number counts its
    // originations.
    let originations: u64 = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| {
            let isis = emu.router(&n.name).and_then(|r| r.isis_engine());
            let isis = isis.expect("every grid router runs IS-IS");
            let own = isis.lsdb().map(|l| l.entry());
            let own = own.filter(|e| e.lsp_id.system == isis.system_id());
            own.map(|e| u64::from(e.seq)).sum::<u64>()
        })
        .sum();
    assert_eq!(originations, 128);
    let obs = emu.export_obs();
    assert_eq!(obs.metrics.counter("isis.lsp_encodes"), originations);
    let checksums = obs.metrics.counter("isis.lsp_checksums");
    assert!(
        checksums <= originations + 5_007,
        "{checksums} LSP checksums"
    );
}

#[test]
fn a_quiet_watch_renders_only_its_syncs() {
    // Four routers watched for 30 s, a read per router per tick. Nothing is
    // rendered: a stream carries typed leaf groups, and the client builds
    // a mirror's node once per change it reports (a sync or an applied
    // delta), not once per evaluation. A fault-free stream delivers each
    // batch by the next tick, so no mirror changes twice in one tick.
    let snapshot = scenarios::isis_line(4);
    let nodes = snapshot.topology.nodes.iter().map(|n| n.name.clone());
    let nodes: Vec<NodeId> = nodes.collect();
    let watch = |chaos: ChaosPlan| {
        let backend = EmulationBackend::with_seed(1);
        let (mut emu, meta) = backend.run(&snapshot).expect("line boots");
        assert!(meta.converged);
        let start = emu.now();
        emu.schedule_chaos(&chaos.shifted(start - SimTime::ZERO));
        let mut watcher = Watcher::new(WatchConfig::default(), nodes.iter().cloned());
        let mut changes = 0;
        for t in 1..=30 {
            let now = start + SimDuration::from_secs(t);
            emu.run_until(now);
            let report = watcher.tick(now, nodes.iter().map(|n| (n.clone(), emu.router(n))));
            changes += report.changed.len() as u64;
        }
        let mut obs = Obs::new();
        watcher.observe_into(&mut obs);
        let count = |name| obs.metrics.counter(name);
        let syncs = count("watch.syncs.initial") + count("watch.resyncs");
        let emitted = count("watch.batches.emitted");
        let reads = count("watch.device_reads");
        let decodes = count("watch.mirror_decodes");
        (syncs, emitted, changes - syncs, reads, decodes)
    };

    let (syncs, emitted, deltas, reads, decodes) = watch(ChaosPlan::new());
    assert_eq!((syncs, emitted, deltas), (4, 0, 0));
    assert_eq!(reads, syncs + 30 * 4);
    assert_eq!(decodes, syncs + deltas);

    let link = snapshot.topology.links[1].id();
    let flap = ChaosPlan::new().link_flap(link, SimTime(5_000), SimDuration::from_secs(10));
    let (syncs, emitted, deltas, _, decodes) = watch(flap);
    assert!(emitted > 0 && deltas > 0, "the flap streamed nothing");
    assert_eq!(decodes, syncs + deltas);
}

#[test]
fn a_tick_that_streams_a_fib_move_allocates_only_what_moved() {
    // Twelve routers watched until every stream is synced; then one router
    // loses a link. The tick that reads its moved FIB streams the groups
    // that moved, and the next delivers them and builds the mirror's node.
    // Rendering both reads, diffing the trees, applying the diff to a copy
    // of the mirror's tree and decoding the AFT out of it made 2,177
    // allocations across those two ticks; the typed batch makes 24: the
    // moved AFT and the node built from it.
    let snapshot = scenarios::isis_grid(4, 3);
    let nodes = snapshot.topology.nodes.iter().map(|n| n.name.clone());
    let nodes: Vec<NodeId> = nodes.collect();
    let (emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    assert!(meta.converged);
    let start = emu.now();
    let mut routers: Vec<VirtualRouter> = nodes
        .iter()
        .map(|n| emu.router(n).expect("a router").clone())
        .collect();
    let mut watcher = Watcher::new(WatchConfig::default(), nodes.iter().cloned());
    let mut tick = |routers: &[VirtualRouter], t: u64| {
        let now = start + SimDuration::from_secs(t);
        let routers = nodes.iter().cloned().zip(routers.iter().map(Some));
        let before = made();
        let report = watcher.tick(now, routers);
        (made() - before, report)
    };
    tick(&routers, 1);
    let port = routers[0].config().interfaces[1].name.clone();
    routers[0].set_link(&port, false);
    routers[0].poll(start + SimDuration::from_secs(2), &|| 0, &mut Vec::new());
    let (emitting, _) = tick(&routers, 2);
    let (delivering, report) = tick(&routers, 3);
    assert_eq!(report.changed.keys().collect::<Vec<_>>(), [&nodes[0]]);
    let allocs = emitting + delivering;
    assert!(allocs <= 40, "{allocs} allocations to stream one FIB move");
}

#[test]
fn a_quiet_watch_tick_allocates_nothing() {
    // Twelve routers running IS-IS and BGP, converged and watched until
    // every stream is synced and its first heartbeat delivered. A tick where
    // nothing moved and no heartbeat is due compares each router's leaves
    // with the state last streamed, in place. Collecting the interfaces,
    // sessions and adjacencies of every read to compare them, and taking
    // each stream out of its table and putting it back, allocated per tick.
    let snapshot = scenarios::regional_wan(3, 4);
    let nodes = snapshot.topology.nodes.iter().map(|n| n.name.clone());
    let nodes: Vec<NodeId> = nodes.collect();
    let (mut emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("wan boots");
    assert!(meta.converged);
    let start = emu.now();
    let mut watcher = Watcher::new(WatchConfig::default(), nodes.iter().cloned());
    // Synced at 1 s, a heartbeat emitted at 6 s and delivered at 7 s; the
    // next is due at 11 s.
    for t in 1..=10 {
        let now = start + SimDuration::from_secs(t);
        emu.run_until(now);
        let routers = nodes.iter().map(|n| (n.clone(), emu.router(n)));
        let before = made();
        let report = watcher.tick(now, routers);
        let allocs = made() - before;
        if t >= 8 {
            assert!(report.changed.is_empty(), "{t} s: {:?}", report.changed);
            assert_eq!(allocs, 0, "{t} s: {allocs} allocations in a quiet tick");
        }
    }
    let mut obs = Obs::new();
    watcher.observe_into(&mut obs);
    let count = |name| obs.metrics.counter(name);
    assert_eq!(count("watch.syncs.initial"), 12);
    assert_eq!(count("watch.batches.heartbeats"), 12);
    // A read per sync and a read per router and tick.
    assert_eq!(count("watch.device_reads"), 12 + 12 * 10);
}

#[test]
fn an_isis_frame_costs_one_allocation() {
    // A cold boot of the 30-router grid, counted in allocations: 12,628
    // IS-IS frames delivered. Each decoded into a `Vec<Tlv>`, a hello built
    // and encoded per send into a buffer grown from empty then copied, and
    // an out-queue naming its targets by cloned interface name made
    // 224,671 allocations. Decoded straight into what the engine keeps (an
    // LSP stored only if it is kept), a hello encoded once per adjacency
    // state, each PDU written into one frame of its size and frames routed
    // by port index, 68,611 are left; with one buffer of router events per
    // shard instead of a fresh one per poll, 64,196. The ceiling is 5 % over
    // that (72,041 before).
    let snapshot = scenarios::isis_grid(6, 5);
    let before = made();
    let (emu, meta) = EmulationBackend::with_seed(1)
        .run(&snapshot)
        .expect("grid boots");
    let allocs = made() - before;
    assert!(meta.converged);
    let delivered = emu
        .export_obs()
        .metrics
        .counter("engine.events.deliver_isis");
    assert_eq!(delivered, 12_628);
    assert!(allocs <= 67_405, "{allocs} allocations to boot the grid");
}

#[test]
fn a_context_records_what_its_fork_and_hand_over_cost() {
    // The sweep's own record of its contexts, one at a time, counted on
    // each context's thread: the six-router grid's seven single cuts. The
    // median context's fork made 274 allocations, its re-convergence 182
    // and its extraction 293 (257 when extraction read only the AFT,
    // addresses and `up`, not the device's whole typed state); the
    // ceilings are 5 % over those.
    let snapshot = scenarios::isis_grid(3, 2);
    let backend = EmulationBackend {
        threads: 1,
        ..EmulationBackend::with_seed(1)
    };
    let contexts = link_cut_contexts(&snapshot, 1);
    let report = verify_link_cuts_detailed(&snapshot, &backend, contexts, None).expect("boots");
    assert_eq!(report.costs.len(), 7);
    let median = |phase: &str| {
        let i = PHASES.split(' ').position(|p| p == phase).expect("a phase");
        let mut allocs: Vec<u64> = report.costs.iter().map(|cost| cost[i].allocs).collect();
        allocs.sort_unstable();
        allocs[allocs.len() / 2]
    };
    let [clone, run, extract] = ["clone", "run_until_converged", "extract"].map(median);
    assert!(clone <= 287, "{clone} allocations to fork the grid");
    assert!(run <= 191, "{run} allocations to re-converge");
    assert!(extract <= 307, "{extract} allocations to extract the fork");
}
