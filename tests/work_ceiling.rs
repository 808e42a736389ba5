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
//! received. And a shard holds a schedule, not a slot per router: the
//! emulation's bytes barely move with the shard count. And a watch renders
//! a device's state tree per sync and per change, not per read, and decodes
//! a mirror per change, not per evaluation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use model_free_verification::core::{extract_snapshot, scenarios, EmulationBackend, Snapshot};
use model_free_verification::emulator::{
    ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig, ShardMode,
};
use model_free_verification::mgmt::{Aft, Telemetry, WatchConfig, Watcher};
use model_free_verification::obs::Obs;
use model_free_verification::routing::rib::GatewayMemo;
use model_free_verification::routing::{Fib, NextHop};
use model_free_verification::types::{NodeId, SimDuration, SimTime};

/// The system allocator, counting the calling thread's live bytes and
/// their high-water mark. Per thread, so tests running beside each other
/// do not see one another.
struct PerThreadCounting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request goes to `System` unchanged, so its contract is
// `System`'s. The counters are const-initialised `Cell`s without
// destructors: reaching them neither allocates nor re-enters the
// allocator, and `try_with` covers a thread that is tearing down.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get().wrapping_add(layout.size()));
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub(layout.size())));
    }
}

#[global_allocator]
static ALLOC: PerThreadCounting = PerThreadCounting;

/// Runs `f`; returns its result, the bytes it left live on this thread,
/// and how far above the starting level this thread's live bytes rose.
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    (out, LIVE.get() - before, PEAK.get() - before)
}

struct Work {
    /// Router polls × mean FIB size: what a rebuild per poll would touch.
    rebuild_per_poll: u64,
    prefixes_resolved: u64,
    prefix_decisions: u64,
}

fn converge(snapshot: &Snapshot) -> Work {
    let mut obs = Obs::new();
    let result = EmulationBackend::with_seed(1)
        .compute_observed(snapshot, &mut obs)
        .expect("scenario converges");
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
fn extraction_holds_one_routers_aft_at_a_time() {
    let snapshot = scenarios::isis_grid(6, 5);
    let backend = EmulationBackend::with_seed(1);
    let (emu, _) = backend.run(&snapshot).expect("grid boots");
    assert_eq!(snapshot.topology.nodes.len(), 30);
    // Every grid router carries the same 79 prefixes; one AFT is one AFT.
    let router = emu
        .router(&snapshot.topology.nodes[0].name)
        .expect("router booted");
    let (aft, aft_bytes, _) = heap_of(|| Aft::from_fib(router.fib()));
    drop(aft);
    let (tree, tree_bytes, _) = heap_of(|| Telemetry::from_router(router).expect("tree"));
    drop(tree);

    let (extracted, kept, peak) =
        heap_of(|| extract_snapshot(&emu, &backend.collector, &mut Obs::new()));
    assert!(extracted.is_complete());
    assert_eq!(extracted.dataplane.digest(), emu.dataplane().digest());
    // Above the result it returns, extraction needs room for the AFT in
    // hand and the sweep's per-node tallies: 4,722 B today against a
    // 2,997 B AFT (1.6 AFTs' worth, 27 % under the ceiling) — not thirty
    // AFTs, and not one 76,702 B state tree, which it no longer builds.
    let transient = peak - kept;
    assert!(transient < tree_bytes / 10, "{transient} B transient");
    assert!(
        transient <= 2 * aft_bytes,
        "{transient} B transient for a {aft_bytes} B AFT"
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
    // in it; no per-prefix gateway index — it holds 537.
    let snapshot = scenarios::regional_wan(5, 20);
    let backend = EmulationBackend {
        cluster_machines: 2,
        ..EmulationBackend::with_seed(1)
    };
    let ((emu, meta), live, _) = heap_of(|| backend.run(&snapshot).expect("wan boots"));
    assert!(meta.converged);
    let entries = emu.dataplane().total_entries();
    assert!(entries > 12_000);
    assert!(
        live <= 590 * entries,
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
        let (emu, live, _) = heap_of(|| {
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
    let sessions = bgp.summaries().len();
    // One Adj-RIB-Out for the clients, one for the ring.
    assert_eq!((sessions, bgp.export_groups()), (20, 2));

    // Nothing dirty: a poll asks the IGP view about no peer and works no
    // advertisement out.
    let mut now = SimTime(emu.now().0 + 1);
    let _ = rr.poll(now);
    assert_eq!(rr.bgp_work, emu.router(&"r00x00".into()).unwrap().bgp_work);

    // The ring port loses light: the IGP view moves at its /31 and nowhere
    // else, and the one session with its peer in there asks again. That
    // session falls, every route it brought is decided again, and each is
    // exported once — to the client group; the ring group has nobody left
    // in sync — where a table per session did so nineteen times.
    let work = rr.bgp_work;
    rr.set_link(&"Ethernet8".into(), false);
    now = SimTime(now.0 + 1);
    let _ = rr.poll(now);
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
    // Four routers watched for 30 s, a read per router per tick. Rendering
    // and diffing every read made 124 trees; comparing typed state renders
    // one per sync and per change, and the client decodes a mirror once per
    // change it reports (a sync or an applied delta), not once per
    // evaluation. A fault-free stream delivers each batch by the next tick,
    // so no mirror changes twice in one tick.
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
        let renders = count("watch.device_renders");
        (
            syncs,
            emitted,
            changes - syncs,
            reads,
            renders,
            count("watch.mirror_decodes"),
        )
    };

    let (syncs, emitted, deltas, reads, renders, decodes) = watch(ChaosPlan::new());
    assert_eq!((syncs, emitted, deltas), (4, 0, 0));
    assert_eq!(reads, syncs + 30 * 4);
    assert_eq!((renders, decodes), (syncs, syncs));

    let link = snapshot.topology.links[1].id();
    let flap = ChaosPlan::new().link_flap(link, SimTime(5_000), SimDuration::from_secs(10));
    let (syncs, emitted, deltas, _, renders, decodes) = watch(flap);
    assert!(emitted > 0 && deltas > 0, "the flap streamed nothing");
    assert_eq!(renders, syncs + emitted);
    assert_eq!(decodes, syncs + deltas);
}
