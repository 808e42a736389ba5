//! The engine's observability export: flushing plain-field counters, the
//! per-router aggregates and the journal into an [`Obs`] snapshot. Nothing
//! here advances the emulation.

use mfv_obs::{Journal, Obs};
use mfv_vrouter::VirtualRouter;

use super::Emulation;

/// Journal kinds the coordinator writes at a barrier (chaos it fires, boot
/// and flood completion). At one instant they come before what work items
/// wrote, as coordinator-origin events run before same-instant traffic.
const BARRIER_KINDS: [&str; 5] = [
    "chaos.link_down",
    "chaos.link_up",
    "chaos.fail_machine",
    "engine.boot_complete",
    "engine.flood_complete",
];

impl Emulation {
    /// Flushes the engine's plain-field counters — plus per-router
    /// aggregates from every live [`VirtualRouter`] — into an [`Obs`]
    /// snapshot. Everything except the `wall` section is derived from sim
    /// state only, so two same-seed runs export byte-identical
    /// `to_json(false)` dumps.
    pub fn export_obs(&self) -> Obs {
        let mut obs = Obs::new();
        let fleet = &self.fleet;
        let tally = fleet.tally;
        let m = &mut obs.metrics;
        m.inc("engine.events.pod_ready", tally.pod_ready);
        m.inc("engine.events.deliver_isis", tally.deliver_isis);
        m.inc("engine.events.deliver_bgp", tally.deliver_bgp);
        m.inc("engine.events.deliver_external", tally.deliver_external);
        m.inc("engine.events.restart_router", tally.restart_router);
        m.inc("engine.events.chaos_link", tally.chaos_link);
        m.inc("engine.events.chaos_kill", tally.chaos_kill);
        m.inc("engine.events.chaos_fail_machine", tally.chaos_fail_machine);
        m.inc("engine.events.scheduled", fleet.events_scheduled);
        m.inc("engine.events.processed", fleet.events_processed);
        m.inc("engine.windows", self.glob.windows);
        m.inc("engine.messages.delivered", fleet.messages_delivered);
        m.inc("engine.crashes", fleet.crashes);
        m.inc("engine.polls.router", tally.router_polls);
        m.inc("engine.polls.external", tally.ext_polls);
        m.inc("engine.impair.dropped", tally.impair_dropped);
        m.inc("engine.impair.duplicated", tally.impair_duplicated);
        let feeds = fleet.externals.iter().flatten();
        m.inc("engine.encode_errors", feeds.map(|p| p.encode_errors).sum());
        m.gauge("engine.nodes", self.topology.nodes.len() as i64);
        m.gauge("engine.links", self.glob.links.len() as i64);
        m.gauge("engine.unschedulable", self.glob.unschedulable.len() as i64);
        m.gauge("engine.shards", self.shards.len() as i64);
        m.merge_hist("engine.wake_depth", &fleet.wake_depth);

        // Per-router aggregates (routers evicted by machine failures or
        // not yet booted contribute nothing). Walk in NodeRef order.
        let routers = || fleet.routers.iter().flatten();
        let total = |field: fn(&VirtualRouter) -> u64| routers().map(field).sum::<u64>();
        m.inc("vrouter.decode_errors", total(|r| r.decode_errors));
        m.inc("vrouter.encode_errors", total(|r| r.bgp_work.encode_errors));
        m.inc("vrouter.rib.resyncs", total(|r| r.rib_resyncs));
        m.inc("vrouter.fib.full_refreshes", total(|r| r.full_rebuilds));
        m.inc("vrouter.fib.patches", total(|r| r.fib_patches));
        m.inc(
            "vrouter.fib.prefixes_resolved",
            total(|r| r.fib_prefixes_resolved),
        );
        m.inc("vrouter.spf.runs", total(|r| r.spf_runs));
        m.inc("isis.lsp_encodes", total(|r| r.isis_work.lsp_encodes));
        m.inc("isis.lsp_checksums", total(|r| r.isis_work.lsp_checksums));
        m.inc(
            "vrouter.igp.delta_prefixes",
            total(|r| r.igp_delta_prefixes),
        );
        m.inc(
            "fib.gateway_resolutions",
            total(|r| r.fib_gateway_resolutions),
        );
        m.inc(
            "bgp.prefix_decisions",
            total(|r| r.bgp_work.prefix_decisions),
        );
        m.inc(
            "bgp.liveness_lookups",
            total(|r| r.bgp_work.liveness_lookups),
        );
        m.inc(
            "bgp.export_computations",
            total(|r| r.bgp_work.export_computations),
        );
        m.inc(
            "vrouter.bgp.session_transitions",
            total(VirtualRouter::bgp_session_transitions),
        );
        m.inc(
            "vrouter.isis.adjacency_transitions",
            total(VirtualRouter::isis_adjacency_transitions),
        );
        let running = routers().filter(|r| r.is_running()).count();
        m.gauge("vrouter.running", running as i64);

        obs.phases = self.glob.phases.clone();
        obs.journal = self.journal();
        obs.wall = self.glob.wall.clone();
        // Where the window loop's wall time went, and — nested inside
        // `converge.poll` — the three router sections that can be long.
        let lw = fleet.loop_wall;
        for (phase, ns) in [
            ("converge.deliver_isis", lw.deliver_isis),
            ("converge.deliver_bgp", lw.deliver_bgp),
            ("converge.poll", lw.poll),
            ("converge.other", lw.other),
            ("converge.plan", lw.plan),
            ("converge.settle", lw.settle),
            ("router.spf", total(|r| r.wall.spf_ns)),
            ("router.bgp", total(|r| r.wall.bgp_ns)),
            ("router.fib", total(|r| r.wall.fib_ns)),
        ] {
            obs.wall.add_phase(phase, ns / 1_000);
        }
        // What taking them cost: a lap per work item (a chaos action fired
        // at a barrier counts, though it takes none) and two per window, a
        // timer pair per router section.
        let laps = fleet.events_processed + 2 * self.glob.windows;
        obs.wall.metrics.inc("converge.timer_laps", laps);
        obs.wall
            .metrics
            .inc("router.timer_pairs", total(|r| r.wall.pairs));
        obs
    }

    /// The journal in instant order, barrier entries first at an instant;
    /// within that, in the order it was written.
    fn journal(&self) -> Journal {
        let mut events: Vec<_> = self.fleet.journal.events().collect();
        events.sort_by_key(|e| (e.at, !BARRIER_KINDS.contains(&e.kind)));
        let mut journal = Journal::new();
        for e in events {
            journal.push(e.at, e.kind, e.detail.clone());
        }
        journal
    }
}
