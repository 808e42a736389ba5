//! The engine's observability export: flushing plain-field counters, the
//! per-router aggregates and the merged journal into an [`Obs`] snapshot.
//! Nothing here advances the emulation.

use mfv_obs::{Journal, Obs};
use mfv_types::SimTime;
use mfv_vrouter::VirtualRouter;

use super::Emulation;
use crate::shard::LoopWall;

impl Emulation {
    /// Flushes the engine's plain-field counters — plus per-router
    /// aggregates from every live [`VirtualRouter`] — into an [`Obs`]
    /// snapshot. Per-shard state merges in shard-index order (journals by
    /// `(time, shard, local order)`), so everything except the `wall`
    /// section is derived from sim state only and two same-seed runs export
    /// byte-identical `to_json(false)` dumps.
    pub fn export_obs(&self) -> Obs {
        let mut obs = Obs::new();
        let mut tally = self.glob.tally;
        for s in &self.shards {
            tally.absorb(&s.tally);
        }
        let m = &mut obs.metrics;
        m.inc("engine.events.pod_ready", tally.pod_ready);
        m.inc("engine.events.deliver_isis", tally.deliver_isis);
        m.inc("engine.events.deliver_bgp", tally.deliver_bgp);
        m.inc("engine.events.deliver_external", tally.deliver_external);
        m.inc("engine.events.restart_router", tally.restart_router);
        m.inc("engine.events.chaos_link", tally.chaos_link);
        m.inc("engine.events.chaos_kill", tally.chaos_kill);
        m.inc("engine.events.chaos_fail_machine", tally.chaos_fail_machine);
        m.inc(
            "engine.events.scheduled",
            self.glob.events_scheduled
                + self.shards.iter().map(|s| s.events_scheduled).sum::<u64>(),
        );
        m.inc("engine.events.processed", self.events_processed());
        m.inc("engine.events.multi_shard", self.glob.events_multi_shard);
        m.inc("engine.windows", self.glob.windows);
        m.inc("engine.windows.multi_shard", self.glob.windows_multi_shard);
        m.inc(
            "engine.messages.delivered",
            self.shards.iter().map(|s| s.messages_delivered).sum(),
        );
        m.inc(
            "engine.crashes",
            self.shards.iter().map(|s| s.crashes).sum(),
        );
        m.inc("engine.polls.router", tally.router_polls);
        m.inc("engine.polls.external", tally.ext_polls);
        m.inc("engine.impair.dropped", tally.impair_dropped);
        m.inc("engine.impair.duplicated", tally.impair_duplicated);
        m.inc("engine.encode_errors", tally.encode_errors);
        m.gauge("engine.nodes", self.topology.nodes.len() as i64);
        m.gauge("engine.links", self.glob.links.len() as i64);
        m.gauge("engine.unschedulable", self.glob.unschedulable.len() as i64);
        m.gauge("engine.shards", self.shards.len() as i64);
        for s in &self.shards {
            m.merge_hist("engine.wake_depth", &s.wake_depth);
        }

        // Per-router aggregates (routers evicted by machine failures or
        // not yet booted contribute nothing). Walk in NodeRef order.
        let routers = || {
            self.net.interner.node_refs().filter_map(|r| {
                self.shard_of(r)
                    .and_then(|sid| self.shards.get(sid))
                    .and_then(|s| s.routers.get(r.index()))
                    .and_then(|slot| slot.as_ref())
            })
        };
        let total = |field: fn(&VirtualRouter) -> u64| routers().map(field).sum::<u64>();
        m.inc("vrouter.decode_errors", total(|r| r.decode_errors));
        m.inc("vrouter.encode_errors", total(|r| r.encode_errors));
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
        obs.journal = self.merged_journal();
        obs.wall = self.glob.wall.clone();
        // Where the window loop's wall time went, and — nested inside
        // `converge.poll` — the three router sections that can be long.
        let lw = |field: fn(&LoopWall) -> u64| {
            field(&self.glob.loop_wall)
                + self.shards.iter().map(|s| field(&s.loop_wall)).sum::<u64>()
        };
        for (phase, ns) in [
            ("converge.deliver_isis", lw(|w| w.deliver_isis)),
            ("converge.deliver_bgp", lw(|w| w.deliver_bgp)),
            ("converge.poll", lw(|w| w.poll)),
            ("converge.other", lw(|w| w.other)),
            ("converge.plan", lw(|w| w.plan)),
            ("converge.settle", lw(|w| w.settle)),
            ("router.spf", total(|r| r.wall.spf_ns)),
            ("router.bgp", total(|r| r.wall.bgp_ns)),
            ("router.fib", total(|r| r.wall.fib_ns)),
        ] {
            obs.wall.add_phase(phase, ns / 1_000);
        }
        // What taking them cost: a lap per work item and two per window,
        // a timer pair per router section.
        let items: u64 = self.shards.iter().map(|s| s.events_processed).sum();
        let laps = items + 2 * self.glob.windows;
        obs.wall.metrics.inc("converge.timer_laps", laps);
        obs.wall
            .metrics
            .inc("router.timer_pairs", total(|r| r.wall.pairs));
        obs
    }

    /// Interleaves the coordinator journal and every shard journal into
    /// one ring, ordered by `(time, source rank, local order)` — the
    /// coordinator (chaos, boot milestones) ranks before shards at the
    /// same instant, matching heap order where coordinator-origin events
    /// sort first.
    fn merged_journal(&self) -> Journal {
        let mut entries: Vec<(SimTime, usize, usize, &mfv_obs::journal::Event)> = Vec::new();
        for (idx, e) in self.glob.journal.events().enumerate() {
            entries.push((e.at, 0, idx, e));
        }
        for (sid, s) in self.shards.iter().enumerate() {
            for (idx, e) in s.journal.events().enumerate() {
                entries.push((e.at, sid + 1, idx, e));
            }
        }
        entries.sort_by_key(|(at, rank, idx, _)| (*at, *rank, *idx));
        let mut out = Journal::new();
        for (_, _, _, e) in entries {
            out.push(e.at, e.kind, e.detail.clone());
        }
        out
    }
}
