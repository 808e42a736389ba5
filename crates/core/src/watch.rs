//! Continuous verification: drive a live emulation, a fault-tolerant
//! telemetry watcher, and the standing-query engine as one loop.
//!
//! The one-shot pipeline (`EmulationBackend::compute`) answers "is the
//! network correct *now*?". This module answers "does the network *stay*
//! correct?" — it converges the emulation once, then keeps verifying while
//! a [`ChaosPlan`] injects faults:
//!
//! ```text
//!   emulation ──(gNMI Subscribe deltas, lossy)──▶ Watcher mirrors
//!        │                                            │ changed nodes +
//!        ▼                                            ▼ coverage
//!   chaos plan                                  StandingQueries
//!   (flaps, kills,                              (the batch queries, through
//!    machine failures)                           one ClassCache)
//! ```
//!
//! Every piece is seeded and sim-timed, so a run's verdict journal and
//! observability dump are byte-identical across same-seed replays — the
//! property that makes continuous-verification regressions diffable.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use mfv_dataplane::Dataplane;
use mfv_emulator::ChaosPlan;
use mfv_mgmt::{WatchStats, Watcher};
use mfv_types::{NodeId, SimDuration, SimTime};
use mfv_verify::standing::{StandingQueries, VerdictUpdate};
use mfv_verify::Coverage;

use crate::backend::{BackendError, EmulationBackend};
use crate::snapshot::Snapshot;

/// Configuration for a continuous-verification run.
#[derive(Clone, Debug)]
pub struct WatchRunConfig {
    /// Converges the network before watching starts; its own `chaos` field
    /// (if any) plays during convergence, not during the watch window.
    pub backend: EmulationBackend,
    /// Stream behaviour: the delivery fault model and the seed of its rolls.
    pub watch: mfv_mgmt::WatchConfig,
    /// Faults injected during the watch window. Times are relative to the
    /// start of the window (t=0 is the converged state), shifted onto the
    /// emulation clock internally.
    pub chaos: ChaosPlan,
    /// Watcher poll cadence.
    pub tick: SimDuration,
    /// Length of the watch window.
    pub duration: SimDuration,
}

impl Default for WatchRunConfig {
    fn default() -> WatchRunConfig {
        WatchRunConfig {
            backend: EmulationBackend::default(),
            watch: mfv_mgmt::WatchConfig::default(),
            chaos: ChaosPlan::default(),
            tick: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(60),
        }
    }
}

/// Outcome of a continuous-verification run.
#[derive(Clone, Debug)]
pub struct WatchReport {
    /// Did the pre-watch convergence run succeed?
    pub converged: bool,
    /// Emulation clock when the watch window opened / closed.
    pub started_at: SimTime,
    pub ended_at: SimTime,
    /// Every verdict transition, in emission order.
    pub verdict_updates: Vec<VerdictUpdate>,
    /// Rendered verdict journal: one line per transition, newline-separated.
    /// Byte-identical across same-seed runs.
    pub journal_text: String,
    /// Stream-level counters from the watcher.
    pub stats: WatchStats,
    /// Sim-time latency from the earliest device-side change in a batch to
    /// the verdict evaluation that consumed it, one sample per evaluation
    /// triggered by deltas. Raw (not bucketed) so callers can take exact
    /// percentiles.
    pub verdict_latencies_ms: Vec<u64>,
    /// Standing-query evaluations performed.
    pub evaluations: u64,
    /// `(computed, carried over)` work units of the standing queries: a
    /// (src, dst) reachability pair or a per-source loop/black-hole walk.
    /// An evaluation computes its full pass only when the snapshot's
    /// inputs changed, and carries it over otherwise.
    pub pair_stats: (u64, u64),
    /// `(hits, misses)` of the standing queries' class cache.
    pub cache_stats: (usize, usize),
    /// Coverage at the end of the window.
    pub final_coverage: Coverage,
}

/// The coverage partition that matters for re-evaluation: which nodes are
/// fresh / stale / missing. Ages and reasons are deliberately excluded —
/// a stale node aging one more tick is not a coverage *transition*.
fn coverage_class(cov: &Coverage) -> (BTreeSet<NodeId>, BTreeSet<NodeId>, BTreeSet<NodeId>) {
    (
        cov.fresh.clone(),
        cov.stale.keys().cloned().collect(),
        cov.missing.keys().cloned().collect(),
    )
}

/// Runs the continuous-verification loop and folds its observability
/// (engine, watcher, standing queries, verdict latency) into `obs`.
///
/// The loop per tick: advance the emulation, tick the watcher against the
/// live routers, and — only when some node's mirror changed or the
/// coverage partition moved — rebuild the observed dataplane and
/// re-evaluate the standing queries. Quiet ticks cost nothing but the
/// poll.
pub fn run_watch(
    snapshot: &Snapshot,
    cfg: &WatchRunConfig,
    obs: &mut mfv_obs::Obs,
) -> Result<WatchReport, BackendError> {
    let (mut emu, meta) = cfg.backend.run(snapshot)?;
    let started_at = emu.now();
    if !cfg.chaos.is_empty() {
        emu.schedule_chaos(&cfg.chaos.shifted(started_at - SimTime::ZERO));
    }

    let nodes: Vec<NodeId> = snapshot
        .topology
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .collect();
    let mut watcher = Watcher::new(cfg.watch.clone(), nodes.iter().cloned());
    let mut standing = StandingQueries::new();

    let mut journal_text = String::new();
    let mut verdict_updates = Vec::new();
    let mut verdict_latencies_ms = Vec::new();
    let mut last_class: Option<(BTreeSet<NodeId>, BTreeSet<NodeId>, BTreeSet<NodeId>)> = None;

    let end = started_at + cfg.duration;
    let tick = if cfg.tick == SimDuration::ZERO {
        SimDuration::from_secs(1)
    } else {
        cfg.tick
    };
    let mut now = started_at;
    let mut coverage = Coverage::default();
    while now < end {
        let next = now + tick;
        now = if next < end { next } else { end };
        let wall = &mut obs.wall;
        wall.time_phase("watch.run_until", || emu.run_until(now));
        let report = wall.time_phase("watch.tick", || {
            watcher.tick(now, nodes.iter().map(|n| (n.clone(), emu.router(n))))
        });

        let status = watcher.status(now);
        coverage = Coverage::from_status(&status);
        let class = coverage_class(&coverage);
        let coverage_moved = last_class.as_ref() != Some(&class);
        if report.changed.is_empty() && !coverage_moved {
            continue;
        }
        last_class = Some(class);

        // The mirrors carry every node's state; the emulation, only which
        // links are up.
        let dp = wall.time_phase("watch.dataplane", || {
            let mut links = Dataplane::new();
            emu.up_links().for_each(|l| links.add_link(l.clone()));
            watcher.dataplane(now, &links)
        });
        let updates = wall.time_phase("watch.evaluate", || standing.evaluate(now, &dp, &coverage));
        if let Some(first) = report.changed.values().min() {
            let lat = now.since(*first).as_millis();
            verdict_latencies_ms.push(lat);
            obs.metrics.record("watch.verdict_latency_ms", lat);
        }
        for u in updates {
            let _ = writeln!(journal_text, "{u}");
            verdict_updates.push(u);
        }
    }

    watcher.observe_into(obs);
    standing.observe_into(obs);
    obs.metrics
        .inc("watch.verdict_updates", verdict_updates.len() as u64);
    obs.merge(emu.export_obs());

    Ok(WatchReport {
        converged: meta.converged,
        started_at,
        ended_at: now,
        verdict_updates,
        journal_text,
        stats: watcher.stats().clone(),
        verdict_latencies_ms,
        evaluations: standing.evaluations(),
        pair_stats: standing.pair_stats(),
        cache_stats: standing.cache_stats(),
        final_coverage: coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use mfv_mgmt::StreamFaultModel;

    fn small_cfg(seed: u64) -> WatchRunConfig {
        WatchRunConfig {
            backend: EmulationBackend::with_seed(seed),
            watch: mfv_mgmt::WatchConfig {
                seed,
                ..Default::default()
            },
            duration: SimDuration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn quiet_network_settles_to_three_holding_verdicts() {
        let snap = scenarios::isis_line(4);
        let mut obs = mfv_obs::Obs::new();
        let report = run_watch(&snap, &small_cfg(7), &mut obs).unwrap();
        assert!(report.converged);
        // Initial sync produces the three standing verdicts, then quiet.
        assert_eq!(report.verdict_updates.len(), 3, "{}", report.journal_text);
        assert!(report.verdict_updates.iter().all(|u| u.verdict.holds));
        assert!(report.final_coverage.is_complete());
        assert_eq!(report.stats.gaps, 0);
        // Latency samples are recorded and bounded by one poll interval
        // (resync stamps land on the tick itself, hence the 0 floor).
        assert!(!report.verdict_latencies_ms.is_empty());
        assert!(report.verdict_latencies_ms.iter().all(|&l| l <= 1_000));
        // A quiet network pays exactly one full standing pass: N(N-1)
        // reachability pairs + N loop walks + N black-hole walks, and
        // never re-evaluates a pair after that.
        let full = (4 * 3 + 2 * 4) as u64 * report.evaluations;
        let (evaluated, reused) = report.pair_stats;
        assert_eq!(evaluated + reused, full);
        assert_eq!(evaluated, 4 * 3 + 2 * 4, "quiet ticks must reuse pairs");
    }

    #[test]
    fn link_kill_flips_reachability_and_journal_replays() {
        let snap = scenarios::isis_line(4);
        let link = snap.topology.links[0].clone();
        let mk = || {
            let mut cfg = small_cfg(9);
            cfg.chaos =
                ChaosPlan::new().link_flap(link.id(), SimTime(5_000), SimDuration::from_secs(10));
            cfg.duration = SimDuration::from_secs(40);
            cfg
        };
        let mut obs_a = mfv_obs::Obs::new();
        let a = run_watch(&snap, &mk(), &mut obs_a).unwrap();
        // The flap must actually surface as verdict churn past the initial
        // three, and the network must re-verify clean after recovery.
        assert!(a.verdict_updates.len() > 3, "{}", a.journal_text);
        let last = a
            .verdict_updates
            .iter()
            .rfind(|u| u.query == "reachability")
            .unwrap();
        assert!(last.verdict.holds, "{}", a.journal_text);

        let mut obs_b = mfv_obs::Obs::new();
        let b = run_watch(&snap, &mk(), &mut obs_b).unwrap();
        assert_eq!(a.journal_text, b.journal_text);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.verdict_latencies_ms, b.verdict_latencies_ms);
        assert_eq!(obs_a.to_json(false), obs_b.to_json(false));

        // All 4 nodes stay covered (link flaps don't drop streams), so
        // every evaluation accounts for the same N(N-1)+2N work units,
        // computed or carried over.
        let per_eval = (4 * 3 + 2 * 4) as u64;
        let (evaluated, reused) = a.pair_stats;
        assert_eq!(evaluated + reused, a.evaluations * per_eval);
    }

    #[test]
    fn lossy_stream_degrades_coverage_and_recovers() {
        let snap = scenarios::isis_line(4);
        let mut cfg = small_cfg(21);
        cfg.watch.faults = StreamFaultModel {
            drop_pct: 35,
            session_loss_pct: 10,
        };
        cfg.duration = SimDuration::from_secs(90);
        let mut obs = mfv_obs::Obs::new();
        let report = run_watch(&snap, &cfg, &mut obs).unwrap();
        // Faults fired and every one was healed by resync.
        assert!(report.stats.gaps + report.stats.session_losses > 0);
        assert!(report.stats.resyncs > 0);
        assert!(
            report.final_coverage.is_complete(),
            "{:?}",
            report.final_coverage
        );
        // Incremental property: far more class reuse than rebuilds.
        let (hits, misses) = report.cache_stats;
        assert!(hits > misses, "hits={hits} misses={misses}");
    }
}
