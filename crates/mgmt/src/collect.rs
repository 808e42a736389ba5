//! A resilient gNMI collector: retries, backoff, and graceful degradation.
//!
//! The naive extraction path assumes every Get succeeds on the first try.
//! Real management planes time out, return transient errors, and serve
//! cached state. This module models that RPC path ([`RpcFailureModel`]) and
//! wraps extraction in a [`Collector`] that retries with capped exponential
//! backoff plus seeded jitter, gives up after `MAX_ATTEMPTS`, and records
//! a per-node [`ExtractionStatus`] instead of aborting — verification then
//! proceeds over the covered subset (§4.1's extraction step, hardened).
//!
//! Failure decisions are deterministic in `(seed, node, attempt)`, so a
//! chaos run replays bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mfv_types::{ExtractionStatus, NodeId, SimDuration};
use mfv_vrouter::VirtualRouter;

use crate::gnmi::{ExtractError, Telemetry};

/// Virtual cost of one answered RPC (success or fast error).
const RPC_COST: SimDuration = SimDuration::from_millis(50);
/// Virtual cost of an RPC that runs into its client-side timeout.
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// RPC attempts per node before it is reported missing: at most 8 s of
/// timeouts and 875 ms of backoff.
const MAX_ATTEMPTS: u32 = 4;
/// First retry delay; doubles each attempt.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(100);
/// Ceiling on any single retry delay, before jitter.
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(2);

/// Simulated failure model for the management-plane RPC path.
///
/// All knobs default to off, which reproduces the original always-succeeds
/// behaviour exactly.
#[derive(Clone, Debug, Default)]
pub struct RpcFailureModel {
    /// Seed for per-attempt failure rolls and backoff jitter.
    pub seed: u64,
    /// Percent of RPCs that hit the client-side timeout (slow failure).
    pub timeout_pct: u8,
    /// Percent of RPCs that fail fast with a transient error.
    pub transient_error_pct: u8,
    /// Nodes whose RPCs always fail — extraction exhausts its retry budget.
    pub force_fail: BTreeSet<NodeId>,
    /// Nodes answering from a telemetry cache this much behind the live
    /// dataplane; their extraction succeeds but is tagged stale.
    pub stale: BTreeMap<NodeId, SimDuration>,
    /// Treat a device whose routing process is down as unreachable over the
    /// management plane too (some platforms share fate between control and
    /// management planes). Off by default: a crashed process usually leaves
    /// gNMI up, reporting `up == false` with an empty AFT.
    pub down_is_missing: bool,
}

impl RpcFailureModel {
    pub fn is_noop(&self) -> bool {
        self.timeout_pct == 0
            && self.transient_error_pct == 0
            && self.force_fail.is_empty()
            && self.stale.is_empty()
            && !self.down_is_missing
    }
}

/// Capped exponential backoff with seeded jitter: after attempt `k`
/// (1-based), wait `min(BASE_BACKOFF << (k-1), MAX_BACKOFF)` plus up to 25%
/// jitter. The Subscribe watcher draws its resubscribe delays here too, so
/// the two degradation paths share one delay schedule.
pub(crate) fn backoff_delay(attempt: u32, rng: &mut ChaCha8Rng) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(16);
    let base = BASE_BACKOFF
        .as_millis()
        .saturating_mul(1u64 << exp)
        .min(MAX_BACKOFF.as_millis());
    let jitter = if base > 0 {
        rng.gen_range(0..=base / 4)
    } else {
        0
    };
    SimDuration::from_millis(base + jitter)
}

/// Retrying, degrading AFT collector.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    pub failures: RpcFailureModel,
}

impl Collector {
    pub fn with_failures(failures: RpcFailureModel) -> Collector {
        Collector { failures }
    }

    /// Collects telemetry from every node, retrying failures with capped
    /// exponential backoff. Never fails as a whole: nodes that cannot be
    /// extracted are reported [`ExtractionStatus::Missing`] and skipped.
    pub fn collect<'a, I>(&self, nodes: I) -> CollectionReport
    where
        I: IntoIterator<Item = (NodeId, Option<&'a VirtualRouter>)>,
    {
        let mut telemetry = BTreeMap::new();
        let mut report = self.collect_each(nodes, Telemetry::from_router, |node, t| {
            telemetry.insert(node.clone(), t);
        });
        report.telemetry = telemetry;
        report
    }

    /// The one retry loop, one router at a time and generic over the Get:
    /// `read` runs once per node whose RPC is answered, its result goes to
    /// `sink` by value, and nothing of it is kept — the report's
    /// `telemetry` map stays empty. A sink that ingests what it is handed
    /// and lets it go holds one router's answer at a time, however many
    /// routers there are. A `read` error is not transient: the node is
    /// `Missing` without a retry, so a node is covered exactly when its
    /// answer reached `sink`.
    pub fn collect_each<'a, I, T>(
        &self,
        nodes: I,
        read: impl Fn(&VirtualRouter) -> Result<T, ExtractError>,
        mut sink: impl FnMut(&NodeId, T),
    ) -> CollectionReport
    where
        I: IntoIterator<Item = (NodeId, Option<&'a VirtualRouter>)>,
    {
        let mut status = BTreeMap::new();
        let mut attempts_total = 0u64;
        let mut retries_total = 0u64;
        let mut backoff_total = SimDuration::ZERO;
        let mut sim_elapsed = SimDuration::ZERO;
        let mut backoff_by_node = BTreeMap::new();
        let mut attempts_by_node = BTreeMap::new();
        for (node, router) in nodes {
            let (st, t, attempts, backoff, elapsed) = self.collect_node(&node, router, &read);
            attempts_total += attempts as u64;
            retries_total += attempts.saturating_sub(1) as u64;
            backoff_total = backoff_total + backoff;
            sim_elapsed = sim_elapsed + elapsed;
            backoff_by_node.insert(node.clone(), backoff);
            attempts_by_node.insert(node.clone(), attempts);
            if let Some(t) = t {
                sink(&node, t);
            }
            status.insert(node, st);
        }
        CollectionReport {
            telemetry: BTreeMap::new(),
            status,
            attempts: attempts_total,
            retries: retries_total,
            backoff_total,
            sim_elapsed,
            backoff_by_node,
            attempts_by_node,
        }
    }

    fn collect_node<T>(
        &self,
        node: &NodeId,
        router: Option<&VirtualRouter>,
        read: impl Fn(&VirtualRouter) -> Result<T, ExtractError>,
    ) -> (ExtractionStatus, Option<T>, u32, SimDuration, SimDuration) {
        let Some(router) = router else {
            return (
                ExtractionStatus::Missing("no router instance".into()),
                None,
                0,
                SimDuration::ZERO,
                SimDuration::ZERO,
            );
        };
        if self.failures.down_is_missing && !router.is_running() {
            return (
                ExtractionStatus::Missing("device down".into()),
                None,
                0,
                SimDuration::ZERO,
                SimDuration::ZERO,
            );
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.failures.seed ^ node_key(node));
        let mut elapsed = SimDuration::ZERO;
        let mut backoff_waited = SimDuration::ZERO;
        let forced = self.failures.force_fail.contains(node);
        let mut attempts = 0u32;
        let mut last_error;
        loop {
            attempts += 1;
            match self.rpc_outcome(forced, &mut rng) {
                Ok(()) => {
                    // The RPC path answered; now read the device. A read
                    // failure is not transient — don't retry.
                    return match read(router) {
                        Ok(t) => {
                            let st = match self.failures.stale.get(node) {
                                Some(age) => ExtractionStatus::Stale(*age),
                                None => ExtractionStatus::Fresh,
                            };
                            (st, Some(t), attempts, backoff_waited, elapsed)
                        }
                        Err(e) => (
                            ExtractionStatus::Missing(e.0),
                            None,
                            attempts,
                            backoff_waited,
                            elapsed,
                        ),
                    };
                }
                Err((cost, err)) => {
                    elapsed = elapsed + cost;
                    last_error = err;
                }
            }
            if attempts >= MAX_ATTEMPTS {
                return (
                    ExtractionStatus::Missing(format!(
                        "retry budget exhausted after {attempts} attempts (last: {last_error})"
                    )),
                    None,
                    attempts,
                    backoff_waited,
                    elapsed,
                );
            }
            let wait = backoff_delay(attempts, &mut rng);
            backoff_waited = backoff_waited + wait;
            elapsed = elapsed + wait;
        }
    }

    /// One simulated RPC: `Ok` on answer, `Err((virtual cost, reason))` on
    /// failure.
    fn rpc_outcome(&self, forced: bool, rng: &mut ChaCha8Rng) -> Result<(), (SimDuration, String)> {
        // Keep the rng stream aligned across nodes whether or not the roll
        // is consulted, so force-failing one node never changes another's.
        let roll = rng.gen_range(0..100u32);
        if forced {
            return Err((RPC_TIMEOUT, "rpc timeout (forced)".into()));
        }
        if roll < self.failures.timeout_pct as u32 {
            return Err((RPC_TIMEOUT, "rpc timeout".into()));
        }
        if roll < (self.failures.timeout_pct + self.failures.transient_error_pct) as u32 {
            return Err((RPC_COST, "transient rpc error".into()));
        }
        Ok(())
    }
}

/// Outcome of one collection sweep.
#[derive(Clone, Debug)]
pub struct CollectionReport {
    /// State trees of the nodes that answered (fresh or stale); empty when
    /// [`Collector::collect_each`] handed them to a sink instead.
    pub telemetry: BTreeMap<NodeId, Telemetry>,
    /// Per-node extraction status, for every node attempted.
    pub status: BTreeMap<NodeId, ExtractionStatus>,
    /// Total RPC attempts across all nodes (retries included).
    pub attempts: u64,
    /// Attempts beyond the first, per node, summed (the retry tally).
    pub retries: u64,
    /// Total virtual time spent in backoff waits across all nodes.
    pub backoff_total: SimDuration,
    /// Total virtual time the sweep consumed (failed-RPC costs + backoff
    /// waits, summed over nodes; a clean sweep is `ZERO`).
    pub sim_elapsed: SimDuration,
    /// Per-node share of `backoff_total` — the audit trail for an exhausted
    /// retry budget: a node's waits must sum to exactly this.
    pub backoff_by_node: BTreeMap<NodeId, SimDuration>,
    /// Per-node attempt counts (retries included).
    pub attempts_by_node: BTreeMap<NodeId, u32>,
}

impl CollectionReport {
    /// Fraction of attempted nodes with some extracted state (fresh or
    /// stale). `1.0` for an empty node set.
    pub fn coverage(&self) -> f64 {
        if self.status.is_empty() {
            return 1.0;
        }
        let covered = self.status.values().filter(|s| s.is_covered()).count();
        covered as f64 / self.status.len() as f64
    }

    /// Nodes with no extracted state.
    pub fn missing(&self) -> Vec<&NodeId> {
        self.status
            .iter()
            .filter(|(_, s)| !s.is_covered())
            .map(|(n, _)| n)
            .collect()
    }

    /// Flushes the sweep's tallies into an observability snapshot under
    /// `mgmt.*` names. Everything recorded here is seed-deterministic.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        let m = &mut obs.metrics;
        m.inc("mgmt.rpc.attempts", self.attempts);
        m.inc("mgmt.rpc.retries", self.retries);
        m.inc("mgmt.rpc.backoff_ms", self.backoff_total.as_millis());
        m.inc("mgmt.rpc.elapsed_ms", self.sim_elapsed.as_millis());
        let (mut fresh, mut stale, mut missing) = (0u64, 0u64, 0u64);
        for s in self.status.values() {
            match s {
                ExtractionStatus::Fresh => fresh += 1,
                ExtractionStatus::Stale(_) => stale += 1,
                ExtractionStatus::Missing(_) => missing += 1,
            }
        }
        m.inc("mgmt.nodes.fresh", fresh);
        m.inc("mgmt.nodes.stale", stale);
        m.inc("mgmt.nodes.missing", missing);
    }
}

/// Stable per-node key for seeding: FNV-1a over the node name, so failure
/// schedules don't depend on iteration order. Shared with the Subscribe
/// watcher so per-node fault streams stay decorrelated there too.
pub(crate) fn node_key(node: &NodeId) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in node.0.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_types::{AsNum, SimTime};
    use mfv_vrouter::VendorProfile;
    use std::net::Ipv4Addr;

    fn router(name: &str) -> VirtualRouter {
        let spec = RouterSpec::new(name, AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .network("2.2.2.1/32".parse().unwrap());
        let mut r = VirtualRouter::new(name.into(), VendorProfile::ceos(), spec.build());
        let _ = r.poll(SimTime(100));
        r
    }

    #[test]
    fn noop_model_extracts_everything_fresh() {
        let r1 = router("r1");
        let r2 = router("r2");
        let c = Collector::default();
        let report = c.collect(vec![
            (NodeId::from("r1"), Some(&r1)),
            (NodeId::from("r2"), Some(&r2)),
        ]);
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.telemetry.len(), 2);
        assert!(report.status.values().all(|s| s.is_fresh()));
        assert_eq!(report.attempts, 2);
    }

    #[test]
    fn forced_failure_exhausts_budget_and_degrades() {
        let r1 = router("r1");
        let r2 = router("r2");
        let mut failures = RpcFailureModel::default();
        failures.force_fail.insert("r1".into());
        let c = Collector::with_failures(failures);
        let report = c.collect(vec![
            (NodeId::from("r1"), Some(&r1)),
            (NodeId::from("r2"), Some(&r2)),
        ]);
        assert_eq!(report.coverage(), 0.5);
        assert!(!report.telemetry.contains_key(&NodeId::from("r1")));
        assert!(report.telemetry.contains_key(&NodeId::from("r2")));
        match &report.status[&NodeId::from("r1")] {
            ExtractionStatus::Missing(reason) => {
                assert!(reason.contains("attempts"), "{reason}");
            }
            other => panic!("expected Missing, got {other:?}"),
        }
        assert_eq!(report.missing(), vec![&NodeId::from("r1")]);
    }

    #[test]
    fn collect_each_hands_over_every_tree_and_keeps_none() {
        let r1 = router("r1");
        let r2 = router("r2");
        let mut failures = RpcFailureModel::default();
        failures.force_fail.insert("r1".into());
        let mut seen = Vec::new();
        let report = Collector::with_failures(failures).collect_each(
            vec![
                (NodeId::from("r1"), Some(&r1)),
                (NodeId::from("r2"), Some(&r2)),
            ],
            Telemetry::from_router,
            |node, tree| seen.push((node.clone(), tree.is_up())),
        );
        assert_eq!(seen, vec![(NodeId::from("r2"), true)]);
        assert!(report.telemetry.is_empty());
        assert_eq!(report.coverage(), 0.5);
        assert_eq!(report.attempts_by_node[&NodeId::from("r1")], 4);
    }

    #[test]
    fn transient_errors_are_retried_through() {
        let r1 = router("r1");
        // 30% transient errors: with 4 attempts per node the chance of a
        // node failing outright is ~1%, and the seed below is chosen to
        // succeed. The point is that retries absorb transient noise.
        let failures = RpcFailureModel {
            transient_error_pct: 30,
            seed: 7,
            ..Default::default()
        };
        let c = Collector::with_failures(failures);
        let report = c.collect(vec![(NodeId::from("r1"), Some(&r1))]);
        assert_eq!(report.coverage(), 1.0);
    }

    #[test]
    fn stale_nodes_tagged_with_age() {
        let r1 = router("r1");
        let mut failures = RpcFailureModel::default();
        failures
            .stale
            .insert("r1".into(), SimDuration::from_secs(45));
        let c = Collector::with_failures(failures);
        let report = c.collect(vec![(NodeId::from("r1"), Some(&r1))]);
        assert_eq!(
            report.status[&NodeId::from("r1")],
            ExtractionStatus::Stale(SimDuration::from_secs(45))
        );
        assert_eq!(report.coverage(), 1.0); // stale still counts as covered
    }

    #[test]
    fn missing_router_instance_is_missing() {
        let c = Collector::default();
        let report = c.collect(vec![(NodeId::from("ghost"), None)]);
        assert_eq!(report.coverage(), 0.0);
        assert_eq!(
            report.status[&NodeId::from("ghost")],
            ExtractionStatus::Missing("no router instance".into())
        );
    }

    #[test]
    fn collection_is_deterministic_in_seed() {
        let r1 = router("r1");
        let r2 = router("r2");
        let failures = RpcFailureModel {
            timeout_pct: 20,
            transient_error_pct: 20,
            seed: 42,
            ..Default::default()
        };
        let run = || {
            let c = Collector::with_failures(failures.clone());
            let rep = c.collect(vec![
                (NodeId::from("r1"), Some(&r1)),
                (NodeId::from("r2"), Some(&r2)),
            ]);
            (rep.status.clone(), rep.attempts)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_is_capped() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Attempt 10 would be base << 9 = 51.2s uncapped; must clamp to
        // MAX_BACKOFF plus jitter.
        let d = backoff_delay(10, &mut rng);
        let cap = MAX_BACKOFF.as_millis();
        assert!((cap..=cap + cap / 4).contains(&d.as_millis()), "{d}");
        // And grows monotonically in expectation early on: attempt 1 < cap.
        let d1 = backoff_delay(1, &mut rng);
        assert!(d1.as_millis() < cap);
    }

    /// The retry budget is the collector's only deadline: a node that never
    /// answers costs exactly `MAX_ATTEMPTS` timeouts and the waits between
    /// them, every one accounted for.
    #[test]
    fn deadline_exhaustion_saturates_backoff_with_exact_accounting() {
        let r1 = router("r1");
        let node = NodeId::from("r1");
        let mut failures = RpcFailureModel {
            seed: 11,
            ..Default::default()
        };
        failures.force_fail.insert(node.clone());
        let c = Collector::with_failures(failures);
        let report = c.collect(vec![(node.clone(), Some(&r1))]);

        // Exit was the attempt budget.
        match &report.status[&node] {
            ExtractionStatus::Missing(reason) => {
                assert!(reason.contains("retry budget exhausted"), "{reason}");
            }
            other => panic!("expected Missing, got {other:?}"),
        }
        let attempts = report.attempts_by_node[&node];
        assert_eq!(attempts, MAX_ATTEMPTS);

        // Reconstruct the exact wait sequence the collector drew: one
        // failure roll per attempt and one backoff between attempts, same
        // seeded stream.
        let mut rng = ChaCha8Rng::seed_from_u64(c.failures.seed ^ node_key(&node));
        let mut waits = Vec::new();
        for k in 1..attempts {
            let _roll = rng.gen_range(0..100u32);
            waits.push(backoff_delay(k, &mut rng));
        }
        // Each wait doubles the last one's base, within its 25% jitter band.
        for (k, w) in (1..).zip(&waits) {
            let base = BASE_BACKOFF.as_millis() << (k - 1);
            let band = base..=base + base / 4;
            assert!(band.contains(&w.as_millis()), "wait {k}: {w}");
        }

        // Accounting is exact: backoff per node sums the drawn waits, and
        // elapsed is attempts * RPC_TIMEOUT (every forced failure is a
        // timeout) plus all backoff waited.
        let backoff: SimDuration = waits.iter().fold(SimDuration::ZERO, |acc, w| acc + *w);
        assert_eq!(report.backoff_by_node[&node], backoff);
        assert_eq!(report.backoff_total, backoff);
        assert_eq!(
            report.sim_elapsed,
            RPC_TIMEOUT.saturating_mul(attempts as u64) + backoff
        );

        // And the whole exhaustion replays bit-for-bit.
        let replay = c.collect(vec![(node.clone(), Some(&r1))]);
        assert_eq!(replay.status, report.status);
        assert_eq!(replay.attempts_by_node, report.attempts_by_node);
        assert_eq!(replay.backoff_by_node, report.backoff_by_node);
        assert_eq!(replay.sim_elapsed, report.sim_elapsed);
    }

    #[test]
    fn down_is_missing_gate() {
        let mut r1 = router("r1");
        r1.inject_crash("test");
        let _ = r1.poll(SimTime(200));
        assert!(!r1.is_running());

        // Default: a down device still answers (up=false in telemetry).
        let report = Collector::default().collect(vec![(NodeId::from("r1"), Some(&r1))]);
        assert!(report.status[&NodeId::from("r1")].is_covered());

        // Opt-in fate sharing: down device is unreachable over gNMI too.
        let failures = RpcFailureModel {
            down_is_missing: true,
            ..Default::default()
        };
        let report =
            Collector::with_failures(failures).collect(vec![(NodeId::from("r1"), Some(&r1))]);
        assert_eq!(
            report.status[&NodeId::from("r1")],
            ExtractionStatus::Missing("device down".into())
        );
    }
}
