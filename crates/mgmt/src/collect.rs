//! A resilient gNMI collector: retries, backoff, and graceful degradation.
//!
//! The naive extraction path assumes every Get succeeds on the first try.
//! Real management planes time out, return transient errors, and serve
//! cached state. This module models that RPC path ([`RpcFailureModel`]) and
//! wraps extraction in a [`Collector`] that retries with capped exponential
//! backoff plus seeded jitter, gives up at a per-node deadline, and records
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

use crate::gnmi::Telemetry;

/// Virtual cost of one answered RPC (success or fast error).
const RPC_COST: SimDuration = SimDuration::from_millis(50);
/// Virtual cost of an RPC that runs into its client-side timeout.
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(2);

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

/// Retry policy for the collector.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Attempts per node before giving up.
    pub max_attempts: u32,
    /// First retry delay; doubles each attempt.
    pub base_backoff: SimDuration,
    /// Ceiling on any single retry delay.
    pub max_backoff: SimDuration,
    /// Total virtual time budget per node (RPC costs + backoffs).
    pub per_node_deadline: SimDuration,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_secs(2),
            per_node_deadline: SimDuration::from_secs(10),
        }
    }
}

impl CollectorConfig {
    /// Capped exponential backoff with seeded jitter: after attempt `k`
    /// (1-based), wait `min(base << (k-1), max)` plus up to 25% jitter.
    ///
    /// Lives on the config (not the [`Collector`]) so the Subscribe watcher
    /// can reuse the exact same delay schedule for resubscribe attempts.
    pub fn backoff_delay(&self, attempt: u32, rng: &mut ChaCha8Rng) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self
            .base_backoff
            .as_millis()
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff.as_millis());
        let jitter = if base > 0 {
            rng.gen_range(0..=base / 4)
        } else {
            0
        };
        SimDuration::from_millis(base + jitter)
    }
}

/// Retrying, degrading AFT collector.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    pub config: CollectorConfig,
    pub failures: RpcFailureModel,
}

impl Collector {
    pub fn with_failures(failures: RpcFailureModel) -> Collector {
        Collector {
            config: CollectorConfig::default(),
            failures,
        }
    }

    /// Collects telemetry from every node, retrying failures with capped
    /// exponential backoff. Never fails as a whole: nodes that cannot be
    /// extracted are reported [`ExtractionStatus::Missing`] and skipped.
    pub fn collect<'a, I>(&self, nodes: I) -> CollectionReport
    where
        I: IntoIterator<Item = (NodeId, Option<&'a VirtualRouter>)>,
    {
        let mut telemetry = BTreeMap::new();
        let mut report = self.collect_each(nodes, |node, t| {
            telemetry.insert(node.clone(), t);
        });
        report.telemetry = telemetry;
        report
    }

    /// [`collect`](Self::collect), one router at a time: each answered
    /// state tree goes to `sink` by value as soon as its RPC returns, and
    /// nothing of it is kept — the report's `telemetry` map stays empty. A
    /// sink that ingests the tree and lets it go holds one router's tree at
    /// a time, however many routers there are.
    pub fn collect_each<'a, I>(
        &self,
        nodes: I,
        mut sink: impl FnMut(&NodeId, Telemetry),
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
            let (st, t, attempts, backoff, elapsed) = self.collect_node(&node, router);
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

    fn collect_node(
        &self,
        node: &NodeId,
        router: Option<&VirtualRouter>,
    ) -> (
        ExtractionStatus,
        Option<Telemetry>,
        u32,
        SimDuration,
        SimDuration,
    ) {
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
                    // The RPC path answered; now capture the state tree. A
                    // serialisation failure is not transient — don't retry.
                    return match Telemetry::from_router(router) {
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
            if attempts >= self.config.max_attempts {
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
            let wait = self.backoff_delay(attempts, &mut rng);
            backoff_waited = backoff_waited + wait;
            elapsed = elapsed + wait;
            if elapsed >= self.config.per_node_deadline {
                return (
                    ExtractionStatus::Missing(format!(
                        "per-node deadline {} exceeded after {attempts} attempts (last: {last_error})",
                        self.config.per_node_deadline
                    )),
                    None,
                    attempts,
                    backoff_waited,
                    elapsed,
                );
            }
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

    /// Capped exponential backoff, delegated to the shared policy on
    /// [`CollectorConfig::backoff_delay`].
    fn backoff_delay(&self, attempt: u32, rng: &mut ChaCha8Rng) -> SimDuration {
        self.config.backoff_delay(attempt, rng)
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
    /// Per-node share of `backoff_total` — the audit trail for deadline
    /// exhaustion: a node's waits must sum to exactly this.
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
            |node, tree: Telemetry| seen.push((node.clone(), tree.is_up())),
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
        let c = Collector::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Attempt 10 would be base << 9 = 51.2s uncapped; must clamp to
        // max_backoff plus jitter.
        let d = c.backoff_delay(10, &mut rng);
        let cap = c.config.max_backoff.as_millis();
        assert!(d.as_millis() <= cap + cap / 4, "{d}");
        // And grows monotonically in expectation early on: attempt 1 < cap.
        let d1 = c.backoff_delay(1, &mut rng);
        assert!(d1.as_millis() < cap);
    }

    #[test]
    fn deadline_exhaustion_saturates_backoff_with_exact_accounting() {
        let r1 = router("r1");
        let node = NodeId::from("r1");
        let mut failures = RpcFailureModel {
            seed: 11,
            ..Default::default()
        };
        failures.force_fail.insert(node.clone());
        // Retry budget effectively unbounded: the only way out is the
        // per-node deadline, long after backoff has hit its ceiling.
        let config = CollectorConfig {
            max_attempts: 100,
            base_backoff: SimDuration::from_millis(100),
            max_backoff: SimDuration::from_millis(400),
            per_node_deadline: SimDuration::from_secs(20),
        };
        let c = Collector {
            config: config.clone(),
            failures,
        };
        let report = c.collect(vec![(node.clone(), Some(&r1))]);

        // Exit was the deadline, not the attempt budget.
        match &report.status[&node] {
            ExtractionStatus::Missing(reason) => {
                assert!(reason.contains("per-node deadline"), "{reason}");
            }
            other => panic!("expected Missing, got {other:?}"),
        }
        let attempts = report.attempts_by_node[&node];
        assert!(
            attempts >= 5,
            "expected saturation, got {attempts} attempts"
        );
        assert!(attempts < config.max_attempts);

        // Reconstruct the exact wait sequence the collector drew: one
        // failure roll then one backoff per attempt, same seeded stream.
        let mut rng = ChaCha8Rng::seed_from_u64(c.failures.seed ^ node_key(&node));
        let mut waits = Vec::new();
        for k in 1..=attempts {
            let _roll = rng.gen_range(0..100u32);
            waits.push(config.backoff_delay(k, &mut rng));
        }
        let cap = config.max_backoff.as_millis();
        for (i, w) in waits.iter().enumerate() {
            assert!(w.as_millis() <= cap + cap / 4, "wait {i}: {w}");
        }
        // From the third attempt on the exponential base exceeds the cap,
        // so every subsequent wait sits in the saturated band [max, 1.25*max].
        for w in waits.iter().skip(2) {
            assert!(w.as_millis() >= cap, "unsaturated late wait {w}");
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
        assert!(report.sim_elapsed >= config.per_node_deadline);

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
