//! Standing queries: invariants verified continuously, re-evaluated
//! incrementally.
//!
//! A one-shot query answers once and forgets; continuous verification
//! keeps a set of invariants *standing* against a stream of dataplane
//! snapshots and reports only when a verdict changes. Re-evaluation is
//! incremental at two levels:
//!
//! - **Class level:** every evaluation rebuilds its [`ForwardingAnalysis`]
//!   through one shared [`ClassCache`], so a node whose FIB digest is
//!   unchanged reuses its effective classes and only nodes whose AFTs
//!   actually changed pay class computation. The cache's hit/miss counters
//!   are exposed ([`StandingQueries::cache_stats`]) precisely so a test
//!   can prove that a single-node resync invalidates that node alone.
//!
//! - **Pair level:** each (src, dst) reachability pair and each per-source
//!   loop/black-hole walk keeps its last answer together with the
//!   dependency set it was derived from ([`crate::graph::DepSet`]).
//!   On the next tick the layer diffs per-node `(fib digest, up,
//!   addresses)` keys plus the link set, and re-evaluates only the pairs
//!   whose dependencies intersect the changed nodes. A quiet tick does
//!   zero pair work; a single changed node re-evaluates the pairs whose
//!   propagation crosses it — work proportional to what changed, not N².
//!   The [`StandingQueries::pair_stats`] counters make the sub-quadratic
//!   claim testable.
//!
//! Verdicts carry the coverage caveats of the snapshot they were computed
//! from: while a telemetry stream is degraded, the verdict does not
//! silently claim authority over nodes it cannot see.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use mfv_dataplane::Dataplane;
use mfv_types::{IpSet, LinkId, NodeId, SimTime};

use crate::coverage::Coverage;
use crate::graph::{ClassCache, DepSet, ForwardingAnalysis};
use crate::queries::{
    blackholes_from_with_deps, loops_from_with_deps, owned_address_scope, reachability_with_deps,
    BlackHoleFinding, LoopFinding, ReachabilityReport,
};

/// The state of one standing invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// Does the invariant hold over the covered part of the network?
    pub holds: bool,
    /// Deterministic one-line summary of the findings.
    pub detail: String,
    /// Coverage qualifications: non-empty means the verdict does not
    /// speak for the whole network.
    pub caveats: Vec<String>,
}

/// A verdict transition: emitted only when `(holds, detail, caveats)`
/// changed since the previous evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerdictUpdate {
    pub at: SimTime,
    pub query: &'static str,
    pub verdict: Verdict,
}

impl std::fmt::Display for VerdictUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={}ms {} holds={} caveats={} — {}",
            self.at.0,
            self.query,
            self.verdict.holds,
            self.verdict.caveats.len(),
            self.verdict.detail,
        )
    }
}

/// Per-node change-detection key: a pair's cached answer survives a tick
/// only if no dependency's key changed (and no link was added/removed on a
/// dependency).
#[derive(Clone, PartialEq, Eq)]
struct NodeKey {
    digest: u64,
    up: bool,
    addresses: BTreeSet<Ipv4Addr>,
}

/// What [`StandingQueries::changed_nodes`] saw in one snapshot: the nodes
/// that differ from the previous evaluation, and the keys and links the
/// next evaluation diffs against.
struct Observed {
    changed: BTreeSet<NodeId>,
    node_keys: BTreeMap<NodeId, NodeKey>,
    links: BTreeSet<LinkId>,
}

/// Cached answer for one (src, dst) reachability pair.
struct PairState {
    deps: DepSet,
    /// `Some` iff the pair was not fully reachable at last evaluation.
    failed: Option<ReachabilityReport>,
}

/// Cached per-source answer for a loop or black-hole walk.
struct SrcState<T> {
    deps: DepSet,
    findings: Vec<T>,
}

/// The standing invariants of the continuous-verification loop:
/// full-mesh reachability, loop freedom, and black-hole freedom.
#[derive(Default)]
pub struct StandingQueries {
    cache: ClassCache,
    verdicts: BTreeMap<&'static str, Verdict>,
    evaluations: u64,
    updates: u64,
    /// Change-detection keys from the previous evaluation.
    node_keys: BTreeMap<NodeId, NodeKey>,
    links: BTreeSet<LinkId>,
    /// Pair-level verdict state, keyed by the class of traffic it speaks
    /// for: (entry node, destination node) for reachability, entry node
    /// for the full-space loop walk and the owned-scope black-hole walk.
    pairs: BTreeMap<(NodeId, NodeId), PairState>,
    loop_srcs: BTreeMap<NodeId, SrcState<LoopFinding>>,
    hole_srcs: BTreeMap<NodeId, SrcState<BlackHoleFinding>>,
    /// The owned-address scope the black-hole states were computed over; a
    /// scope change invalidates all of them at once.
    hole_scope: Option<IpSet>,
    pair_evaluations: u64,
    pair_reuses: u64,
}

impl StandingQueries {
    pub fn new() -> StandingQueries {
        StandingQueries::default()
    }

    /// `(hits, misses)` of the shared class cache — the proof surface for
    /// single-node invalidation: after a content-preserving resync, hits
    /// grow and misses do not.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.cache.stats()
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// `(evaluated, reused)` pair-level work units over this instance's
    /// lifetime. One unit is a (src, dst) reachability pair or a
    /// per-source loop/black-hole walk. A quiet tick adds only reuses;
    /// this is the counter that proves re-evaluation work is proportional
    /// to changed nodes, not N².
    pub fn pair_stats(&self) -> (u64, u64) {
        (self.pair_evaluations, self.pair_reuses)
    }

    /// Current verdict per query, if evaluated at least once.
    pub fn verdicts(&self) -> &BTreeMap<&'static str, Verdict> {
        &self.verdicts
    }

    /// The nodes whose observable state differs from the previous
    /// evaluation: changed FIB digest, liveness, or addresses; present on
    /// an added/removed link; or added/removed entirely.
    fn changed_nodes(&self, fa: &ForwardingAnalysis, links: &[LinkId]) -> Observed {
        let mut keys = BTreeMap::new();
        for (name, node) in fa.nodes() {
            keys.insert(
                name.clone(),
                NodeKey {
                    digest: node.fib_digest,
                    up: node.up,
                    addresses: node.addresses.clone(),
                },
            );
        }
        let mut changed = BTreeSet::new();
        for (name, key) in &keys {
            if self.node_keys.get(name) != Some(key) {
                changed.insert(name.clone());
            }
        }
        for name in self.node_keys.keys() {
            if !keys.contains_key(name) {
                changed.insert(name.clone());
            }
        }
        let links: BTreeSet<LinkId> = links.iter().cloned().collect();
        for link in links.symmetric_difference(&self.links) {
            changed.insert(link.a.0.clone());
            changed.insert(link.b.0.clone());
        }
        Observed {
            changed,
            node_keys: keys,
            links,
        }
    }

    /// Re-evaluates every standing query against `dp` and returns the
    /// verdicts that changed. Classes for unchanged nodes come from the
    /// shared cache, and pairs/walks whose dependency sets avoid every
    /// changed node reuse their previous answer outright — re-analysis
    /// cost is proportional to what changed.
    pub fn evaluate(
        &mut self,
        at: SimTime,
        dp: &Dataplane,
        coverage: &Coverage,
    ) -> Vec<VerdictUpdate> {
        self.evaluations += 1;
        let fa = ForwardingAnalysis::with_cache(dp, &self.cache);
        let caveats = coverage.caveats();
        let mut out = Vec::new();

        // On the first evaluation `node_keys` is empty, so every node
        // diffs as changed and everything below computes from scratch.
        let Observed {
            changed,
            node_keys,
            links,
        } = self.changed_nodes(&fa, &dp.links);
        let dirty = |deps: &DepSet, extra: &NodeId| -> bool {
            changed.contains(extra) || deps.intersection(&changed).next().is_some()
        };

        let nodes = fa.node_names();
        let node_set: BTreeSet<NodeId> = nodes.iter().cloned().collect();
        // Drop cached state for nodes that left the snapshot.
        self.pairs
            .retain(|(s, d), _| node_set.contains(s) && node_set.contains(d));
        self.loop_srcs.retain(|s, _| node_set.contains(s));
        self.hole_srcs.retain(|s, _| node_set.contains(s));

        let mut pairs = Vec::new();
        for src in &nodes {
            for dst in &nodes {
                if src == dst {
                    continue;
                }
                let key = (src.clone(), dst.clone());
                let reusable = self.pairs.get(&key).is_some_and(|st| !dirty(&st.deps, dst));
                if reusable {
                    self.pair_reuses += 1;
                } else {
                    self.pair_evaluations += 1;
                    let (report, deps) = reachability_with_deps(&fa, src, dst);
                    let failed = (!report.fully_reachable()).then_some(report);
                    self.pairs.insert(key.clone(), PairState { deps, failed });
                }
                if let Some(st) = self.pairs.get(&key) {
                    if let Some(report) = &st.failed {
                        pairs.push(report.clone());
                    }
                }
            }
        }
        let detail = match pairs.first() {
            None => format!("all {} covered node pairs reachable", {
                let n = dp.nodes.len();
                n * n.saturating_sub(1)
            }),
            Some(first) => format!(
                "{} unreachable pair(s) (first: {} -> {})",
                pairs.len(),
                first.src,
                first.dst_node
            ),
        };
        self.consider(
            at,
            "reachability",
            Verdict {
                holds: pairs.is_empty(),
                detail,
                caveats: caveats.clone(),
            },
            &mut out,
        );

        let mut loops = Vec::new();
        for src in &nodes {
            let reusable = self
                .loop_srcs
                .get(src)
                .is_some_and(|st| !dirty(&st.deps, src));
            if reusable {
                self.pair_reuses += 1;
            } else {
                self.pair_evaluations += 1;
                let (findings, deps) = loops_from_with_deps(&fa, src);
                self.loop_srcs
                    .insert(src.clone(), SrcState { deps, findings });
            }
            if let Some(st) = self.loop_srcs.get(src) {
                loops.extend(st.findings.iter().cloned());
            }
        }
        let detail = match loops.first() {
            None => "no forwarding loops".to_string(),
            Some(first) => format!(
                "{} looping class(es) (first: from {} at {})",
                loops.len(),
                first.src,
                first.at
            ),
        };
        self.consider(
            at,
            "loop_freedom",
            Verdict {
                holds: loops.is_empty(),
                detail,
                caveats: caveats.clone(),
            },
            &mut out,
        );

        // The black-hole scope is derived from every up node's addresses;
        // if it moved, no per-source answer can be trusted.
        let owned = owned_address_scope(&fa);
        if self.hole_scope.as_ref() != Some(&owned) {
            self.hole_srcs.clear();
            self.hole_scope = Some(owned.clone());
        }
        let mut holes = Vec::new();
        for src in &nodes {
            let reusable = self
                .hole_srcs
                .get(src)
                .is_some_and(|st| !dirty(&st.deps, src));
            if reusable {
                self.pair_reuses += 1;
            } else {
                self.pair_evaluations += 1;
                let (findings, deps) = blackholes_from_with_deps(&fa, src, &owned);
                self.hole_srcs
                    .insert(src.clone(), SrcState { deps, findings });
            }
            if let Some(st) = self.hole_srcs.get(src) {
                holes.extend(st.findings.iter().cloned());
            }
        }
        let detail = match holes.first() {
            None => "no black holes toward owned addresses".to_string(),
            Some(first) => format!(
                "{} black-hole class(es) (first: from {} dropped at {})",
                holes.len(),
                first.src,
                first.dropped_at
            ),
        };
        self.consider(
            at,
            "blackhole_freedom",
            Verdict {
                holds: holes.is_empty(),
                detail,
                caveats,
            },
            &mut out,
        );

        self.node_keys = node_keys;
        self.links = links;
        out
    }

    fn consider(
        &mut self,
        at: SimTime,
        query: &'static str,
        verdict: Verdict,
        out: &mut Vec<VerdictUpdate>,
    ) {
        if self.verdicts.get(query) == Some(&verdict) {
            return;
        }
        self.verdicts.insert(query, verdict.clone());
        self.updates += 1;
        out.push(VerdictUpdate { at, query, verdict });
    }

    /// Flushes counters into `obs` under `verify.standing.*`. Everything
    /// here is derived from dataplane state only, so it is byte-stable
    /// across same-seed runs.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        let m = &mut obs.metrics;
        m.inc("verify.standing.evaluations", self.evaluations);
        m.inc("verify.standing.updates", self.updates);
        m.inc("verify.standing.pair_evaluations", self.pair_evaluations);
        m.inc("verify.standing.pair_reuses", self.pair_reuses);
        let (hits, misses) = self.cache.stats();
        m.inc("verify.standing.class_cache_hits", hits as u64);
        m.inc("verify.standing.class_cache_misses", misses as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
    use mfv_types::{ExtractionStatus, LinkId, NodeId, RouteProtocol};
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn entry(prefix: &str, iface: &str) -> FibEntry {
        FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: None,
            }]
            .into(),
        }
    }

    fn pair_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("2.2.2.2/32", "e0"));
        let mut f2 = Fib::new();
        f2.insert(entry("2.2.2.1/32", "e0"));
        dp.add_node("r1".into(), &f1, BTreeSet::from([addr("2.2.2.1")]), true);
        dp.add_node("r2".into(), &f2, BTreeSet::from([addr("2.2.2.2")]), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp
    }

    fn full_cov() -> Coverage {
        Coverage::from_status(
            &[
                ("r1", ExtractionStatus::Fresh),
                ("r2", ExtractionStatus::Fresh),
            ]
            .into_iter()
            .map(|(n, s)| (NodeId::from(n), s))
            .collect(),
        )
    }

    #[test]
    fn first_evaluation_emits_then_settles() {
        let mut sq = StandingQueries::new();
        let dp = pair_dp();
        let cov = full_cov();
        let updates = sq.evaluate(SimTime(1_000), &dp, &cov);
        assert_eq!(updates.len(), 3, "{updates:?}");
        assert!(updates.iter().all(|u| u.verdict.holds));
        // Unchanged snapshot: no transitions, classes all cache-hit.
        let (h0, m0) = sq.cache_stats();
        assert_eq!(m0, 2);
        let updates = sq.evaluate(SimTime(2_000), &dp, &cov);
        assert!(updates.is_empty());
        let (h1, m1) = sq.cache_stats();
        assert_eq!(m1, m0, "no new class builds for an unchanged snapshot");
        assert_eq!(h1, h0 + 2);
    }

    #[test]
    fn single_node_change_invalidates_one_class_entry() {
        let mut sq = StandingQueries::new();
        let cov = full_cov();
        let dp = pair_dp();
        sq.evaluate(SimTime(1_000), &dp, &cov);
        let (_, m0) = sq.cache_stats();

        // r1 loses its route: r1's digest changes, r2's does not.
        let mut broken = pair_dp();
        if let Some(n) = broken.nodes.get_mut(&NodeId::from("r1")) {
            n.entries.clear();
        }
        let updates = sq.evaluate(SimTime(2_000), &broken, &cov);
        let (_, m1) = sq.cache_stats();
        assert_eq!(m1, m0 + 1, "exactly the changed node rebuilt its classes");
        // Reachability and blackhole-freedom flip; loop freedom holds.
        let reach = updates.iter().find(|u| u.query == "reachability").unwrap();
        assert!(!reach.verdict.holds);
        assert!(reach.verdict.detail.contains("r1 -> r2"), "{reach:?}");
        assert!(updates.iter().all(|u| u.query != "loop_freedom"));
    }

    #[test]
    fn coverage_caveats_flip_verdicts() {
        let mut sq = StandingQueries::new();
        let dp = pair_dp();
        sq.evaluate(SimTime(1_000), &dp, &full_cov());
        // Same dataplane, degraded coverage: the caveat change alone is a
        // verdict transition.
        let degraded = Coverage::from_status(
            &[
                ("r1", ExtractionStatus::Fresh),
                ("r2", ExtractionStatus::Missing("stream down".into())),
            ]
            .into_iter()
            .map(|(n, s)| (NodeId::from(n), s))
            .collect(),
        );
        let updates = sq.evaluate(SimTime(2_000), &dp, &degraded);
        assert_eq!(updates.len(), 3);
        assert!(updates.iter().all(|u| !u.verdict.caveats.is_empty()));
        // Recovery: caveats clear, another transition.
        let updates = sq.evaluate(SimTime(3_000), &dp, &full_cov());
        assert_eq!(updates.len(), 3);
        assert!(updates.iter().all(|u| u.verdict.caveats.is_empty()));
    }

    /// A line of `n` routers where every loopback is routed hop by hop:
    /// node i owns 10.0.i.1 and routes every other loopback left or right.
    fn line_dp_n(n: usize) -> Dataplane {
        let mut dp = Dataplane::new();
        for i in 0..n {
            let mut fib = Fib::new();
            for j in 0..n {
                if i == j {
                    continue;
                }
                let iface = if j < i { "left" } else { "right" };
                fib.insert(entry(&format!("10.0.{j}.1/32"), iface));
            }
            dp.add_node(
                NodeId::from(format!("r{i:02}").as_str()),
                &fib,
                BTreeSet::from([Ipv4Addr::new(10, 0, i as u8, 1)]),
                true,
            );
        }
        for i in 0..n.saturating_sub(1) {
            dp.add_link(LinkId::new(
                (NodeId::from(format!("r{i:02}").as_str()), "right".into()),
                (
                    NodeId::from(format!("r{:02}", i + 1).as_str()),
                    "left".into(),
                ),
            ));
        }
        dp
    }

    fn line_cov(n: usize) -> Coverage {
        Coverage::from_status(
            &(0..n)
                .map(|i| {
                    (
                        NodeId::from(format!("r{i:02}").as_str()),
                        ExtractionStatus::Fresh,
                    )
                })
                .collect(),
        )
    }

    /// The tentpole claim: re-evaluation work per tick is proportional to
    /// the changed nodes, not N². A quiet tick does zero pair work; an
    /// end-node FIB change re-evaluates O(N) pairs on an N-node line.
    #[test]
    fn pair_work_is_subquadratic_in_changes() {
        const N: usize = 12;
        let mut sq = StandingQueries::new();
        let dp = line_dp_n(N);
        let cov = line_cov(N);

        // First evaluation pays the full N(N-1) pairs + 2N walks.
        let updates = sq.evaluate(SimTime(1_000), &dp, &cov);
        assert!(updates.iter().all(|u| u.verdict.holds), "{updates:?}");
        let full = (N * (N - 1) + 2 * N) as u64;
        assert_eq!(sq.pair_stats(), (full, 0));

        // Quiet tick: everything reuses, nothing evaluates.
        sq.evaluate(SimTime(2_000), &dp, &cov);
        assert_eq!(sq.pair_stats(), (full, full));

        // One end node loses a route: only pairs and walks whose
        // dependencies cross r00 re-evaluate — O(N), far below N².
        let mut broken = line_dp_n(N);
        if let Some(node) = broken.nodes.get_mut(&NodeId::from("r00")) {
            node.entries.clear();
        }
        let updates = sq.evaluate(SimTime(3_000), &broken, &cov);
        assert!(updates.iter().any(|u| !u.verdict.holds));
        let (evals, _) = sq.pair_stats();
        let delta = evals - full;
        // Pairs touching r00 as src or dst: 2(N-1); every source's loop
        // and black-hole walk depends on r00 (the line routes everything
        // through to it): 2N. Anything near N² means incrementality broke.
        assert!(
            delta <= (4 * N) as u64,
            "expected O(N) re-evaluations, got {delta} (full pass = {full})"
        );
        // And the verdict matches a from-scratch evaluation.
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(3_000), &broken, &cov);
        assert_eq!(sq.verdicts(), fresh.verdicts());
    }

    /// Cutting a link must invalidate the pairs that routed across it even
    /// though no node's FIB digest changed.
    #[test]
    fn link_cut_invalidates_crossing_pairs() {
        const N: usize = 4;
        let mut sq = StandingQueries::new();
        let dp = line_dp_n(N);
        let cov = line_cov(N);
        sq.evaluate(SimTime(1_000), &dp, &cov);
        assert!(sq.verdicts().values().all(|v| v.holds));

        // Cut the middle link r01–r02: FIBs unchanged, reachability gone.
        let mut cut = line_dp_n(N);
        cut.links
            .retain(|l| !(l.touches(&NodeId::from("r01")) && l.touches(&NodeId::from("r02"))));
        let updates = sq.evaluate(SimTime(2_000), &cut, &cov);
        let reach = updates
            .iter()
            .find(|u| u.query == "reachability")
            .expect("link cut must flip reachability");
        assert!(!reach.verdict.holds);
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(2_000), &cut, &cov);
        assert_eq!(sq.verdicts(), fresh.verdicts());
    }

    #[test]
    fn update_lines_render_deterministically() {
        let mut sq = StandingQueries::new();
        let updates = sq.evaluate(SimTime(1_000), &pair_dp(), &full_cov());
        let lines: Vec<String> = updates.iter().map(|u| u.to_string()).collect();
        assert_eq!(
            lines[0],
            "t=1000ms reachability holds=true caveats=0 — \
             all 2 covered node pairs reachable"
        );
        assert!(
            lines[2].contains("blackhole_freedom holds=true"),
            "{lines:?}"
        );
    }
}
