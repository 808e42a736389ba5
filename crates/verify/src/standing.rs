//! Standing queries: invariants verified continuously against a stream of
//! dataplane snapshots.
//!
//! A one-shot query answers once and forgets; continuous verification
//! keeps a set of invariants *standing* and reports only when a verdict
//! changes. A standing query is the one-shot query re-asked: every
//! evaluation builds a [`ForwardingAnalysis`] and answers with the same
//! three batch queries `mfvctl run` uses ([`unreachable_pairs_with`],
//! [`detect_loops_with`], [`detect_blackholes_with`]). Two things keep that
//! cheap:
//!
//! - **Shared classes.** Every analysis is built through one [`ClassCache`],
//!   so a node whose FIB digest is unchanged reuses its effective classes
//!   and only nodes whose AFTs actually changed pay class computation. The
//!   cache's hit/miss counters ([`StandingQueries::cache_stats`]) let a
//!   test prove that a single-node resync invalidates that node alone.
//! - **Unchanged inputs.** The queries read each node's FIB digest,
//!   liveness and addresses, and the links. When all of those equal the
//!   previous evaluation's, the previous answers stand and the class index
//!   is never built; [`StandingQueries::pair_stats`] counts the work units
//!   computed and carried over.
//!
//! Verdicts carry the coverage caveats of the snapshot they were computed
//! from: while a telemetry stream is degraded, the verdict does not
//! silently claim authority over nodes it cannot see.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use mfv_dataplane::Dataplane;
use mfv_types::{LinkId, NodeId, SimTime};

use crate::coverage::Coverage;
use crate::graph::{ClassCache, ForwardingAnalysis};
use crate::queries::{detect_blackholes_with, detect_loops_with, unreachable_pairs_with};

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

/// Everything the three queries read of a snapshot: per node its FIB
/// digest, liveness and addresses, and the links in the order the class
/// index reads them.
#[derive(PartialEq, Eq)]
struct Inputs {
    nodes: BTreeMap<NodeId, (u64, bool, BTreeSet<Ipv4Addr>)>,
    links: Vec<LinkId>,
}

impl Inputs {
    fn of(fa: &ForwardingAnalysis, links: &[LinkId]) -> Inputs {
        Inputs {
            nodes: fa
                .nodes()
                .iter()
                .map(|(name, n)| (name.clone(), (n.fib_digest, n.up, n.addresses.clone())))
                .collect(),
            links: links.to_vec(),
        }
    }
}

/// `(holds, detail)` of each query, in [`QUERIES`] order.
type Answers = [(bool, String); 3];

const QUERIES: [&str; 3] = ["reachability", "loop_freedom", "blackhole_freedom"];

/// The three batch queries over one analysis.
fn answer(fa: &ForwardingAnalysis) -> Answers {
    let pairs = unreachable_pairs_with(fa);
    let reach = match pairs.first() {
        None => {
            let n = fa.nodes().len();
            format!(
                "all {} covered node pairs reachable",
                n * n.saturating_sub(1)
            )
        }
        Some(first) => format!(
            "{} unreachable pair(s) (first: {} -> {})",
            pairs.len(),
            first.src,
            first.dst_node
        ),
    };
    let loops = detect_loops_with(fa);
    let looping = match loops.first() {
        None => "no forwarding loops".to_string(),
        Some(first) => format!(
            "{} looping class(es) (first: from {} at {})",
            loops.len(),
            first.src,
            first.at
        ),
    };
    let holes = detect_blackholes_with(fa);
    let holing = match holes.first() {
        None => "no black holes toward owned addresses".to_string(),
        Some(first) => format!(
            "{} black-hole class(es) (first: from {} dropped at {})",
            holes.len(),
            first.src,
            first.dropped_at
        ),
    };
    [
        (pairs.is_empty(), reach),
        (loops.is_empty(), looping),
        (holes.is_empty(), holing),
    ]
}

/// The standing invariants of the continuous-verification loop:
/// full-mesh reachability, loop freedom, and black-hole freedom.
#[derive(Default)]
pub struct StandingQueries {
    cache: ClassCache,
    verdicts: BTreeMap<&'static str, Verdict>,
    evaluations: u64,
    updates: u64,
    /// The previous evaluation's inputs and answers.
    last: Option<(Inputs, Answers)>,
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

    /// `(computed, carried over)` work units over this instance's
    /// lifetime. One unit is a (src, dst) reachability pair or a
    /// per-source loop/black-hole walk, so one evaluation of N nodes is
    /// N(N-1) + 2N units: computed when some input changed, carried over
    /// when the snapshot's inputs equal the previous evaluation's.
    pub fn pair_stats(&self) -> (u64, u64) {
        (self.pair_evaluations, self.pair_reuses)
    }

    /// Current verdict per query, if evaluated at least once.
    pub fn verdicts(&self) -> &BTreeMap<&'static str, Verdict> {
        &self.verdicts
    }

    /// Re-evaluates every standing query against `dp` and returns the
    /// verdicts that changed. Classes for unchanged nodes come from the
    /// shared cache; if nothing the queries read changed, the previous
    /// answers stand under the current coverage caveats.
    pub fn evaluate(
        &mut self,
        at: SimTime,
        dp: &Dataplane,
        coverage: &Coverage,
    ) -> Vec<VerdictUpdate> {
        self.evaluations += 1;
        let fa = ForwardingAnalysis::with_cache(dp, &self.cache);
        let inputs = Inputs::of(&fa, &dp.links);
        let n = fa.nodes().len() as u64;
        let units = n * (n + 1);
        let answers = match self.last.take() {
            Some((prev, answers)) if prev == inputs => {
                self.pair_reuses += units;
                answers
            }
            _ => {
                self.pair_evaluations += units;
                answer(&fa)
            }
        };
        let caveats = coverage.caveats();
        let mut out = Vec::new();
        for (query, (holds, detail)) in QUERIES.into_iter().zip(&answers) {
            let verdict = Verdict {
                holds: *holds,
                detail: detail.clone(),
                caveats: caveats.clone(),
            };
            self.consider(at, query, verdict, &mut out);
        }
        self.last = Some((inputs, answers));
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

    /// A standing evaluation is one full pass of the batch queries or
    /// none: a quiet tick carries every unit over, and a one-node change
    /// costs exactly one full pass, N(N-1) pairs plus 2N walks.
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

        // Quiet tick: everything carries over, nothing is computed.
        sq.evaluate(SimTime(2_000), &dp, &cov);
        assert_eq!(sq.pair_stats(), (full, full));

        // One end node loses a route: one full pass, no more.
        let mut broken = line_dp_n(N);
        if let Some(node) = broken.nodes.get_mut(&NodeId::from("r00")) {
            node.entries.clear();
        }
        let updates = sq.evaluate(SimTime(3_000), &broken, &cov);
        assert!(updates.iter().any(|u| !u.verdict.holds));
        assert_eq!(sq.pair_stats(), (2 * full, full));
        // And the verdict matches a from-scratch evaluation.
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(3_000), &broken, &cov);
        assert_eq!(sq.verdicts(), fresh.verdicts());
    }

    /// Cutting a link must trigger a recomputation even though no node's
    /// FIB digest changed.
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
