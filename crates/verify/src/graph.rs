//! Symbolic forwarding analysis over a dataplane snapshot.
//!
//! The engine reasons about *sets of destination addresses* (packet
//! classes): each node's FIB partitions the destination space by its
//! longest-prefix-match structure, each partition follows its next hops,
//! and every packet ends in exactly one [`Disposition`]. Because classes
//! are exact [`IpSet`]s, a query covers **all 2³² destinations at once** —
//! the exhaustive-search property that distinguishes verification from
//! probing (§3: "identifying specific routes that do not satisfy a desired
//! invariant or concluding no such routes exist").
//!
//! All propagation happens once per analysis, inside the class index
//! (`crate::index`); every query here is a lookup into it.

#[expect(
    clippy::disallowed_types,
    reason = "D1: HashMap here backs a digest-keyed cache that is only probed, never iterated"
)]
use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mfv_dataplane::Dataplane;
use mfv_routing::rib::FibEntry;
use mfv_types::{IfaceId, IpSet, LinkId, NodeId, PrefixTrie};

use crate::index::{ClassIndex, IndexStats};

/// The fate of a packet class.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Disposition {
    /// Delivered: the destination address is owned by this node.
    Accepted(NodeId),
    /// Dropped: no FIB entry matched at this node.
    NoRoute(NodeId),
    /// Dropped: matched a null/discard route at this node.
    NullRoute(NodeId),
    /// Left the modelled network via an interface with no attached link
    /// (e.g. toward an external peer) at this node.
    ExitsNetwork(NodeId),
    /// Dropped: the node was down (crashed/unbooted) when encountered.
    NodeDown(NodeId),
    /// Forwarding loop detected (the node that was revisited).
    Loop(NodeId),
    /// Equal-cost branches disagree about the fate of this class.
    EcmpDivergent(NodeId),
}

impl Disposition {
    /// Is this packet class successfully delivered?
    pub fn is_delivered(&self) -> bool {
        matches!(self, Disposition::Accepted(_))
    }

    /// The node where the fate was decided.
    pub fn node(&self) -> &NodeId {
        match self {
            Disposition::Accepted(n)
            | Disposition::NoRoute(n)
            | Disposition::NullRoute(n)
            | Disposition::ExitsNetwork(n)
            | Disposition::NodeDown(n)
            | Disposition::Loop(n)
            | Disposition::EcmpDivergent(n) => n,
        }
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Disposition::Accepted(n) => write!(f, "accepted at {n}"),
            Disposition::NoRoute(n) => write!(f, "no route at {n}"),
            Disposition::NullRoute(n) => write!(f, "null-routed at {n}"),
            Disposition::ExitsNetwork(n) => write!(f, "exits network at {n}"),
            Disposition::NodeDown(n) => write!(f, "dropped at down node {n}"),
            Disposition::Loop(n) => write!(f, "loops at {n}"),
            Disposition::EcmpDivergent(n) => write!(f, "ecmp-divergent at {n}"),
        }
    }
}

/// One hop of a single-packet trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceHop {
    pub node: NodeId,
    /// The egress interface taken (absent on the final hop).
    pub egress: Option<IfaceId>,
}

/// Result of a single-packet traceroute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    pub hops: Vec<TraceHop>,
    pub disposition: Disposition,
}

/// The hop listing `mfvctl trace` and the server's `TRACE` both print: one
/// numbered line per hop, then `=> <fate>` (no trailing newline).
impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, hop) in self.hops.iter().enumerate() {
            match &hop.egress {
                Some(e) => writeln!(f, "{:>2}  {} (out {e})", i + 1, hop.node)?,
                None => writeln!(f, "{:>2}  {}", i + 1, hop.node)?,
            }
        }
        write!(f, "=> {}", self.disposition)
    }
}

/// Effective match classes derived from one FIB — the shareable unit of
/// the class cache.
pub struct NodeClasses {
    /// Disjoint effective match classes: (class, entry) where `class` is
    /// exactly the set of destinations this entry forwards (its prefix
    /// minus all more-specific prefixes in the same FIB). Destinations in
    /// no class have no route.
    pub classes: Vec<(IpSet, FibEntry)>,
}

/// Cross-snapshot cache of per-FIB effective classes, keyed by
/// [`mfv_dataplane::NodeDataplane::fib_digest`].
///
/// What-if sweeps analyse hundreds of variant dataplanes that differ from
/// the baseline at only a few nodes; sharing the unchanged nodes' classes
/// makes re-analysis cost proportional to the *changed* nodes rather than
/// the whole network. Thread-safe, so one cache can back a parallel sweep.
#[derive(Default)]
pub struct ClassCache {
    #[expect(
        clippy::disallowed_types,
        reason = "D1: probed by digest only; iteration order never observed"
    )]
    by_digest: Mutex<HashMap<u64, Arc<NodeClasses>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ClassCache {
    pub fn new() -> ClassCache {
        ClassCache::default()
    }

    /// `(hits, misses)` over the cache's lifetime. A sweep that reuses the
    /// baseline's classes for unchanged nodes shows up as a high hit count.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::SeqCst),
            self.misses.load(Ordering::SeqCst),
        )
    }

    fn classes_for(&self, digest: u64, entries: &[FibEntry]) -> Arc<NodeClasses> {
        // Poisoning cannot corrupt the cache (insertions are atomic via the
        // entry API), so recover the guard instead of propagating a panic
        // from an unrelated worker thread into this sweep.
        if let Some(hit) = self
            .by_digest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&digest)
        {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Arc::clone(hit);
        }
        // Build outside the lock: class computation is the expensive part,
        // and a rare duplicate build is cheaper than serialising all misses.
        let built = Arc::new(effective_classes(entries));
        self.misses.fetch_add(1, Ordering::SeqCst);
        self.by_digest
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(digest)
            .or_insert(built)
            .clone()
    }
}

/// What an analysis keeps of one dataplane node.
pub struct NodeView {
    /// Shared with every analysis that saw the same FIB through one
    /// [`ClassCache`].
    pub classes: Arc<NodeClasses>,
    /// Addresses the node owns (packets to these are *accepted*).
    pub addresses: BTreeSet<Ipv4Addr>,
    /// A node that is not up drops everything and consults nothing.
    pub up: bool,
    /// [`mfv_dataplane::NodeDataplane::fib_digest`] of the FIB `classes`
    /// were derived from: the cache key, and part of what the standing
    /// queries compare between snapshots.
    pub fib_digest: u64,
}

/// A disposition partition of some scope: disjoint packet classes, each
/// with the fate packets in it meet, in disposition order.
pub type DispositionRows = Vec<(IpSet, Disposition)>;

/// The analysis context: per-node match classes, addresses and liveness,
/// the links between them, and the forwarding-equivalence-class index
/// built from those on first use.
pub struct ForwardingAnalysis {
    nodes: BTreeMap<NodeId, NodeView>,
    links: Vec<LinkId>,
    /// Built once, by whichever query arrives first; immutable after, so
    /// any number of threads read it without synchronisation.
    index: OnceLock<ClassIndex>,
    /// Queries answered from the index. `SeqCst`: a cross-thread total
    /// that lands in deterministic dumps.
    lookups: AtomicUsize,
    /// Classes computed locally (not served by a [`ClassCache`]).
    classes_built: usize,
}

fn effective_classes(entries: &[FibEntry]) -> NodeClasses {
    // One slot per prefix: a repeated prefix keeps its last entry, as
    // `Fib::insert` does. LPM holes are exactly the topmost more-specific
    // prefixes present in the same FIB; the trie walk finds them directly
    // instead of scanning all prefix pairs.
    let mut trie = PrefixTrie::new();
    for e in entries {
        trie.insert(e.prefix, e);
    }
    let mut classes = Vec::with_capacity(trie.len());
    for (prefix, e) in trie.iter() {
        let mut eff = IpSet::from_prefix(&prefix);
        for hole in trie.max_descendants(&prefix) {
            eff = eff.subtract(&IpSet::from_prefix(&hole));
        }
        if !eff.is_empty() {
            classes.push((eff, (*e).clone()));
        }
    }
    NodeClasses { classes }
}

impl ForwardingAnalysis {
    pub fn new(dp: &Dataplane) -> ForwardingAnalysis {
        Self::build(dp, None)
    }

    /// Like [`ForwardingAnalysis::new`], but reuses effective classes from
    /// `cache` for any node whose FIB digest has been seen before.
    pub fn with_cache(dp: &Dataplane, cache: &ClassCache) -> ForwardingAnalysis {
        Self::build(dp, Some(cache))
    }

    fn build(dp: &Dataplane, cache: Option<&ClassCache>) -> ForwardingAnalysis {
        let mut nodes = BTreeMap::new();
        let mut classes_built = 0usize;
        for (name, node) in &dp.nodes {
            let fib_digest = node.fib_digest();
            let classes = match cache {
                Some(c) => c.classes_for(fib_digest, &node.entries),
                None => {
                    classes_built += 1;
                    Arc::new(effective_classes(&node.entries))
                }
            };
            nodes.insert(
                name.clone(),
                NodeView {
                    classes,
                    addresses: node.addresses.clone(),
                    up: node.up,
                    fib_digest,
                },
            );
        }
        ForwardingAnalysis {
            nodes,
            links: dp.links.clone(),
            index: OnceLock::new(),
            lookups: AtomicUsize::new(0),
            classes_built,
        }
    }

    /// The class index, built on first use. Threads that arrive during
    /// the build wait for it; every later call is a plain read.
    fn index(&self) -> &ClassIndex {
        self.index
            .get_or_init(|| ClassIndex::build(&self.nodes, &self.links))
    }

    /// The class index, counting one query answered from it.
    pub(crate) fn lookup(&self) -> &ClassIndex {
        self.lookups.fetch_add(1, Ordering::SeqCst);
        self.index()
    }

    /// Forces the index build (a no-op once built) and returns the number
    /// of packet classes it answers for: the rows of every entry node's
    /// full-destination-space partition.
    pub fn warm(&self) -> usize {
        self.index().partition_rows()
    }

    /// The class index's shape (all zero until something builds it) and
    /// the number of queries answered from it.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            lookups: self.lookups.load(Ordering::SeqCst),
            ..self.index.get().map(ClassIndex::stats).unwrap_or_default()
        }
    }

    /// `(lookups answered from the built index, class fates computed)`.
    pub fn memo_stats(&self) -> (usize, usize) {
        let stats = self.index_stats();
        (stats.lookups, stats.fates_computed)
    }

    /// Flushes this analysis' counters into `obs`. Pass the [`ClassCache`]
    /// backing the sweep (if any) to fold its hit/miss totals in too.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs, cache: Option<&ClassCache>) {
        let m = &mut obs.metrics;
        m.inc("verify.classes.built", self.classes_built as u64);
        let stats = self.index_stats();
        m.inc("verify.index.atoms", stats.atoms as u64);
        m.inc("verify.index.classes", stats.classes as u64);
        m.inc("verify.index.cyclic_classes", stats.cyclic_classes as u64);
        m.inc("verify.index.fates_computed", stats.fates_computed as u64);
        m.inc("verify.index.lookups", stats.lookups as u64);
        if let Some(index) = self.index.get() {
            obs.wall.add_phase("verify.index.build", index.build_micros);
        }
        if let Some(c) = cache {
            let (ch, cm) = c.stats();
            m.inc("verify.classes.cache_hits", ch as u64);
            m.inc("verify.classes.cache_misses", cm as u64);
        }
    }

    /// Every dataplane node the analysis was built over, by name.
    pub fn nodes(&self) -> &BTreeMap<NodeId, NodeView> {
        &self.nodes
    }

    pub fn node_names(&self) -> Vec<NodeId> {
        self.nodes.keys().cloned().collect()
    }

    /// Exhaustively computes the fate of every destination in `dst`, for
    /// packets entering the network at `from`: the node's partition of
    /// the full destination space, restricted to `dst`.
    pub fn dispositions_from(&self, from: &NodeId, dst: &IpSet) -> DispositionRows {
        self.lookup().rows(from, dst)
    }

    /// Point query: the fate of one packet `(from, dst)` — a binary
    /// search for the address's class, then one table read.
    pub fn fate_of(&self, from: &NodeId, dst: Ipv4Addr) -> Disposition {
        self.lookup().fate_of(from, dst)
    }

    /// Single-packet trace with full hop recording (ECMP: first next hop,
    /// as a hashing dataplane would pick deterministically for one flow):
    /// a first-branch walk over the address's class in the index.
    pub fn trace(&self, from: &NodeId, dst: Ipv4Addr) -> Trace {
        self.lookup().trace(&self.nodes, from, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_routing::rib::{Fib, FibNextHop};
    use mfv_types::{Prefix, RouteProtocol};

    fn entry(prefix: &str, iface: &str, via: Option<&str>) -> FibEntry {
        FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: via.map(|v| v.parse().unwrap()),
            }]
            .into(),
        }
    }

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// r1 -- r2 -- r3 line where loopbacks 2.2.2.{1,2,3} are routed hop by
    /// hop.
    fn line_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mk_fib = |entries: Vec<FibEntry>| {
            let mut f = Fib::new();
            for e in entries {
                f.insert(e);
            }
            f
        };
        dp.add_node(
            "r1".into(),
            &mk_fib(vec![
                entry("2.2.2.2/32", "e0", Some("10.0.12.2")),
                entry("2.2.2.3/32", "e0", Some("10.0.12.2")),
            ]),
            BTreeSet::from([addr("2.2.2.1"), addr("10.0.12.1")]),
            true,
        );
        dp.add_node(
            "r2".into(),
            &mk_fib(vec![
                entry("2.2.2.1/32", "e0", Some("10.0.12.1")),
                entry("2.2.2.3/32", "e1", Some("10.0.23.3")),
            ]),
            BTreeSet::from([addr("2.2.2.2"), addr("10.0.12.2"), addr("10.0.23.2")]),
            true,
        );
        dp.add_node(
            "r3".into(),
            &mk_fib(vec![
                entry("2.2.2.1/32", "e0", Some("10.0.23.2")),
                entry("2.2.2.2/32", "e0", Some("10.0.23.2")),
            ]),
            BTreeSet::from([addr("2.2.2.3"), addr("10.0.23.3")]),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r2".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        dp
    }

    #[test]
    fn transit_delivery_and_trace() {
        let fa = ForwardingAnalysis::new(&line_dp());
        let trace = fa.trace(&"r1".into(), addr("2.2.2.3"));
        assert_eq!(trace.disposition, Disposition::Accepted("r3".into()));
        let nodes: Vec<String> = trace.hops.iter().map(|h| h.node.to_string()).collect();
        assert_eq!(nodes, vec!["r1", "r2", "r3"]);
        assert_eq!(
            trace.to_string(),
            " 1  r1 (out e0)\n 2  r2 (out e1)\n 3  r3\n=> accepted at r3"
        );
    }

    #[test]
    fn exhaustive_dispositions_partition_full_space() {
        let fa = ForwardingAnalysis::new(&line_dp());
        let rows = fa.dispositions_from(&"r1".into(), &IpSet::full());
        let total: u64 = rows.iter().map(|(s, _)| s.count()).sum();
        assert_eq!(
            total,
            1u64 << 32,
            "every destination classified exactly once"
        );
        // 2.2.2.3 delivered at r3; unknown space NoRoute at r1.
        let accepted_r3 = rows
            .iter()
            .find(|(_, d)| *d == Disposition::Accepted("r3".into()))
            .unwrap();
        assert!(accepted_r3.0.contains(addr("2.2.2.3")));
        let noroute = rows
            .iter()
            .find(|(_, d)| *d == Disposition::NoRoute("r1".into()))
            .unwrap();
        assert!(noroute.0.contains(addr("8.8.8.8")));
    }

    #[test]
    fn loop_detected() {
        // r1 and r2 point 9.9.9.9/32 at each other.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("9.9.9.9/32", "e0", None));
        let mut f2 = Fib::new();
        f2.insert(entry("9.9.9.9/32", "e0", None));
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node("r2".into(), &f2, BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let trace = fa.trace(&"r1".into(), addr("9.9.9.9"));
        assert!(matches!(trace.disposition, Disposition::Loop(_)));
        let rows = fa.dispositions_from(&"r1".into(), &IpSet::single(addr("9.9.9.9")));
        assert!(matches!(rows[0].1, Disposition::Loop(_)));
    }

    #[test]
    fn null_route_and_exit() {
        let mut dp = Dataplane::new();
        let mut f = Fib::new();
        f.insert(FibEntry {
            prefix: "192.0.2.0/24".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: vec![].into(),
        });
        f.insert(entry("198.51.100.0/24", "uplink", Some("100.64.0.1")));
        dp.add_node("r1".into(), &f, BTreeSet::new(), true);
        let fa = ForwardingAnalysis::new(&dp);
        assert_eq!(
            fa.trace(&"r1".into(), addr("192.0.2.5")).disposition,
            Disposition::NullRoute("r1".into())
        );
        assert_eq!(
            fa.trace(&"r1".into(), addr("198.51.100.5")).disposition,
            Disposition::ExitsNetwork("r1".into())
        );
    }

    #[test]
    fn down_node_drops() {
        let mut dp = line_dp();
        dp.nodes.get_mut(&NodeId::from("r2")).unwrap().up = false;
        let fa = ForwardingAnalysis::new(&dp);
        let trace = fa.trace(&"r1".into(), addr("2.2.2.3"));
        assert_eq!(trace.disposition, Disposition::NodeDown("r2".into()));
    }

    #[test]
    fn lpm_partition_respects_specificity() {
        // A /8 toward r2 with a /24 hole toward discard.
        let mut dp = Dataplane::new();
        let mut f = Fib::new();
        f.insert(entry("10.0.0.0/8", "e0", None));
        f.insert(FibEntry {
            prefix: "10.5.5.0/24".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: vec![].into(),
        });
        dp.add_node("r1".into(), &f, BTreeSet::new(), true);
        dp.add_node(
            "r2".into(),
            &Fib::new(),
            BTreeSet::from([addr("10.1.1.1")]),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let rows = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"10.0.0.0/8".parse::<Prefix>().unwrap()),
        );
        let nulled = rows
            .iter()
            .find(|(_, d)| *d == Disposition::NullRoute("r1".into()))
            .unwrap();
        assert_eq!(nulled.0.count(), 256);
        assert!(nulled.0.contains(addr("10.5.5.99")));
        let accepted = rows
            .iter()
            .find(|(_, d)| *d == Disposition::Accepted("r2".into()))
            .unwrap();
        assert!(accepted.0.contains(addr("10.1.1.1")));
    }

    #[test]
    fn ecmp_divergence_flagged() {
        // r1 splits 9.9.9.0/24 across two branches: r2 accepts, r3 has no
        // route → divergent.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(FibEntry {
            prefix: "9.9.9.0/24".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![
                FibNextHop {
                    iface: "e0".into(),
                    via: None,
                },
                FibNextHop {
                    iface: "e1".into(),
                    via: None,
                },
            ]
            .into(),
        });
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node(
            "r2".into(),
            &Fib::new(),
            (0..256).map(|i| Ipv4Addr::new(9, 9, 9, i as u8)).collect(),
            true,
        );
        dp.add_node("r3".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r1".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let rows = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"9.9.9.0/24".parse::<Prefix>().unwrap()),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Disposition::EcmpDivergent("r1".into()));
    }

    #[test]
    fn ecmp_agreement_is_transparent() {
        // Both branches deliver to nodes owning the same... instead: both
        // branches NoRoute → class reported NoRoute, not divergent.
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(FibEntry {
            prefix: "9.9.9.0/24".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![
                FibNextHop {
                    iface: "e0".into(),
                    via: None,
                },
                FibNextHop {
                    iface: "e1".into(),
                    via: None,
                },
            ]
            .into(),
        });
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node("r2".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_node("r3".into(), &Fib::new(), BTreeSet::new(), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp.add_link(LinkId::new(
            ("r1".into(), "e1".into()),
            ("r3".into(), "e0".into()),
        ));
        let fa = ForwardingAnalysis::new(&dp);
        let rows = fa.dispositions_from(
            &"r1".into(),
            &IpSet::from_prefix(&"9.9.9.0/24".parse::<Prefix>().unwrap()),
        );
        assert!(rows
            .iter()
            .all(|(_, d)| matches!(d, Disposition::NoRoute(_))));
    }
    /// `trace` and `fate_of` read the same class; they can only differ
    /// where a node has several next hops and `trace` follows the first.
    #[test]
    fn trace_agrees_with_fate_of_without_ecmp() {
        let mut looping = line_dp();
        for (name, iface) in [("r1", "e0"), ("r2", "e0")] {
            let node = looping.nodes.get_mut(&NodeId::from(name)).unwrap();
            node.entries.push(entry("9.9.9.9/32", iface, None));
        }
        let mut down = line_dp();
        down.nodes.get_mut(&NodeId::from("r3")).unwrap().up = false;
        let mut dropping = line_dp();
        let r2 = dropping.nodes.get_mut(&NodeId::from("r2")).unwrap();
        r2.entries.push(FibEntry {
            prefix: "2.2.2.3/32".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: vec![].into(),
        });
        r2.entries.push(entry("198.51.100.0/24", "uplink", None));
        for dp in [line_dp(), looping, down, dropping] {
            let fa = ForwardingAnalysis::new(&dp);
            for src in fa.node_names() {
                for dst in ["2.2.2.1", "2.2.2.3", "9.9.9.9", "198.51.100.7", "8.8.8.8"] {
                    let trace = fa.trace(&src, addr(dst));
                    assert_eq!(trace.disposition, fa.fate_of(&src, addr(dst)));
                    assert_eq!(&trace.hops[0].node, &src);
                    let last = trace.hops.last().unwrap();
                    assert_eq!(&last.node, trace.disposition.node());
                }
            }
        }
    }

    #[test]
    fn repeated_prefix_keeps_its_last_entry() {
        let mut dp = line_dp();
        let r1 = dp.nodes.get_mut(&NodeId::from("r1")).unwrap();
        r1.entries = vec![
            entry("2.2.2.3/32", "e0", None),
            entry("2.2.2.2/32", "e0", None),
            FibEntry {
                prefix: "2.2.2.3/32".parse().unwrap(),
                proto: RouteProtocol::Static,
                next_hops: vec![].into(),
            },
        ];
        let want = effective_classes(&r1.fib().entries().cloned().collect::<Vec<_>>());
        let got = effective_classes(&r1.entries);
        assert_eq!(got.classes, want.classes);
        assert_eq!(got.classes.len(), 2);
        let fa = ForwardingAnalysis::new(&dp);
        assert_eq!(
            fa.trace(&"r1".into(), addr("2.2.2.3")).disposition,
            Disposition::NullRoute("r1".into())
        );
    }

    #[test]
    fn analyses_through_one_cache_share_every_node_classes() {
        let dp = line_dp();
        let cache = ClassCache::new();
        let first = ForwardingAnalysis::with_cache(&dp, &cache);
        let second = ForwardingAnalysis::with_cache(&dp, &cache);
        assert_eq!(cache.stats(), (3, 3));
        assert_eq!(second.classes_built, 0);
        for (name, node) in first.nodes() {
            assert!(Arc::ptr_eq(&node.classes, &second.nodes()[name].classes));
            assert_eq!(Arc::strong_count(&node.classes), 3, "cache + two analyses");
        }
    }
}
