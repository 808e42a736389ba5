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

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use mfv_dataplane::{Dataplane, NodeDataplane};
use mfv_routing::rib::{FibEntry, FibNextHop};
use mfv_types::{IfaceId, IpSet, LinkId, NodeId, Prefix, PrefixTrie};

use crate::index::{ClassIndex, IndexStats, Shape};

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

/// Effective match classes of one prefix layout: they depend on which
/// prefixes a FIB holds, never on where it sends them.
#[derive(Default)]
pub struct NodeClasses {
    /// The layout: the FIB's prefixes, ascending, each once.
    pub layout: Vec<Prefix>,
    /// Per prefix of `layout`, the destinations its entry forwards: the
    /// prefix minus its more-specific ones. Other destinations: no route.
    pub classes: Vec<IpSet>,
    pub(crate) digest: u64,
}

impl NodeClasses {
    fn new(layout: &[Prefix]) -> NodeClasses {
        // LPM holes are the topmost more-specific prefixes of the layout;
        // the trie walk finds them without scanning all prefix pairs.
        let mut trie = PrefixTrie::new();
        for p in layout {
            trie.insert(*p, ());
        }
        let eff = |p: &Prefix| {
            let holes = trie.max_descendants(p);
            let holes = holes.iter().map(IpSet::from_prefix);
            holes.fold(IpSet::from_prefix(p), |eff, hole| eff.subtract(&hole))
        };
        let classes = layout.iter().map(eff).collect();
        NodeClasses {
            layout: layout.to_vec(),
            classes,
            digest: layout_digest(layout),
        }
    }
}

fn layout_digest(layout: &[Prefix]) -> u64 {
    layout.iter().map(bits).fold(layout.len() as u64, fold)
}

fn bits(p: &Prefix) -> u64 {
    u64::from(p.network_bits()) << 8 | u64::from(p.len())
}

/// Folds `value` into the hash chain `h` through splitmix64's finaliser, a
/// bijection that spreads every input bit over all 64 output bits.
fn fold(h: u64, value: u64) -> u64 {
    let mut z = (h ^ value).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A FIB's entries in prefix order, one per prefix: a repeated prefix
/// keeps its last entry, as `Fib::insert` does.
fn by_prefix(entries: &[FibEntry]) -> Vec<&FibEntry> {
    let mut sorted: Vec<&FibEntry> = entries.iter().rev().collect();
    sorted.sort_by_key(|e| e.prefix);
    sorted.dedup_by_key(|e| e.prefix);
    sorted
}

/// Values by the digest of their key. A digest match is a hit only once
/// `fits` holds the value to the probe's key; a miss takes the slot.
#[derive(Default)]
pub(crate) struct Memo<V> {
    by_digest: Mutex<BTreeMap<u64, Arc<V>>>,
    /// `[hits, misses]`.
    counts: [AtomicUsize; 2],
}

impl<V> Memo<V> {
    fn stats(&self) -> (usize, usize) {
        let [hits, misses] = &self.counts;
        (hits.load(Ordering::SeqCst), misses.load(Ordering::SeqCst))
    }

    pub(crate) fn get_or_build(
        &self,
        digest: u64,
        fits: impl Fn(&V) -> bool,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        // A poisoned map is whole (insertions are atomic): recover it.
        let map = || self.by_digest.lock().unwrap_or_else(|e| e.into_inner());
        let hit = map().get(&digest).filter(|v| fits(v)).map(Arc::clone);
        let [hits, misses] = &self.counts;
        if hit.is_some() { hits } else { misses }.fetch_add(1, Ordering::SeqCst);
        hit.unwrap_or_else(|| {
            // Built unlocked: a rare duplicate beats serialised misses.
            let built = Arc::new(build());
            map().insert(digest, Arc::clone(&built));
            built
        })
    }
}

/// Cross-snapshot cache of what an analysis derives from prefixes alone:
/// node classes by prefix layout, and class index shapes by layouts, owned
/// addresses, liveness and names. A what-if cut moves next hops, rarely a
/// prefix, so a variant's index build is left its branches and fates.
/// A clone is a handle on the same cache.
#[derive(Clone, Default)]
pub struct ClassCache {
    classes: Arc<Memo<NodeClasses>>,
    shapes: Arc<Memo<Shape>>,
}

impl ClassCache {
    pub fn new() -> ClassCache {
        ClassCache::default()
    }

    /// `(hits, misses)` of node classes over the cache's lifetime.
    pub fn stats(&self) -> (usize, usize) {
        self.classes.stats()
    }

    /// `(hits, misses)` of index shapes over the cache's lifetime.
    pub fn shape_stats(&self) -> (usize, usize) {
        self.shapes.stats()
    }

    /// The effective classes of `layout`, built on its first sight.
    fn classes_for(&self, layout: &[Prefix]) -> Arc<NodeClasses> {
        let (memo, digest) = (&self.classes, layout_digest(layout));
        let fits = |c: &NodeClasses| c.layout == layout;
        memo.get_or_build(digest, fits, || NodeClasses::new(layout))
    }
}

/// What an analysis keeps of one dataplane node.
pub struct NodeView {
    /// Shared with every analysis that saw the same prefix layout through
    /// one [`ClassCache`].
    pub classes: Arc<NodeClasses>,
    /// The node's distinct next-hop sets, and each layout prefix's (an
    /// empty set: a null route).
    pub sets: Vec<Arc<[FibNextHop]>>,
    pub set_of: Vec<u32>,
    /// Addresses the node owns (packets to these are *accepted*).
    pub addresses: BTreeSet<Ipv4Addr>,
    /// A node that is not up drops everything and consults nothing.
    pub up: bool,
    /// Order-insensitive digest of the FIB: equal digests, equal FIBs. What
    /// a what-if sweep and the standing queries compare between snapshots.
    pub fib_digest: u64,
    /// The node read, for [`ForwardingAnalysis::derive`]: weak, so it keeps
    /// no entry alive, only the allocation no later node can then reuse.
    source: Weak<NodeDataplane>,
}

impl NodeView {
    /// `node` read once, its FIB's `entries` in prefix order.
    fn new(
        node: &Arc<NodeDataplane>,
        entries: &[&FibEntry],
        classes: Arc<NodeClasses>,
    ) -> NodeView {
        // A table's entries share their set's allocation: a set met among
        // the last 32 is that one (an equal one further back is kept twice).
        let (mut sets, mut set_of) = (Vec::<Arc<[FibNextHop]>>::new(), Vec::new());
        for e in entries {
            let mut recent = sets.iter().enumerate().rev().take(32);
            match recent.find(|(_, set)| Arc::ptr_eq(set, &e.next_hops)) {
                Some((held, _)) => set_of.push(held as u32),
                None => {
                    set_of.push(sets.len() as u32);
                    sets.push(Arc::clone(&e.next_hops));
                }
            }
        }
        // Each set hashed once, by value; each entry folded in, in order.
        let sip = BuildHasherDefault::<DefaultHasher>::default();
        let hashes: Vec<u64> = sets.iter().map(|set| sip.hash_one(set)).collect();
        let set_hash = |set: &u32| hashes.get(*set as usize).copied().unwrap_or(0);
        let entries = entries.iter().zip(&set_of);
        let fib_digest = entries.fold(set_of.len() as u64, |h, (e, set)| {
            let route = bits(&e.prefix) << 8 | e.proto as u64;
            fold(fold(h, route), set_hash(set))
        });
        NodeView {
            classes,
            sets,
            set_of,
            addresses: node.addresses.clone(),
            up: node.up,
            fib_digest,
            source: Arc::downgrade(node),
        }
    }
}

/// A disposition partition of some scope: disjoint packet classes, each
/// with the fate packets in it meet, in disposition order.
pub type DispositionRows = Vec<(IpSet, Disposition)>;

/// The analysis context: per-node match classes, addresses and liveness,
/// the links between them, and the forwarding-equivalence-class index
/// built from those on first use.
pub struct ForwardingAnalysis {
    /// Shared with the analyses derived from this one.
    nodes: BTreeMap<NodeId, Arc<NodeView>>,
    links: Vec<LinkId>,
    /// Built once, by whichever query arrives first; immutable after, so
    /// any number of threads read it without synchronisation.
    index: OnceLock<ClassIndex>,
    /// Queries answered from the index. `SeqCst`: a cross-thread total
    /// that lands in deterministic dumps.
    lookups: AtomicUsize,
    /// Classes computed locally (not served by a [`ClassCache`]).
    classes_built: usize,
    /// The cache the analysis was built through, if any.
    cache: Option<ClassCache>,
}

impl ForwardingAnalysis {
    pub fn new(dp: &Dataplane) -> ForwardingAnalysis {
        Self::build(dp, None, None)
    }

    /// Like [`ForwardingAnalysis::new`], but reuses from `cache` any prefix
    /// layout's classes and, for the index, any shape it has seen.
    pub fn with_cache(dp: &Dataplane, cache: &ClassCache) -> ForwardingAnalysis {
        Self::build(dp, Some(cache), None)
    }

    /// The analysis of `dp`, a snapshot derived from `parent`'s (a what-if
    /// context from its baseline, a watch tick from the last): a node that
    /// is `parent`'s own — the same shared [`NodeDataplane`] — keeps
    /// `parent`'s view, and only the others are read, through `parent`'s
    /// cache if it had one. Answers equal [`ForwardingAnalysis::new`]'s.
    pub fn derive(dp: &Dataplane, parent: &ForwardingAnalysis) -> ForwardingAnalysis {
        Self::build(dp, parent.cache.as_ref(), Some(parent))
    }

    fn build(
        dp: &Dataplane,
        cache: Option<&ClassCache>,
        parent: Option<&ForwardingAnalysis>,
    ) -> ForwardingAnalysis {
        let mut nodes = BTreeMap::new();
        let (mut classes_built, mut reused) = (0usize, 0usize);
        for (name, node) in &dp.nodes {
            let view = parent.and_then(|p| p.nodes.get(name));
            if let Some(view) = view.filter(|v| std::ptr::eq(v.source.as_ptr(), &**node)) {
                nodes.insert(name.clone(), Arc::clone(view));
                reused += 1;
                continue;
            }
            let entries = by_prefix(&node.entries);
            let layout: Vec<Prefix> = entries.iter().map(|e| e.prefix).collect();
            let classes = match cache {
                Some(c) => c.classes_for(&layout),
                None => {
                    classes_built += 1;
                    Arc::new(NodeClasses::new(&layout))
                }
            };
            let view = NodeView::new(node, &entries, classes);
            nodes.insert(name.clone(), Arc::new(view));
        }
        // A view taken from the parent is its classes taken from the cache.
        if let Some([hits, _]) = cache.map(|c| &c.classes.counts) {
            hits.fetch_add(reused, Ordering::SeqCst);
        }
        ForwardingAnalysis {
            nodes,
            links: dp.links.clone(),
            index: OnceLock::new(),
            lookups: AtomicUsize::new(0),
            classes_built,
            cache: cache.cloned(),
        }
    }

    /// The class index, built on first use. Threads that arrive during
    /// the build wait for it; every later call is a plain read.
    fn index(&self) -> &ClassIndex {
        self.index.get_or_init(|| {
            let shapes = self.cache.as_ref().map(|c| &*c.shapes);
            ClassIndex::build(&self.nodes, &self.links, shapes)
        })
    }

    /// The analysis with its index, if built, dropped: a parent to derive
    /// from holds its views and nothing else.
    pub(crate) fn without_index(mut self) -> ForwardingAnalysis {
        self.index.take();
        self
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

    /// Flushes this analysis' counters into `obs`.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
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
    }

    /// Every dataplane node the analysis was built over, by name.
    pub fn nodes(&self) -> &BTreeMap<NodeId, Arc<NodeView>> {
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
    use mfv_routing::rib::Fib;
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
        dp.node_mut(&NodeId::from("r2")).unwrap().up = false;
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
            let node = looping.node_mut(&NodeId::from(name)).unwrap();
            node.entries.push(entry("9.9.9.9/32", iface, None));
        }
        let mut down = line_dp();
        down.node_mut(&NodeId::from("r3")).unwrap().up = false;
        let mut dropping = line_dp();
        let r2 = dropping.node_mut(&NodeId::from("r2")).unwrap();
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
        let r1 = dp.node_mut(&NodeId::from("r1")).unwrap();
        r1.entries = vec![
            entry("2.2.2.3/32", "e0", None),
            entry("2.2.2.2/32", "e0", None),
            FibEntry {
                prefix: "2.2.2.3/32".parse().unwrap(),
                proto: RouteProtocol::Static,
                next_hops: vec![].into(),
            },
        ];
        let want: Vec<FibEntry> = r1.fib().entries().map(|e| e.to_entry()).collect();
        let got: Vec<FibEntry> = by_prefix(&r1.entries).into_iter().cloned().collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
        let fa = ForwardingAnalysis::new(&dp);
        assert_eq!(
            fa.trace(&"r1".into(), addr("2.2.2.3")).disposition,
            Disposition::NullRoute("r1".into())
        );
    }

    /// A node's classes and an index's shape are shared by layout, not by
    /// next hops: a second snapshot whose routes all leave by other
    /// interfaces reuses both, and its index is the fresh one.
    #[test]
    fn next_hops_that_move_reuse_the_classes_and_the_shape() {
        let dp = line_dp();
        let mut moved = line_dp();
        for node in moved.nodes.values_mut() {
            for e in &mut Arc::make_mut(node).entries {
                e.next_hops = vec![].into();
            }
        }
        let cache = ClassCache::new();
        let first = ForwardingAnalysis::with_cache(&dp, &cache);
        first.warm();
        let second = ForwardingAnalysis::with_cache(&moved, &cache);
        let fresh = ForwardingAnalysis::new(&moved);
        for (src, dst) in [("r1", "2.2.2.3"), ("r3", "2.2.2.1"), ("r2", "2.2.2.2")] {
            let dst = addr(dst);
            assert_eq!(
                second.fate_of(&src.into(), dst),
                fresh.fate_of(&src.into(), dst)
            );
        }
        assert_eq!(cache.stats(), (3, 3));
        assert_eq!(cache.shape_stats(), (1, 1));
        assert_eq!(second.index_stats().atoms, fresh.index_stats().atoms);
    }

    /// Stores `value` under `digest`, whatever key it was derived from.
    fn plant<V>(memo: &Memo<V>, digest: u64, value: V) {
        let mut map = memo.by_digest.lock().unwrap();
        map.insert(digest, Arc::new(value));
    }

    /// A digest is not a key: a node's classes or an index's shape planted
    /// under the digest of another key is never handed out for it.
    #[test]
    fn a_cache_hit_checks_the_key_not_only_its_digest() {
        let dp = line_dp();
        let r1 = &dp.nodes[&NodeId::from("r1")];
        let layout: Vec<Prefix> = by_prefix(&r1.entries).iter().map(|e| e.prefix).collect();
        let digest = layout_digest(&layout);
        let other: Vec<Prefix> = vec!["0.0.0.0/0".parse().unwrap()];
        let cache = ClassCache::new();
        plant(&cache.classes, digest, NodeClasses::new(&other));
        let fa = ForwardingAnalysis::with_cache(&dp, &cache);
        assert_eq!(fa.nodes()[&NodeId::from("r1")].classes.layout, layout);
        assert_eq!(cache.stats(), (0, 3));

        // A shape of the one-node network planted under the digest of
        // the three-node one.
        let names: Vec<&NodeId> = fa.nodes().keys().collect();
        let shape_digest = Shape::digest(&names, fa.nodes());
        let mut lone = line_dp();
        lone.nodes.retain(|name, _| name.as_str() == "r1");
        lone.links.clear();
        let alone = ForwardingAnalysis::new(&lone);
        let lone_names: Vec<&NodeId> = alone.nodes().keys().collect();
        plant(
            &cache.shapes,
            shape_digest,
            Shape::build(&lone_names, alone.nodes()),
        );
        let want = ForwardingAnalysis::new(&dp);
        assert_eq!(
            fa.trace(&"r1".into(), addr("2.2.2.3")),
            want.trace(&"r1".into(), addr("2.2.2.3"))
        );
        assert_eq!(cache.shape_stats(), (0, 1));
        assert_eq!(fa.index_stats(), want.index_stats());
    }

    #[test]
    fn analyses_through_one_cache_share_every_node_classes() {
        let dp = line_dp();
        let cache = ClassCache::new();
        let first = ForwardingAnalysis::with_cache(&dp, &cache);
        let second = ForwardingAnalysis::with_cache(&dp, &cache);
        assert_eq!(cache.stats(), (3, 3));
        assert_eq!(second.classes_built, 0);
        assert!(second.cache.is_some());
        for (name, node) in first.nodes() {
            assert!(Arc::ptr_eq(&node.classes, &second.nodes()[name].classes));
            assert_eq!(Arc::strong_count(&node.classes), 3, "cache + two analyses");
        }
    }
}
