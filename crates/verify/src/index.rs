//! The forwarding-equivalence-class index: every packet's fate from every
//! node, computed once per analysis.
//!
//! Propagation is pointwise in the destination address — what happens to
//! one address never depends on which other addresses were asked about in
//! the same query — so the whole analysis factors into three steps:
//!
//! 1. **Atoms.** Cut the destination space at every boundary of every
//!    node's effective match classes ([`crate::graph::NodeClasses`]) and
//!    at every owned address. Inside one atom every node takes one action
//!    for all addresses: drop as down, accept, no route, or forward by one
//!    entry.
//! 2. **Classes.** Atoms whose per-node action vectors are identical are
//!    the same forwarding equivalence class; merge them.
//! 3. **Fates.** Per class the actions form one next-hop graph over
//!    interned node ids. A depth-first pass memoises the fate of every
//!    node that cannot reach a cycle (a fate there is path-independent);
//!    only nodes that can reach one are walked with an explicit path
//!    stack, because `Loop(node)` names the first node a path revisits.
//!
//! Any scoped answer is then a restriction: intersect the scope with the
//! atoms and read the fate table. A single-packet trace reads the same
//! per-class actions and branches, following the first branch at each
//! hop. The index stores O(classes × nodes) words however many pairs are
//! queried.

#![expect(
    clippy::indexing_slicing,
    reason = "P1: dense tables indexed by node/atom/class ids this module interned itself; an out-of-range id is a builder bug that must fail loudly instead of degrading to a wrong verdict"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

use mfv_types::hs::IpRange;
use mfv_types::{IfaceId, IpSet, LinkId, NodeId};

use crate::graph::{Disposition, DispositionRows, Memo, NodeClasses, NodeView, Trace, TraceHop};
use crate::queries::DiffFinding;

/// Deterministic counters of an analysis' class index: its shape (all
/// zero until something builds it) and how much it has been read.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IndexStats {
    /// Destination-space intervals no FIB boundary or owned address cuts.
    pub atoms: usize,
    /// Distinct per-node action vectors among the atoms.
    pub classes: usize,
    /// Classes whose next-hop graph contains a cycle.
    pub cyclic_classes: usize,
    /// (class, node) fates in the table.
    pub fates_computed: usize,
    /// Queries answered from the table.
    pub lookups: usize,
}

// Per-(class, node) actions. Values from `FIRST_ENTRY` up select entry
// `action - FIRST_ENTRY` of the node's layout.
const DOWN: u32 = 0;
const ACCEPT: u32 = 1;
const NO_ROUTE: u32 = 2;
const FIRST_ENTRY: u32 = 3;

/// Variant order mirrors [`Disposition`], and node ids are interned in
/// `NodeId` order, so the derived ordering of [`Fate`] is the ordering of
/// the dispositions it stands for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Accepted,
    NoRoute,
    NullRoute,
    ExitsNetwork,
    NodeDown,
    Loop,
    EcmpDivergent,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fate {
    kind: Kind,
    node: u32,
}

impl Fate {
    /// Are two fates equivalent for ECMP purposes? Delivery must land at
    /// the same node; failures of the same kind are equivalent wherever
    /// they occur (flow hashing picks one branch — the *observable* fate
    /// class matters).
    fn equivalent(self, other: Fate) -> bool {
        self.kind == other.kind && (self.kind != Kind::Accepted || self.node == other.node)
    }
}

/// One equal-cost branch of a forwarding entry: the peer's id, or `None`
/// where the egress interface has no attached link.
type Branch = Option<u32>;

/// What a partition reads of a name: `None` if the dataplane lacks it,
/// `Some(None)` if it is down, else its classes and owned addresses.
type Role<C, A> = Option<Option<(C, A)>>;

type Nodes = BTreeMap<NodeId, Arc<NodeView>>;

fn role<'a>(nodes: &'a Nodes, name: &NodeId) -> Role<&'a Arc<NodeClasses>, &'a BTreeSet<Ipv4Addr>> {
    let node = nodes.get(name)?;
    Some(node.up.then_some((&node.classes, &node.addresses)))
}

/// The atoms, classes and per-node actions: a function of the names and their
/// roles, never of a next hop, so they are shared through a `ClassCache`.
#[derive(Default)]
pub(crate) struct Shape {
    /// Interned node names in `NodeId` order: the dataplane's nodes plus
    /// link endpoints it has no state for (packets sent there are dropped
    /// as at a down node).
    names: Vec<NodeId>,
    roles: Vec<Role<Arc<NodeClasses>, BTreeSet<Ipv4Addr>>>,
    /// First address of each atom, ascending from 0; atom `i` ends just
    /// before atom `i + 1` starts.
    starts: Vec<u32>,
    class_of: Vec<u32>,
    /// `actions[class * n + node]`.
    actions: Vec<u32>,
}

impl Shape {
    pub(crate) fn digest(names: &[&NodeId], nodes: &Nodes) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for name in names {
            let role = role(nodes, name).map(|up| up.map(|(c, a)| (c.digest, a)));
            (name, role).hash(&mut h);
        }
        h.finish()
    }

    /// Was this shape partitioned from what `names` and `nodes` hold?
    fn fits(&self, names: &[&NodeId], nodes: &Nodes) -> bool {
        let same = |((have, had), name): ((&NodeId, &Role<Arc<NodeClasses>, _>), &&NodeId)| {
            let had = had
                .as_ref()
                .map(|up| up.as_ref().map(|(c, a)| (&c.layout, a)));
            let role = role(nodes, name).map(|up| up.map(|(c, a)| (&c.layout, a)));
            have == *name && had == role
        };
        let stored = self.names.iter().zip(&self.roles);
        self.names.len() == names.len() && stored.zip(names).all(same)
    }

    pub(crate) fn build(names: &[&NodeId], nodes: &Nodes) -> Shape {
        let n = names.len();
        let roles: Vec<_> = names.iter().map(|name| role(nodes, name)).collect();
        // Only nodes that are up consult their FIB or addresses.
        let mut cuts = vec![0u32];
        for (classes, addresses) in roles.iter().flatten().flatten() {
            for eff in &classes.classes {
                for r in eff.ranges() {
                    cuts.push(r.lo);
                    cuts.extend(r.hi.checked_add(1));
                }
            }
            for a in *addresses {
                let a = u32::from(*a);
                cuts.push(a);
                cuts.extend(a.checked_add(1));
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let starts = cuts;
        let atoms = starts.len();

        // Partition refinement, one node at a time: two atoms stay in one
        // class while every node so far acts identically on both. Ids are
        // handed out in atom order, so numbering is deterministic.
        let mut class_of = vec![0u32; atoms];
        let mut classes = 1usize;
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(n);
        for role in &roles {
            let Some(Some((node, addresses))) = role else {
                rows.push(Vec::new());
                continue;
            };
            let row = node_actions(node, addresses, &starts);
            let mut refined: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for (class, action) in class_of.iter_mut().zip(&row) {
                let next = refined.len() as u32;
                *class = *refined.entry((*class, *action)).or_insert(next);
            }
            classes = refined.len();
            rows.push(row);
        }

        let mut first_atom = vec![usize::MAX; classes];
        for (atom, class) in class_of.iter().enumerate().rev() {
            first_atom[*class as usize] = atom;
        }
        let mut actions = Vec::with_capacity(classes * n);
        for atom in &first_atom {
            actions.extend(
                rows.iter()
                    .map(|row| row.get(*atom).copied().unwrap_or(DOWN)),
            );
        }
        let owned =
            |up: Option<(&Arc<_>, &BTreeSet<_>)>| up.map(|(c, a)| (Arc::clone(c), a.clone()));
        Shape {
            names: names.iter().map(|name| (*name).clone()).collect(),
            roles: roles.into_iter().map(|role| role.map(owned)).collect(),
            starts,
            class_of,
            actions,
        }
    }
}

/// Where each forwarding entry sends packets: entry `e` of node `v`
/// branches to `hops[spans[v][e].0..spans[v][e].1]`.
struct Branches {
    spans: Vec<Vec<(u32, u32)>>,
    hops: Vec<Branch>,
}

impl Branches {
    /// Resolves each up node's next-hop sets once each, through its ports.
    fn resolve(shape: &Shape, nodes: &Nodes, links: &[LinkId]) -> Branches {
        let id_of = |name: &NodeId| shape.names.binary_search(name).ok();
        // `Dataplane::peer_of` answers with the first link naming the
        // endpoint, so the first link naming a port wins here too.
        let mut ports: Vec<Vec<(&IfaceId, u32)>> = vec![Vec::new(); shape.names.len()];
        for l in links {
            for (end, other) in [(&l.a, &l.b), (&l.b, &l.a)] {
                if let (Some(v), Some(peer)) = (id_of(&end.0), id_of(&other.0)) {
                    if ports[v].iter().all(|(iface, _)| *iface != &end.1) {
                        ports[v].push((&end.1, peer as u32));
                    }
                }
            }
        }
        let (mut spans, mut hops) = (Vec::new(), Vec::new());
        for ((name, ports), role) in shape.names.iter().zip(&ports).zip(&shape.roles) {
            let Some(node) = nodes.get(name).filter(|_| matches!(role, Some(Some(_)))) else {
                spans.push(Vec::new());
                continue;
            };
            let mut set_spans = Vec::with_capacity(node.sets.len());
            for set in &node.sets {
                let start = hops.len() as u32;
                hops.extend(set.iter().map(|nh| {
                    let port = ports.iter().find(|(iface, _)| **iface == nh.iface);
                    port.map(|(_, peer)| *peer)
                }));
                set_spans.push((start, hops.len() as u32));
            }
            let entry_spans = node.set_of.iter().map(|set| set_spans[*set as usize]);
            spans.push(entry_spans.collect());
        }
        Branches { spans, hops }
    }

    fn of(&self, v: usize, entry: u32) -> &[Branch] {
        let (lo, hi) = self.spans[v][entry as usize];
        &self.hops[lo as usize..hi as usize]
    }
}

pub(crate) struct ClassIndex {
    shape: Arc<Shape>,
    branches: Branches,
    /// `fates[class * n + node]`.
    fates: Vec<Fate>,
    cyclic_classes: usize,
    /// Wall time of the build, for the quarantined wall section only.
    pub build_micros: u64,
}

impl ClassIndex {
    /// The index over `nodes` and `links`, its shape from `shapes` if one fits.
    pub fn build(nodes: &Nodes, links: &[LinkId], shapes: Option<&Memo<Shape>>) -> ClassIndex {
        let timer = mfv_obs::WallTimer::start();
        let mut names: BTreeSet<&NodeId> = nodes.keys().collect();
        for l in links {
            names.insert(&l.a.0);
            names.insert(&l.b.0);
        }
        let names: Vec<&NodeId> = names.into_iter().collect();
        let shape = match shapes {
            Some(memo) => memo.get_or_build(
                Shape::digest(&names, nodes),
                |shape| shape.fits(&names, nodes),
                || Shape::build(&names, nodes),
            ),
            None => Arc::new(Shape::build(&names, nodes)),
        };
        let branches = Branches::resolve(&shape, nodes, links);

        let n = names.len();
        let mut fates = Vec::with_capacity(shape.actions.len());
        let mut cyclic_classes = 0;
        let mut walk = ClassWalk::new(n, &branches);
        for class_actions in shape.actions.chunks_exact(n.max(1)) {
            cyclic_classes += usize::from(walk.run(class_actions));
            fates.extend_from_slice(&walk.fates);
        }

        ClassIndex {
            shape,
            branches,
            fates,
            cyclic_classes,
            build_micros: timer.elapsed_micros(),
        }
    }

    /// The index's shape; `lookups` is the caller's to fill in.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            atoms: self.shape.starts.len(),
            classes: self.classes(),
            cyclic_classes: self.cyclic_classes,
            fates_computed: self.fates.len(),
            lookups: 0,
        }
    }

    fn classes(&self) -> usize {
        self.fates.len() / self.shape.names.len().max(1)
    }

    fn id_of(&self, name: &NodeId) -> Option<usize> {
        self.shape.names.binary_search(name).ok()
    }

    fn disposition(&self, fate: Fate) -> Disposition {
        let node = self.shape.names[fate.node as usize].clone();
        match fate.kind {
            Kind::Accepted => Disposition::Accepted(node),
            Kind::NoRoute => Disposition::NoRoute(node),
            Kind::NullRoute => Disposition::NullRoute(node),
            Kind::ExitsNetwork => Disposition::ExitsNetwork(node),
            Kind::NodeDown => Disposition::NodeDown(node),
            Kind::Loop => Disposition::Loop(node),
            Kind::EcmpDivergent => Disposition::EcmpDivergent(node),
        }
    }

    /// The atom containing address `v`.
    fn atom_of(&self, v: u32) -> usize {
        self.shape.starts.partition_point(|s| *s <= v) - 1
    }

    fn atom_end(&self, atom: usize) -> u32 {
        self.shape
            .starts
            .get(atom + 1)
            .map_or(u32::MAX, |next| next - 1)
    }

    /// Every `(atom, lo, hi)` piece of `scope`, in address order.
    fn pieces<'a>(&'a self, scope: &'a IpSet) -> impl Iterator<Item = (usize, u32, u32)> + 'a {
        scope.ranges().iter().flat_map(move |r: &IpRange| {
            (self.atom_of(r.lo)..self.shape.starts.len())
                .take_while(move |atom| self.shape.starts[*atom] <= r.hi)
                .map(move |atom| {
                    (
                        atom,
                        self.shape.starts[atom].max(r.lo),
                        self.atom_end(atom).min(r.hi),
                    )
                })
        })
    }

    /// The fate of one destination for packets entering at `from`.
    pub fn fate_of(&self, from: &NodeId, dst: Ipv4Addr) -> Disposition {
        let Some(src) = self.id_of(from) else {
            return Disposition::NodeDown(from.clone());
        };
        self.disposition(self.fate_at(self.atom_of(u32::from(dst)), src))
    }

    /// The path of one packet entering at `from`: where a node forwards
    /// over several equal-cost branches the first is followed, as a
    /// hashing dataplane picks one per flow. `nodes` is the map the index
    /// was built from; egress interface names are read from its classes.
    pub fn trace(&self, nodes: &Nodes, from: &NodeId, dst: Ipv4Addr) -> Trace {
        let Some(mut v) = self.id_of(from) else {
            return Trace {
                hops: vec![TraceHop {
                    node: from.clone(),
                    egress: None,
                }],
                disposition: Disposition::NodeDown(from.clone()),
            };
        };
        let hop = |v: usize, egress| TraceHop {
            node: self.shape.names[v].clone(),
            egress,
        };
        let n = self.shape.names.len();
        let class = self.shape.class_of[self.atom_of(u32::from(dst))] as usize;
        let actions = &self.shape.actions[class * n..][..n];
        let mut hops = Vec::new();
        let mut seen = vec![false; n];
        let fate = loop {
            let here = |kind| Fate {
                kind,
                node: v as u32,
            };
            let branches = match step(actions, &self.branches, v) {
                Step::Forward(branches) if !seen[v] => branches,
                stopped => {
                    hops.push(hop(v, None));
                    break match stopped {
                        Step::Done(fate) => fate,
                        Step::Forward(_) => here(Kind::Loop),
                    };
                }
            };
            seen[v] = true;
            let entry = (actions[v] - FIRST_ENTRY) as usize;
            let node = &nodes[&self.shape.names[v]];
            let taken = &node.sets[node.set_of[entry] as usize][0];
            hops.push(hop(v, Some(taken.iface.clone())));
            match branches[0] {
                Some(peer) => v = peer as usize,
                None => break here(Kind::ExitsNetwork),
            }
        };
        Trace {
            hops,
            disposition: self.disposition(fate),
        }
    }

    /// `from`'s partition of the destination space restricted to `scope`:
    /// one row per distinct fate, in disposition order.
    pub fn rows(&self, from: &NodeId, scope: &IpSet) -> DispositionRows {
        let Some(src) = self.id_of(from) else {
            if scope.is_empty() {
                return Vec::new();
            }
            return vec![(scope.clone(), Disposition::NodeDown(from.clone()))];
        };
        let mut cells: Vec<(Fate, u32, u32)> = self
            .pieces(scope)
            .map(|(atom, lo, hi)| (self.fate_at(atom, src), lo, hi))
            .collect();
        // Stable, so each fate's pieces stay in address order.
        cells.sort_by_key(|(fate, _, _)| *fate);
        cells
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let set = IpSet::from_ranges(group.iter().map(|(_, lo, hi)| (*lo, *hi)));
                (set, self.disposition(group[0].0))
            })
            .collect()
    }

    /// Where `from`'s fates differ between this index and `after` over
    /// `scope`, unsorted: one pass over both indexes' atoms in address
    /// order, one finding per pair of fates whose dispositions differ.
    pub fn diff(&self, after: &ClassIndex, from: &NodeId, scope: &IpSet) -> Vec<DiffFinding> {
        // Every dataplane node is interned: a source both sides hold is here.
        let (Some(src_b), Some(src_a)) = (self.id_of(from), after.id_of(from)) else {
            return Vec::new();
        };
        // Over one shape an equal fate names one disposition on both
        // sides: such a pair never reaches the map.
        let shared = Arc::ptr_eq(&self.shape, &after.shape);
        // Per fate pair met, its pieces of `scope`, or `None` where both
        // fates name one disposition.
        let mut pairs = BTreeMap::new();
        for r in scope.ranges() {
            let (mut i, mut j, mut lo) = (self.atom_of(r.lo), after.atom_of(r.lo), r.lo);
            loop {
                let (end_b, end_a) = (self.atom_end(i), after.atom_end(j));
                let hi = end_b.min(end_a).min(r.hi);
                let (b, a) = (self.fate_at(i, src_b), after.fate_at(j, src_a));
                let pieces = (!shared || b != a).then(|| {
                    pairs.entry((b, a)).or_insert_with(|| {
                        let names = (
                            &self.shape.names[b.node as usize],
                            &after.shape.names[a.node as usize],
                        );
                        (b.kind != a.kind || names.0 != names.1).then(Vec::new)
                    })
                });
                if let Some(pieces) = pieces.and_then(Option::as_mut) {
                    pieces.push((lo, hi));
                }
                if hi == r.hi {
                    break;
                }
                lo = hi + 1;
                i += usize::from(end_b == hi);
                j += usize::from(end_a == hi);
            }
        }
        let differing = pairs.into_iter().filter_map(|((b, a), pieces)| {
            Some(DiffFinding {
                src: from.clone(),
                dsts: IpSet::from_ranges(pieces?),
                before: self.disposition(b),
                after: after.disposition(a),
            })
        });
        differing.collect()
    }

    /// The fate of packets entering at `src` within `atom`.
    fn fate_at(&self, atom: usize, src: usize) -> Fate {
        self.fates[self.shape.class_of[atom] as usize * self.shape.names.len() + src]
    }

    /// Total rows over every dataplane node's full-space partition — the
    /// number of (entry node, fate) classes the index answers for.
    pub fn partition_rows(&self) -> usize {
        let n = self.shape.names.len();
        let mut total = 0;
        for src in (0..n).filter(|src| self.shape.roles[*src].is_some()) {
            let mut column: Vec<Fate> = self.fates.iter().skip(src).step_by(n).copied().collect();
            column.sort_unstable();
            column.dedup();
            total += column.len();
        }
        total
    }
}

/// One node's action per atom. Atoms never straddle a class boundary or
/// an owned address, so an atom's first address decides for all of it.
fn node_actions(node: &NodeClasses, owned: &BTreeSet<Ipv4Addr>, starts: &[u32]) -> Vec<u32> {
    let mut ranges: Vec<(IpRange, u32)> = Vec::new();
    for (entry, eff) in node.classes.iter().enumerate() {
        ranges.extend(
            eff.ranges()
                .iter()
                .map(|r| (*r, FIRST_ENTRY + entry as u32)),
        );
    }
    ranges.sort_unstable_by_key(|(r, _)| r.lo);
    let mut row = Vec::with_capacity(starts.len());
    let mut next = ranges.iter().peekable();
    for start in starts {
        while next.next_if(|(r, _)| r.hi < *start).is_some() {}
        row.push(match next.peek() {
            Some((r, action)) if r.lo <= *start => *action,
            _ => NO_ROUTE,
        });
    }
    for a in owned {
        if let Ok(atom) = starts.binary_search(&u32::from(*a)) {
            row[atom] = ACCEPT;
        }
    }
    row
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unvisited,
    OnPath,
    /// No cycle reachable: the memoised fate holds on every path.
    Settled,
    /// Reaches a cycle: the fate depends on the path taken to get here.
    Cyclic,
}

/// What a node does with a class: decide its fate, or forward it.
enum Step<'a> {
    Done(Fate),
    Forward(&'a [Branch]),
}

/// The local verdict at `v` within one class, or the branches it
/// forwards on (never empty: an entry without next hops is a null route).
fn step<'a>(actions: &[u32], branches: &'a Branches, v: usize) -> Step<'a> {
    let here = |kind| {
        Step::Done(Fate {
            kind,
            node: v as u32,
        })
    };
    match actions[v] {
        DOWN => here(Kind::NodeDown),
        ACCEPT => here(Kind::Accepted),
        NO_ROUTE => here(Kind::NoRoute),
        entry => match branches.of(v, entry - FIRST_ENTRY) {
            [] => here(Kind::NullRoute),
            hops => Step::Forward(hops),
        },
    }
}

/// Computes every node's fate within one class at a time, in buffers
/// reused from class to class.
struct ClassWalk<'a> {
    actions: &'a [u32],
    branches: &'a Branches,
    marks: Vec<Mark>,
    fates: Vec<Fate>,
}

impl<'a> ClassWalk<'a> {
    fn new(n: usize, branches: &'a Branches) -> ClassWalk<'a> {
        let placeholder = Fate {
            kind: Kind::NodeDown,
            node: 0,
        };
        ClassWalk {
            actions: &[],
            branches,
            marks: vec![Mark::Unvisited; n],
            fates: vec![placeholder; n],
        }
    }

    /// Fills `fates` for the class whose per-node actions are `actions`;
    /// returns whether its graph has a cycle.
    fn run(&mut self, actions: &'a [u32]) -> bool {
        self.actions = actions;
        self.marks.fill(Mark::Unvisited);
        for v in 0..self.actions.len() {
            if self.marks[v] == Mark::Unvisited {
                self.settle(v);
            }
        }
        let mut cyclic = false;
        let mut path = Vec::new();
        for v in 0..self.actions.len() {
            if self.marks[v] == Mark::Cyclic {
                cyclic = true;
                self.fates[v] = self.walk(v, &mut path);
            }
        }
        cyclic
    }

    /// Depth-first pass: memoises the fate of every node that cannot
    /// reach a cycle and marks the rest `Cyclic`. Returns whether `v`
    /// reaches a cycle.
    fn settle(&mut self, v: usize) -> bool {
        let hops = match step(self.actions, self.branches, v) {
            Step::Done(fate) => {
                self.fates[v] = fate;
                self.marks[v] = Mark::Settled;
                return false;
            }
            Step::Forward(hops) => hops,
        };
        self.marks[v] = Mark::OnPath;
        let mut cyclic = false;
        for peer in hops.iter().flatten() {
            let peer = *peer as usize;
            cyclic |= match self.marks[peer] {
                Mark::Unvisited => self.settle(peer),
                Mark::OnPath | Mark::Cyclic => true,
                Mark::Settled => false,
            };
        }
        if cyclic {
            self.marks[v] = Mark::Cyclic;
        } else {
            self.fates[v] = merge(v, hops.iter().map(|hop| self.branch_fate(v, *hop)));
            self.marks[v] = Mark::Settled;
        }
        cyclic
    }

    fn branch_fate(&self, v: usize, hop: Branch) -> Fate {
        match hop {
            Some(peer) => self.fates[peer as usize],
            None => Fate {
                kind: Kind::ExitsNetwork,
                node: v as u32,
            },
        }
    }

    /// The path-dependent walk, for nodes that can reach a cycle: follows
    /// every ECMP branch with the path so far on a stack, and stops at
    /// settled nodes, whose fate no path can change.
    fn walk(&self, v: usize, path: &mut Vec<usize>) -> Fate {
        if self.marks[v] == Mark::Settled {
            return self.fates[v];
        }
        if path.contains(&v) {
            return Fate {
                kind: Kind::Loop,
                node: v as u32,
            };
        }
        // Only forwarding nodes are ever marked `Cyclic`.
        let Step::Forward(hops) = step(self.actions, self.branches, v) else {
            return self.fates[v];
        };
        path.push(v);
        let mut fates = Vec::with_capacity(hops.len());
        for hop in hops {
            fates.push(match hop {
                Some(peer) => self.walk(*peer as usize, path),
                None => self.branch_fate(v, None),
            });
        }
        path.pop();
        merge(v, fates.into_iter())
    }
}

/// Merges per-branch fates at `v`: where every branch is equivalent to
/// the last one, the last one's fate stands; otherwise the class is
/// ECMP-divergent at `v`.
fn merge(v: usize, mut fates: impl DoubleEndedIterator<Item = Fate>) -> Fate {
    let Some(last) = fates.next_back() else {
        return Fate {
            kind: Kind::NullRoute,
            node: v as u32,
        };
    };
    if fates.all(|f| last.equivalent(f)) {
        last
    } else {
        Fate {
            kind: Kind::EcmpDivergent,
            node: v as u32,
        }
    }
}
