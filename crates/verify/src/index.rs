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
use std::net::Ipv4Addr;

use mfv_types::hs::IpRange;
use mfv_types::{IfaceId, IpSet, LinkId, NodeId};

use crate::graph::{Disposition, DispositionRows, NodeView, Trace, TraceHop};

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
// `action - FIRST_ENTRY` of the node's `NodeClasses::classes`.
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

pub(crate) struct ClassIndex {
    /// Interned node names in `NodeId` order: the dataplane's nodes plus
    /// link endpoints it has no state for (packets sent there are dropped
    /// as at a down node).
    names: Vec<NodeId>,
    /// Which interned ids are dataplane nodes (entry points of queries).
    present: Vec<bool>,
    /// First address of each atom, ascending from 0; atom `i` ends just
    /// before atom `i + 1` starts.
    starts: Vec<u32>,
    class_of: Vec<u32>,
    /// `actions[class * n + node]`.
    actions: Vec<u32>,
    /// `branches[node][entry]`: where each forwarding entry sends packets.
    branches: Vec<Vec<Vec<Branch>>>,
    /// `fates[class * n + node]`.
    fates: Vec<Fate>,
    cyclic_classes: usize,
    /// Wall time of the build, for the quarantined wall section only.
    pub build_micros: u64,
}

impl ClassIndex {
    pub fn build(nodes: &BTreeMap<NodeId, NodeView>, links: &[LinkId]) -> ClassIndex {
        let timer = mfv_obs::WallTimer::start();
        let mut names: BTreeSet<&NodeId> = nodes.keys().collect();
        for l in links {
            names.insert(&l.a.0);
            names.insert(&l.b.0);
        }
        let names: Vec<NodeId> = names.into_iter().cloned().collect();
        let n = names.len();
        let id_of = |name: &NodeId| names.binary_search(name).ok().map(|i| i as u32);
        let present: Vec<bool> = names.iter().map(|m| nodes.contains_key(m)).collect();

        // `Dataplane::peer_of` answers with the first link naming the
        // endpoint, so the first insertion wins here too.
        let mut peers: BTreeMap<(&NodeId, &IfaceId), &NodeId> = BTreeMap::new();
        for l in links {
            peers.entry((&l.a.0, &l.a.1)).or_insert(&l.b.0);
            peers.entry((&l.b.0, &l.b.1)).or_insert(&l.a.0);
        }

        // Only nodes that are up consult their FIB or addresses.
        let live: Vec<Option<&NodeView>> = names
            .iter()
            .map(|name| nodes.get(name).filter(|node| node.up))
            .collect();

        let mut cuts = vec![0u32];
        for node in live.iter().flatten() {
            for (eff, _) in &node.classes.classes {
                for r in eff.ranges() {
                    cuts.push(r.lo);
                    cuts.extend(r.hi.checked_add(1));
                }
            }
            for a in &node.addresses {
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
        let mut branches: Vec<Vec<Vec<Branch>>> = Vec::with_capacity(n);
        for (name, node) in names.iter().zip(&live) {
            let Some(node) = node else {
                rows.push(Vec::new());
                branches.push(Vec::new());
                continue;
            };
            let row = node_actions(node, &starts);
            let mut refined: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for (class, action) in class_of.iter_mut().zip(&row) {
                let next = refined.len() as u32;
                *class = *refined.entry((*class, *action)).or_insert(next);
            }
            classes = refined.len();
            rows.push(row);
            branches.push(
                node.classes
                    .classes
                    .iter()
                    .map(|(_, entry)| {
                        entry
                            .next_hops
                            .iter()
                            .map(|nh| peers.get(&(name, &nh.iface)).and_then(|p| id_of(p)))
                            .collect()
                    })
                    .collect(),
            );
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
        drop(rows);

        let mut fates = Vec::with_capacity(classes * n);
        let mut cyclic_classes = 0;
        for class_actions in actions.chunks_exact(n.max(1)) {
            let mut walk = ClassWalk::new(class_actions, &branches);
            cyclic_classes += usize::from(walk.run());
            fates.extend(walk.fates);
        }

        ClassIndex {
            names,
            present,
            starts,
            class_of,
            actions,
            branches,
            fates,
            cyclic_classes,
            build_micros: timer.elapsed_micros(),
        }
    }

    /// The index's shape; `lookups` is the caller's to fill in.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            atoms: self.starts.len(),
            classes: self.classes(),
            cyclic_classes: self.cyclic_classes,
            fates_computed: self.fates.len(),
            lookups: 0,
        }
    }

    fn classes(&self) -> usize {
        self.fates.len() / self.names.len().max(1)
    }

    fn id_of(&self, name: &NodeId) -> Option<usize> {
        self.names.binary_search(name).ok()
    }

    fn disposition(&self, fate: Fate) -> Disposition {
        let node = self.names[fate.node as usize].clone();
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
        self.starts.partition_point(|s| *s <= v) - 1
    }

    fn atom_end(&self, atom: usize) -> u32 {
        self.starts.get(atom + 1).map_or(u32::MAX, |next| next - 1)
    }

    /// Every `(atom, lo, hi)` piece of `scope`, in address order.
    fn pieces<'a>(&'a self, scope: &'a IpSet) -> impl Iterator<Item = (usize, u32, u32)> + 'a {
        scope.ranges().iter().flat_map(move |r: &IpRange| {
            (self.atom_of(r.lo)..self.starts.len())
                .take_while(move |atom| self.starts[*atom] <= r.hi)
                .map(move |atom| {
                    (
                        atom,
                        self.starts[atom].max(r.lo),
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
        let class = self.class_of[self.atom_of(u32::from(dst))] as usize;
        self.disposition(self.fates[class * self.names.len() + src])
    }

    /// The path of one packet entering at `from`: where a node forwards
    /// over several equal-cost branches the first is followed, as a
    /// hashing dataplane picks one per flow. `nodes` is the map the index
    /// was built from; egress interface names are read from its classes.
    pub fn trace(&self, nodes: &BTreeMap<NodeId, NodeView>, from: &NodeId, dst: Ipv4Addr) -> Trace {
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
            node: self.names[v].clone(),
            egress,
        };
        let n = self.names.len();
        let class = self.class_of[self.atom_of(u32::from(dst))] as usize;
        let actions = &self.actions[class * n..][..n];
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
            let taken = &nodes[&self.names[v]].classes.classes[entry].1.next_hops[0];
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
        let n = self.names.len();
        let mut cells: Vec<(Fate, u32, u32)> = self
            .pieces(scope)
            .map(|(atom, lo, hi)| (self.fates[self.class_of[atom] as usize * n + src], lo, hi))
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

    /// Total rows over every dataplane node's full-space partition — the
    /// number of (entry node, fate) classes the index answers for.
    pub fn partition_rows(&self) -> usize {
        let n = self.names.len();
        let mut total = 0;
        for src in (0..n).filter(|src| self.present[*src]) {
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
fn node_actions(node: &NodeView, starts: &[u32]) -> Vec<u32> {
    let mut ranges: Vec<(IpRange, u32)> = Vec::new();
    for (entry, (eff, _)) in node.classes.classes.iter().enumerate() {
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
    for a in &node.addresses {
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
fn step<'a>(actions: &[u32], branches: &'a [Vec<Vec<Branch>>], v: usize) -> Step<'a> {
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
        entry => match branches[v][(entry - FIRST_ENTRY) as usize].as_slice() {
            [] => here(Kind::NullRoute),
            hops => Step::Forward(hops),
        },
    }
}

/// Computes every node's fate within one class.
struct ClassWalk<'a> {
    actions: &'a [u32],
    branches: &'a [Vec<Vec<Branch>>],
    marks: Vec<Mark>,
    fates: Vec<Fate>,
}

impl<'a> ClassWalk<'a> {
    fn new(actions: &'a [u32], branches: &'a [Vec<Vec<Branch>>]) -> ClassWalk<'a> {
        let placeholder = Fate {
            kind: Kind::NodeDown,
            node: 0,
        };
        ClassWalk {
            actions,
            branches,
            marks: vec![Mark::Unvisited; actions.len()],
            fates: vec![placeholder; actions.len()],
        }
    }

    /// Fills `fates`; returns whether the class graph has a cycle.
    fn run(&mut self) -> bool {
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
