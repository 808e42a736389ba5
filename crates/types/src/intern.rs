//! Deterministic string interning for hot-path identifier keys.
//!
//! The emulation engine dispatches hundreds of thousands of events per run;
//! keying event state on `String`-backed [`NodeId`]/[`IfaceId`] means a heap
//! clone and a byte-wise compare on every hop. An [`Interner`] is built once
//! from the topology and hands out `Copy` u32-backed [`NodeRef`]/[`IfaceRef`]
//! keys instead: O(1) copies, integer compares, and dense indices that let
//! per-node state live in plain `Vec`s.
//!
//! Determinism: refs are assigned in insertion order and nothing else, so a
//! caller that interns names in a deterministic order (the engine interns
//! them in sorted order) gets identical numbering on every run — interned
//! keys are as replay-safe as the strings they stand for.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::ids::{IfaceId, NodeId};

/// A `Copy` handle for an interned [`NodeId`]. Doubles as a dense index:
/// `NodeRef(i)` is the i-th node interned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef(pub u32);

impl NodeRef {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n#{}", self.0)
    }
}

/// A `Copy` handle for an interned [`IfaceId`]. Dense like [`NodeRef`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceRef(pub u32);

impl IfaceRef {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IfaceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i#{}", self.0)
    }
}

/// A two-namespace (node names, interface names) intern table.
///
/// Built once, then read-only on the hot path: `resolve_*` maps a name to
/// its ref, `node`/`iface` maps a ref back to the name without allocating.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    nodes: Vec<NodeId>,
    node_index: BTreeMap<NodeId, NodeRef>,
    ifaces: Vec<IfaceId>,
    iface_index: BTreeMap<IfaceId, IfaceRef>,
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a node name, returning its existing ref if already present.
    pub fn intern_node(&mut self, name: &NodeId) -> NodeRef {
        if let Some(r) = self.node_index.get(name) {
            return *r;
        }
        let r = NodeRef(self.nodes.len() as u32);
        self.nodes.push(name.clone());
        self.node_index.insert(name.clone(), r);
        r
    }

    /// Interns an interface name, returning its existing ref if present.
    pub fn intern_iface(&mut self, name: &IfaceId) -> IfaceRef {
        if let Some(r) = self.iface_index.get(name) {
            return *r;
        }
        let r = IfaceRef(self.ifaces.len() as u32);
        self.ifaces.push(name.clone());
        self.iface_index.insert(name.clone(), r);
        r
    }

    /// The ref for a node name, if interned.
    pub fn resolve_node(&self, name: &NodeId) -> Option<NodeRef> {
        self.node_index.get(name).copied()
    }

    /// The ref for an interface name, if interned.
    pub fn resolve_iface(&self, name: &IfaceId) -> Option<IfaceRef> {
        self.iface_index.get(name).copied()
    }

    /// The name behind a node ref. Refs are only minted by this table, so a
    /// miss means the caller mixed refs from another interner; returning the
    /// option (rather than indexing) keeps that a handleable error.
    pub fn node(&self, r: NodeRef) -> Option<&NodeId> {
        self.nodes.get(r.index())
    }

    /// The name behind an interface ref.
    pub fn iface(&self, r: IfaceRef) -> Option<&IfaceId> {
        self.ifaces.get(r.index())
    }

    /// Number of interned nodes; node refs are dense in `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node refs in numbering order.
    pub fn node_refs(&self) -> impl Iterator<Item = NodeRef> {
        (0..self.nodes.len() as u32).map(NodeRef)
    }
}

/// One stored copy per distinct value: [`intern`](Self::intern) answers with
/// a handle (`H`, an `Arc`) to the copy already held, so a table whose
/// million entries take a handful of values pays for the handful. Handles
/// order and compare by content — a shared pointer only short-cuts `==` —
/// so nothing a caller sees depends on which handle it holds. A `BTreeSet`
/// because D1 bans hashed containers; `Arc` because forked emulations clone
/// their tables across threads.
#[derive(Clone, Debug)]
pub struct InternSet<H> {
    values: BTreeSet<H>,
    /// Values held right after the last sweep.
    kept: usize,
}

impl<H> Default for InternSet<H> {
    fn default() -> Self {
        InternSet {
            values: BTreeSet::new(),
            kept: 0,
        }
    }
}

impl<T: ?Sized + Ord> InternSet<Arc<T>> {
    /// The stored copy equal to `value`, which is itself stored (converted
    /// without copying where `Into` allows) if there is none. The lookup
    /// borrows, so a hit allocates nothing.
    pub fn intern<V: Borrow<T> + Into<Arc<T>>>(&mut self, value: V) -> Arc<T> {
        if let Some(held) = self.values.get(Borrow::<T>::borrow(&value)) {
            return Arc::clone(held);
        }
        // Values only this set still holds go once it has doubled since the
        // last sweep (64 at the least): churn — a flapping session, a
        // reconverging FIB — cannot grow it past twice its live values.
        if self.values.len() >= 2 * self.kept.max(32) {
            self.values.retain(|v| Arc::strong_count(v) > 1);
            self.kept = self.values.len();
        }
        let held: Arc<T> = value.into();
        self.values.insert(Arc::clone(&held));
        held
    }

    /// Values stored, ones nobody holds any more included until a sweep.
    pub fn stored(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Interner {
        /// Number of interned interfaces; dense like nodes.
        fn iface_count(&self) -> usize {
            self.ifaces.len()
        }
    }

    #[test]
    fn equal_values_share_one_copy_and_dead_ones_are_swept() {
        let mut set: InternSet<Arc<[u32]>> = InternSet::default();
        let a = set.intern(vec![1, 2]);
        let b = set.intern(&[1, 2][..]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(set.stored(), 1);
        // 1,000 values nobody keeps: the set never grows past the sweep
        // floor, and the live value survives every sweep.
        for i in 0..1000 {
            set.intern(vec![i, i, i]);
            assert!(set.stored() <= 64);
        }
        assert!(Arc::ptr_eq(&a, &set.intern(vec![1, 2])));
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern_node(&"r1".into());
        let b = t.intern_node(&"r2".into());
        assert_eq!(a, NodeRef(0));
        assert_eq!(b, NodeRef(1));
        assert_eq!(t.intern_node(&"r1".into()), a);
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.node(a), Some(&"r1".into()));
        assert_eq!(t.resolve_node(&"r2".into()), Some(b));
        assert_eq!(t.resolve_node(&"r9".into()), None);
    }

    #[test]
    fn node_and_iface_namespaces_are_independent() {
        let mut t = Interner::new();
        t.intern_node(&"x".into());
        let i = t.intern_iface(&IfaceId::from("Ethernet1"));
        assert_eq!(i, IfaceRef(0));
        assert_eq!(t.iface(i), Some(&IfaceId::from("Ethernet1")));
        assert_eq!(t.iface_count(), 1);
    }

    #[test]
    fn numbering_follows_insertion_order_only() {
        // Two tables fed the same sequence agree ref-for-ref; a different
        // order yields different numbering — determinism is the caller's
        // insertion order, which the engine derives from sorted names.
        let names: Vec<NodeId> = vec!["b".into(), "a".into(), "c".into()];
        let mut t1 = Interner::new();
        let mut t2 = Interner::new();
        for n in &names {
            assert_eq!(t1.intern_node(n), t2.intern_node(n));
        }
    }

    #[test]
    fn foreign_refs_miss_instead_of_panicking() {
        let t = Interner::new();
        assert_eq!(t.node(NodeRef(3)), None);
        assert_eq!(t.iface(IfaceRef(0)), None);
    }
}
