//! A binary longest-prefix-match trie keyed by [`Prefix`].
//!
//! Used by every FIB in the workspace: the emulated routers, the model-based
//! baseline's computed dataplane, and the verification engine's forwarding
//! graph all resolve lookups through this structure.

use std::net::Ipv4Addr;

use crate::addr::Prefix;

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    /// children[0] = next bit 0, children[1] = next bit 1.
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn empty() -> Node<V> {
        Node {
            value: None,
            children: [None, None],
        }
    }

    fn is_empty(&self) -> bool {
        self.value.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A map from [`Prefix`] to `V` supporting exact operations and
/// longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

fn bit_at(addr: u32, index: u8) -> usize {
    ((addr >> (31 - index as u32)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie {
            root: Node::empty(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit_at(prefix.network_bits(), i);
            node = node.children[b].get_or_insert_with(|| Box::new(Node::empty()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `prefix`, which `make` supplies if there is none, and
    /// whether it did: an insert-or-update in one walk.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Prefix,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit_at(prefix.network_bits(), i);
            node = node.children[b].get_or_insert_with(|| Box::new(Node::empty()));
        }
        let made = node.value.is_none();
        if made {
            self.len += 1;
        }
        (node.value.get_or_insert_with(make), made)
    }

    /// Removes the value at exactly `prefix`, pruning empty branches.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        fn rec<V>(node: &mut Node<V>, bits: u32, depth: u8, len: u8) -> Option<V> {
            if depth == len {
                return node.value.take();
            }
            let b = bit_at(bits, depth);
            let child = node.children[b].as_mut()?;
            let out = rec(child, bits, depth + 1, len);
            if child.is_empty() {
                node.children[b] = None;
            }
            out
        }
        let out = rec(&mut self.root, prefix.network_bits(), 0, prefix.len());
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = bit_at(prefix.network_bits(), i);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit_at(prefix.network_bits(), i);
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Longest-prefix-match: the most specific stored prefix covering `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(Prefix, &V)> {
        let bits = u32::from(ip);
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let b = bit_at(bits, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| (Prefix::from_bits(bits, len), v))
    }

    /// All stored prefixes covering `ip`, from least to most specific.
    pub fn matches(&self, ip: Ipv4Addr) -> Vec<(Prefix, &V)> {
        let bits = u32::from(ip);
        let mut out = Vec::new();
        let mut node = &self.root;
        if let Some(v) = node.value.as_ref() {
            out.push((Prefix::from_bits(bits, 0), v));
        }
        for i in 0..32u8 {
            let b = bit_at(bits, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        out.push((Prefix::from_bits(bits, i + 1), v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Iterates all `(prefix, value)` pairs in trie (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, V>(node: &'a Node<V>, bits: u32, depth: u8, out: &mut Vec<(Prefix, &'a V)>) {
            if let Some(v) = node.value.as_ref() {
                out.push((Prefix::from_bits(bits, depth), v));
            }
            if let Some(c) = node.children[0].as_deref() {
                walk(c, bits, depth + 1, out);
            }
            if let Some(c) = node.children[1].as_deref() {
                walk(c, bits | (1 << (31 - depth as u32)), depth + 1, out);
            }
        }
        walk(&self.root, 0, 0, &mut out);
        out.into_iter()
    }

    /// All stored prefixes (in trie order).
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.iter().map(|(p, _)| p).collect()
    }

    /// The topmost stored strict descendants of `prefix`: every stored
    /// prefix more specific than `prefix` with no other stored prefix
    /// between itself and `prefix`. Subtracting exactly these from
    /// `prefix`'s address set yields the addresses for which `prefix` is
    /// the longest match — without scanning unrelated prefixes.
    pub fn max_descendants(&self, prefix: &Prefix) -> Vec<Prefix> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = bit_at(prefix.network_bits(), i);
            match node.children[b].as_deref() {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        fn walk<V>(node: &Node<V>, bits: u32, depth: u8, out: &mut Vec<Prefix>) {
            if node.value.is_some() {
                // Prune: anything deeper is shadowed by this descendant.
                out.push(Prefix::from_bits(bits, depth));
                return;
            }
            if let Some(c) = node.children[0].as_deref() {
                walk(c, bits, depth + 1, out);
            }
            if let Some(c) = node.children[1].as_deref() {
                walk(c, bits | (1 << (31 - depth as u32)), depth + 1, out);
            }
        }
        let mut out = Vec::new();
        let base = prefix.network_bits();
        let depth = prefix.len();
        if let Some(c) = node.children[0].as_deref() {
            walk(c, base, depth + 1, &mut out);
        }
        if let Some(c) = node.children[1].as_deref() {
            walk(c, base | (1 << (31 - depth as u32)), depth + 1, &mut out);
        }
        out
    }
}

impl<V: PartialEq> PartialEq for PrefixTrie<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some((pa, va)), Some((pb, vb))) => {
                    if pa != pb || va != vb {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

impl<V: PartialEq> Eq for PrefixTrie<V> {}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn max_descendants_finds_topmost_holes() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.1.0.0/16"), ());
        t.insert(p("10.1.2.0/24"), ()); // shadowed by the /16 hole
        t.insert(p("10.128.0.0/9"), ());
        t.insert(p("11.0.0.0/8"), ()); // sibling, not a descendant
        let mut holes = t.max_descendants(&p("10.0.0.0/8"));
        holes.sort();
        assert_eq!(holes, vec![p("10.1.0.0/16"), p("10.128.0.0/9")]);
        // A leaf has no holes; an absent prefix has none either.
        assert!(t.max_descendants(&p("10.1.2.0/24")).is_empty());
        assert!(t.max_descendants(&p("192.168.0.0/16")).is_empty());
        // Descendants of an unstored midpoint are still found.
        assert_eq!(t.max_descendants(&p("10.1.0.0/12")), vec![p("10.1.0.0/16")]);
    }

    #[test]
    fn get_or_insert_with_makes_once_and_counts_once() {
        let mut t = PrefixTrie::new();
        let (v, made) = t.get_or_insert_with(p("10.1.0.0/16"), || 1);
        assert_eq!((*v, made), (1, true));
        let (v, made) = t.get_or_insert_with(p("10.1.0.0/16"), || 2);
        assert_eq!((*v, made), (1, false));
        *v = 3;
        assert_eq!((t.get(&p("10.1.0.0/16")), t.len()), (Some(&3), 1));
        // A midpoint the first walk created holds no value of its own.
        let (_, made) = t.get_or_insert_with(p("10.0.0.0/8"), || 4);
        assert!(made);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&"b"));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some("b"));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);

        let (pre, v) = t.lookup(ip("10.1.2.3")).unwrap();
        assert_eq!((pre, *v), (p("10.1.2.0/24"), 24));
        let (pre, v) = t.lookup(ip("10.1.9.9")).unwrap();
        assert_eq!((pre, *v), (p("10.1.0.0/16"), 16));
        let (pre, v) = t.lookup(ip("10.200.0.1")).unwrap();
        assert_eq!((pre, *v), (p("10.0.0.0/8"), 8));
        let (pre, v) = t.lookup(ip("192.168.0.1")).unwrap();
        assert_eq!((pre, *v), (p("0.0.0.0/0"), 0));
    }

    #[test]
    fn lookup_without_default_can_miss() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.lookup(ip("11.0.0.1")).is_none());
    }

    #[test]
    fn matches_returns_all_covering() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("11.0.0.0/8"), 99);
        let m: Vec<u8> = t.matches(ip("10.1.2.3")).iter().map(|(_, v)| **v).collect();
        assert_eq!(m, vec![0, 8, 24]);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "0.0.0.0/0", "10.128.0.0/9", "192.168.1.0/24"];
        for s in prefixes {
            t.insert(p(s), s);
        }
        let seen: Vec<Prefix> = t.prefixes();
        assert_eq!(seen.len(), 4);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn remove_prunes_branches() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), ());
        t.remove(&p("10.1.2.0/24"));
        // Root must be back to pristine so lookups terminate immediately.
        assert!(t.root.is_empty());
    }

    #[test]
    fn host_route_wins_over_covering_prefix() {
        let mut t = PrefixTrie::new();
        t.insert(p("2.2.2.0/24"), "net");
        t.insert(p("2.2.2.1/32"), "host");
        assert_eq!(t.lookup(ip("2.2.2.1")).unwrap().1, &"host");
        assert_eq!(t.lookup(ip("2.2.2.2")).unwrap().1, &"net");
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a: PrefixTrie<i32> = [(p("10.0.0.0/8"), 1), (p("20.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        let b: PrefixTrie<i32> = [(p("20.0.0.0/8"), 2), (p("10.0.0.0/8"), 1)]
            .into_iter()
            .collect();
        assert_eq!(a, b);
        let c: PrefixTrie<i32> = [(p("10.0.0.0/8"), 1)].into_iter().collect();
        assert_ne!(a, c);
    }
}
