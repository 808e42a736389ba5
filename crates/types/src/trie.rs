//! A binary longest-prefix-match trie keyed by [`Prefix`].
//!
//! Used by every FIB in the workspace: the emulated routers, the model-based
//! baseline's computed dataplane, and the verification engine's forwarding
//! graph all resolve lookups through this structure.
//!
//! The trie is one arena: its nodes sit in one `Vec` and name their children
//! by `u32` index, its values sit densely in another, and a removal puts the
//! nodes it prunes on a free list for the next insert. A table is a handful
//! of allocations however many prefixes it holds, and each vector grows by
//! an eighth, so the capacity they ask for stays within an eighth of their
//! size. A run of levels that only lead on — the 20-odd above a block of
//! loopbacks — is one skip node of the same twelve bytes, so a lookup loads
//! a node per branching level, not one per bit.

use std::net::Ipv4Addr;

use crate::addr::Prefix;

/// One arena node, twelve bytes. A branching node: `children[b]` is the
/// index of the child for next bit `b` (0: none — the root, at 0, is
/// nobody's child), `value` the index of the node's value (`NONE`: none).
/// A skip node (`value` is `SKIP` plus a length `k`, 1 to 32): the next `k`
/// bits are `children[1]`'s first, and `children[0]` is the node below
/// them. A freed node chains the free list through `children[0]`.
#[derive(Clone, Copy, Debug)]
struct Node {
    children: [u32; 2],
    value: u32,
}

const NONE: u32 = u32::MAX;
const SKIP: u32 = 1 << 31;
const EMPTY: Node = Node {
    children: [0, 0],
    value: NONE,
};

/// A skip node over the `k` bits `bits` starts with, down to `to`.
fn skip(k: u8, bits: u32, to: u32) -> Node {
    let value = SKIP | u32::from(k);
    let children = [to, bits & !0 << (32 - k)];
    Node { children, value }
}

/// The length of a skip node, or `None` for a branching node.
fn skip_len(node: &Node) -> Option<u8> {
    (node.value & SKIP != 0 && node.value != NONE).then_some(node.value as u8)
}

/// Whether `bits` from `depth` on and a skip node's `stored` bits agree on
/// their first `n`.
fn agree(bits: u32, depth: u8, stored: u32, n: u8) -> bool {
    n == 0 || ((bits << depth) ^ stored) >> (32 - n) == 0
}

/// A map from [`Prefix`] to `V` supporting exact operations and
/// longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    /// The root at 0 once anything was inserted (always a branching node),
    /// then every node made since.
    nodes: Vec<Node>,
    /// The values, dense, and for each the node that holds it.
    values: Vec<V>,
    owners: Vec<u32>,
    /// The first freed node (0: none).
    free: u32,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

fn bit_at(addr: u32, index: u8) -> usize {
    ((addr >> (31 - index as u32)) & 1) as usize
}

/// Adds `item` to `v`, which grows by an eighth (four at the least) where
/// doubling could leave half of it unused; returns its index.
fn push<T>(v: &mut Vec<T>, item: T) -> usize {
    if v.len() == v.capacity() {
        v.reserve_exact((v.len() / 8).max(4));
    }
    v.push(item);
    v.len() - 1
}

impl<V> PrefixTrie<V> {
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie {
            nodes: Vec::new(),
            values: Vec::new(),
            owners: Vec::new(),
            free: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arena nodes made, free ones included: what removing prefixes and
    /// inserting them again leaves unchanged.
    pub fn arena_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Walks from the root toward `bits`, at most `len` levels down and as
    /// far as nodes agree, handing `visit` each node's depth and index: one
    /// dependent load per node.
    fn descend(&self, bits: u32, len: u8, mut visit: impl FnMut(u8, u32)) {
        if self.nodes.is_empty() {
            return;
        }
        let (mut at, mut depth) = (0, 0);
        loop {
            visit(depth, at);
            let node = &self.nodes[at as usize];
            let next = match skip_len(node) {
                Some(k) if depth + k <= len && agree(bits, depth, node.children[1], k) => {
                    depth += k;
                    node.children[0]
                }
                Some(_) => return,
                None if depth == len => return,
                None => {
                    depth += 1;
                    node.children[bit_at(bits, depth - 1)]
                }
            };
            match next {
                0 => return,
                next => at = next,
            }
        }
    }

    /// The branching node for exactly `prefix`, if it exists.
    fn find(&self, prefix: &Prefix) -> Option<usize> {
        let mut found = None;
        self.descend(prefix.network_bits(), prefix.len(), |depth, at| {
            let branching = skip_len(&self.nodes[at as usize]).is_none();
            found = (depth == prefix.len() && branching).then_some(at as usize);
        });
        found
    }

    /// A node made of `node`: a freed one if there is one.
    fn alloc(&mut self, node: Node) -> u32 {
        match self.free as usize {
            0 => push(&mut self.nodes, node) as u32,
            free => {
                self.free = std::mem::replace(&mut self.nodes[free], node).children[0];
                free as u32
            }
        }
    }

    /// The branching node for `prefix`, made if missing: a skip node it
    /// leaves or ends inside is split there, and a new branch is a skip
    /// node down to a branching one.
    fn make(&mut self, prefix: &Prefix) -> usize {
        if self.nodes.is_empty() {
            push(&mut self.nodes, EMPTY);
        }
        let (bits, len, mut at, mut depth) = (prefix.network_bits(), prefix.len(), 0, 0);
        loop {
            let children = self.nodes[at].children;
            if let Some(k) = skip_len(&self.nodes[at]) {
                let same = ((bits << depth) ^ children[1]).leading_zeros() as u8;
                let same = same.min(k).min(len - depth);
                if same < k {
                    self.split(at, same);
                    continue;
                }
                (at, depth) = (children[0] as usize, depth + k);
            } else if depth == len {
                return at;
            } else if children[bit_at(bits, depth)] == 0 {
                let made = self.alloc(EMPTY);
                let first = match len - depth - 1 {
                    0 => made,
                    k => self.alloc(skip(k, bits << (depth + 1), made)),
                };
                self.nodes[at].children[bit_at(bits, depth)] = first;
                return made as usize;
            } else {
                (at, depth) = (children[bit_at(bits, depth)] as usize, depth + 1);
            }
        }
    }

    /// Turns the skip node at `at` into a branching node `i` bits down: in
    /// place when `i` is 0, under a skip node over the first `i` otherwise.
    fn split(&mut self, at: usize, i: u8) {
        let Node { children, value } = self.nodes[at];
        let (to, bits, k) = (children[0], children[1], value as u8);
        let mut node = EMPTY;
        node.children[bit_at(bits, i)] = match k - i - 1 {
            0 => to,
            rest => self.alloc(skip(rest, bits << (i + 1), to)),
        };
        self.nodes[at] = match i {
            0 => node,
            _ => skip(i, bits, self.alloc(node)),
        };
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut value = Some(value);
        let (held, _) = self.get_or_insert_with(prefix, || value.take().expect("made once"));
        value.map(|value| std::mem::replace(held, value))
    }

    /// The value at `prefix`, which `make` supplies if there is none, and
    /// whether it did: an insert-or-update in one walk.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Prefix,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        let at = self.make(&prefix);
        let made = self.nodes[at].value == NONE;
        if made {
            self.nodes[at].value = push(&mut self.values, make()) as u32;
            push(&mut self.owners, at as u32);
        }
        (&mut self.values[self.nodes[at].value as usize], made)
    }

    /// Removes the value at exactly `prefix`, pruning empty branches onto
    /// the free list.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let (bits, len) = (prefix.network_bits(), prefix.len());
        let (mut trail, mut n) = ([(0, 0); 33], 0);
        self.descend(bits, len, |depth, at| {
            trail[n] = (at as usize, depth);
            n += 1;
        });
        let (at, depth) = trail[n.checked_sub(1)?];
        if depth != len || skip_len(&self.nodes[at]).is_some() {
            return None;
        }
        let index = std::mem::replace(&mut self.nodes[at].value, NONE);
        if index == NONE {
            return None;
        }
        let out = self.values.swap_remove(index as usize);
        self.owners.swap_remove(index as usize);
        if let Some(&moved) = self.owners.get(index as usize) {
            self.nodes[moved as usize].value = index;
        }
        // An empty branching node goes, and a skip node down to it with it.
        for i in (1..n).rev() {
            let (at, _) = trail[i];
            if self.nodes[at].value != NONE || self.nodes[at].children != [0, 0] {
                break;
            }
            let (parent, depth) = trail[i - 1];
            match skip_len(&self.nodes[parent]) {
                Some(_) => self.nodes[parent] = EMPTY,
                None => self.nodes[parent].children[bit_at(bits, depth)] = 0,
            }
            self.nodes[at].children[0] = std::mem::replace(&mut self.free, at as u32);
        }
        Some(out)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        self.values
            .get(self.nodes[self.find(prefix)?].value as usize)
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let value = self.nodes[self.find(prefix)?].value;
        self.values.get_mut(value as usize)
    }

    /// The value index at node `at`, if it holds one.
    fn held(&self, at: u32) -> Option<u32> {
        Some(self.nodes[at as usize].value).filter(|value| *value < SKIP)
    }

    /// All stored prefixes covering `ip`, from least to most specific.
    pub fn matches(&self, ip: Ipv4Addr) -> Vec<(Prefix, &V)> {
        let (bits, mut out) = (u32::from(ip), Vec::new());
        self.descend(bits, 32, |depth, at| {
            if let Some(value) = self.held(at) {
                out.push((Prefix::from_bits(bits, depth), &self.values[value as usize]));
            }
        });
        out
    }

    /// Longest-prefix-match: the most specific stored prefix covering `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(Prefix, &V)> {
        let (bits, mut best) = (u32::from(ip), None);
        self.descend(bits, 32, |depth, at| {
            best = self.held(at).map(|value| (depth, value)).or(best);
        });
        let (depth, value) = best?;
        Some((Prefix::from_bits(bits, depth), &self.values[value as usize]))
    }

    /// The stored prefixes at and below `from` — a node, the bits above
    /// it, its depth — in trie (lexicographic) order, each with its value's
    /// index; with `prune`, none below another one under `from`. An
    /// explicit stack of 33 entries, held inline so a walk allocates
    /// nothing: a level holds at most one node waiting for its sibling.
    fn walk(
        &self,
        from: Option<(u32, u32, u8)>,
        prune: bool,
    ) -> impl Iterator<Item = (Prefix, u32)> + '_ {
        let mut stack = [(0, 0, 0); 33];
        stack[0] = from.unwrap_or_default();
        let mut len = usize::from(from.is_some());
        let top = from.map_or(0, |(_, _, depth)| depth);
        std::iter::from_fn(move || loop {
            len = len.checked_sub(1)?;
            let (at, bits, depth) = stack[len];
            let node = &self.nodes[at as usize];
            if let Some(k) = skip_len(node) {
                stack[len] = (
                    node.children[0],
                    bits | node.children[1] >> depth,
                    depth + k,
                );
                len += 1;
                continue;
            }
            let held = self.held(at);
            for b in [1, 0]
                .into_iter()
                .filter(|_| !(prune && held.is_some() && depth > top))
            {
                if node.children[b] != 0 {
                    let bits = bits | (b as u32) << (31 - u32::from(depth));
                    stack[len] = (node.children[b], bits, depth + 1);
                    len += 1;
                }
            }
            if let Some(value) = held {
                return Some((Prefix::from_bits(bits, depth), value));
            }
        })
    }

    /// Iterates all `(prefix, value)` pairs in trie (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let all = self.walk(self.nodes.first().map(|_| (0, 0, 0)), false);
        all.map(|(prefix, value)| (prefix, &self.values[value as usize]))
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
        let (bits, len) = (prefix.network_bits(), prefix.len());
        // The node at `prefix`, or a skip node that runs past it agreeing.
        let mut from = None;
        self.descend(bits, len, |depth, at| from = Some((at, bits, depth)));
        let from = from.filter(|&(at, _, depth)| {
            let node = &self.nodes[at as usize];
            match skip_len(node) {
                Some(k) => depth + k > len && agree(bits, depth, node.children[1], len - depth),
                None => depth == len,
            }
        });
        let below = self.walk(from, true).map(|(p, _)| p);
        below.filter(|p| p != prefix).collect()
    }
}

impl<V: PartialEq> PartialEq for PrefixTrie<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
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
        let made = t.arena_nodes();
        t.remove(&p("10.1.2.0/24"));
        // The root is back to pristine so lookups terminate immediately,
        // and the pruned branch is what the next insert is made of.
        assert_eq!(t.nodes[0].children, [0, 0]);
        t.insert(p("10.1.3.0/24"), ());
        assert_eq!((t.arena_nodes(), t.len()), (made, 1));
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
