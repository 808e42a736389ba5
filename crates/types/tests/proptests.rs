//! Property-based tests for the core data structures: the LPM trie is checked
//! against a naive linear-scan oracle, and the header-space algebra against
//! textbook set identities.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;

use mfv_types::{IpSet, Prefix, PrefixTrie};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::from_bits(bits, len))
}

fn arb_ipset() -> impl Strategy<Value = IpSet> {
    proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8)
        .prop_map(|pairs| IpSet::from_ranges(pairs.into_iter().map(|(a, b)| (a.min(b), a.max(b)))))
}

/// Prefixes from a small space, so that operations meet the same prefix
/// and nest inside one another: the top three and bottom three bits vary.
fn arb_dense_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..8, 0u32..8, 0u8..=32).prop_map(|(hi, lo, len)| Prefix::from_bits(hi << 29 | lo, len))
}

/// The topmost stored strict descendants of `p` in `model`, by definition.
fn model_max_descendants(model: &BTreeMap<Prefix, u32>, p: &Prefix) -> Vec<Prefix> {
    let below = |outer: &Prefix, q: &Prefix| outer != q && outer.covers(q);
    let inside: Vec<&Prefix> = model.keys().filter(|q| below(p, q)).collect();
    let topmost = inside
        .iter()
        .filter(|q| !inside.iter().any(|r| below(r, q)));
    topmost.map(|q| **q).collect()
}

/// Naive LPM oracle: scan all prefixes, keep the longest that covers `ip`.
fn linear_lpm(prefixes: &[(Prefix, usize)], ip: Ipv4Addr) -> Option<usize> {
    prefixes
        .iter()
        .filter(|(p, _)| p.contains(ip))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, v)| *v)
}

proptest! {
    #[test]
    fn trie_lpm_matches_linear_scan(
        entries in proptest::collection::vec(arb_prefix(), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        // Deduplicate: on duplicate prefix the trie keeps the last value, so
        // index by prefix to build an order-independent oracle.
        let mut tagged: Vec<(Prefix, usize)> = Vec::new();
        let mut trie = PrefixTrie::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i);
            tagged.retain(|(q, _)| q != p);
            tagged.push((*p, i));
        }
        prop_assert_eq!(trie.len(), tagged.len());
        for probe in probes {
            let ip = Ipv4Addr::from(probe);
            let got = trie.lookup(ip).map(|(_, v)| *v);
            let want = linear_lpm(&tagged, ip);
            prop_assert_eq!(got, want, "probe {}", ip);
        }
    }

    #[test]
    fn trie_remove_restores_oracle(
        entries in proptest::collection::vec(arb_prefix(), 1..30),
        remove_mask in proptest::collection::vec(any::<bool>(), 1..30),
        probe in any::<u32>(),
    ) {
        let mut trie = PrefixTrie::new();
        let mut kept: Vec<(Prefix, usize)> = Vec::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i);
            kept.retain(|(q, _)| q != p);
            kept.push((*p, i));
        }
        for (i, p) in entries.iter().enumerate() {
            if *remove_mask.get(i).unwrap_or(&false) {
                trie.remove(p);
                kept.retain(|(q, _)| q != p);
            }
        }
        let ip = Ipv4Addr::from(probe);
        prop_assert_eq!(trie.lookup(ip).map(|(_, v)| *v), linear_lpm(&kept, ip));
        prop_assert_eq!(trie.len(), kept.len());
    }

    #[test]
    fn trie_arena_follows_a_map_model(
        ops in proptest::collection::vec((0u8..4, arb_dense_prefix(), any::<u32>()), 1..80),
        probes in proptest::collection::vec((any::<u32>(), arb_dense_prefix()), 1..12),
    ) {
        let (mut trie, mut model) = (PrefixTrie::new(), BTreeMap::new());
        for (kind, p, v) in ops {
            match kind {
                0 => prop_assert_eq!(trie.insert(p, v), model.insert(p, v)),
                1 => prop_assert_eq!(trie.remove(&p), model.remove(&p)),
                2 => {
                    let (got, made) = trie.get_or_insert_with(p, || v);
                    prop_assert_eq!(made, !model.contains_key(&p));
                    prop_assert_eq!(*got, *model.entry(p).or_insert(v));
                }
                _ => {
                    if let Some(got) = trie.get_mut(&p) {
                        *got = v;
                    }
                    if let Some(want) = model.get_mut(&p) {
                        *want = v;
                    }
                }
            }
            prop_assert_eq!(trie.len(), model.len());
        }
        let walked: Vec<(Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        let listed: Vec<(Prefix, u32)> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(walked, listed.clone());
        for (probe, p) in probes {
            prop_assert_eq!(trie.get(&p), model.get(&p));
            let ip = Ipv4Addr::from(probe | p.network_bits());
            let covering: Vec<(Prefix, u32)> = {
                let mut c: Vec<(Prefix, u32)> =
                    listed.iter().filter(|(q, _)| q.contains(ip)).copied().collect();
                c.sort_by_key(|(q, _)| q.len());
                c
            };
            let matched: Vec<(Prefix, u32)> = trie.matches(ip).into_iter().map(|(q, v)| (q, *v)).collect();
            prop_assert_eq!(trie.lookup(ip).map(|(q, v)| (q, *v)), covering.last().copied());
            prop_assert_eq!(matched, covering);
            prop_assert_eq!(trie.max_descendants(&p), model_max_descendants(&model, &p));
        }
        // Emptied and refilled with the same set, the arena is reused.
        let made = trie.arena_nodes();
        for (p, _) in &listed {
            trie.remove(p);
        }
        prop_assert!(trie.is_empty());
        for (p, v) in &listed {
            trie.insert(*p, *v);
        }
        prop_assert_eq!(trie.arena_nodes(), made);
        prop_assert_eq!(trie.len(), listed.len());
    }

    #[test]
    fn ipset_partition_invariant(a in arb_ipset(), b in arb_ipset()) {
        // (a ∩ b) ∪ (a \ b) == a, and the two parts are disjoint.
        let inter = a.intersect(&b);
        let diff = a.subtract(&b);
        prop_assert_eq!(inter.union(&diff), a.clone());
        prop_assert!(inter.intersect(&diff).is_empty());
        prop_assert_eq!(inter.count() + diff.count(), a.count());
    }

    #[test]
    fn ipset_de_morgan(a in arb_ipset(), b in arb_ipset()) {
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersect(&b.complement());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn ipset_ops_commute(a in arb_ipset(), b in arb_ipset()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn ipset_subtract_then_disjoint(a in arb_ipset(), b in arb_ipset()) {
        let diff = a.subtract(&b);
        prop_assert!(diff.intersect(&b).is_empty());
        // Everything removed was in b.
        prop_assert_eq!(a.subtract(&diff), a.intersect(&b));
    }

    #[test]
    fn ipset_complement_involution(a in arb_ipset()) {
        prop_assert_eq!(a.complement().complement(), a.clone());
        prop_assert_eq!(a.count() + a.complement().count(), 1u64 << 32);
    }

    #[test]
    fn ipset_prefix_decomposition_roundtrip(a in arb_ipset()) {
        let mut acc = IpSet::empty();
        for p in a.to_prefixes() {
            acc = acc.union(&IpSet::from_prefix(&p));
        }
        prop_assert_eq!(acc, a);
    }

    #[test]
    fn ipset_membership_agrees_with_ops(a in arb_ipset(), b in arb_ipset(), probe in any::<u32>()) {
        let ip = Ipv4Addr::from(probe);
        let in_a = a.contains(ip);
        let in_b = b.contains(ip);
        prop_assert_eq!(a.union(&b).contains(ip), in_a || in_b);
        prop_assert_eq!(a.intersect(&b).contains(ip), in_a && in_b);
        prop_assert_eq!(a.subtract(&b).contains(ip), in_a && !in_b);
        prop_assert_eq!(a.complement().contains(ip), !in_a);
    }

    #[test]
    fn prefix_cover_agrees_with_sets(a in arb_prefix(), b in arb_prefix()) {
        let sa = IpSet::from_prefix(&a);
        let sb = IpSet::from_prefix(&b);
        prop_assert_eq!(a.covers(&b), sb.subtract(&sa).is_empty());
        prop_assert_eq!(a.overlaps(&b), !sa.intersect(&sb).is_empty());
    }
}
