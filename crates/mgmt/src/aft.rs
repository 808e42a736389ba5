//! OpenConfig-style Abstract Forwarding Table (AFT) data model.
//!
//! The model-free pipeline's extraction step: after convergence, each
//! router's FIB is dumped "in the common OpenConfig data models, which all
//! vendor images now support, allowing this step to be fully vendor-agnostic"
//! (§4.1). The structure below mirrors the `openconfig-aft` split into
//! entries → next-hop-groups → next-hops, keyed exactly as gNMI paths would
//! key them, and round-trips through JSON.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
use mfv_types::{IfaceId, Prefix, RouteProtocol};

/// One `ipv4-unicast` AFT entry.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AftIpv4Entry {
    pub prefix: Prefix,
    /// Reference into [`Aft::next_hop_groups`].
    pub next_hop_group: u64,
    /// Origin protocol (an `openconfig-aft` state leaf).
    pub origin_protocol: RouteProtocol,
}

/// A next-hop group: a set of next-hop ids (ECMP members).
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct AftNextHopGroup {
    pub id: u64,
    pub next_hops: Vec<u64>,
}

/// One concrete next hop.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AftNextHop {
    pub id: u64,
    /// Egress interface name, shared with the FIB's next hop.
    pub interface: IfaceId,
    /// Gateway address; absent for directly-attached destinations.
    pub ip_address: Option<Ipv4Addr>,
}

/// A device's complete AFT snapshot.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Aft {
    pub ipv4_unicast: Vec<AftIpv4Entry>,
    pub next_hop_groups: BTreeMap<u64, AftNextHopGroup>,
    pub next_hops: BTreeMap<u64, AftNextHop>,
}

impl Aft {
    /// Builds an AFT from a FIB, its next-hop groups the FIB's own: an
    /// entry's group is found by the FIB's group id, through a table
    /// indexed by it. Groups and next hops are numbered by first sight in
    /// FIB order (which keeps the round-trip exactly lossless); a next hop
    /// is first seen in a group that is itself new, so numbering hops only
    /// inside new groups gives the ids a lookup per hop would.
    pub fn from_fib(fib: &Fib) -> Aft {
        let mut aft = Aft::default();
        aft.ipv4_unicast.reserve(fib.len());
        let mut nh_ids: BTreeMap<&FibNextHop, u64> = BTreeMap::new();
        // Each FIB group's AFT id; 0: not seen yet.
        let mut group_ids = vec![0u64; fib.group_ids()];

        for entry in fib.entries() {
            let Some(gid) = group_ids.get_mut(entry.group as usize) else {
                continue; // every group id is below `group_ids()`
            };
            if *gid == 0 {
                *gid = aft.next_hop_groups.len() as u64 + 1;
                let next_hops = entry.next_hops.iter().map(|nh| {
                    let next_id = nh_ids.len() as u64 + 1;
                    let id = *nh_ids.entry(nh).or_insert(next_id);
                    if id == next_id {
                        aft.next_hops.insert(
                            id,
                            AftNextHop {
                                id,
                                interface: nh.iface.clone(),
                                ip_address: nh.via,
                            },
                        );
                    }
                    id
                });
                let group = AftNextHopGroup {
                    id: *gid,
                    next_hops: next_hops.collect(),
                };
                aft.next_hop_groups.insert(*gid, group);
            }
            aft.ipv4_unicast.push(AftIpv4Entry {
                prefix: entry.prefix,
                next_hop_group: *gid,
                origin_protocol: entry.proto,
            });
        }
        aft
    }

    /// The FIB entries the AFT describes, in its order. Each next-hop group
    /// becomes one set that its entries share; an unknown next-hop id
    /// resolves to nothing and an unknown group to the empty set, so a
    /// dangling reference is a discard.
    fn entries(&self) -> impl Iterator<Item = FibEntry> + '_ {
        let next_hop = |id| self.next_hops.get(id);
        let sets: BTreeMap<u64, Arc<[FibNextHop]>> = self
            .next_hop_groups
            .iter()
            .map(|(gid, group)| {
                let hops = group.next_hops.iter().filter_map(next_hop);
                let set = hops.map(|nh| FibNextHop {
                    iface: nh.interface.clone(),
                    via: nh.ip_address,
                });
                (*gid, set.collect())
            })
            .collect();
        let empty: Arc<[FibNextHop]> = Arc::default();
        self.ipv4_unicast.iter().map(move |e| FibEntry {
            prefix: e.prefix,
            proto: e.origin_protocol,
            next_hops: Arc::clone(sets.get(&e.next_hop_group).unwrap_or(&empty)),
        })
    }

    /// Reconstructs the FIB from the AFT (the verifier-side ingestion: the
    /// paper's 3,300-line Batfish modification is exactly this step).
    pub fn to_fib(&self) -> Fib {
        let mut fib = Fib::new();
        for entry in self.entries() {
            fib.insert(entry);
        }
        fib
    }

    /// The entries of [`to_fib`](Self::to_fib) in its iteration order,
    /// without building the trie: sorted by prefix (the trie's pre-order is
    /// `Prefix`'s derived order), a repeated prefix keeping its last entry.
    pub fn fib_entries(&self) -> Vec<FibEntry> {
        let mut entries: Vec<FibEntry> = self.entries().collect();
        entries.sort_by_key(|e| e.prefix);
        // `dedup_by` drops the later of two equal neighbours; swapping
        // first makes the survivor the last one inserted, as in the trie.
        entries.dedup_by(|later, kept| {
            let same = later.prefix == kept.prefix;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        entries
    }

    /// Number of ipv4 entries.
    pub fn len(&self) -> usize {
        self.ipv4_unicast.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ipv4_unicast.is_empty()
    }

    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    pub fn from_json(s: &str) -> Result<Aft, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib() -> Fib {
        let mut fib = Fib::new();
        fib.insert(FibEntry {
            prefix: "10.0.0.0/31".parse().unwrap(),
            proto: RouteProtocol::Connected,
            next_hops: Arc::new([FibNextHop {
                iface: "eth0".into(),
                via: None,
            }]),
        });
        fib.insert(FibEntry {
            prefix: "2.2.2.2/32".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: Arc::new([FibNextHop {
                iface: "eth0".into(),
                via: Some("10.0.0.1".parse().unwrap()),
            }]),
        });
        fib.insert(FibEntry {
            prefix: "2.2.2.3/32".parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: Arc::new([FibNextHop {
                iface: "eth0".into(),
                via: Some("10.0.0.1".parse().unwrap()),
            }]),
        });
        fib
    }

    #[test]
    fn fib_aft_fib_roundtrip() {
        let original = fib();
        let aft = Aft::from_fib(&original);
        let back = aft.to_fib();
        assert!(back.same_as(&original));
    }

    #[test]
    fn shared_next_hops_are_deduplicated() {
        let aft = Aft::from_fib(&fib());
        // Two IS-IS routes share one (iface, via) → 2 distinct next hops
        // total, 2 groups (one with via, one without).
        assert_eq!(aft.next_hops.len(), 2);
        assert_eq!(aft.next_hop_groups.len(), 2);
        assert_eq!(aft.len(), 3);
    }

    #[test]
    fn json_roundtrip() {
        let aft = Aft::from_fib(&fib());
        let js = aft.to_json().unwrap();
        let back = Aft::from_json(&js).unwrap();
        assert_eq!(back, aft);
    }

    #[test]
    fn empty_fib_empty_aft() {
        let aft = Aft::from_fib(&Fib::new());
        assert!(aft.is_empty());
        assert!(aft.to_fib().is_empty());
    }

    #[test]
    fn discard_route_yields_empty_group() {
        let mut f = Fib::new();
        f.insert(FibEntry {
            prefix: "192.0.2.0/24".parse().unwrap(),
            proto: RouteProtocol::Static,
            next_hops: Arc::new([]),
        });
        let aft = Aft::from_fib(&f);
        let back = aft.to_fib();
        assert!(back.same_as(&f));
    }

    #[test]
    fn entries_of_one_group_share_its_set_and_a_dangling_group_is_a_discard() {
        let mut aft = Aft::from_fib(&fib());
        let entries = aft.fib_entries();
        // `fib()`'s two IS-IS routes leave through one group.
        assert_eq!(entries[0].next_hops, entries[1].next_hops);
        assert!(Arc::ptr_eq(&entries[0].next_hops, &entries[1].next_hops));
        assert!(!Arc::ptr_eq(&entries[0].next_hops, &entries[2].next_hops));

        for e in &mut aft.ipv4_unicast {
            e.next_hop_group = 99;
        }
        assert!(aft.fib_entries().iter().all(|e| e.next_hops.is_empty()));
        assert_eq!(aft.to_fib().len(), 3);
    }

    /// The reference `from_fib`: a lookup per next hop, a member list per
    /// entry, and the group looked up by that list.
    fn from_fib_per_hop(fib: &Fib) -> Aft {
        let mut aft = Aft::default();
        let mut nh_ids: BTreeMap<FibNextHop, u64> = BTreeMap::new();
        let mut group_ids: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        for entry in fib.entries() {
            let mut members = Vec::with_capacity(entry.next_hops.len());
            for nh in entry.next_hops.iter() {
                let next_id = nh_ids.len() as u64 + 1;
                let id = *nh_ids.entry(nh.clone()).or_insert(next_id);
                if id == next_id {
                    aft.next_hops.insert(
                        id,
                        AftNextHop {
                            id,
                            interface: nh.iface.clone(),
                            ip_address: nh.via,
                        },
                    );
                }
                members.push(id);
            }
            let next_gid = group_ids.len() as u64 + 1;
            let gid = *group_ids.entry(members.clone()).or_insert(next_gid);
            if gid == next_gid {
                aft.next_hop_groups.insert(
                    gid,
                    AftNextHopGroup {
                        id: gid,
                        next_hops: members,
                    },
                );
            }
            aft.ipv4_unicast.push(AftIpv4Entry {
                prefix: entry.prefix,
                next_hop_group: gid,
                origin_protocol: entry.proto,
            });
        }
        aft
    }

    proptest::proptest! {
        #[test]
        fn one_lookup_per_set_numbers_as_one_lookup_per_hop(
            pool in proptest::collection::vec(
                proptest::collection::vec((0u8..3, proptest::option::of(1u8..4)), 0..4),
                1..6,
            ),
            rows in proptest::collection::vec(
                (0u32..16, 0u8..6, 0usize..6, proptest::prelude::any::<bool>()),
                0..40,
            ),
        ) {
            // Rows pick a set from the pool, either sharing its allocation or
            // holding an equal copy; the pool may repeat a set, hold the
            // empty set, and repeat a next hop across sets.
            let pool: Vec<Arc<[FibNextHop]>> = pool
                .iter()
                .map(|hops| {
                    hops.iter()
                        .map(|&(iface, via)| FibNextHop {
                            iface: format!("eth{iface}").as_str().into(),
                            via: via.map(|h| std::net::Ipv4Addr::new(10, 0, 0, h)),
                        })
                        .collect()
                })
                .collect();
            let mut fib = Fib::new();
            for &(top, len, set, shared) in &rows {
                let set = &pool[set % pool.len()];
                fib.insert(FibEntry {
                    prefix: Prefix::from_bits(top << 28, len),
                    proto: RouteProtocol::Isis,
                    next_hops: if shared { Arc::clone(set) } else { set.to_vec().into() },
                });
            }
            proptest::prop_assert_eq!(Aft::from_fib(&fib), from_fib_per_hop(&fib));
        }
    }
}
