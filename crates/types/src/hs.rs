//! Header-space algebra.
//!
//! The verification engine reasons about *sets of packets* rather than
//! individual probes, which is what makes its search exhaustive (the paper's
//! Differential Reachability query "exhaustively compares network paths for
//! all possible packets"). [`IpSet`] is an exact set of IPv4 addresses
//! represented as sorted, disjoint, inclusive ranges.
//!
//! Every FIB in this system forwards on destination address only, so the
//! per-hop transformation partitions the *destination* dimension and a
//! packet class is just an [`IpSet`] of destinations.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::addr::Prefix;

/// An inclusive range of IPv4 addresses (as raw `u32`s).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IpRange {
    pub lo: u32,
    pub hi: u32,
}

impl fmt::Debug for IpRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}-{}]",
            Ipv4Addr::from(self.lo),
            Ipv4Addr::from(self.hi)
        )
    }
}

/// An exact set of IPv4 addresses: sorted, disjoint, non-adjacent inclusive
/// ranges. The canonical form makes equality structural.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct IpSet {
    ranges: Vec<IpRange>,
}

impl IpSet {
    /// The empty set.
    pub fn empty() -> IpSet {
        IpSet { ranges: Vec::new() }
    }

    /// The full IPv4 space.
    pub fn full() -> IpSet {
        IpSet {
            ranges: vec![IpRange {
                lo: 0,
                hi: u32::MAX,
            }],
        }
    }

    /// A single address.
    pub fn single(ip: Ipv4Addr) -> IpSet {
        let v = u32::from(ip);
        IpSet {
            ranges: vec![IpRange { lo: v, hi: v }],
        }
    }

    /// All addresses covered by `prefix`.
    pub fn from_prefix(prefix: &Prefix) -> IpSet {
        IpSet {
            ranges: vec![IpRange {
                lo: prefix.first(),
                hi: prefix.last(),
            }],
        }
    }

    /// Builds from arbitrary (possibly overlapping, unsorted) ranges.
    pub fn from_ranges(ranges: impl IntoIterator<Item = (u32, u32)>) -> IpSet {
        let mut rs: Vec<IpRange> = ranges
            .into_iter()
            .filter(|(lo, hi)| lo <= hi)
            .map(|(lo, hi)| IpRange { lo, hi })
            .collect();
        rs.sort();
        let mut out: Vec<IpRange> = Vec::with_capacity(rs.len());
        for r in rs {
            match out.last_mut() {
                // Merge overlapping or adjacent ranges into canonical form.
                Some(last) if r.lo <= last.hi.saturating_add(1) => {
                    last.hi = last.hi.max(r.hi);
                }
                _ => out.push(r),
            }
        }
        IpSet { ranges: out }
    }

    /// The canonical ranges (sorted, disjoint, non-adjacent).
    pub fn ranges(&self) -> &[IpRange] {
        &self.ranges
    }

    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of addresses in the set (fits in u64: ≤ 2^32).
    pub fn count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|r| (r.hi as u64) - (r.lo as u64) + 1)
            .sum()
    }

    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        let v = u32::from(ip);
        self.ranges
            .binary_search_by(|r| {
                if v < r.lo {
                    std::cmp::Ordering::Greater
                } else if v > r.hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Set union.
    pub fn union(&self, other: &IpSet) -> IpSet {
        IpSet::from_ranges(
            self.ranges
                .iter()
                .chain(other.ranges.iter())
                .map(|r| (r.lo, r.hi)),
        )
    }

    /// Set intersection (linear two-pointer merge).
    pub fn intersect(&self, other: &IpSet) -> IpSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = self.ranges[i];
            let b = other.ranges[j];
            let lo = a.lo.max(b.lo);
            let hi = a.hi.min(b.hi);
            if lo <= hi {
                out.push(IpRange { lo, hi });
            }
            if a.hi < b.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Output of the merge is already sorted/disjoint, but ranges split at
        // adjacency boundaries must be re-merged for canonical form.
        IpSet::from_ranges(out.into_iter().map(|r| (r.lo, r.hi)))
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &IpSet) -> IpSet {
        let mut out: Vec<IpRange> = Vec::new();
        let mut j = 0;
        for &a in &self.ranges {
            let mut lo = a.lo;
            // Skip subtrahend ranges entirely below this range.
            while j < other.ranges.len() && other.ranges[j].hi < a.lo {
                j += 1;
            }
            let mut k = j;
            let mut done = false;
            while k < other.ranges.len() && other.ranges[k].lo <= a.hi {
                let b = other.ranges[k];
                if b.lo > lo {
                    out.push(IpRange { lo, hi: b.lo - 1 });
                }
                if b.hi >= a.hi {
                    done = true;
                    break;
                }
                lo = b.hi + 1;
                k += 1;
            }
            if !done && lo <= a.hi {
                out.push(IpRange { lo, hi: a.hi });
            }
        }
        IpSet::from_ranges(out.into_iter().map(|r| (r.lo, r.hi)))
    }

    /// Set complement within the full IPv4 space.
    pub fn complement(&self) -> IpSet {
        IpSet::full().subtract(self)
    }

    /// Decomposes the set into a minimal list of CIDR prefixes. Useful for
    /// reporting ("these destinations lost reachability") in config-speak.
    pub fn to_prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        for r in &self.ranges {
            let mut lo = r.lo as u64;
            let hi = r.hi as u64;
            while lo <= hi {
                // Largest power-of-two block aligned at `lo` that fits.
                let align = if lo == 0 { 33 } else { lo.trailing_zeros() };
                let mut size = 1u64 << align.min(32);
                while lo + size - 1 > hi {
                    size >>= 1;
                }
                let len = 32 - size.trailing_zeros() as u8;
                out.push(Prefix::from_bits(lo as u32, len));
                lo += size;
            }
        }
        out
    }
}

impl fmt::Debug for IpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ranges.len() == 1 && self.ranges[0].lo == 0 && self.ranges[0].hi == u32::MAX {
            return write!(f, "IpSet(*)");
        }
        write!(f, "IpSet{:?}", self.ranges)
    }
}

impl fmt::Display for IpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let prefixes = self.to_prefixes();
        // Keep reports readable: show at most 4 prefixes.
        let shown: Vec<String> = prefixes.iter().take(4).map(|p| p.to_string()).collect();
        write!(f, "{}", shown.join(", "))?;
        if prefixes.len() > 4 {
            write!(f, ", … ({} prefixes)", prefixes.len())?;
        }
        Ok(())
    }
}

impl From<Prefix> for IpSet {
    fn from(p: Prefix) -> Self {
        IpSet::from_prefix(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ranges: &[(u32, u32)]) -> IpSet {
        IpSet::from_ranges(ranges.iter().copied())
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalization_merges_overlaps_and_adjacency() {
        let s = set(&[(10, 20), (15, 30), (31, 40), (50, 60)]);
        assert_eq!(
            s.ranges(),
            &[IpRange { lo: 10, hi: 40 }, IpRange { lo: 50, hi: 60 }]
        );
        assert_eq!(s.count(), 31 + 11);
    }

    #[test]
    fn empty_and_full() {
        assert!(IpSet::empty().is_empty());
        assert_eq!(IpSet::full().count(), 1u64 << 32);
        assert_eq!(IpSet::full().complement(), IpSet::empty());
        assert_eq!(IpSet::empty().complement(), IpSet::full());
    }

    #[test]
    fn union_intersect_subtract_basics() {
        let a = set(&[(0, 100)]);
        let b = set(&[(50, 150)]);
        assert_eq!(a.union(&b), set(&[(0, 150)]));
        assert_eq!(a.intersect(&b), set(&[(50, 100)]));
        assert_eq!(a.subtract(&b), set(&[(0, 49)]));
        assert_eq!(b.subtract(&a), set(&[(101, 150)]));
    }

    #[test]
    fn subtract_punches_holes() {
        let a = set(&[(0, 1000)]);
        let b = set(&[(100, 199), (300, 399)]);
        assert_eq!(a.subtract(&b), set(&[(0, 99), (200, 299), (400, 1000)]));
    }

    #[test]
    fn subtract_across_multiple_minuend_ranges() {
        let a = set(&[(0, 10), (20, 30), (40, 50)]);
        let b = set(&[(5, 45)]);
        assert_eq!(a.subtract(&b), set(&[(0, 4), (46, 50)]));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = set(&[(0, 10)]);
        let b = set(&[(20, 30)]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = set(&[(10, 20), (100, 200), (1000, 1000)]);
        assert!(s.contains(Ipv4Addr::from(15u32)));
        assert!(s.contains(Ipv4Addr::from(1000u32)));
        assert!(!s.contains(Ipv4Addr::from(21u32)));
        assert!(!s.contains(Ipv4Addr::from(999u32)));
    }

    #[test]
    fn from_prefix_and_back() {
        let s = IpSet::from_prefix(&p("10.0.0.0/8"));
        assert_eq!(s.count(), 1 << 24);
        assert_eq!(s.to_prefixes(), vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn to_prefixes_decomposes_unaligned_range() {
        // 1..=6 = 1/32, 2/31, 4/31, 6/32
        let s = set(&[(1, 6)]);
        let lens: Vec<u8> = s.to_prefixes().iter().map(|p| p.len()).collect();
        assert_eq!(lens, vec![32, 31, 31, 32]);
        // Round trip: union of resulting prefixes is the original set.
        let mut acc = IpSet::empty();
        for pre in s.to_prefixes() {
            acc = acc.union(&IpSet::from_prefix(&pre));
        }
        assert_eq!(acc, s);
    }

    #[test]
    fn to_prefixes_handles_full_space() {
        assert_eq!(IpSet::full().to_prefixes(), vec![p("0.0.0.0/0")]);
    }

    #[test]
    fn boundary_at_u32_max() {
        let s = set(&[(u32::MAX - 1, u32::MAX)]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.complement().count(), (1u64 << 32) - 2);
        assert!(s.contains(Ipv4Addr::from(u32::MAX)));
    }
}
