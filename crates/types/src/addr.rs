//! IPv4 prefixes and interface addresses.
//!
//! All addressing in the workspace is IPv4: the paper's evaluation topologies
//! are IPv4-only (`address-family ipv4 unicast`), and a single family keeps
//! the header-space algebra exact.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Error produced when parsing a [`Prefix`] or [`IfaceAddr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

/// An IPv4 CIDR prefix, stored canonically (host bits zeroed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// Network address with host bits cleared.
    addr: u32,
    /// Prefix length, 0..=32.
    len: u8,
}

impl Prefix {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: 0, len: 0 };

    /// Builds a prefix from an address and length, zeroing host bits.
    ///
    /// Lengths above 32 are clamped to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Prefix {
        let len = len.min(32);
        let bits = u32::from(addr) & Self::mask_of(len);
        Prefix { addr: bits, len }
    }

    /// Builds a host prefix (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Prefix {
        Prefix::new(addr, 32)
    }

    /// Builds a prefix from raw `u32` bits and a length, zeroing host bits.
    pub fn from_bits(bits: u32, len: u8) -> Prefix {
        let len = len.min(32);
        Prefix {
            addr: bits & Self::mask_of(len),
            len,
        }
    }

    fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Network address of the prefix.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Network address as raw bits.
    pub fn network_bits(&self) -> u32 {
        self.addr
    }

    /// Prefix length. (`is_empty` is meaningless for a prefix; a /0 still
    /// matches everything.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length default route.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The netmask as raw bits (e.g. `/24` → `0xffff_ff00`).
    fn mask_bits(&self) -> u32 {
        Self::mask_of(self.len)
    }

    /// First address covered by the prefix.
    pub fn first(&self) -> u32 {
        self.addr
    }

    /// Last address covered by the prefix.
    pub fn last(&self) -> u32 {
        self.addr | !Self::mask_of(self.len)
    }

    /// Does this prefix cover `ip`?
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & self.mask_bits()) == self.addr
    }

    /// Does this prefix cover every address of `other`?
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && (other.addr & self.mask_bits()) == self.addr
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The two halves of this prefix, or `None` for a `/32`.
    pub fn children(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let left = Prefix {
            addr: self.addr,
            len: self.len + 1,
        };
        let right = Prefix {
            addr: self.addr | (1 << (31 - self.len as u32)),
            len: self.len + 1,
        };
        Some((left, right))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixParseError(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError(s.to_string()))?;
        if len > 32 {
            return Err(PrefixParseError(s.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

impl Serialize for Prefix {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for Prefix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

/// An address assigned to an interface: the full host address *and* the
/// subnet length (`100.64.0.1/31`), as written in device configs.
///
/// Unlike [`Prefix`], host bits are preserved — `IfaceAddr` knows which
/// address on the subnet is ours.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IfaceAddr {
    /// The interface's own address (host bits preserved).
    pub addr: Ipv4Addr,
    /// Subnet prefix length.
    pub len: u8,
}

impl IfaceAddr {
    /// Builds an interface address, clamping the length to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> IfaceAddr {
        IfaceAddr {
            addr,
            len: len.min(32),
        }
    }

    /// The connected subnet as a canonical [`Prefix`].
    pub fn subnet(&self) -> Prefix {
        Prefix::new(self.addr, self.len)
    }

    /// Is `other` on the same subnet (a valid directly-connected neighbor)?
    pub fn same_subnet(&self, other: &IfaceAddr) -> bool {
        self.len == other.len && self.subnet() == other.subnet()
    }
}

impl fmt::Debug for IfaceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Display for IfaceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for IfaceAddr {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixParseError(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError(s.to_string()))?;
        if len > 32 {
            return Err(PrefixParseError(s.to_string()));
        }
        Ok(IfaceAddr { addr, len })
    }
}

impl Serialize for IfaceAddr {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for IfaceAddr {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let pre = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 24);
        assert_eq!(pre.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "100.64.0.0/31", "2.2.2.1/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0/8".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn contains_and_covers() {
        let net = p("192.168.0.0/16");
        assert!(net.contains(Ipv4Addr::new(192, 168, 44, 7)));
        assert!(!net.contains(Ipv4Addr::new(192, 169, 0, 1)));
        assert!(net.covers(&p("192.168.5.0/24")));
        assert!(!p("192.168.5.0/24").covers(&net));
        assert!(net.covers(&net));
    }

    #[test]
    fn overlap_is_symmetric() {
        let a = p("10.0.0.0/8");
        let b = p("10.20.0.0/16");
        let c = p("11.0.0.0/8");
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    fn first_last_bounds() {
        let net = p("10.0.0.0/30");
        assert_eq!(net.first(), u32::from(Ipv4Addr::new(10, 0, 0, 0)));
        assert_eq!(net.last(), u32::from(Ipv4Addr::new(10, 0, 0, 3)));
        let def = Prefix::DEFAULT;
        assert_eq!(def.first(), 0);
        assert_eq!(def.last(), u32::MAX);
    }

    #[test]
    fn children_split_evenly() {
        let net = p("10.0.0.0/8");
        let (l, r) = net.children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn iface_addr_subnet_and_neighbor() {
        let a: IfaceAddr = "100.64.0.1/31".parse().unwrap();
        let b: IfaceAddr = "100.64.0.0/31".parse().unwrap();
        assert_eq!(a.subnet(), p("100.64.0.0/31"));
        assert!(a.same_subnet(&b));
        let c: IfaceAddr = "100.64.0.2/31".parse().unwrap();
        assert!(!a.same_subnet(&c));
    }

    #[test]
    fn iface_addr_preserves_host_bits() {
        let a: IfaceAddr = "10.1.2.3/24".parse().unwrap();
        assert_eq!(a.to_string(), "10.1.2.3/24");
        assert_eq!(a.subnet().to_string(), "10.1.2.0/24");
    }

    #[test]
    fn serde_roundtrip() {
        let a = p("10.12.0.0/14");
        let js = serde_json::to_string(&a).unwrap();
        assert_eq!(js, "\"10.12.0.0/14\"");
        let back: Prefix = serde_json::from_str(&js).unwrap();
        assert_eq!(a, back);
    }
}
