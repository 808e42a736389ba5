//! Shared vocabulary types for the model-free verification stack.
//!
//! This crate is dependency-light and is used by every other crate in the
//! workspace. It provides:
//!
//! - IPv4 prefixes and interface addresses ([`Prefix`], [`IfaceAddr`])
//! - identifiers ([`RouterId`], [`AsNum`], [`NodeId`], [`IfaceId`], [`LinkId`])
//!   and deterministic interned `Copy` handles for node names
//!   ([`intern::Interner`], [`intern::NodeRef`]),
//!   and the one-copy-per-distinct-value store ([`intern::InternSet`])
//! - routing attribute types shared across protocol implementations
//!   ([`AsPath`], [`Community`], [`Origin`], [`AdminDistance`], …)
//! - a longest-prefix-match trie ([`trie::PrefixTrie`])
//! - a header-space algebra over IPv4 ranges ([`hs::IpSet`]) used by the
//!   exhaustive verification engine
//! - simulated-time primitives ([`time::SimTime`], [`time::SimDuration`])
//! - extraction provenance shared by the management plane and the verifier
//!   ([`status::ExtractionStatus`])

pub mod addr;
pub mod attrs;
pub mod hs;
pub mod ids;
pub mod intern;
pub mod status;
pub mod time;
pub mod trie;

pub use addr::{IfaceAddr, Prefix, PrefixParseError};
pub use attrs::{AdminDistance, AsPath, AsPathSegment, Community, Origin, RouteProtocol};
pub use hs::IpSet;
pub use ids::{AsNum, IfaceId, LinkId, NodeId, RouterId};
pub use intern::{InternSet, Interner, NodeRef};
pub use status::ExtractionStatus;
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;
