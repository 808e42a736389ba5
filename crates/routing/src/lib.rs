//! Routing protocol engines and the RIB/FIB substrate.
//!
//! Everything here is a poll-based state machine in the smoltcp style: no
//! clocks, no I/O, no threads. The vendor router shells in `mfv-vrouter`
//! own the engines, feed them decoded wire messages, and pump their outputs
//! into the emulated links.
//!
//! - [`rib`] — RIB candidate selection, FIB resolution (recursive next hops)
//! - [`policy`] — route-map evaluation over BGP attributes
//! - [`bgp`] — BGP-4: session FSM, decision process, update generation,
//!   vendor quirks ([`bgp::Quirks`])
//! - [`isis`] — IS-IS: p2p adjacencies, LSP flooding, SPF

pub mod bgp;
pub mod isis;
pub mod policy;
pub mod rib;

pub use bgp::{BgpEngine, NextHopResolver, Quirks, SessionState};
pub use isis::{IsisEngine, IsisEngineConfig, IsisIfaceConfig};
pub use policy::{BgpAttrs, PolicyResult};
pub use rib::{Fib, FibEntry, FibNextHop, NextHop, Rib, RibRoute};
