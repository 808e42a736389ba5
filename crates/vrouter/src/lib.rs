//! Virtual vendor routers — the emulation substitute for vendor container
//! images (cEOS, vJunos) in the paper's KNE deployment.
//!
//! A [`VirtualRouter`] is built from a parsed [`mfv_config::DeviceConfig`]
//! and a [`VendorProfile`]; it runs real protocol engines over byte-encoded
//! messages, maintains a RIB/FIB, exposes a vendor-flavoured CLI
//! ([`cli::exec`]), and can carry injectable vendor bugs ([`VendorBugs`])
//! that reproduce the paper's production incident classes.

pub mod cli;
pub mod profile;
pub mod router;

pub use profile::{VendorBugs, VendorProfile};
pub use router::{FibEpoch, RouterEvent, RouterState, VirtualRouter};
