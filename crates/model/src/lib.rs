//! The model-based control-plane verification baseline — this workspace's
//! stand-in for Batfish's Incremental Batfish Dataplane (IBDP) model.
//!
//! Two deliberate properties distinguish it from the emulation path and are
//! the subject of the paper's experiments:
//!
//! 1. **Partial feature coverage** ([`parser`]): management daemons, MPLS,
//!    TE, RSVP, SSL profiles and more are outside the model; every such
//!    config line is counted (experiment E2).
//! 2. **Modeling assumptions that can be wrong** ([`parser`], Fig. 3 bugs;
//!    [`compute`], reference-only decision process): the switchport-ordering
//!    assumption silently drops interface addresses, changing the produced
//!    dataplane (experiment E3).

pub mod compute;
pub mod parser;

pub use compute::{compute, ModelResult};
pub use parser::{parse, CoverageReport, ModelParseError, UnrecognizedKind, UnrecognizedLine};

use mfv_dataplane::Dataplane;
use mfv_types::NodeId;

/// End-to-end model pipeline: parse every config with the model's grammar,
/// then compute the model dataplane. Returns the dataplane plus per-config
/// coverage reports (the E2 measurement).
pub fn model_dataplane(
    configs: &[(NodeId, String)],
) -> Result<(Dataplane, Vec<CoverageReport>), ModelParseError> {
    let mut parsed = Vec::with_capacity(configs.len());
    let mut reports = Vec::with_capacity(configs.len());
    for (name, text) in configs {
        let (mut cfg, mut report) = parser::parse(text)?;
        if cfg.hostname.is_empty() {
            cfg.hostname = name.as_str().into();
        }
        report.hostname = cfg.hostname.to_string();
        parsed.push((name.clone(), cfg));
        reports.push(report);
    }
    let result = compute::compute(parsed);
    Ok((result.dataplane, reports))
}
