//! Vendor configuration languages: a vendor-neutral IR plus two dialects.
//!
//! - [`ir`] — the neutral [`ir::DeviceConfig`] consumed by the vendor router
//!   implementations in `mfv-vrouter`.
//! - [`ceos`] — EOS-like industry-standard CLI (the paper's Fig. 3 dialect).
//! - [`vjunos`] — Junos-like hierarchical dialect (the second vendor).
//! - [`gen`] — generators producing realistic configs at paper scale.
//!
//! Parsing in this crate is *vendor-faithful*: it reproduces what the real
//! device accepts, independent of statement order. The deliberately partial,
//! assumption-laden parser lives in `mfv-model` — that contrast is the
//! paper's central argument.

pub mod ceos;
pub mod gen;
pub mod ir;
pub mod vjunos;

pub use ceos::{ParseError, ParseWarning, Parsed};
pub use gen::{
    add_production_boilerplate, classify_line, inject_misconfig, FeatureClass, IfaceSpec,
    InjectError, InjectionReport, RouterSpec, SeededMisconfig,
};
pub use ir::*;

/// Parses `text` in the given vendor's dialect.
pub fn parse(vendor: Vendor, text: &str) -> Result<Parsed, ParseError> {
    match vendor {
        Vendor::Ceos => ceos::parse(text),
        Vendor::Vjunos => vjunos::parse(text),
    }
}

/// Renders `cfg` in its own vendor's dialect.
pub fn render(cfg: &DeviceConfig) -> String {
    match cfg.vendor {
        Vendor::Ceos => ceos::render(cfg),
        Vendor::Vjunos => vjunos::render(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::AsNum;
    use std::net::Ipv4Addr;

    #[test]
    fn dispatch_by_vendor() {
        let spec = gen::RouterSpec::new("x", AsNum(65000), Ipv4Addr::new(1, 1, 1, 1));
        for vendor in [Vendor::Ceos, Vendor::Vjunos] {
            let cfg = spec.clone().vendor(vendor).build();
            let text = render(&cfg);
            let parsed = parse(vendor, &text).unwrap();
            assert_eq!(&*parsed.config.hostname, "x");
            assert_eq!(parsed.config.vendor, vendor);
        }
    }
}
