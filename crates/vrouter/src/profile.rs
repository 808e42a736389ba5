//! Vendor profiles: the behavioural differences between the two emulated
//! router OSes.
//!
//! The paper's core claim is that only *real implementations* expose
//! vendor-specific behaviour — default timers, decision-process quirks, and
//! outright bugs. A [`VendorProfile`] captures those per-vendor parameters;
//! [`VendorBugs`] additionally models injectable implementation defects used
//! by the experiments (all default-off).

use mfv_config::Vendor;
use mfv_routing::DecisionQuirks;
use mfv_types::SimDuration;

/// Injectable vendor implementation bugs. Each reproduces a bug class the
/// paper reports observing in production (§2 "Single separate
/// implementation").
#[derive(Clone, Copy, Debug, Default)]
pub struct VendorBugs {
    /// The routing process crashes while parsing an UPDATE that carries an
    /// unknown attribute with this type code — "an unusual but valid BGP
    /// advertisement caused another vendor's routing process to crash
    /// during parsing, leading to ... a partial network outage."
    pub crash_on_unknown_attr: Option<u8>,
    /// This OS attaches an unusual (but RFC-valid) optional-transitive
    /// attribute of the given type to every UPDATE it sends — the other half
    /// of the interplay bug above.
    pub emit_unusual_attr: Option<u8>,
    /// "A new software version ... introduced an incorrect route metric
    /// selection in iBGP": invert the IGP-metric comparison for iBGP paths.
    pub ibgp_metric_bug: bool,
}

/// Per-vendor behaviour profile.
#[derive(Clone, Debug)]
pub struct VendorProfile {
    pub vendor: Vendor,
    /// Software version string reported by the CLI.
    pub sw_version: String,
    /// Decision-process tie-break behaviour.
    pub quirks: DecisionQuirks,
    /// Container boot time (KNE-style pod startup); per-vendor.
    pub boot_time: SimDuration,
    /// Crash-restart delay when the routing process dies.
    pub restart_delay: SimDuration,
    pub bugs: VendorBugs,
    /// Emulated resource request per instance (KNE pod sizing): vCPU
    /// thousandths and MiB of RAM.
    pub cpu_millis: u32,
    pub mem_mib: u32,
}

impl VendorProfile {
    /// The EOS-like container ("cEOS"): 0.5 vCPU + 1 GiB as reported in §5.
    pub fn ceos() -> VendorProfile {
        VendorProfile {
            vendor: Vendor::Ceos,
            sw_version: "4.34.0F".to_string(),
            quirks: DecisionQuirks::default(),
            boot_time: SimDuration::from_secs(110),
            restart_delay: SimDuration::from_secs(45),
            bugs: VendorBugs::default(),
            cpu_millis: 500,
            mem_mib: 1024,
        }
    }

    /// The Junos-like container ("vJunos"): heavier image, slower boot.
    pub fn vjunos() -> VendorProfile {
        VendorProfile {
            vendor: Vendor::Vjunos,
            sw_version: "23.2R1".to_string(),
            quirks: DecisionQuirks::default(),
            boot_time: SimDuration::from_secs(170),
            restart_delay: SimDuration::from_secs(60),
            bugs: VendorBugs::default(),
            cpu_millis: 1000,
            mem_mib: 2048,
        }
    }

    /// Default profile for a vendor.
    pub fn for_vendor(vendor: Vendor) -> VendorProfile {
        match vendor {
            Vendor::Ceos => VendorProfile::ceos(),
            Vendor::Vjunos => VendorProfile::vjunos(),
        }
    }

    /// Applies the bug set, returning the modified profile (builder-style).
    pub fn with_bugs(mut self, bugs: VendorBugs) -> VendorProfile {
        self.bugs = bugs;
        if bugs.ibgp_metric_bug {
            self.quirks.ibgp_igp_metric_inverted = true;
            // A bug arrives with a software upgrade.
            self.sw_version.push_str("-hotfix2");
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceos_matches_paper_resource_figures() {
        let p = VendorProfile::ceos();
        assert_eq!(p.cpu_millis, 500);
        assert_eq!(p.mem_mib, 1024);
    }

    #[test]
    fn bug_builder_wires_quirks() {
        let p = VendorProfile::ceos().with_bugs(VendorBugs {
            ibgp_metric_bug: true,
            ..Default::default()
        });
        assert!(p.quirks.ibgp_igp_metric_inverted);
        assert!(p.sw_version.contains("hotfix"));
    }

    #[test]
    fn for_vendor_dispatch() {
        assert_eq!(VendorProfile::for_vendor(Vendor::Ceos).vendor, Vendor::Ceos);
        assert_eq!(
            VendorProfile::for_vendor(Vendor::Vjunos).vendor,
            Vendor::Vjunos
        );
    }
}
