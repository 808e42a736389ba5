//! The operator CLI: `show` commands over a live virtual router.
//!
//! §5 of the paper calls this an under-appreciated benefit of emulation —
//! when verification flags something odd, the operator can SSH to the
//! emulated device and poke at it with the *same* commands production uses.
//! Output formatting is intentionally vendor-flavoured.

use std::fmt::Write as _;

use mfv_config::Vendor;
use mfv_routing::SessionState;
use mfv_types::RouteProtocol;

use crate::router::VirtualRouter;

/// Executes a CLI command against the router, returning its output.
///
/// Supported commands (with vendor-appropriate spellings):
/// - `show version`
/// - `show running-config`
/// - `show ip route` / `show route`
/// - `show isis neighbors` / `show isis adjacency`
/// - `show isis database`
/// - `show bgp summary` / `show bgp summary`
pub fn exec(router: &VirtualRouter, command: &str) -> String {
    let cmd = command.trim().to_ascii_lowercase();
    let vendor = router.profile().vendor;
    match cmd.as_str() {
        "show version" => show_version(router),
        "show running-config" | "show configuration" => mfv_config::render(router.config()),
        "show ip route" | "show route" => show_routes(router, vendor),
        "show isis neighbors" | "show isis adjacency" => show_isis_neighbors(router),
        "show isis database" => show_isis_database(router),
        "show bgp summary" | "show ip bgp summary" => show_bgp_summary(router),
        _ => format!("% Invalid input: '{command}'\n"),
    }
}

fn show_version(router: &VirtualRouter) -> String {
    let p = router.profile();
    let image = match p.vendor {
        Vendor::Ceos => "cEOS-lab",
        Vendor::Vjunos => "vJunos-router",
    };
    format!(
        "{}\nSoftware image version: {}\nUptime: (emulated)\nState: {:?}\n",
        image,
        p.sw_version,
        router.state()
    )
}

fn proto_code(proto: RouteProtocol, vendor: Vendor) -> &'static str {
    match (vendor, proto) {
        (Vendor::Ceos, RouteProtocol::Connected) => "C",
        (Vendor::Ceos, RouteProtocol::Static) => "S",
        (Vendor::Ceos, RouteProtocol::Isis) => "I L2",
        (Vendor::Ceos, RouteProtocol::EbgpLearned) => "B E",
        (Vendor::Ceos, RouteProtocol::IbgpLearned) => "B I",
        (Vendor::Ceos, _) => "O",
        (Vendor::Vjunos, RouteProtocol::Connected) => "Direct",
        (Vendor::Vjunos, RouteProtocol::Static) => "Static",
        (Vendor::Vjunos, RouteProtocol::Isis) => "IS-IS",
        (Vendor::Vjunos, RouteProtocol::EbgpLearned) => "BGP",
        (Vendor::Vjunos, RouteProtocol::IbgpLearned) => "BGP",
        (Vendor::Vjunos, _) => "Other",
    }
}

fn show_routes(router: &VirtualRouter, vendor: Vendor) -> String {
    let mut out = String::new();
    match vendor {
        Vendor::Ceos => {
            out.push_str("VRF: default\n");
            out.push_str("Codes: C - connected, S - static, I - IS-IS, B - BGP\n\n");
        }
        Vendor::Vjunos => {
            let n = router.fib().len();
            let _ = writeln!(out, "inet.0: {n} destinations, {n} routes\n");
        }
    }
    for entry in router.fib().entries() {
        let code = proto_code(entry.proto, vendor);
        if entry.next_hops.is_empty() {
            let _ = writeln!(out, "  {:<6} {} is directly discarded", code, entry.prefix);
            continue;
        }
        for (i, nh) in entry.next_hops.iter().enumerate() {
            let lead = if i == 0 {
                format!("  {:<6} {}", code, entry.prefix)
            } else {
                format!("  {:<6} {}", "", "")
            };
            match &nh.via {
                Some(gw) => {
                    let _ = writeln!(out, "{lead} via {gw}, {}", nh.iface);
                }
                None => {
                    let _ = writeln!(out, "{lead} is directly connected, {}", nh.iface);
                }
            }
        }
    }
    out
}

fn show_isis_neighbors(router: &VirtualRouter) -> String {
    let Some(isis) = router.isis_engine() else {
        return "IS-IS is not running\n".to_string();
    };
    let mut out = String::from("Interface        System Id       State  Neighbor Address\n");
    for adj in isis.adjacencies() {
        let _ = writeln!(
            out,
            "{:<16} {:<15} {:<6} {}",
            adj.iface.to_string(),
            adj.neighbor
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            format!("{:?}", adj.state),
            adj.neighbor_addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    out
}

fn show_isis_database(router: &VirtualRouter) -> String {
    let Some(isis) = router.isis_engine() else {
        return "IS-IS is not running\n".to_string();
    };
    let mut out = String::from("IS-IS Level-2 Link State Database\n");
    out.push_str("LSPID                   Seq Num   Hostname\n");
    for lsp in isis.lsdb() {
        let e = lsp.entry();
        let _ = writeln!(
            out,
            "{:<22} {:>9}   {}",
            e.lsp_id.to_string(),
            format!("0x{:08x}", e.seq),
            lsp.hostname().unwrap_or_else(|| "-".into()),
        );
    }
    out
}

fn show_bgp_summary(router: &VirtualRouter) -> String {
    let Some(bgp) = router.bgp_engine() else {
        return "BGP is not running\n".to_string();
    };
    let mut out = format!("BGP summary, local AS {}\n", bgp.local_as());
    out.push_str("Neighbor         AS        State        PfxRcd  PfxSent\n");
    for s in bgp.summaries() {
        let state = match s.state {
            SessionState::Idle => "Idle",
            SessionState::OpenSent => "OpenSent",
            SessionState::OpenConfirm => "OpenConfirm",
            SessionState::Established => "Estab",
        };
        let _ = writeln!(
            out,
            "{:<16} {:<9} {:<12} {:<7} {}",
            s.peer.to_string(),
            s.remote_as.to_string(),
            state,
            s.prefixes_received,
            s.prefixes_sent,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::VendorProfile;
    use crate::router::VirtualRouter;
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_types::{AsNum, SimTime};
    use std::net::Ipv4Addr;

    fn router() -> VirtualRouter {
        let spec = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .ebgp(Ipv4Addr::new(100, 64, 0, 1), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap());
        let mut r = VirtualRouter::new("r1".into(), VendorProfile::ceos(), spec.build());
        r.poll(SimTime(100), &|| 0, &mut Vec::new());
        r
    }

    #[test]
    fn show_version_names_image_and_version() {
        let out = exec(&router(), "show version");
        assert!(out.contains("cEOS-lab"));
        assert!(out.contains("4.34.0F"));
    }

    #[test]
    fn show_ip_route_lists_connected() {
        let out = exec(&router(), "show ip route");
        assert!(out.contains("100.64.0.0/31"), "{out}");
        assert!(out.contains("directly connected"), "{out}");
        assert!(out.contains("2.2.2.1/32"), "{out}");
    }

    #[test]
    fn show_bgp_summary_lists_neighbor() {
        let out = exec(&router(), "show bgp summary");
        assert!(out.contains("100.64.0.1"), "{out}");
        assert!(out.contains("65002"), "{out}");
    }

    #[test]
    fn show_isis_database_contains_own_lsp() {
        let out = exec(&router(), "show isis database");
        assert!(out.contains("r1"), "{out}");
    }

    #[test]
    fn unknown_command_rejected() {
        let out = exec(&router(), "show frobnicator");
        assert!(out.starts_with("% Invalid input"));
    }

    #[test]
    fn show_running_config_roundtrips() {
        let r = router();
        let out = exec(&r, "show running-config");
        let parsed = mfv_config::ceos::parse(&out).unwrap();
        assert_eq!(&parsed.config, r.config());
    }
}

#[cfg(test)]
mod vjunos_tests {
    use super::*;
    use crate::profile::VendorProfile;
    use crate::router::VirtualRouter;
    use mfv_config::{IfaceSpec, RouterSpec, Vendor};
    use mfv_types::{AsNum, SimTime};
    use std::net::Ipv4Addr;

    fn vjunos_router() -> VirtualRouter {
        let spec = RouterSpec::new("r9", AsNum(65009), Ipv4Addr::new(2, 2, 2, 9))
            .vendor(Vendor::Vjunos)
            .iface(IfaceSpec::new("ge-0/0/0", "100.64.0.0/31".parse().unwrap()).with_isis())
            .ebgp(Ipv4Addr::new(100, 64, 0, 1), AsNum(65002))
            .network("2.2.2.9/32".parse().unwrap());
        let mut r = VirtualRouter::new("r9".into(), VendorProfile::vjunos(), spec.build());
        r.poll(SimTime(100), &|| 0, &mut Vec::new());
        r
    }

    #[test]
    fn show_version_is_vjunos_flavoured() {
        let out = exec(&vjunos_router(), "show version");
        assert!(out.contains("vJunos-router"), "{out}");
        assert!(out.contains("23.2R1"), "{out}");
    }

    #[test]
    fn show_route_uses_junos_table_header() {
        let out = exec(&vjunos_router(), "show route");
        assert!(out.contains("inet.0:"), "{out}");
        assert!(out.contains("Direct"), "{out}");
        assert!(out.contains("2.2.2.9/32"), "{out}");
    }

    #[test]
    fn show_configuration_renders_vjunos_dialect() {
        let r = vjunos_router();
        let out = exec(&r, "show configuration");
        assert!(out.contains("host-name r9;"), "{out}");
        let parsed = mfv_config::vjunos::parse(&out).unwrap();
        assert_eq!(&*parsed.config.hostname, "r9");
    }
}
