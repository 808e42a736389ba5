//! `mfv-conflint` — cross-device static analysis over a topology's parsed
//! configurations.
//!
//! This is the *cheap* tier of the verification stack: a whole class of
//! misconfigurations (peer-AS mismatches, one-sided sessions, dangling
//! policy references, duplicate identities) is decidable from the configs
//! alone, with no emulation. conflint checks the typed IR
//! ([`mfv_config::DeviceConfig`]) of every node in a [`Topology`] *jointly*
//! — rules relate both ends of a link or the whole device set, which is
//! exactly what per-file vendor validation cannot see.
//!
//! Rule families (severity in parentheses; E = error, W = warning):
//!
//! | rule | checks |
//! |------|--------|
//! | C1 (E) | eBGP/iBGP peer-ASN disagrees with the AS the peer actually runs |
//! | C2 (E/W) | neighbor statement with no owner, no reverse statement, or a shutdown reverse (W) |
//! | C3 (E/W) | IS-IS one-sided enablement, instance/stanza mismatch, NET-area mismatch; level incompatibility (W) |
//! | C4 (E) | duplicate router-id, IS-IS system-id, or loopback address |
//! | C5 (E/W) | route-map/prefix-list referenced-but-undefined (E) or defined-but-unused (W) |
//! | C6 (E/W) | point-to-point link subnet mismatch or duplicated address (E); one side unnumbered (W) |
//! | C7 (W) | redistribution into BGP with no attached route-map |
//! | C8 (W) | prefix-list entry fully shadowed by an earlier entry |
//!
//! A suppression is the directive `conflint: allow(RULE, reason)` in a
//! comment anywhere in the device's config text, behind whatever comment
//! leader the dialect uses:
//!
//! ```text
//! ! conflint: allow(C7, infra subnets are meant to leak into this fabric)
//! ```
//!
//! The reason is mandatory: a reasonless or malformed `allow` is itself an
//! error (reported under the reserved id `C0`). Suppressions are
//! device-scoped — they silence one rule for the device whose config
//! carries them — and every report lists the ones that silenced a finding.

// P1 (DESIGN.md § "Determinism & panic-safety invariants"): non-test code
// here degrades through typed errors, never a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use mfv_config::{DeviceConfig, IfaceIsis, IsisLevel, PrefixListEntry};
use mfv_emulator::{ExternalPeerSpec, Topology};

/// Stable rule identifiers. `C0` is reserved for malformed suppression
/// directives and never needs suppressing itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    C0,
    C1,
    C2,
    C3,
    C4,
    C5,
    C6,
    C7,
    C8,
}

impl RuleId {
    pub const ALL: [RuleId; 8] = [
        RuleId::C1,
        RuleId::C2,
        RuleId::C3,
        RuleId::C4,
        RuleId::C5,
        RuleId::C6,
        RuleId::C7,
        RuleId::C8,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::C0 => "C0",
            RuleId::C1 => "C1",
            RuleId::C2 => "C2",
            RuleId::C3 => "C3",
            RuleId::C4 => "C4",
            RuleId::C5 => "C5",
            RuleId::C6 => "C6",
            RuleId::C7 => "C7",
            RuleId::C8 => "C8",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "C1" => Some(RuleId::C1),
            "C2" => Some(RuleId::C2),
            "C3" => Some(RuleId::C3),
            "C4" => Some(RuleId::C4),
            "C5" => Some(RuleId::C5),
            "C6" => Some(RuleId::C6),
            "C7" => Some(RuleId::C7),
            "C8" => Some(RuleId::C8),
            _ => None,
        }
    }

    /// One-line description used in docs and `--json` output.
    pub fn title(&self) -> &'static str {
        match self {
            RuleId::C0 => "malformed conflint suppression directive",
            RuleId::C1 => "BGP peer-ASN mismatch",
            RuleId::C2 => "non-mutual or missing BGP neighbor",
            RuleId::C3 => "IS-IS adjacency parameter mismatch",
            RuleId::C4 => "duplicate router identity",
            RuleId::C5 => "dangling or unused policy reference",
            RuleId::C6 => "point-to-point subnet mismatch",
            RuleId::C7 => "unpoliced redistribution into BGP",
            RuleId::C8 => "shadowed prefix-list entry",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One confirmed misconfiguration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    pub rule: RuleId,
    pub severity: Severity,
    /// Primary device: the one whose config must change (and whose
    /// suppressions apply). Cross-device context lives in `message`.
    pub device: String,
    pub message: String,
    pub help: String,
}

/// A suppression that silenced at least one finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Suppression {
    pub rule: RuleId,
    pub device: String,
    pub reason: String,
    /// Findings silenced by this allow.
    pub count: usize,
}

/// The result of analyzing one topology.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub topology: String,
    pub devices: usize,
    pub links: usize,
    /// Unsuppressed findings, sorted by (rule, device, message).
    pub findings: Vec<Finding>,
    /// Allows that actually fired, sorted by (device, rule).
    pub suppressed: Vec<Suppression>,
}

impl Report {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Clean means no findings at all — warnings included. The CLI's exit
    /// code is laxer (errors only) unless `--deny-warnings`.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule (fixture tests key off this).
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Rustc-style human rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}[{}]: {}",
                f.severity.as_str(),
                f.rule.as_str(),
                f.message
            );
            let _ = writeln!(out, "  --> {} (topology {})", f.device, self.topology);
            let _ = writeln!(out, "   = help: {}", f.help);
            out.push('\n');
        }
        for s in &self.suppressed {
            let _ = writeln!(
                out,
                "note: {} finding(s) of {} suppressed on {}: {}",
                s.count,
                s.rule.as_str(),
                s.device,
                s.reason
            );
        }
        let _ = writeln!(
            out,
            "conflint: {} error(s), {} warning(s), {} suppressed across {} device(s), {} link(s)",
            self.errors(),
            self.warnings(),
            self.suppressed.iter().map(|s| s.count).sum::<usize>(),
            self.devices,
            self.links
        );
        out
    }

    /// Machine-readable rendering (hand-rolled: the analyzer stays
    /// dependency-light and the output byte-stable).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"topology\": \"{}\",", esc(&self.topology));
        let _ = writeln!(out, "  \"devices\": {},", self.devices);
        let _ = writeln!(out, "  \"links\": {},", self.links);
        let _ = writeln!(out, "  \"errors\": {},", self.errors());
        let _ = writeln!(out, "  \"warnings\": {},", self.warnings());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": \"{}\", \"severity\": \"{}\", \"device\": \"{}\", \
                 \"message\": \"{}\", \"help\": \"{}\"",
                f.rule.as_str(),
                f.severity.as_str(),
                esc(&f.device),
                esc(&f.message),
                esc(&f.help)
            );
            out.push('}');
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": \"{}\", \"device\": \"{}\", \"count\": {}, \"reason\": \"{}\"",
                s.rule.as_str(),
                esc(&s.device),
                s.count,
                esc(&s.reason)
            );
            out.push('}');
        }
        if self.suppressed.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Analysis could not even start (config does not parse, unknown node on a
/// link). Distinct from findings: a finding is a property of a *valid*
/// config set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConflintError {
    pub device: String,
    pub reason: String,
}

impl std::fmt::Display for ConflintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conflint: {}: {}", self.device, self.reason)
    }
}

impl std::error::Error for ConflintError {}

// ---------------------------------------------------------------------------
// Analysis context
// ---------------------------------------------------------------------------

struct Dev {
    name: String,
    cfg: DeviceConfig,
    /// Reasoned `allow(rule, reason)` directives found in the config text.
    allows: BTreeMap<RuleId, String>,
    /// Malformed directives (missing reason / unknown rule), as raw text.
    bad_allows: Vec<String>,
}

struct Ctx<'a> {
    devs: Vec<Dev>,
    topo: &'a Topology,
    /// interface address -> (device index, iface name)
    addr_owner: BTreeMap<Ipv4Addr, (usize, String)>,
}

impl Ctx<'_> {
    fn dev_by_name(&self, name: &str) -> Option<&Dev> {
        self.devs.iter().find(|d| d.name == name)
    }

    fn external_peer(&self, addr: Ipv4Addr) -> Option<&ExternalPeerSpec> {
        self.topo.external_peers.iter().find(|p| p.addr == addr)
    }
}

/// Parses `conflint: allow(RULE, reason)` directives out of raw config
/// text. The comment leader does not matter (`!` for EOS, `#`/`/* */` for
/// Junos) — only the directive substring is matched.
fn parse_allows(text: &str) -> (BTreeMap<RuleId, String>, Vec<String>) {
    let mut allows = BTreeMap::new();
    let mut bad = Vec::new();
    for line in text.lines() {
        let Some(at) = line.find("conflint: allow(") else {
            continue;
        };
        let rest = match line.get(at + "conflint: allow(".len()..) {
            Some(r) => r,
            None => {
                bad.push(line.trim().to_string());
                continue;
            }
        };
        let Some(close) = rest.find(')') else {
            bad.push(line.trim().to_string());
            continue;
        };
        let inner = rest.get(..close).unwrap_or_default();
        let (rule_s, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        match RuleId::parse(rule_s) {
            Some(rule) if !reason.is_empty() => {
                allows.entry(rule).or_insert_with(|| reason.to_string());
            }
            _ => bad.push(line.trim().to_string()),
        }
    }
    (allows, bad)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs every rule family over the topology's parsed configs.
pub fn analyze(topo: &Topology) -> Result<Report, ConflintError> {
    let mut devs = Vec::new();
    for node in &topo.nodes {
        let parsed = node.parse_config().map_err(|e| ConflintError {
            device: node.name.to_string(),
            reason: format!("config does not parse: {e}"),
        })?;
        let (allows, bad_allows) = parse_allows(&node.config_text);
        devs.push(Dev {
            name: node.name.to_string(),
            cfg: parsed.config,
            allows,
            bad_allows,
        });
    }

    let mut addr_owner = BTreeMap::new();
    for (idx, d) in devs.iter().enumerate() {
        for iface in &d.cfg.interfaces {
            if let Some(a) = iface.addr {
                addr_owner
                    .entry(a.addr)
                    .or_insert((idx, iface.name.to_string()));
            }
        }
    }

    let ctx = Ctx {
        devs,
        topo,
        addr_owner,
    };

    let mut findings = Vec::new();
    check_suppression_syntax(&ctx, &mut findings);
    check_bgp_sessions(&ctx, &mut findings); // C1 + C2
    check_isis(&ctx, &mut findings); // C3
    check_duplicate_identity(&ctx, &mut findings); // C4
    check_policy_refs(&ctx, &mut findings); // C5
    check_link_subnets(&ctx, &mut findings); // C6
    check_redistribution(&ctx, &mut findings); // C7
    check_prefix_list_shadowing(&ctx, &mut findings); // C8

    // Apply device-scoped suppressions (C0 is never suppressible).
    let mut kept = Vec::new();
    let mut fired: BTreeMap<(String, RuleId), (String, usize)> = BTreeMap::new();
    for f in findings {
        let allow = ctx
            .dev_by_name(&f.device)
            .and_then(|d| d.allows.get(&f.rule));
        match allow {
            Some(reason) if f.rule != RuleId::C0 => {
                let slot = fired
                    .entry((f.device.clone(), f.rule))
                    .or_insert_with(|| (reason.clone(), 0));
                slot.1 += 1;
            }
            _ => kept.push(f),
        }
    }
    kept.sort_by(|a, b| (a.rule, &a.device, &a.message).cmp(&(b.rule, &b.device, &b.message)));
    kept.dedup();

    Ok(Report {
        topology: topo.name.clone(),
        devices: ctx.devs.len(),
        links: topo.links.len(),
        findings: kept,
        suppressed: fired
            .into_iter()
            .map(|((device, rule), (reason, count))| Suppression {
                rule,
                device,
                reason,
                count,
            })
            .collect(),
    })
}

fn push(
    findings: &mut Vec<Finding>,
    rule: RuleId,
    severity: Severity,
    device: &str,
    message: String,
    help: &str,
) {
    findings.push(Finding {
        rule,
        severity,
        device: device.to_string(),
        message,
        help: help.to_string(),
    });
}

// ---------------------------------------------------------------------------
// C0 — malformed suppressions
// ---------------------------------------------------------------------------

fn check_suppression_syntax(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for d in &ctx.devs {
        for raw in &d.bad_allows {
            push(
                findings,
                RuleId::C0,
                Severity::Error,
                &d.name,
                format!("malformed suppression `{raw}`"),
                "write `conflint: allow(C<n>, <reason>)` — the reason is mandatory",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// C1 + C2 — BGP session cross-checks
// ---------------------------------------------------------------------------

fn check_bgp_sessions(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for d in &ctx.devs {
        let Some(bgp) = &d.cfg.bgp else { continue };
        for n in &bgp.neighbors {
            if n.shutdown {
                continue; // deliberately down; nothing to cross-check
            }
            if let Some(ep) = ctx.external_peer(n.peer) {
                if ep.asn != n.remote_as {
                    push(
                        findings,
                        RuleId::C1,
                        Severity::Error,
                        &d.name,
                        format!(
                            "neighbor {} remote-as {} but the external peer at that \
                             address runs AS {}",
                            n.peer, n.remote_as, ep.asn
                        ),
                        "the OPEN exchange will be rejected with NOTIFICATION \
                         `bad peer AS`; the session can never reach Established",
                    );
                }
                continue;
            }
            let Some((oidx, _oiface)) = ctx.addr_owner.get(&n.peer) else {
                push(
                    findings,
                    RuleId::C2,
                    Severity::Error,
                    &d.name,
                    format!(
                        "neighbor {} does not match any interface address or \
                         external peer in the topology",
                        n.peer
                    ),
                    "OPENs are sent into the void; the session stays in \
                     Idle/OpenSent forever",
                );
                continue;
            };
            let Some(other) = ctx.devs.get(*oidx) else {
                continue;
            };
            if other.name == d.name {
                continue; // self-session: not conflint's concern
            }
            let Some(obgp) = &other.cfg.bgp else {
                push(
                    findings,
                    RuleId::C2,
                    Severity::Error,
                    &d.name,
                    format!(
                        "neighbor {} points at {}, which has no `router bgp` stanza",
                        n.peer, other.name
                    ),
                    "the peer never listens; the session stays in Idle/OpenSent forever",
                );
                continue;
            };
            if obgp.asn != n.remote_as {
                push(
                    findings,
                    RuleId::C1,
                    Severity::Error,
                    &d.name,
                    format!(
                        "neighbor {} remote-as {} but {} runs AS {}",
                        n.peer, n.remote_as, other.name, obgp.asn
                    ),
                    "the OPEN exchange will be rejected with NOTIFICATION \
                     `bad peer AS`; the session can never reach Established",
                );
            }
            // Mutuality: the peer must configure a session back to one of
            // this device's addresses.
            let my_addrs: Vec<Ipv4Addr> = d
                .cfg
                .interfaces
                .iter()
                .filter_map(|i| i.addr.map(|a| a.addr))
                .collect();
            let reverse = obgp.neighbors.iter().find(|m| my_addrs.contains(&m.peer));
            match reverse {
                None => push(
                    findings,
                    RuleId::C2,
                    Severity::Error,
                    &d.name,
                    format!(
                        "neighbor {} is one-sided: {} has no neighbor statement \
                         back to {}",
                        n.peer, other.name, d.name
                    ),
                    "the peer ignores inbound OPENs from unconfigured addresses; \
                     this side stays in Idle/OpenSent forever",
                ),
                Some(m) if m.shutdown => push(
                    findings,
                    RuleId::C2,
                    Severity::Warning,
                    &d.name,
                    format!(
                        "neighbor {}: the reverse statement on {} is shutdown",
                        n.peer, other.name
                    ),
                    "if the maintenance is deliberate, shut down this side too \
                     (or suppress with a reasoned allow)",
                ),
                Some(_) => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C3 — IS-IS adjacency parameters
// ---------------------------------------------------------------------------

/// Is this interface's IS-IS stanza actually effective (attached to the
/// router instance)? A name mismatch detaches it silently on the vendor.
fn isis_effective<'a>(d: &'a Dev, ii: &IfaceIsis) -> Option<&'a mfv_config::IsisConfig> {
    d.cfg
        .isis
        .as_ref()
        .filter(|stanza| stanza.instance == ii.instance)
}

fn check_isis(ctx: &Ctx, findings: &mut Vec<Finding>) {
    // Per-device: interface references an instance the router stanza does
    // not define (the vendor silently detaches the interface).
    for d in &ctx.devs {
        for iface in &d.cfg.interfaces {
            let Some(ii) = &iface.isis else { continue };
            if isis_effective(d, ii).is_none() {
                let stanza = d
                    .cfg
                    .isis
                    .as_ref()
                    .map(|s| format!("`{}`", s.instance))
                    .unwrap_or_else(|| "none".to_string());
                push(
                    findings,
                    RuleId::C3,
                    Severity::Error,
                    &d.name,
                    format!(
                        "interface {} enables IS-IS instance `{}` but the router \
                         stanza is {}",
                        iface.name, ii.instance, stanza
                    ),
                    "the interface is silently excluded from IS-IS; no adjacency \
                     forms and its subnet is not advertised",
                );
            }
        }
    }

    // Per-link: enablement, area, and level compatibility.
    for l in &ctx.topo.links {
        let (Some(da), Some(db)) = (
            ctx.dev_by_name(l.a_node.as_str()),
            ctx.dev_by_name(l.b_node.as_str()),
        ) else {
            continue;
        };
        let ia = da.cfg.interface(&l.a_iface);
        let ib = db.cfg.interface(&l.b_iface);
        let side = |d: &Dev, iface: Option<&mfv_config::InterfaceConfig>| {
            iface
                .and_then(|i| i.isis.clone())
                .filter(|ii| !ii.passive)
                .and_then(|ii| isis_effective(d, &ii).cloned())
        };
        let sa = side(da, ia);
        let sb = side(db, ib);
        match (&sa, &sb) {
            (None, None) => {}
            (Some(_), None) => push(
                findings,
                RuleId::C3,
                Severity::Error,
                &db.name,
                format!(
                    "link {}:{} <-> {}:{} runs IS-IS on {} only — {} has it \
                     disabled or passive on {}",
                    l.a_node, l.a_iface, l.b_node, l.b_iface, da.name, db.name, l.b_iface
                ),
                "hellos from the enabled side are ignored; the adjacency never \
                 leaves Down/Initializing",
            ),
            (None, Some(_)) => push(
                findings,
                RuleId::C3,
                Severity::Error,
                &da.name,
                format!(
                    "link {}:{} <-> {}:{} runs IS-IS on {} only — {} has it \
                     disabled or passive on {}",
                    l.a_node, l.a_iface, l.b_node, l.b_iface, db.name, da.name, l.a_iface
                ),
                "hellos from the enabled side are ignored; the adjacency never \
                 leaves Down/Initializing",
            ),
            (Some(ca), Some(cb)) => {
                let (aa, ab) = (ca.area(), cb.area());
                if aa != ab {
                    // One finding per endpoint: either side may be the
                    // misconfigured one, and suppressions are device-scoped.
                    for dev in [da, db] {
                        push(
                            findings,
                            RuleId::C3,
                            Severity::Error,
                            &dev.name,
                            format!(
                                "NET area mismatch across {}:{} <-> {}:{}: {} is in \
                                 area {} but {} is in area {}",
                                l.a_node,
                                l.a_iface,
                                l.b_node,
                                l.b_iface,
                                da.name,
                                aa.clone().unwrap_or_else(|| "?".into()),
                                db.name,
                                ab.clone().unwrap_or_else(|| "?".into()),
                            ),
                            "both vendors require matching areas on point-to-point \
                             adjacencies here; hellos are ignored and the adjacency \
                             never forms",
                        );
                    }
                }
                let common_level = !matches!(
                    (ca.level, cb.level),
                    (IsisLevel::Level1, IsisLevel::Level2) | (IsisLevel::Level2, IsisLevel::Level1)
                );
                if !common_level {
                    push(
                        findings,
                        RuleId::C3,
                        Severity::Warning,
                        &db.name,
                        format!(
                            "IS-IS level mismatch across {}:{} <-> {}:{} ({:?} vs {:?})",
                            l.a_node, l.a_iface, l.b_node, l.b_iface, ca.level, cb.level
                        ),
                        "the routers share no common level; on real hardware the \
                         adjacency cannot form",
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C4 — duplicate identities
// ---------------------------------------------------------------------------

fn check_duplicate_identity(ctx: &Ctx, findings: &mut Vec<Finding>) {
    let mut by_rid: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut by_sysid: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut by_loopback: BTreeMap<Ipv4Addr, Vec<&str>> = BTreeMap::new();
    for d in &ctx.devs {
        if let Some(rid) = d.cfg.effective_router_id() {
            by_rid.entry(rid.to_string()).or_default().push(&d.name);
        }
        if let Some(sysid) = d.cfg.isis.as_ref().and_then(|i| i.system_id()) {
            by_sysid.entry(sysid).or_default().push(&d.name);
        }
        if let Some(lo) = d.cfg.loopback_addr() {
            by_loopback.entry(lo).or_default().push(&d.name);
        }
    }
    let emit =
        |kind: &str, key: String, names: &[&str], help: &str, findings: &mut Vec<Finding>| {
            if names.len() < 2 {
                return;
            }
            // One finding per device past the first, so a reasoned allow on the
            // genuinely-anycast device does not hide an accidental clone.
            for name in names.iter().skip(1) {
                push(
                    findings,
                    RuleId::C4,
                    Severity::Error,
                    name,
                    format!("duplicate {kind} {key} (also on {})", names.join(", ")),
                    help,
                );
            }
        };
    for (k, v) in &by_rid {
        emit(
            "BGP router-id",
            k.clone(),
            v,
            "peers cannot tell the two routers apart; sessions and \
             best-path tie-breaks misbehave",
            findings,
        );
    }
    for (k, v) in &by_sysid {
        emit(
            "IS-IS system-id",
            k.clone(),
            v,
            "both routers originate LSPs under the same LSP-id; the higher \
             sequence number silently erases the other router's prefixes",
            findings,
        );
    }
    for (k, v) in &by_loopback {
        emit(
            "loopback address",
            k.to_string(),
            v,
            "iBGP sessions and /32 reachability resolve to an arbitrary \
             one of the clones",
            findings,
        );
    }
}

// ---------------------------------------------------------------------------
// C5 — policy reference hygiene
// ---------------------------------------------------------------------------

fn check_policy_refs(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for d in &ctx.devs {
        let mut rm_refs: Vec<(String, String)> = Vec::new(); // (name, where)
        if let Some(bgp) = &d.cfg.bgp {
            for n in &bgp.neighbors {
                if let Some(rm) = &n.route_map_in {
                    rm_refs.push((rm.clone(), format!("neighbor {} route-map in", n.peer)));
                }
                if let Some(rm) = &n.route_map_out {
                    rm_refs.push((rm.clone(), format!("neighbor {} route-map out", n.peer)));
                }
            }
            for r in &bgp.redistribute {
                if let Some(rm) = &r.route_map {
                    rm_refs.push((rm.clone(), format!("redistribute {:?}", r.proto)));
                }
            }
        }
        for (name, site) in &rm_refs {
            if !d.cfg.route_maps.contains_key(name) {
                push(
                    findings,
                    RuleId::C5,
                    Severity::Error,
                    &d.name,
                    format!("route-map `{name}` referenced by `{site}` is not defined"),
                    "a missing route-map denies everything on this vendor: the \
                     session stays up while every route is silently dropped",
                );
            }
        }
        for name in d.cfg.route_maps.keys() {
            if !rm_refs.iter().any(|(n, _)| n == name) {
                push(
                    findings,
                    RuleId::C5,
                    Severity::Warning,
                    &d.name,
                    format!("route-map `{name}` is defined but never referenced"),
                    "dead policy rots; delete it or attach it where intended",
                );
            }
        }

        let mut pl_refs: Vec<(String, String)> = Vec::new();
        for (rm_name, rm) in &d.cfg.route_maps {
            for e in &rm.entries {
                for m in &e.matches {
                    if let mfv_config::MatchClause::PrefixList(pl) = m {
                        pl_refs.push((pl.clone(), format!("route-map {rm_name} seq {}", e.seq)));
                    }
                }
            }
        }
        for (name, site) in &pl_refs {
            if !d.cfg.prefix_lists.contains_key(name) {
                push(
                    findings,
                    RuleId::C5,
                    Severity::Error,
                    &d.name,
                    format!("prefix-list `{name}` referenced by `{site}` is not defined"),
                    "a match on a missing prefix-list never matches, falling \
                     through to the implicit deny",
                );
            }
        }
        for name in d.cfg.prefix_lists.keys() {
            if !pl_refs.iter().any(|(n, _)| n == name) {
                push(
                    findings,
                    RuleId::C5,
                    Severity::Warning,
                    &d.name,
                    format!("prefix-list `{name}` is defined but never referenced"),
                    "dead policy rots; delete it or attach it where intended",
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C6 — link subnet agreement
// ---------------------------------------------------------------------------

fn check_link_subnets(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for l in &ctx.topo.links {
        let (Some(da), Some(db)) = (
            ctx.dev_by_name(l.a_node.as_str()),
            ctx.dev_by_name(l.b_node.as_str()),
        ) else {
            continue;
        };
        let aa = da.cfg.interface(&l.a_iface).and_then(|i| i.addr);
        let ab = db.cfg.interface(&l.b_iface).and_then(|i| i.addr);
        match (aa, ab) {
            (Some(x), Some(y)) => {
                if x.addr == y.addr {
                    for dev in [da, db] {
                        push(
                            findings,
                            RuleId::C6,
                            Severity::Error,
                            &dev.name,
                            format!(
                                "both ends of {}:{} <-> {}:{} configure the same \
                                 address {}",
                                l.a_node, l.a_iface, l.b_node, l.b_iface, x.addr
                            ),
                            "duplicate addresses on a link make delivery ambiguous; \
                             renumber one side",
                        );
                    }
                } else if !x.same_subnet(&y) {
                    // Per-endpoint: either side may hold the typo, and
                    // suppressions are device-scoped.
                    for dev in [da, db] {
                        push(
                            findings,
                            RuleId::C6,
                            Severity::Error,
                            &dev.name,
                            format!(
                                "subnet mismatch across {}:{} <-> {}:{}: {} vs {}",
                                l.a_node, l.a_iface, l.b_node, l.b_iface, x, y
                            ),
                            "neither side considers the other directly connected; \
                             BGP transport over the link never comes up",
                        );
                    }
                }
            }
            (Some(_), None) | (None, Some(_)) => {
                let unnumbered = if aa.is_none() { &da.name } else { &db.name };
                push(
                    findings,
                    RuleId::C6,
                    Severity::Warning,
                    unnumbered,
                    format!(
                        "link {}:{} <-> {}:{}: {} has no address on its end",
                        l.a_node, l.a_iface, l.b_node, l.b_iface, unnumbered
                    ),
                    "an unnumbered end cannot terminate BGP transport on this link",
                );
            }
            (None, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// C7 — unpoliced redistribution
// ---------------------------------------------------------------------------

fn check_redistribution(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for d in &ctx.devs {
        let Some(bgp) = &d.cfg.bgp else { continue };
        for r in &bgp.redistribute {
            if r.route_map.is_none() {
                push(
                    findings,
                    RuleId::C7,
                    Severity::Warning,
                    &d.name,
                    format!(
                        "`redistribute {:?}` into BGP has no route-map attached",
                        r.proto
                    ),
                    "unfiltered redistribution leaks every matching route \
                     (infrastructure subnets included) to all BGP peers; attach \
                     a route-map, even permit-all, to make the policy explicit",
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// C8 — prefix-list shadowing
// ---------------------------------------------------------------------------

/// The matched-length interval of an entry, per `PrefixListEntry::matches`.
fn entry_bounds(e: &PrefixListEntry) -> (u8, u8) {
    let lo = e.ge.unwrap_or(e.prefix.len());
    let hi =
        e.le.unwrap_or(if e.ge.is_some() { 32 } else { e.prefix.len() });
    (lo, hi)
}

/// Does `a` (evaluated first) shadow `b` completely — i.e. every prefix `b`
/// would match is already decided by `a`?
fn shadows(a: &PrefixListEntry, b: &PrefixListEntry) -> bool {
    let (alo, ahi) = entry_bounds(a);
    let (blo, bhi) = entry_bounds(b);
    a.prefix.covers(&b.prefix) && alo <= blo && ahi >= bhi && blo <= bhi
}

fn check_prefix_list_shadowing(ctx: &Ctx, findings: &mut Vec<Finding>) {
    for d in &ctx.devs {
        for (name, pl) in &d.cfg.prefix_lists {
            for (j, later) in pl.entries.iter().enumerate() {
                let shadowed_by = pl
                    .entries
                    .iter()
                    .take(j)
                    .find(|earlier| shadows(earlier, later));
                if let Some(earlier) = shadowed_by {
                    push(
                        findings,
                        RuleId::C8,
                        Severity::Warning,
                        &d.name,
                        format!(
                            "prefix-list `{name}` seq {} is unreachable: seq {} \
                             already decides every prefix it could match",
                            later.seq, earlier.seq
                        ),
                        "first match wins; the later entry is dead configuration \
                         — if it was meant to take effect, reorder or narrow the \
                         earlier entry",
                    );
                }
            }
        }
    }
}
