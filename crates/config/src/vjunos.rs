//! Parser and renderer for the Junos-like hierarchical dialect.
//!
//! The second vendor dialect exists because the paper's argument hinges on
//! multi-vendor behaviour: 93% of surveyed operators run multi-vendor
//! networks, and a single reference model cannot express cross-vendor
//! interplay. Both dialects lower to the same [`DeviceConfig`] IR, but the
//! *router implementations* consuming them differ (see `mfv-vrouter`).
//!
//! Syntax: `section { statement; nested { ... } }` with `#` comments and
//! quoted strings, as in Junos.

use std::fmt;
use std::net::Ipv4Addr;

use mfv_types::{AsNum, Community, IfaceAddr, IfaceId, Prefix, RouterId};

use crate::ceos::{ParseError, ParseWarning, Parsed};
use crate::ir::*;

/// One node of the raw hierarchy: the statement words plus any nested block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    pub words: Vec<String>,
    pub children: Vec<Stmt>,
    pub line: usize,
}

impl Stmt {
    fn word(&self, i: usize) -> &str {
        self.words.get(i).map(|s| s.as_str()).unwrap_or("")
    }

    /// Finds the first child whose first word is `kw`.
    fn child(&self, kw: &str) -> Option<&Stmt> {
        self.children.iter().find(|c| c.word(0) == kw)
    }

    fn children_named<'s>(&'s self, kw: &'s str) -> impl Iterator<Item = &'s Stmt> + 's {
        self.children.iter().filter(move |c| c.word(0) == kw)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    Word(&'a str),
    Open,
    Close,
    Semi,
}

fn tokenize(text: &str) -> Vec<(Tok<'_>, usize)> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        let mut rest = line;
        while !rest.is_empty() {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            let lineno1 = lineno + 1;
            match rest.as_bytes()[0] {
                b'{' => {
                    out.push((Tok::Open, lineno1));
                    rest = &rest[1..];
                }
                b'}' => {
                    out.push((Tok::Close, lineno1));
                    rest = &rest[1..];
                }
                b';' => {
                    out.push((Tok::Semi, lineno1));
                    rest = &rest[1..];
                }
                b'"' => {
                    let end = rest[1..].find('"').map(|i| i + 1);
                    match end {
                        Some(end) => {
                            out.push((Tok::Word(&rest[1..end]), lineno1));
                            rest = &rest[end + 1..];
                        }
                        None => {
                            out.push((Tok::Word(&rest[1..]), lineno1));
                            rest = "";
                        }
                    }
                }
                _ => {
                    let end = rest
                        .find(|c: char| c.is_whitespace() || "{};\"".contains(c))
                        .unwrap_or(rest.len());
                    out.push((Tok::Word(&rest[..end]), lineno1));
                    rest = &rest[end..];
                }
            }
        }
    }
    out
}

/// Parses Junos-style text into a raw statement tree.
pub fn parse_tree(text: &str) -> Result<Vec<Stmt>, ParseError> {
    let toks = tokenize(text);
    let mut pos = 0;
    let stmts = parse_block(&toks, &mut pos)?;
    if pos != toks.len() {
        let line = toks.get(pos).map(|t| t.1).unwrap_or(0);
        return Err(ParseError {
            line,
            text: "}".into(),
            reason: "unbalanced closing brace".into(),
        });
    }
    Ok(stmts)
}

fn parse_block(toks: &[(Tok<'_>, usize)], pos: &mut usize) -> Result<Vec<Stmt>, ParseError> {
    let mut out = Vec::new();
    let mut words: Vec<String> = Vec::new();
    let mut first_line = 0;
    while *pos < toks.len() {
        let (tok, line) = toks[*pos];
        match tok {
            Tok::Word(w) => {
                if words.is_empty() {
                    first_line = line;
                }
                words.push(w.to_string());
                *pos += 1;
            }
            Tok::Semi => {
                *pos += 1;
                if !words.is_empty() {
                    out.push(Stmt {
                        words: std::mem::take(&mut words),
                        children: Vec::new(),
                        line: first_line,
                    });
                }
            }
            Tok::Open => {
                *pos += 1;
                let children = parse_block(toks, pos)?;
                if *pos >= toks.len() || toks[*pos].0 != Tok::Close {
                    return Err(ParseError {
                        line,
                        text: words.join(" "),
                        reason: "unterminated block".into(),
                    });
                }
                *pos += 1; // consume Close
                out.push(Stmt {
                    words: std::mem::take(&mut words),
                    children,
                    line: first_line,
                });
            }
            Tok::Close => {
                if !words.is_empty() {
                    return Err(ParseError {
                        line,
                        text: words.join(" "),
                        reason: "statement missing terminator before '}'".into(),
                    });
                }
                return Ok(out);
            }
        }
    }
    if !words.is_empty() {
        return Err(ParseError {
            line: first_line,
            text: words.join(" "),
            reason: "statement missing terminator at end of input".into(),
        });
    }
    Ok(out)
}

/// Strips a trailing `.N` unit suffix from a Junos interface reference
/// (`ge-0/0/0.0` → `ge-0/0/0`).
fn strip_unit(name: &str) -> &str {
    match name.rfind('.') {
        Some(i) if name[i + 1..].chars().all(|c| c.is_ascii_digit()) => &name[..i],
        _ => name,
    }
}

/// Parses a Junos-style configuration into the vendor-neutral IR.
pub fn parse(text: &str) -> Result<Parsed, ParseError> {
    let tree = parse_tree(text)?;
    let mut cfg = DeviceConfig::new("", Vendor::Vjunos);
    let mut warnings: Vec<ParseWarning> = Vec::new();
    let mut recognized = 0usize;
    let total = count_stmts(&tree);

    // Named community and AS-path definitions (`policy-options community
    // NAME members ...`, `policy-options as-path NAME "REGEX"`) are resolved
    // while lowering policy-statements.
    let mut defs = Defs::default();
    if let Some(po) = tree.iter().find(|s| s.word(0) == "policy-options") {
        for c in po.children_named("community") {
            // community NAME members [a:b ...]
            if c.words.len() >= 3 && c.word(2) == "members" {
                let comms: Option<Vec<Community>> =
                    c.words[3..].iter().map(|w| parse_community(w)).collect();
                if let Some(comms) = comms {
                    defs.communities.push((c.word(1).to_string(), comms));
                }
            }
        }
        // In an AS-path regex `.` is one AS: `.{0,N}` is a path of at most
        // N ASes, the one form read.
        for a in po.children_named("as-path") {
            let len = a
                .word(2)
                .strip_prefix(".{0,")
                .and_then(|r| r.strip_suffix('}'));
            if let Some(len) = len.and_then(|n| n.parse().ok()) {
                defs.as_paths.push((a.word(1).to_string(), len));
            }
        }
    }

    for section in &tree {
        match section.word(0) {
            "system" => {
                recognized += 1;
                recognized += lower_system(section, &mut cfg);
            }
            "interfaces" => {
                recognized += 1;
                recognized += lower_interfaces(section, &mut cfg, &mut warnings)?;
            }
            "protocols" => {
                recognized += 1;
                recognized += lower_protocols(section, &mut cfg, &mut warnings)?;
            }
            "policy-options" => {
                recognized += 1;
                recognized += lower_policy_options(section, &mut cfg, &defs, &mut warnings)?;
            }
            "routing-options" => {
                recognized += 1;
                recognized += lower_routing_options(section, &mut cfg, &mut warnings)?;
            }
            _ => {
                warnings.push(ParseWarning {
                    line: section.line,
                    text: section.words.join(" "),
                    reason: "unrecognized top-level section".into(),
                });
            }
        }
    }

    Ok(Parsed {
        config: cfg,
        warnings,
        recognized_lines: recognized,
        total_lines: total,
    })
}

fn count_stmts(stmts: &[Stmt]) -> usize {
    stmts.iter().map(|s| 1 + count_stmts(&s.children)).sum()
}

fn parse_community(s: &str) -> Option<Community> {
    let (a, v) = s.split_once(':')?;
    Some(Community::new(a.parse().ok()?, v.parse().ok()?))
}

fn lower_system(section: &Stmt, cfg: &mut DeviceConfig) -> usize {
    let mut n = 0;
    for st in &section.children {
        match st.word(0) {
            "host-name" => {
                cfg.hostname = st.word(1).into();
                n += 1;
            }
            "services" => {
                n += 1;
                for svc in &st.children {
                    match svc.word(0) {
                        "extension-service" => {
                            cfg.mgmt.apis.push("grpc".into());
                            n += 1 + count_stmts(&svc.children);
                        }
                        // A dialect extension: the IR has no `security`.
                        "ssl-profile" => {
                            let prof = svc.word(1).to_string();
                            if !cfg.mgmt.ssl_profiles.contains(&prof) {
                                cfg.mgmt.ssl_profiles.push(prof);
                            }
                            n += 1;
                        }
                        other => {
                            cfg.mgmt.apis.push(other.to_string());
                            n += 1 + count_stmts(&svc.children);
                        }
                    }
                }
            }
            "processes" => {
                n += 1;
                for p in &st.children {
                    cfg.mgmt.daemons.push(p.words.join(" "));
                    n += 1;
                }
            }
            "ntp" => {
                n += 1;
                for srv in st.children_named("server") {
                    if let Ok(ip) = srv.word(1).parse::<Ipv4Addr>() {
                        cfg.mgmt.ntp_servers.push(ip);
                    }
                    n += 1;
                }
            }
            "syslog" => {
                n += 1;
                for h in st.children_named("host") {
                    if let Ok(ip) = h.word(1).parse::<Ipv4Addr>() {
                        cfg.mgmt.logging_hosts.push(ip);
                    }
                    n += 1 + count_stmts(&h.children);
                }
            }
            _ => {
                // Opaque system statements (root-authentication, login, …)
                // are real-device features with no routing effect.
                n += 1 + count_stmts(&st.children);
            }
        }
    }
    n
}

fn lower_interfaces(
    section: &Stmt,
    cfg: &mut DeviceConfig,
    warnings: &mut Vec<ParseWarning>,
) -> Result<usize, ParseError> {
    let mut n = 0;
    for ifstmt in &section.children {
        let name = ifstmt.word(0).to_string();
        n += 1;
        let mut iface = InterfaceConfig::new(name.clone());
        // Junos interfaces with `family inet` are routed by construction;
        // there is no switchport/routed mode bit to get wrong. (Loopbacks
        // are implicitly routed in the IR, matching the builder's output.)
        iface.routed = !iface.name.is_loopback();
        for st in &ifstmt.children {
            match st.word(0) {
                "description" => {
                    iface.description = Some(st.words[1..].join(" "));
                    n += 1;
                }
                "disable" => {
                    iface.shutdown = true;
                    n += 1;
                }
                "unit" => {
                    n += 1;
                    for fam in &st.children {
                        match (fam.word(0), fam.word(1)) {
                            ("family", "inet") => {
                                n += 1;
                                for a in fam.children_named("address") {
                                    let addr: IfaceAddr =
                                        a.word(1).parse().map_err(|_| ParseError {
                                            line: a.line,
                                            text: a.words.join(" "),
                                            reason: "bad inet address".into(),
                                        })?;
                                    iface.addr = Some(addr);
                                    n += 1;
                                }
                            }
                            ("family", "iso") => {
                                // NET lives here on lo0; participation in
                                // IS-IS comes from `protocols isis`.
                                n += 1 + count_stmts(&fam.children);
                            }
                            ("family", "mpls") => {
                                iface.mpls = true;
                                n += 1;
                            }
                            _ => {
                                warnings.push(ParseWarning {
                                    line: fam.line,
                                    text: fam.words.join(" "),
                                    reason: "unrecognized family".into(),
                                });
                            }
                        }
                    }
                }
                _ => {
                    warnings.push(ParseWarning {
                        line: st.line,
                        text: st.words.join(" "),
                        reason: "unrecognized interface statement".into(),
                    });
                }
            }
        }
        cfg.interfaces.push(iface);
    }
    Ok(n)
}

fn lower_protocols(
    section: &Stmt,
    cfg: &mut DeviceConfig,
    warnings: &mut Vec<ParseWarning>,
) -> Result<usize, ParseError> {
    let mut n = 0;
    for proto in &section.children {
        match proto.word(0) {
            "isis" => {
                n += 1;
                let mut isis = IsisConfig::new("master", "");
                isis.wide_metrics = false;
                for st in &proto.children {
                    match st.word(0) {
                        "interface" => {
                            n += 1;
                            let ifname = strip_unit(st.word(1)).to_string();
                            let passive = st.child("passive").is_some();
                            let metric = st
                                .child("metric")
                                .and_then(|m| m.word(1).parse::<u32>().ok());
                            n += count_stmts(&st.children);
                            if let Some(iface) = cfg.interface_mut(&IfaceId::from(ifname.clone())) {
                                let mut ii = IfaceIsis::new("master");
                                ii.passive = passive;
                                if let Some(m) = metric {
                                    ii.metric = m;
                                }
                                iface.isis = Some(ii);
                            } else {
                                warnings.push(ParseWarning {
                                    line: st.line,
                                    text: st.words.join(" "),
                                    reason: "isis references unknown interface".into(),
                                });
                            }
                        }
                        "level" => {
                            n += 1;
                            if st.word(1) == "2" {
                                isis.level = IsisLevel::Level2;
                            } else if st.word(1) == "1" {
                                isis.level = IsisLevel::Level1;
                            }
                            if st.words.iter().any(|w| w == "wide-metrics-only") {
                                isis.wide_metrics = true;
                            }
                        }
                        "net" => {
                            // Convenience alias: NET normally comes from the
                            // lo0 `family iso address`; allow it inline too.
                            isis.net = st.word(1).to_string();
                            n += 1;
                        }
                        "export" => {
                            isis.redistribute_connected = true;
                            n += 1;
                        }
                        _ => {
                            warnings.push(ParseWarning {
                                line: st.line,
                                text: st.words.join(" "),
                                reason: "unrecognized isis statement".into(),
                            });
                        }
                    }
                }
                isis.af_ipv4 = true;
                cfg.isis = Some(isis);
            }
            "bgp" => {
                n += 1;
                let mut bgp = cfg.bgp.take().unwrap_or_else(|| BgpConfig::new(AsNum(0)));
                for group in proto.children_named("group") {
                    n += 1;
                    let external = group
                        .child("type")
                        .map(|t| t.word(1) == "external")
                        .unwrap_or(false);
                    let peer_as = group
                        .child("peer-as")
                        .and_then(|p| p.word(1).parse::<u32>().ok())
                        .map(AsNum);
                    let local_addr = group
                        .child("local-address")
                        .and_then(|p| p.word(1).parse::<Ipv4Addr>().ok());
                    let import = group.child("import").map(|s| s.word(1).to_string());
                    let export = group.child("export").map(|s| s.word(1).to_string());
                    let multihop = group.child("multihop").is_some();
                    let group_nhs = group.child("next-hop-self").is_some();
                    // A cluster id makes the group's members reflector clients.
                    let cluster = group.child("cluster").is_some();
                    n += count_stmts(&group.children)
                        - group
                            .children_named("neighbor")
                            .map(|s| 1 + count_stmts(&s.children))
                            .sum::<usize>();
                    for nb in group.children_named("neighbor") {
                        n += 1 + count_stmts(&nb.children);
                        let peer: Ipv4Addr = nb.word(1).parse().map_err(|_| ParseError {
                            line: nb.line,
                            text: nb.words.join(" "),
                            reason: "bad neighbor address".into(),
                        })?;
                        // Per-neighbor overrides of group settings.
                        let nb_peer_as = nb
                            .child("peer-as")
                            .and_then(|p| p.word(1).parse::<u32>().ok())
                            .map(AsNum)
                            .or(peer_as);
                        let remote_as = if external {
                            match nb_peer_as {
                                Some(ras) => ras,
                                None => {
                                    warnings.push(ParseWarning {
                                        line: nb.line,
                                        text: nb.words.join(" "),
                                        reason: "external group without peer-as".into(),
                                    });
                                    continue;
                                }
                            }
                        } else {
                            // Internal: same AS as ours (filled later from
                            // routing-options if it parses after protocols).
                            nb_peer_as.unwrap_or(AsNum(0))
                        };
                        let mut ncfg = BgpNeighborConfig::new(peer, remote_as);
                        ncfg.route_map_in = import.clone();
                        ncfg.route_map_out = export.clone();
                        ncfg.ebgp_multihop = multihop;
                        if let Some(la) = local_addr {
                            // Resolve local-address to the owning interface.
                            let owner = cfg
                                .interfaces
                                .iter()
                                .find(|i| i.addr.map(|a| a.addr) == Some(la))
                                .map(|i| i.name.clone());
                            match owner {
                                Some(ifname) => ncfg.update_source = Some(ifname),
                                None => warnings.push(ParseWarning {
                                    line: group.line,
                                    text: format!("local-address {la}"),
                                    reason: "local-address matches no interface".into(),
                                }),
                            }
                        }
                        if !external {
                            // Junos iBGP advertises self as next hop via an
                            // export policy; our dialect spells the common
                            // arrangement as an explicit `next-hop-self`.
                            ncfg.next_hop_self = group_nhs
                                || group.child("export").is_some()
                                || nb.child("next-hop-self").is_some();
                            ncfg.rr_client = cluster;
                        }
                        bgp.neighbors.push(ncfg);
                    }
                }
                cfg.bgp = Some(bgp);
            }
            "mpls" => {
                cfg.mpls.enabled = true;
                n += 1;
                for st in proto.children_named("interface") {
                    let ifname = strip_unit(st.word(1)).to_string();
                    if let Some(iface) = cfg.interface_mut(&IfaceId::from(ifname)) {
                        iface.mpls = true;
                    }
                    n += 1;
                }
                if proto.child("traffic-engineering").is_some() {
                    cfg.mpls.te_enabled = true;
                    n += 1;
                }
            }
            "rsvp" => {
                cfg.mpls.te_enabled = true;
                n += 1;
                let rsvp = cfg.mpls.rsvp.get_or_insert_with(RsvpConfig::default);
                for st in &proto.children {
                    match st.word(0) {
                        "hello-interval" => {
                            if let Ok(v) = st.word(1).parse() {
                                rsvp.hello_interval_ms = v;
                            }
                            n += 1;
                        }
                        "refresh-time" => {
                            if let Ok(v) = st.word(1).parse() {
                                rsvp.refresh_ms = v;
                            }
                            n += 1;
                        }
                        "interface" => {
                            n += 1;
                        }
                        _ => {
                            warnings.push(ParseWarning {
                                line: st.line,
                                text: st.words.join(" "),
                                reason: "unrecognized rsvp statement".into(),
                            });
                        }
                    }
                }
            }
            _ => {
                warnings.push(ParseWarning {
                    line: proto.line,
                    text: proto.words.join(" "),
                    reason: "unrecognized protocol".into(),
                });
            }
        }
    }
    Ok(n)
}

/// A prefix-list entry's words: a bare prefix permits it `le 32`; an action
/// then `ge N` / `le N` spell any other entry, and a trailing `seq N` a
/// sequence number other than its position's `seq` (dialect extensions).
fn prefix_list_entry(seq: u32, words: &[String]) -> Option<PrefixListEntry> {
    let mut words: Vec<&str> = words.iter().map(String::as_str).collect();
    let seq = match words[..] {
        [.., "seq", n] => {
            words.truncate(words.len() - 2);
            n.parse().ok()?
        }
        _ => seq,
    };
    let (action, bounds) = match words.get(1..)? {
        [] => (PolicyAction::Permit, None),
        ["permit", bounds @ ..] => (PolicyAction::Permit, Some(bounds)),
        ["deny", bounds @ ..] => (PolicyAction::Deny, Some(bounds)),
        _ => return None,
    };
    let (mut ge, mut le) = (None, bounds.is_none().then_some(32));
    let len = |n: &str| n.parse().ok().filter(|len| *len <= 32);
    for pair in bounds.unwrap_or_default().chunks(2) {
        match pair {
            ["ge", n] => ge = Some(len(n)?),
            ["le", n] => le = Some(len(n)?),
            _ => return None,
        }
    }
    let prefix = words.first()?.parse().ok()?;
    Some(PrefixListEntry {
        seq,
        action,
        prefix,
        ge,
        le,
    })
}

/// What [`prefix_list_entry`] reads back as `e` at position `i`.
fn prefix_list_text(i: usize, e: &PrefixListEntry) -> String {
    let seq = (e.seq != (i as u32 + 1) * 10).then(|| format!(" seq {}", e.seq));
    let seq = seq.unwrap_or_default();
    if (e.action, e.ge, e.le) == (PolicyAction::Permit, None, Some(32)) {
        return format!("{}{seq}", e.prefix);
    }
    let action = if e.action == PolicyAction::Permit {
        "permit"
    } else {
        "deny"
    };
    let bound = |kw, len: Option<u8>| len.map_or(String::new(), |len| format!(" {kw} {len}"));
    let (ge, le) = (bound("ge", e.ge), bound("le", e.le));
    format!("{} {action}{ge}{le}{seq}", e.prefix)
}

/// `item`'s generated name: `prefix`, then its place among the distinct
/// items `named` so far, to which it is added if new.
fn generated_name<T: PartialEq>(named: &mut Vec<T>, item: T, prefix: char) -> String {
    let at = named.iter().position(|n| *n == item).unwrap_or(named.len());
    if at == named.len() {
        named.push(item);
    }
    format!("{prefix}{}", at + 1)
}

/// The named definitions policy-statements refer to.
#[derive(Default)]
struct Defs {
    communities: Vec<(String, Vec<Community>)>,
    /// AS-path names and the longest path each one matches.
    as_paths: Vec<(String, usize)>,
}

fn lower_policy_options(
    section: &Stmt,
    cfg: &mut DeviceConfig,
    defs: &Defs,
    warnings: &mut Vec<ParseWarning>,
) -> Result<usize, ParseError> {
    let mut n = 0;
    for st in &section.children {
        match st.word(0) {
            "prefix-list" => {
                n += 1;
                let name = st.word(1).to_string();
                let pl = cfg.prefix_lists.entry(name).or_default();
                for (i, entry) in st.children.iter().enumerate() {
                    let seq = (i as u32 + 1) * 10;
                    let parsed =
                        prefix_list_entry(seq, &entry.words).ok_or_else(|| ParseError {
                            line: entry.line,
                            text: entry.words.join(" "),
                            reason: "bad prefix-list entry".into(),
                        })?;
                    pl.entries.push(parsed);
                    n += 1;
                }
            }
            "community" | "as-path" => {
                // Handled in the prepass; count as recognized.
                n += 1;
            }
            "policy-statement" => {
                n += 1;
                let name = st.word(1).to_string();
                let rm = cfg.route_maps.entry(name).or_default();
                for (i, term) in st.children_named("term").enumerate() {
                    n += 1;
                    // A term rendered from a sequence number is named for it.
                    let named = term.word(1).strip_prefix('t').and_then(|n| n.parse().ok());
                    let seq = named.unwrap_or((i as u32 + 1) * 10);
                    let mut entry = RouteMapEntry {
                        seq,
                        action: PolicyAction::Permit,
                        matches: Vec::new(),
                        sets: Vec::new(),
                    };
                    if let Some(from) = term.child("from") {
                        n += 1;
                        for m in &from.children {
                            match m.word(0) {
                                "prefix-list" => {
                                    entry
                                        .matches
                                        .push(MatchClause::PrefixList(m.word(1).into()));
                                    n += 1;
                                }
                                "as-path" => {
                                    let def = defs.as_paths.iter().find(|(d, _)| d == m.word(1));
                                    match def {
                                        Some((_, len)) => {
                                            entry.matches.push(MatchClause::MaxAsPathLen(*len))
                                        }
                                        None => warnings.push(ParseWarning {
                                            line: m.line,
                                            text: m.words.join(" "),
                                            reason: "undefined or unsupported as-path".into(),
                                        }),
                                    }
                                    n += 1;
                                }
                                "community" => {
                                    let cname = m.word(1);
                                    match defs
                                        .communities
                                        .iter()
                                        .find(|(defname, _)| defname == cname)
                                    {
                                        Some((_, comms)) => {
                                            for c in comms {
                                                entry.matches.push(MatchClause::Community(*c));
                                            }
                                        }
                                        None => warnings.push(ParseWarning {
                                            line: m.line,
                                            text: m.words.join(" "),
                                            reason: "undefined community".into(),
                                        }),
                                    }
                                    n += 1;
                                }
                                _ => warnings.push(ParseWarning {
                                    line: m.line,
                                    text: m.words.join(" "),
                                    reason: "unrecognized from clause".into(),
                                }),
                            }
                        }
                    }
                    if let Some(then) = term.child("then") {
                        n += 1;
                        for a in &then.children {
                            match a.word(0) {
                                "accept" => {
                                    entry.action = PolicyAction::Permit;
                                    n += 1;
                                }
                                "reject" => {
                                    entry.action = PolicyAction::Deny;
                                    n += 1;
                                }
                                "local-preference" => {
                                    if let Ok(v) = a.word(1).parse() {
                                        entry.sets.push(SetClause::LocalPref(v));
                                    }
                                    n += 1;
                                }
                                "metric" => {
                                    if let Ok(v) = a.word(1).parse() {
                                        entry.sets.push(SetClause::Med(v));
                                    }
                                    n += 1;
                                }
                                "community" => {
                                    // community add NAME / community set NAME
                                    let mode = a.word(1);
                                    let cname = a.word(2);
                                    let comms = defs
                                        .communities
                                        .iter()
                                        .find(|(defname, _)| defname == cname)
                                        .map(|(_, c)| c.clone());
                                    match comms {
                                        Some(comms) if mode == "add" => {
                                            entry.sets.push(SetClause::AddCommunities(comms))
                                        }
                                        Some(comms) => {
                                            entry.sets.push(SetClause::SetCommunities(comms))
                                        }
                                        None => warnings.push(ParseWarning {
                                            line: a.line,
                                            text: a.words.join(" "),
                                            reason: "undefined community".into(),
                                        }),
                                    }
                                    n += 1;
                                }
                                "as-path-prepend" => {
                                    let asns: Option<Vec<AsNum>> = a.words[1..]
                                        .iter()
                                        .map(|w| w.parse().ok().map(AsNum))
                                        .collect();
                                    if let Some(asns) = asns {
                                        entry.sets.push(SetClause::PrependAsPath(asns));
                                    }
                                    n += 1;
                                }
                                "next-hop" => {
                                    if let Ok(ip) = a.word(1).parse() {
                                        entry.sets.push(SetClause::NextHop(ip));
                                    }
                                    n += 1;
                                }
                                _ => warnings.push(ParseWarning {
                                    line: a.line,
                                    text: a.words.join(" "),
                                    reason: "unrecognized then clause".into(),
                                }),
                            }
                        }
                    }
                    rm.entries.push(entry);
                }
            }
            _ => warnings.push(ParseWarning {
                line: st.line,
                text: st.words.join(" "),
                reason: "unrecognized policy-options statement".into(),
            }),
        }
    }
    Ok(n)
}

fn lower_routing_options(
    section: &Stmt,
    cfg: &mut DeviceConfig,
    warnings: &mut Vec<ParseWarning>,
) -> Result<usize, ParseError> {
    let mut n = 0;
    for st in &section.children {
        match st.word(0) {
            "router-id" => {
                let ip: Ipv4Addr = st.word(1).parse().map_err(|_| ParseError {
                    line: st.line,
                    text: st.words.join(" "),
                    reason: "bad router-id".into(),
                })?;
                cfg.bgp
                    .get_or_insert_with(|| BgpConfig::new(AsNum(0)))
                    .router_id = Some(RouterId(ip));
                n += 1;
            }
            "autonomous-system" => {
                let asn: u32 = st.word(1).parse().map_err(|_| ParseError {
                    line: st.line,
                    text: st.words.join(" "),
                    reason: "bad autonomous-system".into(),
                })?;
                let bgp = cfg.bgp.get_or_insert_with(|| BgpConfig::new(AsNum(0)));
                bgp.asn = AsNum(asn);
                // Internal neighbors parsed before the AS was known.
                for nb in &mut bgp.neighbors {
                    if nb.remote_as == AsNum(0) {
                        nb.remote_as = AsNum(asn);
                    }
                }
                n += 1;
            }
            "static" => {
                n += 1;
                for r in st.children_named("route") {
                    let prefix: Prefix = r.word(1).parse().map_err(|_| ParseError {
                        line: r.line,
                        text: r.words.join(" "),
                        reason: "bad static route".into(),
                    })?;
                    let nh = r
                        .words
                        .iter()
                        .position(|w| w == "next-hop")
                        .and_then(|i| r.words.get(i + 1))
                        .and_then(|w| w.parse::<Ipv4Addr>().ok());
                    match nh {
                        Some(next_hop) => {
                            cfg.static_routes.push(StaticRoute {
                                prefix,
                                next_hop,
                                distance: None,
                            });
                            n += 1;
                        }
                        None => warnings.push(ParseWarning {
                            line: r.line,
                            text: r.words.join(" "),
                            reason: "static route without next-hop".into(),
                        }),
                    }
                }
            }
            "network" => {
                let p: Prefix = st.word(1).parse().map_err(|_| ParseError {
                    line: st.line,
                    text: st.words.join(" "),
                    reason: "bad network prefix".into(),
                })?;
                cfg.bgp
                    .get_or_insert_with(|| BgpConfig::new(AsNum(0)))
                    .networks
                    .push(p);
                n += 1;
            }
            "redistribute" => {
                let proto = Redistribute::from_keyword(st.word(1));
                let route_map = match st.words.get(2..).unwrap_or_default() {
                    [] => Some(None),
                    [kw, name] if kw == "policy" => Some(Some(name.clone())),
                    _ => None,
                };
                let (Some(proto), Some(route_map)) = (proto, route_map) else {
                    warnings.push(ParseWarning {
                        line: st.line,
                        text: st.words.join(" "),
                        reason: "unrecognized redistribute statement".into(),
                    });
                    continue;
                };
                cfg.bgp
                    .get_or_insert_with(|| BgpConfig::new(AsNum(0)))
                    .redistribute
                    .push(BgpRedistribute { proto, route_map });
                n += 1;
            }
            "maximum-paths" | "multipath" => {
                cfg.bgp
                    .get_or_insert_with(|| BgpConfig::new(AsNum(0)))
                    .max_paths = st.word(1).parse().unwrap_or(4);
                n += 1;
            }
            _ => warnings.push(ParseWarning {
                line: st.line,
                text: st.words.join(" "),
                reason: "unrecognized routing-options statement".into(),
            }),
        }
    }
    Ok(n)
}

/// Renders a [`DeviceConfig`] in canonical Junos style.
pub fn render(cfg: &DeviceConfig) -> String {
    let mut out = String::new();
    let mut w = Indent::new(&mut out);

    w.open("system");
    w.line(&format!("host-name {};", cfg.hostname));
    if !cfg.mgmt.apis.is_empty() || !cfg.mgmt.ssl_profiles.is_empty() {
        w.open("services");
        for api in &cfg.mgmt.apis {
            if api == "grpc" {
                w.line("extension-service;");
            } else {
                w.line(&format!("{api};"));
            }
        }
        for prof in &cfg.mgmt.ssl_profiles {
            w.line(&format!("ssl-profile {prof};"));
        }
        w.close();
    }
    if !cfg.mgmt.daemons.is_empty() {
        w.open("processes");
        for d in &cfg.mgmt.daemons {
            w.line(&format!("{d};"));
        }
        w.close();
    }
    if !cfg.mgmt.ntp_servers.is_empty() {
        w.open("ntp");
        for s in &cfg.mgmt.ntp_servers {
            w.line(&format!("server {s};"));
        }
        w.close();
    }
    if !cfg.mgmt.logging_hosts.is_empty() {
        w.open("syslog");
        for s in &cfg.mgmt.logging_hosts {
            w.line(&format!("host {s};"));
        }
        w.close();
    }
    w.close();

    w.open("interfaces");
    for iface in &cfg.interfaces {
        w.open(iface.name.as_str());
        if let Some(d) = &iface.description {
            w.line(&format!("description \"{d}\";"));
        }
        if iface.shutdown {
            w.line("disable;");
        }
        w.open("unit 0");
        if let Some(a) = &iface.addr {
            w.open("family inet");
            w.line(&format!("address {a};"));
            w.close();
        }
        if iface.isis.is_some() || iface.name.is_loopback() {
            w.line("family iso;");
        }
        if iface.mpls {
            w.line("family mpls;");
        }
        w.close();
        w.close();
    }
    w.close();

    let has_protocols = cfg.isis.is_some()
        || cfg
            .bgp
            .as_ref()
            .map(|b| !b.neighbors.is_empty())
            .unwrap_or(false)
        || cfg.mpls.enabled;
    if has_protocols {
        w.open("protocols");
        if let Some(isis) = &cfg.isis {
            w.open("isis");
            if !isis.net.is_empty() {
                w.line(&format!("net {};", isis.net));
            }
            let level = match isis.level {
                IsisLevel::Level1 => "1",
                IsisLevel::Level2 | IsisLevel::Level1And2 => "2",
            };
            if isis.wide_metrics {
                w.line(&format!("level {level} wide-metrics-only;"));
            } else {
                w.line(&format!("level {level};"));
            }
            for iface in &cfg.interfaces {
                if let Some(ii) = &iface.isis {
                    if ii.passive || ii.metric != 10 {
                        w.open(&format!("interface {}.0", iface.name));
                        if ii.passive {
                            w.line("passive;");
                        }
                        if ii.metric != 10 {
                            w.line(&format!("metric {};", ii.metric));
                        }
                        w.close();
                    } else {
                        w.line(&format!("interface {}.0;", iface.name));
                    }
                }
            }
            w.close();
        }
        if let Some(bgp) = &cfg.bgp {
            if !bgp.neighbors.is_empty() {
                w.open("bgp");
                let (ext, int): (Vec<_>, Vec<_>) =
                    bgp.neighbors.iter().partition(|n| n.remote_as != bgp.asn);
                for (gi, n) in ext.iter().enumerate() {
                    w.open(&format!("group ebgp-{gi}"));
                    w.line("type external;");
                    w.line(&format!("peer-as {};", n.remote_as));
                    if n.ebgp_multihop {
                        w.line("multihop;");
                    }
                    if let Some(rm) = &n.route_map_in {
                        w.line(&format!("import {rm};"));
                    }
                    if let Some(rm) = &n.route_map_out {
                        w.line(&format!("export {rm};"));
                    }
                    w.line(&format!("neighbor {};", n.peer));
                    w.close();
                }
                // Reflector clients get a group of their own, under this
                // router's id as the cluster id.
                let (clients, peers): (Vec<_>, Vec<_>) = int.into_iter().partition(|n| n.rr_client);
                for (name, int) in [("ibgp", peers), ("ibgp-clients", clients)] {
                    let Some(first) = int.first() else {
                        continue;
                    };
                    w.open(&format!("group {name}"));
                    w.line("type internal;");
                    if first.rr_client {
                        let id = cfg
                            .effective_router_id()
                            .map_or(Ipv4Addr::UNSPECIFIED, |r| r.0);
                        w.line(&format!("cluster {id};"));
                    }
                    if int.iter().all(|n| n.next_hop_self) {
                        w.line("next-hop-self;");
                    }
                    if let Some(src) = first.update_source.as_ref() {
                        if let Some(ifc) = cfg.interfaces.iter().find(|i| &i.name == src) {
                            if let Some(a) = ifc.addr {
                                w.line(&format!("local-address {};", a.addr));
                            }
                        }
                    }
                    for n in &int {
                        w.line(&format!("neighbor {};", n.peer));
                    }
                    w.close();
                }
                w.close();
            }
        }
        if cfg.mpls.enabled {
            w.open("mpls");
            for iface in &cfg.interfaces {
                if iface.mpls {
                    w.line(&format!("interface {}.0;", iface.name));
                }
            }
            w.close();
        }
        if cfg.mpls.te_enabled {
            w.open("rsvp");
            if let Some(rsvp) = &cfg.mpls.rsvp {
                w.line(&format!("hello-interval {};", rsvp.hello_interval_ms));
                w.line(&format!("refresh-time {};", rsvp.refresh_ms));
            }
            for iface in &cfg.interfaces {
                if iface.mpls {
                    w.line(&format!("interface {}.0;", iface.name));
                }
            }
            w.close();
        }
        w.close();
    }

    if !cfg.prefix_lists.is_empty() || !cfg.route_maps.is_empty() {
        w.open("policy-options");
        // Each distinct community set a term matches, adds or sets, and
        // each distinct AS-path length bound, named for its place among
        // them and defined after the statements.
        let mut sets: Vec<Vec<Community>> = Vec::new();
        let mut lens: Vec<usize> = Vec::new();
        let mut set_name = |set| generated_name(&mut sets, set, 'c');
        let mut len_name = |len| generated_name(&mut lens, len, 'a');
        let community = |m: &MatchClause| match m {
            MatchClause::Community(c) => Some(*c),
            _ => None,
        };
        for (name, pl) in &cfg.prefix_lists {
            w.open(&format!("prefix-list {name}"));
            for (i, e) in pl.entries.iter().enumerate() {
                w.line(&format!("{};", prefix_list_text(i, e)));
            }
            w.close();
        }
        for (name, rm) in &cfg.route_maps {
            w.open(&format!("policy-statement {name}"));
            for e in &rm.entries {
                w.open(&format!("term t{}", e.seq));
                if !e.matches.is_empty() {
                    w.open("from");
                    // A run of community matches is one `from community`.
                    let runs = e
                        .matches
                        .chunk_by(|a, b| community(a).and(community(b)).is_some());
                    for run in runs {
                        let set: Vec<Community> = run.iter().filter_map(community).collect();
                        match run {
                            [MatchClause::PrefixList(pl)] => w.line(&format!("prefix-list {pl};")),
                            [MatchClause::Community(_), ..] => {
                                w.line(&format!("community {};", set_name(set)))
                            }
                            [MatchClause::MaxAsPathLen(len)] => {
                                w.line(&format!("as-path {};", len_name(*len)))
                            }
                            _ => {}
                        }
                    }
                    w.close();
                }
                w.open("then");
                for s in &e.sets {
                    match s {
                        SetClause::LocalPref(v) => w.line(&format!("local-preference {v};")),
                        SetClause::Med(v) => w.line(&format!("metric {v};")),
                        SetClause::NextHop(ip) => w.line(&format!("next-hop {ip};")),
                        SetClause::AddCommunities(cs) => {
                            w.line(&format!("community add {};", set_name(cs.clone())))
                        }
                        SetClause::SetCommunities(cs) => {
                            w.line(&format!("community set {};", set_name(cs.clone())))
                        }
                        SetClause::PrependAsPath(asns) => {
                            let asns: String = asns.iter().map(|a| format!(" {}", a.0)).collect();
                            w.line(&format!("as-path-prepend{asns};"));
                        }
                    }
                }
                match e.action {
                    PolicyAction::Permit => w.line("accept;"),
                    PolicyAction::Deny => w.line("reject;"),
                }
                w.close();
                w.close();
            }
            w.close();
        }
        for (i, set) in sets.iter().enumerate() {
            let members: String = set.iter().map(|c| format!(" {c}")).collect();
            w.line(&format!("community c{} members{members};", i + 1));
        }
        for (i, len) in lens.iter().enumerate() {
            w.line(&format!("as-path a{} \".{{0,{len}}}\";", i + 1));
        }
        w.close();
    }

    w.open("routing-options");
    if let Some(bgp) = &cfg.bgp {
        if let Some(rid) = bgp.router_id {
            w.line(&format!("router-id {rid};"));
        }
        if bgp.asn != AsNum(0) {
            w.line(&format!("autonomous-system {};", bgp.asn));
        }
        if bgp.max_paths > 1 {
            w.line(&format!("maximum-paths {};", bgp.max_paths));
        }
        // Dialect extension: our vjunos flavour originates BGP prefixes via
        // `network` under routing-options (real Junos uses export policy;
        // the shorthand keeps cross-vendor specs symmetrical).
        for p in &bgp.networks {
            w.line(&format!("network {p};"));
        }
        // The same shorthand for redistribution, policed by a
        // policy-statement where the IR names a route-map.
        for r in &bgp.redistribute {
            match &r.route_map {
                Some(rm) => w.line(&format!("redistribute {} policy {rm};", r.proto.keyword())),
                None => w.line(&format!("redistribute {};", r.proto.keyword())),
            }
        }
    }
    if !cfg.static_routes.is_empty() {
        w.open("static");
        for r in &cfg.static_routes {
            w.line(&format!("route {} next-hop {};", r.prefix, r.next_hop));
        }
        w.close();
    }
    w.close();

    out
}

struct Indent<'a> {
    out: &'a mut String,
    depth: usize,
}

impl<'a> Indent<'a> {
    fn new(out: &'a mut String) -> Indent<'a> {
        Indent { out, depth: 0 }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.depth {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn open(&mut self, s: &str) {
        self.line(&format!("{s} {{"));
        self.depth += 1;
    }

    fn close(&mut self) {
        self.depth -= 1;
        self.line("}");
    }
}

impl fmt::Debug for Indent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Indent(depth={})", self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
system {
    host-name r4;
    services {
        ssh;
        netconf;
        extension-service {
            request-response;
        }
    }
    processes {
        power-manager;
        led-control;
    }
    ntp {
        server 192.0.2.123;
    }
}
interfaces {
    ge-0/0/0 {
        description "to r1";
        unit 0 {
            family inet {
                address 100.64.0.0/31;
            }
            family iso;
            family mpls;
        }
    }
    lo0 {
        unit 0 {
            family inet {
                address 2.2.2.4/32;
            }
            family iso;
        }
    }
}
protocols {
    isis {
        net 49.0001.0000.0000.0004.00;
        level 2 wide-metrics-only;
        interface ge-0/0/0.0;
        interface lo0.0 {
            passive;
        }
    }
    bgp {
        group ebgp-0 {
            type external;
            peer-as 65001;
            import IMPORT;
            neighbor 100.64.0.1;
        }
        group ibgp {
            type internal;
            local-address 2.2.2.4;
            neighbor 2.2.2.5;
        }
    }
    mpls {
        interface ge-0/0/0.0;
    }
    rsvp {
        hello-interval 5000;
        refresh-time 20000;
        interface ge-0/0/0.0;
    }
}
policy-options {
    prefix-list CUSTOMER {
        203.0.113.0/24;
    }
    community CUST members 65002:100;
    policy-statement IMPORT {
        term t10 {
            from {
                prefix-list CUSTOMER;
            }
            then {
                local-preference 200;
                community add CUST;
                accept;
            }
        }
        term t20 {
            then {
                reject;
            }
        }
    }
}
routing-options {
    router-id 2.2.2.4;
    autonomous-system 65002;
    static {
        route 198.51.100.0/24 next-hop 100.64.0.1;
    }
}
"#;

    #[test]
    fn tree_parser_handles_nesting() {
        let tree = parse_tree(SAMPLE).unwrap();
        assert_eq!(tree.len(), 5);
        let system = &tree[0];
        assert_eq!(system.word(0), "system");
        assert_eq!(system.child("host-name").unwrap().word(1), "r4");
    }

    #[test]
    fn tree_parser_rejects_unbalanced() {
        assert!(parse_tree("system {").is_err());
        assert!(parse_tree("a b c }").is_err());
        assert!(parse_tree("dangling words").is_err());
    }

    #[test]
    fn quoted_strings_and_comments() {
        let tree = parse_tree("a { description \"two words\"; } # trailing\n").unwrap();
        let d = tree[0].child("description").unwrap();
        assert_eq!(d.word(1), "two words");
    }

    #[test]
    fn lowering_produces_expected_ir() {
        let parsed = parse(SAMPLE).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let cfg = parsed.config;
        assert_eq!(&*cfg.hostname, "r4");
        assert_eq!(cfg.vendor, Vendor::Vjunos);
        assert!(cfg.mgmt.apis.contains(&"ssh".to_string()));
        assert!(cfg.mgmt.apis.contains(&"grpc".to_string()));
        assert_eq!(cfg.mgmt.daemons.len(), 2);

        let ge = cfg.interface(&IfaceId::from("ge-0/0/0")).unwrap();
        assert!(ge.routed && ge.is_l3());
        assert_eq!(ge.addr.unwrap().to_string(), "100.64.0.0/31");
        assert!(ge.mpls);
        assert_eq!(ge.isis.as_ref().unwrap().instance, "master");
        assert!(!ge.isis.as_ref().unwrap().passive);

        let lo = cfg.interface(&IfaceId::from("lo0")).unwrap();
        assert!(lo.isis.as_ref().unwrap().passive);

        let isis = cfg.isis.as_ref().unwrap();
        assert_eq!(isis.net, "49.0001.0000.0000.0004.00");
        assert!(isis.wide_metrics);

        let bgp = cfg.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn, AsNum(65002));
        assert_eq!(bgp.neighbors.len(), 2);
        let ebgp = bgp.neighbor("100.64.0.1".parse().unwrap()).unwrap();
        assert_eq!(ebgp.remote_as, AsNum(65001));
        assert_eq!(ebgp.route_map_in.as_deref(), Some("IMPORT"));
        let ibgp = bgp.neighbor("2.2.2.5".parse().unwrap()).unwrap();
        assert_eq!(ibgp.remote_as, AsNum(65002), "internal inherits our AS");
        assert_eq!(ibgp.update_source, Some(IfaceId::from("lo0")));

        assert!(cfg.mpls.enabled && cfg.mpls.te_enabled);
        assert_eq!(cfg.mpls.rsvp.unwrap().hello_interval_ms, 5000);

        let rm = &cfg.route_maps["IMPORT"];
        assert_eq!(rm.entries.len(), 2);
        assert_eq!(rm.entries[0].action, PolicyAction::Permit);
        assert_eq!(rm.entries[1].action, PolicyAction::Deny);
        assert!(matches!(
            rm.entries[0].sets[1],
            SetClause::AddCommunities(ref cs) if cs == &vec![Community::new(65002, 100)]
        ));

        assert_eq!(cfg.static_routes.len(), 1);
    }

    #[test]
    fn render_parse_roundtrip() {
        let parsed = parse(SAMPLE).unwrap();
        let text = render(&parsed.config);
        let back = parse(&text).unwrap();
        assert!(
            back.warnings.is_empty(),
            "{:?}\n---\n{}",
            back.warnings,
            text
        );
        // Compare the semantically-relevant parts (mgmt rendering collapses
        // some service details).
        assert_eq!(back.config.hostname, parsed.config.hostname);
        assert_eq!(back.config.interfaces, parsed.config.interfaces);
        assert_eq!(back.config.isis, parsed.config.isis);
        assert_eq!(back.config.static_routes, parsed.config.static_routes);
        assert_eq!(back.config.mpls, parsed.config.mpls);
        let a = back.config.bgp.unwrap();
        let b = parsed.config.bgp.unwrap();
        assert_eq!(a.asn, b.asn);
        assert_eq!(a.neighbors.len(), b.neighbors.len());
        for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
            assert_eq!(x.peer, y.peer);
            assert_eq!(x.remote_as, y.remote_as);
        }
    }

    #[test]
    fn external_group_without_peer_as_warns() {
        let text = "protocols { bgp { group broken { type external; neighbor 10.0.0.1; } } }";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.iter().any(|w| w.reason.contains("peer-as")));
        assert!(parsed.config.bgp.unwrap().neighbors.is_empty());
    }

    #[test]
    fn strip_unit_variants() {
        assert_eq!(strip_unit("ge-0/0/0.0"), "ge-0/0/0");
        assert_eq!(strip_unit("lo0.0"), "lo0");
        assert_eq!(strip_unit("ge-0/0/0"), "ge-0/0/0");
        assert_eq!(strip_unit("weird.name.12"), "weird.name");
    }
}
