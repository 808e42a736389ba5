//! Parser and renderer for the EOS-like industry-standard CLI dialect.
//!
//! Structure: top-level commands introduce sections; indented lines belong to
//! the current section; `!` (or the next top-level line) closes it. This is
//! the dialect the paper's Fig. 3 snippet is written in, and the one whose
//! semantics the model-based baseline misinterprets.
//!
//! Parsing here is *vendor-faithful*: statement order inside a stanza does
//! not matter (`ip address` before `no switchport` works fine, unlike the
//! Batfish-style model), and unknown statements are recorded as warnings and
//! ignored rather than corrupting the rest of the config.

use std::fmt;
use std::net::Ipv4Addr;

use mfv_types::{AsNum, Community, IfaceAddr, Prefix, RouterId};

use crate::ir::*;

/// A non-fatal problem encountered while applying a configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseWarning {
    /// 1-based line number in the source text.
    pub line: usize,
    /// The offending text, trimmed.
    pub text: String,
    pub reason: String,
}

impl fmt::Display for ParseWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} ({})", self.line, self.text, self.reason)
    }
}

/// A fatal configuration error (malformed values the CLI would reject).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    pub line: usize,
    pub text: String,
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "config error at line {}: {} ({})",
            self.line, self.text, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing: the config plus diagnostics.
#[derive(Clone, Debug)]
pub struct Parsed {
    pub config: DeviceConfig,
    pub warnings: Vec<ParseWarning>,
    /// Number of non-blank, non-comment statements the parser understood.
    pub recognized_lines: usize,
    /// Total non-blank, non-comment statements.
    pub total_lines: usize,
}

/// Parses an EOS-style configuration.
pub fn parse(text: &str) -> Result<Parsed, ParseError> {
    Parser::new(text).run()
}

struct Line<'a> {
    number: usize,
    indented: bool,
    words: Vec<&'a str>,
    raw: &'a str,
}

struct Parser<'a> {
    lines: Vec<Line<'a>>,
    pos: usize,
    cfg: DeviceConfig,
    warnings: Vec<ParseWarning>,
    recognized: usize,
    total: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        let lines = text
            .lines()
            .enumerate()
            .filter_map(|(i, raw)| {
                let trimmed = raw.trim_end();
                let body = trimmed.trim_start();
                if body.is_empty() || body.starts_with('!') {
                    return None;
                }
                Some(Line {
                    number: i + 1,
                    indented: trimmed.len() != body.len(),
                    words: body.split_whitespace().collect(),
                    raw: body,
                })
            })
            .collect();
        Parser {
            lines,
            pos: 0,
            cfg: DeviceConfig::new("", Vendor::Ceos),
            warnings: Vec::new(),
            recognized: 0,
            total: 0,
        }
    }

    fn run(mut self) -> Result<Parsed, ParseError> {
        self.total = self.lines.len();
        while self.pos < self.lines.len() {
            self.top_level()?;
        }
        Ok(Parsed {
            config: self.cfg,
            warnings: self.warnings,
            recognized_lines: self.recognized,
            total_lines: self.total,
        })
    }

    fn warn(&mut self, line: usize, text: &str, reason: &str) {
        self.warnings.push(ParseWarning {
            line,
            text: text.to_string(),
            reason: reason.to_string(),
        });
    }

    fn err(&self, line: usize, text: &str, reason: &str) -> ParseError {
        ParseError {
            line,
            text: text.to_string(),
            reason: reason.to_string(),
        }
    }

    /// Collects the indices of the indented lines forming the current
    /// section body (after the section header at `self.pos` was consumed).
    fn section_body(&mut self) -> Vec<usize> {
        let mut body = Vec::new();
        while self.pos < self.lines.len() && self.lines[self.pos].indented {
            body.push(self.pos);
            self.pos += 1;
        }
        body
    }

    fn top_level(&mut self) -> Result<(), ParseError> {
        let idx = self.pos;
        self.pos += 1;
        let (number, raw) = (self.lines[idx].number, self.lines[idx].raw.to_string());
        let words: Vec<String> = self.lines[idx]
            .words
            .iter()
            .map(|w| w.to_string())
            .collect();
        let w: Vec<&str> = words.iter().map(|s| s.as_str()).collect();

        match w.as_slice() {
            ["hostname", name] => {
                self.cfg.hostname = (*name).into();
                self.recognized += 1;
            }
            ["ip", "routing"] => {
                self.cfg.ip_routing = true;
                self.recognized += 1;
            }
            ["no", "ip", "routing"] => {
                self.cfg.ip_routing = false;
                self.recognized += 1;
            }
            ["service", "routing", ..]
            | ["spanning-tree", ..]
            | ["aaa", ..]
            | ["username", ..]
            | ["snmp-server", ..]
            | ["ip", "community-list", ..]
            | ["end"] => {
                // Recognized platform statements with no routing effect.
                self.recognized += 1;
            }
            ["ntp", "server", addr] => {
                let ip: Ipv4Addr = addr
                    .parse()
                    .map_err(|_| self.err(number, &raw, "bad NTP server address"))?;
                self.cfg.mgmt.ntp_servers.push(ip);
                self.recognized += 1;
            }
            ["logging", "host", addr] => {
                let ip: Ipv4Addr = addr
                    .parse()
                    .map_err(|_| self.err(number, &raw, "bad logging host"))?;
                self.cfg.mgmt.logging_hosts.push(ip);
                self.recognized += 1;
            }
            ["daemon", name] => {
                self.recognized += 1;
                let body = self.section_body();
                self.recognized += body.len(); // daemon bodies are opaque
                self.cfg.mgmt.daemons.push(name.to_string());
            }
            ["management", "api", api, ..] => {
                self.recognized += 1;
                self.cfg.mgmt.apis.push(api.to_string());
                let body = self.section_body();
                for b in body {
                    let bw = self.lines[b].words.clone();
                    if let ["ssl", "profile", prof] = bw.as_slice() {
                        // Several services may reference the same profile;
                        // the profile set is deduplicated.
                        if !self.cfg.mgmt.ssl_profiles.iter().any(|p| p == prof) {
                            self.cfg.mgmt.ssl_profiles.push(prof.to_string());
                        }
                    }
                    self.recognized += 1;
                }
            }
            ["management", "ssh"] => {
                self.recognized += 1;
                self.cfg.mgmt.apis.push("ssh".to_string());
                self.recognized += self.section_body().len();
            }
            ["management", "security"] => {
                self.recognized += 1;
                let body = self.section_body();
                for b in body {
                    let bw = self.lines[b].words.clone();
                    if let ["ssl", "profile", prof] = bw.as_slice() {
                        // Several services may reference the same profile;
                        // the profile set is deduplicated.
                        if !self.cfg.mgmt.ssl_profiles.iter().any(|p| p == prof) {
                            self.cfg.mgmt.ssl_profiles.push(prof.to_string());
                        }
                    }
                    self.recognized += 1;
                }
            }
            ["vlan", _] => {
                self.recognized += 1;
                self.recognized += self.section_body().len();
            }
            ["mpls", "ip"] => {
                self.cfg.mpls.enabled = true;
                self.recognized += 1;
            }
            ["router", "traffic-engineering"] => {
                self.cfg.mpls.te_enabled = true;
                self.recognized += 1;
                let body = self.section_body();
                for b in body {
                    let (n, r) = (self.lines[b].number, self.lines[b].raw.to_string());
                    let bw = self.lines[b].words.clone();
                    match bw.as_slice() {
                        ["rsvp", "hello-interval", ms] => {
                            let v: u32 = ms
                                .parse()
                                .map_err(|_| self.err(n, &r, "bad rsvp hello-interval"))?;
                            self.cfg
                                .mpls
                                .rsvp
                                .get_or_insert_with(RsvpConfig::default)
                                .hello_interval_ms = v;
                            self.recognized += 1;
                        }
                        ["rsvp", "refresh-time", ms] => {
                            let v: u32 = ms
                                .parse()
                                .map_err(|_| self.err(n, &r, "bad rsvp refresh-time"))?;
                            self.cfg
                                .mpls
                                .rsvp
                                .get_or_insert_with(RsvpConfig::default)
                                .refresh_ms = v;
                            self.recognized += 1;
                        }
                        ["rsvp"] => {
                            self.cfg.mpls.rsvp.get_or_insert_with(RsvpConfig::default);
                            self.recognized += 1;
                        }
                        _ => {
                            self.recognized += 1; // TE internals are opaque
                        }
                    }
                }
            }
            ["interface", name] => {
                self.recognized += 1;
                let name = name.to_string();
                self.interface_section(&name)?;
            }
            ["router", "isis", instance] => {
                self.recognized += 1;
                let instance = instance.to_string();
                self.isis_section(&instance)?;
            }
            ["router", "bgp", asn] => {
                let asn: u32 = asn
                    .parse()
                    .map_err(|_| self.err(number, &raw, "bad AS number"))?;
                self.recognized += 1;
                self.bgp_section(AsNum(asn))?;
            }
            ["route-map", name, action, seq] => {
                let action = match *action {
                    "permit" => PolicyAction::Permit,
                    "deny" => PolicyAction::Deny,
                    _ => return Err(self.err(number, &raw, "route-map action")),
                };
                let seq: u32 = seq
                    .parse()
                    .map_err(|_| self.err(number, &raw, "route-map seq"))?;
                self.recognized += 1;
                let name = name.to_string();
                self.route_map_section(&name, action, seq)?;
            }
            ["ip", "prefix-list", name, "seq", seq, action, rest @ ..] => {
                self.prefix_list_line(name, seq, action, rest, number, &raw)?;
                self.recognized += 1;
            }
            ["ip", "route", prefix, nh, rest @ ..] => {
                let prefix: Prefix = prefix
                    .parse()
                    .map_err(|_| self.err(number, &raw, "bad static route prefix"))?;
                let next_hop: Ipv4Addr = nh
                    .parse()
                    .map_err(|_| self.err(number, &raw, "bad static route next hop"))?;
                let distance = match rest {
                    [] => None,
                    [d] => Some(
                        d.parse()
                            .map_err(|_| self.err(number, &raw, "bad distance"))?,
                    ),
                    _ => return Err(self.err(number, &raw, "trailing arguments")),
                };
                self.cfg.static_routes.push(StaticRoute {
                    prefix,
                    next_hop,
                    distance,
                });
                self.recognized += 1;
            }
            _ => {
                self.warn(number, &raw, "unrecognized top-level statement");
                // Consume any body so its lines don't become top-level noise.
                let body = self.section_body();
                for b in body {
                    let (n, r) = (self.lines[b].number, self.lines[b].raw.to_string());
                    self.warn(n, &r, "inside unrecognized section");
                }
            }
        }
        Ok(())
    }

    fn interface_section(&mut self, name: &str) -> Result<(), ParseError> {
        let body = self.section_body();
        // Vendor-faithful semantics: collect the whole stanza first, then
        // apply — statement order cannot change the result.
        let iface_idx = {
            self.cfg.ensure_interface(name);
            self.cfg
                .interfaces
                .iter()
                .position(|i| i.name.as_str() == name)
                .unwrap()
        };
        for b in body {
            let (number, raw) = (self.lines[b].number, self.lines[b].raw.to_string());
            let words = self.lines[b].words.clone();
            let iface = &mut self.cfg.interfaces[iface_idx];
            match words.as_slice() {
                ["description", ..] => {
                    let desc = raw.trim_start_matches("description").trim();
                    iface.description = Some(desc.to_string());
                    self.recognized += 1;
                }
                ["ip", "address", addr] => {
                    let a: IfaceAddr = addr.parse().map_err(|_| ParseError {
                        line: number,
                        text: raw.clone(),
                        reason: "bad interface address".into(),
                    })?;
                    iface.addr = Some(a);
                    self.recognized += 1;
                }
                ["no", "switchport"] => {
                    iface.routed = true;
                    self.recognized += 1;
                }
                ["switchport"] => {
                    iface.routed = false;
                    self.recognized += 1;
                }
                ["isis", "enable", instance] => {
                    match &mut iface.isis {
                        Some(i) => i.instance = instance.to_string(),
                        None => iface.isis = Some(IfaceIsis::new(*instance)),
                    }
                    self.recognized += 1;
                }
                ["isis", "metric", m] => {
                    let m: u32 = m.parse().map_err(|_| ParseError {
                        line: number,
                        text: raw.clone(),
                        reason: "bad isis metric".into(),
                    })?;
                    iface
                        .isis
                        .get_or_insert_with(|| IfaceIsis::new("default"))
                        .metric = m;
                    self.recognized += 1;
                }
                ["isis", "passive-interface", instance] => {
                    let isis = iface.isis.get_or_insert_with(|| IfaceIsis::new(*instance));
                    isis.passive = true;
                    self.recognized += 1;
                }
                ["isis", "passive"] => {
                    iface
                        .isis
                        .get_or_insert_with(|| IfaceIsis::new("default"))
                        .passive = true;
                    self.recognized += 1;
                }
                ["mpls", "ip"] => {
                    iface.mpls = true;
                    self.recognized += 1;
                }
                ["shutdown"] => {
                    iface.shutdown = true;
                    self.recognized += 1;
                }
                ["no", "shutdown"] => {
                    iface.shutdown = false;
                    self.recognized += 1;
                }
                ["speed", ..] | ["mtu", ..] | ["load-interval", ..] => {
                    self.recognized += 1;
                }
                _ => {
                    self.warn(number, &raw, "unrecognized interface statement");
                }
            }
        }
        Ok(())
    }

    fn isis_section(&mut self, instance: &str) -> Result<(), ParseError> {
        let body = self.section_body();
        let mut isis = IsisConfig::new(instance, "");
        isis.af_ipv4 = false;
        for b in body {
            let (number, raw) = (self.lines[b].number, self.lines[b].raw.to_string());
            let words = self.lines[b].words.clone();
            match words.as_slice() {
                ["net", net] => {
                    isis.net = net.to_string();
                    self.recognized += 1;
                }
                ["is-type", "level-2"] => {
                    isis.level = IsisLevel::Level2;
                    self.recognized += 1;
                }
                ["is-type", "level-1"] => {
                    isis.level = IsisLevel::Level1;
                    self.recognized += 1;
                }
                ["is-type", "level-1-2"] => {
                    isis.level = IsisLevel::Level1And2;
                    self.recognized += 1;
                }
                ["address-family", "ipv4", "unicast"] => {
                    isis.af_ipv4 = true;
                    self.recognized += 1;
                }
                ["redistribute", "connected"] => {
                    isis.redistribute_connected = true;
                    self.recognized += 1;
                }
                ["metric-style", "wide"] => {
                    isis.wide_metrics = true;
                    self.recognized += 1;
                }
                _ => {
                    self.warn(number, &raw, "unrecognized isis statement");
                }
            }
        }
        if isis.net.is_empty() {
            self.warn(
                0,
                &format!("router isis {instance}"),
                "isis instance has no NET",
            );
        }
        self.cfg.isis = Some(isis);
        Ok(())
    }

    fn bgp_section(&mut self, asn: AsNum) -> Result<(), ParseError> {
        let body = self.section_body();
        let mut bgp = BgpConfig::new(asn);

        fn neighbor(bgp: &mut BgpConfig, peer: Ipv4Addr) -> &mut BgpNeighborConfig {
            if let Some(pos) = bgp.neighbors.iter().position(|n| n.peer == peer) {
                &mut bgp.neighbors[pos]
            } else {
                // Neighbor options may appear before `remote-as`; AS 0 marks
                // "not yet set" and is validated at the end of the stanza.
                bgp.neighbors.push(BgpNeighborConfig::new(peer, AsNum(0)));
                bgp.neighbors.last_mut().unwrap()
            }
        }

        for b in body {
            let (number, raw) = (self.lines[b].number, self.lines[b].raw.to_string());
            let words = self.lines[b].words.clone();
            match words.as_slice() {
                ["router-id", rid] => {
                    let ip: Ipv4Addr = rid
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad router-id"))?;
                    bgp.router_id = Some(RouterId(ip));
                    self.recognized += 1;
                }
                ["maximum-paths", n, ..] => {
                    bgp.max_paths = n
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad maximum-paths"))?;
                    self.recognized += 1;
                }
                ["network", p] => {
                    let p: Prefix = p
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad network prefix"))?;
                    bgp.networks.push(p);
                    self.recognized += 1;
                }
                ["redistribute", proto, rest @ ..] => {
                    let Some(proto) = Redistribute::from_keyword(proto) else {
                        self.warn(number, &raw, "unrecognized redistribute source");
                        continue;
                    };
                    let route_map = match rest {
                        [] => None,
                        ["route-map", rm] => Some(rm.to_string()),
                        // `redistribute isis level-2 ...` style qualifiers.
                        _ if proto == Redistribute::Isis && !rest.contains(&"route-map") => None,
                        _ => {
                            self.warn(number, &raw, "unrecognized redistribute options");
                            continue;
                        }
                    };
                    bgp.redistribute.push(BgpRedistribute { proto, route_map });
                    self.recognized += 1;
                }
                ["neighbor", peer, rest @ ..] => {
                    let peer: Ipv4Addr = peer
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad neighbor address"))?;
                    match rest {
                        ["remote-as", ras] => {
                            let ras: u32 = ras
                                .parse()
                                .map_err(|_| self.err(number, &raw, "bad remote-as"))?;
                            neighbor(&mut bgp, peer).remote_as = AsNum(ras);
                        }
                        ["update-source", src] => {
                            neighbor(&mut bgp, peer).update_source = Some((*src).into());
                        }
                        ["next-hop-self"] => {
                            neighbor(&mut bgp, peer).next_hop_self = true;
                        }
                        ["send-community", ..] => {
                            neighbor(&mut bgp, peer).send_community = true;
                        }
                        ["route-map", name, "in"] => {
                            neighbor(&mut bgp, peer).route_map_in = Some(name.to_string());
                        }
                        ["route-map", name, "out"] => {
                            neighbor(&mut bgp, peer).route_map_out = Some(name.to_string());
                        }
                        ["ebgp-multihop", ..] => {
                            neighbor(&mut bgp, peer).ebgp_multihop = true;
                        }
                        ["route-reflector-client"] => {
                            neighbor(&mut bgp, peer).rr_client = true;
                        }
                        ["description", ..] => {
                            let d = raw
                                .splitn(4, char::is_whitespace)
                                .nth(3)
                                .unwrap_or("")
                                .to_string();
                            neighbor(&mut bgp, peer).description = Some(d);
                        }
                        ["shutdown"] => {
                            neighbor(&mut bgp, peer).shutdown = true;
                        }
                        ["maximum-routes", ..] | ["timers", ..] => {
                            // Recognized, default behaviour in emulation.
                        }
                        _ => {
                            self.warn(number, &raw, "unrecognized neighbor statement");
                            continue;
                        }
                    }
                    self.recognized += 1;
                }
                ["address-family", "ipv4"] | ["address-family", "ipv4", "unicast"] => {
                    // Activation statements live here; activation is implicit
                    // in our emulation, so the sub-block is a recognized no-op.
                    self.recognized += 1;
                }
                ["no", "bgp", "default", "ipv4-unicast"] => {
                    self.recognized += 1;
                }
                _ => {
                    self.warn(number, &raw, "unrecognized bgp statement");
                }
            }
        }

        for n in &bgp.neighbors {
            if n.remote_as == AsNum(0) {
                self.warn(
                    0,
                    &format!("neighbor {}", n.peer),
                    "neighbor has no remote-as; session will not form",
                );
            }
        }
        self.cfg.bgp = Some(bgp);
        Ok(())
    }

    fn route_map_section(
        &mut self,
        name: &str,
        action: PolicyAction,
        seq: u32,
    ) -> Result<(), ParseError> {
        let body = self.section_body();
        let mut entry = RouteMapEntry {
            seq,
            action,
            matches: Vec::new(),
            sets: Vec::new(),
        };
        for b in body {
            let (number, raw) = (self.lines[b].number, self.lines[b].raw.to_string());
            let words = self.lines[b].words.clone();
            match words.as_slice() {
                ["match", "ip", "address", "prefix-list", pl] => {
                    entry.matches.push(MatchClause::PrefixList(pl.to_string()));
                    self.recognized += 1;
                }
                ["match", "community", c] => {
                    let c = parse_community(c)
                        .ok_or_else(|| self.err(number, &raw, "bad community"))?;
                    entry.matches.push(MatchClause::Community(c));
                    self.recognized += 1;
                }
                ["match", "as-path", "length", "le", n] => {
                    let n: usize = n
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad as-path length"))?;
                    entry.matches.push(MatchClause::MaxAsPathLen(n));
                    self.recognized += 1;
                }
                ["set", "local-preference", v] => {
                    let v: u32 = v
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad local-preference"))?;
                    entry.sets.push(SetClause::LocalPref(v));
                    self.recognized += 1;
                }
                ["set", "metric", v] | ["set", "med", v] => {
                    let v: u32 = v
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad metric"))?;
                    entry.sets.push(SetClause::Med(v));
                    self.recognized += 1;
                }
                ["set", "community", rest @ ..] => {
                    let additive = rest.last() == Some(&"additive");
                    let comms: Option<Vec<Community>> = rest
                        .iter()
                        .filter(|s| **s != "additive")
                        .map(|s| parse_community(s))
                        .collect();
                    let comms =
                        comms.ok_or_else(|| self.err(number, &raw, "bad community list"))?;
                    entry.sets.push(if additive {
                        SetClause::AddCommunities(comms)
                    } else {
                        SetClause::SetCommunities(comms)
                    });
                    self.recognized += 1;
                }
                ["set", "as-path", "prepend", rest @ ..] => {
                    let asns: Result<Vec<AsNum>, _> =
                        rest.iter().map(|s| s.parse().map(AsNum)).collect();
                    let asns = asns.map_err(|_| self.err(number, &raw, "bad prepend list"))?;
                    entry.sets.push(SetClause::PrependAsPath(asns));
                    self.recognized += 1;
                }
                ["set", "ip", "next-hop", ip] => {
                    let ip: Ipv4Addr = ip
                        .parse()
                        .map_err(|_| self.err(number, &raw, "bad next-hop"))?;
                    entry.sets.push(SetClause::NextHop(ip));
                    self.recognized += 1;
                }
                _ => {
                    self.warn(number, &raw, "unrecognized route-map statement");
                }
            }
        }
        let rm = self.cfg.route_maps.entry(name.to_string()).or_default();
        rm.entries.push(entry);
        rm.entries.sort_by_key(|e| e.seq);
        Ok(())
    }

    fn prefix_list_line(
        &mut self,
        name: &str,
        seq: &str,
        action: &str,
        rest: &[&str],
        number: usize,
        raw: &str,
    ) -> Result<(), ParseError> {
        let seq: u32 = seq
            .parse()
            .map_err(|_| self.err(number, raw, "bad prefix-list seq"))?;
        let action = match action {
            "permit" => PolicyAction::Permit,
            "deny" => PolicyAction::Deny,
            _ => return Err(self.err(number, raw, "prefix-list action")),
        };
        let (prefix, mut ge, mut le) = match rest {
            [p, rest @ ..] => {
                let p: Prefix = p.parse().map_err(|_| self.err(number, raw, "bad prefix"))?;
                let mut ge = None;
                let mut le = None;
                let mut it = rest.iter();
                while let Some(kw) = it.next() {
                    let v = it
                        .next()
                        .ok_or_else(|| self.err(number, raw, "missing bound value"))?;
                    let v: u8 = v.parse().map_err(|_| self.err(number, raw, "bad bound"))?;
                    match *kw {
                        "ge" => ge = Some(v),
                        "le" => le = Some(v),
                        _ => return Err(self.err(number, raw, "unknown bound keyword")),
                    }
                }
                (p, ge, le)
            }
            [] => return Err(self.err(number, raw, "missing prefix")),
        };
        if let (Some(g), Some(l)) = (ge, le) {
            if g > l {
                // The CLI rejects inverted bounds; be forgiving but warn.
                self.warn(number, raw, "ge > le; swapping");
                std::mem::swap(&mut ge, &mut le);
            }
        }
        self.cfg
            .prefix_lists
            .entry(name.to_string())
            .or_default()
            .entries
            .push(PrefixListEntry {
                seq,
                action,
                prefix,
                ge,
                le,
            });
        self.cfg
            .prefix_lists
            .get_mut(name)
            .unwrap()
            .entries
            .sort_by_key(|e| e.seq);
        Ok(())
    }
}

fn parse_community(s: &str) -> Option<Community> {
    let (a, v) = s.split_once(':')?;
    Some(Community::new(a.parse().ok()?, v.parse().ok()?))
}

/// Renders a [`DeviceConfig`] in canonical EOS style. `parse(render(c))`
/// reproduces `c` for configs built through the IR constructors.
pub fn render(cfg: &DeviceConfig) -> String {
    let mut out = String::new();
    let mut push = |s: &str| {
        out.push_str(s);
        out.push('\n');
    };

    push(&format!("hostname {}", cfg.hostname));
    push("!");
    if cfg.ip_routing {
        push("ip routing");
    } else {
        push("no ip routing");
    }
    push("service routing protocols model multi-agent");
    push("!");

    for d in &cfg.mgmt.daemons {
        push(&format!("daemon {d}"));
        push("   no shutdown");
        push("!");
    }
    for api in &cfg.mgmt.apis {
        if api == "ssh" {
            push("management ssh");
            push("   idle-timeout 60");
        } else {
            push(&format!("management api {api}"));
            push("   transport grpc default");
            if let Some(prof) = cfg.mgmt.ssl_profiles.first() {
                push(&format!("   ssl profile {prof}"));
            }
            push("   no shutdown");
        }
        push("!");
    }
    for ntp in &cfg.mgmt.ntp_servers {
        push(&format!("ntp server {ntp}"));
    }
    for lh in &cfg.mgmt.logging_hosts {
        push(&format!("logging host {lh}"));
    }
    if !cfg.mgmt.ntp_servers.is_empty() || !cfg.mgmt.logging_hosts.is_empty() {
        push("!");
    }

    if cfg.mpls.enabled {
        push("mpls ip");
        push("!");
    }
    if cfg.mpls.te_enabled {
        push("router traffic-engineering");
        if let Some(rsvp) = &cfg.mpls.rsvp {
            push(&format!(
                "   rsvp hello-interval {}",
                rsvp.hello_interval_ms
            ));
            push(&format!("   rsvp refresh-time {}", rsvp.refresh_ms));
        }
        push("!");
    }

    for (name, pl) in &cfg.prefix_lists {
        for e in &pl.entries {
            let action = match e.action {
                PolicyAction::Permit => "permit",
                PolicyAction::Deny => "deny",
            };
            let mut line = format!("ip prefix-list {name} seq {} {action} {}", e.seq, e.prefix);
            if let Some(g) = e.ge {
                line.push_str(&format!(" ge {g}"));
            }
            if let Some(l) = e.le {
                line.push_str(&format!(" le {l}"));
            }
            push(&line);
        }
    }
    if !cfg.prefix_lists.is_empty() {
        push("!");
    }

    for (name, rm) in &cfg.route_maps {
        for e in &rm.entries {
            let action = match e.action {
                PolicyAction::Permit => "permit",
                PolicyAction::Deny => "deny",
            };
            push(&format!("route-map {name} {action} {}", e.seq));
            for m in &e.matches {
                match m {
                    MatchClause::PrefixList(pl) => {
                        push(&format!("   match ip address prefix-list {pl}"))
                    }
                    MatchClause::Community(c) => push(&format!("   match community {c}")),
                    MatchClause::MaxAsPathLen(n) => {
                        push(&format!("   match as-path length le {n}"))
                    }
                }
            }
            for s in &e.sets {
                match s {
                    SetClause::LocalPref(v) => push(&format!("   set local-preference {v}")),
                    SetClause::Med(v) => push(&format!("   set metric {v}")),
                    SetClause::AddCommunities(cs) => {
                        let cs: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                        push(&format!("   set community {} additive", cs.join(" ")));
                    }
                    SetClause::SetCommunities(cs) => {
                        let cs: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                        push(&format!("   set community {}", cs.join(" ")));
                    }
                    SetClause::PrependAsPath(asns) => {
                        let asns: Vec<String> = asns.iter().map(|a| a.0.to_string()).collect();
                        push(&format!("   set as-path prepend {}", asns.join(" ")));
                    }
                    SetClause::NextHop(ip) => push(&format!("   set ip next-hop {ip}")),
                }
            }
            push("!");
        }
    }

    for iface in &cfg.interfaces {
        push(&format!("interface {}", iface.name));
        if let Some(d) = &iface.description {
            push(&format!("   description {d}"));
        }
        if iface.routed && !iface.name.is_loopback() {
            push("   no switchport");
        }
        if let Some(a) = &iface.addr {
            push(&format!("   ip address {a}"));
        }
        if let Some(isis) = &iface.isis {
            push(&format!("   isis enable {}", isis.instance));
            if isis.passive {
                push(&format!("   isis passive-interface {}", isis.instance));
            }
            if isis.metric != 10 {
                push(&format!("   isis metric {}", isis.metric));
            }
        }
        if iface.mpls {
            push("   mpls ip");
        }
        if iface.shutdown {
            push("   shutdown");
        }
        push("!");
    }

    if let Some(isis) = &cfg.isis {
        push(&format!("router isis {}", isis.instance));
        push(&format!("   net {}", isis.net));
        match isis.level {
            IsisLevel::Level1 => push("   is-type level-1"),
            IsisLevel::Level2 => push("   is-type level-2"),
            IsisLevel::Level1And2 => push("   is-type level-1-2"),
        }
        if isis.redistribute_connected {
            push("   redistribute connected");
        }
        if isis.af_ipv4 {
            push("   address-family ipv4 unicast");
        }
        push("!");
    }

    for sr in &cfg.static_routes {
        match sr.distance {
            Some(d) => push(&format!("ip route {} {} {}", sr.prefix, sr.next_hop, d)),
            None => push(&format!("ip route {} {}", sr.prefix, sr.next_hop)),
        }
    }
    if !cfg.static_routes.is_empty() {
        push("!");
    }

    if let Some(bgp) = &cfg.bgp {
        push(&format!("router bgp {}", bgp.asn));
        if let Some(rid) = bgp.router_id {
            push(&format!("   router-id {rid}"));
        }
        if bgp.max_paths > 1 {
            push(&format!("   maximum-paths {}", bgp.max_paths));
        }
        for n in &bgp.neighbors {
            push(&format!("   neighbor {} remote-as {}", n.peer, n.remote_as));
            if let Some(d) = &n.description {
                push(&format!("   neighbor {} description {d}", n.peer));
            }
            if let Some(src) = &n.update_source {
                push(&format!("   neighbor {} update-source {src}", n.peer));
            }
            if n.next_hop_self {
                push(&format!("   neighbor {} next-hop-self", n.peer));
            }
            if n.send_community {
                push(&format!("   neighbor {} send-community", n.peer));
            }
            if let Some(rm) = &n.route_map_in {
                push(&format!("   neighbor {} route-map {rm} in", n.peer));
            }
            if let Some(rm) = &n.route_map_out {
                push(&format!("   neighbor {} route-map {rm} out", n.peer));
            }
            if n.ebgp_multihop {
                push(&format!("   neighbor {} ebgp-multihop 4", n.peer));
            }
            if n.rr_client {
                push(&format!("   neighbor {} route-reflector-client", n.peer));
            }
            if n.shutdown {
                push(&format!("   neighbor {} shutdown", n.peer));
            }
        }
        for net in &bgp.networks {
            push(&format!("   network {net}"));
        }
        for r in &bgp.redistribute {
            let proto = r.proto.keyword();
            match &r.route_map {
                Some(rm) => push(&format!("   redistribute {proto} route-map {rm}")),
                None => push(&format!("   redistribute {proto}")),
            }
        }
        push("!");
    }

    push("end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::IfaceId;

    /// The paper's Fig. 3 Router 1 snippet, verbatim (minus inline comments).
    const FIG3: &str = "\
router isis default
   net 49.0001.1010.1040.1030.00
   address-family ipv4 unicast
!
interface Loopback0
   ip address 2.2.2.1/32
   isis enable default
   isis passive-interface default
!
interface Ethernet2
   ip address 100.64.0.1/31
   no switchport
   isis enable default
!
";

    #[test]
    fn parses_fig3_faithfully() {
        let parsed = parse(FIG3).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let cfg = parsed.config;

        let isis = cfg.isis.as_ref().unwrap();
        assert_eq!(isis.instance, "default");
        assert_eq!(isis.net, "49.0001.1010.1040.1030.00");
        assert!(isis.af_ipv4);

        let lo = cfg.interface(&IfaceId::from("Loopback0")).unwrap();
        assert_eq!(lo.addr.unwrap().to_string(), "2.2.2.1/32");
        assert!(lo.isis.as_ref().unwrap().passive);
        assert!(lo.is_l3(), "loopback is L3 without `no switchport`");

        let e2 = cfg.interface(&IfaceId::from("Ethernet2")).unwrap();
        assert_eq!(e2.addr.unwrap().to_string(), "100.64.0.1/31");
        assert!(e2.routed);
        assert!(e2.is_l3());
        assert_eq!(e2.isis.as_ref().unwrap().instance, "default");
        assert!(!e2.isis.as_ref().unwrap().passive);
    }

    #[test]
    fn statement_order_does_not_matter() {
        // The vendor accepts `ip address` before `no switchport` (paper
        // model issue #1 is the *model* getting this wrong).
        let a = parse("interface Ethernet2\n   ip address 100.64.0.1/31\n   no switchport\n!\n")
            .unwrap();
        let b = parse("interface Ethernet2\n   no switchport\n   ip address 100.64.0.1/31\n!\n")
            .unwrap();
        assert_eq!(a.config, b.config);
        assert!(a.config.interfaces[0].is_l3());
    }

    #[test]
    fn unknown_statements_warn_but_do_not_corrupt() {
        let text = "\
interface Ethernet1
   no switchport
   ip address 10.0.0.1/31
   ip router isis default
!
";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.warnings.len(), 1);
        assert!(parsed.warnings[0].text.contains("ip router isis"));
        let iface = &parsed.config.interfaces[0];
        assert!(iface.is_l3());
        // The IOS-style syntax did NOT enable IS-IS — the E6 scenario.
        assert!(iface.isis.is_none());
    }

    #[test]
    fn parses_bgp_stanza() {
        let text = "\
router bgp 65001
   router-id 2.2.2.1
   maximum-paths 4 ecmp 4
   neighbor 100.64.0.0 remote-as 65002
   neighbor 100.64.0.0 send-community
   neighbor 100.64.0.0 route-map IMPORT in
   neighbor 2.2.2.3 remote-as 65001
   neighbor 2.2.2.3 update-source Loopback0
   neighbor 2.2.2.3 next-hop-self
   network 2.2.2.1/32
   redistribute connected
!
";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let bgp = parsed.config.bgp.unwrap();
        assert_eq!(bgp.asn, AsNum(65001));
        assert_eq!(bgp.max_paths, 4);
        assert_eq!(bgp.neighbors.len(), 2);
        let ext = bgp.neighbor("100.64.0.0".parse().unwrap()).unwrap();
        assert_eq!(ext.remote_as, AsNum(65002));
        assert!(ext.send_community);
        assert_eq!(ext.route_map_in.as_deref(), Some("IMPORT"));
        let int = bgp.neighbor("2.2.2.3".parse().unwrap()).unwrap();
        assert_eq!(int.update_source, Some(IfaceId::from("Loopback0")));
        assert!(int.next_hop_self);
        assert_eq!(bgp.networks, vec!["2.2.2.1/32".parse().unwrap()]);
        assert_eq!(
            bgp.redistribute,
            vec![BgpRedistribute::unfiltered(Redistribute::Connected)]
        );
    }

    #[test]
    fn redistribute_route_map_round_trips() {
        let text = "\
router bgp 65001
   neighbor 10.0.0.1 remote-as 65002
   redistribute connected route-map INFRA-OUT
   redistribute static
!
";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let bgp = parsed.config.bgp.as_ref().unwrap();
        assert_eq!(
            bgp.redistribute,
            vec![
                BgpRedistribute::policed(Redistribute::Connected, "INFRA-OUT"),
                BgpRedistribute::unfiltered(Redistribute::Static),
            ]
        );
        let text2 = render(&parsed.config);
        assert!(text2.contains("redistribute connected route-map INFRA-OUT"));
        let reparsed = parse(&text2).unwrap();
        assert_eq!(reparsed.config.bgp.unwrap().redistribute, bgp.redistribute);
    }

    #[test]
    fn neighbor_options_before_remote_as_warn() {
        let text = "\
router bgp 65001
   neighbor 10.0.0.1 next-hop-self
!
";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.warnings.len(), 1);
        assert!(parsed.warnings[0].reason.contains("remote-as"));
    }

    #[test]
    fn parses_route_map_and_prefix_list() {
        let text = "\
ip prefix-list CUSTOMER seq 10 permit 203.0.113.0/24 le 28
ip prefix-list CUSTOMER seq 20 deny 0.0.0.0/0 le 32
!
route-map IMPORT permit 10
   match ip address prefix-list CUSTOMER
   set local-preference 200
   set community 65001:100 additive
!
route-map IMPORT deny 20
!
";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let cfg = parsed.config;
        let pl = &cfg.prefix_lists["CUSTOMER"];
        assert_eq!(pl.entries.len(), 2);
        assert!(pl.permits(&"203.0.113.0/26".parse().unwrap()));
        assert!(!pl.permits(&"8.8.8.0/24".parse().unwrap()));
        let rm = &cfg.route_maps["IMPORT"];
        assert_eq!(rm.entries.len(), 2);
        assert_eq!(rm.entries[0].seq, 10);
        assert_eq!(rm.entries[1].action, PolicyAction::Deny);
    }

    #[test]
    fn parses_static_routes_and_mgmt() {
        let text = "\
hostname edge1
daemon TerminAttr
   exec /usr/bin/TerminAttr
   no shutdown
!
management api gnmi
   transport grpc default
   ssl profile ACME
   no shutdown
!
ntp server 192.0.2.123
ip route 0.0.0.0/0 100.64.0.0
ip route 198.51.100.0/24 100.64.0.0 250
";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        let cfg = parsed.config;
        assert_eq!(&*cfg.hostname, "edge1");
        assert_eq!(cfg.mgmt.daemons, vec!["TerminAttr"]);
        assert_eq!(cfg.mgmt.apis, vec!["gnmi"]);
        assert_eq!(cfg.mgmt.ssl_profiles, vec!["ACME"]);
        assert_eq!(cfg.static_routes.len(), 2);
        assert_eq!(cfg.static_routes[1].distance, Some(250));
    }

    #[test]
    fn parses_mpls_te() {
        let text = "\
mpls ip
!
router traffic-engineering
   rsvp hello-interval 3000
   rsvp refresh-time 15000
!
interface Ethernet1
   no switchport
   ip address 10.0.0.1/31
   mpls ip
!
";
        let parsed = parse(text).unwrap();
        assert!(parsed.warnings.is_empty());
        let cfg = parsed.config;
        assert!(cfg.mpls.enabled);
        assert!(cfg.mpls.te_enabled);
        let rsvp = cfg.mpls.rsvp.unwrap();
        assert_eq!(rsvp.hello_interval_ms, 3000);
        assert_eq!(rsvp.refresh_ms, 15000);
        assert!(cfg.interfaces[0].mpls);
    }

    #[test]
    fn recognized_line_accounting() {
        let text = "\
hostname r1
interface Ethernet1
   no switchport
   ip address 10.0.0.1/31
   frobnicate maximum
!
";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.total_lines, 5);
        assert_eq!(parsed.recognized_lines, 4);
        assert_eq!(parsed.warnings.len(), 1);
    }

    #[test]
    fn malformed_values_are_fatal() {
        assert!(parse("interface Ethernet1\n   ip address banana\n").is_err());
        assert!(parse("router bgp notanumber\n").is_err());
        assert!(parse("ip route 10.0.0.0/8 nothop\n").is_err());
    }

    #[test]
    fn render_parse_roundtrip_fig2_style() {
        let mut cfg = DeviceConfig::new("r1", Vendor::Ceos);
        cfg.mgmt.daemons.push("TerminAttr".into());
        cfg.mgmt.apis.push("gnmi".into());
        cfg.mgmt.ssl_profiles.push("ACME".into());
        let lo = cfg.ensure_interface("Loopback0");
        lo.addr = Some("2.2.2.1/32".parse().unwrap());
        lo.isis = Some(IfaceIsis {
            instance: "default".into(),
            metric: 10,
            passive: true,
        });
        let e1 = cfg.ensure_interface("Ethernet1");
        e1.addr = Some("10.0.0.1/31".parse().unwrap());
        e1.routed = true;
        e1.isis = Some(IfaceIsis::new("default"));
        cfg.isis = Some(IsisConfig::new("default", "49.0001.0000.0000.0001.00"));
        let mut bgp = BgpConfig::new(AsNum(65001));
        bgp.neighbors.push(BgpNeighborConfig::new(
            "10.0.0.0".parse().unwrap(),
            AsNum(65002),
        ));
        bgp.networks.push("2.2.2.1/32".parse().unwrap());
        cfg.bgp = Some(bgp);

        let text = render(&cfg);
        let back = parse(&text).unwrap();
        assert!(back.warnings.is_empty(), "{:?}", back.warnings);
        assert_eq!(back.config, cfg);
    }
}
