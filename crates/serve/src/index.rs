//! The forwarding-equivalence-class query index and the request protocol.
//!
//! One [`QueryIndex`] is built per served snapshot and shared (via `Arc`)
//! by every server worker. All query handling is `&self`: the underlying
//! [`ForwardingAnalysis`] builds its class index exactly once (the first
//! query builds it, concurrent ones wait) and never mutates it after, so
//! workers share plain reads — answers are a pure function of the
//! request, whichever worker handles it and whether or not the index was
//! warmed first.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use mfv_dataplane::Dataplane;
use mfv_types::{IpSet, NodeId};
use mfv_verify::{differential_reachability_with, reachability, ForwardingAnalysis, IndexStats};

/// Outcome of one request line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reply {
    /// Success; payload is the answer text.
    Ok(String),
    /// Failure; payload is the error text. The connection stays usable.
    Err(String),
    /// Client asked to close the connection (`QUIT`).
    Quit,
}

/// Encodes a reply in the wire framing: a `OK <len>\n` / `ERR <len>\n`
/// header line, then exactly `<len>` payload bytes (no trailing newline —
/// the length prefix is the only delimiter, so payloads may themselves be
/// multi-line).
pub fn encode(reply: &Reply) -> Vec<u8> {
    let (tag, payload) = match reply {
        Reply::Ok(p) => ("OK", p.as_str()),
        Reply::Err(p) => ("ERR", p.as_str()),
        Reply::Quit => ("OK", "bye"),
    };
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(b" ");
    out.extend_from_slice(payload.len().to_string().as_bytes());
    out.extend_from_slice(b"\n");
    out.extend_from_slice(payload.as_bytes());
    out
}

/// A snapshot loaded for serving: the verified dataplane's forwarding
/// analysis (which owns the class index) plus an optional baseline
/// analysis for differential queries.
pub struct QueryIndex {
    fa: ForwardingAnalysis,
    baseline: Option<ForwardingAnalysis>,
}

impl QueryIndex {
    /// Builds the index over a verified snapshot's dataplane.
    pub fn new(dp: &Dataplane) -> QueryIndex {
        QueryIndex {
            fa: ForwardingAnalysis::new(dp),
            baseline: None,
        }
    }

    /// Like [`QueryIndex::new`], plus a baseline dataplane (e.g. the
    /// model-computed one) that `DIFF` queries compare against.
    pub fn with_baseline(dp: &Dataplane, baseline: &Dataplane) -> QueryIndex {
        QueryIndex {
            fa: ForwardingAnalysis::new(dp),
            baseline: Some(ForwardingAnalysis::new(baseline)),
        }
    }

    /// Builds the class index (and the baseline's) now rather than on the
    /// first query. Returns the total number of packet classes indexed:
    /// the rows of every entry node's full-space partition.
    pub fn warm(&self) -> usize {
        if let Some(base) = &self.baseline {
            base.warm();
        }
        self.fa.warm()
    }

    /// Entry nodes the index can answer for.
    pub fn node_names(&self) -> Vec<NodeId> {
        self.fa.node_names()
    }

    /// Shape of the class index and the number of lookups it answered.
    pub fn index_stats(&self) -> IndexStats {
        self.fa.index_stats()
    }

    /// Folds the class index's counters into `obs` (`verify.index.*`).
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        self.fa.observe_into(obs, None);
    }

    /// Dispatches one request line. Answers are deterministic: the same
    /// line against the same index always yields the same [`Reply`].
    pub fn handle(&self, line: &str) -> Reply {
        let mut it = line.split_whitespace();
        let cmd = it.next();
        // Every command but the variadic FATE takes at most this many
        // arguments; a word past them is an error, never ignored.
        let arity = match cmd {
            Some("REACH" | "TRACE") => Some(2),
            Some("DIFF") => Some(1),
            Some("NODES" | "QUIT") => Some(0),
            _ => None,
        };
        if let (Some(cmd), Some(extra)) = (cmd, arity.and_then(|n| it.clone().nth(n))) {
            return Reply::Err(format!("unexpected argument '{extra}' to {cmd}"));
        }
        match cmd {
            None => Reply::Err("empty request".to_string()),
            Some("REACH") => self.cmd_reach(&mut it),
            Some("FATE") => self.cmd_fate(&mut it),
            Some("TRACE") => self.cmd_trace(&mut it),
            Some("DIFF") => self.cmd_diff(&mut it),
            Some("NODES") => self.cmd_nodes(),
            Some("QUIT") => Reply::Quit,
            Some(other) => Reply::Err(format!(
                "unknown command '{other}' (try REACH, FATE, TRACE, DIFF, NODES, QUIT)"
            )),
        }
    }

    fn node_arg(&self, arg: Option<&str>, what: &str) -> Result<NodeId, Reply> {
        let Some(name) = arg else {
            return Err(Reply::Err(format!("missing {what} node")));
        };
        let node = NodeId::from(name);
        if !self.fa.nodes().contains_key(&node) {
            return Err(Reply::Err(format!("unknown {what} node '{name}'")));
        }
        Ok(node)
    }

    fn ip_arg(arg: &str) -> Result<Ipv4Addr, Reply> {
        arg.parse()
            .map_err(|_| Reply::Err(format!("bad address '{arg}'")))
    }

    /// `REACH <src> <dst-node>` — can packets entering at `src` reach
    /// every address `dst-node` owns?
    fn cmd_reach<'a>(&self, it: &mut impl Iterator<Item = &'a str>) -> Reply {
        let src = match self.node_arg(it.next(), "source") {
            Ok(n) => n,
            Err(e) => return e,
        };
        let dst = match self.node_arg(it.next(), "destination") {
            Ok(n) => n,
            Err(e) => return e,
        };
        let report = reachability(&self.fa, &src, &dst);
        let mut out = format!(
            "src={} dst={} fully_reachable={}",
            report.src,
            report.dst_node,
            report.fully_reachable()
        );
        for (set, disp) in &report.failed {
            let _ = write!(out, "\nfailed {set} [{disp}]");
        }
        Reply::Ok(out)
    }

    /// `FATE <src> <dst-ip> [dst-ip ...]` — the disposition of each
    /// destination for packets entering at `src`. Each address is one
    /// binary search for its class plus one fate-table read.
    fn cmd_fate<'a>(&self, it: &mut impl Iterator<Item = &'a str>) -> Reply {
        let src = match self.node_arg(it.next(), "source") {
            Ok(n) => n,
            Err(e) => return e,
        };
        let mut out = String::new();
        let mut any = false;
        for arg in it {
            let ip = match Self::ip_arg(arg) {
                Ok(ip) => ip,
                Err(e) => return e,
            };
            let disp = self.fa.fate_of(&src, ip);
            if any {
                out.push('\n');
            }
            let _ = write!(out, "{ip} [{disp}]");
            any = true;
        }
        if !any {
            return Reply::Err("missing destination address".to_string());
        }
        Reply::Ok(out)
    }

    /// `TRACE <src> <dst-ip>` — single-packet traceroute (first ECMP
    /// branch, as a hashing dataplane would pick for one flow).
    fn cmd_trace<'a>(&self, it: &mut impl Iterator<Item = &'a str>) -> Reply {
        let src = match self.node_arg(it.next(), "source") {
            Ok(n) => n,
            Err(e) => return e,
        };
        let Some(arg) = it.next() else {
            return Reply::Err("missing destination address".to_string());
        };
        let ip = match Self::ip_arg(arg) {
            Ok(ip) => ip,
            Err(e) => return e,
        };
        Reply::Ok(self.fa.trace(&src, ip).to_string())
    }

    /// `DIFF [scope-cidr]` — differential reachability of the served
    /// snapshot against the loaded baseline, optionally scoped.
    fn cmd_diff<'a>(&self, it: &mut impl Iterator<Item = &'a str>) -> Reply {
        let Some(base) = &self.baseline else {
            return Reply::Err("no baseline loaded (start the server with one)".to_string());
        };
        let scope = match it.next() {
            Some(cidr) => match cidr.parse() {
                Ok(p) => Some(IpSet::from_prefix(&p)),
                Err(_) => return Reply::Err(format!("bad scope '{cidr}'")),
            },
            None => None,
        };
        let findings = differential_reachability_with(base, &self.fa, scope.as_ref());
        let mut out = format!("{} fate-changed classes", findings.len());
        for f in &findings {
            let _ = write!(out, "\n{f}");
        }
        Reply::Ok(out)
    }

    /// `NODES` — the entry nodes, one per line, in name order.
    fn cmd_nodes(&self) -> Reply {
        let mut out = String::new();
        for (i, n) in self.fa.node_names().iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(n.as_str());
        }
        Reply::Ok(out)
    }
}
