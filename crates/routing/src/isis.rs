//! The IS-IS protocol engine: p2p adjacency formation (three-way handshake),
//! LSP flooding with CSNP/PSNP database synchronisation, and SPF route
//! computation.
//!
//! Poll-based like [`crate::bgp::BgpEngine`]: PDUs in via
//! [`IsisEngine::push_pdu`], encoded PDUs out via [`IsisEngine::poll`],
//! each naming its adjacency by slot: its place in the engine's adjacency
//! set, which is fixed when the engine is built.
//!
//! Each LSP is encoded and checksummed once: the LSDB keeps it as the
//! [`StoredLsp`] the codec produced, floods and re-sends its bytes, and
//! names it in sequence-number PDUs by its stored header. SPF runs over a
//! graph the engine keeps as LSPs are installed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;

use mfv_types::{IfaceAddr, IfaceId, Prefix, RouteProtocol, SimDuration, SimTime};
use mfv_wire::isis::{
    encode_snp, AdjState, Hello, IpReach, IsNeighbor, IsisPdu, Lsp, LspEntry, LspId, P2pHello,
    Received, ReceivedLsp, SeqNums, StoredLsp, SystemId, Tlv, NLPID_IPV4, PDU_L2_CSNP, PDU_L2_PSNP,
};

use crate::rib::{NextHop, RibRoute};

/// Per-interface IS-IS configuration.
#[derive(Clone, Debug)]
pub struct IsisIfaceConfig {
    pub iface: IfaceId,
    pub addr: IfaceAddr,
    pub metric: u32,
    /// Passive interfaces are announced but form no adjacencies.
    pub passive: bool,
}

/// Engine-level configuration.
#[derive(Clone, Debug)]
pub struct IsisEngineConfig {
    pub system_id: SystemId,
    /// Area bytes (AFI + area id) from the NET.
    pub area: Bytes,
    pub hostname: String,
    pub ifaces: Vec<IsisIfaceConfig>,
    /// Hello interval (default 10 s).
    pub hello_interval: SimDuration,
    /// Adjacency hold time (default 30 s).
    pub hold_time: SimDuration,
}

impl IsisEngineConfig {
    pub fn new(system_id: SystemId, area: Bytes, hostname: impl Into<String>) -> Self {
        IsisEngineConfig {
            system_id,
            area,
            hostname: hostname.into(),
            ifaces: Vec::new(),
            hello_interval: SimDuration::from_secs(10),
            hold_time: SimDuration::from_secs(30),
        }
    }
}

/// State of one adjacency.
#[derive(Clone, Debug)]
struct Adjacency {
    iface: IfaceId,
    /// Our address and metric on the interface.
    addr: Ipv4Addr,
    metric: u32,
    state: AdjState,
    neighbor: Option<SystemId>,
    /// Neighbor's interface address (from the hello), the IGP next hop.
    neighbor_addr: Option<Ipv4Addr>,
    expires: SimTime,
    last_hello_tx: Option<SimTime>,
    /// Interface administratively/physically up.
    link_up: bool,
    /// State changes since the engine was built — the per-adjacency churn
    /// signal the observability layer aggregates.
    transitions: u64,
    /// The hello last encoded here and the state and neighbour it carries:
    /// a hello is encoded when those change, and re-sent as it is.
    hello: Option<(HelloKey, Bytes)>,
}

/// The three-way state and neighbour a hello carries.
type HelloKey = (AdjState, Option<SystemId>);

impl Adjacency {
    fn down(cfg: &IsisIfaceConfig) -> Adjacency {
        Adjacency {
            iface: cfg.iface.clone(),
            addr: cfg.addr.addr,
            metric: cfg.metric,
            state: AdjState::Down,
            neighbor: None,
            neighbor_addr: None,
            expires: SimTime::ZERO,
            last_hello_tx: None,
            link_up: true,
            transitions: 0,
            hello: None,
        }
    }

    /// Takes the adjacency Down; returns whether it was not Down already.
    fn go_down(&mut self) -> bool {
        if matches!(self.state, AdjState::Down) {
            return false;
        }
        self.state = AdjState::Down;
        self.transitions += 1;
        self.neighbor = None;
        self.neighbor_addr = None;
        true
    }

    /// What a hello sent here now carries.
    fn hello_key(&self) -> HelloKey {
        match self.state {
            AdjState::Down => (AdjState::Down, None),
            state => (state, self.neighbor),
        }
    }
}

/// Public adjacency snapshot for CLI/tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjacencyInfo {
    pub iface: IfaceId,
    pub state: AdjState,
    pub neighbor: Option<SystemId>,
    pub neighbor_addr: Option<Ipv4Addr>,
}

/// Exact work counts of an engine, handed to its owner by
/// [`IsisEngine::take_work`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IsisWork {
    /// LSPs encoded: the router's own originations.
    pub lsp_encodes: u64,
    /// LSP checksums computed: one per encoding, one per LSP received.
    pub lsp_checksums: u64,
}

impl std::ops::AddAssign for IsisWork {
    fn add_assign(&mut self, other: IsisWork) {
        self.lsp_encodes += other.lsp_encodes;
        self.lsp_checksums += other.lsp_checksums;
    }
}

/// The IS-IS engine for one router.
#[derive(Clone)]
pub struct IsisEngine {
    cfg: IsisEngineConfig,
    /// In interface name order: an adjacency's slot is its place here.
    adjacencies: Vec<Adjacency>,
    /// Every LSP held; the SPF graph shares the fragment-zero ones.
    lsdb: BTreeMap<LspId, Arc<StoredLsp>>,
    graph: SpfGraph,
    own_seq: u32,
    /// Outbound queue: each encoded PDU and the adjacency slot it goes out
    /// of. A flood queues its one encoding once per target.
    out: Vec<(usize, Bytes)>,
    /// The LSDB or an adjacency changed since SPF last ran.
    routes_stale: bool,
    /// Our interfaces' subnets, sorted: SPF never routes them (connected
    /// beats IGP anyway, and shared link subnets would otherwise flap).
    own_prefixes: Vec<Prefix>,
    /// SPF's buffers and what it needs of the last run.
    spf: Box<SpfState>,
    work: IsisWork,
}

impl IsisEngine {
    pub fn new(cfg: IsisEngineConfig) -> IsisEngine {
        let mut names: Vec<&IfaceId> = cfg
            .ifaces
            .iter()
            .filter(|i| !i.passive)
            .map(|i| &i.iface)
            .collect();
        names.sort();
        names.dedup();
        // An interface listed twice is configured as it is first listed.
        let iface_cfg = |name| cfg.ifaces.iter().find(|i| &i.iface == name);
        let adjacencies = names
            .into_iter()
            .filter_map(iface_cfg)
            .map(Adjacency::down)
            .collect();
        let mut own_prefixes: Vec<Prefix> = cfg.ifaces.iter().map(|i| i.addr.subnet()).collect();
        own_prefixes.sort();
        let mut engine = IsisEngine {
            cfg,
            adjacencies,
            lsdb: BTreeMap::new(),
            graph: SpfGraph::default(),
            own_seq: 0,
            out: Vec::new(),
            routes_stale: false,
            own_prefixes,
            spf: Box::default(),
            work: IsisWork::default(),
        };
        engine.regenerate_own_lsp();
        engine
    }

    pub fn system_id(&self) -> SystemId {
        self.cfg.system_id
    }

    /// The slot of the adjacency on `iface`.
    fn slot_of(&self, iface: &IfaceId) -> Option<usize> {
        self.adjacencies
            .binary_search_by(|a| a.iface.cmp(iface))
            .ok()
    }

    /// Each adjacency's interface, by slot.
    pub fn adjacency_ifaces(&self) -> impl Iterator<Item = &IfaceId> {
        self.adjacencies.iter().map(|a| &a.iface)
    }

    /// Marks a link up/down (failure injection). Downing a link tears the
    /// adjacency immediately, as loss-of-light would.
    pub fn set_link(&mut self, iface: &IfaceId, up: bool) {
        let Some(at) = self.slot_of(iface) else {
            return;
        };
        self.adjacencies[at].link_up = up;
        if !up {
            self.tear(at);
        }
    }

    /// Takes the adjacency on `iface` down now instead of at hold-timer
    /// expiry, and re-originates our LSP without it. The interface stays
    /// as it is: one that is up keeps sending hellos.
    pub fn tear_adjacency(&mut self, iface: &IfaceId) {
        if let Some(at) = self.slot_of(iface) {
            self.tear(at);
        }
    }

    fn tear(&mut self, at: usize) {
        if self.adjacencies.get_mut(at).is_some_and(Adjacency::go_down) {
            self.regenerate_own_lsp();
        }
    }

    /// Regenerates our own LSP after a topology-affecting change: the one
    /// place an LSP is encoded.
    fn regenerate_own_lsp(&mut self) {
        self.own_seq += 1;
        let mut is_neighbors = Vec::new();
        for adj in &self.adjacencies {
            if let (AdjState::Up, Some(n)) = (adj.state, adj.neighbor) {
                is_neighbors.push(IsNeighbor {
                    neighbor: n,
                    pseudonode: 0,
                    metric: adj.metric,
                });
            }
        }
        let ip_reaches: Vec<IpReach> = self
            .cfg
            .ifaces
            .iter()
            .map(|i| IpReach {
                metric: i.metric,
                prefix: i.addr.subnet(),
                down: false,
            })
            .collect();
        let lsp = Lsp {
            lifetime_secs: 1200,
            lsp_id: LspId::of(self.cfg.system_id),
            seq: self.own_seq,
            tlvs: vec![
                Tlv::Area(vec![self.cfg.area.clone()]),
                Tlv::Protocols(vec![NLPID_IPV4]),
                Tlv::Hostname(self.cfg.hostname.clone()),
                Tlv::ExtIsReach(is_neighbors),
                Tlv::ExtIpReach(ip_reaches),
            ],
        };
        let lsp = Arc::new(StoredLsp::encode(&lsp));
        self.work.lsp_encodes += 1;
        self.work.lsp_checksums += 1;
        self.install(Arc::clone(&lsp));
        self.flood(&lsp, None);
    }

    /// Puts `lsp` in the LSDB and, if it is a fragment zero, in the SPF
    /// graph, noting for the next route pass the prefixes it advertises
    /// other than its predecessor did.
    fn install(&mut self, lsp: Arc<StoredLsp>) {
        let id = lsp.entry().lsp_id;
        if id == LspId::of(id.system) {
            let at = self.graph.index_of(id.system);
            let old = at.and_then(|at| self.graph.nodes[at].lsp.as_deref());
            let old = old.map_or(&[][..], |old| old.prefixes());
            let (new, key) = (lsp.prefixes(), |r: &IpReach| (r.prefix, r.metric));
            for (a, b) in [(old, new), (new, old)] {
                let gone = a.iter().filter(|r| !b.iter().any(|o| key(o) == key(r)));
                self.spf.readvertised.extend(gone.map(|r| r.prefix));
            }
            self.graph.set(Arc::clone(&lsp), &mut self.spf.joined);
        }
        self.lsdb.insert(id, lsp);
        self.routes_stale = true;
    }

    /// Queues `lsp`'s bytes for every Up adjacency but `except`.
    fn flood(&mut self, lsp: &StoredLsp, except: Option<usize>) {
        for (at, adj) in self.adjacencies.iter().enumerate() {
            if Some(at) != except && matches!(adj.state, AdjState::Up) {
                self.out.push((at, lsp.bytes().clone()));
            }
        }
    }

    fn send(&mut self, at: usize, bytes: Bytes) {
        self.out.push((at, bytes));
    }

    /// Acknowledges the LSP `entry` names with a PSNP.
    fn ack(&mut self, at: usize, entry: LspEntry) {
        self.send(at, encode_snp(PDU_L2_PSNP, self.cfg.system_id, [entry]));
    }

    /// The hello adjacency `at` sends now: encoded when its state or
    /// neighbour moved since the last one, else that one again.
    fn hello(&mut self, at: usize) -> Option<Bytes> {
        let key = self.adjacencies.get(at)?.hello_key();
        let cached = self.adjacencies[at].hello.as_ref();
        if let Some((_, bytes)) = cached.filter(|(cached, _)| *cached == key) {
            return Some(bytes.clone());
        }
        let pdu = self.build_hello(at);
        let bytes = pdu.encode();
        self.adjacencies[at].hello = Some((key, bytes.clone()));
        Some(bytes)
    }

    fn build_hello(&self, at: usize) -> IsisPdu {
        let adj = &self.adjacencies[at];
        let (state, neighbor) = adj.hello_key();
        IsisPdu::P2pHello(P2pHello {
            circuit_type: 2,
            source: self.cfg.system_id,
            hold_time_secs: (self.cfg.hold_time.as_millis() / 1000) as u16,
            circuit_id: 1,
            tlvs: vec![
                Tlv::Area(vec![self.cfg.area.clone()]),
                Tlv::Protocols(vec![NLPID_IPV4]),
                Tlv::IpIfaceAddr(vec![adj.addr]),
                Tlv::P2pAdjState { state, neighbor },
            ],
        })
    }

    /// Feeds a PDU received on adjacency `at` into the engine.
    pub fn push_pdu(&mut self, now: SimTime, at: usize, pdu: Received) {
        match pdu {
            Received::Hello(hello) => self.on_hello(now, at, &hello),
            Received::Lsp(lsp) => self.on_lsp(at, lsp),
            Received::Csnp(csnp) => self.on_csnp(at, &csnp),
            Received::Psnp(psnp) => self.on_psnp(at, &psnp),
        }
    }

    fn on_hello(&mut self, now: SimTime, at: usize, hello: &Hello) {
        let Some(adj) = self.adjacencies.get(at) else {
            return;
        };
        if !adj.link_up {
            return;
        }
        // Area check: mismatched areas never form L2 p2p adjacency here
        // (we run a single-area design, as the paper's topologies do).
        if !hello.in_area(&self.cfg.area) {
            return;
        }
        let they_see_us = matches!(
            hello.adj_state,
            Some((_, Some(n))) if n == self.cfg.system_id
        );

        let adj = &mut self.adjacencies[at];
        adj.neighbor = Some(hello.source);
        adj.neighbor_addr = hello.iface_addr;
        adj.expires = now + SimDuration::from_secs(hello.hold_time_secs as u64);
        let old_state = adj.state;
        adj.state = if they_see_us {
            AdjState::Up
        } else {
            AdjState::Initializing
        };
        let new_state = adj.state;
        if old_state != new_state {
            adj.transitions += 1;
        }

        if old_state != new_state {
            // Respond immediately so the three-way handshake completes in
            // one exchange rather than a hello interval.
            if let Some(h) = self.hello(at) {
                self.send(at, h);
            }
            if matches!(new_state, AdjState::Up) {
                self.regenerate_own_lsp();
                // Database sync: full CSNP to the new neighbor.
                let entries = self.lsdb.values().map(|l| l.entry());
                let csnp = encode_snp(PDU_L2_CSNP, self.cfg.system_id, entries);
                self.send(at, csnp);
            } else if matches!(old_state, AdjState::Up) {
                self.regenerate_own_lsp();
            }
        }
    }

    fn on_lsp(&mut self, at: usize, lsp: ReceivedLsp) {
        // Its decode verified one checksum; nothing here computes another.
        self.work.lsp_checksums += 1;
        let entry = lsp.entry();
        let existing_seq = self.lsdb.get(&entry.lsp_id).map(|l| l.entry().seq);
        if entry.lsp_id.system == self.cfg.system_id {
            // Someone floods our own LSP back. If theirs is newer (stale
            // restart), outrun it. An equal one is outrun too, though ISO
            // 10589 takes equal sequence number and checksum for an
            // acknowledgement (ROADMAP item 3).
            if existing_seq.map(|s| entry.seq >= s).unwrap_or(true) {
                self.own_seq = entry.seq;
                self.regenerate_own_lsp();
            }
            return;
        }
        match existing_seq {
            Some(s) if s > entry.seq => {
                // We have newer: send ours back.
                if let Some(ours) = self.lsdb.get(&entry.lsp_id) {
                    let bytes = ours.bytes().clone();
                    self.send(at, bytes);
                }
            }
            // Equal: ack implicitly via PSNP.
            Some(s) if s == entry.seq => self.ack(at, entry),
            _ => {
                // New or newer: install, ack, flood onward the bytes as
                // they arrived.
                let lsp = Arc::new(lsp.store());
                self.install(Arc::clone(&lsp));
                self.ack(at, entry);
                self.flood(&lsp, Some(at));
            }
        }
    }

    fn on_csnp(&mut self, at: usize, csnp: &SeqNums) {
        // Send them anything we have that they are missing or have older;
        // an id listed twice counts as its last listing says.
        for (id, lsp) in &self.lsdb {
            let their = csnp.entries().filter(|e| e.lsp_id == *id).last();
            match their {
                Some(their) if their.seq >= lsp.entry().seq => {}
                _ => self.out.push((at, lsp.bytes().clone())),
            }
        }
        // Request anything they have newer via PSNP.
        let newer = |e: &LspEntry| e.seq > self.lsdb.get(&e.lsp_id).map_or(0, |l| l.entry().seq);
        if csnp.entries().any(|e| newer(&e)) {
            let requests = csnp.entries().filter(newer).map(|e| LspEntry {
                lifetime: 0,
                lsp_id: e.lsp_id,
                seq: 0,
                checksum: 0,
            });
            let psnp = encode_snp(PDU_L2_PSNP, self.cfg.system_id, requests);
            self.send(at, psnp);
        }
    }

    fn on_psnp(&mut self, at: usize, psnp: &SeqNums) {
        // PSNP entries with seq 0 are requests; entries matching our seq are
        // acks (no retransmission machinery needed in an ordered-delivery
        // emulation, so acks are informational).
        for e in psnp.entries() {
            if let Some(lsp) = self.lsdb.get(&e.lsp_id) {
                if e.seq < lsp.entry().seq {
                    self.out.push((at, lsp.bytes().clone()));
                }
            }
        }
    }

    /// Advances timers; hands out the encoded PDUs to transmit, each with
    /// the slot of the adjacency it goes out of.
    pub fn poll(&mut self, now: SimTime) -> std::vec::Drain<'_, (usize, Bytes)> {
        // Hello transmission.
        for at in 0..self.adjacencies.len() {
            let adj = &self.adjacencies[at];
            let due = adj
                .last_hello_tx
                .is_none_or(|t| now.since(t) >= self.cfg.hello_interval);
            if adj.link_up && due {
                if let Some(h) = self.hello(at) {
                    self.send(at, h);
                }
                self.adjacencies[at].last_hello_tx = Some(now);
            }
        }

        // Adjacency expiry: one re-origination however many are lost.
        let mut lost = false;
        for adj in &mut self.adjacencies {
            if now >= adj.expires && adj.go_down() {
                lost = true;
            }
        }
        if lost {
            self.regenerate_own_lsp();
        }

        self.out.drain(..)
    }

    /// Earliest future instant at which a timer fires.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut next = now + self.cfg.hello_interval;
        for adj in &self.adjacencies {
            if !adj.link_up {
                continue;
            }
            let hello_at = adj
                .last_hello_tx
                .map(|t| t + self.cfg.hello_interval)
                .unwrap_or(now);
            if hello_at < next {
                next = hello_at.max(SimTime(now.0 + 1));
            }
            if !matches!(adj.state, AdjState::Down) && adj.expires > now && adj.expires < next {
                next = adj.expires;
            }
        }
        next
    }

    /// Total adjacency state changes since the engine was built (adjacency
    /// churn, for the observability layer).
    pub fn adjacency_transitions(&self) -> u64 {
        self.adjacencies.iter().map(|a| a.transitions).sum()
    }

    /// The LSPs encoded and checksummed since the last call.
    pub fn take_work(&mut self) -> IsisWork {
        std::mem::take(&mut self.work)
    }

    /// Current adjacency table.
    pub fn adjacencies(&self) -> impl Iterator<Item = AdjacencyInfo> + '_ {
        self.adjacencies.iter().map(|a| AdjacencyInfo {
            iface: a.iface.clone(),
            state: a.state,
            neighbor: a.neighbor,
            neighbor_addr: a.neighbor_addr,
        })
    }

    /// The LSDB, in LSP id order (`show isis database`).
    pub fn lsdb(&self) -> impl Iterator<Item = &StoredLsp> {
        self.lsdb.values().map(|l| &**l)
    }

    /// True when the next [`take_route_changes`](Self::take_route_changes)
    /// will run SPF: an LSP or adjacency moved since the last one.
    pub fn routes_stale(&self) -> bool {
        self.routes_stale
    }

    /// Runs SPF if its inputs moved and appends to `changes` how the result
    /// differs from `installed` — the IS-IS routes the owner's RIB holds, in
    /// prefix order — as `(prefix, Some(route))` to install or replace and
    /// `(prefix, None)` to withdraw, in prefix order. The engine keeps no
    /// copy of its last result: the RIB's is the one there is, so
    /// `installed` must be what the changes handed out so far leave,
    /// starting from none; only the prefixes the run can have moved are read.
    /// `changes` is the owner's, so an engine holds no buffer of them; like
    /// SPF's own buffers it shrinks back after a run far smaller than it.
    pub fn take_route_changes<'a>(
        &mut self,
        installed: impl Iterator<Item = (&'a Prefix, &'a RibRoute)>,
        changes: &mut Vec<(Prefix, Option<RibRoute>)>,
    ) {
        let mut installed = installed.peekable();
        if std::mem::take(&mut self.routes_stale) {
            self.spf(|prefix, best, first_hops| {
                // Installed prefixes the run passes over are ones it left alone.
                while installed.next_if(|(p, _)| **p < prefix).is_some() {}
                let old = installed.next_if(|(p, _)| **p == prefix);
                let Some((metric, hops)) = best else {
                    changes.extend(old.map(|_| (prefix, None)));
                    return;
                };
                // Compared hop by hop so an unchanged route allocates nothing.
                let unchanged = old.is_some_and(|(_, old)| {
                    old.metric == metric
                        && old.next_hops.len() == hops.len()
                        && old.next_hops.iter().zip(hops).all(|(nh, h)| {
                            let hop = &first_hops[usize::from(*h)];
                            matches!(nh, NextHop::ViaIface(addr, iface)
                                if *addr == hop.addr && *iface == hop.iface)
                        })
                });
                if !unchanged {
                    changes.push((prefix, Some(rib_route(prefix, metric, hops, first_hops))));
                }
            });
            shrink_to_run(changes);
        }
    }

    /// Reach entries the route pass has merged over the engine's life: all
    /// on the first run, then those of the prefixes a run can have moved.
    pub fn prefix_evaluations(&self) -> u64 {
        self.spf.evaluations
    }

    /// A fresh SPF's IS-IS routes for the RIB, in prefix order, whatever
    /// is installed: the from-scratch reference for
    /// [`take_route_changes`](Self::take_route_changes). It walks the
    /// LSDB's LSPs and never reads the graph SPF maintains.
    pub fn routes(&self) -> Vec<RibRoute> {
        let (first_hops, table) = self.reference_spf();
        table
            .iter()
            .map(|(prefix, (metric, hops))| rib_route(*prefix, *metric, hops, &first_hops))
            .collect()
    }

    /// Our Up adjacencies as SPF sees them.
    fn first_hops(&self) -> impl Iterator<Item = FirstHop> + '_ {
        (self.adjacencies.iter().zip(0u16..)).filter_map(|(adj, at)| {
            match (adj.state, adj.neighbor, adj.neighbor_addr) {
                (AdjState::Up, Some(neighbor), Some(addr)) => Some(FirstHop {
                    neighbor,
                    iface: adj.iface.clone(),
                    at,
                    addr,
                    metric: adj.metric,
                }),
                _ => None,
            }
        })
    }

    /// Dijkstra over the maintained graph with a bidirectional connectivity
    /// check, then the route pass. Hands `route`, in prefix order, each
    /// prefix the run can have moved (see below): its metric and equal-cost
    /// first hops (indices into the first hops, in discovery order), or
    /// `None` where no reached system advertises it. A run no larger than
    /// the last allocates nothing: its buffers are the engine's, grown to
    /// the largest run and shrunk back after a much smaller one.
    fn spf(&mut self, mut route: impl FnMut(Prefix, Option<(u32, &[u16])>, &[FirstHop])) {
        let graph = &self.graph;
        // Our own LSP is installed at construction and never leaves.
        let Some(me) = graph.index_of(self.cfg.system_id) else {
            return;
        };
        let mut state = std::mem::take(&mut self.spf);
        let mut first_hops = std::mem::take(&mut state.first_hops);
        first_hops.clear();
        first_hops.extend(self.first_hops());
        // Systems that joined since the last run were unreached in it.
        let ran = !state.last.dist.is_empty();
        let last = &mut state.last;
        let k_last = last.first_hops.len();
        for at in state.joined.drain(..).filter(|_| ran) {
            last.dist.insert(at, u32::MAX);
            last.len.insert(at, 0);
            let at = at * k_last;
            last.hops.splice(at..at, std::iter::repeat_n(0, k_last));
        }
        let (n, k) = (graph.nodes.len(), first_hops.len());
        (state.now.first_hops).splice(.., first_hops.iter().map(|fh| (fh.at, fh.addr)));
        let (dist, hops, len) = (&mut state.now.dist, &mut state.now.hops, &mut state.now.len);
        dist.splice(.., std::iter::repeat_n(u32::MAX, n));
        hops.splice(.., std::iter::repeat_n(0, n * k));
        len.splice(.., std::iter::repeat_n(0, n));
        let heap = &mut state.heap;
        dist[me] = 0;
        for (h, fh) in first_hops.iter().enumerate() {
            let Some(nb) = graph.index_of(fh.neighbor) else {
                continue;
            };
            if !graph.bidirectional(me, nb) {
                continue;
            }
            let h = u16::try_from(h).expect("fewer than 65,536 adjacencies");
            if fh.metric < dist[nb] {
                dist[nb] = fh.metric;
                (hops[nb * k], len[nb]) = (h, 1);
                heap.push(Reverse((fh.metric, nb as u32)));
            } else if fh.metric == dist[nb] {
                hops[nb * k + usize::from(len[nb])] = h;
                len[nb] += 1;
            }
        }
        while let Some(Reverse((d, sys))) = heap.pop() {
            let sys = sys as usize;
            if dist[sys] < d {
                continue;
            }
            for &(next, metric) in &graph.nodes[sys].edges {
                let next = next as usize;
                // A system listing itself can improve nothing.
                if next == me || next == sys || !graph.bidirectional(sys, next) {
                    continue;
                }
                let nd = d.saturating_add(metric);
                let from = sys * k..sys * k + usize::from(len[sys]);
                if nd < dist[next] {
                    dist[next] = nd;
                    hops.copy_within(from, next * k);
                    len[next] = len[sys];
                    heap.push(Reverse((nd, next as u32)));
                } else if nd == dist[next] && nd != u32::MAX {
                    for at in from {
                        let (h, have) = (hops[at], next * k + usize::from(len[next]));
                        if !hops[next * k..have].contains(&h) {
                            hops[have] = h;
                            len[next] += 1;
                        }
                    }
                }
            }
        }

        // What the run can have moved: on the first run every prefix; after
        // it, the prefixes whose advertisement changed and those of every
        // system whose distance or first hops — by adjacency and address,
        // not by index — differ from the last run's.
        let (now, last) = (&state.now, &state.last);
        let mut moved = std::mem::take(&mut state.readvertised);
        for (sys, node) in graph.nodes.iter().enumerate() {
            let same = ran
                && now.dist[sys] == last.dist[sys]
                && now.named_hops(sys).eq(last.named_hops(sys));
            if let Some(lsp) = node.lsp.as_ref().filter(|_| !same && sys != me) {
                moved.extend(lsp.prefixes().iter().map(|r| r.prefix));
            }
        }
        moved.sort_unstable();
        moved.dedup();
        moved.retain(|prefix| self.own_prefixes.binary_search(prefix).is_err());

        // Routes: the entries of reached systems (exactly those with a
        // first hop) for those prefixes but our own, sorted by prefix —
        // stably, so a prefix's entries stay in system, then TLV, order —
        // then merged per prefix: the least metric, and the first hops of
        // each entry with it.
        let mut reach = std::mem::take(&mut state.reach);
        reach.clear();
        let wanted = |r: &&IpReach| moved.binary_search(&r.prefix).is_ok();
        for (sys, node) in graph.nodes.iter().enumerate() {
            let Some(lsp) = node.lsp.as_ref().filter(|_| sys != me && now.len[sys] > 0) else {
                continue;
            };
            for r in lsp.prefixes().iter().filter(wanted) {
                reach.push((r.prefix, now.dist[sys].saturating_add(r.metric), sys as u32));
            }
        }
        state.evaluations += reach.len() as u64;
        // A system's entries for one prefix carry its one set of first hops.
        reach.sort_unstable_by_key(|&(prefix, _, sys)| (prefix, sys));
        let mut entries = reach.chunk_by(|a, b| a.0 == b.0).peekable();
        let best = &mut state.best;
        for &prefix in &moved {
            let entries = entries.next_if(|e| e[0].0 == prefix).unwrap_or_default();
            let Some(metric) = entries.iter().map(|e| e.1).min() else {
                route(prefix, None, &first_hops);
                continue;
            };
            best.clear();
            for &(_, _, sys) in entries.iter().filter(|e| e.1 == metric) {
                merge_hops(best, now.hops_of(sys as usize));
            }
            route(prefix, Some((metric, best.as_slice())), &first_hops);
        }
        shrink_to_run(&mut reach);
        shrink_to_run(&mut moved);
        moved.clear();
        (state.readvertised, state.reach, state.first_hops) = (moved, reach, first_hops);
        std::mem::swap(&mut state.now, &mut state.last);
        self.spf = state;
    }

    /// Dijkstra over the LSDB with a bidirectional connectivity check,
    /// from scratch. Returns the first hops and, per reachable prefix, its
    /// metric and the equal-cost first hops as indices into that list.
    fn reference_spf(&self) -> (Vec<FirstHop>, SpfTable) {
        let first_hops: Vec<FirstHop> = self.first_hops().collect();

        // One pass over the LSDB: systems in id order (so a dense index
        // orders like a `SystemId`), each with its LSP and its adjacency
        // edges by index. An edge to a system without an LSP could never
        // pass the bidirectional check, so it is dropped here.
        let lsps: Vec<&StoredLsp> = self
            .lsdb
            .iter()
            .filter(|(id, _)| **id == LspId::of(id.system))
            .map(|(_, lsp)| &**lsp)
            .collect();
        let index_of = |sys: SystemId| {
            lsps.binary_search_by_key(&sys, |l| l.entry().lsp_id.system)
                .ok()
        };
        let edges: Vec<Vec<(usize, u32)>> = lsps
            .iter()
            .map(|lsp| {
                lsp.neighbors()
                    .iter()
                    .filter_map(|n| Some((index_of(n.neighbor)?, n.metric)))
                    .collect()
            })
            .collect();
        let bidirectional = |a: usize, b: usize| edges[b].iter().any(|(n, _)| *n == a);
        let Some(me) = index_of(self.cfg.system_id) else {
            return (first_hops, SpfTable::new());
        };

        // Dijkstra: distance + equal-cost first hops (in discovery order)
        // per system.
        let mut dist: Vec<u32> = vec![u32::MAX; lsps.len()];
        let mut hops: Vec<Vec<u16>> = vec![Vec::new(); lsps.len()];
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        dist[me] = 0;
        for (h, fh) in first_hops.iter().enumerate() {
            let Some(n) = index_of(fh.neighbor) else {
                continue;
            };
            if !bidirectional(me, n) {
                continue;
            }
            let h = u16::try_from(h).expect("fewer than 65,536 adjacencies");
            if fh.metric < dist[n] {
                dist[n] = fh.metric;
                hops[n] = vec![h];
                heap.push(Reverse((fh.metric, n)));
            } else if fh.metric == dist[n] {
                hops[n].push(h);
            }
        }
        while let Some(Reverse((d, sys))) = heap.pop() {
            if dist[sys] < d {
                continue;
            }
            for &(next, metric) in &edges[sys] {
                // A system listing itself can improve nothing.
                if next == me || next == sys || !bidirectional(sys, next) {
                    continue;
                }
                let nd = d.saturating_add(metric);
                if nd < dist[next] {
                    dist[next] = nd;
                    hops[next] = hops[sys].clone();
                    heap.push(Reverse((nd, next)));
                } else if nd == dist[next] && nd != u32::MAX {
                    let via_sys = std::mem::take(&mut hops[sys]);
                    merge_hops(&mut hops[next], &via_sys);
                    hops[sys] = via_sys;
                }
            }
        }

        // Routes: prefixes advertised by reachable systems.
        let my_prefixes: Vec<Prefix> = self.cfg.ifaces.iter().map(|i| i.addr.subnet()).collect();
        let mut best = SpfTable::new();
        for (sys, lsp) in lsps.iter().enumerate() {
            // Reached systems are exactly those with a first hop.
            let first = &hops[sys];
            if sys == me || first.is_empty() {
                continue;
            }
            for reach in lsp.prefixes() {
                // Skip prefixes we own (connected beats IGP anyway, and
                // shared link subnets would otherwise flap).
                if my_prefixes.contains(&reach.prefix) {
                    continue;
                }
                let total = dist[sys].saturating_add(reach.metric);
                match best.get_mut(&reach.prefix) {
                    Some((m, nh)) if *m == total => merge_hops(nh, first),
                    Some((m, nh)) if *m > total => {
                        *m = total;
                        nh.clone_from(first);
                    }
                    Some(_) => {}
                    None => {
                        best.insert(reach.prefix, (total, first.clone()));
                    }
                }
            }
        }
        (first_hops, best)
    }
}

/// SPF's input, kept as LSPs are installed: every system a fragment-zero
/// LSP originates or names, in `SystemId` order (so an index orders like
/// its system and Dijkstra breaks ties as a sorted LSDB would).
#[derive(Clone, Default)]
struct SpfGraph {
    systems: Vec<SystemId>,
    /// Parallel to `systems`.
    nodes: Vec<SpfNode>,
}

#[derive(Clone, Default)]
struct SpfNode {
    /// The system's fragment-zero LSP, which holds its reach list; `None`
    /// for a system only named. Such a node has no edges, so no adjacency
    /// to it passes the bidirectional check.
    lsp: Option<Arc<StoredLsp>>,
    /// `(neighbour index, metric)` per IS reachability entry, in LSP order.
    edges: Vec<(u32, u32)>,
}

impl SpfGraph {
    fn index_of(&self, sys: SystemId) -> Option<usize> {
        self.systems.binary_search(&sys).ok()
    }

    /// Makes `lsp` its system's: its neighbours become edges. Each system
    /// this adds goes on `joined` with the index it took.
    fn set(&mut self, lsp: Arc<StoredLsp>, joined: &mut Vec<usize>) {
        for n in lsp.neighbors() {
            self.add(n.neighbor, joined);
        }
        let at = self.add(lsp.entry().lsp_id.system, joined);
        let edges = lsp.neighbors().iter();
        let edges = edges.filter_map(|n| Some((self.index_of(n.neighbor)? as u32, n.metric)));
        self.nodes[at] = SpfNode {
            edges: edges.collect(),
            lsp: Some(lsp),
        };
    }

    /// `sys`'s index, adding it in order if new: every edge to a system at
    /// or past its place moves up one.
    fn add(&mut self, sys: SystemId, joined: &mut Vec<usize>) -> usize {
        match self.systems.binary_search(&sys) {
            Ok(at) => at,
            Err(at) => {
                joined.push(at);
                self.systems.insert(at, sys);
                self.nodes.insert(at, SpfNode::default());
                let edges = self.nodes.iter_mut().flat_map(|n| &mut n.edges);
                for (next, _) in edges.filter(|(next, _)| *next as usize >= at) {
                    *next += 1;
                }
                at
            }
        }
    }

    /// Whether `b` lists `a` back.
    fn bidirectional(&self, a: usize, b: usize) -> bool {
        self.nodes[b].edges.iter().any(|(n, _)| *n as usize == a)
    }
}

/// The entries a per-prefix SPF buffer keeps room for, whatever its runs
/// need: a run that moves a handful of prefixes allocates nothing.
const SPF_BUFFER_FLOOR: usize = 4;

/// Gives back what a per-prefix SPF buffer, holding a run's entries, has
/// beyond twice that run or twice the floor: one grown by a full route pass
/// shrinks once later runs move a handful, so the engine does not keep its
/// largest pass for life, and runs of a steady size allocate nothing.
fn shrink_to_run<T>(buf: &mut Vec<T>) {
    let keep = 2 * buf.len().max(SPF_BUFFER_FLOOR);
    if buf.capacity() > keep {
        buf.shrink_to(keep);
    }
}

/// SPF's buffers and what the route pass needs of the last run, boxed so
/// an engine stays small inline.
#[derive(Clone, Default)]
struct SpfState {
    /// The priority queue: empty between runs, its buffer kept.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// This run's buffers and the last run's result (empty before the
    /// first run, a full pass), swapped after a run.
    now: SpfRun,
    last: SpfRun,
    /// Where each system that joined the graph since the last run went.
    joined: Vec<usize>,
    /// Prefixes an LSP installed since the last run added, dropped or
    /// re-metricked.
    readvertised: Vec<Prefix>,
    /// Reach entries the route pass merged, over the engine's life.
    evaluations: u64,
    /// The buffers of a run's first hops, its route pass's reach entries
    /// `(prefix, metric, system)` and one prefix's merged first hops. The
    /// per-prefix ones shrink back after a run far smaller than their
    /// capacity ([`shrink_to_run`]).
    first_hops: Vec<FirstHop>,
    reach: Vec<(Prefix, u32, u32)>,
    best: Vec<u16>,
}

/// One SPF run's result per system: its distance, and its equal-cost first
/// hops as the first `len[s]` of the `k` slots at `hops[s * k..]`.
#[derive(Clone, Default)]
struct SpfRun {
    dist: Vec<u32>,
    hops: Vec<u16>,
    len: Vec<u16>,
    /// The `k` first hops a hop index names: `(adjacency, neighbour
    /// address)`, where an adjacency is its place among the engine's.
    first_hops: Vec<(u16, Ipv4Addr)>,
}

impl SpfRun {
    /// `sys`'s equal-cost first hops.
    fn hops_of(&self, sys: usize) -> &[u16] {
        &self.hops[sys * self.first_hops.len()..][..usize::from(self.len[sys])]
    }

    /// What `sys`'s equal-cost first hops name.
    fn named_hops(&self, sys: usize) -> impl Iterator<Item = &(u16, Ipv4Addr)> {
        self.hops_of(sys)
            .iter()
            .map(|h| &self.first_hops[usize::from(*h)])
    }
}

/// One Up adjacency as SPF sees it: the neighbour it leads to and the
/// next hop a route through it installs.
#[derive(Clone)]
struct FirstHop {
    neighbor: SystemId,
    /// The adjacency's place among the engine's, which never moves.
    at: u16,
    iface: IfaceId,
    addr: Ipv4Addr,
    metric: u32,
}

/// Per prefix: metric and equal-cost first hops (indices into the run's
/// first-hop list, in discovery order).
type SpfTable = BTreeMap<Prefix, (u32, Vec<u16>)>;

/// Appends the hops of `from` that `into` lacks, keeping discovery order.
fn merge_hops(into: &mut Vec<u16>, from: &[u16]) {
    for h in from {
        if !into.contains(h) {
            into.push(*h);
        }
    }
}

fn rib_route(prefix: Prefix, metric: u32, hops: &[u16], first_hops: &[FirstHop]) -> RibRoute {
    RibRoute {
        prefix,
        proto: RouteProtocol::Isis,
        admin_distance: mfv_types::AdminDistance::default_for(RouteProtocol::Isis),
        metric,
        next_hops: hops
            .iter()
            .map(|h| {
                let hop = &first_hops[usize::from(*h)];
                NextHop::ViaIface(hop.addr, hop.iface.clone())
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IsisEngine {
        /// [`take_route_changes`](Self::take_route_changes)' changes, in a
        /// buffer of their own.
        fn route_changes<'a>(
            &mut self,
            installed: impl Iterator<Item = (&'a Prefix, &'a RibRoute)>,
        ) -> Vec<(Prefix, Option<RibRoute>)> {
            let mut changes = Vec::new();
            self.take_route_changes(installed, &mut changes);
            changes
        }
    }

    fn sys(n: u8) -> SystemId {
        SystemId([0, 0, 0, 0, 0, n])
    }

    fn area() -> Bytes {
        Bytes::from_static(&[0x49, 0x00, 0x01])
    }

    fn engine(n: u8, ifaces: Vec<(&str, &str, u32)>) -> IsisEngine {
        let mut cfg = IsisEngineConfig::new(sys(n), area(), format!("r{n}"));
        for (iface, addr, metric) in ifaces {
            cfg.ifaces.push(IsisIfaceConfig {
                iface: iface.into(),
                addr: addr.parse().unwrap(),
                metric,
                passive: false,
            });
        }
        // A passive loopback, like real deployments.
        cfg.ifaces.push(IsisIfaceConfig {
            iface: "Loopback0".into(),
            addr: format!("2.2.2.{n}/32").parse().unwrap(),
            metric: 10,
            passive: true,
        });
        IsisEngine::new(cfg)
    }

    /// One end of a test link: (engine index, iface).
    type End = (usize, IfaceId);

    /// A tiny in-test harness wiring engines over named links.
    struct Net {
        engines: Vec<IsisEngine>,
        links: Vec<(End, End)>,
        now: SimTime,
    }

    impl Net {
        fn settle(&mut self) {
            for _ in 0..200 {
                self.now += SimDuration::from_millis(500);
                let mut deliveries: Vec<(usize, IfaceId, Bytes)> = Vec::new();
                for (i, e) in self.engines.iter_mut().enumerate() {
                    let sent: Vec<(usize, Bytes)> = e.poll(self.now).collect();
                    for (at, pdu) in sent {
                        let iface = &e.adjacencies[at].iface;
                        if let Some((di, diface)) = peer_of(&self.links, i, iface) {
                            deliveries.push((di, diface, pdu));
                        }
                    }
                }
                if deliveries.is_empty() && self.now.0 > 2000 {
                    // One extra settle round to flush reactions.
                    let mut extra = false;
                    for (i, e) in self.engines.iter_mut().enumerate() {
                        let _ = i;
                        if e.out.is_empty() {
                            continue;
                        }
                        extra = true;
                    }
                    if !extra {
                        break;
                    }
                }
                loop {
                    let mut next: Vec<(usize, IfaceId, Bytes)> = Vec::new();
                    for (di, diface, pdu) in deliveries.drain(..) {
                        let pdu = mfv_wire::isis::receive(pdu).unwrap();
                        let e = &mut self.engines[di];
                        e.push_pdu(self.now, e.slot_of(&diface).unwrap(), pdu);
                        for (at, out) in std::mem::take(&mut e.out) {
                            let iface = &e.adjacencies[at].iface;
                            if let Some((ti, tiface)) = peer_of(&self.links, di, iface) {
                                next.push((ti, tiface, out));
                            }
                        }
                    }
                    if next.is_empty() {
                        break;
                    }
                    deliveries = next;
                }
            }
        }
    }

    fn peer_of(links: &[(End, End)], node: usize, iface: &IfaceId) -> Option<End> {
        for ((a, ai), (b, bi)) in links {
            if *a == node && ai == iface {
                return Some((*b, bi.clone()));
            }
            if *b == node && bi == iface {
                return Some((*a, ai.clone()));
            }
        }
        None
    }

    fn line3() -> Net {
        // r1 -(eth0/eth0)- r2 -(eth1/eth0)- r3
        let e1 = engine(1, vec![("eth0", "100.64.0.0/31", 10)]);
        let e2 = engine(
            2,
            vec![("eth0", "100.64.0.1/31", 10), ("eth1", "100.64.0.2/31", 10)],
        );
        let e3 = engine(3, vec![("eth0", "100.64.0.3/31", 10)]);
        Net {
            engines: vec![e1, e2, e3],
            links: vec![
                ((0, "eth0".into()), (1, "eth0".into())),
                ((1, "eth1".into()), (2, "eth0".into())),
            ],
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn adjacency_three_way_handshake() {
        let mut net = line3();
        net.settle();
        for e in &net.engines {
            for adj in e.adjacencies() {
                assert_eq!(adj.state, AdjState::Up, "{:?} {:?}", e.cfg.hostname, adj);
                assert!(adj.neighbor_addr.is_some());
            }
        }
    }

    #[test]
    fn lsdb_synchronizes_everywhere() {
        let mut net = line3();
        net.settle();
        for e in &net.engines {
            let db: Vec<_> = e.lsdb().collect();
            assert_eq!(db.len(), 3, "{} lsdb: {:?}", e.cfg.hostname, db);
        }
        // Hostnames present.
        let names: Vec<Option<String>> = net.engines[0].lsdb().map(|e| e.hostname()).collect();
        assert!(names.contains(&Some("r3".to_string())));
    }

    #[test]
    fn spf_computes_transit_routes() {
        let mut net = line3();
        net.settle();
        // r1 must reach r3's loopback via r2.
        let routes = net.engines[0].routes();
        let lo3 = routes
            .iter()
            .find(|r| r.prefix == "2.2.2.3/32".parse().unwrap())
            .expect("route to r3 loopback");
        assert_eq!(lo3.metric, 10 + 10 + 10); // eth0 + eth1 + loopback reach
        match &lo3.next_hops[0] {
            NextHop::ViaIface(addr, iface) => {
                assert_eq!(*addr, "100.64.0.1".parse::<Ipv4Addr>().unwrap());
                assert_eq!(iface, &IfaceId::from("eth0"));
            }
            other => panic!("{other:?}"),
        }
        // Far link subnet also reachable.
        assert!(routes
            .iter()
            .any(|r| r.prefix == "100.64.0.2/31".parse().unwrap()));
        // Our own link subnet is not an IS-IS route.
        assert!(!routes
            .iter()
            .any(|r| r.prefix == "100.64.0.0/31".parse().unwrap()));
    }

    #[test]
    fn link_down_reroutes_or_removes() {
        let mut net = line3();
        net.settle();
        assert!(net.engines[0]
            .routes()
            .iter()
            .any(|r| r.prefix == "2.2.2.3/32".parse().unwrap()));
        // Cut r2–r3.
        net.engines[1].set_link(&"eth1".into(), false);
        net.engines[2].set_link(&"eth0".into(), false);
        net.settle();
        let routes = net.engines[0].routes();
        assert!(
            !routes
                .iter()
                .any(|r| r.prefix == "2.2.2.3/32".parse().unwrap()),
            "r3 loopback must disappear after the cut: {routes:?}"
        );
        // r2 still reachable.
        assert!(routes
            .iter()
            .any(|r| r.prefix == "2.2.2.2/32".parse().unwrap()));
    }

    #[test]
    fn route_changes_accumulate_to_a_fresh_spf() {
        let table = |e: &IsisEngine| -> BTreeMap<Prefix, RibRoute> {
            e.routes().into_iter().map(|r| (r.prefix, r)).collect()
        };
        let mut applied: BTreeMap<Prefix, RibRoute> = BTreeMap::new();
        let apply = |e: &mut IsisEngine, applied: &mut BTreeMap<Prefix, RibRoute>| {
            let changes = e.route_changes(applied.iter());
            assert!(!e.routes_stale());
            for (p, r) in &changes {
                // Only real differences are reported.
                assert_ne!(applied.get(p), r.as_ref(), "{p} reported unchanged");
                match r {
                    Some(r) => applied.insert(*p, r.clone()),
                    None => applied.remove(p),
                };
            }
            changes.len()
        };
        let mut net = line3();
        net.settle();
        assert!(net.engines[0].routes_stale());
        assert!(apply(&mut net.engines[0], &mut applied) > 0);
        assert_eq!(applied, table(&net.engines[0]));
        assert_eq!(net.engines[0].route_changes(applied.iter()).len(), 0);
        // Cutting r2–r3 withdraws what lay behind it and nothing else.
        net.engines[1].set_link(&"eth1".into(), false);
        net.engines[2].set_link(&"eth0".into(), false);
        net.settle();
        let n = apply(&mut net.engines[0], &mut applied);
        assert_eq!(applied, table(&net.engines[0]));
        assert_eq!(n, 1, "only r3's loopback lay behind the cut");
    }

    #[test]
    fn adjacency_expires_without_hellos() {
        let mut net = line3();
        net.settle();
        // Stop delivering: advance r1 far past hold time.
        net.engines[0].poll(SimTime(net.now.0 + 120_000));
        let mut adjs = net.engines[0].adjacencies();
        assert!(adjs.all(|a| a.state == AdjState::Down));
        assert!(net.engines[0].routes().is_empty());
    }

    #[test]
    fn area_mismatch_blocks_adjacency() {
        let mut cfg1 = IsisEngineConfig::new(sys(1), area(), "r1");
        cfg1.ifaces.push(IsisIfaceConfig {
            iface: "eth0".into(),
            addr: "10.0.0.0/31".parse().unwrap(),
            metric: 10,
            passive: false,
        });
        let mut cfg2 = IsisEngineConfig::new(
            sys(2),
            Bytes::from_static(&[0x49, 0x00, 0x99]), // different area
            "r2",
        );
        cfg2.ifaces.push(IsisIfaceConfig {
            iface: "eth0".into(),
            addr: "10.0.0.1/31".parse().unwrap(),
            metric: 10,
            passive: false,
        });
        let mut net = Net {
            engines: vec![IsisEngine::new(cfg1), IsisEngine::new(cfg2)],
            links: vec![((0, "eth0".into()), (1, "eth0".into()))],
            now: SimTime::ZERO,
        };
        net.settle();
        assert!(net.engines[0]
            .adjacencies()
            .all(|a| a.state == AdjState::Down));
    }

    #[test]
    fn ecmp_on_equal_cost_paths() {
        // Square: r1 - r2 - r4 and r1 - r3 - r4, all metric 10.
        let e1 = engine(
            1,
            vec![("eth0", "10.0.12.0/31", 10), ("eth1", "10.0.13.0/31", 10)],
        );
        let e2 = engine(
            2,
            vec![("eth0", "10.0.12.1/31", 10), ("eth1", "10.0.24.0/31", 10)],
        );
        let e3 = engine(
            3,
            vec![("eth0", "10.0.13.1/31", 10), ("eth1", "10.0.34.0/31", 10)],
        );
        let e4 = engine(
            4,
            vec![("eth0", "10.0.24.1/31", 10), ("eth1", "10.0.34.1/31", 10)],
        );
        let mut net = Net {
            engines: vec![e1, e2, e3, e4],
            links: vec![
                ((0, "eth0".into()), (1, "eth0".into())),
                ((0, "eth1".into()), (2, "eth0".into())),
                ((1, "eth1".into()), (3, "eth0".into())),
                ((2, "eth1".into()), (3, "eth1".into())),
            ],
            now: SimTime::ZERO,
        };
        net.settle();
        let routes = net.engines[0].routes();
        let to4 = routes
            .iter()
            .find(|r| r.prefix == "2.2.2.4/32".parse().unwrap())
            .expect("route to r4");
        assert_eq!(to4.next_hops.len(), 2, "two equal-cost paths: {to4:?}");
    }

    #[test]
    fn passive_interface_announced_but_no_adjacency() {
        let e = engine(1, vec![("eth0", "10.0.0.0/31", 10)]);
        // Loopback0 is passive: no adjacency slot exists for it.
        assert!(e
            .adjacencies()
            .all(|a| a.iface != IfaceId::from("Loopback0")));
        // But its prefix is in our LSP.
        let own = e.lsdb.get(&LspId::of(sys(1))).unwrap();
        assert!(own
            .prefixes()
            .iter()
            .any(|r| r.prefix == "2.2.2.1/32".parse().unwrap()));
    }

    #[test]
    fn metric_asymmetry_prefers_cheap_path() {
        // Triangle: r1-r2 (10), r2-r3 (10), r1-r3 (100).
        let e1 = engine(
            1,
            vec![("eth0", "10.0.12.0/31", 10), ("eth1", "10.0.13.0/31", 100)],
        );
        let e2 = engine(
            2,
            vec![("eth0", "10.0.12.1/31", 10), ("eth1", "10.0.23.0/31", 10)],
        );
        let e3 = engine(
            3,
            vec![("eth0", "10.0.13.1/31", 100), ("eth1", "10.0.23.1/31", 10)],
        );
        let mut net = Net {
            engines: vec![e1, e2, e3],
            links: vec![
                ((0, "eth0".into()), (1, "eth0".into())),
                ((0, "eth1".into()), (2, "eth0".into())),
                ((1, "eth1".into()), (2, "eth1".into())),
            ],
            now: SimTime::ZERO,
        };
        net.settle();
        let routes = net.engines[0].routes();
        let to3 = routes
            .iter()
            .find(|r| r.prefix == "2.2.2.3/32".parse().unwrap())
            .unwrap();
        // Via r2: 10 + 10 + 10(loopback metric) = 30; direct: 100 + 10.
        assert_eq!(to3.metric, 30);
        match &to3.next_hops[0] {
            NextHop::ViaIface(addr, _) => {
                assert_eq!(*addr, "10.0.12.1".parse::<Ipv4Addr>().unwrap())
            }
            other => panic!("{other:?}"),
        }
    }

    /// ISO 10589 takes an own LSP flooded back with an equal sequence
    /// number and checksum for an acknowledgement. `on_lsp` re-originates
    /// on `>=` instead: one spurious origination per run on the workloads,
    /// kept because fixing it moves pinned event counts.
    #[test]
    #[ignore = "ROADMAP item 3: own-LSP echo"]
    fn own_lsp_echoed_back_is_an_acknowledgement() {
        let mut net = line3();
        net.settle();
        let r1 = &mut net.engines[0];
        let own = r1.lsdb.get(&LspId::of(sys(1))).unwrap().as_ref().clone();
        let encodes = r1.take_work().lsp_encodes;
        let echo = mfv_wire::isis::receive(own.bytes().clone()).unwrap();
        r1.push_pdu(net.now, 0, echo);
        assert_eq!(r1.lsdb.get(&LspId::of(sys(1))).unwrap().as_ref(), &own);
        assert_eq!(
            r1.take_work().lsp_encodes,
            0,
            "after {encodes} originations"
        );
    }

    /// One step of [`spf_over_the_maintained_graph_is_the_reference_spf`].
    #[derive(Clone, Debug)]
    enum Op {
        /// Our adjacency on `eth{iface}` comes up to a system, or goes down.
        Adjacency { iface: usize, to: Option<u8> },
        /// Our adjacency on `eth{iface}`, if up, goes down and comes back to
        /// the same neighbour, with a route pass in between: the first hops
        /// behind it change index and back.
        Flap { iface: usize },
        /// The neighbour on `eth{from}`, if up, moves to `eth{to}` at once:
        /// a first hop index can stay and name another interface.
        Move { from: usize, to: usize },
        /// A system's LSP (fragment zero or one) arrives, newer than any
        /// before it: `(neighbour, metric)` and `(prefix pool index, metric)`.
        Lsp {
            system: u8,
            fragment: u8,
            neighbors: Vec<(u8, u32)>,
            prefixes: Vec<(usize, u32)>,
        },
        /// Each system listed re-originates what it has plus the pool's
        /// `prefix` at metric 1: equal-cost advertisers of one prefix, or
        /// neighbours advertising one of our own subnets.
        Advertise { systems: Vec<u8>, prefix: usize },
        /// A system re-originates its prefixes without its neighbours,
        /// becoming unreachable.
        Isolate { system: u8 },
        /// A system re-originates what it has with every neighbour at
        /// `metric`: distances move under first hops that stay.
        Remetric { system: u8, metric: u32 },
    }

    /// What the proptest's LSPs advertise: our own link subnets and
    /// loopback first, then others' loopbacks and stub networks.
    fn prefix_pool() -> Vec<Prefix> {
        let own = (0..3)
            .map(|i| format!("100.64.{i}.0/31"))
            .chain(["2.2.2.1/32".into()]);
        let theirs = (2..5).map(|n| format!("2.2.2.{n}/32"));
        let stubs = (0..4).map(|j| format!("10.0.{j}.0/24"));
        own.chain(theirs)
            .chain(stubs)
            .map(|p| p.parse().unwrap())
            .collect()
    }

    /// The systems that originate: 1 is us, and 0 sorts before every other
    /// system, so its joining moves every index; 7 and 8 are only ever
    /// named.
    fn originator() -> impl proptest::strategy::Strategy<Value = u8> {
        use proptest::prelude::*;
        (0usize..6).prop_map(|i| [0u8, 2, 3, 4, 5, 6][i])
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Small metrics tie often; the extremes saturate.
        let is_metric = prop_oneof![0u32..3, Just(0xff_ffff)];
        let ip_metric = prop_oneof![0u32..3, Just(u32::MAX)];
        (
            // Of twelve steps, five are LSPs, two adjacencies, one each a
            // flap, a move, an advertisement, an isolation and a re-metric.
            0u8..12,
            (0usize..3, proptest::option::of(originator())),
            (originator(), 0u8..4),
            proptest::collection::vec((0u8..9, is_metric), 0..5),
            proptest::collection::vec((0usize..prefix_pool().len(), ip_metric), 0..4),
            proptest::collection::vec(originator(), 1..4),
        )
            .prop_map(
                |(kind, (iface, to), (system, fragment), neighbors, prefixes, systems)| match kind {
                    0 | 1 => Op::Adjacency { iface, to },
                    2 => Op::Flap { iface },
                    3 => Op::Advertise {
                        systems,
                        prefix: prefixes.first().map_or(0, |p| p.0),
                    },
                    4 => Op::Isolate { system },
                    5 => Op::Remetric {
                        system,
                        metric: u32::from(fragment) + 1,
                    },
                    6 => Op::Move {
                        from: iface,
                        to: usize::from(fragment % 3),
                    },
                    _ => Op::Lsp {
                        system,
                        // One LSP in four is a fragment one.
                        fragment: u8::from(fragment == 0),
                        neighbors,
                        prefixes,
                    },
                },
            )
    }

    /// Sets our adjacency on `eth{iface}` up to `to`, or down, and
    /// re-originates our LSP.
    fn set_adjacency(e: &mut IsisEngine, iface: usize, to: Option<SystemId>) {
        let at = e.slot_of(&format!("eth{iface}").as_str().into()).unwrap();
        let adj = &mut e.adjacencies[at];
        adj.state = if to.is_some() {
            AdjState::Up
        } else {
            AdjState::Down
        };
        adj.neighbor = to;
        adj.neighbor_addr = to.map(|_| Ipv4Addr::new(100, 64, iface as u8, 1));
        e.regenerate_own_lsp();
    }

    /// Delivers `system`'s LSP with sequence number `seq`.
    fn deliver(
        e: &mut IsisEngine,
        system: u8,
        fragment: u8,
        seq: u32,
        neighbors: Vec<IsNeighbor>,
        prefixes: Vec<IpReach>,
    ) {
        let lsp = Lsp {
            lifetime_secs: 1200,
            lsp_id: LspId {
                system: sys(system),
                pseudonode: 0,
                fragment,
            },
            seq,
            tlvs: vec![Tlv::ExtIsReach(neighbors), Tlv::ExtIpReach(prefixes)],
        };
        let received = mfv_wire::isis::receive(IsisPdu::Lsp(lsp).encode()).unwrap();
        e.push_pdu(SimTime::ZERO, e.slot_of(&"eth0".into()).unwrap(), received);
    }

    /// `system`'s fragment-zero neighbours and prefixes as `e` holds them.
    fn held(e: &IsisEngine, system: u8) -> (Vec<IsNeighbor>, Vec<IpReach>) {
        e.lsdb
            .get(&LspId::of(sys(system)))
            .map(|lsp| (lsp.neighbors().to_vec(), lsp.prefixes().to_vec()))
            .unwrap_or_default()
    }

    /// The changes that take `installed` to `fresh`, in prefix order.
    fn diff(
        fresh: &[RibRoute],
        installed: &BTreeMap<Prefix, RibRoute>,
    ) -> Vec<(Prefix, Option<RibRoute>)> {
        let fresh: BTreeMap<Prefix, &RibRoute> = fresh.iter().map(|r| (r.prefix, r)).collect();
        let prefixes: std::collections::BTreeSet<Prefix> =
            fresh.keys().chain(installed.keys()).copied().collect();
        prefixes
            .into_iter()
            .filter(|p| fresh.get(p).copied() != installed.get(p))
            .map(|p| (p, fresh.get(&p).map(|r| (*r).clone())))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // From a connected start, LSPs installed and replaced in random
        // order, over one-way adjacencies, unknown systems, self-listings,
        // fragments, ties, saturating metrics and our own prefixes: after
        // every step, what SPF over the maintained graph reports is exactly
        // the reference SPF's routes against what is installed, next-hop
        // order included.
        #[test]
        fn spf_over_the_maintained_graph_is_the_reference_spf(
            metrics in proptest::collection::vec(
                proptest::prop_oneof![1u32..3, proptest::strategy::Just(u32::MAX - 1)],
                3,
            ),
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let ifaces: Vec<(String, String, u32)> = metrics
                .iter()
                .enumerate()
                .map(|(i, m)| (format!("eth{i}"), format!("100.64.{i}.0/31"), *m))
                .collect();
            let ifaces = ifaces.iter().map(|(i, a, m)| (i.as_str(), a.as_str(), *m)).collect();
            let mut e = engine(1, ifaces);
            let pool = prefix_pool();
            let mut installed: BTreeMap<Prefix, RibRoute> = BTreeMap::new();
            let mut check = |e: &mut IsisEngine| {
                let expected = diff(&e.routes(), &installed);
                let changes = e.route_changes(installed.iter());
                proptest::prop_assert_eq!(&changes, &expected);
                for (prefix, route) in changes {
                    match route {
                        Some(route) => installed.insert(prefix, route),
                        None => installed.remove(&prefix),
                    };
                }
                Ok(())
            };
            // Us on eth0 to 2 and on eth1 to 3; 2, 3, 4 and 5 a square with
            // a diagonal, each advertising a loopback and a stub.
            let lsp = |system, neighbors: &[u8], prefixes: &[usize]| Op::Lsp {
                system,
                fragment: 0,
                neighbors: neighbors.iter().map(|n| (*n, 1)).collect(),
                prefixes: prefixes.iter().map(|p| (*p, 1)).collect(),
            };
            let start = vec![
                Op::Adjacency { iface: 0, to: Some(2) },
                Op::Adjacency { iface: 1, to: Some(3) },
                lsp(2, &[1, 3, 4], &[4, 7]),
                lsp(3, &[1, 2, 5], &[5, 8]),
                lsp(4, &[2, 5], &[6, 9]),
                lsp(5, &[3, 4], &[10]),
            ];
            for (seq, op) in (1u32..).zip(start.into_iter().chain(ops)) {
                match op {
                    Op::Adjacency { iface, to } => set_adjacency(&mut e, iface, to.map(sys)),
                    Op::Flap { iface } => {
                        let name = IfaceId::from(format!("eth{iface}").as_str());
                        let to = e.adjacencies[e.slot_of(&name).unwrap()].neighbor;
                        if to.is_some() {
                            set_adjacency(&mut e, iface, None);
                            check(&mut e)?;
                            set_adjacency(&mut e, iface, to);
                        }
                    }
                    Op::Move { from, to } => {
                        let name = IfaceId::from(format!("eth{from}").as_str());
                        let neighbor = e.adjacencies[e.slot_of(&name).unwrap()].neighbor;
                        if neighbor.is_some() && from != to {
                            set_adjacency(&mut e, from, None);
                            set_adjacency(&mut e, to, neighbor);
                        }
                    }
                    Op::Lsp { system, fragment, neighbors, prefixes } => {
                        let neighbors = neighbors.iter().map(|&(n, metric)| IsNeighbor {
                            neighbor: sys(n),
                            pseudonode: 0,
                            metric,
                        });
                        let prefixes = prefixes.iter().map(|&(p, metric)| IpReach {
                            metric,
                            prefix: pool[p],
                            down: false,
                        });
                        deliver(&mut e, system, fragment, seq, neighbors.collect(), prefixes.collect());
                    }
                    Op::Advertise { systems, prefix } => {
                        for system in systems {
                            let (neighbors, mut prefixes) = held(&e, system);
                            prefixes.push(IpReach { metric: 1, prefix: pool[prefix], down: false });
                            deliver(&mut e, system, 0, seq, neighbors, prefixes);
                        }
                    }
                    Op::Isolate { system } => {
                        let (_, prefixes) = held(&e, system);
                        deliver(&mut e, system, 0, seq, Vec::new(), prefixes);
                    }
                    Op::Remetric { system, metric } => {
                        let (mut neighbors, prefixes) = held(&e, system);
                        for n in &mut neighbors {
                            n.metric = metric;
                        }
                        deliver(&mut e, system, 0, seq, neighbors, prefixes);
                    }
                }
                check(&mut e)?;
            }
        }
    }

    #[test]
    fn an_lsp_that_moves_nothing_here_evaluates_no_prefix() {
        let mut net = line3();
        net.settle();
        let mut installed = BTreeMap::new();
        let mut pass = |e: &mut IsisEngine| {
            let changes = e.route_changes(installed.iter());
            for (prefix, route) in &changes {
                match route {
                    Some(route) => installed.insert(*prefix, route.clone()),
                    None => installed.remove(prefix),
                };
            }
            changes.len()
        };
        // The first run is a full pass: r2's and r3's loopbacks and the
        // r2–r3 link.
        assert_eq!(pass(&mut net.engines[0]), 3);
        let full = net.engines[0].prefix_evaluations();
        assert!(full > 0);

        // r3 re-originates what it had: r1 runs SPF, and its tree is the
        // same, so its route pass looks at nothing.
        net.engines[2].regenerate_own_lsp();
        net.settle();
        assert!(net.engines[0].routes_stale());
        assert_eq!(pass(&mut net.engines[0]), 0);
        assert_eq!(net.engines[0].prefix_evaluations(), full);
    }

    /// A hello from system `n` with our test area and hold time, as a
    /// fresh typed encoding.
    fn fresh_hello(n: u8, addr: &str, state: AdjState, neighbor: Option<SystemId>) -> Bytes {
        IsisPdu::P2pHello(P2pHello {
            circuit_type: 2,
            source: sys(n),
            hold_time_secs: 30,
            circuit_id: 1,
            tlvs: vec![
                Tlv::Area(vec![area()]),
                Tlv::Protocols(vec![NLPID_IPV4]),
                Tlv::IpIfaceAddr(vec![addr.parse().unwrap()]),
                Tlv::P2pAdjState { state, neighbor },
            ],
        })
        .encode()
    }

    #[test]
    fn a_cached_hello_is_the_fresh_encoding_after_each_transition() {
        let mut net = line3();
        let at = net.engines[0].slot_of(&"eth0".into()).unwrap();
        let expect = |net: &mut Net, state, neighbor| {
            let r1 = &mut net.engines[0];
            let hello = r1.hello(at).unwrap();
            assert_eq!(
                hello,
                fresh_hello(1, "100.64.0.0", state, neighbor),
                "{state:?}"
            );
            // Asked again, it is the same frame: encoded once per state.
            assert_eq!(r1.hello(at).unwrap().as_ptr(), hello.as_ptr());
        };
        expect(&mut net, AdjState::Down, None);
        // r2's first hello, which does not name r1 yet.
        let theirs = fresh_hello(2, "100.64.0.1", AdjState::Down, None);
        let pdu = mfv_wire::isis::receive(theirs).unwrap();
        net.engines[0].push_pdu(SimTime::ZERO, at, pdu);
        expect(&mut net, AdjState::Initializing, Some(sys(2)));
        net.settle();
        expect(&mut net, AdjState::Up, Some(sys(2)));
        net.engines[0].tear_adjacency(&"eth0".into());
        expect(&mut net, AdjState::Down, None);
        // Past the next hello, which forms the adjacency again.
        net.now += SimDuration::from_secs(10);
        net.settle();
        expect(&mut net, AdjState::Up, Some(sys(2)));
    }

    #[test]
    fn a_psnp_ack_written_from_its_entry_is_the_typed_encoding() {
        let mut e = engine(1, vec![("eth0", "100.64.0.0/31", 10)]);
        e.out.clear();
        let entry = LspEntry {
            lifetime: 1200,
            lsp_id: LspId::of(sys(2)),
            seq: 7,
            checksum: 0xbeef,
        };
        e.ack(0, entry);
        let (at, ack) = e.out.pop().unwrap();
        assert_eq!(at, 0);
        let psnp = mfv_wire::isis::Psnp {
            source: sys(1),
            entries: vec![entry],
        };
        assert_eq!(ack, IsisPdu::Psnp(psnp).encode());
        // Byte for byte: the header, the PDU length, the source and circuit
        // id, then one LSP-entries TLV.
        let mut wire = vec![
            0x83, 0, 1, 0, 27, 1, 0, 0, 0, 35, 0, 0, 0, 0, 0, 1, 0, 9, 16,
        ];
        wire.extend([0x04, 0xb0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 7, 0xbe, 0xef]);
        assert_eq!(ack.to_vec(), wire);
    }
}
