//! External BGP peers: the route-injection harness.
//!
//! §5 of the paper brings up a 30-node replica "and inject[s]
//! production-recorded routes (millions from each BGP peer)". We have no
//! production feed to replay, so an [`ExternalPeer`] synthesises a
//! deterministic route table of the requested size and speaks real BGP to
//! its attached router: OPEN handshake, batched UPDATEs, keepalives.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use mfv_types::{AsNum, AsPath, Origin, Prefix, SimDuration, SimTime};
use mfv_wire::bgp::{BgpMsg, OpenMsg, PathAttr, UpdateMsg};

/// Peer session state (simplified speaker: we always accept).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerState {
    Idle,
    OpenSent,
    Established,
}

/// A synthetic external BGP peer.
#[derive(Clone)]
pub struct ExternalPeer {
    /// Our address (the routers' configs name this as their neighbor).
    pub addr: Ipv4Addr,
    pub asn: AsNum,
    /// The router-side session address we talk to.
    pub router_addr: Ipv4Addr,
    state: PeerState,
    /// Routes remaining to announce.
    pending: VecDeque<Prefix>,
    total: usize,
    /// Prefixes per UPDATE message.
    batch: usize,
    /// UPDATE messages sent per poll tick (paces the feed like a real
    /// session's TCP window would).
    msgs_per_tick: usize,
    last_keepalive: SimTime,
    last_open_attempt: Option<SimTime>,
    /// OPEN attempts since the session was last Established; drives the
    /// capped exponential retry backoff.
    open_attempts: u32,
    /// Set once the retry budget is exhausted: the peer stops trying (a
    /// real feed operator pages a human instead of hammering a dead box).
    gave_up: bool,
    /// Last instant a batch was released; pacing is enforced here so that
    /// extra polls (e.g. triggered by router replies) cannot speed the feed.
    last_batch: Option<SimTime>,
    out: Vec<(Ipv4Addr, BgpMsg)>,
}

/// Generates `count` deterministic /24 prefixes under `base_octet`/8,
/// rolling into adjacent first octets when count exceeds 65 536.
pub fn synthetic_prefixes(base_octet: u8, count: usize) -> Vec<Prefix> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let o1 = base_octet as usize + (i >> 16);
        let o2 = (i >> 8) & 0xff;
        let o3 = i & 0xff;
        out.push(Prefix::new(
            Ipv4Addr::new(o1 as u8, o2 as u8, o3 as u8, 0),
            24,
        ));
    }
    out
}

impl ExternalPeer {
    pub fn new(
        addr: Ipv4Addr,
        asn: AsNum,
        router_addr: Ipv4Addr,
        routes: Vec<Prefix>,
    ) -> ExternalPeer {
        ExternalPeer {
            addr,
            asn,
            router_addr,
            state: PeerState::Idle,
            total: routes.len(),
            pending: routes.into(),
            batch: 250,
            msgs_per_tick: 2,
            last_keepalive: SimTime::ZERO,
            last_open_attempt: None,
            open_attempts: 0,
            gave_up: false,
            last_batch: None,
            out: Vec::new(),
        }
    }

    /// OPEN retry policy: capped exponential backoff, bounded attempts.
    const OPEN_BASE_RETRY: SimDuration = SimDuration::from_secs(5);
    const OPEN_MAX_RETRY: SimDuration = SimDuration::from_secs(80);
    const OPEN_MAX_ATTEMPTS: u32 = 8;

    /// Delay before the next OPEN attempt: 5 s doubling per failure,
    /// capped at 80 s.
    fn open_retry_delay(&self) -> SimDuration {
        let exp = self.open_attempts.saturating_sub(1).min(4); // 5s << 4 = 80s cap
        SimDuration::from_millis(
            Self::OPEN_BASE_RETRY
                .as_millis()
                .saturating_mul(1 << exp)
                .min(Self::OPEN_MAX_RETRY.as_millis()),
        )
    }

    pub fn state(&self) -> PeerState {
        self.state
    }

    /// True once every route has been announced — or the peer has given up
    /// on ever establishing (so a dead router cannot stall the run forever).
    pub fn done(&self) -> bool {
        self.gave_up || (self.state == PeerState::Established && self.pending.is_empty())
    }

    pub fn announced(&self) -> usize {
        self.total - self.pending.len()
    }

    /// Feeds a message received from the router.
    pub fn push_msg(&mut self, now: SimTime, msg: BgpMsg) {
        match msg {
            BgpMsg::Open(open) => {
                let _ = open;
                if self.state == PeerState::Idle {
                    self.out.push((
                        self.router_addr,
                        BgpMsg::Open(OpenMsg::new(self.asn, 90, self.addr)),
                    ));
                }
                self.out.push((self.router_addr, BgpMsg::Keepalive));
                self.state = PeerState::Established;
                self.open_attempts = 0;
                self.last_keepalive = now;
            }
            BgpMsg::Keepalive => {
                if self.state == PeerState::OpenSent {
                    self.state = PeerState::Established;
                    self.open_attempts = 0;
                }
            }
            BgpMsg::Notification(_) => {
                self.state = PeerState::Idle;
            }
            BgpMsg::Update(_) => {
                // Routes from the network are accepted silently (we are a
                // feed, not a transit).
            }
        }
    }

    /// Advances the peer; returns messages addressed to the router.
    pub fn poll(&mut self, now: SimTime) -> Vec<(Ipv4Addr, BgpMsg)> {
        match self.state {
            PeerState::Idle => {
                if self.gave_up {
                    return std::mem::take(&mut self.out);
                }
                let retry = self
                    .last_open_attempt
                    .map(|t| now.since(t) >= self.open_retry_delay())
                    .unwrap_or(true);
                if retry {
                    if self.open_attempts >= Self::OPEN_MAX_ATTEMPTS {
                        self.gave_up = true;
                        return std::mem::take(&mut self.out);
                    }
                    self.last_open_attempt = Some(now);
                    self.open_attempts += 1;
                    self.state = PeerState::OpenSent;
                    self.out.push((
                        self.router_addr,
                        BgpMsg::Open(OpenMsg::new(self.asn, 90, self.addr)),
                    ));
                }
            }
            PeerState::OpenSent => {
                if self
                    .last_open_attempt
                    .map(|t| now.since(t) >= SimDuration::from_secs(10))
                    .unwrap_or(true)
                {
                    self.state = PeerState::Idle;
                }
            }
            PeerState::Established => {
                if now.since(self.last_keepalive) >= SimDuration::from_secs(20) {
                    self.last_keepalive = now;
                    self.out.push((self.router_addr, BgpMsg::Keepalive));
                }
                let pacing_ok = self
                    .last_batch
                    .map(|t| now.since(t) >= SimDuration::from_millis(50))
                    .unwrap_or(true);
                if pacing_ok && !self.pending.is_empty() {
                    self.last_batch = Some(now);
                }
                for _ in 0..self.msgs_per_tick {
                    if !pacing_ok || self.pending.is_empty() {
                        break;
                    }
                    let mut nlri = Vec::with_capacity(self.batch);
                    for _ in 0..self.batch {
                        match self.pending.pop_front() {
                            Some(p) => nlri.push(p),
                            None => break,
                        }
                    }
                    self.out.push((
                        self.router_addr,
                        BgpMsg::Update(UpdateMsg {
                            withdrawn: vec![],
                            attrs: vec![
                                PathAttr::Origin(Origin::Igp),
                                PathAttr::AsPath(AsPath::sequence([self.asn])),
                                PathAttr::NextHop(self.addr),
                            ],
                            nlri,
                        }),
                    ));
                }
            }
        }
        std::mem::take(&mut self.out)
    }

    /// Next instant this peer needs servicing.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        match self.state {
            PeerState::Established if !self.pending.is_empty() => {
                // 2 × 250 routes per 50 ms ≈ 10k routes/s — the sustained
                // rate of a production BGP feed, which is what makes E5's
                // convergence time injection-dominated like the paper's.
                SimTime(now.0 + 50)
            }
            PeerState::Established => now + SimDuration::from_secs(20),
            // A peer that gave up needs no servicing; park it far out so it
            // cannot keep the event loop busy.
            _ if self.gave_up => now + SimDuration::from_mins(60),
            _ => now + SimDuration::from_secs(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExternalPeer {
        /// True once the peer has abandoned session establishment.
        fn gave_up(&self) -> bool {
            self.gave_up
        }
    }

    fn peer(count: usize) -> ExternalPeer {
        ExternalPeer::new(
            Ipv4Addr::new(100, 64, 9, 1),
            AsNum(64999),
            Ipv4Addr::new(100, 64, 9, 0),
            synthetic_prefixes(20, count),
        )
    }

    #[test]
    fn synthetic_prefixes_are_unique_and_sized() {
        let ps = synthetic_prefixes(20, 70_000);
        assert_eq!(ps.len(), 70_000);
        let mut dedup = ps.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 70_000, "all prefixes distinct");
        assert_eq!(ps[0].to_string(), "20.0.0.0/24");
        assert_eq!(ps[65_536].to_string(), "21.0.0.0/24");
    }

    #[test]
    fn handshake_and_feed() {
        let mut p = peer(1000);
        let now = SimTime(1000);
        // Initiates an OPEN.
        let out = p.poll(now);
        assert!(matches!(out[0].1, BgpMsg::Open(_)));
        // Router's OPEN arrives; we complete and start feeding.
        p.push_msg(
            now,
            BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1))),
        );
        assert_eq!(p.state(), PeerState::Established);
        let out = p.poll(SimTime(2000));
        let updates: usize = out
            .iter()
            .filter(|(_, m)| matches!(m, BgpMsg::Update(_)))
            .count();
        assert!(updates > 0);
        assert!(p.announced() >= 250);
    }

    #[test]
    fn feed_completes_in_bounded_polls() {
        let mut p = peer(10_000);
        let mut now = SimTime(0);
        p.push_msg(
            now,
            BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1))),
        );
        let mut polls = 0;
        while !p.done() {
            now = SimTime(now.0 + 50);
            let _ = p.poll(now);
            polls += 1;
            assert!(polls < 100, "feed must finish (10k routes / 500 per poll)");
        }
        assert_eq!(p.announced(), 10_000);
    }

    #[test]
    fn notification_resets_session() {
        let mut p = peer(10);
        let now = SimTime(0);
        p.push_msg(
            now,
            BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1))),
        );
        assert_eq!(p.state(), PeerState::Established);
        p.push_msg(
            now,
            BgpMsg::Notification(mfv_wire::bgp::NotificationMsg {
                code: 6,
                subcode: 0,
                data: bytes::Bytes::new(),
            }),
        );
        assert_eq!(p.state(), PeerState::Idle);
    }

    #[test]
    fn open_retry_backs_off_and_gives_up() {
        let mut p = peer(10);
        let mut now = SimTime(0);
        let mut open_times: Vec<u64> = Vec::new();
        for _ in 0..1_000 {
            for (_, m) in p.poll(now) {
                if matches!(m, BgpMsg::Open(_)) {
                    open_times.push(now.0);
                }
            }
            if p.gave_up() {
                break;
            }
            now = SimTime(now.0 + 1_000);
        }
        assert!(p.gave_up(), "peer must stop retrying a dead router");
        assert!(p.done(), "a given-up peer reports done so runs can end");
        assert_eq!(open_times.len(), 8, "bounded attempts: {open_times:?}");
        // Inter-attempt gaps never shrink (exponential backoff, capped).
        let gaps: Vec<u64> = open_times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.windows(2).all(|g| g[1] >= g[0]),
            "backoff must be monotone: {gaps:?}"
        );
        assert!(
            *gaps.last().unwrap() <= 95_000,
            "backoff is capped: {gaps:?}"
        );
        // And it stays silent afterwards.
        for i in 0..50 {
            assert!(p.poll(SimTime(now.0 + 100_000 + i * 7_000)).is_empty());
        }
    }

    #[test]
    fn established_session_resets_retry_budget() {
        let mut p = peer(10);
        // Burn a few attempts.
        let mut now = SimTime(0);
        for _ in 0..40 {
            let _ = p.poll(now);
            now = SimTime(now.0 + 1_000);
        }
        assert!(!p.gave_up());
        // The router finally answers: session establishes, budget resets.
        p.push_msg(
            now,
            BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1))),
        );
        assert_eq!(p.state(), PeerState::Established);
        // A notification drops us back to Idle; we get a full budget again.
        p.push_msg(
            now,
            BgpMsg::Notification(mfv_wire::bgp::NotificationMsg {
                code: 6,
                subcode: 0,
                data: bytes::Bytes::new(),
            }),
        );
        let out = p.poll(SimTime(now.0 + 10_000));
        assert!(
            out.iter().any(|(_, m)| matches!(m, BgpMsg::Open(_))),
            "fresh budget after an established session"
        );
    }

    #[test]
    fn keepalives_flow_when_established_and_idle() {
        let mut p = peer(0);
        p.push_msg(
            SimTime(0),
            BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1))),
        );
        let out = p.poll(SimTime(25_000));
        assert!(out.iter().any(|(_, m)| matches!(m, BgpMsg::Keepalive)));
        assert!(p.done());
    }
}
