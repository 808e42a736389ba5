//! External BGP peers: the route-injection harness.
//!
//! §5 of the paper brings up a 30-node replica "and inject[s]
//! production-recorded routes (millions from each BGP peer)". We have no
//! production feed to replay, so an [`ExternalPeer`] synthesises a
//! deterministic route table of the requested size and speaks real BGP to
//! its attached router through the routers' own session machine
//! ([`Session`]): OPEN handshake, hold timer, keepalives, batched UPDATEs.
//! Like a real peer's Adj-RIB-Out, the table is announced whole on every
//! new session.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;
use mfv_routing::bgp::{Event, Session, SessionState};
use mfv_types::{AsNum, AsPath, Origin, Prefix, SimDuration, SimTime};
use mfv_wire::bgp::{BgpMsg, OpenMsg, PathAttr, UpdateMsg};

/// A synthetic external BGP peer.
#[derive(Clone)]
pub struct ExternalPeer {
    /// Our address (the routers' configs name this as their neighbor).
    pub addr: Ipv4Addr,
    pub asn: AsNum,
    /// The router-side session address we talk to.
    pub router_addr: Ipv4Addr,
    session: Session,
    /// Our OPEN, encoded once.
    open: Bytes,
    /// The table, shared with a clone, and how much of it this session has
    /// announced.
    routes: Arc<[Prefix]>,
    announced: usize,
    /// Sessions dropped since one was last Established; drives the capped
    /// exponential retry backoff.
    failures: u32,
    /// Set once the retry budget is exhausted: the peer stops opening (a
    /// real feed operator pages a human instead of hammering a dead box),
    /// though it still answers a router that opens to it.
    gave_up: bool,
    /// Last instant a batch was released; pacing is enforced here so that
    /// extra polls (e.g. triggered by router replies) cannot speed the feed.
    last_batch: Option<SimTime>,
    /// Frames to the router, each encoded where it was queued.
    out: Vec<(Ipv4Addr, Bytes)>,
    /// Messages that overflowed a wire length field, dropped unsent.
    pub(crate) encode_errors: u64,
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
    /// A feed of `routes` from `addr` in `asn` to the router at
    /// `router_addr` in `router_as`.
    pub fn new(
        addr: Ipv4Addr,
        asn: AsNum,
        router_addr: Ipv4Addr,
        router_as: AsNum,
        routes: Vec<Prefix>,
    ) -> ExternalPeer {
        let open = BgpMsg::Open(OpenMsg::new(asn, 90, addr)).encode();
        ExternalPeer {
            addr,
            asn,
            router_addr,
            session: Session::new(router_as),
            open: open.unwrap_or_default(),
            routes: routes.into(),
            announced: 0,
            failures: 0,
            gave_up: false,
            last_batch: None,
            out: Vec::new(),
            encode_errors: 0,
        }
    }

    /// Prefixes per UPDATE message.
    const BATCH: usize = 250;
    /// UPDATE messages sent per poll tick, one tick per `PACE` at most
    /// (paces the feed like a real session's TCP window would).
    const MSGS_PER_TICK: usize = 2;
    const PACE: SimDuration = SimDuration::from_millis(50);
    /// Drops without an Established session before the peer gives up.
    const MAX_ATTEMPTS: u32 = 8;

    /// Delay before opening again after the `failures`th drop: 5 s
    /// doubling per failure, capped at 80 s.
    fn retry_delay(&self) -> SimDuration {
        SimDuration::from_secs(5 << self.failures.saturating_sub(1).min(4))
    }

    pub(crate) fn established(&self) -> bool {
        self.session.state() == SessionState::Established
    }

    /// True once every route has been announced — or the peer has given up
    /// on ever establishing (so a dead router cannot stall the run forever).
    pub fn done(&self) -> bool {
        self.gave_up || (self.established() && self.pending().is_empty())
    }

    /// Routes this session has still to announce.
    fn pending(&self) -> &[Prefix] {
        self.routes.get(self.announced..).unwrap_or_default()
    }

    /// Feeds a frame received from the router; returns whether it was a
    /// BGP message. Its UPDATEs are accepted silently (we are a feed, not a
    /// transit).
    pub fn push_bgp(&mut self, now: SimTime, mut frame: Bytes) -> bool {
        let Ok(msg) = BgpMsg::decode(&mut frame) else {
            return false;
        };
        self.handle(now, Event::of(&msg));
        true
    }

    /// Steps the session and carries out what it asks: its frames to the
    /// router, the whole table from the start on a new session, and the
    /// feed's backoff when the session drops.
    fn handle(&mut self, now: SimTime, event: Event) {
        let was_idle = self.session.state() == SessionState::Idle;
        let step = self.session.step(now, event);
        let to = self.router_addr;
        self.out
            .extend(step.frames(&self.open).map(|frame| (to, frame)));
        if step.table {
            (self.announced, self.failures, self.gave_up) = (0, 0, false);
        }
        if !was_idle && self.session.state() == SessionState::Idle {
            self.failures += 1;
            self.gave_up = self.failures >= Self::MAX_ATTEMPTS;
            self.session.reset(now, self.retry_delay());
        }
    }

    /// Advances the peer; returns frames by destination (the router).
    pub fn poll(&mut self, now: SimTime) -> Vec<(Ipv4Addr, Bytes)> {
        // The router is one hop away: a feed that has not given up only
        // ever loses it by its silence, which the hold timer tells.
        if !self.gave_up {
            self.handle(now, Event::Tick { reachable: true });
        }
        let paced = self.last_batch.is_some_and(|t| now.since(t) < Self::PACE);
        if !self.established() || paced || self.pending().is_empty() {
            return std::mem::take(&mut self.out);
        }
        self.last_batch = Some(now);
        for _ in 0..Self::MSGS_PER_TICK {
            let pending = self.pending();
            if pending.is_empty() {
                break;
            }
            let nlri = pending[..Self::BATCH.min(pending.len())].to_vec();
            self.announced += nlri.len();
            let update = BgpMsg::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(AsPath::sequence([self.asn])),
                    PathAttr::NextHop(self.addr),
                ],
                nlri,
            });
            // One that overflows a wire length field is counted and
            // dropped rather than truncated.
            match update.encode() {
                Ok(frame) => self.out.push((self.router_addr, frame)),
                Err(_) => self.encode_errors += 1,
            }
        }
        std::mem::take(&mut self.out)
    }

    /// Next instant this peer needs servicing.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        if self.gave_up {
            // A peer that gave up needs no servicing; park it far out so it
            // cannot keep the event loop busy.
            now + SimDuration::from_mins(60)
        } else if self.established() && !self.pending().is_empty() {
            // 2 × 250 routes per 50 ms ≈ 10k routes/s — the sustained
            // rate of a production BGP feed, which is what makes E5's
            // convergence time injection-dominated like the paper's.
            now + Self::PACE
        } else {
            self.session.next_wakeup(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ExternalPeer {
        fn push_msg(&mut self, now: SimTime, msg: &BgpMsg) {
            assert!(self.push_bgp(now, msg.encode().unwrap()));
        }

        fn state(&self) -> SessionState {
            self.session.state()
        }

        /// Routes this session has announced.
        fn announced(&self) -> usize {
            self.announced
        }
    }

    /// The router's AS, which its OPEN carries.
    const ROUTER_AS: AsNum = AsNum(65001);

    /// The messages of a poll, decoded.
    fn poll(p: &mut ExternalPeer, now: SimTime) -> Vec<BgpMsg> {
        let decode = |(_, mut frame): (Ipv4Addr, Bytes)| BgpMsg::decode(&mut frame).unwrap();
        p.poll(now).into_iter().map(decode).collect()
    }

    /// A poll's messages by kind, a full UPDATE as "update".
    fn kinds(msgs: Vec<BgpMsg>) -> Vec<&'static str> {
        let kind = |m: &BgpMsg| match m {
            BgpMsg::Open(_) => "open",
            BgpMsg::Keepalive => "keepalive",
            BgpMsg::Update(u) if u.nlri.len() == 250 => "update",
            _ => "other",
        };
        msgs.iter().map(kind).collect()
    }

    fn peer(count: usize) -> ExternalPeer {
        ExternalPeer::new(
            Ipv4Addr::new(100, 64, 9, 1),
            AsNum(64999),
            Ipv4Addr::new(100, 64, 9, 0),
            ROUTER_AS,
            synthetic_prefixes(20, count),
        )
    }

    fn open() -> BgpMsg {
        BgpMsg::Open(OpenMsg::new(ROUTER_AS, 90, Ipv4Addr::new(1, 1, 1, 1)))
    }

    fn cease() -> BgpMsg {
        BgpMsg::Notification(mfv_wire::bgp::NotificationMsg {
            code: 6,
            subcode: 0,
            data: bytes::Bytes::new(),
        })
    }

    /// The router opens a session and confirms ours: the routers' passive
    /// open, as the feed's machine sees it.
    fn router_opens(p: &mut ExternalPeer, now: SimTime) {
        p.push_msg(now, &open());
        p.push_msg(now, &BgpMsg::Keepalive);
        assert_eq!(p.state(), SessionState::Established);
    }

    /// Polls every `every` ms from `from` until `until`; returns the instants
    /// an OPEN went out.
    fn opens(p: &mut ExternalPeer, from: u64, until: u64, every: u64) -> Vec<u64> {
        let ticks = (from..until).step_by(every as usize);
        let opens = ticks.filter(|t| kinds(poll(p, SimTime(*t))).contains(&"open"));
        opens.collect()
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
        // Initiates an OPEN.
        assert_eq!(kinds(poll(&mut p, SimTime(1000))), ["open"]);
        // The router's OPEN answers ours, and its KEEPALIVE confirms it:
        // the session is up and the feed starts.
        p.push_msg(SimTime(1010), &open());
        assert_eq!(p.state(), SessionState::OpenConfirm);
        p.push_msg(SimTime(1010), &BgpMsg::Keepalive);
        assert_eq!(p.state(), SessionState::Established);
        let out = kinds(poll(&mut p, SimTime(2000)));
        assert_eq!(out, ["open", "keepalive", "update", "update"]);
        assert_eq!(p.announced(), 500);
    }

    #[test]
    fn a_wrong_as_is_refused() {
        let mut p = peer(10);
        let stranger = OpenMsg::new(AsNum(65999), 90, Ipv4Addr::new(1, 1, 1, 1));
        p.push_msg(SimTime(0), &BgpMsg::Open(stranger));
        p.push_msg(SimTime(0), &BgpMsg::Keepalive);
        assert_eq!(p.state(), SessionState::Idle);
        assert_eq!(kinds(poll(&mut p, SimTime(1))), ["other"]);
    }

    #[test]
    fn feed_completes_in_bounded_polls() {
        let mut p = peer(10_000);
        let mut now = SimTime(0);
        router_opens(&mut p, now);
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
    fn a_new_session_replays_the_table_and_a_handshake_open_does_not() {
        let mut p = peer(750);
        assert_eq!(kinds(poll(&mut p, SimTime(0))), ["open"]);
        // The router's own OPEN crosses ours: answered, and the session
        // waits for the router's confirm.
        p.push_msg(SimTime(10), &open());
        assert_eq!(kinds(poll(&mut p, SimTime(20))), ["open", "keepalive"]);
        // The router answers our OPEN with its OPEN again: the handshake,
        // confirmed, not a new session.
        p.push_msg(SimTime(30), &open());
        assert_eq!(kinds(poll(&mut p, SimTime(40))), ["keepalive"]);
        assert_eq!((p.state(), p.announced()), (SessionState::OpenConfirm, 0));
        p.push_msg(SimTime(50), &BgpMsg::Keepalive);
        let first = kinds(poll(&mut p, SimTime(60)));
        assert_eq!(first, ["update", "update"]);
        let _ = poll(&mut p, SimTime(110));
        assert!(p.done() && p.announced() == 750);
        // A restarted router opens a new session over the established
        // one: the feed opens too and, once confirmed, starts over at the
        // same pace.
        p.push_msg(SimTime(200), &open());
        assert!(!p.done() && p.announced() == 0);
        p.push_msg(SimTime(200), &BgpMsg::Keepalive);
        let again = kinds(poll(&mut p, SimTime(250)));
        assert_eq!(again, ["open", "keepalive", "update", "update"]);
        let _ = poll(&mut p, SimTime(300));
        assert!(p.done() && p.announced() == 750);
    }

    #[test]
    fn notification_resets_session() {
        let mut p = peer(10);
        router_opens(&mut p, SimTime(0));
        p.push_msg(SimTime(0), &cease());
        assert_eq!(p.state(), SessionState::Idle);
    }

    #[test]
    fn open_retry_backs_off_and_gives_up() {
        let mut p = peer(10);
        let open_times = opens(&mut p, 0, 1_000_000, 1_000);
        assert!(p.gave_up, "peer must stop retrying a dead router");
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
            assert!(p.poll(SimTime(1_100_000 + i * 7_000)).is_empty());
        }
    }

    #[test]
    fn established_session_resets_retry_budget() {
        let mut p = peer(10);
        // Burn a few attempts.
        assert_eq!(opens(&mut p, 0, 40_000, 1_000).len(), 3);
        assert!(!p.gave_up);
        // The router finally answers: session establishes, budget resets.
        router_opens(&mut p, SimTime(40_000));
        let _ = poll(&mut p, SimTime(40_000));
        // A notification drops us back to Idle; we get a full budget again.
        p.push_msg(SimTime(40_000), &cease());
        let out = kinds(poll(&mut p, SimTime(50_000)));
        assert_eq!(out, ["open"], "fresh budget after an established session");
    }

    #[test]
    fn keepalives_flow_when_established_and_idle() {
        let mut p = peer(0);
        router_opens(&mut p, SimTime(0));
        assert!(p.done());
        assert_eq!(
            kinds(poll(&mut p, SimTime(30_000))),
            ["open", "keepalive", "keepalive"]
        );
        assert_eq!(p.next_wakeup(SimTime(30_000)), SimTime(60_000));
    }

    #[test]
    fn a_router_gone_past_the_hold_time_gets_the_table_again() {
        let mut p = peer(500);
        router_opens(&mut p, SimTime(0));
        let _ = poll(&mut p, SimTime(0));
        assert!(p.done());
        // The router falls silent. Its keepalives stop, and the hold timer
        // (90 s) expires at the first tick past it: the session drops to
        // Idle and the feed is owed its table.
        let _ = poll(&mut p, SimTime(60_000));
        assert_eq!(p.state(), SessionState::Established);
        let _ = poll(&mut p, SimTime(90_001));
        assert_eq!(p.state(), SessionState::Idle);
        assert!(!p.done());
        // It opens again after the first backoff step, 5 s, and once more
        // when that handshake times out, 10 s on, after the second.
        assert_eq!(opens(&mut p, 91_000, 120_000, 1_000), [96_000, 117_000]);
        // The router comes back: the new session replays the table whole.
        router_opens(&mut p, SimTime(120_000));
        let again = kinds(poll(&mut p, SimTime(120_050)));
        assert_eq!(again[again.len() - 2..], ["update", "update"]);
        assert!(p.done() && p.announced() == 500);
    }
}
