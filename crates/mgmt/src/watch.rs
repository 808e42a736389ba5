//! Continuous telemetry: a fault-tolerant gNMI Subscribe watcher.
//!
//! One-shot extraction ([`crate::collect`]) answers "what is the network
//! doing *now*"; continuous verification needs "tell me whenever it
//! changes". This module models a per-node Subscribe session: the device
//! side compares its typed state (`DeviceState`) with what it already
//! streamed and, only when it changed, diffs the two rendered trees
//! ([`crate::gnmi::diff`]) into sequence-numbered, sim-time-stamped update
//! batches; the client side maintains a mirror by applying them
//! ([`crate::gnmi::apply`]) and decodes its forwarding state once per change.
//!
//! The stream is allowed to fail, and every failure mode is detected
//! rather than silently corrupting the mirror:
//!
//! - **Gaps** — a delivered batch skips ahead of the expected sequence
//!   number (an earlier batch was lost). The mirror is frozen and a
//!   full-snapshot resync is scheduled *for that node only*.
//! - **Duplicates / stale batches** — sequence number below the expected
//!   one; discarded and counted.
//! - **Session loss** — the stream resets outright, or goes silent past
//!   `SILENCE_TIMEOUT` (heartbeat batches every `HEARTBEAT_EVERY` bound how
//!   long silence can be mistaken for quiet). Resubscribe attempts use the
//!   collector's capped seeded backoff schedule.
//!
//! While a stream is degraded its node's [`ExtractionStatus`] drops to
//! `Stale` (and to `Missing` past `MAX_STALE`), so standing verdicts
//! computed from the mirrors become coverage-qualified instead of quietly
//! wrong. Sequence numbers are global per node and never reset — a resync
//! simply jumps the mirror to the device's current head.
//!
//! [`WatchStats`] counts what happened and the watcher's journal
//! ([`Watcher::observe_into`]) records each gap, session loss and sync once;
//! a [`TickReport`] only says which mirrors changed.
//!
//! Every random draw (delivery faults, backoff jitter) is a stateless
//! seeded roll in `(seed, node, seq | attempt)`, so a chaos run replays
//! bit-for-bit.

use std::collections::{BTreeMap, VecDeque};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mfv_dataplane::Dataplane;
use mfv_types::{ExtractionStatus, NodeId, SimDuration, SimTime};
use mfv_vrouter::VirtualRouter;

use crate::collect::{backoff_delay, node_key};
use crate::gnmi::{apply, diff, DeviceState, ForwardingState, Telemetry, Update};

/// Simulated failure model for the Subscribe delivery path.
///
/// Defaults to off: every batch is delivered and sessions never reset.
#[derive(Clone, Debug, Default)]
pub struct StreamFaultModel {
    /// Percent of batches lost in flight (the client sees a sequence gap
    /// on the next delivery).
    pub drop_pct: u8,
    /// Percent of deliveries at which the whole session resets (the client
    /// sees an explicit stream error and must resubscribe).
    pub session_loss_pct: u8,
}

impl StreamFaultModel {
    pub fn is_noop(&self) -> bool {
        self.drop_pct == 0 && self.session_loss_pct == 0
    }
}

/// Device-side heartbeat cadence: an empty batch is emitted if nothing
/// changed for this long, so the client can bound gap detection.
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_secs(5);
/// In-flight time of a batch between device and client.
const DELIVERY_DELAY: SimDuration = SimDuration::from_millis(100);
/// Client-side silence bound: a healthy stream that delivers nothing for
/// this long is declared lost.
const SILENCE_TIMEOUT: SimDuration = SimDuration::from_secs(12);
/// A degraded stream older than this stops counting as covered: its node's
/// status drops from `Stale` to `Missing`.
const MAX_STALE: SimDuration = SimDuration::from_secs(60);

/// What a watch run varies: the seed of its fault rolls and backoff
/// jitter, and the delivery path's failure model.
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Seed for delivery-fault rolls and backoff jitter.
    pub seed: u64,
    /// Delivery-path failure model.
    pub faults: StreamFaultModel,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            seed: 1,
            faults: StreamFaultModel::default(),
        }
    }
}

/// Deterministic tallies across the watcher's lifetime.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WatchStats {
    /// Content batches emitted by device sides.
    pub batches_emitted: u64,
    /// Heartbeat (empty) batches emitted.
    pub heartbeats_emitted: u64,
    /// Batches that reached the client (content or heartbeat).
    pub batches_delivered: u64,
    /// Batches lost in flight (random or injected).
    pub batches_dropped: u64,
    /// Batches delivered while the stream was already degraded; discarded.
    pub discarded: u64,
    /// Deliveries behind the mirror's sequence; discarded.
    pub duplicates: u64,
    /// Sequence gaps detected.
    pub gaps: u64,
    /// Session resets (explicit or by silence).
    pub session_losses: u64,
    /// Initial snapshot syncs.
    pub initial_syncs: u64,
    /// Recovery resyncs (gap or session loss).
    pub resyncs: u64,
    /// Resync attempts, including failed ones.
    pub resync_attempts: u64,
    /// Device-side state reads that failed (router evicted or encode
    /// error); the stream goes silent instead of emitting.
    pub read_errors: u64,
}

/// What changed at the client during one [`Watcher::tick`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TickReport {
    /// Nodes whose mirror changed, with the sim time the change was
    /// *stamped* at the device (for a resync: when the stream degraded).
    /// `now - stamp` is the end-to-end staleness the standing queries are
    /// about to close — the verdict-latency numerator.
    pub changed: BTreeMap<NodeId, SimTime>,
}

/// An in-flight Subscribe batch.
#[derive(Clone, Debug)]
struct Batch {
    seq: u64,
    /// Device-side emit time.
    stamped: SimTime,
    deliver_at: SimTime,
    /// Empty for heartbeats.
    updates: Vec<Update>,
}

#[derive(Clone, Debug)]
enum StreamState {
    Healthy,
    /// Mirror frozen; a full-snapshot resync is pending.
    Resyncing {
        /// When the stream degraded (sync stamp for recovery latency).
        since: SimTime,
        /// Failed attempts so far (drives the backoff schedule).
        attempts: u32,
        next_try: SimTime,
        /// First-ever sync rather than a recovery.
        initial: bool,
    },
}

/// Exact work counts of the two sides, apart from what the streams carried.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    /// Typed device-state reads.
    device_reads: u64,
    /// States rendered to trees: a resync's snapshot, and a changed read
    /// (diffed against its predecessor, rendered again as the base).
    device_renders: u64,
    /// Mirrors decoded to forwarding state: one per resync and applied delta.
    mirror_decodes: u64,
}

#[derive(Debug)]
struct NodeStream {
    /// Device side: the state the device believes it has already streamed.
    /// Advances on every emit — even if delivery later drops the batch,
    /// the device does not know; only a resync recovers the content.
    device_last: Option<DeviceState>,
    /// Device side: next sequence number. Global per node, never resets.
    next_seq: u64,
    /// Device side: last emit (content or heartbeat), for the heartbeat
    /// cadence.
    last_emit: SimTime,
    /// Device side: is the client subscribed (false after session loss)?
    subscribed: bool,
    inflight: VecDeque<Batch>,
    /// Client side: the reconstructed state tree.
    mirror: Option<Telemetry>,
    /// Client side: the mirror's forwarding leaves, decoded once per change.
    forwarding: Option<ForwardingState>,
    /// Client side: next expected sequence number.
    mirror_seq: u64,
    /// Client side: last delivery of any kind (silence detection).
    last_heard: SimTime,
    /// Client side: last mirror content change (staleness age).
    last_applied: SimTime,
    state: StreamState,
    /// Test/ops hook: drop the next N deliveries regardless of the fault
    /// model.
    force_drop: u32,
}

impl NodeStream {
    fn new() -> NodeStream {
        NodeStream {
            device_last: None,
            next_seq: 0,
            last_emit: SimTime::ZERO,
            subscribed: false,
            inflight: VecDeque::new(),
            mirror: None,
            forwarding: None,
            mirror_seq: 0,
            last_heard: SimTime::ZERO,
            last_applied: SimTime::ZERO,
            state: StreamState::Resyncing {
                since: SimTime::ZERO,
                attempts: 0,
                next_try: SimTime::ZERO,
                initial: true,
            },
            force_drop: 0,
        }
    }
}

/// The continuous watcher: one Subscribe session per node, a client-side
/// mirror per session, and the fault machinery tying them together.
///
/// Drive it from a tick loop: advance the emulation to `now`, then call
/// [`Watcher::tick`] with each node's live router (or `None` while
/// evicted). All per-node processing happens in name order, so two
/// same-seed runs produce identical stats, journals, and mirrors.
pub struct Watcher {
    cfg: WatchConfig,
    streams: BTreeMap<NodeId, NodeStream>,
    stats: WatchStats,
    work: Work,
    journal: mfv_obs::Journal,
}

impl Watcher {
    pub fn new(cfg: WatchConfig, nodes: impl IntoIterator<Item = NodeId>) -> Watcher {
        let streams = nodes.into_iter().map(|n| (n, NodeStream::new())).collect();
        Watcher {
            cfg,
            streams,
            stats: WatchStats::default(),
            work: Work::default(),
            journal: mfv_obs::Journal::new(),
        }
    }

    pub fn stats(&self) -> &WatchStats {
        &self.stats
    }

    /// The client-side mirror for `node`, if it has ever synced.
    pub fn mirror(&self, node: &NodeId) -> Option<&Telemetry> {
        self.streams.get(node).and_then(|s| s.mirror.as_ref())
    }

    /// Drop the next `count` deliveries for `node` (whatever the fault
    /// model says) — the deterministic way to provoke a sequence gap.
    pub fn inject_drop(&mut self, node: &NodeId, count: u32) {
        if let Some(s) = self.streams.get_mut(node) {
            s.force_drop += count;
        }
    }

    /// One tick: deliver due batches, detect silence, run due resyncs,
    /// then let each device side emit. `nodes` supplies the live router
    /// for each node (`None` while evicted/unbooted).
    pub fn tick<'a, I>(&mut self, now: SimTime, nodes: I) -> TickReport
    where
        I: IntoIterator<Item = (NodeId, Option<&'a VirtualRouter>)>,
    {
        let mut report = TickReport::default();
        for (node, router) in nodes {
            self.tick_node(now, node, router, &mut report);
        }
        report
    }

    fn tick_node(
        &mut self,
        now: SimTime,
        node: NodeId,
        router: Option<&VirtualRouter>,
        report: &mut TickReport,
    ) {
        // Take the stream out while we work on it: sidesteps split-borrow
        // pain and keeps every helper a plain &mut self method.
        let mut s = self.streams.remove(&node).unwrap_or_else(NodeStream::new);
        self.deliver_due(now, &node, &mut s, report);
        self.check_silence(now, &node, &mut s);
        self.try_resync(now, &node, router, &mut s, report);
        self.emit_device(now, router, &mut s);
        self.streams.insert(node, s);
    }

    /// Stateless per-batch fault roll: `(dropped, session_lost)`.
    fn delivery_roll(&self, node: &NodeId, seq: u64) -> (bool, bool) {
        if self.cfg.faults.is_noop() {
            return (false, false);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.cfg.seed ^ node_key(node) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        use rand::Rng;
        let dropped = rng.gen_range(0..100u32) < self.cfg.faults.drop_pct as u32;
        let lost = rng.gen_range(0..100u32) < self.cfg.faults.session_loss_pct as u32;
        (dropped, lost)
    }

    /// Seeded backoff delay for resync attempt `attempt` (1-based) —
    /// stateless in `(seed, node, attempt)`.
    fn resync_delay(&self, node: &NodeId, attempt: u32) -> SimDuration {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.cfg.seed ^ node_key(node).rotate_left(17) ^ attempt as u64,
        );
        backoff_delay(attempt, &mut rng)
    }

    fn degrade(
        &mut self,
        now: SimTime,
        node: &NodeId,
        s: &mut NodeStream,
        reason: &str,
        lost_session: bool,
    ) {
        if lost_session {
            s.subscribed = false;
            s.inflight.clear();
            self.stats.session_losses += 1;
            self.journal
                .push(now, "watch.session_lost", format!("{node}: {reason}"));
        }
        // A stream already degraded keeps its original `since` (and its
        // backoff progression): a session loss during a gap-resync is one
        // outage, not two.
        if let StreamState::Resyncing { .. } = s.state {
            return;
        }
        s.state = StreamState::Resyncing {
            since: now,
            attempts: 0,
            next_try: now + self.resync_delay(node, 1),
            initial: false,
        };
    }

    fn deliver_due(
        &mut self,
        now: SimTime,
        node: &NodeId,
        s: &mut NodeStream,
        report: &mut TickReport,
    ) {
        loop {
            let due = s.inflight.front().is_some_and(|b| b.deliver_at <= now);
            if !due {
                return;
            }
            let Some(b) = s.inflight.pop_front() else {
                return;
            };
            let mut dropped = s.force_drop > 0;
            let mut lost = false;
            if dropped {
                s.force_drop -= 1;
            } else {
                (dropped, lost) = self.delivery_roll(node, b.seq);
            }
            if lost {
                // The stream itself reset: the batch dies with it.
                self.stats.batches_dropped += 1;
                self.degrade(now, node, s, "stream reset", true);
                return;
            }
            if dropped {
                self.stats.batches_dropped += 1;
                continue;
            }
            self.stats.batches_delivered += 1;
            if let StreamState::Resyncing { .. } = s.state {
                // Mirror is frozen pending resync; incremental batches
                // can no longer be applied safely.
                self.stats.discarded += 1;
                continue;
            }
            if b.seq < s.mirror_seq {
                self.stats.duplicates += 1;
                continue;
            }
            if b.seq > s.mirror_seq {
                self.stats.gaps += 1;
                self.journal.push(
                    now,
                    "watch.gap",
                    format!("{node}: expected seq {} got {}", s.mirror_seq, b.seq),
                );
                self.degrade(now, node, s, "sequence gap", false);
                continue;
            }
            // In sequence: apply.
            s.mirror_seq = b.seq + 1;
            s.last_heard = now;
            if b.updates.is_empty() {
                continue; // heartbeat
            }
            let Some(m) = &s.mirror else {
                continue;
            };
            let mirror = apply(m, &b.updates);
            self.set_mirror(s, mirror);
            s.last_applied = now;
            report
                .changed
                .entry(node.clone())
                .and_modify(|t| *t = (*t).min(b.stamped))
                .or_insert(b.stamped);
        }
    }

    fn check_silence(&mut self, now: SimTime, node: &NodeId, s: &mut NodeStream) {
        if !matches!(s.state, StreamState::Healthy) {
            return;
        }
        let silent = now.since(s.last_heard);
        if silent > SILENCE_TIMEOUT {
            let reason = format!("silent for {silent}");
            self.degrade(now, node, s, &reason, true);
        }
    }

    fn try_resync(
        &mut self,
        now: SimTime,
        node: &NodeId,
        router: Option<&VirtualRouter>,
        s: &mut NodeStream,
        report: &mut TickReport,
    ) {
        let StreamState::Resyncing {
            since,
            attempts,
            next_try,
            initial,
        } = s.state.clone()
        else {
            return;
        };
        if next_try > now {
            return;
        }
        let attempts = attempts + 1;
        self.stats.resync_attempts += 1;
        let snapshot = router.and_then(|r| {
            self.work.device_reads += 1;
            self.work.device_renders += 1;
            let state = DeviceState::read(r);
            match Telemetry::from_state(&state) {
                Ok(t) => Some((state, t)),
                Err(_) => {
                    self.stats.read_errors += 1;
                    None
                }
            }
        });
        let Some((state, snapshot)) = snapshot else {
            s.state = StreamState::Resyncing {
                since,
                attempts,
                next_try: now + self.resync_delay(node, attempts + 1),
                initial,
            };
            return;
        };
        // Full-snapshot resync: the mirror jumps to the device's current
        // head; the device restarts its diff base from the state it
        // rendered, so the next delta applies cleanly. Sequence numbers
        // continue — anything still in flight from before the outage is now
        // behind `mirror_seq` and will be discarded as duplicate.
        self.set_mirror(s, snapshot);
        s.device_last = Some(state);
        s.mirror_seq = s.next_seq;
        s.subscribed = true;
        s.last_heard = now;
        s.last_applied = now;
        s.last_emit = now;
        s.state = StreamState::Healthy;
        let stamp = if initial {
            self.stats.initial_syncs += 1;
            self.journal
                .push(now, "watch.sync", format!("{node}: initial sync"));
            now
        } else {
            self.stats.resyncs += 1;
            self.journal.push(
                now,
                "watch.resync",
                format!("{node}: resynced after {attempts} attempt(s)"),
            );
            since
        };
        report
            .changed
            .entry(node.clone())
            .and_modify(|t| *t = (*t).min(stamp))
            .or_insert(stamp);
    }

    fn emit_device(&mut self, now: SimTime, router: Option<&VirtualRouter>, s: &mut NodeStream) {
        if !s.subscribed {
            return;
        }
        let Some(router) = router else {
            // Evicted mid-subscription: the device simply stops talking;
            // the client's silence timeout will notice.
            return;
        };
        self.work.device_reads += 1;
        let current = DeviceState::read(router);
        let Some(last) = &s.device_last else {
            return;
        };
        // An unchanged state renders to the tree already streamed, which it
        // rendered to once without error: nothing to render or diff.
        if *last == current {
            return self.emit(now, s, Vec::new());
        }
        self.work.device_renders += 1;
        let (Ok(old), Ok(new)) = (Telemetry::from_state(last), Telemetry::from_state(&current))
        else {
            self.stats.read_errors += 1;
            return;
        };
        s.device_last = Some(current);
        self.emit(now, s, diff(&old, &new));
    }

    /// Queues `updates` as the next batch — or, if there are none, a
    /// heartbeat once the cadence is due.
    fn emit(&mut self, now: SimTime, s: &mut NodeStream, updates: Vec<Update>) {
        if !updates.is_empty() {
            self.stats.batches_emitted += 1;
        } else if now.since(s.last_emit) >= HEARTBEAT_EVERY {
            self.stats.heartbeats_emitted += 1;
        } else {
            return;
        }
        s.inflight.push_back(Batch {
            seq: s.next_seq,
            stamped: now,
            deliver_at: now + DELIVERY_DELAY,
            updates,
        });
        s.next_seq += 1;
        s.last_emit = now;
    }

    /// The client's mirror moves to `mirror`, decoded once here.
    fn set_mirror(&mut self, s: &mut NodeStream, mirror: Telemetry) {
        self.work.mirror_decodes += 1;
        s.forwarding = mirror.forwarding_state();
        s.mirror = Some(mirror);
    }

    /// Per-node extraction status as of `now` — feeds
    /// [`mfv_verify` coverage](ExtractionStatus) so standing verdicts are
    /// qualified exactly by what the streams currently cover.
    pub fn status(&self, now: SimTime) -> BTreeMap<NodeId, ExtractionStatus> {
        let mut out = BTreeMap::new();
        for (node, s) in &self.streams {
            let st = match (&s.mirror, &s.state) {
                (None, _) => ExtractionStatus::Missing("stream never synced".into()),
                (Some(_), StreamState::Healthy) => ExtractionStatus::Fresh,
                (Some(_), StreamState::Resyncing { since, .. }) => {
                    let age = now.since(s.last_applied);
                    if age > MAX_STALE {
                        ExtractionStatus::Missing(format!(
                            "stream down since {since} ({age} stale)"
                        ))
                    } else {
                        ExtractionStatus::Stale(age)
                    }
                }
            };
            out.insert(node.clone(), st);
        }
        out
    }

    /// Rebuilds a [`Dataplane`] from the current mirrors — the continuous
    /// counterpart of [`crate::dataplane_from_afts`]. Node state (FIB,
    /// addresses, up) comes entirely from mirrored telemetry, as decoded
    /// when each mirror last changed; `reference` supplies link context
    /// only. Nodes whose status is `Missing` as of `now` are excluded, so
    /// the dataplane and the coverage report agree.
    pub fn dataplane(&self, now: SimTime, reference: &Dataplane) -> Dataplane {
        let status = self.status(now);
        let mut dp = Dataplane::new();
        for (node, s) in &self.streams {
            let covered = status.get(node).is_some_and(|st| st.is_covered());
            if !covered {
                continue;
            }
            let Some(f) = &s.forwarding else {
                continue;
            };
            crate::ingest_aft(&mut dp, node.clone(), &f.aft, f.addresses.clone(), f.up);
        }
        crate::add_covered_links(&mut dp, &reference.links);
        dp
    }

    /// Flushes lifetime tallies into `obs` under `watch.*` and merges the
    /// watcher's journal (gaps, losses, resyncs). Call once, at the end of
    /// a run — everything here is seed-deterministic.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        let m = &mut obs.metrics;
        m.inc("watch.batches.emitted", self.stats.batches_emitted);
        m.inc("watch.batches.heartbeats", self.stats.heartbeats_emitted);
        m.inc("watch.batches.delivered", self.stats.batches_delivered);
        m.inc("watch.batches.dropped", self.stats.batches_dropped);
        m.inc("watch.batches.discarded", self.stats.discarded);
        m.inc("watch.batches.duplicates", self.stats.duplicates);
        m.inc("watch.gaps", self.stats.gaps);
        m.inc("watch.session_losses", self.stats.session_losses);
        m.inc("watch.syncs.initial", self.stats.initial_syncs);
        m.inc("watch.resyncs", self.stats.resyncs);
        m.inc("watch.resync_attempts", self.stats.resync_attempts);
        m.inc("watch.read_errors", self.stats.read_errors);
        m.inc("watch.device_reads", self.work.device_reads);
        m.inc("watch.device_renders", self.work.device_renders);
        m.inc("watch.mirror_decodes", self.work.mirror_decodes);
        obs.journal.merge(self.journal.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_types::{AsNum, SimTime};
    use mfv_vrouter::VendorProfile;
    use std::net::Ipv4Addr;

    fn router(name: &str) -> VirtualRouter {
        let spec = RouterSpec::new(name, AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .network("2.2.2.1/32".parse().unwrap());
        let mut r = VirtualRouter::new(name.into(), VendorProfile::ceos(), spec.build());
        let _ = r.poll(SimTime(100));
        r
    }

    /// The watcher's journal, one `(kind, detail)` per line.
    fn journal(w: &Watcher) -> Vec<(&'static str, String)> {
        w.journal
            .events()
            .map(|e| (e.kind, e.detail.clone()))
            .collect()
    }

    fn bytes(t: &Telemetry) -> String {
        serde_json::to_string(t.root()).expect("telemetry serialises")
    }

    fn sec(s: u64) -> SimTime {
        SimTime(s * 1000)
    }

    #[test]
    fn initial_sync_then_heartbeats_stay_fresh() {
        let r = router("r1");
        let node = NodeId::from("r1");
        let mut w = Watcher::new(WatchConfig::default(), vec![node.clone()]);
        let rep = w.tick(sec(1), vec![(node.clone(), Some(&r))]);
        assert!(rep.changed.contains_key(&node));
        assert_eq!(w.stats().initial_syncs, 1);
        assert_eq!(bytes(w.mirror(&node).expect("mirror")), {
            let t = Telemetry::from_router(&r).expect("read");
            serde_json::to_string(t.root()).expect("ser")
        });
        // Quiet for 19 s, past the 12 s silence bound: heartbeats every
        // HEARTBEAT_EVERY keep the stream alive.
        for t in 2..=20u64 {
            let rep = w.tick(sec(t), vec![(node.clone(), Some(&r))]);
            assert!(rep.changed.is_empty(), "t={t}: {rep:?}");
        }
        assert_eq!(w.stats().heartbeats_emitted, 3);
        assert_eq!(w.stats().gaps, 0);
        assert_eq!(w.stats().session_losses, 0);
        assert_eq!(w.status(sec(20))[&node], ExtractionStatus::Fresh);
        assert_eq!(journal(&w), [("watch.sync", "r1: initial sync".into())]);
    }

    #[test]
    fn delta_propagates_with_delivery_latency() {
        let mut r = router("r1");
        let node = NodeId::from("r1");
        let mut w = Watcher::new(WatchConfig::default(), vec![node.clone()]);
        w.tick(sec(1), vec![(node.clone(), Some(&r))]);

        // Change device state between ticks.
        r.set_link(&"Ethernet1".into(), false);
        let _ = r.poll(sec(2));
        // Tick 2 emits the batch (delivery is 100ms later, i.e. next tick).
        let rep = w.tick(sec(2), vec![(node.clone(), Some(&r))]);
        assert!(rep.changed.is_empty());
        assert_eq!(w.stats().batches_emitted, 1);
        // Tick 3 delivers and applies it, stamped at emit time.
        let rep = w.tick(sec(3), vec![(node.clone(), Some(&r))]);
        assert_eq!(rep.changed.get(&node), Some(&sec(2)));
        let expected = Telemetry::from_router(&r).expect("read");
        assert_eq!(
            bytes(w.mirror(&node).expect("mirror")),
            serde_json::to_string(expected.root()).expect("ser")
        );
    }

    #[test]
    fn dropped_batch_gap_triggers_single_resync() {
        let mut r = router("r1");
        let node = NodeId::from("r1");
        let mut w = Watcher::new(WatchConfig::default(), vec![node.clone()]);
        w.tick(sec(1), vec![(node.clone(), Some(&r))]);

        // First change: emitted at t=2 but dropped in flight.
        w.inject_drop(&node, 1);
        r.set_link(&"Ethernet1".into(), false);
        let _ = r.poll(sec(2));
        w.tick(sec(2), vec![(node.clone(), Some(&r))]);
        w.tick(sec(3), vec![(node.clone(), Some(&r))]);
        assert_eq!(w.stats().batches_dropped, 1);

        // Second change: its delivery exposes the sequence gap.
        r.set_link(&"Ethernet1".into(), true);
        let _ = r.poll(sec(4));
        w.tick(sec(4), vec![(node.clone(), Some(&r))]);
        let rep = w.tick(sec(5), vec![(node.clone(), Some(&r))]);
        assert_eq!(w.stats().gaps, 1);
        assert!(rep.changed.is_empty());
        assert!(matches!(
            w.status(sec(5))[&node],
            ExtractionStatus::Stale(_)
        ));

        // Next tick: backoff (~100ms) has elapsed; resync recovers the
        // mirror byte-for-byte, stamped at the degradation instant.
        let rep = w.tick(sec(6), vec![(node.clone(), Some(&r))]);
        assert_eq!(w.stats().resyncs, 1);
        assert_eq!(rep.changed.get(&node), Some(&sec(5)));
        let expected = Telemetry::from_router(&r).expect("read");
        assert_eq!(bytes(w.mirror(&node).expect("mirror")), bytes(&expected));
        assert_eq!(w.status(sec(6))[&node], ExtractionStatus::Fresh);
        let kinds: Vec<_> = journal(&w).into_iter().map(|(kind, _)| kind).collect();
        assert_eq!(kinds, ["watch.sync", "watch.gap", "watch.resync"]);
        assert_eq!(journal(&w)[1].1, "r1: expected seq 0 got 1");
    }

    #[test]
    fn eviction_silence_backoff_and_recovery() {
        let r = router("r1");
        let node = NodeId::from("r1");
        let mut w = Watcher::new(WatchConfig::default(), vec![node.clone()]);
        w.tick(sec(1), vec![(node.clone(), Some(&r))]);

        // Router evicted: heartbeats stop; silence past SILENCE_TIMEOUT
        // declares the session lost, then resync attempts fail with growing
        // backoff.
        let mut lost_at = None;
        for t in 2..=30u64 {
            w.tick(sec(t), vec![(node.clone(), None)]);
            if w.stats().session_losses > 0 {
                lost_at = Some(t);
                break;
            }
        }
        let lost_at = lost_at.expect("session loss detected");
        assert_eq!(
            sec(lost_at).since(sec(1)),
            SILENCE_TIMEOUT + SimDuration::from_secs(1)
        );
        let outage = 60;
        for t in (lost_at + 1)..=(lost_at + outage) {
            w.tick(sec(t), vec![(node.clone(), None)]);
        }
        let attempts_during_outage = w.stats().resync_attempts;
        assert!(attempts_during_outage >= 3, "{attempts_during_outage}");
        // Backoff caps at the collector's 2 s (plus jitter): past the first
        // few attempts, no more than one per two ticks.
        assert!(
            attempts_during_outage < outage / 2,
            "{attempts_during_outage}"
        );
        // Past MAX_STALE the node stops counting as covered.
        match &w.status(sec(lost_at + outage))[&node] {
            ExtractionStatus::Missing(reason) => {
                assert!(reason.contains("stream down"), "{reason}")
            }
            other => panic!("expected Missing, got {other:?}"),
        }

        // Router comes back: the next due attempt resyncs.
        let mut resynced_at = None;
        for t in (lost_at + outage + 1)..=(lost_at + outage + 20) {
            let rep = w.tick(sec(t), vec![(node.clone(), Some(&r))]);
            if let Some(stamp) = rep.changed.get(&node) {
                // Stamped at the degradation instant.
                assert_eq!(*stamp, sec(lost_at));
                resynced_at = Some(t);
                break;
            }
        }
        let resynced_at = resynced_at.expect("resynced");
        assert_eq!(w.stats().resyncs, 1);
        assert_eq!(w.status(sec(resynced_at))[&node], ExtractionStatus::Fresh);
        let kinds: Vec<_> = journal(&w).into_iter().map(|(kind, _)| kind).collect();
        assert_eq!(kinds, ["watch.sync", "watch.session_lost", "watch.resync"]);
        assert_eq!(journal(&w)[1].1, "r1: silent for 13.000s");
    }

    #[test]
    fn faulty_stream_replays_bit_for_bit() {
        let run = || {
            let mut r = router("r1");
            let node = NodeId::from("r1");
            let cfg = WatchConfig {
                seed: 42,
                faults: StreamFaultModel {
                    drop_pct: 30,
                    session_loss_pct: 10,
                },
            };
            let mut w = Watcher::new(cfg, vec![node.clone()]);
            let mut changes = Vec::new();
            for t in 1..=60u64 {
                if t % 7 == 0 {
                    r.set_link(&"Ethernet1".into(), t % 14 == 0);
                    let _ = r.poll(sec(t));
                }
                changes.push(w.tick(sec(t), vec![(node.clone(), Some(&r))]));
            }
            let mirror = w.mirror(&node).map(bytes);
            let log = journal(&w);
            (w.stats().clone(), changes, log, mirror, w.status(sec(60)))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // The fault model actually bit: something was dropped or reset.
        assert!(a.0.batches_dropped + a.0.session_losses > 0, "{:?}", a.0);
    }

    /// The device side this module had before it read typed state, kept as
    /// the reference: every tick reads and renders the whole state tree,
    /// diffs it against the tree last streamed (`trees`, per node) and emits
    /// whatever differs. The client side is the watcher's own.
    impl Watcher {
        fn tick_full_reads(
            &mut self,
            now: SimTime,
            nodes: &[(NodeId, Option<&VirtualRouter>)],
            trees: &mut BTreeMap<NodeId, Telemetry>,
        ) -> TickReport {
            let mut report = TickReport::default();
            for (node, router) in nodes {
                let mut s = self.streams.remove(node).unwrap_or_else(NodeStream::new);
                self.deliver_due(now, node, &mut s, &mut report);
                self.check_silence(now, node, &mut s);
                let synced = self.stats.initial_syncs + self.stats.resyncs;
                self.try_resync(now, node, *router, &mut s, &mut report);
                if self.stats.initial_syncs + self.stats.resyncs > synced {
                    // The device restarts its base from the snapshot the
                    // mirror jumped to.
                    let snapshot = s.mirror.clone().expect("a resync sets the mirror");
                    trees.insert(node.clone(), snapshot);
                }
                self.emit_full_read(now, *router, &mut s, trees.get_mut(node));
                self.streams.insert(node.clone(), s);
            }
            report
        }

        fn emit_full_read(
            &mut self,
            now: SimTime,
            router: Option<&VirtualRouter>,
            s: &mut NodeStream,
            last: Option<&mut Telemetry>,
        ) {
            if !s.subscribed {
                return;
            }
            let Some(router) = router else {
                return;
            };
            let current = match Telemetry::from_router(router) {
                Ok(t) => t,
                Err(_) => {
                    self.stats.read_errors += 1;
                    return;
                }
            };
            let Some(last) = last else {
                return;
            };
            let updates = diff(last, &current);
            if !updates.is_empty() {
                *last = current;
            }
            self.emit(now, s, updates);
        }
    }

    #[test]
    fn typed_reads_stream_what_full_reads_would() {
        for seed in [1, 7, 42, 1234, 90_001] {
            let mut r1 = router("r1");
            let r2 = router("r2");
            let (n1, n2) = (NodeId::from("r1"), NodeId::from("r2"));
            let cfg = WatchConfig {
                seed,
                faults: StreamFaultModel {
                    drop_pct: 30,
                    session_loss_pct: 10,
                },
            };
            let mut typed = Watcher::new(cfg.clone(), [n1.clone(), n2.clone()]);
            let mut full = Watcher::new(cfg, [n1.clone(), n2.clone()]);
            let mut trees = BTreeMap::new();
            let period = 2 + seed % 5;
            for t in 1..=120u64 {
                // r1's link flaps every `period` seconds, and r1 is evicted
                // for a while; r2 stays quiet.
                if t % period == 0 {
                    r1.set_link(&"Ethernet1".into(), (t / period) % 2 == 0);
                    let _ = r1.poll(sec(t));
                }
                let live = !(40..60).contains(&t);
                let nodes = [(n1.clone(), live.then_some(&r1)), (n2.clone(), Some(&r2))];
                let at = format!("seed {seed}, t={t}");
                let a = typed.tick(sec(t), nodes.clone());
                let b = full.tick_full_reads(sec(t), &nodes, &mut trees);
                assert_eq!(a, b, "{at}");
                assert_eq!(typed.stats(), full.stats(), "{at}");
                for n in [&n1, &n2] {
                    let bytes_of = |w: &Watcher| w.mirror(n).map(bytes);
                    assert_eq!(bytes_of(&typed), bytes_of(&full), "{at}");
                }
                assert_eq!(typed.status(sec(t)), full.status(sec(t)), "{at}");
            }
            assert_eq!(journal(&typed), journal(&full), "seed {seed}");
            let (stats, work) = (typed.stats(), typed.work);
            assert!(stats.batches_emitted > 0 && stats.resyncs > 0, "{stats:?}");
            // The reads that found nothing changed rendered nothing.
            assert!(work.device_renders * 3 < work.device_reads, "{work:?}");
        }
    }
}
