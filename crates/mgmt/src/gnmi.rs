//! A gNMI-flavoured management interface.
//!
//! Models the Get side of gNMI: a device exposes a path-addressed state
//! tree; clients issue [`get`](Telemetry::get) with an OpenConfig-style path
//! and receive the JSON subtree. The AFT dump the verification pipeline
//! depends on is one path among several (`/network-instances/.../afts`), so
//! operator tooling and the verifier share the same access mechanism —
//! precisely the "production interfaces and tooling" benefit of §3.

use serde_json::{json, Value};

use mfv_routing::bgp::NeighborSummary;
use mfv_routing::isis::AdjacencyInfo;
use mfv_types::{IfaceAddr, IfaceId};
use mfv_vrouter::VirtualRouter;

use crate::aft::Aft;

/// A snapshot of one device's management-plane state tree.
#[derive(Clone, Debug)]
pub struct Telemetry {
    root: Value,
}

/// The typed Get extraction makes: the leaves of the state tree a
/// dataplane node is built from, read off the device with no tree between.
/// Equal to what [`Telemetry::aft`], [`Telemetry::addresses`] and
/// [`Telemetry::is_up`] decode from [`Telemetry::from_router`]'s tree; JSON
/// is only how those cross a process boundary, and this one has none.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ForwardingState {
    /// `/network-instances/network-instance/afts`.
    pub aft: Aft,
    /// The enabled, routed, addressed entries of `/interfaces/interface`.
    pub addresses: std::collections::BTreeSet<std::net::Ipv4Addr>,
    /// `/system/state/up`.
    pub up: bool,
}

impl ForwardingState {
    /// Reads the device. Cannot fail — nothing is serialised — but has the
    /// shape of every Get the [`Collector`](crate::Collector) retries.
    pub fn from_router(router: &VirtualRouter) -> Result<ForwardingState, ExtractError> {
        Ok(ForwardingState {
            aft: Aft::from_fib(router.fib()),
            addresses: router.addresses().clone(),
            up: router.is_running(),
        })
    }
}

/// Why a device's state could not be read.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExtractError(pub String);

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "extraction failed: {}", self.0)
    }
}

impl std::error::Error for ExtractError {}

/// Normalises a gNMI-ish path: strips `[name=...]` list keys and empty
/// segments, producing the plain segment list used for traversal.
fn normalize(path: &str) -> Vec<String> {
    path.split('/')
        .filter(|s| !s.is_empty())
        .map(|s| s.split('[').next().unwrap_or(s).to_string())
        .collect()
}

/// Every leaf of a device's state tree, typed: what a Subscribe device side
/// compares between reads, and all [`Telemetry::from_state`] renders.
#[derive(PartialEq, Debug)]
pub(crate) struct DeviceState {
    /// `/system/state`: hostname, software version, `up`.
    system: (String, String, bool),
    /// `/interfaces/interface`: name, enabled, address, and L3-ness as the
    /// device resolves it (routed port or loopback) — lets a Subscribe
    /// consumer rebuild the node's address set from telemetry alone.
    interfaces: Vec<(IfaceId, bool, Option<IfaceAddr>, bool)>,
    aft: Aft,
    bgp_neighbors: Vec<NeighborSummary>,
    isis_adjacencies: Vec<AdjacencyInfo>,
}

impl DeviceState {
    /// Reads the device: no tree, nothing serialised.
    pub(crate) fn read(router: &VirtualRouter) -> DeviceState {
        let (config, bgp, isis) = (router.config(), router.bgp_engine(), router.isis_engine());
        let interfaces = config.interfaces.iter().map(|i| {
            let l3 = i.routed || i.name.is_loopback();
            (i.name.clone(), !i.shutdown, i.addr, l3)
        });
        DeviceState {
            system: (
                config.hostname.clone(),
                router.profile().sw_version.clone(),
                router.is_running(),
            ),
            interfaces: interfaces.collect(),
            aft: Aft::from_fib(router.fib()),
            bgp_neighbors: bgp.map(|b| b.summaries()).unwrap_or_default(),
            isis_adjacencies: isis.map(|i| i.adjacencies()).unwrap_or_default(),
        }
    }
}

impl Telemetry {
    /// Captures the state tree of a router: one typed read, rendered.
    pub fn from_router(router: &VirtualRouter) -> Result<Telemetry, ExtractError> {
        Telemetry::from_state(&DeviceState::read(router))
    }

    /// Renders a device's state tree — the one renderer. Fails (rather
    /// than panicking) if the AFT does not serialise — a malformed dump
    /// from one device must degrade that device's coverage, not abort the
    /// whole collection.
    pub(crate) fn from_state(state: &DeviceState) -> Result<Telemetry, ExtractError> {
        let (hostname, software_version, up) = &state.system;
        let aft_value = serde_json::to_value(&state.aft)
            .map_err(|e| ExtractError(format!("aft for {hostname} does not serialise: {e}")))?;
        let bgp_neighbors: Vec<Value> = state
            .bgp_neighbors
            .iter()
            .map(|s| {
                json!({
                    "neighbor-address": s.peer.to_string(),
                    "peer-as": s.remote_as.0,
                    "session-state": format!("{:?}", s.state).to_uppercase(),
                    "prefixes-received": s.prefixes_received,
                    "prefixes-sent": s.prefixes_sent,
                })
            })
            .collect();
        let isis_adjacencies: Vec<Value> = state
            .isis_adjacencies
            .iter()
            .map(|a| {
                json!({
                    "interface": a.iface.to_string(),
                    "adjacency-state": format!("{:?}", a.state).to_uppercase(),
                    "system-id": a.neighbor.map(|n| n.to_string()),
                    "neighbor-ipv4-address": a.neighbor_addr.map(|n| n.to_string()),
                })
            })
            .collect();
        let interfaces: Vec<Value> = state
            .interfaces
            .iter()
            .map(|(name, enabled, addr, routed)| {
                json!({
                    "name": name.to_string(),
                    "enabled": enabled,
                    "ipv4-address": addr.map(|a| a.to_string()),
                    "routed": routed,
                })
            })
            .collect();

        let root = json!({
            "system": {
                "state": {
                    "hostname": hostname,
                    "software-version": software_version,
                    "up": up,
                }
            },
            "interfaces": { "interface": interfaces },
            "network-instances": {
                "network-instance": {
                    "afts": aft_value,
                    "protocols": {
                        "bgp": { "neighbors": { "neighbor": bgp_neighbors } },
                        "isis": { "adjacencies": { "adjacency": isis_adjacencies } },
                    }
                }
            }
        });
        Ok(Telemetry { root })
    }

    /// gNMI Get: returns the subtree at `path`, or `None` if absent.
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut cur = &self.root;
        for seg in normalize(path) {
            cur = cur.get(&seg)?;
        }
        Some(cur)
    }

    /// Convenience: the device's AFT, decoded.
    pub fn aft(&self) -> Option<Aft> {
        let v = self.get("/network-instances/network-instance[name=default]/afts")?;
        serde::Deserialize::from_value(v).ok()
    }

    /// The leaves a dataplane node is built from, decoded; `None` without
    /// a decodable AFT.
    pub(crate) fn forwarding_state(&self) -> Option<ForwardingState> {
        Some(ForwardingState {
            aft: self.aft()?,
            addresses: self.addresses(),
            up: self.is_up(),
        })
    }

    /// The whole tree, for debugging / archiving snapshots.
    pub fn root(&self) -> &Value {
        &self.root
    }

    /// Builds a snapshot directly from a state-tree value — the
    /// consumer-side constructor for Subscribe mirrors (and for property
    /// tests over arbitrary trees).
    pub fn from_root(root: Value) -> Telemetry {
        Telemetry { root }
    }

    /// The `/system/state/up` leaf: process liveness as the management
    /// plane reports it. Absent leaf reads as down.
    pub fn is_up(&self) -> bool {
        self.get("/system/state/up")
            .and_then(Value::as_bool)
            .unwrap_or(false)
    }

    /// The device's L3 interface addresses, reconstructed from the
    /// `/interfaces/interface` list (enabled + routed + addressed). Matches
    /// `VirtualRouter::addresses()`, so a consumer can rebuild dataplane
    /// node state from telemetry alone.
    pub fn addresses(&self) -> std::collections::BTreeSet<std::net::Ipv4Addr> {
        let mut out = std::collections::BTreeSet::new();
        let Some(list) = self.get("/interfaces/interface").and_then(Value::as_array) else {
            return out;
        };
        for entry in list {
            let enabled = entry
                .get("enabled")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let routed = entry
                .get("routed")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            if !enabled || !routed {
                continue;
            }
            let Some(addr) = entry.get("ipv4-address").and_then(Value::as_str) else {
                continue;
            };
            // Addresses are streamed in `a.b.c.d/len` form.
            let host = addr.split('/').next().unwrap_or(addr);
            if let Ok(ip) = host.parse::<std::net::Ipv4Addr>() {
                out.insert(ip);
            }
        }
        out
    }
}

/// One update in a Subscribe stream: a path whose value changed (or was
/// removed) between two telemetry snapshots.
#[derive(Clone, PartialEq, Debug)]
pub struct Update {
    /// Slash-joined path of the changed leaf/subtree.
    pub path: String,
    /// The new value; `None` means the path was deleted.
    pub value: Option<Value>,
}

/// Computes the gNMI-Subscribe-style update stream between two snapshots:
/// the minimal set of subtree replacements turning `old` into `new`.
/// Leaves are compared exactly; arrays are treated as leaves (replaced
/// whole, as ON_CHANGE subscriptions to list containers behave).
///
/// The batch is canonical: strictly increasing by path, and no path is an
/// ancestor of another (a replaced or deleted subtree is one update), so
/// the stream's byte layout is independent of how either tree was built up.
/// The walk emits each path once and stops descending at the first
/// difference; only the order needs restoring, as it emits an object's added
/// keys after the keys it kept.
pub fn diff(old: &Telemetry, new: &Telemetry) -> Vec<Update> {
    let mut out = Vec::new();
    diff_value(&old.root, &new.root, String::new(), &mut out);
    out.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    // A batch stays in flight until delivered: it holds no spare capacity.
    out.shrink_to_fit();
    out
}

/// Applies a Subscribe update batch to a snapshot, producing the updated
/// tree — the consumer-side inverse of [`diff`]: `apply(old, &diff(old,
/// new))` reproduces `new` byte for byte. This is what lets a watcher keep
/// a mirror of each device's state tree without re-pulling full snapshots.
pub fn apply(base: &Telemetry, updates: &[Update]) -> Telemetry {
    let mut root = base.root.clone();
    for u in updates {
        apply_one(&mut root, &u.path, &u.value);
    }
    Telemetry { root }
}

/// Applies one update in place. Replacements create missing intermediate
/// containers (gNMI update semantics: setting a path under a leaf turns
/// the leaf into a container); deletions of absent paths are no-ops and
/// never materialise their parents.
fn apply_one(root: &mut Value, path: &str, value: &Option<Value>) {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let Some((last, parents)) = segs.split_last() else {
        // The empty path addresses the whole tree.
        *root = match value {
            Some(v) => v.clone(),
            None => Value::Object(std::collections::BTreeMap::new()),
        };
        return;
    };
    let mut cur = root;
    for seg in parents {
        if value.is_some() && !matches!(cur, Value::Object(_)) {
            *cur = Value::Object(std::collections::BTreeMap::new());
        }
        let Value::Object(m) = cur else {
            return;
        };
        cur = match value {
            Some(_) => m
                .entry((*seg).to_string())
                .or_insert_with(|| Value::Object(std::collections::BTreeMap::new())),
            None => match m.get_mut(*seg) {
                Some(next) => next,
                None => return,
            },
        };
    }
    if value.is_some() && !matches!(cur, Value::Object(_)) {
        *cur = Value::Object(std::collections::BTreeMap::new());
    }
    let Value::Object(m) = cur else {
        return;
    };
    match value {
        Some(v) => {
            m.insert((*last).to_string(), v.clone());
        }
        None => {
            m.remove(*last);
        }
    }
}

fn diff_value(old: &Value, new: &Value, path: String, out: &mut Vec<Update>) {
    match (old, new) {
        (Value::Object(a), Value::Object(b)) => {
            for (k, va) in a {
                let child_path = format!("{path}/{k}");
                match b.get(k) {
                    Some(vb) => diff_value(va, vb, child_path, out),
                    None => out.push(Update {
                        path: child_path,
                        value: None,
                    }),
                }
            }
            for (k, vb) in b {
                if !a.contains_key(k) {
                    out.push(Update {
                        path: format!("{path}/{k}"),
                        value: Some(vb.clone()),
                    });
                }
            }
        }
        (a, b) if a == b => {}
        (_, b) => out.push(Update {
            path,
            value: Some(b.clone()),
        }),
    }
}

#[cfg(test)]
mod subscribe_tests {
    use super::*;
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_types::{AsNum, SimTime};
    use mfv_vrouter::VendorProfile;
    use std::net::Ipv4Addr;

    fn router() -> mfv_vrouter::VirtualRouter {
        let spec = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .network("2.2.2.1/32".parse().unwrap());
        let mut r =
            mfv_vrouter::VirtualRouter::new("r1".into(), VendorProfile::ceos(), spec.build());
        let _ = r.poll(SimTime(100));
        r
    }

    #[test]
    fn identical_snapshots_produce_no_updates() {
        let r = router();
        let t1 = Telemetry::from_router(&r).unwrap();
        let t2 = Telemetry::from_router(&r).unwrap();
        assert!(diff(&t1, &t2).is_empty());
    }

    #[test]
    fn link_down_shows_up_as_aft_update() {
        let mut r = router();
        let t1 = Telemetry::from_router(&r).unwrap();
        r.set_link(&"Ethernet1".into(), false);
        let _ = r.poll(SimTime(200));
        let t2 = Telemetry::from_router(&r).unwrap();
        let updates = diff(&t1, &t2);
        assert!(!updates.is_empty());
        assert!(
            updates.iter().any(|u| u.path.contains("/afts")),
            "{updates:#?}"
        );
    }

    #[test]
    fn apply_inverts_diff_on_router_snapshots() {
        let mut r = router();
        let t1 = Telemetry::from_router(&r).unwrap();
        r.set_link(&"Ethernet1".into(), false);
        let _ = r.poll(SimTime(200));
        let t2 = Telemetry::from_router(&r).unwrap();
        let updates = diff(&t1, &t2);
        assert!(!updates.is_empty());
        let rebuilt = apply(&t1, &updates);
        assert_eq!(rebuilt.root(), t2.root());
        // Byte-identical, not just structurally equal.
        assert_eq!(
            serde_json::to_string(rebuilt.root()).unwrap(),
            serde_json::to_string(t2.root()).unwrap()
        );
    }

    #[test]
    fn diff_output_is_path_sorted_and_unique() {
        let old = Telemetry::from_root(json!({"b": {"y": 1, "x": 2}, "a": 1, "c": 3}));
        let new = Telemetry::from_root(json!({"b": {"y": 9, "z": 7}, "c": 3, "d": 4}));
        let updates = diff(&old, &new);
        let paths: Vec<&str> = updates.iter().map(|u| u.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(paths, sorted, "diff must emit sorted, unique paths");
        assert_eq!(
            paths,
            vec!["/a", "/b/x", "/b/y", "/b/z", "/d"],
            "{updates:#?}"
        );
    }

    #[test]
    fn apply_deletion_does_not_materialise_parents() {
        let base = Telemetry::from_root(json!({"x": 1}));
        let out = apply(
            &base,
            &[Update {
                path: "/a/b/c".into(),
                value: None,
            }],
        );
        assert_eq!(out.root(), base.root());
    }

    #[test]
    fn telemetry_consumer_helpers_match_router_state() {
        let r = router();
        let t = Telemetry::from_router(&r).unwrap();
        assert!(t.is_up());
        assert_eq!(&t.addresses(), r.addresses());
    }

    #[test]
    fn crash_flips_the_up_leaf() {
        let mut r = router();
        let t1 = Telemetry::from_router(&r).unwrap();
        // Simulate the process dying via restart + empty poll comparison:
        // apply a config removing the interface instead (visible change).
        let mut cfg = r.config().clone();
        cfg.interfaces.retain(|i| i.name.is_loopback());
        r.apply_config(cfg);
        let _ = r.poll(SimTime(300));
        let t2 = Telemetry::from_router(&r).unwrap();
        let updates = diff(&t1, &t2);
        assert!(
            updates.iter().any(|u| u.path.contains("/interfaces")),
            "{updates:#?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_types::{AsNum, SimTime};
    use mfv_vrouter::VendorProfile;
    use std::net::Ipv4Addr;

    fn router() -> VirtualRouter {
        let spec = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .ebgp(Ipv4Addr::new(100, 64, 0, 1), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap());
        let mut r = VirtualRouter::new("r1".into(), VendorProfile::ceos(), spec.build());
        let _ = r.poll(SimTime(100));
        r
    }

    #[test]
    fn get_system_hostname() {
        let t = Telemetry::from_router(&router()).unwrap();
        let v = t.get("/system/state/hostname").unwrap();
        assert_eq!(v, "r1");
    }

    #[test]
    fn get_with_list_keys_normalized() {
        let t = Telemetry::from_router(&router()).unwrap();
        assert!(t
            .get("/network-instances/network-instance[name=default]/afts")
            .is_some());
        assert!(t.get("/nonexistent/path").is_none());
    }

    #[test]
    fn aft_extraction_matches_fib() {
        let r = router();
        let t = Telemetry::from_router(&r).unwrap();
        let aft = t.aft().unwrap();
        assert_eq!(aft.len(), r.fib().len());
        assert!(aft.to_fib().same_as(r.fib()));
    }

    #[test]
    fn bgp_and_isis_state_visible() {
        let t = Telemetry::from_router(&router()).unwrap();
        let neighbors = t
            .get("/network-instances/network-instance/protocols/bgp/neighbors/neighbor")
            .unwrap();
        assert_eq!(neighbors.as_array().unwrap().len(), 1);
        let adjs = t
            .get("/network-instances/network-instance/protocols/isis/adjacencies/adjacency")
            .unwrap();
        assert_eq!(adjs.as_array().unwrap().len(), 1);
    }

    #[test]
    fn interfaces_listed() {
        let t = Telemetry::from_router(&router()).unwrap();
        let ifs = t.get("/interfaces/interface").unwrap().as_array().unwrap();
        assert_eq!(ifs.len(), 2); // Loopback0 + Ethernet1
    }
}
