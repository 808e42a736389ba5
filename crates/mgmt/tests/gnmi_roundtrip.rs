//! Property test pinning the Subscribe stream's lossless contract:
//! `apply(old, diff(old, new)) == new`, byte for byte, over arbitrary
//! state trees. The watcher's mirror correctness rests entirely on this —
//! a single lossy diff/apply pair would silently corrupt every standing
//! verdict downstream.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use mfv_mgmt::gnmi::{apply, diff, Telemetry, Update};
use serde_json::Value;

/// Arbitrary JSON state trees of bounded depth.
///
/// Numbers are integers or floats with a fractional part: the vendored
/// `Number` compares `F(2.0) == U(2)` (JSON semantics), so integral floats
/// would let `diff` legitimately skip a change whose *rendering* differs —
/// structural equality would hold but the byte-identity assertion would
/// not. Real telemetry never streams integral floats.
fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::from),
        any::<u32>().prop_map(|n| Value::from(n as u64)),
        (any::<i32>(), 1u32..1000)
            .prop_map(|(n, frac)| Value::from(n as f64 + frac as f64 / 1024.0)),
        "[a-z]{0,8}".prop_map(Value::from),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    prop_oneof![
        leaf,
        proptest::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::Array),
        proptest::collection::vec(("[a-z]{1,6}", arb_value(depth - 1)), 0..5)
            .prop_map(|kvs| { Value::Object(kvs.into_iter().collect()) }),
    ]
    .boxed()
}

/// An update no diff would make: a path over a small alphabet (so paths
/// overlap, repeat and run under leaves; sometimes empty, with stray
/// slashes), replaced with any tree or deleted.
fn arb_update() -> BoxedStrategy<Update> {
    let path = proptest::collection::vec("[ab/]{0,2}", 0..4).prop_map(|segs| segs.join("/"));
    (path, proptest::option::of(arb_value(2)))
        .prop_map(|(path, value)| Update { path, value })
        .boxed()
}

fn bytes(v: &Value) -> String {
    serde_json::to_string(v).expect("value serialises")
}

proptest! {
    // The tentpole invariant: a Subscribe stream reconstructs the new
    // snapshot exactly, starting from any old snapshot.
    #[test]
    fn apply_inverts_diff(old in arb_value(3), new in arb_value(3)) {
        let t_old = Telemetry::from_root(old);
        let t_new = Telemetry::from_root(new);
        let updates = diff(&t_old, &t_new);
        let rebuilt = apply(&t_old, &updates);
        prop_assert_eq!(bytes(rebuilt.root()), bytes(t_new.root()));
    }

    // The batch is canonical: strictly increasing by path (so one update
    // per path) and no path an ancestor of another, so its updates commute
    // and its byte layout depends on the two trees alone.
    #[test]
    fn diff_is_canonical(old in arb_value(3), new in arb_value(3)) {
        let updates = diff(&Telemetry::from_root(old), &Telemetry::from_root(new));
        for pair in updates.windows(2) {
            prop_assert!(pair[0].path < pair[1].path, "{} !< {}", pair[0].path, pair[1].path);
        }
        for a in &updates {
            for b in &updates {
                let below = b.path.strip_prefix(a.path.as_str());
                prop_assert!(
                    !below.is_some_and(|rest| rest.starts_with('/')),
                    "{} is an ancestor of {}", a.path, b.path
                );
            }
        }
    }

    // What the canonical order buys: the batch's updates commute, so
    // applying them in any order rebuilds the new snapshot byte for byte.
    #[test]
    fn canonicalize_preserves_apply(
        old in arb_value(3),
        new in arb_value(3),
        keys in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let t_old = Telemetry::from_root(old);
        let t_new = Telemetry::from_root(new);
        let mut shuffled: Vec<_> = diff(&t_old, &t_new).into_iter().enumerate().collect();
        shuffled.sort_by_key(|(i, _)| (keys[i % keys.len()], *i));
        let updates: Vec<_> = shuffled.into_iter().map(|(_, u)| u).collect();
        let rebuilt = apply(&t_old, &updates);
        prop_assert_eq!(bytes(rebuilt.root()), bytes(t_new.root()));
    }

    // Identical trees diff to nothing, whatever their shape.
    #[test]
    fn self_diff_is_empty(v in arb_value(3)) {
        let t = Telemetry::from_root(v);
        prop_assert!(diff(&t, &t).is_empty());
    }

    // Hostile batches, not canonical: overlapping and repeated paths,
    // deletes of absent ones, replacements under leaves. Applying one never
    // panics, and the tree it yields diffs and applies like any other.
    #[test]
    fn any_update_batch_applies(
        base in arb_value(2),
        updates in proptest::collection::vec(arb_update(), 0..8),
    ) {
        let base = Telemetry::from_root(base);
        let applied = apply(&base, &updates);
        let rebuilt = apply(&base, &diff(&base, &applied));
        prop_assert_eq!(bytes(rebuilt.root()), bytes(applied.root()));
    }
}
