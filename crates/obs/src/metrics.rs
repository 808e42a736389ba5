//! The metrics registry: counters, gauges, and log2-bucket histograms
//! keyed by `&'static str` names.
//!
//! BTreeMap-backed on purpose: dump order must be stable across runs and
//! platforms without a sort pass (and the D1 lint rule bans hash maps here
//! anyway). Hot paths never touch the registry per event — they keep plain
//! field counters or a local [`Hist`] and flush at collection points.

use std::collections::BTreeMap;

use crate::json;

/// A fixed-size log2-bucket histogram: bucket `i` counts values whose bit
/// length is `i` (bucket 0 holds exact zeros; the last bucket saturates).
/// Recording is two adds, a compare, and an array bump — cheap enough for
/// the engine's per-iteration wake-set depth.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    buckets: [u64; Hist::BUCKETS],
}

impl Hist {
    /// Bit lengths 0..=32 cover every value this codebase records (depths,
    /// counts, microseconds); larger values saturate into the last bucket.
    pub const BUCKETS: usize = 33;

    pub fn new() -> Hist {
        Hist::default()
    }

    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
        let bit_len = (u64::BITS - v.leading_zeros()) as usize;
        let idx = bit_len.min(Self::BUCKETS - 1);
        if let Some(slot) = self.buckets.get_mut(idx) {
            *slot += 1;
        }
    }

    /// Folds another histogram into this one.
    pub fn add(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty buckets as `(bit_length, count)` pairs in ascending order.
    fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
            self.count, self.sum, self.max
        ));
        for (i, (bit_len, count)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{bit_len}, {count}]"));
        }
        out.push_str("]}");
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; Hist::BUCKETS],
        }
    }
}

/// The registry. All three maps iterate in name order, so JSON output is
/// byte-stable for a given set of recordings.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to the named counter.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        let slot = self.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(by);
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// Records one observation into the named histogram.
    pub fn record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Folds a locally-aggregated histogram into the named one (the
    /// flush-at-collection-point path).
    pub fn merge_hist(&mut self, name: &'static str, h: &Hist) {
        if !h.is_empty() {
            self.hists.entry(name).or_default().add(h);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Folds another registry into this one: counters and histograms add,
    /// gauges take the other's (latest) values.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name, *v);
        }
        for (name, h) in &other.hists {
            self.merge_hist(name, h);
        }
    }

    pub(crate) fn write_json(&self, out: &mut String, indent: usize) {
        json::key_into(out, indent, "counters");
        out.push('{');
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            json::key_into(out, indent + 1, name);
            out.push_str(&v.to_string());
        }
        if !self.counters.is_empty() {
            out.push('\n');
            json::indent_into(out, indent);
        }
        out.push_str("},\n");

        json::key_into(out, indent, "gauges");
        out.push('{');
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            json::key_into(out, indent + 1, name);
            out.push_str(&v.to_string());
        }
        if !self.gauges.is_empty() {
            out.push('\n');
            json::indent_into(out, indent);
        }
        out.push_str("},\n");

        json::key_into(out, indent, "histograms");
        out.push('{');
        for (i, (name, h)) in self.hists.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            json::key_into(out, indent + 1, name);
            h.write_json(out);
        }
        if !self.hists.is_empty() {
            out.push('\n');
            json::indent_into(out, indent);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Metrics {
        fn gauge_value(&self, name: &str) -> Option<i64> {
            self.gauges.get(name).copied()
        }
    }

    #[test]
    fn hist_buckets_by_bit_length() {
        let mut h = Hist::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(u64::MAX); // saturates into the last bucket
        assert_eq!(h.count, 6);
        assert_eq!(h.max, u64::MAX);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (2, 2), (11, 1), (Hist::BUCKETS - 1, 1)]
        );
    }

    #[test]
    fn hist_add_folds() {
        let mut a = Hist::new();
        a.record(5);
        let mut b = Hist::new();
        b.record(7);
        b.record(100);
        a.add(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 112);
        assert_eq!(a.max, 100);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut m = Metrics::new();
        m.inc("a.b", 2);
        m.inc("a.b", 3);
        m.gauge("g", 7);
        m.gauge("g", -1);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge_value("g"), Some(-1));
    }

    #[test]
    fn json_orders_names_lexicographically() {
        let mut m = Metrics::new();
        m.inc("z.last", 1);
        m.inc("a.first", 1);
        let mut s = String::new();
        m.write_json(&mut s, 0);
        let a = s.find("a.first").expect("a.first present");
        let z = s.find("z.last").expect("z.last present");
        assert!(a < z);
    }
}
