//! The explicitly-marked wall-time section.
//!
//! This module is the **one** place in the workspace allowed to read the
//! wall clock. Every other crate that wants wall timings goes through
//! [`WallTimer`], and everything measured lands in a [`WallSection`] that
//! serializes under the `"wall"` JSON key — which `Obs::to_json(false)`
//! omits, so wall readings can never leak into determinism comparisons.
//! Rule D2 bans `Instant::now`/`SystemTime` everywhere else under
//! `crates/`; the `#[expect]` on [`WallTimer::start`] is the sanctioned
//! exception.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;
use crate::metrics::Metrics;

/// A started wall-clock stopwatch.
#[derive(Clone, Copy, Debug)]
pub struct WallTimer {
    start: Instant,
}

impl WallTimer {
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: this module IS the wall-time section — readings stay in WallSection and are serialized under the separate wall key that determinism diffs exclude"
    )]
    pub fn start() -> WallTimer {
        WallTimer {
            start: Instant::now(),
        }
    }

    /// Microseconds since `start()`, saturating at `u64::MAX`.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds since `start()`, saturating at `u64::MAX`: for sections
    /// entered a million times a run and shorter than a microsecond each,
    /// summed by the caller and converted once.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Wall-clock observations: per-phase elapsed time plus any wall-derived
/// metrics (e.g. per-query verify latency histograms). Excluded from
/// determinism comparisons by construction.
#[derive(Clone, Default, Debug)]
pub struct WallSection {
    phases_us: BTreeMap<&'static str, u64>,
    /// Wall-derived counters/histograms (latencies in microseconds).
    pub metrics: Metrics,
}

impl WallSection {
    pub fn new() -> WallSection {
        WallSection::default()
    }

    /// Adds elapsed microseconds to a phase (accumulates across calls, so
    /// a phase entered repeatedly sums).
    pub fn add_phase(&mut self, phase: &'static str, micros: u64) {
        let slot = self.phases_us.entry(phase).or_insert(0);
        *slot = slot.saturating_add(micros);
    }

    /// Times `f`, charging its elapsed wall time to `phase`.
    pub fn time_phase<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let timer = WallTimer::start();
        let out = f();
        self.add_phase(phase, timer.elapsed_micros());
        out
    }

    pub fn phase_micros(&self, phase: &str) -> Option<u64> {
        self.phases_us.get(phase).copied()
    }

    pub fn merge(&mut self, other: &WallSection) {
        for (phase, us) in &other.phases_us {
            self.add_phase(phase, *us);
        }
        self.metrics.merge(&other.metrics);
    }

    pub(crate) fn write_json(&self, out: &mut String, indent: usize) {
        json::key_into(out, indent, "wall");
        out.push_str("{\n");
        json::key_into(out, indent + 1, "phases_us");
        out.push('{');
        for (i, (phase, us)) in self.phases_us.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            json::key_into(out, indent + 2, phase);
            out.push_str(&us.to_string());
        }
        if !self.phases_us.is_empty() {
            out.push('\n');
            json::indent_into(out, indent + 1);
        }
        out.push_str("},\n");
        self.metrics.write_json(out, indent + 1);
        out.push('\n');
        json::indent_into(out, indent);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_something_nonnegative() {
        let t = WallTimer::start();
        // No sleeping in tests: just check monotonicity of the API.
        let a = t.elapsed_micros();
        let b = t.elapsed_micros();
        assert!(b >= a);
    }

    #[test]
    fn phases_accumulate() {
        let mut w = WallSection::new();
        w.add_phase("extract", 10);
        w.add_phase("extract", 5);
        assert_eq!(w.phase_micros("extract"), Some(15));
        let out = w.time_phase("verify", || 42);
        assert_eq!(out, 42);
        assert!(w.phase_micros("verify").is_some());
    }
}
