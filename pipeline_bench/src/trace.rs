//! Spans recorded by the harness around its calls into each layer. Spans
//! stay in memory while the workload runs and are written out when it ends.
//! With tracing off a span only reads the clock, so the same workload code
//! serves the untraced and the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name`, child of the innermost open span.
    /// Returns the result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            self.spans[id].end_ns = end_ns;
            self.open.pop();
        }
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Adds spans measured on other threads (against `now_ns` of this
    /// tracer) as children of the innermost open span.
    pub fn adopt(&mut self, name: &'static str, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.spans
            .extend(intervals.iter().map(|&(start_ns, end_ns)| Span {
                name,
                start_ns,
                end_ns,
                parent,
            }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span: its duration minus the part of that interval
    /// its children cover (children on parallel threads may overlap, so
    /// their intervals are merged first).
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut edge) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(edge), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self seconds per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns) as f64 / 1e9;
            e.1 += self_ns as f64 / 1e9;
            e.2 += 1;
        }
        out
    }

    /// The trace as JSON: every span, then the per-name totals.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
            ));
        }
        out.push_str("\n],\"by_name\":{\n");
        for (i, (name, (total, own, n))) in self.by_name().iter().enumerate() {
            out.push_str(&format!(
                "{}\"{name}\":{{\"count\":{n},\"total_s\":{total},\"self_s\":{own}}}",
                if i == 0 { "" } else { ",\n" },
            ));
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span {
            name: "root",
            start_ns: 0,
            end_ns: 100,
            parent: None,
        });
        t.open.push(0);
        // Two overlapping children cover 10..60, a third 70..80.
        t.adopt("kid", &[(10, 50), (30, 60), (70, 80)]);
        let own = t.self_ns();
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("x", |t| t.span("y", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 0);
    }
}
