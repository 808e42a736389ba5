//! What-if exploration over scenario contexts.
//!
//! §6 of the paper: checking invariants "in the face of any single link cut"
//! means one converged network per context; `any k link cuts` grows
//! combinatorially. This module enumerates cut contexts, boots and converges
//! the baseline once, and answers each context from a fork of it: clone the
//! converged emulation, take the cut wires out, re-converge what that
//! changed, extract against the baseline's snapshot (a router whose FIB
//! the cut did not move keeps its baseline node, and its analysis its
//! baseline view), and diff against the baseline (in parallel across OS
//! threads), each context recording what its phases cost. A cold boot of
//! `snapshot.without_links(cuts)` converges to the same dataplane; the
//! tests hold every fork to it.

use mfv_emulator::pool::run_indexed;
use mfv_emulator::Emulation;
use mfv_types::{IpSet, LinkId};
use mfv_verify::{
    deliverability_changes, differential_reachability_with, ClassCache, DiffFinding,
    ForwardingAnalysis,
};

use crate::backend::{BackendError, EmulationBackend};
use crate::extract::{extract_snapshot, ExtractedSnapshot};
use crate::snapshot::Snapshot;

/// All `k`-subsets of the snapshot's links — the context space for a
/// "tolerates any k cuts" question. Its size is C(#links, k); the
/// combinatorial growth is exactly the cost §6 warns about.
pub fn link_cut_contexts(snapshot: &Snapshot, k: usize) -> Vec<Vec<LinkId>> {
    let links = snapshot.link_ids();
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(
        links: &[LinkId],
        start: usize,
        k: usize,
        current: &mut Vec<LinkId>,
        out: &mut Vec<Vec<LinkId>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for (i, link) in links.iter().enumerate().skip(start) {
            current.push(link.clone());
            rec(links, i + 1, k, current, out);
            current.pop();
        }
    }
    rec(&links, 0, k, &mut current, &mut out);
    out
}

/// Number of contexts for a k-cut sweep without materialising them.
pub fn link_cut_context_count(n_links: usize, k: usize) -> u128 {
    if k > n_links {
        return 0;
    }
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n_links - i) as u128 / (i + 1) as u128;
    }
    acc
}

/// The verdict for one cut context, exact for a seed at any fan-out width.
#[derive(Clone, Debug)]
pub struct CutVerdict {
    pub cuts: Vec<LinkId>,
    /// Differential findings against the baseline (path changes included).
    pub findings: Vec<DiffFinding>,
    /// Findings where deliverability changed — the outage signal.
    pub lost_reachability: usize,
    /// Work items the fork processed to re-converge after the cut.
    pub events_after_fork: u64,
    /// SPF runs the fork's routers made to re-converge.
    pub spf_runs: u64,
    /// Reach entries those runs' route passes merged.
    pub prefix_evaluations: u64,
    /// Routers whose FIB differs from the baseline's.
    pub fibs_moved: usize,
    /// Routers extraction read: those not at their baseline FIB epoch.
    pub routers_read: usize,
}

impl CutVerdict {
    /// Did the network keep full reachability under this cut set?
    pub fn survives(&self) -> bool {
        self.lost_reachability == 0
    }
}

/// A context's phases in the order it runs them, space-separated: the
/// hand-over (extraction tears the fork down as it reads it), and the diff,
/// whose first lookup builds the context's class index.
pub const PHASES: &str = "clone remove_wire run_until_converged extract analysis diff";

/// What one context cost, a [`Lap`] per phase of [`PHASES`].
pub type ContextCost = [Lap; 6];

/// One phase's wall nanoseconds and the allocations it made on the
/// context's thread (0 unless the binary registers [`mfv_obs::alloc::Accountant`]).
#[derive(Clone, Copy, Default, Debug)]
pub struct Lap {
    pub nanos: u64,
    pub allocs: u64,
}

/// Why one context of a sweep failed. A failure is confined to its context;
/// the rest of the sweep still completes.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The backend could not produce a dataplane for this context.
    Backend(BackendError),
    /// The worker panicked while processing this context (or the pool
    /// lost it); the pool's message, which says which.
    Panic(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Backend(e) => write!(f, "{e}"),
            SweepError::Panic(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Outcome of a full cut sweep: one verdict (or confined failure) per
/// context, in context order, plus class-cache effectiveness counters.
#[derive(Debug)]
pub struct SweepReport {
    pub verdicts: Vec<Result<CutVerdict, SweepError>>,
    /// What each context cost, in context order (zero for a failed one):
    /// wall readings, beside the verdicts as `Obs::wall` is beside a dump.
    pub costs: Vec<ContextCost>,
    /// `(hits, misses)` of node classes in the shared [`ClassCache`] across
    /// the baseline and every variant: a cut rarely moves a prefix.
    pub class_cache: (usize, usize),
    /// `(hits, misses)` of index shapes in the same cache: a variant whose
    /// cuts moved no prefix and no owned address reuses the baseline's.
    pub shape_cache: (usize, usize),
    /// Work items the one cold boot processed to converge the baseline;
    /// each verdict's `events_after_fork` is what its context added.
    pub baseline_events: u64,
}

/// Boots and converges the baseline once, then answers every cut context
/// from a fork of it: clone the converged emulation, remove the cut wires
/// (ports stay up — [`mfv_emulator::Emulation::remove_wire`]), re-converge,
/// extract over the management plane, diff against the baseline dataplane.
/// Contexts fan out across `backend.threads` OS threads (`0` = the host's
/// parallelism), as the paper proposes ("running emulation for each new
/// context in parallel"); each times its own phases.
///
/// The baseline [`ForwardingAnalysis`] is built once and shared by every
/// context, and a [`ClassCache`] keyed on prefix layouts lets each variant
/// reuse the baseline's classes and index shape where its cuts moved no
/// prefix. One failing or panicking context does not abort the sweep.
pub fn verify_link_cuts_detailed(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    contexts: Vec<Vec<LinkId>>,
    scope: Option<&IpSet>,
) -> Result<SweepReport, BackendError> {
    let (converged, _) = backend.run(snapshot)?;
    let baseline = extract(converged.clone(), backend, None);
    let cache = ClassCache::new();
    let fa_baseline = ForwardingAnalysis::with_cache(&baseline.dataplane, &cache);

    // One context per job on the shared pool: results come back in
    // context order, and a panic is confined to its context.
    let outcomes = run_indexed(backend.threads, contexts.len(), |i| {
        let cuts = contexts
            .get(i)
            .ok_or_else(|| BackendError(format!("no cut context {i}")))?;
        let (after, work, [clone, remove, run, extracted]) =
            cut_from_fork(&converged, &baseline, backend, cuts);
        let (fa_after, analysis) =
            lap(|| ForwardingAnalysis::derive(&after.dataplane, &fa_baseline));
        let (findings, diff) =
            lap(|| differential_reachability_with(&fa_baseline, &fa_after, scope));
        let lost_reachability = deliverability_changes(&findings)
            .into_iter()
            .filter(|f| f.before.is_delivered())
            .count();
        let [events_after_fork, spf_runs, prefix_evaluations] = work;
        let verdict = CutVerdict {
            cuts: cuts.clone(),
            findings,
            lost_reachability,
            events_after_fork,
            spf_runs,
            prefix_evaluations,
            fibs_moved: fibs_moved(&fa_baseline, &fa_after),
            routers_read: after.dataplane.nodes.len() - after.kept,
        };
        Ok((verdict, [clone, remove, run, extracted, analysis, diff]))
    });
    let (verdicts, costs) = outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(Ok((verdict, cost))) => (Ok(verdict), cost),
            Ok(Err(e)) => (Err(SweepError::Backend(e)), ContextCost::default()),
            Err(message) => (Err(SweepError::Panic(message)), ContextCost::default()),
        })
        .unzip();

    Ok(SweepReport {
        verdicts,
        costs,
        class_cache: cache.stats(),
        shape_cache: cache.shape_stats(),
        baseline_events: converged.events_processed(),
    })
}

/// Runs one phase of a context and times it.
fn lap<T>(phase: impl FnOnce() -> T) -> (T, Lap) {
    let (timer, made) = (mfv_obs::WallTimer::start(), mfv_obs::alloc::made());
    let out = phase();
    let nanos = timer.elapsed_nanos();
    let allocs = (mfv_obs::alloc::made() - made) as u64;
    (out, Lap { nanos, allocs })
}

/// One cut context's first four phases: a fork of the converged network
/// with the cut wires taken out, re-converged. Returns its snapshot,
/// extracted against `baseline`'s, the [`work`] it added and the phases'
/// laps; the fork — a whole network's state — is gone before the caller's
/// analysis allocates.
fn cut_from_fork(
    converged: &Emulation,
    baseline: &ExtractedSnapshot,
    backend: &EmulationBackend,
    cuts: &[LinkId],
) -> (ExtractedSnapshot, [u64; 3], [Lap; 4]) {
    let (mut fork, clone) = lap(|| converged.clone());
    let ((), remove) = lap(|| cuts.iter().for_each(|link| fork.remove_wire(link)));
    let (_, run) = lap(|| fork.run_until_converged());
    let [events, runs, merged] = work(&fork, baseline);
    let [events0, runs0, merged0] = work(converged, baseline);
    let added = [events - events0, runs - runs0, merged - merged0];
    let (after, extracted) = lap(|| extract(fork, backend, Some(baseline)));
    (after, added, [clone, remove, run, extracted])
}

/// The work `emu` has done: events processed, and over the routers of
/// `baseline` the SPF runs and the reach entries their route passes merged.
fn work(emu: &Emulation, baseline: &ExtractedSnapshot) -> [u64; 3] {
    let routers = baseline.status.keys().filter_map(|name| emu.router(name));
    let start = [emu.events_processed(), 0, 0];
    routers.fold(start, |[events, runs, merged], r| {
        let isis = r.isis_engine().map_or(0, |i| i.prefix_evaluations());
        [events, runs + r.spf_runs, merged + isis]
    })
}

/// The network as the management plane reports it (§4.1's extraction
/// step), which consumes it: the baseline's fork and every context's.
fn extract(
    emu: Emulation,
    backend: &EmulationBackend,
    parent: Option<&ExtractedSnapshot>,
) -> ExtractedSnapshot {
    extract_snapshot(emu, &backend.collector, parent, &mut mfv_obs::Obs::new())
}

/// Nodes of the baseline whose FIB digest is not what the variant has.
fn fibs_moved(before: &ForwardingAnalysis, after: &ForwardingAnalysis) -> usize {
    before
        .nodes()
        .iter()
        .filter(|(name, b)| after.nodes().get(*name).map(|a| a.fib_digest) != Some(b.fib_digest))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::scenarios;

    /// The oracle: each of `contexts`, answered from a fork of `snapshot`,
    /// against a cold boot of the topology without those links — same
    /// extracted dataplane, same findings element by element.
    fn assert_fork_equals_cold_boot(snapshot: &Snapshot, contexts: Vec<Vec<LinkId>>) {
        let backend = EmulationBackend::default();
        let (converged, _) = backend.run(snapshot).unwrap();
        let baseline = extract(converged.clone(), &backend, None);
        let cold_baseline = backend.compute(snapshot).unwrap().dataplane;
        let fa_baseline = ForwardingAnalysis::new(&cold_baseline);
        let report = verify_link_cuts_detailed(snapshot, &backend, contexts.clone(), None).unwrap();
        assert_eq!(report.verdicts.len(), contexts.len());
        for (cuts, verdict) in contexts.iter().zip(&report.verdicts) {
            let cold = backend
                .compute(&snapshot.without_links(cuts))
                .unwrap()
                .dataplane;
            let (warm, ..) = cut_from_fork(&converged, &baseline, &backend, cuts);
            let warm = warm.dataplane;
            assert_eq!(
                warm.digest(),
                cold.digest(),
                "{}: fork and cold boot disagree on the dataplane without {cuts:?}",
                snapshot.name
            );
            assert_eq!(warm.links, cold.links, "{}: {cuts:?}", snapshot.name);
            let want =
                differential_reachability_with(&fa_baseline, &ForwardingAnalysis::new(&cold), None);
            let verdict = verdict.as_ref().unwrap();
            assert_eq!(&verdict.cuts, cuts);
            assert_eq!(verdict.findings, want, "{}: {cuts:?}", snapshot.name);
        }
    }

    // No topology has turned up where fork and cold boot legitimately
    // differ (an arrival-order BGP tie-break, the paper's §6 / A1); one
    // that does gets a test here that names it, and the sweep reports the
    // difference as a finding.

    #[test]
    fn six_node_cuts_from_a_fork_equal_the_cold_boot() {
        let chain = scenarios::six_node();
        assert_fork_equals_cold_boot(&chain, link_cut_contexts(&chain, 1));
        // Every pair of cuts partitions the chain twice over.
        assert_fork_equals_cold_boot(&chain, link_cut_contexts(&chain, 2));
    }

    #[test]
    fn grid30_single_cuts_from_a_fork_equal_the_cold_boot() {
        let grid = scenarios::isis_grid(6, 5);
        assert_fork_equals_cold_boot(&grid, link_cut_contexts(&grid, 1));
    }

    /// Two cuts at a corner of the 3×3 grid isolate its router.
    #[test]
    fn grid9_double_cuts_from_a_fork_equal_the_cold_boot() {
        let grid = scenarios::isis_grid(3, 3);
        assert_fork_equals_cold_boot(&grid, link_cut_contexts(&grid, 2));
    }

    /// Mixed vendors, an iBGP mesh and external feeds over IS-IS.
    #[test]
    fn wan12_single_cuts_from_a_fork_equal_the_cold_boot() {
        let wan = scenarios::production_wan(12, 3, true, 20);
        assert_fork_equals_cold_boot(&wan, link_cut_contexts(&wan, 1));
    }

    /// BGP at item 16's reduced scale: reflection, policed redistribution
    /// and the eBGP ring. Every single cut, the four ring cuts among them
    /// (their sessions stay up in fork and cold boot alike, item 15); the
    /// 24 contexts take about 3 s in a debug build.
    #[test]
    fn wan24_single_cuts_from_a_fork_equal_the_cold_boot() {
        let wan = scenarios::regional_wan(4, 6);
        assert_fork_equals_cold_boot(&wan, link_cut_contexts(&wan, 1));
    }

    #[test]
    fn the_empty_context_finds_nothing_and_sweeps_repeat() {
        let s = scenarios::six_node();
        let backend = EmulationBackend::default();
        let mut contexts = link_cut_contexts(&s, 0);
        contexts.extend(link_cut_contexts(&s, 1));
        let sweep = || verify_link_cuts_detailed(&s, &backend, contexts.clone(), None).unwrap();
        let (first, second) = (sweep(), sweep());
        let untouched = first.verdicts[0].as_ref().unwrap();
        assert!(untouched.cuts.is_empty() && untouched.findings.is_empty());
        assert_eq!((untouched.events_after_fork, untouched.fibs_moved), (0, 0));
        assert_eq!((untouched.spf_runs, untouched.prefix_evaluations), (0, 0));
        // Everything but the wall readings repeats.
        let repeats = |r: &SweepReport| {
            let counts = (r.baseline_events, r.class_cache, r.shape_cache);
            format!("{:?}", (counts, &r.verdicts))
        };
        assert_eq!(repeats(&first), repeats(&second));
        assert_eq!(first.costs.len(), contexts.len());
    }

    #[test]
    fn context_enumeration_counts() {
        let s = scenarios::six_node(); // 5 links
        assert_eq!(link_cut_contexts(&s, 1).len(), 5);
        assert_eq!(link_cut_contexts(&s, 2).len(), 10);
        assert_eq!(link_cut_contexts(&s, 0).len(), 1);
        assert_eq!(link_cut_context_count(5, 1), 5);
        assert_eq!(link_cut_context_count(5, 2), 10);
        assert_eq!(link_cut_context_count(5, 5), 1);
        assert_eq!(link_cut_context_count(5, 6), 0);
        // The exponential wall the paper worries about:
        assert_eq!(link_cut_context_count(200, 3), 1_313_400);
    }

    #[test]
    fn contexts_are_distinct_subsets() {
        let s = scenarios::six_node();
        let contexts = link_cut_contexts(&s, 2);
        let mut seen = std::collections::BTreeSet::new();
        for c in &contexts {
            assert_eq!(c.len(), 2);
            assert!(seen.insert(c.clone()), "duplicate context {c:?}");
        }
    }

    /// Regression: the point of the class cache is that a 1-link-cut sweep
    /// reuses the per-node classes of nodes a cut did not perturb, instead
    /// of recomputing every node from scratch. The six-node chain is a
    /// worst case — a single cut reconverges most downstream FIBs — yet the
    /// sweep must still recover at least a full baseline's worth of node
    /// analyses from the cache (measured: 29 hits / 7 misses across the
    /// 5-context sweep: a cut moves next hops, and layouts only where it
    /// partitions the chain).
    #[test]
    fn single_cut_sweep_reuses_baseline_classes() {
        let s = scenarios::six_node();
        let backend = EmulationBackend::default();
        let contexts = link_cut_contexts(&s, 1);
        let n_contexts = contexts.len();
        let n_nodes = backend.compute(&s).unwrap().dataplane.nodes.len();
        let report = verify_link_cuts_detailed(&s, &backend, contexts, None).unwrap();
        assert!(report.verdicts.iter().all(|r| r.is_ok()));
        let (hits, misses) = report.class_cache;
        let total = (n_contexts + 1) * n_nodes;
        assert_eq!(hits + misses, total, "every node analysed exactly once");
        assert!(
            hits >= n_nodes,
            "sweep must reuse at least the baseline's node classes \
             (hits {hits}, misses {misses})"
        );
    }

    /// A single cut of the grid moves next hops but no prefix (the cut
    /// wire's ports stay up), so every context reuses the baseline's node
    /// classes and its index shape: a context's index build is its
    /// branches and fates. Every grid router carries the same prefixes, so
    /// the baseline's first router is the one node-class miss.
    #[test]
    fn a_single_cut_sweep_reuses_the_baseline_shape() {
        let s = scenarios::isis_grid(6, 5);
        let contexts = link_cut_contexts(&s, 1);
        assert_eq!(contexts.len(), 49);
        let report =
            verify_link_cuts_detailed(&s, &EmulationBackend::default(), contexts, None).unwrap();
        assert!(report.verdicts.iter().all(|r| r.is_ok()));
        // Extraction re-reads exactly the routers whose FIB the cut moved:
        // 10, 12, 15 or 18 of the 30.
        for verdict in report.verdicts.iter().flatten() {
            assert_eq!(
                verdict.routers_read, verdict.fibs_moved,
                "{:?}",
                verdict.cuts
            );
            assert!([10, 12, 15, 18].contains(&verdict.routers_read));
        }
        assert_eq!(report.class_cache, (50 * 30 - 1, 1), "one prefix layout");
        assert_eq!(
            report.shape_cache,
            (49, 1),
            "only the baseline's shape misses"
        );
    }
}
