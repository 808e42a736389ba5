//! What-if exploration over scenario contexts.
//!
//! §6 of the paper: checking invariants "in the face of any single link cut"
//! means one emulation per context; `any k link cuts` grows combinatorially.
//! This module enumerates cut contexts, runs the backend per context (in
//! parallel across OS threads), and reports the differential impact of each
//! context against the baseline snapshot.

use mfv_emulator::pool::run_indexed;
use mfv_types::{IpSet, LinkId};
use mfv_verify::{
    deliverability_changes, differential_reachability_with, ClassCache, DiffFinding,
    ForwardingAnalysis,
};

use crate::backend::{Backend, BackendError, EmulationBackend};
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

/// The verdict for one cut context.
#[derive(Clone, Debug)]
pub struct CutVerdict {
    pub cuts: Vec<LinkId>,
    /// Differential findings against the baseline (path changes included).
    pub findings: Vec<DiffFinding>,
    /// Findings where deliverability changed — the outage signal.
    pub lost_reachability: usize,
}

impl CutVerdict {
    /// Did the network keep full reachability under this cut set?
    pub fn survives(&self) -> bool {
        self.lost_reachability == 0
    }
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
    /// `(hits, misses)` of the shared [`ClassCache`] across the baseline
    /// and every variant analysis. Variants differ from the baseline at
    /// only the nodes adjacent to the cuts, so hits dominate.
    pub class_cache: (usize, usize),
}

/// Runs one emulation per cut context and diffs each against the baseline
/// dataplane. Contexts fan out across OS threads, as the paper proposes
/// ("running emulation for each new context in parallel").
///
/// The baseline [`ForwardingAnalysis`] is built once and shared by every
/// context, and a [`ClassCache`] keyed on per-node FIB digests lets each
/// variant reuse the match classes of nodes its cuts did not touch. One
/// failing or panicking context does not abort the sweep.
pub fn verify_link_cuts_detailed(
    snapshot: &Snapshot,
    backend: &EmulationBackend,
    contexts: Vec<Vec<LinkId>>,
    scope: Option<&IpSet>,
) -> Result<SweepReport, BackendError> {
    let baseline = backend.compute(snapshot)?;
    let cache = ClassCache::new();
    let fa_baseline = ForwardingAnalysis::with_cache(&baseline.dataplane, &cache);

    // One context per job on the shared pool: results come back in
    // context order, and a panic is confined to its context.
    let verdicts = run_indexed(0, contexts.len(), |i| {
        let cuts = contexts
            .get(i)
            .ok_or_else(|| BackendError(format!("no cut context {i}")))?;
        let result = backend.compute(&snapshot.without_links(cuts))?;
        let fa_after = ForwardingAnalysis::with_cache(&result.dataplane, &cache);
        let findings = differential_reachability_with(&fa_baseline, &fa_after, scope);
        let lost_reachability = deliverability_changes(&findings)
            .into_iter()
            .filter(|f| f.before.is_delivered())
            .count();
        Ok(CutVerdict {
            cuts: cuts.clone(),
            findings,
            lost_reachability,
        })
    })
    .into_iter()
    .map(|outcome| match outcome {
        Ok(verdict) => verdict.map_err(SweepError::Backend),
        Err(message) => Err(SweepError::Panic(message)),
    })
    .collect();

    Ok(SweepReport {
        verdicts,
        class_cache: cache.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

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
    /// analyses from the cache (measured: 12 hits / 24 misses across the
    /// 5-context sweep, i.e. every baseline class reused twice on average).
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
}
