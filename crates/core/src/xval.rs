//! E7 — cross-validating `mfv-conflint` against emulation.
//!
//! For each misconfiguration family the seeded injector can plant
//! ([`mfv_config::SeededMisconfig`]), this module perturbs the
//! conflint-clean base network ([`crate::scenarios::conflint_base`]), then
//! checks that the two verification tiers agree:
//!
//! - the static pass flags the planted fault — right rule, right device —
//!   in milliseconds, and
//! - the emulator, booted on the same corrupted configs, exhibits the
//!   corresponding *runtime* symptom: a session that never establishes, a
//!   prefix that silently vanishes, an infrastructure subnet that leaks.
//!
//! Agreement in both directions is what makes the cheap tier trustworthy:
//! a finding predicts a symptom, and the symptom confirms the finding.

use mfv_config::{inject_misconfig, InjectError, InjectionReport, SeededMisconfig};
use mfv_routing::SessionState;
use mfv_types::NodeId;

use crate::backend::EmulationBackend;
use crate::scenarios;
use crate::snapshot::Snapshot;

/// The two-tier verdict for one planted misconfiguration.
#[derive(Clone, Debug)]
pub struct XvalOutcome {
    /// What was planted, where, and what to expect.
    pub report: InjectionReport,
    /// conflint emitted the expected rule against the expected device.
    pub flagged: bool,
    /// Total unsuppressed findings the static pass produced.
    pub finding_count: usize,
    /// Observed state of the watched session, if any (`Debug` form;
    /// `"NoSession"` when the victim has no such peer at all).
    pub session_state: Option<String>,
    /// The watched session behaved as the injection report predicted.
    pub session_ok: bool,
    /// Every absence/presence expectation held on the observed FIBs.
    pub fib_ok: bool,
    /// Per-prefix evidence lines for the experiment write-up.
    pub fib_evidence: Vec<String>,
}

impl XvalOutcome {
    /// Both tiers agree: the static finding and the runtime symptom.
    pub fn validated(&self) -> bool {
        self.flagged && self.session_ok && self.fib_ok
    }
}

/// Plants `kind` into the E7 base network, lints the result, emulates it,
/// and compares the two verdicts.
pub fn cross_validate(kind: SeededMisconfig, seed: u64) -> Result<XvalOutcome, InjectError> {
    let mut configs = scenarios::conflint_base_configs();
    let report = inject_misconfig(kind, &mut configs, seed)?;
    let name = format!("e7-{}", report.rule.to_lowercase());
    let topo = scenarios::conflint_base_topology(&name, &configs);

    let analysis = mfv_conflint::analyze(&topo).map_err(|e| InjectError(e.to_string()))?;
    let flagged = analysis
        .findings
        .iter()
        .any(|f| f.rule.as_str() == report.rule && f.device == report.device);
    let finding_count = analysis.findings.len();

    // Boot the corrupted network: E7 emulates known-bad configs on purpose
    // to observe their symptoms.
    let be = EmulationBackend::with_seed(seed.wrapping_add(1));
    let snap = Snapshot::new(name, topo);
    let (emu, _meta) = be.run(&snap).map_err(|e| InjectError(e.0))?;

    let (session_state, session_ok) = match &report.watch_session {
        Some((dev, peer)) => {
            let st = emu
                .router(&NodeId::new(dev.clone()))
                .and_then(|r| r.bgp_engine())
                .and_then(|b| b.session_state(*peer));
            let established = matches!(st, Some(SessionState::Established));
            (
                Some(
                    st.map(|s| format!("{s:?}"))
                        .unwrap_or_else(|| "NoSession".to_string()),
                ),
                established == report.session_should_establish,
            )
        }
        None => (None, true),
    };

    let dp = emu.dataplane();
    let mut fib_ok = true;
    let mut fib_evidence = Vec::new();
    for obs in &report.observe_on {
        let Some(node) = dp.nodes.get(&NodeId::new(obs.clone())) else {
            fib_ok = false;
            fib_evidence.push(format!("{obs}: no dataplane node"));
            continue;
        };
        let fib = node.fib();
        for p in &report.expect_absent {
            let present = fib.get(p).is_some();
            fib_ok &= !present;
            fib_evidence.push(format!(
                "{obs}: {p} {}",
                if present {
                    "PRESENT (expected absent)"
                } else {
                    "absent as expected"
                }
            ));
        }
        for p in &report.expect_present {
            let present = fib.get(p).is_some();
            fib_ok &= present;
            fib_evidence.push(format!(
                "{obs}: {p} {}",
                if present {
                    "present as expected"
                } else {
                    "MISSING (expected leak)"
                }
            ));
        }
    }

    Ok(XvalOutcome {
        report,
        flagged,
        finding_count,
        session_state,
        session_ok,
        fib_ok,
        fib_evidence,
    })
}
