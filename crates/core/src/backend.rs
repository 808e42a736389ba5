//! Dataplane backends: the two ways to get from configuration to a
//! verifiable dataplane.
//!
//! [`EmulationBackend`] is the paper's contribution — boot real vendor
//! control planes, converge, extract AFTs over the management plane, and
//! hand the result to verification. [`ModelBackend`] is the traditional
//! path — parse with a reference model and compute the dataplane from it.
//! Both produce the same [`Dataplane`] type, so every verification query
//! runs unchanged against either (the "drop-in backend" property of §4).

use std::collections::BTreeMap;
use std::fmt;

use mfv_dataplane::Dataplane;
use mfv_emulator::{ChaosPlan, Cluster, ConvergenceVerdict, Emulation, EmulationConfig};
use mfv_mgmt::Collector;
use mfv_model::CoverageReport;
use mfv_types::{ExtractionStatus, NodeId, SimDuration};
use mfv_vrouter::VendorProfile;

use crate::extract::extract_snapshot;
use crate::snapshot::Snapshot;

/// Why a backend could not produce a dataplane.
#[derive(Clone, Debug)]
pub struct BackendError(pub String);

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backend error: {}", self.0)
    }
}

impl std::error::Error for BackendError {}

/// Metadata about how the dataplane was produced.
#[derive(Clone, Debug, Default)]
pub struct BackendMeta {
    /// Did the backend reach a stable state?
    pub converged: bool,
    /// Emulation: infrastructure startup (pod scheduling + container boot).
    pub boot_time: Option<SimDuration>,
    /// Emulation: time from startup-complete to dataplane quiescence.
    pub convergence_time: Option<SimDuration>,
    /// Emulation: control-plane messages exchanged.
    pub messages: u64,
    /// Emulation: routing-process crashes observed.
    pub crashes: u64,
    /// Model: per-config coverage reports (unrecognised lines — E2).
    pub coverage: Vec<CoverageReport>,
    /// Emulation: how the run ended (converged / oscillating / timed out).
    pub verdict: Option<ConvergenceVerdict>,
    /// Emulation: fraction of nodes whose AFTs were actually extracted.
    pub extraction_coverage: Option<f64>,
    /// Emulation: per-node extraction provenance.
    pub extraction_status: BTreeMap<NodeId, ExtractionStatus>,
}

/// A produced dataplane plus its provenance.
#[derive(Clone, Debug)]
pub struct BackendResult {
    pub dataplane: Dataplane,
    pub meta: BackendMeta,
    /// The run's observability. Emulation: the engine's metrics, phases and
    /// journal ([`Emulation::export_obs`]) plus the extraction sweep's
    /// `mgmt.*` tallies and `extract` span. Model: empty.
    pub obs: mfv_obs::Obs,
}

/// Anything that can turn a snapshot into a dataplane.
pub trait Backend {
    fn name(&self) -> &'static str;
    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError>;
}

/// The model-free backend: control-plane emulation + AFT extraction.
#[derive(Clone, Debug)]
pub struct EmulationBackend {
    /// Cluster machines (e2-standard-32 each).
    pub cluster_machines: usize,
    /// Emulation seed (ordering jitter).
    pub seed: u64,
    /// Per-node vendor profile overrides (bug injection).
    pub profiles: BTreeMap<NodeId, VendorProfile>,
    /// Dataplane quiescence window.
    pub quiet_period: SimDuration,
    /// Simulated-time budget.
    pub max_sim_time: SimDuration,
    /// Restart crashed routing processes (watchdog). Disable to freeze the
    /// post-crash state for inspection.
    pub auto_restart: bool,
    /// Fault-injection schedule replayed during the run (empty = none).
    pub chaos: ChaosPlan,
    /// Management-plane collector (retry policy + simulated RPC failures).
    pub collector: Collector,
    /// Width of the fan-out over independent emulations: how many cut
    /// contexts [`crate::verify_link_cuts_detailed`] re-converges side by
    /// side (`0`, the default, means the host's parallelism). One emulation
    /// always runs on one thread. Never affects results, only wall time.
    pub threads: usize,
}

impl Default for EmulationBackend {
    fn default() -> Self {
        EmulationBackend {
            cluster_machines: 1,
            seed: 1,
            profiles: BTreeMap::new(),
            quiet_period: SimDuration::from_secs(12),
            max_sim_time: SimDuration::from_mins(120),
            auto_restart: true,
            chaos: ChaosPlan::default(),
            collector: Collector::default(),
            threads: 0,
        }
    }
}

impl EmulationBackend {
    pub fn with_seed(seed: u64) -> EmulationBackend {
        EmulationBackend {
            seed,
            ..Default::default()
        }
    }

    /// Runs the emulation and returns it alongside the report, for callers
    /// that want to keep poking at the live network (CLI, what-if).
    pub fn run(&self, snapshot: &Snapshot) -> Result<(Emulation, BackendMeta), BackendError> {
        let cfg = EmulationConfig {
            seed: self.seed,
            quiet_period: self.quiet_period,
            max_sim_time: self.max_sim_time,
            auto_restart_crashed: self.auto_restart,
            profile_overrides: self.profiles.clone(),
            inject_after_boot: true,
            chaos: self.chaos.clone(),
            ..Default::default()
        };
        let mut emu = Emulation::new(
            snapshot.topology.clone(),
            Cluster::of_size(self.cluster_machines),
            cfg,
        )
        .map_err(BackendError)?;
        let report = emu.run_until_converged();
        if let Some(first) = report.unschedulable.first() {
            return Err(BackendError(format!(
                "{} pods unschedulable on a {}-machine cluster (first: {})",
                report.unschedulable.len(),
                self.cluster_machines,
                first,
            )));
        }
        let meta = BackendMeta {
            converged: report.converged,
            boot_time: report
                .boot_complete_at
                .map(|t| t - mfv_types::SimTime::ZERO),
            convergence_time: report
                .boot_complete_at
                .map(|boot| report.converged_at.since(boot)),
            messages: report.messages_delivered,
            crashes: report.crashes,
            coverage: Vec::new(),
            verdict: Some(report.verdict.clone()),
            extraction_coverage: None,
            extraction_status: BTreeMap::new(),
        };
        Ok((emu, meta))
    }
}

impl Backend for EmulationBackend {
    fn name(&self) -> &'static str {
        "model-free (emulation)"
    }

    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError> {
        let (emu, mut meta) = self.run(snapshot)?;
        let mut obs = emu.export_obs();
        // The extraction step of §4.1: dump per-device AFTs through the
        // management plane and rebuild the network dataplane from them —
        // we deliberately do NOT shortcut via the emulator's internal state.
        // The emulation is handed over and torn down as it is read; a debug
        // build takes its dataplane's digest first.
        let internal = cfg!(debug_assertions).then(|| emu.dataplane().digest());
        let extracted = extract_snapshot(emu, &self.collector, None, &mut obs);
        if self.collector.failures.is_noop() && extracted.is_complete() {
            debug_assert_eq!(
                Some(extracted.dataplane.digest()),
                internal,
                "AFT round-trip must be lossless"
            );
        }
        meta.extraction_coverage = Some(extracted.coverage);
        meta.extraction_status = extracted.status;
        Ok(BackendResult {
            dataplane: extracted.dataplane,
            meta,
            obs,
        })
    }
}

/// The traditional backend: parse with the reference model, compute the
/// dataplane from the model.
#[derive(Clone, Debug, Default)]
pub struct ModelBackend;

impl Backend for ModelBackend {
    fn name(&self) -> &'static str {
        "model-based (baseline)"
    }

    fn compute(&self, snapshot: &Snapshot) -> Result<BackendResult, BackendError> {
        for node in &snapshot.topology.nodes {
            if node.vendor != mfv_config::Vendor::Ceos {
                return Err(BackendError(format!(
                    "the reference model has no parser for vendor '{}' (node {})",
                    node.vendor, node.name
                )));
            }
        }
        let configs: Vec<(NodeId, String)> = snapshot
            .topology
            .nodes
            .iter()
            .map(|n| (n.name.clone(), n.config_text.clone()))
            .collect();
        let (dataplane, coverage) =
            mfv_model::model_dataplane(&configs).map_err(|e| BackendError(e.to_string()))?;
        Ok(BackendResult {
            dataplane,
            meta: BackendMeta {
                converged: true,
                coverage,
                ..Default::default()
            },
            obs: mfv_obs::Obs::new(),
        })
    }
}
