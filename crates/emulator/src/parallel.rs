//! Multi-seed parallel emulation.
//!
//! §6 of the paper proposes running "multiple [emulations] in parallel to
//! produce multiple resulting dataplanes" as the answer to non-determinism:
//! message-arrival order can legitimately change BGP tie-breaking, so one
//! run yields one sample of the converged-state distribution. This module
//! fans runs out across OS threads (one emulation per seed) on the shared
//! [`crate::pool`] plumbing and collects the dataplanes for differential
//! comparison.

use std::collections::BTreeMap;

use mfv_dataplane::Dataplane;

use crate::cluster::Cluster;
use crate::engine::{Emulation, EmulationConfig, RunReport};
use crate::pool::run_indexed;
use crate::topology::Topology;

/// Result of one seeded run.
#[derive(Clone, Debug)]
pub struct SeedRun {
    pub seed: u64,
    pub report: RunReport,
    pub dataplane: Dataplane,
}

/// Why one seed of a multi-seed sweep failed. Confined to its seed; the
/// other runs still complete.
#[derive(Clone, Debug)]
pub struct SeedError {
    pub seed: u64,
    pub message: String,
}

impl std::fmt::Display for SeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} failed: {}", self.seed, self.message)
    }
}

impl std::error::Error for SeedError {}

/// Runs the same topology under each seed, `base_cfg.threads` emulations at
/// a time (`0` = the host's parallelism), returning per-seed outcomes in
/// seed order. A panic or setup error in one run is caught and reported as
/// that seed's [`SeedError`] instead of aborting the whole sweep.
pub fn run_seeds(
    topology: &Topology,
    make_cluster: impl Fn() -> Cluster + Sync,
    base_cfg: &EmulationConfig,
    seeds: &[u64],
) -> Vec<Result<SeedRun, SeedError>> {
    run_indexed(base_cfg.threads, seeds.len(), |i| {
        let seed = seeds[i];
        let mut cfg = base_cfg.clone();
        cfg.seed = seed;
        let mut emu =
            Emulation::new(topology.clone(), make_cluster(), cfg).map_err(|e| e.to_string())?;
        let report = emu.run_until_converged();
        let dataplane = emu.dataplane();
        Ok::<SeedRun, String>(SeedRun {
            seed,
            report,
            dataplane,
        })
    })
    .into_iter()
    .enumerate()
    .map(|(i, outcome)| {
        let seed = seeds.get(i).copied().unwrap_or(u64::MAX);
        match outcome {
            Ok(Ok(run)) => Ok(run),
            Ok(Err(message)) => Err(SeedError { seed, message }),
            Err(message) => Err(SeedError { seed, message }),
        }
    })
    .collect()
}

/// Groups runs by converged-dataplane digest: the observable distribution of
/// distinct outcomes under ordering non-determinism.
pub fn outcome_distribution(runs: &[SeedRun]) -> BTreeMap<u64, Vec<u64>> {
    let mut out: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for run in runs {
        out.entry(run.dataplane.digest())
            .or_default()
            .push(run.seed);
    }
    out
}
