//! Simulated Kubernetes cluster: machines, pod resource requests, a
//! bin-packing scheduler, and a container boot-time model.
//!
//! This is the substrate for the paper's scalability results (§5): router
//! pods request real resources (0.5 vCPU + 1 GiB for the cEOS image), a
//! 32-vCPU machine therefore fits ~60 of them, and 1,000 devices need a
//! 17-node cluster. Startup is "12–17 minutes" of image pull + container
//! boot, modelled with seeded jitter.

use mfv_types::{NodeId, SimDuration, SimTime};
use rand::Rng;

/// One cluster machine (a Kubernetes node).
#[derive(Clone, Debug)]
pub struct MachineSpec {
    pub name: String,
    /// Allocatable CPU in millicores.
    pub cpu_millis: u32,
    /// Allocatable memory in MiB.
    pub mem_mib: u32,
}

impl MachineSpec {
    /// The machine used in the paper's single-node experiment:
    /// e2-standard-32 (32 vCPU, 128 GB).
    fn e2_standard_32(name: impl Into<String>) -> MachineSpec {
        MachineSpec {
            name: name.into(),
            cpu_millis: 32_000,
            mem_mib: 128 * 1024,
        }
    }
}

/// A pod resource request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PodRequest {
    pub pod: NodeId,
    pub cpu_millis: u32,
    pub mem_mib: u32,
}

/// Scheduling failure: no machine has room.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unschedulable {
    pub pod: NodeId,
    pub reason: String,
}

impl std::fmt::Display for Unschedulable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pod {} unschedulable: {}", self.pod, self.reason)
    }
}

impl std::error::Error for Unschedulable {}

#[derive(Clone, Debug)]
struct Machine {
    spec: MachineSpec,
    used_cpu: u32,
    used_mem: u32,
    /// Requests (not just names): a machine failure must return each
    /// evicted pod's resource shape so it can be resubmitted verbatim.
    pods: Vec<PodRequest>,
    /// Whether the router image has been pulled to this machine already.
    image_cached: bool,
    /// A failed machine keeps its entry (stable indices for reporting) but
    /// accepts no pods and holds none.
    failed: bool,
}

/// A pod placement decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub pod: NodeId,
    pub machine: String,
    /// When the container becomes Ready.
    pub ready_at: SimTime,
}

/// The simulated cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    machines: Vec<Machine>,
    /// First-pull image cost per machine.
    pub image_pull: SimDuration,
}

impl Cluster {
    pub fn new(machines: Vec<MachineSpec>) -> Cluster {
        Cluster {
            machines: machines
                .into_iter()
                .map(|spec| Machine {
                    spec,
                    used_cpu: 0,
                    used_mem: 0,
                    pods: Vec::new(),
                    image_cached: false,
                    failed: false,
                })
                .collect(),
            image_pull: SimDuration::from_secs(300),
        }
    }

    /// A single-machine cluster (the paper's first scalability test).
    pub fn single_node() -> Cluster {
        Cluster::new(vec![MachineSpec::e2_standard_32("node-0")])
    }

    /// An n-machine cluster of e2-standard-32s.
    pub fn of_size(n: usize) -> Cluster {
        Cluster::new(
            (0..n)
                .map(|i| MachineSpec::e2_standard_32(format!("node-{i}")))
                .collect(),
        )
    }

    /// How many pods of the given request shape still fit.
    pub fn capacity_for(&self, cpu_millis: u32, mem_mib: u32) -> usize {
        self.machines
            .iter()
            .filter(|m| !m.failed)
            .map(|m| {
                let by_cpu = (m.spec.cpu_millis - m.used_cpu) / cpu_millis.max(1);
                let by_mem = (m.spec.mem_mib - m.used_mem) / mem_mib.max(1);
                by_cpu.min(by_mem) as usize
            })
            .sum()
    }

    /// Schedules one pod (best-fit by remaining CPU, like kube-scheduler's
    /// LeastAllocated inverted for packing density in batch bring-up), and
    /// returns its placement with a modelled ready time.
    ///
    /// `boot_time` is the vendor image's container start cost; jitter is
    /// drawn from `rng` so identical topologies boot in deterministic but
    /// non-uniform order per seed.
    pub fn schedule(
        &mut self,
        req: &PodRequest,
        submitted: SimTime,
        boot_time: SimDuration,
        rng: &mut impl Rng,
    ) -> Result<Placement, Unschedulable> {
        let candidate = self
            .machines
            .iter_mut()
            .filter(|m| {
                !m.failed
                    && m.spec.cpu_millis - m.used_cpu >= req.cpu_millis
                    && m.spec.mem_mib - m.used_mem >= req.mem_mib
            })
            // Best fit: the machine with the least leftover CPU. Ties are
            // broken by machine name so the placement is a function of the
            // cluster state alone, not of the machine list's build order.
            .min_by_key(|m| {
                (
                    m.spec.cpu_millis - m.used_cpu - req.cpu_millis,
                    m.spec.name.clone(),
                )
            });
        let Some(machine) = candidate else {
            return Err(Unschedulable {
                pod: req.pod.clone(),
                reason: format!(
                    "insufficient cluster capacity for {}m CPU / {} MiB",
                    req.cpu_millis, req.mem_mib
                ),
            });
        };
        machine.used_cpu += req.cpu_millis;
        machine.used_mem += req.mem_mib;
        machine.pods.push(req.clone());

        let pull = if machine.image_cached {
            SimDuration::ZERO
        } else {
            machine.image_cached = true;
            self.image_pull
        };
        // Control-plane boot slows under co-boot load: each already-placed
        // pod on the machine inflates boot time by 12.5%. This reproduces
        // the paper's startup profile ("single to tens of minutes, depending
        // on the network size"; 12–17 minutes for the 30-node replica).
        let co_resident = machine.pods.len() as u64 - 1;
        let inflated = boot_time.as_millis() + boot_time.as_millis() * co_resident / 8;
        // Boot jitter: ±20% of the (inflated) boot time.
        let jitter_range = (inflated / 5).max(1);
        let jitter = rng.gen_range(0..jitter_range * 2);
        let ready_at =
            submitted + pull + SimDuration::from_millis(inflated - jitter_range + jitter);
        Ok(Placement {
            pod: req.pod.clone(),
            machine: machine.spec.name.clone(),
            ready_at,
        })
    }

    /// Releases a pod's resources (pod deletion).
    pub fn release(&mut self, pod: &NodeId, cpu_millis: u32, mem_mib: u32) {
        for m in &mut self.machines {
            if let Some(pos) = m.pods.iter().position(|p| &p.pod == pod) {
                m.pods.remove(pos);
                m.used_cpu = m.used_cpu.saturating_sub(cpu_millis);
                m.used_mem = m.used_mem.saturating_sub(mem_mib);
                return;
            }
        }
    }

    /// Fails a machine (node outage): it stops accepting pods and every pod
    /// it held is evicted. The evicted pods' requests are returned in
    /// placement order so the caller can resubmit them to the scheduler —
    /// the k8s eviction/reschedule loop, compressed into one call.
    /// Unknown or already-failed machines evict nothing.
    pub fn fail_machine(&mut self, name: &str) -> Vec<PodRequest> {
        for m in &mut self.machines {
            if m.spec.name == name && !m.failed {
                m.failed = true;
                m.used_cpu = 0;
                m.used_mem = 0;
                return std::mem::take(&mut m.pods);
            }
        }
        Vec::new()
    }

    /// Pods per machine, for reporting.
    pub fn packing(&self) -> Vec<(String, usize)> {
        self.machines
            .iter()
            .map(|m| (m.spec.name.clone(), m.pods.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    impl Cluster {
        /// Names of machines that have failed.
        fn failed_machines(&self) -> Vec<String> {
            self.machines
                .iter()
                .filter(|m| m.failed)
                .map(|m| m.spec.name.clone())
                .collect()
        }
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn ceos_request(i: usize) -> PodRequest {
        PodRequest {
            pod: format!("r{i}").into(),
            cpu_millis: 500,
            mem_mib: 1024,
        }
    }

    #[test]
    fn single_machine_fits_paper_count() {
        // 32 vCPU / 0.5 vCPU = 64 by CPU; 128 GiB / 1 GiB = 128 by memory.
        // CPU binds: 64 pods; the paper reports "up to 60 routers" (their
        // machine also runs system pods — we model the headroom explicitly).
        let cluster = Cluster::single_node();
        assert_eq!(cluster.capacity_for(500, 1024), 64);
    }

    #[test]
    fn scheduler_packs_until_full_then_fails() {
        let mut cluster = Cluster::single_node();
        let mut r = rng();
        for i in 0..64 {
            cluster
                .schedule(
                    &ceos_request(i),
                    SimTime::ZERO,
                    SimDuration::from_secs(110),
                    &mut r,
                )
                .unwrap_or_else(|e| panic!("pod {i}: {e}"));
        }
        let err = cluster
            .schedule(
                &ceos_request(64),
                SimTime::ZERO,
                SimDuration::from_secs(110),
                &mut r,
            )
            .unwrap_err();
        assert!(err.reason.contains("insufficient"));
    }

    #[test]
    fn seventeen_machines_fit_a_thousand_pods() {
        // The paper: 1,000 devices converge on a 17-node cluster.
        let cluster = Cluster::of_size(17);
        assert!(cluster.capacity_for(500, 1024) >= 1000);
        // And 15 machines would not fit 1,000.
        assert!(Cluster::of_size(15).capacity_for(500, 1024) < 1000);
    }

    #[test]
    fn first_pod_pays_image_pull() {
        let mut cluster = Cluster::single_node();
        let mut r = rng();
        let boot = SimDuration::from_secs(100);
        let p1 = cluster
            .schedule(&ceos_request(0), SimTime::ZERO, boot, &mut r)
            .unwrap();
        let p2 = cluster
            .schedule(&ceos_request(1), SimTime::ZERO, boot, &mut r)
            .unwrap();
        // First pod: pull (300 s) + boot(±20%); second pod: boot only
        // (inflated 20% by the co-resident first pod).
        assert!(p1.ready_at.as_millis() >= 300_000 + 80_000);
        assert!(p2.ready_at.as_millis() <= 170_000);
    }

    #[test]
    fn release_frees_capacity() {
        let mut cluster = Cluster::new(vec![MachineSpec {
            name: "tiny".into(),
            cpu_millis: 500,
            mem_mib: 1024,
        }]);
        let mut r = rng();
        cluster
            .schedule(
                &ceos_request(0),
                SimTime::ZERO,
                SimDuration::from_secs(1),
                &mut r,
            )
            .unwrap();
        assert_eq!(cluster.capacity_for(500, 1024), 0);
        cluster.release(&"r0".into(), 500, 1024);
        assert_eq!(cluster.capacity_for(500, 1024), 1);
    }

    #[test]
    fn boot_jitter_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut cluster = Cluster::single_node();
            let mut r = ChaCha8Rng::seed_from_u64(seed);
            (0..5)
                .map(|i| {
                    cluster
                        .schedule(
                            &ceos_request(i),
                            SimTime::ZERO,
                            SimDuration::from_secs(110),
                            &mut r,
                        )
                        .unwrap()
                        .ready_at
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn machine_failure_evicts_pods_and_excludes_machine() {
        let mut cluster = Cluster::of_size(2);
        let mut r = rng();
        for i in 0..3 {
            cluster
                .schedule(
                    &ceos_request(i),
                    SimTime::ZERO,
                    SimDuration::from_secs(1),
                    &mut r,
                )
                .unwrap();
        }
        // Best-fit packs all three onto one machine; find it.
        let (loaded, _) = cluster
            .packing()
            .into_iter()
            .find(|(_, n)| *n == 3)
            .expect("one machine holds all pods");
        let evicted = cluster.fail_machine(&loaded);
        assert_eq!(evicted.len(), 3);
        assert_eq!(evicted[0], ceos_request(0));
        assert_eq!(cluster.failed_machines(), vec![loaded.clone()]);
        // Evicted pods resubmit onto the survivor only.
        for req in &evicted {
            let p = cluster
                .schedule(req, SimTime::ZERO, SimDuration::from_secs(1), &mut r)
                .unwrap();
            assert_ne!(p.machine, loaded);
        }
        // Failing again evicts nothing.
        assert!(cluster.fail_machine(&loaded).is_empty());
        // A failed machine contributes no capacity.
        assert_eq!(Cluster::of_size(1).capacity_for(500, 1024), {
            let mut c = Cluster::of_size(2);
            c.fail_machine("node-1");
            c.capacity_for(500, 1024)
        });
    }

    #[test]
    fn packing_reports_distribution() {
        let mut cluster = Cluster::of_size(2);
        let mut r = rng();
        for i in 0..10 {
            cluster
                .schedule(
                    &ceos_request(i),
                    SimTime::ZERO,
                    SimDuration::from_secs(1),
                    &mut r,
                )
                .unwrap();
        }
        let packing = cluster.packing();
        let total: usize = packing.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10);
    }
}
