//! Chaos run: a link-flap schedule on the 30-node replica, plus a degraded
//! extraction sweep.
//!
//! ```sh
//! cargo run --release --example chaos_run
//! ```
//!
//! Three runs over the two-vendor 30-node WAN replica:
//!
//! 1. **Control** — no faults; the convergence watchdog reports `Converged`.
//! 2. **Flap schedule** — one ring link flaps every 20s (8s down) past the
//!    time budget; the watchdog reports `Oscillating` with the churning
//!    prefixes and the detected flap period.
//! 3. **Degraded extraction** — the control run again, but two devices'
//!    management planes are forced to fail past the collector's retry
//!    budget; verification proceeds over the covered nodes and qualifies
//!    its answers.
//!
//! Pass `--obs-json PATH` to dump the merged observability snapshot
//! (metrics, phase spans, event journal, wall-time section) of all three
//! runs as JSON; add `--obs-exclude-wall` to drop the wall section so the
//! dump is byte-identical across same-seed runs (the CI obs-smoke check).

use mfv_core::{
    observed_query, qualified_unreachable_pairs, scenarios, Coverage, EmulationBackend,
    ForwardingAnalysis,
};
use mfv_emulator::ChaosPlan;
use mfv_obs::Obs;
use mfv_types::{LinkId, SimDuration, SimTime};

fn main() {
    let mut obs_path: Option<String> = None;
    let mut include_wall = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs-json" => match args.next() {
                Some(p) => obs_path = Some(p),
                None => {
                    eprintln!("--obs-json requires a path");
                    std::process::exit(2);
                }
            },
            "--obs-exclude-wall" => include_wall = false,
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    let mut obs = Obs::new();

    let snapshot = scenarios::production_wan(30, 3, true, 1_000);
    println!(
        "topology: {} nodes, {} links (two-vendor)",
        snapshot.topology.nodes.len(),
        snapshot.topology.links.len()
    );

    let mut backend = EmulationBackend::with_seed(3);
    backend.cluster_machines = 2;

    // 1. Control.
    let control = backend.compute_observed(&snapshot, &mut obs).unwrap();
    let boot = control.meta.boot_time.unwrap();
    println!(
        "control:  verdict={}  boot={}  convergence={}  msgs={}",
        control.meta.verdict.as_ref().unwrap(),
        boot,
        control.meta.convergence_time.unwrap(),
        control.meta.messages
    );

    // 2. Flap schedule on the first ring link, starting 60s into steady
    // state and repeating past the (shortened) time budget.
    let l = &snapshot.topology.links[0];
    let link = LinkId::new(
        (l.a_node.clone(), l.a_iface.clone()),
        (l.b_node.clone(), l.b_iface.clone()),
    );
    println!("flapping {link}: down 8s, every 20s, past the budget");
    backend.max_sim_time = SimDuration::from_millis(boot.as_millis() + 400_000);
    backend.chaos = ChaosPlan::new().repeated_link_flap(
        link,
        SimTime(boot.as_millis() + 60_000),
        SimDuration::from_secs(8),
        40,
        SimDuration::from_secs(20),
    );
    let chaotic = backend.compute_observed(&snapshot, &mut obs).unwrap();
    println!(
        "chaos:    verdict={}  msgs={}",
        chaotic.meta.verdict.as_ref().unwrap(),
        chaotic.meta.messages
    );

    // 3. Degraded extraction on the fault-free network.
    backend.chaos = ChaosPlan::default();
    backend.max_sim_time = SimDuration::from_mins(120);
    backend.collector.failures.force_fail.insert("r7".into());
    backend.collector.failures.force_fail.insert("r19".into());
    let degraded = backend.compute_observed(&snapshot, &mut obs).unwrap();
    let coverage = Coverage::from_status(&degraded.meta.extraction_status);
    println!(
        "degraded: coverage={:.1}% of {} nodes",
        degraded.meta.extraction_coverage.unwrap() * 100.0,
        degraded.meta.extraction_status.len(),
    );
    let q = observed_query(&mut obs, "verify.query.unreachable_pairs", || {
        qualified_unreachable_pairs(&ForwardingAnalysis::new(&degraded.dataplane), &coverage)
    });
    println!(
        "          unreachable pairs over covered nodes: {}",
        q.value.len()
    );
    for caveat in &q.caveats {
        println!("          caveat: {caveat}");
    }

    if let Some(path) = obs_path {
        let json = obs.to_json(include_wall);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("obs dump ({} bytes) written to {path}", json.len());
    }
}
