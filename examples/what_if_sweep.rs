//! Ablation A2 (paper §6): exhaustive context search via link-cut sweeps.
//!
//! ```sh
//! cargo run --release --example what_if_sweep
//! ```
//!
//! "Some network attributes of interest to operators can require reasoning
//! over a range of possible scenarios, such as checking that the network
//! maintains reachability in the face of any single link cut. While our
//! system can check this, it would do so by running emulation for each new
//! context in parallel" — this example does that from one converged
//! baseline, forked per context, and prints the combinatorial wall for
//! larger k.

use mfv_core::{
    link_cut_context_count, link_cut_contexts, scenarios, verify_link_cuts_detailed, CutVerdict,
    EmulationBackend,
};

fn main() {
    let snapshot = scenarios::six_node();
    let links = snapshot.link_ids();
    println!("snapshot '{}' has {} links\n", snapshot.name, links.len());

    println!("context-space growth (the §6 concern):");
    for k in 1..=4 {
        println!(
            "  any {k} cut(s): {:>4} contexts",
            link_cut_context_count(links.len(), k)
        );
    }
    println!(
        "  …and a 200-link WAN at k=3: {} contexts\n",
        link_cut_context_count(200, 3)
    );

    println!("running the k=1 sweep (one cold boot, then a fork per context, parallel):");
    let backend = EmulationBackend::default();
    let contexts = link_cut_contexts(&snapshot, 1);
    let t = std::time::Instant::now();
    let report =
        verify_link_cuts_detailed(&snapshot, &backend, contexts, None).expect("baseline computes");
    let verdicts: Vec<CutVerdict> = report
        .verdicts
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every context verified");
    println!("swept {} contexts in {:?}", verdicts.len(), t.elapsed());
    let after_fork: u64 = verdicts.iter().map(|v| v.events_after_fork).sum();
    println!(
        "  baseline: {} events to boot and converge, once\n  \
         sweep:    {after_fork} events to re-converge all {} forks \
         ({} cold boots would have taken {})\n",
        report.baseline_events,
        verdicts.len(),
        verdicts.len(),
        report.baseline_events * verdicts.len() as u64,
    );

    for v in &verdicts {
        let cut = &v.cuts[0];
        let did = format!(
            "{} events, {} FIBs moved",
            v.events_after_fork, v.fibs_moved
        );
        if v.survives() {
            println!("  cut {cut}: survives ✓ ({did})");
        } else {
            println!(
                "  cut {cut}: {} packet classes lose reachability ({did})",
                v.lost_reachability
            );
            for f in v
                .findings
                .iter()
                .filter(|f| f.before.is_delivered())
                .take(2)
            {
                println!("      e.g. {f}");
            }
        }
    }

    let survivors = verdicts.iter().filter(|v| v.survives()).count();
    println!(
        "\nverdict: {survivors}/{} single-link cuts are survivable — the Fig. 2 \
         chain topology has no redundancy, so every cut partitions something.",
        verdicts.len()
    );
}
