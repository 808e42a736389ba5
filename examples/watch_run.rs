//! Continuous verification demo: converge an ISIS grid, then watch it for a
//! seeded chaos window (link flap, routing kill, machine failure) over a
//! lossy telemetry stream, printing every verdict transition as it lands.
//!
//! Same seed ⇒ byte-identical verdict journal and (with `--obs-exclude-wall`)
//! byte-identical obs dump — `scripts/check.sh` diffs two runs of this
//! binary to hold the continuous-verification determinism contract.
//!
//! Usage:
//!   cargo run --release --example watch_run -- \
//!     [--seed N] [--grid WxH] [--duration-secs N] [--drop-pct N] \
//!     [--journal PATH] [--obs-json PATH] [--obs-exclude-wall]

use std::process::ExitCode;

use mfv_core::{obs, run_watch, scenarios, EmulationBackend, WatchRunConfig};
use mfv_emulator::ChaosPlan;
use mfv_mgmt::StreamFaultModel;
use mfv_types::{SimDuration, SimTime};

struct Args {
    seed: u64,
    grid: (usize, usize),
    duration_secs: u64,
    drop_pct: u8,
    journal: Option<String>,
    obs_json: Option<String>,
    obs_wall: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        grid: (4, 3),
        duration_secs: 60,
        drop_pct: 10,
        journal: None,
        obs_json: None,
        obs_wall: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--grid" => {
                let v = it.next().ok_or("--grid needs WxH")?;
                let (w, h) = v.split_once('x').ok_or_else(|| format!("bad --grid {v}"))?;
                args.grid = (
                    w.parse().map_err(|_| format!("bad --grid {v}"))?,
                    h.parse().map_err(|_| format!("bad --grid {v}"))?,
                );
            }
            "--duration-secs" => {
                let v = it.next().ok_or("--duration-secs needs a value")?;
                args.duration_secs = v.parse().map_err(|_| format!("bad --duration-secs {v}"))?;
            }
            "--drop-pct" => {
                let v = it.next().ok_or("--drop-pct needs a value")?;
                args.drop_pct = v.parse().map_err(|_| format!("bad --drop-pct {v}"))?;
            }
            "--journal" => args.journal = Some(it.next().ok_or("--journal needs a value")?),
            "--obs-json" => args.obs_json = Some(it.next().ok_or("--obs-json needs a value")?),
            "--obs-exclude-wall" => args.obs_wall = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("watch_run: {e}");
            return ExitCode::FAILURE;
        }
    };

    let snapshot = scenarios::isis_grid(args.grid.0, args.grid.1);
    let link = snapshot.topology.links[0].id();
    let victim = snapshot.topology.nodes[snapshot.topology.nodes.len() / 2]
        .name
        .clone();
    let cfg = WatchRunConfig {
        backend: EmulationBackend {
            cluster_machines: 2,
            seed: args.seed,
            ..Default::default()
        },
        watch: mfv_mgmt::WatchConfig {
            seed: args.seed,
            faults: StreamFaultModel {
                drop_pct: args.drop_pct,
                session_loss_pct: 2,
            },
        },
        chaos: ChaosPlan::new()
            .link_flap(link.clone(), SimTime(5_000), SimDuration::from_secs(8))
            .kill_routing(victim.clone(), SimTime(20_000))
            .fail_machine("node-1", SimTime(35_000)),
        tick: SimDuration::from_secs(1),
        duration: SimDuration::from_secs(args.duration_secs),
    };

    println!(
        "watching {}x{} grid for {}s (seed {}, drop {}%): flap {link}, kill {victim}, fail node-1",
        args.grid.0, args.grid.1, args.duration_secs, args.seed, args.drop_pct
    );
    let wall = std::time::Instant::now();
    let mut obs = obs::Obs::new();
    let report = match run_watch(&snapshot, &cfg, &mut obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("watch_run: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", report.journal_text);
    let (hits, misses) = report.cache_stats;
    println!(
        "window {} → {}: {} verdict updates over {} evaluations, \
         {} gaps, {} session losses, {} resyncs, class cache {hits} hits / {misses} misses",
        report.started_at,
        report.ended_at,
        report.verdict_updates.len(),
        report.evaluations,
        report.stats.gaps,
        report.stats.session_losses,
        report.stats.resyncs,
    );
    println!(
        "final coverage: {}/{} covered; wall {:?}",
        report.final_coverage.fresh.len() + report.final_coverage.stale.len(),
        report.final_coverage.total(),
        wall.elapsed(),
    );

    if let Some(path) = &args.journal {
        if let Err(e) = std::fs::write(path, &report.journal_text) {
            eprintln!("watch_run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote verdict journal to {path}");
    }
    if let Some(path) = &args.obs_json {
        if let Err(e) = std::fs::write(path, obs.to_json(args.obs_wall)) {
            eprintln!("watch_run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote obs dump to {path}");
    }
    ExitCode::SUCCESS
}
