//! Regenerates every figure/result of the paper's evaluation as
//! paper-vs-measured tables, and runs the scripted scenarios.
//!
//! ```sh
//! cargo run --release -p mfv-bench --bin experiments            # all
//! cargo run --release -p mfv-bench --bin experiments -- e1 e3   # subset
//! cargo run --release -p mfv-bench --bin experiments -- e3 20 50 # and E3's diff at the 1,000-router scale
//! cargo run --release -p mfv-bench --bin experiments -- --quick # smaller E4/E5
//! cargo run --release -p mfv-bench --bin experiments -- heap 20 50 # where the 1,000-router heap is
//! cargo run --release -p mfv-bench --bin experiments -- converge 20 50 # and where its convergence time goes
//! cargo run --release -p mfv-bench --bin experiments -- converge --grid 10 6 # the same for an isis_grid
//! cargo run --release -p mfv-bench --bin experiments -- sweep 6 5 # what one what-if context costs, phase by phase
//! cargo run --release -p mfv-bench --bin experiments -- watch 7 6 # what a chaos watch reads, streams and decodes
//! cargo run --release -p mfv-bench --bin experiments -- watch 4 3 --seed 7 --journal v.txt # its verdict journal
//! cargo run --release -p mfv-bench --bin experiments -- chaos --obs-json o.json --obs-exclude-wall # its obs dump, without wall times
//! ```

use std::collections::BTreeSet;

use mfv_bench::*;
use mfv_core::obs::alloc::{held_by, made, Accountant, Held};
use mfv_core::obs::{Obs, WallTimer};
use mfv_core::{
    differential_reachability_with, extract_snapshot, link_cut_contexts, observed_query,
    qualified_unreachable_pairs, run_watch, scenarios, unreachable_pairs_with,
    verify_link_cuts_detailed, Backend, ContextCost, Coverage, CutVerdict, EmulationBackend,
    ForwardingAnalysis, ModelBackend, Snapshot, WatchRunConfig, PHASES,
};
use mfv_emulator::ChaosPlan;
use mfv_mgmt::{StreamFaultModel, WatchConfig};
use mfv_types::{NodeId, SimDuration, SimTime};
use mfv_vrouter::VirtualRouter;

/// What the command line asks beyond the experiment ids, parsed once: the
/// numbers are `heap` / `converge` / `e3`'s WAN size or grid and `watch` /
/// `sweep`'s grid, `--seed` is `watch`'s emulation and stream seed.
#[derive(Default)]
struct Options {
    quick: bool,
    sizes: Vec<usize>,
    grid: bool,
    seed: Option<u64>,
    journal: Option<String>,
    obs_json: Option<String>,
    exclude_wall: bool,
}

impl Options {
    /// `heap` / `converge` / `e3`'s `regional_wan`: regions and routers per
    /// region.
    fn wan_size(&self) -> (usize, usize) {
        (self.size(0, 5), self.size(1, 20))
    }

    /// `watch` / `converge --grid`'s `isis_grid`: columns and rows.
    fn grid_size(&self) -> (usize, usize) {
        (self.size(0, 7), self.size(1, 6))
    }

    /// `sweep`'s `isis_grid`: `grid30_whatif`'s network without numbers.
    fn sweep_size(&self) -> (usize, usize) {
        (self.size(0, 6), self.size(1, 5))
    }

    fn size(&self, at: usize, default: usize) -> usize {
        self.sizes.get(at).copied().unwrap_or(default)
    }
}

/// An experiment id and its runner.
type Experiment = (&'static str, fn(&Options));

/// Every experiment, in run order.
const EXPERIMENTS: [Experiment; 15] = [
    ("e1", |_| e1()),
    ("e2", |_| e2()),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", |_| e6()),
    ("e7", |_| e7()),
    ("a1", |_| a1()),
    ("a2", |_| a2()),
    ("a3", |_| a3()),
    ("heap", heap),
    ("converge", converge),
    ("watch", watch),
    ("chaos", chaos),
    ("sweep", sweep),
];

/// Stops with a usage error (exit 2) before anything runs.
fn usage_error(message: &str) -> ! {
    eprintln!("experiments: {message}");
    std::process::exit(2);
}

fn main() {
    let ids = EXPERIMENTS.map(|(id, _)| id);
    let mut opts = Options::default();
    let mut selected = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("option '{arg}' needs a value")))
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--grid" => opts.grid = true,
            "--obs-exclude-wall" => opts.exclude_wall = true,
            "--seed" => match value().parse() {
                Ok(seed) => opts.seed = Some(seed),
                Err(_) => usage_error("bad --seed"),
            },
            "--journal" => opts.journal = Some(value()),
            "--obs-json" => opts.obs_json = Some(value()),
            option if option.starts_with("--") => {
                usage_error(&format!("unknown option '{option}'"))
            }
            word => match word.parse() {
                Ok(size) => opts.sizes.push(size),
                Err(_) if ids.contains(&word) => selected.push(word.to_string()),
                Err(_) => usage_error(&format!(
                    "unknown experiment id `{word}` (valid: {})",
                    ids.join(" ")
                )),
            },
        }
    }
    if opts.grid && opts.sizes.len() < 2 {
        usage_error("--grid takes <cols> <rows>");
    }
    // The scenarios assert their bounds: refuse a size they cannot build.
    let runs = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);
    let (regions, per_region) = opts.wan_size();
    if (runs("heap") || runs("converge") && !opts.grid || runs("e3") && !opts.sizes.is_empty())
        && !((2..=200).contains(&regions) && (3..=256).contains(&per_region))
    {
        usage_error("a regional WAN takes 2..=200 regions of 3..=256 routers");
    }
    let (cols, rows) = opts.grid_size();
    if (runs("watch") || runs("sweep") || runs("converge") && opts.grid)
        && (cols == 0 || rows == 0 || cols.saturating_mul(rows) < 2)
    {
        usage_error("a grid takes cols >= 1 and rows >= 1, at least two routers");
    }

    println!("Model-Free Verification — experiment harness");
    println!("reproducing: Krentsel et al., \"Towards Accessible Model-Free");
    println!("Verification\", HotNets '25 (see EXPERIMENTS.md for the index)\n");

    for (id, run) in EXPERIMENTS {
        if selected.is_empty() || selected.iter().any(|s| s == id) {
            run(&opts);
        }
    }
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn e1() {
    banner(
        "E1",
        "model-free verification uncovers reachability impact (Fig. 2)",
    );
    let r = run_e1(1);
    println!(
        "six-node network converged (baseline {} / broken {} messages)\n",
        r.base_meta.messages, r.broken_meta.messages
    );
    println!("differential reachability, working vs R2–R3-shutdown snapshots:");
    println!("  fate-changed classes: {}", r.findings.len());
    println!("  deliverability-changed classes: {}", r.lost.len());
    for (src, n) in &r.lost_by_src {
        println!("    from {src}: {n} classes lost");
    }
    paper_row(
        "loss of connectivity AS3 → AS2 discovered",
        "yes",
        if e1_as3_lost_as2(&r) {
            "yes"
        } else {
            "NO (mismatch!)"
        },
    );
    for f in r
        .lost
        .iter()
        .filter(|f| f.src == NodeId::from("r5"))
        .take(3)
    {
        println!("  example: {f}");
    }
}

fn e2() {
    banner(
        "E2",
        "model-based verification struggles with feature coverage",
    );
    let rows = run_e2();
    println!("config  total  recognized  unrecognized  material  mgmt-only");
    let (mut lo, mut hi) = (usize::MAX, 0);
    for row in &rows {
        println!(
            "{:<7} {:>5}  {:>10}  {:>12}  {:>8}  {:>9}",
            row.hostname,
            row.total_lines,
            row.recognized,
            row.unrecognized,
            row.material,
            row.management_only
        );
        lo = lo.min(row.unrecognized);
        hi = hi.max(row.unrecognized);
    }
    paper_row(
        "unrecognized lines per config",
        "38–42",
        &format!("{lo}–{hi}"),
    );
    paper_row(
        "materially-relevant unparsed features",
        "MPLS, MPLS-TE",
        "mpls/TE stanzas + isis-enable syntax",
    );
}

fn e3(opts: &Options) {
    banner(
        "E3",
        "model-based results can be wrong or misleading (Fig. 3)",
    );
    let r = run_e3(1);
    paper_row(
        "emulation: pairwise reachability",
        "full",
        if r.emu_broken_pairs == 0 {
            "full"
        } else {
            "BROKEN (mismatch!)"
        },
    );
    let model_drops_r2_r1 = r
        .model_broken_pairs
        .iter()
        .any(|(s, d)| s == &NodeId::from("r2") && d == &NodeId::from("r1"));
    paper_row(
        "model: reachability R2 → R1",
        "dropped",
        if model_drops_r2_r1 {
            "dropped"
        } else {
            "present (mismatch!)"
        },
    );
    println!("  model broken pairs: {:?}", r.model_broken_pairs);
    println!(
        "  differential (model → emulation): {} classes deliverable only in emulation",
        r.model_false_negatives
    );
    println!(
        "  root cause: `ip address` before `no switchport` ignored by the model\n  \
         (issue #1); `isis enable` flagged invalid syntax (issue #2)"
    );
    if !opts.sizes.is_empty() {
        e3_at_scale(opts);
    }
}

/// E3 at scale, when the command line sizes a `regional_wan`: the model's
/// and the emulation's FIB entries, the findings of diffing the two, and
/// the wall time of both analyses and of the diff, whose index builds it
/// includes.
fn e3_at_scale(opts: &Options) {
    let (regions, per_region, snapshot, backend) = wan(opts);
    let emulated = backend.compute(&snapshot).expect("wan converges").dataplane;
    let model = ModelBackend
        .compute(&snapshot)
        .expect("model computes")
        .dataplane;
    let timer = WallTimer::start();
    let (fa_model, fa_emu) = (
        ForwardingAnalysis::new(&model),
        ForwardingAnalysis::new(&emulated),
    );
    let analysis_us = timer.elapsed_micros();
    let timer = WallTimer::start();
    let findings = differential_reachability_with(&fa_model, &fa_emu, None).len();
    let diff_us = timer.elapsed_micros();
    println!(
        "  at scale, regional_wan({regions}, {per_region}): {} FIB entries (model) vs {} \
         (emulation), {findings} findings; analysis {:.2} s, diff {:.2} s",
        model.total_entries(),
        emulated.total_entries(),
        analysis_us as f64 / 1e6,
        diff_us as f64 / 1e6,
    );
}

fn e4(opts: &Options) {
    banner("E4", "emulation performance scales in size and complexity");
    println!("single e2-standard-32 machine, cEOS-shape pods (0.5 vCPU + 1 GiB):\n");
    println!("routers  scheduled  boot        convergence  messages  fib     wall");
    let sizes: &[usize] = if opts.quick {
        &[5, 10, 20]
    } else {
        &[5, 10, 20, 40, 60]
    };
    for &n in sizes {
        let row = run_e4_size(n, 1, 1);
        println!(
            "{:>7}  {:>9}  {:>10}  {:>11}  {:>8}  {:>6}  {:?}",
            row.routers,
            if row.scheduled { "yes" } else { "NO" },
            row.boot
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            row.convergence
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            row.messages,
            row.fib_entries,
            row.wall,
        );
    }
    let over = run_e4_size(70, 1, 1);
    println!(
        "{:>7}  {:>9}  (insufficient cluster capacity — the paper's single-node wall)",
        70,
        if over.scheduled {
            "yes (mismatch!)"
        } else {
            "NO"
        }
    );
    println!();
    paper_row(
        "pods per e2-standard-32",
        "~60",
        &format!("{}", e4_capacity(1)),
    );
    paper_row(
        "machines for 1,000 devices",
        "17-node cluster",
        &format!(
            "{} pods fit on 17 (15 machines: {})",
            e4_capacity(17),
            e4_capacity(15)
        ),
    );
    let boot = run_e4_size(40, 1, 1).boot.unwrap();
    paper_row(
        "one-time startup (pull + boot), 40 routers",
        "12–17 min",
        &format!("{:.1} min", boot.as_mins_f64()),
    );
}

fn e5(opts: &Options) {
    banner("E5", "convergence with production-realistic conditions");
    let nodes = if opts.quick { 10 } else { 30 };
    println!(
        "replica: {nodes}-node multi-vendor WAN, iBGP mesh, 2 external feeds \
         at ~10k routes/s each"
    );
    println!("(the paper injects millions per peer; we sweep the synthetic feed size —");
    println!(" convergence is injection-paced, so the time extrapolates linearly)\n");
    println!(
        "routes/feed  boot       convergence  messages  fib-entries   peak bytes  B/entry  wall"
    );
    let sweeps: &[usize] = if opts.quick {
        &[2_500, 10_000]
    } else {
        &[10_000, 25_000, 50_000]
    };
    let mut last = None;
    for &routes in sweeps {
        // The run's highest heap: the emulation at its largest.
        let (r, _, (peak, _)) = held_by(|| run_e5(nodes, routes, 1));
        println!(
            "{:>11}  {:>9}  {:>11}  {:>8}  {:>11}  {:>11}  {:>7}  {:?}",
            routes,
            r.boot
                .map(|d| format!("{:.1}min", d.as_mins_f64()))
                .unwrap_or_default(),
            r.convergence.map(|d| d.to_string()).unwrap_or_default(),
            r.messages,
            r.total_fib_entries,
            peak,
            peak / r.total_fib_entries.max(1),
            r.wall,
        );
        last = Some(r);
    }
    let r = last.unwrap();
    // Linear extrapolation to the paper's feed size (≈2M/peer at 10k/s).
    // Injection starts 1 s after boot completion; subtract that offset so
    // the per-route slope is clean.
    let per_route_ms = r
        .convergence
        .map(|d| (d.as_millis().saturating_sub(1_000)) as f64 / r.routes_per_feed as f64);
    let extrapolated_min = per_route_ms
        .map(|ms| ms * 2_000_000.0 / 60_000.0)
        .unwrap_or(0.0);
    paper_row(
        "convergence after config + injection",
        "~3 min (millions of routes)",
        &format!(
            "{} at {} routes; ≈{:.1} min at 2M/feed",
            r.convergence.map(|d| d.to_string()).unwrap_or_default(),
            r.routes_per_feed,
            extrapolated_min
        ),
    );
    paper_row(
        "initial startup (infra + containers)",
        "12–17 min",
        &r.boot
            .map(|d| format!("{:.1} min", d.as_mins_f64()))
            .unwrap_or_default(),
    );
}

fn e6() {
    banner("E6", "emulation fits the network-operator tooling flow");
    // Break r3 with wrong-vendor IS-IS syntax, then debug via the CLI.
    let healthy = scenarios::three_node_line_fig3();
    let broken_r3 = healthy
        .topology
        .node(&"r3".into())
        .unwrap()
        .config_text
        .replace(
            "   isis enable default\n!\n",
            "   ip router isis default\n!\n",
        );
    let snapshot: Snapshot = healthy.with_config(&"r3".into(), &broken_r3);
    let backend = EmulationBackend::default();
    let (emu, _) = backend.run(&snapshot).expect("emulation runs");
    let broken = unreachable_pairs_with(&ForwardingAnalysis::new(&emu.dataplane()));
    println!(
        "verification: {} broken reachability pairs (expected > 0)\n",
        broken.len()
    );
    println!("operator drops into the emulated device:");
    println!("r2# show isis database");
    print!("{}", emu.cli(&"r2".into(), "show isis database").unwrap());
    println!("r3# show isis neighbors");
    print!("{}", emu.cli(&"r3".into(), "show isis neighbors").unwrap());
    paper_row(
        "debuggable with standard CLI inspection",
        "yes (SSH + show cmds)",
        "yes (show isis database / neighbors)",
    );
}

fn e7() {
    banner(
        "E7",
        "static analysis (mfv-conflint) cross-validated against emulation",
    );
    println!(
        "one seeded misconfiguration per family is planted into the clean\n\
         4-router / 2-AS base network; the static pass must flag it (right\n\
         rule, right device) and the emulator must show the runtime symptom.\n"
    );
    let rows = run_e7(0);
    let mut agreed = 0usize;
    for r in &rows {
        println!(
            "{} [{} on {}] {}",
            if r.validated { "AGREE " } else { "SPLIT " },
            r.rule,
            r.device,
            r.detail
        );
        println!(
            "    static: {} ({} finding{})",
            if r.flagged { "flagged" } else { "MISSED" },
            r.findings,
            if r.findings == 1 { "" } else { "s" }
        );
        match &r.session_state {
            Some(st) => println!(
                "    runtime: session {st}{}",
                if r.session_ok { "" } else { " (UNEXPECTED)" }
            ),
            None => println!("    runtime: no session watched"),
        }
        for e in &r.evidence {
            println!("    runtime: fib {e}");
        }
        agreed += usize::from(r.validated);
    }
    println!();
    paper_row(
        "families where both tiers agree",
        "(desired: all)",
        &format!("{agreed}/{}", rows.len()),
    );
    paper_row(
        "cheap tier catches the fault pre-boot",
        "milliseconds vs emulation",
        "yes (pure config analysis)",
    );
}

fn a1() {
    banner(
        "A1",
        "non-determinism: one emulation run = one converged state (§6)",
    );
    let seeds: Vec<u64> = (1..=8).collect();
    let r = run_a1(&seeds);
    println!(
        "anycast tie-break topology, {} seeds → {} distinct converged dataplanes",
        r.seeds.len(),
        r.distribution.len()
    );
    for (digest, seeds) in &r.distribution {
        println!("  outcome {digest:#018x}: seeds {seeds:?}");
    }
    paper_row(
        "parallel runs expose ordering-dependent outcomes",
        "proposed",
        &format!(
            "{} outcomes / {} seeds",
            r.distribution.len(),
            r.seeds.len()
        ),
    );
    paper_row(
        "reachability-level result stable across runs",
        "(desired)",
        if r.reachability_consistent {
            "yes"
        } else {
            "NO"
        },
    );
}

fn a2() {
    banner("A2", "exhaustive context search: k link cuts (§6)");
    let r = run_a2(1);
    println!(
        "six-node snapshot has {} links; contexts to answer:",
        r.links
    );
    for (k, n) in &r.growth {
        println!("  any {k} cut(s): {n} contexts");
    }
    println!(
        "\nk=1 sweep (one cold boot, then a fork of the converged emulation per \
         context, fanned out across threads):\n  \
         {} cut contexts survive, {} cause reachability loss (wall {:?})\n  \
         class cache: {} node analyses reused, {} computed",
        r.single_cut_survivals, r.single_cut_outages, r.wall, r.class_cache.0, r.class_cache.1
    );
    paper_row(
        "k-cut context growth",
        "exponential (\"overly compute intensive\")",
        "C(links, k), see table",
    );
}

fn a3() {
    banner("A3", "cross-vendor interplay bug (§2 incident)");
    let r = run_a3(7);
    println!(
        "emitter (vjunos) attaches unusual-but-valid transitive attr 213;\n\
         victim (ceos) parser crashes on it.\n"
    );
    paper_row(
        "routing process crashes observed",
        "1 (production incident)",
        &r.crashes.to_string(),
    );
    paper_row(
        "partial outage visible to verification",
        "traffic loss / partial outage",
        &format!("{} packet classes lost", r.lost_classes),
    );
    paper_row(
        "single-model baseline can analyse it",
        "no (one reference model)",
        if r.model_can_ingest {
            "yes (mismatch!)"
        } else {
            "no (vjunos unsupported)"
        },
    );
}

#[global_allocator]
static ALLOC: Accountant = Accountant;

/// A part of a router and what a clone of it holds.
type Piece = (&'static str, fn(&VirtualRouter) -> Held);

/// The `regional_wan` the numbers on the command line size (`5 20` without
/// any), and a seed-1 backend with the paper's packing: some sixty routers
/// to a machine, 17 for 1,000.
fn wan(opts: &Options) -> (usize, usize, Snapshot, EmulationBackend) {
    let (regions, per_region) = opts.wan_size();
    let mut backend = EmulationBackend::with_seed(1);
    backend.cluster_machines = (regions * per_region).div_ceil(60);
    let snapshot = scenarios::regional_wan(regions, per_region);
    (regions, per_region, snapshot, backend)
}

/// `heap [regions per_region]`.
fn heap(opts: &Options) {
    banner("HEAP", "what a converged emulation holds, piece by piece");
    let (regions, per_region, snapshot, backend) = wan(opts);
    // `compute` from configs to the extracted dataplane, at its highest.
    let (_, _, compute) = held_by(|| backend.compute(&snapshot).expect("wan boots"));
    let ((emu, meta), emulation, _) = held_by(|| backend.run(&snapshot).expect("wan boots"));
    assert!(meta.converged, "regional_wan({regions}, {per_region})");
    let nodes = snapshot.topology.nodes.iter();
    let routers: Vec<&VirtualRouter> = nodes.filter_map(|n| emu.router(&n.name)).collect();
    let n = routers.len();
    let entries = routers.iter().map(|r| r.fib().len()).sum::<usize>().max(1);
    println!("regional_wan({regions}, {per_region}), seed 1: {n} routers, {entries} FIB entries\n");

    println!("piece            bytes  allocations  B/FIB entry");
    let row = |piece: &str, (bytes, allocs): Held| {
        println!(
            "{piece:<10} {bytes:>11} {allocs:>12} {:>12}",
            bytes / entries
        );
    };
    row("emulation", emulation);
    row("compute peak", compute);
    // A piece's share is what a clone of it asks the allocator for, summed
    // over the routers. A clone shares the stored attribute and next-hop
    // sets, so those count once, in the emulation's row. Parts of `bgp`: the
    // table (each prefix's paths and selection), its next-hop index, the
    // Adj-RIB-Outs.
    let pieces: [Piece; 9] = [
        ("router", |r| held_by(|| r.clone()).1),
        ("fib", |r| held_by(|| r.fib().clone()).1),
        ("rib", |r| held_by(|| r.rib().clone()).1),
        ("gateways", |r| held_by(|| r.gateways().clone()).1),
        ("bgp", |r| held_by(|| r.bgp_engine().cloned()).1),
        ("bgp.table", |r| {
            held_by(|| r.bgp_engine().map(|b| b.table_copies().0)).1
        }),
        ("bgp.index", |r| {
            held_by(|| r.bgp_engine().map(|b| b.table_copies().1)).1
        }),
        ("bgp.out", |r| {
            held_by(|| r.bgp_engine().map(|b| b.table_copies().2)).1
        }),
        ("isis", |r| held_by(|| r.isis_engine().cloned()).1),
    ];
    let mut router = (0, 0);
    for (piece, held) in pieces {
        let shares = routers.iter().map(|r| held(r));
        let share = shares.fold((0, 0), |t, h| (t.0 + h.0, t.1 + h.1));
        if piece == "router" {
            router = share;
        }
        row(piece, share);
    }
    // The rest of the emulation: the engine's tables and schedules, the
    // topology and parsed configs, and the stored sets the routers share —
    // as a clone holds them. A clone asks for no more than each table
    // holds; what the live tables hold beyond that is their growth slack.
    let clone = held_by(|| emu.clone()).1;
    row("engine", (clone.0 - router.0, clone.1 - router.1));
    let slack = (
        emulation.0.saturating_sub(clone.0),
        emulation.1.saturating_sub(clone.1),
    );
    row("slack", slack);

    println!("\nrole          router  selected  attr sets  stored  FIB entries  next-hop sets");
    let roles = [
        ("client", 1),
        ("reflector", 0),
        ("exit border", per_region - 1),
    ];
    for (role, r) in roles.map(|(role, i)| (role, routers[i])) {
        let Some(bgp) = r.bgp_engine() else { continue };
        let attrs: BTreeSet<_> = bgp.selected().iter().map(|(_, s)| s.attrs).collect();
        let (name, selected, stored) = (&r.name, bgp.selected().iter().count(), bgp.attr_sets());
        let hops: BTreeSet<_> = r.fib().entries().map(|e| &**e.next_hops).collect();
        let (attrs, fib, hops) = (attrs.len(), r.fib().len(), hops.len());
        println!("{role:<12} {name:>7} {selected:>9} {attrs:>10} {stored:>7} {fib:>12} {hops:>14}");
    }
}

/// `converge [regions per_region]` or `converge --grid <cols> <rows>`: the
/// wall spans of one convergence run (always on, in the obs dump's `wall`
/// section) against the run's wall time, the work counters that say how
/// often each thing was computed, and the extraction that follows: the
/// typed hand-over against the JSON Get.
fn converge(opts: &Options) {
    banner("CONVERGE", "where a convergence run's wall time goes");
    let (network, snapshot, backend) = if opts.grid {
        let (cols, rows) = opts.grid_size();
        let mut backend = EmulationBackend::with_seed(1);
        backend.cluster_machines = (cols * rows).div_ceil(60);
        let network = format!("isis_grid({cols}, {rows})");
        (network, scenarios::isis_grid(cols, rows), backend)
    } else {
        let (regions, per_region, snapshot, backend) = wan(opts);
        (
            format!("regional_wan({regions}, {per_region})"),
            snapshot,
            backend,
        )
    };
    let before = made();
    let (emu, meta) = backend.run(&snapshot).expect("network boots");
    let made = made() - before;
    assert!(meta.converged, "{network}");
    let obs = emu.export_obs();
    let us = |phase: &str| obs.wall.phase_micros(phase).unwrap_or(0);
    let run_us = us("boot") + us("flood") + us("converge");
    let events = obs.metrics.counter("engine.events.processed");
    println!(
        "{network}, seed 1: {events} events, run {:.3} s, {:.2} us/event",
        run_us as f64 / 1e6,
        run_us as f64 / events.max(1) as f64
    );
    let delivered = obs.metrics.counter("engine.messages.delivered");
    println!(
        "allocations: {made} in the run, {:.2} per delivered message ({delivered})\n",
        made as f64 / delivered.max(1) as f64
    );

    println!("span                         ms  % of run");
    let row = |span: &str, micros: u64| {
        let share = 100.0 * micros as f64 / run_us.max(1) as f64;
        println!("{span:<22} {:>8.1} {share:>9.1}", micros as f64 / 1e3);
    };
    let window_loop = [
        "converge.deliver_isis",
        "converge.deliver_bgp",
        "converge.poll",
        "converge.other",
        "converge.plan",
        "converge.settle",
    ];
    for span in window_loop {
        row(span, us(span));
    }
    row("sum", window_loop.iter().map(|span| us(span)).sum());
    println!("inside converge.poll:");
    for span in ["router.spf", "router.bgp", "router.fib"] {
        row(span, us(span));
    }
    let spf_runs = obs.metrics.counter("vrouter.spf.runs");
    println!(
        "SPF: {spf_runs} runs, {:.2} us per run",
        us("router.spf") as f64 / spf_runs.max(1) as f64
    );
    let nodes = snapshot.topology.nodes.iter();
    let engines = nodes.filter_map(|n| emu.router(&n.name)?.isis_engine());
    let merged: u64 = engines.map(|isis| isis.prefix_evaluations()).sum();
    println!("route pass: {merged} prefix evaluations");

    println!("\ncounter                              count");
    for counter in [
        "engine.polls.router",
        "vrouter.spf.runs",
        "isis.lsp_encodes",
        "isis.lsp_checksums",
        "vrouter.fib.patches",
        "vrouter.fib.prefixes_resolved",
        "fib.gateway_resolutions",
        "bgp.prefix_decisions",
        "bgp.liveness_lookups",
        "bgp.export_computations",
    ] {
        println!("{counter:<30} {:>11}", obs.metrics.counter(counter));
    }

    // Extraction as `compute` makes it, then once through the JSON Get it
    // replaced — the path the benchmark's traced run replays call by call.
    let mut extracted = Obs::new();
    let typed = extract_snapshot(emu.clone(), &backend.collector, None, &mut extracted).dataplane;
    let reference = emu.dataplane();
    let timer = WallTimer::start();
    let nodes = snapshot.topology.nodes.iter();
    let nodes = nodes.map(|n| (n.name.clone(), emu.router(&n.name)));
    let trees = backend.collector.collect(nodes);
    let afts = mfv_mgmt::collect_afts(&trees.telemetry);
    let json = mfv_mgmt::dataplane_from_afts(&afts, &reference);
    drop((trees, afts));
    let json_us = timer.elapsed_micros();
    assert_eq!(typed.digest(), json.digest(), "typed and JSON extraction");
    let typed_us = extracted.wall.phase_micros("extract").unwrap_or(0);
    println!("\nextraction                   ms  % of run");
    row("extract (typed Get)", typed_us);
    row("JSON Get (replaced)", json_us);
    println!("digests equal: {:016x}", typed.digest());

    // What the spans themselves cost: a lap is one clock reading, a router
    // section a pair of them.
    let laps = obs.wall.metrics.counter("converge.timer_laps");
    let pairs = obs.wall.metrics.counter("router.timer_pairs");
    let timer = WallTimer::start();
    let mut sink = 0u64;
    for _ in 0..1_000_000 {
        sink = sink.wrapping_add(std::hint::black_box(WallTimer::start()).elapsed_nanos());
    }
    std::hint::black_box(sink);
    let pair_ns = timer.elapsed_nanos() as f64 / 1e6;
    println!(
        "\nclock: a start/elapsed pair costs {pair_ns:.0} ns here; {laps} laps (half a pair each) \
         and {pairs} pairs are {:.2} % of the run",
        100.0 * pair_ns * (laps as f64 / 2.0 + pairs as f64) / 1e3 / run_us.max(1) as f64
    );
}

/// Writes `text` to the file at `path`, if one was asked for, and says so.
fn write_out(path: Option<&String>, what: &str, text: &str) {
    if let Some(path) = path {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {what} to {path}");
    }
}

/// `watch [cols rows] [--seed N] [--journal PATH]`: `run_watch` on an
/// `isis_grid` (7 × 6 without any) under the benchmark's faults — a link
/// flap, a routing-process kill and a machine failure, over a stream that
/// drops 10 % of batches and loses 2 % of sessions — with the device reads,
/// batches and mirror decodes it made, and its loop's wall phases against
/// the run. `--seed` seeds both the emulation and the stream.
fn watch(opts: &Options) {
    banner("WATCH", "what a watch run reads, streams and decodes");
    let (cols, rows) = opts.grid_size();
    let seed = opts.seed.unwrap_or(1);
    let snapshot = scenarios::isis_grid(cols, rows);
    let nodes = &snapshot.topology.nodes;
    let cfg = WatchRunConfig {
        backend: EmulationBackend {
            cluster_machines: 2,
            seed,
            ..Default::default()
        },
        watch: WatchConfig {
            seed,
            faults: StreamFaultModel {
                drop_pct: 10,
                session_loss_pct: 2,
            },
        },
        chaos: ChaosPlan::new()
            .link_flap(
                snapshot.topology.links[0].id(),
                SimTime(5_000),
                SimDuration::from_secs(8),
            )
            .kill_routing(nodes[nodes.len() / 2].name.clone(), SimTime(20_000))
            .fail_machine("node-1", SimTime(35_000)),
        ..Default::default()
    };
    let mut obs = Obs::new();
    let timer = WallTimer::start();
    let report = run_watch(&snapshot, &cfg, &mut obs).expect("watch runs");
    let run_us = timer.elapsed_micros();
    println!(
        "isis_grid({cols}, {rows}), {} watched: {} evaluations, run {:.3} s\n",
        cfg.duration,
        report.evaluations,
        run_us as f64 / 1e6
    );

    println!("counter                     count");
    for counter in [
        "watch.verdict_updates",
        "watch.gaps",
        "watch.session_losses",
        "watch.syncs.initial",
        "watch.resyncs",
        "watch.batches.emitted",
        "watch.batches.heartbeats",
        "watch.device_reads",
        "watch.aft_reuses",
        "watch.mirror_decodes",
    ] {
        println!("{counter:<24} {:>8}", obs.metrics.counter(counter));
    }

    println!("\nphase                    ms  % of run");
    let row = |phase: &str, micros: u64| {
        let share = 100.0 * micros as f64 / run_us.max(1) as f64;
        println!("{phase:<18} {:>8.1} {share:>9.1}", micros as f64 / 1e3);
    };
    let phases = [
        "watch.run_until",
        "watch.tick",
        "watch.dataplane",
        "watch.evaluate",
    ];
    let us = |phase: &str| obs.wall.phase_micros(phase).unwrap_or(0);
    for phase in phases {
        row(phase, us(phase));
    }
    let watched: u64 = phases.iter().map(|phase| us(phase)).sum();
    row("boot and rest", run_us.saturating_sub(watched));
    write_out(
        opts.journal.as_ref(),
        "verdict journal",
        &report.journal_text,
    );
    write_out(
        opts.obs_json.as_ref(),
        "obs dump",
        &obs.to_json(!opts.exclude_wall),
    );
}

/// `chaos`: three runs over the two-vendor 30-node WAN replica, into one obs
/// dump. The control run converges; a ring link flapping past the time
/// budget makes the watchdog report `Oscillating`, with the churning
/// prefixes and the flap period; two management planes failing past the
/// collector's retry budget leave verification to the covered nodes, with
/// its answers qualified.
fn chaos(opts: &Options) {
    banner("CHAOS", "oscillation verdicts and degraded extraction");
    let mut obs = Obs::new();
    let snapshot = scenarios::production_wan(30, 3, true, 1_000);
    println!(
        "topology: {} nodes, {} links (two-vendor)",
        snapshot.topology.nodes.len(),
        snapshot.topology.links.len()
    );
    let mut backend = EmulationBackend::with_seed(3);
    backend.cluster_machines = 2;

    let mut control = backend.compute(&snapshot).unwrap();
    obs.merge(std::mem::take(&mut control.obs));
    let boot = control.meta.boot_time.unwrap();
    println!(
        "control:  verdict={}  boot={}  convergence={}  msgs={}",
        control.meta.verdict.as_ref().unwrap(),
        boot,
        control.meta.convergence_time.unwrap(),
        control.meta.messages
    );

    // The first ring link flaps from 60 s into steady state, on past the
    // (shortened) time budget.
    let link = snapshot.topology.links[0].id();
    println!("flapping {link}: down 8s, every 20s, past the budget");
    backend.max_sim_time = SimDuration::from_millis(boot.as_millis() + 400_000);
    backend.chaos = ChaosPlan::new().repeated_link_flap(
        link,
        SimTime(boot.as_millis() + 60_000),
        SimDuration::from_secs(8),
        40,
        SimDuration::from_secs(20),
    );
    let mut chaotic = backend.compute(&snapshot).unwrap();
    obs.merge(std::mem::take(&mut chaotic.obs));
    println!(
        "chaos:    verdict={}  msgs={}",
        chaotic.meta.verdict.as_ref().unwrap(),
        chaotic.meta.messages
    );

    // Degraded extraction on the fault-free network.
    backend.chaos = ChaosPlan::default();
    backend.max_sim_time = SimDuration::from_mins(120);
    backend.collector.failures.force_fail.insert("r7".into());
    backend.collector.failures.force_fail.insert("r19".into());
    let mut degraded = backend.compute(&snapshot).unwrap();
    obs.merge(std::mem::take(&mut degraded.obs));
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
    write_out(
        opts.obs_json.as_ref(),
        "obs dump",
        &obs.to_json(!opts.exclude_wall),
    );
}

/// `sweep [cols rows]`: every single-link cut of an `isis_grid` (6 × 5,
/// `grid30_whatif`'s network, without any), one context at a time, as the
/// sweep records them: each phase's median wall time and allocations, and
/// the median context's events, SPF runs and route-pass merges.
fn sweep(opts: &Options) {
    banner("SWEEP", "what one what-if context costs, phase by phase");
    let (cols, rows) = opts.sweep_size();
    let snapshot = scenarios::isis_grid(cols, rows);
    let mut backend = EmulationBackend::with_seed(1);
    backend.threads = 1;
    let contexts = link_cut_contexts(&snapshot, 1);
    let report = verify_link_cuts_detailed(&snapshot, &backend, contexts, None).expect("boots");
    let verdicts: Vec<&CutVerdict> = report.verdicts.iter().flatten().collect();
    assert_eq!(verdicts.len(), report.costs.len(), "a context failed");
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    println!(
        "isis_grid({cols}, {rows}), seed 1: {} contexts, one at a time; baseline {} events\n",
        verdicts.len(),
        report.baseline_events
    );
    println!("phase                  median ms  allocations");
    let row = |phase: &str, laps: Vec<(u64, u64)>| {
        let (ns, allocs) = laps.into_iter().unzip();
        let (ms, allocs) = (median(ns) as f64 / 1e6, median(allocs));
        println!("{phase:<22} {ms:>9.3} {allocs:>12}");
    };
    for (i, phase) in PHASES.split(' ').enumerate() {
        let laps = report.costs.iter().map(|c| (c[i].nanos, c[i].allocs));
        row(phase, laps.collect());
    }
    let total = |c: &ContextCost| {
        c.iter()
            .fold((0, 0), |t, l| (t.0 + l.nanos, t.1 + l.allocs))
    };
    row("context", report.costs.iter().map(total).collect());
    let per = |count: fn(&CutVerdict) -> u64| median(verdicts.iter().map(|v| count(v)).collect());
    println!(
        "\nper context (median): {} events, {} SPF runs, {} route-pass prefix evaluations",
        per(|v| v.events_after_fork),
        per(|v| v.spf_runs),
        per(|v| v.prefix_evaluations)
    );
    let read = per(|v| v.routers_read as u64);
    let of = snapshot.topology.nodes.len();
    println!("routers re-read per context (median): {read} of {of}");
    let findings: usize = verdicts.iter().map(|v| v.findings.len()).sum();
    println!("findings over all contexts: {findings}");
    let ((hits, misses), (shape_hits, shape_misses)) = (report.class_cache, report.shape_cache);
    println!(
        "class cache: node classes {hits} reused, {misses} built; \
         index shapes {shape_hits} reused, {shape_misses} built"
    );
}
