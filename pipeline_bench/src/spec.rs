//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! the stage breakdown of the untraced run, and the per-layer metrics of
//! the traced run. `BENCHMARK.json` lists the same names; `tests/smoke.rs`
//! fails when the two drift apart.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse
    /// (end-to-end and stage metrics only).
    pub bound: f64,
    /// The count repeats exactly for a seed; `--compare` requires equality.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    timing(name, unit, 0.0)
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
        exact: true,
    }
}

const fn count(name: &'static str) -> Metric {
    exact(name, "count")
}

const fn ratio(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "ratio",
        higher_is_better: true,
        bound: 0.0,
        exact: false,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "wan1000_converge",
    "grid60_verify",
    "grid42_watch",
    "grid30_whatif",
];

/// What every workload reports from the untraced run.
pub const END_TO_END: &[Metric] = &[
    timing("pipeline_s", "s", 0.25),
    timing("setup_s", "s", 0.25),
    timing("peak_heap_mb", "MB", 0.15),
];

/// The parts of `pipeline_s`, per workload, from the same untraced run.
/// A workload reports only the stages it has.
pub const STAGES: &[Metric] = &[
    timing("dataplane_s", "s", 0.15),
    timing("verdict_s", "s", 0.10),
    timing("index_build_s", "s", 0.10),
    timing("serve_s", "s", 0.15),
    timing("query_p50_us", "us", 0.15),
    timing("query_p99_us", "us", 0.25),
    Metric {
        name: "query_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.15,
        exact: false,
    },
    timing("watch_s", "s", 0.15),
    timing("sweep_s", "s", 0.15),
];

/// What the traced run reports; 0 where a workload never enters the layer.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.pipeline_s", "s"),
    layer("trace.harness_self_s", "s"),
    layer("trace.spans", "count"),
    layer("host.cpus", "count"),
    layer("stage.dataplane_s", "s"),
    layer("stage.verdict_s", "s"),
    layer("stage.index_build_s", "s"),
    layer("stage.serve_s", "s"),
    layer("stage.watch_s", "s"),
    layer("stage.sweep_s", "s"),
    layer("conflint.analyze_s", "s"),
    layer("emulator.new_s", "s"),
    layer("emulator.converge_s", "s"),
    layer("emulator.us_per_event", "us"),
    count("emulator.events_processed"),
    count("emulator.events_scheduled"),
    count("emulator.messages_delivered"),
    count("emulator.deliver_isis"),
    count("emulator.deliver_bgp"),
    count("emulator.router_polls"),
    count("emulator.shards"),
    exact("emulator.sim_boot_s", "s"),
    exact("emulator.sim_converge_s", "s"),
    layer("emulator.export_dataplane_s", "s"),
    layer("emulator.teardown_s", "s"),
    layer("emulator.converge_par_s", "s"),
    ratio("emulator.thread_speedup"),
    count("vrouter.fib_patches"),
    count("vrouter.fib_full_refreshes"),
    count("vrouter.rib_resyncs"),
    ratio("vrouter.patch_ratio"),
    count("vrouter.decode_errors"),
    layer("routing.rib_to_fib_ns_per_route", "ns"),
    layer("routing.fib_lookup_ns", "ns"),
    layer("wire.bgp_update_roundtrip_ns", "ns"),
    layer("wire.isis_lsp_roundtrip_ns", "ns"),
    layer("mgmt.collect_s", "s"),
    layer("mgmt.collect_afts_s", "s"),
    layer("mgmt.dataplane_from_afts_s", "s"),
    layer("mgmt.teardown_s", "s"),
    count("mgmt.rpc_attempts"),
    count("mgmt.aft_entries"),
    layer("mgmt.aft_json_roundtrip_ns_per_entry", "ns"),
    layer("mgmt.gnmi_diff_us", "us"),
    layer("mgmt.gnmi_apply_us", "us"),
    layer("mgmt.watch_tick_ms_p50", "ms"),
    layer("mgmt.watch_tick_ms_p99", "ms"),
    layer("mgmt.watch_dataplane_ms", "ms"),
    count("mgmt.watch_gaps"),
    count("mgmt.watch_resyncs"),
    layer("dataplane.digest_s", "s"),
    count("dataplane.fib_entries"),
    layer("types.trie_insert_ns", "ns"),
    layer("types.trie_lookup_ns", "ns"),
    layer("types.ipset_intersect_ns", "ns"),
    layer("types.ipset_subtract_ns", "ns"),
    layer("verify.analysis_new_s", "s"),
    layer("verify.warm_s", "s"),
    count("verify.classes"),
    layer("verify.unreachable_pairs_s", "s"),
    layer("verify.loops_s", "s"),
    layer("verify.blackholes_s", "s"),
    count("verify.memo_hits"),
    count("verify.memo_misses"),
    ratio("verify.memo_hit_ratio"),
    ratio("verify.class_cache_hit_ratio"),
    layer("verify.standing_evaluate_ms_p50", "ms"),
    layer("verify.standing_evaluate_ms_p99", "ms"),
    count("verify.pair_evaluations"),
    count("verify.pair_reuses"),
    ratio("verify.pair_reuse_ratio"),
    layer("verify.diff_ms_p50", "ms"),
    layer("serve.index_new_s", "s"),
    layer("serve.client_p50_us", "us"),
    layer("serve.client_p99_us", "us"),
    Metric {
        name: "serve.client_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.0,
        exact: false,
    },
    layer("serve.handle_reach_us_p50", "us"),
    layer("serve.handle_reach_us_p99", "us"),
    layer("serve.handle_fate_us_p50", "us"),
    layer("serve.handle_trace_us_p50", "us"),
    layer("serve.framing_overhead_us", "us"),
    layer("core.whatif_baseline_s", "s"),
    layer("core.whatif_context_ms_p50", "ms"),
    layer("core.whatif_context_ms_p99", "ms"),
    ratio("core.whatif_emulate_share"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.contains(&name)
}
