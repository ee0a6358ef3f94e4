//! The metric tables: every name the ledger prints, with its unit and
//! direction, and `BENCHMARK.json` as generated from them
//! (`bolt_ledger describe`; a test keeps the committed file in step).

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that repeats exactly for a seed:
    /// `compare` holds it to a bound of zero.
    pub exact: bool,
}

impl MetricDef {
    const fn exact(mut self) -> MetricDef {
        self.exact = true;
        self
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// End-to-end metrics, reported by every workload's untraced run. What
/// one operation is depends on the workload (see the README): a catalog
/// round, a chain round, a reply, a packet.
pub const END_TO_END: [MetricDef; 4] = [
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
];

/// By how much of the parent's median each end-to-end metric may get
/// worse before a change is rejected, in [`END_TO_END`]'s order.
pub const BOUNDS: [f64; 4] = [0.15, 0.15, 0.25, 0.10];

/// Per-layer metrics, reported by every workload's traced run. A time
/// reads 0 on a workload that never enters the layer; a count reads 0
/// when the layer did no such work.
pub const PER_LAYER: [MetricDef; 91] = [
    // see: symbolic exploration and its result codec.
    lower("see.explore_us", "us"),
    lower("see.explore_par2_us", "us"),
    lower("see.encode_result_us", "us"),
    lower("see.decode_result_us", "us"),
    lower("see.runs", "count").exact(),
    lower("see.paths", "count").exact(),
    lower("see.terms_interned", "count").exact(),
    // solver: exact work counters per round, and a direct check probe.
    lower("solver.checks_requested", "count").exact(),
    lower("solver.queries", "count").exact(),
    higher("solver.memo_hits", "count").exact(),
    higher("solver.witness_hits", "count").exact(),
    higher("solver.unsat_by_propagation", "count").exact(),
    lower("solver.check_us", "us"),
    // expr: term pools and performance expressions.
    lower("expr.absorb_us", "us"),
    lower("expr.perf_eval_ns", "ns"),
    // core: contract generation, queries, codec, chain composition.
    lower("core.generate_us", "us"),
    lower("core.get_or_explore_us", "us"),
    lower("core.query_us", "us"),
    lower("core.query_tag_us", "us"),
    lower("core.encode_contract_us", "us"),
    lower("core.decode_contract_us", "us"),
    lower("core.stage_contracts_us", "us"),
    lower("core.compose_pair_us", "us"),
    lower("core.plan_us", "us"),
    lower("core.compose_par2_us", "us"),
    // store: the on-disk record store.
    lower("store.open_us", "us"),
    lower("store.put_us", "us"),
    lower("store.round_disk_wait_us", "us"),
    lower("store.get_us", "us"),
    lower("store.header_us", "us"),
    lower("store.touch_us", "us"),
    lower("store.list_us", "us"),
    lower("store.record_bytes", "B"),
    higher("store.hits", "count"),
    lower("store.misses", "count"),
    // serve.protocol: frame codec.
    lower("protocol.req_encode_ns", "ns"),
    lower("protocol.req_decode_ns", "ns"),
    lower("protocol.resp_encode_ns", "ns"),
    lower("protocol.resp_decode_ns", "ns"),
    lower("protocol.framebuf_ns", "ns"),
    lower("protocol.reply_bytes", "B"),
    // serve.service: the in-process engine.
    higher("service.inproc_ops_per_s", "1/s"),
    lower("service.dispatch_ns", "ns"),
    lower("service.handle_memo_ns", "ns"),
    lower("service.handle_miss_us", "us"),
    lower("service.handle_load_us", "us"),
    lower("service.diff_us", "us"),
    lower("service.list_us", "us"),
    lower("service.provenance_us", "us"),
    higher("service.predicted_ops_per_s", "1/s"),
    // serve.cache: the hot-contract cache.
    lower("cache.lookup_ns", "ns"),
    lower("cache.insert_evict_ns", "ns"),
    higher("cache.hit_ratio", "ratio"),
    higher("cache.memo_hit_ratio", "ratio"),
    lower("cache.decodes", "count"),
    lower("cache.evictions", "count"),
    lower("cache.explorations", "count"),
    // serve.server: what the sockets and the event loop add.
    lower("server.residual_d1_us", "us"),
    lower("server.residual_d8_us", "us"),
    lower("server.rw_syscalls_per_op", "1/op"),
    lower("server.ctx_switches_per_op", "1/op"),
    lower("server.phase_read_p50_ns", "ns"),
    lower("server.phase_handle_p50_ns", "ns"),
    lower("server.phase_write_p50_ns", "ns"),
    // client: latency tails, reported and not gated (on a shared machine
    // everything above the median moves by a fifth between identical runs).
    lower("client.op_p90_us", "us"),
    lower("client.rtt_p99_us", "us"),
    lower("client.warm_p99_us", "us"),
    lower("client.churn_p99_us", "us"),
    // dpdk-sim, distiller: the production builds under the runner.
    lower("dpdk.process_packet_ns", "ns"),
    higher("runner.nat_pkts_per_s", "1/s"),
    higher("runner.bridge_pkts_per_s", "1/s"),
    higher("runner.lb_pkts_per_s", "1/s"),
    higher("runner.lpm_pkts_per_s", "1/s"),
    higher("runner.lpm_burst32_pkts_per_s", "1/s"),
    lower("runner.nat_sim_cycles_per_pkt", "cycles").exact(),
    lower("runner.bridge_sim_cycles_per_pkt", "cycles").exact(),
    lower("runner.lb_sim_cycles_per_pkt", "cycles").exact(),
    lower("runner.lpm_sim_cycles_per_pkt", "cycles").exact(),
    lower("distiller.worst_assignment_us", "us"),
    // Simulated counts: exact for a seed, compared as counts.
    lower("replay.sim_cycles_per_pkt", "cycles").exact(),
    lower("tight.cycles_geomean_x", "ratio").exact(),
    lower("tight.ic_geomean_x", "ratio").exact(),
    // nf-lib: the stateful data structures driven directly.
    lower("nflib.flow_table_get_ns", "ns"),
    lower("nflib.dir24_8_lookup_ns", "ns"),
    lower("nflib.maglev_lookup_ns", "ns"),
    lower("nflib.alloc_a_roundtrip_ns", "ns"),
    lower("nflib.alloc_b_roundtrip_ns", "ns"),
    // ledger: the harness itself.
    lower("ledger.trace_overhead_pct", "%"),
    higher("ledger.accounted_pct", "%"),
    lower("ledger.machine_slowdown", "ratio"),
    higher("ledger.tmp_is_tmpfs", "count"),
];

/// Values of the per-layer metrics for one traced run; every name of
/// [`PER_LAYER`] is present, 0 until set.
pub struct LayerValues {
    values: Vec<f64>,
}

impl LayerValues {
    /// All zeros.
    pub fn new() -> Self {
        LayerValues {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    /// Set a metric. Panics on a name that is not in [`PER_LAYER`]: that
    /// is a bug in the ledger, not in the program under test.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[i] = value;
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .map_or(0.0, |i| self.values[i])
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        PER_LAYER.iter().zip(self.values.iter().copied())
    }
}

/// `BENCHMARK.json`, generated from the tables here and the workload
/// list: the one place a name, unit, direction, bound or reason is
/// written down.
pub fn benchmark_json() -> String {
    use crate::json::quote;
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bolt-ledger/Cargo.toml",
        "--",
        "run",
    ];
    let list = |items: Vec<String>| items.join(",\n    ");
    let def = |m: &MetricDef| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bolt-ledger\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(quote).join(", "),
        crate::FULL_SECONDS,
        list(
            crate::workloads::WORKLOADS
                .iter()
                .map(|(name, why)| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    quote(name),
                    quote(why)
                ))
                .collect()
        ),
        list(
            END_TO_END
                .iter()
                .zip(BOUNDS)
                .map(|(m, bound)| format!("{{{}, \"bound\": {bound}}}", def(m)))
                .collect()
        ),
        list(
            PER_LAYER
                .iter()
                .map(|m| format!("{{{}}}", def(m)))
                .collect()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` at the repository root is what `describe`
    /// prints, and meets the driver's limits.
    #[test]
    fn benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let generated = benchmark_json();
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            generated,
            "regenerate with `bolt_ledger describe > BENCHMARK.json`"
        );
        let doc = json::parse(&generated).unwrap();
        assert!(generated.len() <= 64 * 1024);
        let setup = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        assert!(BOUNDS.iter().all(|b| (0.0..=0.25).contains(b)));
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
