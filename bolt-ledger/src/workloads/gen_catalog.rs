//! `gen_catalog` — cold contract generation, the path users pay once per
//! NF configuration, for all 8 NFs × 2 stack levels at one exploration
//! thread. The explorer, `TermPool` interning, `generate`, the result
//! codec and the store's write path do the work; the solver is nearly
//! idle and the serving layers are absent.
//!
//! One operation is one round over the 16 contracts in seeded order, and
//! there are two kinds of round, each a path users call:
//!
//! * a **stored** round opens a fresh `ContractStore` and runs
//!   `StoreExt::get_or_explore` → `generate` → one `query` per metric:
//!   lookup miss, exploration, record encoding and a durable `put`. Its
//!   duration is the workload's latency (`op_p50_us`), on the thread's
//!   CPU clock: the scratch directory must be inside the checkout, so on
//!   a disk, and each of the 16 `put`s waits 0.2 to 0.6 ms for an
//!   `fsync` there — a third to more than half of the round's wall time,
//!   drifting by a third within a minute, and the host's disk, not the
//!   program. The
//!   CPU clock keeps everything the program executes on that path, the
//!   system calls included, and leaves the waiting out (what a store on
//!   tmpfs would have measured); the waiting is reported beside it.
//! * an **in-memory** round runs `explore` → `encode_result` → `generate`
//!   → the queries with no store (the default `Bolt::nf(..)` pipeline).
//!   Its rate is the workload's throughput (`ops_per_s`).
//!
//! After a stored round every record is read back: it decodes, re-encodes
//! to the same bytes, and generates a contract with the golden
//! fingerprint.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bolt_core::store::{level_tag, store_key, StoreExt};
use bolt_core::{
    decode_contract, encode_contract, generate, ClassSpec, InputClass, NetworkFunction, NfContract,
};
use bolt_expr::{PcvAssignment, TermPool, TermRef};
use bolt_see::codec::{decode_result, encode_result};
use bolt_see::ExploreStats;
use bolt_solver::Solver;
use bolt_store::{ContractStore, Fingerprint, RecordKind};
use bolt_trace::Metric;
use dpdk_sim::StackLevel;
use nf_lib::registry::DsRegistry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{busy_clock_windows, shuffle, Checks, EndToEnd, RunConfig, Windows, Workload};
use crate::catalog::{self, visit_nf, NfVisitor};
use crate::fingerprint::{contract_section, Golden};
use crate::metrics::LayerValues;
use crate::sys;
use crate::trace::Tracer;

/// Rounds of each kind in the traced slice per second of `--seconds`.
const TRACED_ROUNDS_PER_SECOND: f64 = 1.0;
/// In-memory warm-up rounds in set-up (a stored one follows): they page
/// in the code and size the allocator's arenas, and make `setup_s` long
/// enough to time steadily.
const WARMUP_ROUNDS: u64 = 3;

/// What one contract's generation produced.
struct Generated {
    /// The NF's index in the catalog.
    index: usize,
    name: &'static str,
    level: StackLevel,
    key: Fingerprint,
    /// The encoded exploration record; empty after a stored round (the
    /// store encoded it).
    payload: Vec<u8>,
    /// Whether the store answered from a record: never, in a fresh one.
    cached: bool,
    n_paths: usize,
    stats: ExploreStats,
    contract: NfContract,
    /// The unconstrained class's prediction per metric, empty binding.
    worst: [Option<u64>; 3],
}

/// The timed operation for one (NF, level): through `store` when there
/// is one, in memory otherwise.
struct Generate<'t> {
    index: usize,
    level: StackLevel,
    store: Option<&'t ContractStore>,
    tracer: &'t mut Tracer,
}

impl NfVisitor for Generate<'_> {
    type Out = Generated;

    fn visit<N: NetworkFunction + Sync>(self, name: &'static str, nf: &N) -> Generated {
        let Generate {
            index,
            level,
            store,
            tracer,
        } = self;
        tracer.next_op();
        tracer.open("gen_catalog.contract");
        let (ex, payload) = match store {
            Some(store) => {
                let ex = tracer.time("core.get_or_explore", || {
                    store.get_or_explore_threads(nf, level, 1)
                });
                (ex, Vec::new())
            }
            None => {
                let ex = tracer.time("see.explore", || nf.explore_threads(level, 1));
                let payload = tracer.time("see.encode_result", || encode_result(&ex.result));
                (ex, payload)
            }
        };
        let cached = ex.cached;
        let stats = ex.result.stats;
        let n_paths = ex.result.paths.len();
        let mut contract = tracer.time("core.generate", || ex.contract());
        let class = InputClass::unconstrained();
        let env = PcvAssignment::new();
        let worst = Metric::ALL.map(|m| {
            tracer.time("core.query", || {
                contract.query(&class, m, &env).map(|r| r.value)
            })
        });
        tracer.close();
        Generated {
            index,
            name,
            level,
            key: store_key(nf, level),
            payload,
            cached,
            n_paths,
            stats,
            contract: contract.into_inner(),
            worst,
        }
    }
}

/// The registry an NF's contract is generated against, for regenerating
/// it from a stored record.
struct Registry;

impl NfVisitor for Registry {
    type Out = DsRegistry;

    fn visit<N: NetworkFunction + Sync>(self, _name: &'static str, nf: &N) -> DsRegistry {
        let mut reg = DsRegistry::new();
        nf.register(&mut reg);
        reg
    }
}

/// The workload.
pub struct GenCatalog {
    golden: Golden,
    rng: SmallRng,
    order: Vec<(usize, StackLevel)>,
    dir: PathBuf,
    rounds: u64,
    /// Per stored round, the wall time the thread spent off the CPU.
    disk_wait_ns: Vec<u64>,
}

impl GenCatalog {
    /// Generate every contract of the catalog once, in a freshly
    /// shuffled order: through a fresh store (opened inside the timed
    /// operation, as a first-time user's is) when `stored`, in memory
    /// otherwise. Returns the results, the store and the elapsed
    /// nanoseconds.
    fn round(
        &mut self,
        stored: bool,
        tracer: &mut Tracer,
    ) -> (Vec<Generated>, Option<ContractStore>, u64) {
        shuffle(&mut self.rng, &mut self.order);
        self.rounds += 1;
        let store_dir = self.dir.join(format!("store-{}", self.rounds));
        let mut out = Vec::with_capacity(self.order.len());
        let t0 = Instant::now();
        let cpu0 = sys::thread_cpu_ns();
        tracer.open("gen_catalog.round");
        let store = stored.then(|| tracer.time("store.open", || ContractStore::open(&store_dir)));
        let store = store.and_then(Result::ok);
        if store.is_some() == stored {
            for &(index, level) in &self.order {
                let store = store.as_ref();
                out.push(visit_nf(
                    index,
                    Generate {
                        index,
                        level,
                        store,
                        tracer,
                    },
                ));
            }
        }
        tracer.close();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        // A stored round is timed on the thread's CPU clock where there
        // is one: the wall time less the waits on the disk.
        let ns = match (stored, cpu0, sys::thread_cpu_ns()) {
            (true, Some(cpu0), Some(cpu1)) => {
                self.disk_wait_ns.push(wall_ns.saturating_sub(cpu1 - cpu0));
                cpu1 - cpu0
            }
            _ => wall_ns,
        };
        (out, store, ns)
    }

    /// Check one round's outputs: every contract's fingerprint against
    /// the golden file, and after a stored round every record read back
    /// from the store, which is then removed.
    fn verify(
        &mut self,
        stored: bool,
        generated: &[Generated],
        store: Option<ContractStore>,
        checks: &mut Checks,
    ) {
        checks.ensure(generated.len() == self.order.len(), || {
            format!("round {}: could not open a fresh store", self.rounds)
        });
        for g in generated {
            checks.check(self.fingerprint_ok(g));
            if let Some(store) = &store {
                checks.check(self.record_ok(store, g));
            }
        }
        if stored {
            let _ = std::fs::remove_dir_all(self.dir.join(format!("store-{}", self.rounds)));
        }
    }

    /// The record a stored round left behind: written by this round,
    /// decodes, re-encodes to the same bytes, and generates the same
    /// contract.
    fn record_ok(&self, store: &ContractStore, g: &Generated) -> Result<(), String> {
        let what = format!("{} {:?}", g.name, g.level);
        if g.cached {
            return Err(format!("{what}: a fresh store answered from a record"));
        }
        let bytes = store
            .get(g.key, RecordKind::Exploration)
            .ok_or_else(|| format!("{what}: no record after get_or_explore"))?;
        let decoded = decode_result(&bytes).map_err(|e| format!("{what}: decode: {e:?}"))?;
        if encode_result(&decoded) != bytes {
            return Err(format!("{what}: decoded record re-encodes differently"));
        }
        let regenerated = generate(&visit_nf(g.index, Registry), decoded);
        self.golden
            .check(&contract_section(g.name, g.level, &regenerated))
    }

    fn fingerprint_ok(&self, g: &Generated) -> Result<(), String> {
        self.golden
            .check(&contract_section(g.name, g.level, &g.contract))?;
        // The unconstrained query must report the worst path.
        let env = PcvAssignment::new();
        for m in Metric::ALL {
            let worst = g.contract.paths.iter().map(|p| p.expr(m).eval(&env)).max();
            if g.worst[m.index()] != worst {
                return Err(format!(
                    "{} {:?}: query({m}) = {:?}, worst path = {worst:?}",
                    g.name,
                    g.level,
                    g.worst[m.index()]
                ));
            }
        }
        Ok(())
    }

    /// Median time a stored round spent off the CPU so far, microseconds.
    fn disk_wait_us(&self) -> f64 {
        let waits: Vec<f64> = self
            .disk_wait_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        crate::stats::median(&waits)
    }

    /// Untraced, checked rounds of one kind until `seconds` of wall time
    /// have passed.
    fn timed_rounds(
        &mut self,
        stored: bool,
        cfg: &RunConfig,
        seconds: f64,
        checks: &mut Checks,
    ) -> Windows {
        let mut off = Tracer::disabled();
        busy_clock_windows(cfg, seconds, || {
            let (generated, store, ns) = self.round(stored, &mut off);
            self.verify(stored, &generated, store, checks);
            ns
        })
    }
}

fn store_roundtrip(
    store: &ContractStore,
    g: &Generated,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let what = format!("{} {:?}", g.name, g.level);
    tracer.open("gen_catalog.store_roundtrip");
    let put = tracer.time("store.put", || {
        store.put(
            g.key,
            RecordKind::Exploration,
            g.name,
            level_tag(g.level),
            g.n_paths as u64,
            &g.payload,
        )
    });
    let got = tracer.time("store.get", || store.get(g.key, RecordKind::Exploration));
    let decoded = got
        .as_deref()
        .map(|bytes| tracer.time("see.decode_result", || decode_result(bytes)));
    tracer.close();
    put.map_err(|e| format!("{what}: put: {e}"))?;
    let got = got.ok_or_else(|| format!("{what}: get after put missed"))?;
    if got != g.payload {
        return Err(format!("{what}: get returned different bytes than put"));
    }
    let decoded = decoded
        .expect("decoded whenever got")
        .map_err(|e| format!("{what}: decode: {e:?}"))?;
    if encode_result(&decoded) != g.payload {
        return Err(format!("{what}: decoded record re-encodes differently"));
    }
    Ok(())
}

impl Workload for GenCatalog {
    fn setup(cfg: &RunConfig, dir: &Path, checks: &mut Checks) -> Result<Self, String> {
        let mut w = GenCatalog {
            golden: Golden::parse(include_str!("../../golden/catalog.txt")),
            rng: SmallRng::seed_from_u64(cfg.seed),
            order: catalog::contracts(),
            dir: dir.to_path_buf(),
            rounds: 0,
            disk_wait_ns: Vec::new(),
        };
        let mut off = Tracer::disabled();
        for warmup in 0..=WARMUP_ROUNDS {
            let stored = warmup == WARMUP_ROUNDS;
            let (generated, store, _) = w.round(stored, &mut off);
            w.verify(stored, &generated, store, checks);
        }
        Ok(w)
    }

    fn measure(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd {
        let stored = self.timed_rounds(true, cfg, seconds / 2.0, checks);
        let in_memory = self.timed_rounds(false, cfg, seconds / 2.0, checks);
        let mut e2e = EndToEnd::from_phases(
            "one round over the 16 catalog contracts (throughput: explore, encode, generate, 3 \
             queries each, in memory; latency: CPU time of get_or_explore on a fresh store on \
             disk, generate, 3 queries each)",
            &in_memory,
            &stored,
        );
        e2e.notes.push(format!(
            "a stored round also waited {:.0} us (median) off the CPU, for the disk: not in \
             op_p50_us",
            self.disk_wait_us()
        ));
        e2e
    }

    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        // Untraced reference slices: the per-round times the traced
        // slices are compared with.
        let stored = self.timed_rounds(true, cfg, cfg.seconds * 0.15, checks);
        let in_memory = self.timed_rounds(false, cfg, cfg.seconds * 0.15, checks);
        let stored_us = crate::stats::median(&stored.p50_us);
        let in_memory_us = crate::stats::median(&in_memory.p50_us);
        layers.set("client.op_p90_us", crate::stats::median(&stored.p90_us));

        // Traced slices: a fixed number of rounds of each kind.
        let rounds = (cfg.seconds * TRACED_ROUNDS_PER_SECOND).ceil().max(1.0) as usize;
        let mut traced_us = Vec::with_capacity(rounds);
        let mut last = Vec::new();
        for _ in 0..rounds {
            let (generated, store, _) = self.round(true, tracer);
            self.verify(true, &generated, store, checks);
            let (generated, _, ns) = self.round(false, tracer);
            traced_us.push(ns as f64 / 1e3);
            self.verify(false, &generated, None, checks);
            last = generated;
        }
        let per_contract = |name: &str| tracer.mean_ns(name) / 1e3;
        layers.set("see.explore_us", per_contract("see.explore"));
        layers.set("see.encode_result_us", per_contract("see.encode_result"));
        layers.set(
            "core.get_or_explore_us",
            per_contract("core.get_or_explore"),
        );
        layers.set("core.generate_us", per_contract("core.generate"));
        layers.set("core.query_us", per_contract("core.query"));
        layers.set("store.open_us", per_contract("store.open"));
        layers.set("store.round_disk_wait_us", self.disk_wait_us());

        // Exact work counters of one round (every round does the same).
        let mut stats = ExploreStats::default();
        let mut paths = 0usize;
        for g in &last {
            stats.solver.merge(&g.stats.solver);
            stats.runs += g.stats.runs;
            stats.terms_interned += g.stats.terms_interned;
            paths += g.n_paths;
        }
        layers.set("see.runs", stats.runs as f64);
        layers.set("see.paths", paths as f64);
        layers.set("see.terms_interned", stats.terms_interned as f64);
        layers.set(
            "solver.checks_requested",
            stats.solver.checks_requested as f64,
        );
        layers.set("solver.queries", stats.solver.solver_queries as f64);
        layers.set("solver.memo_hits", stats.solver.memo_hits as f64);
        layers.set(
            "solver.witness_hits",
            stats.solver.witness_reuse_hits as f64,
        );
        layers.set(
            "solver.unsat_by_propagation",
            stats.solver.unsat_by_propagation as f64,
        );
        if in_memory_us > 0.0 {
            layers.set(
                "ledger.trace_overhead_pct",
                (crate::stats::median(&traced_us) - in_memory_us) / in_memory_us * 100.0,
            );
        }

        self.probes(&last, checks, tracer, layers);

        // How much of the traced rounds is inside the layers' spans (the
        // rest is the rounds' and the contracts' self time: the glue
        // between the calls), and the stored round put together from its
        // parts: a store opened, and per contract an exploration, an
        // encoding, a `put` (timed by the probes above; inside
        // `get_or_explore` it cannot be seen from out here), a `generate`
        // and three queries.
        let round_ns = tracer.total_ns("gen_catalog.round");
        let glue_ns = tracer.self_ns("gen_catalog.round") + tracer.self_ns("gen_catalog.contract");
        if round_ns > 0 {
            layers.set(
                "ledger.accounted_pct",
                (1.0 - glue_ns as f64 / round_ns as f64) * 100.0,
            );
        }
        let n = last.len() as f64;
        let parts_us = layers.get("store.open_us")
            + n * (layers.get("see.explore_us")
                + layers.get("see.encode_result_us")
                + layers.get("store.put_us")
                + layers.get("core.generate_us")
                + 3.0 * layers.get("core.query_us"));
        let wall_us = stored_us + layers.get("store.round_disk_wait_us");
        println!(
            "   stored round: p50 {stored_us:.0} us on the CPU + {:.0} us waiting for the disk = \
             {wall_us:.0} us; open + 16 x (explore + encode + put + generate + 3 queries) = \
             {parts_us:.0} us ({:.1} %); in-memory round p50 {in_memory_us:.0} us",
            wall_us - stored_us,
            parts_us / wall_us.max(f64::MIN_POSITIVE) * 100.0
        );
    }
}

impl GenCatalog {
    /// Direct probes of the layers this workload loads, over the
    /// catalog's own contracts.
    fn probes(
        &mut self,
        catalog: &[Generated],
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        const REPS: usize = 5;
        let solver = Solver::default();
        let empty = PcvAssignment::new();
        for _ in 0..REPS {
            for g in catalog {
                let c = &g.contract;
                tracer.batch("solver.check", c.paths.len() as u32, || {
                    for p in &c.paths {
                        black_box(solver.check(&c.pool, &p.constraints));
                    }
                });
                tracer.time("expr.absorb", || {
                    let mut syms: HashMap<String, TermRef> = HashMap::new();
                    let mut fresh = TermPool::new();
                    black_box(fresh.absorb_with(&c.pool, |pool, name, width| {
                        *syms
                            .entry(name.to_string())
                            .or_insert_with(|| pool.fresh_sym(name, width))
                    }));
                });
                tracer.batch("expr.perf_eval", (c.paths.len() * 3 * 64) as u32, || {
                    for _ in 0..64 {
                        for p in &c.paths {
                            for m in Metric::ALL {
                                black_box(p.expr(m).eval(black_box(&empty)));
                            }
                        }
                    }
                });
                let bytes = tracer.time("core.encode_contract", || encode_contract(c));
                let decoded = tracer.time("core.decode_contract", || decode_contract(&bytes));
                checks.ensure(decoded.is_ok_and(|d| encode_contract(&d) == bytes), || {
                    format!("{} {:?}: contract codec round trip", g.name, g.level)
                });
            }
        }
        // Tag-class queries need `&mut` (class constraints intern into
        // the pool), so they run on decoded copies.
        for g in catalog {
            let Some(tag) = g
                .contract
                .paths
                .iter()
                .find_map(|p| p.tags.first().copied())
            else {
                continue;
            };
            let mut copy =
                decode_contract(&encode_contract(&g.contract)).expect("checked round trip");
            let class = InputClass::new("probe", ClassSpec::Tag(tag));
            for m in Metric::ALL {
                tracer.time("core.query_tag", || {
                    black_box(copy.query(&solver, &class, m, &empty))
                });
            }
        }
        layers.set("solver.check_us", tracer.mean_ns("solver.check") / 1e3);
        layers.set("expr.absorb_us", tracer.mean_ns("expr.absorb") / 1e3);
        layers.set("expr.perf_eval_ns", tracer.mean_ns("expr.perf_eval"));
        layers.set(
            "core.encode_contract_us",
            tracer.mean_ns("core.encode_contract") / 1e3,
        );
        layers.set(
            "core.decode_contract_us",
            tracer.mean_ns("core.decode_contract") / 1e3,
        );
        layers.set("core.query_tag_us", tracer.mean_ns("core.query_tag") / 1e3);

        // The parallel explorer, as a diagnostic only: at 0.03-0.2 ms per
        // exploration the scheduler, not the program, sets this number.
        for &(index, level) in &catalog::contracts() {
            tracer.time("see.explore_par2", || {
                black_box(visit_nf(index, ExplorePar { level }))
            });
        }
        layers.set(
            "see.explore_par2_us",
            tracer.mean_ns("see.explore_par2") / 1e3,
        );

        // The store driven directly over the catalog's records: the write
        // path (`put` ends in an fsync), the read path, and the metadata
        // paths.
        let store_dir = self.dir.join("store-probe");
        match ContractStore::open(&store_dir) {
            Err(e) => checks.check(Err(format!("open {}: {e}", store_dir.display()))),
            Ok(store) => {
                let mut bytes = 0u64;
                for _ in 0..REPS {
                    for g in catalog {
                        checks.check(store_roundtrip(&store, g, tracer));
                        let h = tracer.time("store.header", || {
                            store.header(g.key, RecordKind::Exploration)
                        });
                        bytes += h.map_or(0, |h| h.header_len + h.payload_len);
                        let touched = tracer.time("store.touch", || {
                            store.touch(g.key, RecordKind::Exploration)
                        });
                        checks.ensure(matches!(touched, Ok(true)), || {
                            format!("{} {:?}: touch found no record", g.name, g.level)
                        });
                    }
                    let listed = tracer.time("store.list", || store.list());
                    checks.ensure(listed.is_ok_and(|l| l.len() == catalog.len()), || {
                        "store.list did not return the catalog".to_string()
                    });
                }
                for (metric, span) in [
                    ("store.put_us", "store.put"),
                    ("store.get_us", "store.get"),
                    ("see.decode_result_us", "see.decode_result"),
                    ("store.header_us", "store.header"),
                    ("store.touch_us", "store.touch"),
                    ("store.list_us", "store.list"),
                ] {
                    layers.set(metric, tracer.mean_ns(span) / 1e3);
                }
                layers.set(
                    "store.record_bytes",
                    bytes as f64 / (REPS * catalog.len()) as f64,
                );
                layers.set("store.hits", store.hits() as f64);
                layers.set("store.misses", store.misses() as f64);
            }
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}

/// Exploration alone on two worker threads.
struct ExplorePar {
    level: StackLevel,
}

impl NfVisitor for ExplorePar {
    type Out = usize;

    fn visit<N: NetworkFunction + Sync>(self, _name: &'static str, nf: &N) -> usize {
        nf.explore_threads(self.level, 2).result.paths.len()
    }
}

/// The golden file's text, regenerated: every catalog contract's
/// fingerprint in canonical order.
pub fn golden_text() -> String {
    let mut off = Tracer::disabled();
    catalog::contracts()
        .into_iter()
        .map(|(index, level)| {
            let g = visit_nf(
                index,
                Generate {
                    index,
                    level,
                    store: None,
                    tracer: &mut off,
                },
            );
            contract_section(g.name, g.level, &g.contract)
        })
        .collect()
}
