//! `gen_chain` — cold chain composition with planning: the three chains
//! of `examples/fingerprint.rs` (fw→rt, rt→fw, fw→fw→rt) at both stack
//! levels through `Pipeline::parallelize`, no store, one thread.
//! `core::chain`/`composer` and the solver dominate and exploration is a
//! few percent, so a solver or composer change shows here and not in
//! `gen_catalog`, an explorer change the reverse.
//!
//! One operation is one round of the six chain reports in seeded order.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bolt_core::{ChainReport, Composer, Pipeline};
use bolt_nfs::{Firewall, StaticRouter};
use bolt_solver::{Solver, SolverStats};
use dpdk_sim::StackLevel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{busy_clock_windows, shuffle, Checks, EndToEnd, RunConfig, Windows, Workload};
use crate::catalog::LEVELS;
use crate::fingerprint::{chain_section, Golden};
use crate::metrics::LayerValues;
use crate::trace::Tracer;

/// Rounds in the traced slice per second of `--seconds`.
const TRACED_ROUNDS_PER_SECOND: f64 = 1.0;

/// The chains, by the labels the golden file uses.
pub const CHAINS: [&str; 3] = [
    "firewall->static_router",
    "static_router->firewall",
    "firewall->firewall->static_router",
];

/// Build a chain by label, composing on `threads` workers.
pub fn pipeline(label: &str, threads: usize) -> Pipeline<'static> {
    let p = match label {
        "firewall->static_router" => Pipeline::new()
            .push(Firewall::default())
            .push(StaticRouter::default()),
        "static_router->firewall" => Pipeline::new()
            .push(StaticRouter::default())
            .push(Firewall::default()),
        "firewall->firewall->static_router" => Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .push(StaticRouter::default()),
        other => unreachable!("unknown chain {other}"),
    };
    p.threads(threads)
}

/// Fingerprint of one report, as the golden file holds it.
pub fn report_section(
    label: &str,
    level: StackLevel,
    chain: &Pipeline<'_>,
    rep: &ChainReport,
) -> String {
    let key = chain.chain_key(level).expect("non-empty chain");
    chain_section(label, level, key, rep)
}

/// The workload.
pub struct GenChain {
    golden: Golden,
    rng: SmallRng,
    chains: Vec<(&'static str, Pipeline<'static>)>,
    order: Vec<(usize, StackLevel)>,
}

impl GenChain {
    /// Compose and plan every (chain, level) once, in a freshly shuffled
    /// order. Returns the reports and the elapsed nanoseconds.
    fn round(
        &mut self,
        tracer: &mut Tracer,
    ) -> (Vec<(usize, StackLevel, Option<ChainReport>)>, u64) {
        shuffle(&mut self.rng, &mut self.order);
        let mut out = Vec::with_capacity(self.order.len());
        let t0 = Instant::now();
        tracer.open("gen_chain.round");
        for &(index, level) in &self.order {
            tracer.next_op();
            let chain = &self.chains[index].1;
            let rep = tracer.time("core.chain_planned", || chain.parallelize(level));
            out.push((index, level, rep));
        }
        tracer.close();
        (out, t0.elapsed().as_nanos() as u64)
    }

    fn verify(&self, reports: &[(usize, StackLevel, Option<ChainReport>)], checks: &mut Checks) {
        for (index, level, rep) in reports {
            let (label, chain) = &self.chains[*index];
            checks.check(match rep {
                Some(rep) => self
                    .golden
                    .check(&report_section(label, *level, chain, rep)),
                None => Err(format!("{label} {level:?}: no report")),
            });
        }
    }

    /// Untraced, checked rounds until `seconds` of wall time have passed.
    fn timed_rounds(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> Windows {
        let mut off = Tracer::disabled();
        busy_clock_windows(cfg, seconds, || {
            let (reports, ns) = self.round(&mut off);
            self.verify(&reports, checks);
            ns
        })
    }
}

impl Workload for GenChain {
    fn setup(cfg: &RunConfig, _dir: &Path, checks: &mut Checks) -> Result<Self, String> {
        let mut w = GenChain {
            golden: Golden::parse(include_str!("../../golden/chain.txt")),
            rng: SmallRng::seed_from_u64(cfg.seed),
            chains: CHAINS.iter().map(|&l| (l, pipeline(l, 1))).collect(),
            order: (0..CHAINS.len())
                .flat_map(|i| LEVELS.map(|l| (i, l)))
                .collect(),
        };
        let (reports, _) = w.round(&mut Tracer::disabled());
        w.verify(&reports, checks);
        Ok(w)
    }

    fn measure(&mut self, cfg: &RunConfig, seconds: f64, checks: &mut Checks) -> EndToEnd {
        EndToEnd::from_windows(
            "one round of the six chain reports (3 chains x 2 levels, composed and planned)",
            &self.timed_rounds(cfg, seconds, checks),
        )
    }

    fn trace(
        &mut self,
        cfg: &RunConfig,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut LayerValues,
    ) {
        let reference = self.timed_rounds(cfg, cfg.seconds * 0.25, checks);
        let untraced_us = crate::stats::median(&reference.p50_us);
        layers.set("client.op_p90_us", crate::stats::median(&reference.p90_us));

        let rounds = (cfg.seconds * TRACED_ROUNDS_PER_SECOND).ceil().max(1.0) as usize;
        let mut traced_us = Vec::with_capacity(rounds);
        let mut solver = SolverStats::default();
        for _ in 0..rounds {
            let (reports, ns) = self.round(tracer);
            traced_us.push(ns as f64 / 1e3);
            self.verify(&reports, checks);
            // Exact work counters of one round (every round is the same).
            solver = SolverStats::default();
            for (_, _, rep) in &reports {
                if let Some(rep) = rep {
                    solver.merge(&rep.solver);
                }
            }
        }
        layers.set("solver.checks_requested", solver.checks_requested as f64);
        layers.set("solver.queries", solver.solver_queries as f64);
        layers.set("solver.memo_hits", solver.memo_hits as f64);
        layers.set("solver.witness_hits", solver.witness_reuse_hits as f64);
        layers.set(
            "solver.unsat_by_propagation",
            solver.unsat_by_propagation as f64,
        );

        // The same six reports taken apart from outside: stage contracts
        // (explore + generate), the composition fold without a plan, one
        // pair composition, and the two-thread composer as a diagnostic.
        let probe_solver = Solver::default();
        for _ in 0..rounds {
            for (label, chain) in &self.chains {
                let par2 = pipeline(label, 2);
                for level in LEVELS {
                    let stages = tracer.time("core.stage_contracts", || chain.contracts(level));
                    tracer.time("core.chain_unplanned", || {
                        black_box(Composer::new(&probe_solver).chain(chain, level))
                    });
                    if stages.len() == 2 {
                        tracer.time("core.compose_pair", || {
                            black_box(
                                Composer::new(&probe_solver)
                                    .threads(1)
                                    .compose(&stages[0], &stages[1]),
                            )
                        });
                    }
                    tracer.time("core.compose_par2", || black_box(par2.parallelize(level)));
                }
            }
        }
        let planned_us = tracer.mean_ns("core.chain_planned") / 1e3;
        let unplanned_us = tracer.mean_ns("core.chain_unplanned") / 1e3;
        layers.set(
            "core.stage_contracts_us",
            tracer.mean_ns("core.stage_contracts") / 1e3,
        );
        layers.set(
            "core.compose_pair_us",
            tracer.mean_ns("core.compose_pair") / 1e3,
        );
        layers.set("core.plan_us", planned_us - unplanned_us);
        layers.set(
            "core.compose_par2_us",
            tracer.mean_ns("core.compose_par2") / 1e3,
        );

        if untraced_us > 0.0 {
            // The report span is the whole operation here (the composer
            // cannot be taken apart from outside without running it
            // twice), so the share accounted for is the span's own.
            let per_round = planned_us * self.order.len() as f64;
            layers.set("ledger.accounted_pct", per_round / untraced_us * 100.0);
            layers.set(
                "ledger.trace_overhead_pct",
                (crate::stats::median(&traced_us) - untraced_us) / untraced_us * 100.0,
            );
        }
    }
}

/// The golden file's text, regenerated: every chain report's fingerprint
/// in canonical order.
pub fn golden_text() -> Result<String, String> {
    let mut out = String::new();
    for label in CHAINS {
        let chain = pipeline(label, 1);
        for level in LEVELS {
            let rep = chain
                .parallelize(level)
                .ok_or_else(|| format!("{label} {level:?}: no report"))?;
            out.push_str(&report_section(label, level, &chain, &rep));
        }
    }
    Ok(out)
}
