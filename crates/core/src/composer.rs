//! The unified front door for chain composition: [`Composer`].
//!
//! One builder carries every composition capability (a shared solver
//! cache); planning a chain is [`Pipeline::parallelize`]:
//!
//! ```ignore
//! let solver = Solver::default();
//! let mut composer = Composer::new(&solver);
//! let report = composer.chain(&pipeline, StackLevel::FullStack).unwrap();
//! println!("{report}");
//! ```
//!
//! Every composition runs on the caller's thread. A chain is its
//! [`Pipeline`]'s — its stages and its store — so [`Composer::chain`]
//! takes both from the pipeline.
//!
//! One `Composer` can serve many compositions: its solver cache carries
//! feasibility memos across calls, and [`ChainReport::solver`] always
//! reports the *delta* this run added, so reuse never inflates a report.
//!
//! The [`ChainReport`] is the one record of what a chain run did; a
//! planning run also emits a `chain.plan` trace event under
//! `BOLT_TRACE`.

use bolt_expr::{PcvAssignment, PerfExpr};
use bolt_hw::CostTable;
use bolt_obs::{trace, Value};
use bolt_solver::{Solver, SolverCache, SolverStats};
use bolt_store::ContractStore;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

use crate::chain::{
    compose_pair, stages_commute, ChainPlan, ChainReport, CommuteWitness, Pipeline,
};
use crate::contract::NfContract;
use crate::store::{compose_key, level_name, plan_key, Fingerprint, StoreExt};

/// Builder-style composition engine — see the module docs.
/// `Composer::new(&solver)` composes with a fresh cache.
pub struct Composer<'a> {
    solver: &'a Solver,
    cache: SolverCache,
}

impl<'a> Composer<'a> {
    /// A composer over `solver` with an empty feasibility cache.
    pub fn new(solver: &'a Solver) -> Self {
        Composer {
            solver,
            cache: SolverCache::new(),
        }
    }

    /// Accepted and ignored: composition runs on the caller's thread.
    /// Kept only so existing callers build; it goes with them (ROADMAP
    /// item 1 (g)).
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// The cache's accumulated solver counters (across everything this
    /// composer has done).
    pub fn stats(&self) -> SolverStats {
        self.cache.stats
    }

    /// Compose two contracts into the contract of `first → second`.
    pub fn compose(&mut self, first: &NfContract, second: &NfContract) -> NfContract {
        compose_pair(first, second, self.solver, &mut self.cache)
    }

    /// Fold pre-built stage contracts left to right through this
    /// composer's cache. No store involvement — the contracts are
    /// already in hand; use [`Composer::chain`] for the memoized path.
    pub fn compose_all(&mut self, contracts: Vec<NfContract>) -> Option<NfContract> {
        let mut it = contracts.into_iter();
        let mut acc = it.next()?;
        for next in it {
            acc = self.compose(&acc, &next);
        }
        Some(acc)
    }

    /// Compose a [`Pipeline`] at `level`, reporting what the run did —
    /// the store-aware, provenance-counting chain fold. `None` for an
    /// empty chain.
    ///
    /// The store is the pipeline's; without one nothing is persisted.
    pub fn chain(&mut self, pipeline: &Pipeline<'_>, level: StackLevel) -> Option<ChainReport> {
        self.fold(pipeline, level, false)
    }

    /// [`Composer::chain`], and with `planned` the [`ChainPlan`] too —
    /// the body of [`Pipeline::parallelize`].
    pub(crate) fn fold(
        &mut self,
        pipeline: &Pipeline<'_>,
        level: StackLevel,
        planned: bool,
    ) -> Option<ChainReport> {
        if pipeline.stages.is_empty() {
            return None;
        }
        let store = pipeline.store;
        let solver = self.solver;
        let cache = &mut self.cache;
        let stats_before = cache.stats;
        let (mut stages_explored, mut stages_cached) = (0usize, 0usize);
        let (mut steps_composed, mut steps_cached) = (0usize, 0usize);
        let keys: Vec<Fingerprint> = pipeline.stages.iter().map(|s| s.store_key(level)).collect();
        let names = pipeline.names();
        let chain_label = names.join("+");

        // The parallelization plan, when asked for. A store hit skips
        // every commutativity probe; a miss materialises all stage
        // contracts up front (the planner needs each stage's worst-case
        // cycles anyway) and leaves them in `slots` for the fold below,
        // so no stage is built — or counted — twice.
        let mut plan: Option<ChainPlan> = None;
        let mut plan_cached = false;
        let mut slots: Vec<Option<NfContract>> = Vec::new();
        if planned {
            let pkey = plan_key(&keys, level);
            plan = store.and_then(|st| st.get_plan(pkey));
            plan_cached = plan.is_some();
            if plan.is_none() {
                let contracts: Vec<NfContract> = pipeline
                    .stages
                    .iter()
                    .map(|s| {
                        stage_contract(
                            s.as_ref(),
                            level,
                            store,
                            &mut stages_explored,
                            &mut stages_cached,
                        )
                    })
                    .collect();
                let p = build_plan(&contracts, &keys, &names, level, solver, cache);
                if let Some(st) = store {
                    // A failed write costs only the next run's warm plan.
                    let _ = st.put_plan(pkey, &chain_label, level, &p);
                }
                plan = Some(p);
                slots = contracts.into_iter().map(Some).collect();
            }
            if let Some(p) = &plan {
                let groups = p.groups_display();
                trace::emit(
                    "chain.plan",
                    &[
                        ("chain", Value::Str(&chain_label)),
                        ("level", Value::Str(level_name(level))),
                        ("groups", Value::Str(&groups)),
                        ("widest", Value::from(p.widest_group())),
                        ("speedup", Value::from(p.predicted_speedup())),
                        ("cached", Value::from(plan_cached)),
                    ],
                );
            }
        }

        let mut take_stage = |i: usize, explored: &mut usize, cached: &mut usize| -> NfContract {
            match slots.get_mut(i).and_then(Option::take) {
                Some(c) => c,
                None => stage_contract(pipeline.stages[i].as_ref(), level, store, explored, cached),
            }
        };

        // `cks[i]` addresses the composed contract of stages `0..=i`
        // (`cks[0]` is stage 0's own key; nothing composed is stored
        // under it).
        let mut cks: Vec<Fingerprint> = Vec::with_capacity(keys.len());
        cks.push(keys[0]);
        for i in 1..keys.len() {
            cks.push(compose_key(cks[i - 1], keys[i], level));
        }
        // Resume after the deepest stored composed prefix: a fully warm
        // run decodes exactly one record (the whole chain's) and a
        // partially warm one re-uses the longest memoized prefix.
        // `acc == None` means "the accumulator is still stage 0,
        // unmaterialised" — a warm fold never materialises it at all.
        let mut acc: Option<NfContract> = None;
        let mut start = 1;
        if let Some(st) = store {
            for i in (1..pipeline.stages.len()).rev() {
                if let Some(c) = st.get_composed(cks[i]) {
                    steps_cached += 1;
                    acc = Some(c);
                    start = i + 1;
                    break;
                }
            }
        }
        for i in start..pipeline.stages.len() {
            let left = match acc.take() {
                Some(c) => c,
                None => take_stage(0, &mut stages_explored, &mut stages_cached),
            };
            let right = take_stage(i, &mut stages_explored, &mut stages_cached);
            let composed = compose_pair(&left, &right, solver, cache);
            if let Some(st) = store {
                // A failed write costs only the next run's warm start.
                let _ = st.put_composed(cks[i], &names[..=i].join("+"), level, &composed);
            }
            steps_composed += 1;
            acc = Some(composed);
        }
        let contract = match acc {
            Some(c) => c,
            // Single-stage chain: the contract is the stage contract.
            None => take_stage(0, &mut stages_explored, &mut stages_cached),
        };
        Some(ChainReport {
            names: names.iter().map(|n| n.to_string()).collect(),
            level,
            key: *cks.last().expect("non-empty chain"),
            contract,
            solver: stats_delta(&cache.stats, &stats_before),
            steps_composed,
            steps_cached,
            stages_explored,
            stages_cached,
            plan,
            plan_cached,
        })
    }
}

/// Materialise one stage contract, through the store when one is
/// configured, bumping the matching provenance counter.
fn stage_contract(
    stage: &dyn crate::nf::AbstractNf,
    level: StackLevel,
    store: Option<&ContractStore>,
    explored: &mut usize,
    cached: &mut usize,
) -> NfContract {
    let (c, was_cached) = stage.explore_contract(level, store);
    if was_cached {
        *cached += 1;
    } else {
        *explored += 1;
    }
    c
}

/// Greedy commutativity partition: stage `i` joins the current group iff
/// it provably commutes with *every* member (pairwise proofs compose:
/// any execution order inside the group rewrites to the original by
/// adjacent swaps, each justified by one witness). Stages with identical
/// store keys — same NF, same config — commute trivially and skip the
/// probe.
fn build_plan(
    contracts: &[NfContract],
    keys: &[Fingerprint],
    names: &[&'static str],
    level: StackLevel,
    solver: &Solver,
    cache: &mut SolverCache,
) -> ChainPlan {
    let n = contracts.len();
    let labels: Vec<String> = names
        .iter()
        .zip(keys)
        .map(|(name, key)| format!("{name}#{key}"))
        .collect();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut witnesses: Vec<CommuteWitness> = Vec::new();
    let mut current: Vec<u32> = vec![0];
    for i in 1..n {
        let mut joins = true;
        for &m in &current {
            let mu = m as usize;
            let identical = keys[mu] == keys[i];
            let commutes = identical
                || stages_commute(
                    &contracts[mu],
                    &contracts[i],
                    &labels[mu],
                    &labels[i],
                    solver,
                    cache,
                );
            witnesses.push(CommuteWitness {
                left: m,
                right: i as u32,
                commutes,
                identical,
            });
            if !commutes {
                joins = false;
                break;
            }
        }
        if joins {
            current.push(i as u32);
        } else {
            groups.push(std::mem::take(&mut current));
            current = vec![i as u32];
        }
    }
    groups.push(current);
    let env = PcvAssignment::new();
    let stage_cycles: Vec<PerfExpr> = contracts
        .iter()
        .map(|c| {
            c.worst(Metric::Cycles, &env)
                .map(|p| p.expr(Metric::Cycles).clone())
                .unwrap_or_default()
        })
        .collect();
    let table = CostTable::conservative();
    let merge_cycles: Vec<u64> = groups
        .iter()
        .map(|g| table.parallel_merge_cycles(g.len()))
        .collect();
    ChainPlan {
        names: names.iter().map(|n| n.to_string()).collect(),
        level,
        groups,
        witnesses,
        stage_cycles,
        merge_cycles,
    }
}

/// Per-run solver counters: what the cache accumulated beyond its
/// pre-run snapshot (a composer's cache outlives single calls).
fn stats_delta(after: &SolverStats, before: &SolverStats) -> SolverStats {
    SolverStats {
        checks_requested: after.checks_requested - before.checks_requested,
        solver_queries: after.solver_queries - before.solver_queries,
        completion_searches: after.completion_searches - before.completion_searches,
        unsat_by_propagation: after.unsat_by_propagation - before.unsat_by_propagation,
        memo_hits: after.memo_hits - before.memo_hits,
        witness_reuse_hits: after.witness_reuse_hits - before.witness_reuse_hits,
        model_evictions: after.model_evictions - before.model_evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_delta_subtracts_fieldwise() {
        let a = SolverStats {
            checks_requested: 10,
            solver_queries: 4,
            memo_hits: 6,
            ..Default::default()
        };
        let b = SolverStats {
            checks_requested: 3,
            solver_queries: 4,
            memo_hits: 1,
            ..Default::default()
        };
        let d = stats_delta(&a, &b);
        assert_eq!(d.checks_requested, 7);
        assert_eq!(d.solver_queries, 0);
        assert_eq!(d.memo_hits, 5);
        assert_eq!(stats_delta(&a, &a), SolverStats::default());
    }
}
