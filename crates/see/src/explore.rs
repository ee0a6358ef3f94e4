//! Exhaustive path exploration (Algorithm 2, line 3: `GetAllPaths`).
//!
//! The explorer re-runs the NF body deterministically with a worklist of
//! decision prefixes. A run takes the scheduled decisions at its first
//! `prefix.len()` symbolic branches, then defaults (feasibility-guided
//! true-first) beyond. For every *new* decision the run makes, the flipped
//! alternative is enqueued unless the solver proves it infeasible at that
//! point. The result is the full feasible-path tree of the stateless NF
//! code, each path carrying its constraints, stateless instruction trace,
//! stateful-call events, tags, verdict, and packet-field symbol table.
//!
//! Solving is incremental throughout: each run extends one
//! [`SolverCtx`] constraint-by-constraint as it executes, every flip is
//! probed with a single push/pop against the saved propagation state of
//! the walked prefix, and all runs share a [`bolt_solver::SolverCache`]
//! of feasibility verdicts and models. [`ExplorationResult::stats`]
//! reports what answered each request.
//!
//! The worklist runs on [`bolt_expr::speculate`], whose module docs
//! carry the determinism argument: a key is a decision prefix, a step is
//! one run plus its flip walk, and [`Explorer::threads`] only sets how
//! many workers speculate runs ahead of the committer. The result — pool
//! arena order, path order, decisions, tags, verdicts, metrics, stats,
//! truncation — is bit-identical at any thread count. With workers, a
//! debug build runs both routes of every step and asserts they agree.

use std::ops::ControlFlow;

use bolt_expr::{speculate, Term, TermPool, TermRef};
use bolt_solver::{Solver, SolverCtx, SolverStats};
use bolt_trace::TraceEvent;

use crate::symbolic::{ExploreShared, PacketField, RunRecord, SymbolicCtx};
use crate::NfVerdict;

/// One explored feasible execution path.
#[derive(Debug)]
pub struct Path {
    /// Path constraints, in assertion order.
    pub constraints: Vec<TermRef>,
    /// Stateless instruction trace (includes `Stateful` call events).
    pub events: Vec<TraceEvent>,
    /// Human-readable labels attached by the NF code on this path.
    pub tags: Vec<&'static str>,
    /// The NF's verdict on this path, if it reached one.
    pub verdict: Option<NfVerdict>,
    /// Input packet fields read along this path.
    pub packet_fields: Vec<PacketField>,
    /// Final symbolic state of the packet (for chain composition).
    pub final_packet: Vec<(u64, u8, TermRef)>,
    /// The branch decisions that select this path (diagnostics).
    pub decisions: Vec<bool>,
}

impl Path {
    /// Find the input symbol term for a packet field, if this path read it.
    pub fn field(&self, offset: u64, bytes: u8) -> Option<TermRef> {
        self.packet_fields
            .iter()
            .find(|f| f.offset == offset && f.bytes == bytes)
            .map(|f| f.term)
    }

    /// Whether the path carries a tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(&tag)
    }
}

/// Counters describing one exploration's solving work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// How feasibility requests were answered (see [`SolverStats`]).
    pub solver: SolverStats,
    /// Number of deterministic re-executions (worklist entries run).
    pub runs: u64,
    /// Distinct terms interned in the pool at the end of exploration.
    pub terms_interned: u64,
    /// Distinct symbols minted (shared across sibling runs).
    pub syms_minted: u64,
}

/// Result of an exploration: the shared term pool plus all feasible paths.
#[derive(Debug)]
pub struct ExplorationResult {
    /// Pool owning every term referenced by the paths.
    pub pool: TermPool,
    /// All feasible paths, in exploration order.
    pub paths: Vec<Path>,
    /// Solver-work counters for this exploration.
    pub stats: ExploreStats,
    /// Whether exploration stopped early because `max_paths` was reached.
    /// Truncated results are incomplete — library callers must check this
    /// instead of relying on a panic.
    pub truncated: bool,
}

impl ExplorationResult {
    /// Paths carrying a given tag.
    pub fn tagged<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Path> + 'a {
        self.paths.iter().filter(move |p| p.has_tag(tag))
    }
}

/// The path explorer.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Solver used for flip pruning and final feasibility checks.
    pub solver: Solver,
    /// Hard cap on explored paths (defence against unbounded NF loops).
    pub max_paths: usize,
    /// Threads exploring: the committing caller plus `threads - 1`
    /// workers speculating worklist entries ahead of it. 1 (the
    /// default) spawns nothing; output is bit-identical at any value.
    pub threads: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            solver: Solver::default(),
            max_paths: 65536,
            threads: 1,
        }
    }
}

impl Explorer {
    /// New explorer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustively explore `body`, which must run one packet's worth of
    /// NF logic against the provided context (deterministically — the same
    /// decisions must lead to the same operations).
    ///
    /// If the feasible-path tree exceeds `max_paths`, exploration stops
    /// and the result is marked [`ExplorationResult::truncated`] instead
    /// of panicking, so library callers can handle path explosion.
    pub fn explore<F>(&self, body: F) -> ExplorationResult
    where
        F: Fn(&mut SymbolicCtx<'_>) + Sync,
    {
        let mut pool = TermPool::new();
        let mut shared = ExploreShared::default();
        let mut paths = Vec::new();
        let mut truncated = false;
        let mut runs = 0u64;
        // One run against private state, in private-pool refs. Valid at
        // any time, in any order: a run's behaviour depends only on its
        // decision prefix, never on sibling runs.
        let speculate = |prefix: &Vec<bool>| {
            let mut pool = TermPool::new();
            let mut shared = ExploreShared::default();
            let mut ctx =
                SymbolicCtx::with_shared(&mut pool, &self.solver, prefix.clone(), &mut shared);
            body(&mut ctx);
            let rec = ctx.finish();
            (pool, rec)
        };
        // One step on the given state, by either route: the run itself
        // when no speculation is handed over, else its absorption.
        let step = |pool: &mut TermPool,
                    shared: &mut ExploreShared,
                    prefix: Vec<bool>,
                    spec: Option<(TermPool, RunRecord)>| match spec {
            None => {
                let mut ctx = SymbolicCtx::with_shared(pool, &self.solver, prefix, shared);
                body(&mut ctx);
                let feasible = ctx.path_feasible();
                (ctx.finish(), feasible)
            }
            Some((private, rec)) => self.absorb(pool, shared, prefix.len(), &private, rec),
        };
        // Keys are decision prefixes; the final decision of each prefix
        // is the flip that spawned it.
        let roots = vec![Vec::new()];
        let workers = self.threads.saturating_sub(1);
        speculate::run(workers, roots, &speculate, |prefix, spec| {
            if paths.len() >= self.max_paths {
                // Path explosion: stop exploring and report truncation.
                truncated = true;
                return ControlFlow::Break(());
            }
            runs += 1;
            let prefix_len = prefix.len();
            // Debug builds check the client's obligation at every step
            // (see `bolt_expr::speculate`): the route not taken runs from
            // a copy of the same state and must leave the same run,
            // arena, symbols and solver cache.
            #[cfg(debug_assertions)]
            let other = (workers > 0).then(|| {
                let (mut pool, mut shared) = (pool.clone(), shared.clone());
                let spec = spec.is_none().then(|| speculate(&prefix));
                let out = step(&mut pool, &mut shared, prefix.clone(), spec);
                (out, pool, shared)
            });
            let out = step(&mut pool, &mut shared, prefix, spec);
            #[cfg(debug_assertions)]
            if let Some((other_out, other_pool, other_shared)) = other {
                assert!(
                    out == other_out
                        && pool.same_terms(&other_pool)
                        && shared.same_as(&other_shared),
                    "run {runs}: the two routes of a step diverged (nondeterministic NF body?)"
                );
            }
            let (mut rec, feasible) = out;

            // Enqueue feasible flips of the decisions made beyond the
            // prefix (the prefix's own decisions were already covered when
            // their parent run enqueued them). One incrementally-extended
            // context walks the entries in assertion order; each flip is
            // one push/pop probe against the walked prefix state.
            let mut walk = SolverCtx::new(&self.solver);
            if let Some(m) = rec.model.take() {
                walk.install_model(&pool, m);
            }
            let mut children = Vec::new();
            for e in &rec.entries {
                if let Some(i) = e.branch {
                    if i >= prefix_len {
                        let cond = rec.branch_conds[i];
                        let flipped = if rec.decisions[i] {
                            pool.not(cond)
                        } else {
                            cond
                        };
                        if walk.probe_feasible(&pool, &mut shared.cache, flipped) {
                            let mut alt = Vec::with_capacity(i + 1);
                            alt.extend_from_slice(&rec.decisions[..i]);
                            alt.push(!rec.decisions[i]);
                            children.push(alt);
                        }
                    }
                }
                walk.assert_term(&pool, e.term);
            }

            if feasible {
                let constraints: Vec<TermRef> = rec.entries.iter().map(|e| e.term).collect();
                paths.push(Path {
                    constraints,
                    events: rec.events,
                    tags: rec.tags,
                    verdict: rec.verdict,
                    packet_fields: rec.packet_fields,
                    final_packet: rec.final_packet,
                    decisions: rec.decisions,
                });
            }
            ControlFlow::Continue(children)
        });
        let stats = ExploreStats {
            solver: shared.cache.stats,
            runs,
            terms_interned: pool.len() as u64,
            syms_minted: pool.sym_count() as u64,
        };
        ExplorationResult {
            pool,
            paths,
            stats,
            truncated,
        }
    }

    /// The absorbed route of one step: bring a speculated run into the
    /// shared state, leaving what the direct run would have left.
    ///
    /// 1. Absorb the private pool (symbols resolve through the shared
    ///    cross-run table) and remap the record into shared refs.
    /// 2. Replay the run's solver interaction — the in-run decision
    ///    probes and asserts in assertion order, then the whole-path
    ///    feasibility check — against the shared cache.
    fn absorb(
        &self,
        pool: &mut TermPool,
        shared: &mut ExploreShared,
        prefix_len: usize,
        private: &TermPool,
        mut rec: RunRecord,
    ) -> (RunRecord, bool) {
        let tmap = pool.absorb_with(private, |p, name, w| shared.sym_for(p, name, w));
        let remap = |t: TermRef| tmap[t.index()];
        for e in &mut rec.entries {
            e.term = remap(e.term);
        }
        for c in &mut rec.branch_conds {
            *c = remap(*c);
        }
        for f in &mut rec.packet_fields {
            f.term = remap(f.term);
            f.sym = match *pool.get(f.term) {
                Term::Sym { id, .. } => id,
                _ => unreachable!("packet-field terms are symbols"),
            };
        }
        for (_, _, t) in &mut rec.final_packet {
            *t = remap(*t);
        }

        // Beyond the scheduled prefix, every decision was probed before
        // its constraint was asserted; scheduled decisions and `assume`s
        // assert without probing.
        let mut rctx = SolverCtx::new(&self.solver);
        for e in &rec.entries {
            if let Some(i) = e.branch {
                if i >= prefix_len {
                    let taken = rctx.probe_feasible(pool, &mut shared.cache, rec.branch_conds[i]);
                    // Hard assert (one comparison per decision, free
                    // next to the probe): a divergence means the NF
                    // body is nondeterministic or a solver fast path
                    // stopped being classification-identical, and
                    // committing the speculated constraints against
                    // replayed cache state would silently produce an
                    // inconsistent tree.
                    assert_eq!(
                        taken, rec.decisions[i],
                        "speculative decision diverged from the shared-state replay \
                         (nondeterministic NF body?)"
                    );
                }
            }
            rctx.assert_term(pool, e.term);
        }
        let feasible = rctx.current_feasible(pool, &mut shared.cache);
        rec.model = rctx.model().cloned();
        (rec, feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NfCtx;
    use bolt_expr::Width;
    use bolt_trace::count_ic_ma;

    /// Toy LPM-router shape: invalid packets drop; valid packets loop over
    /// a bounded symbolic prefix length.
    fn toy_router(ctx: &mut SymbolicCtx<'_>) {
        let pkt = ctx.packet(64);
        let et = ctx.load(pkt, 12, 2);
        if ctx.branch_eq_imm(et, 0x0800, Width::W16) {
            ctx.tag("valid");
            let l = ctx.load(pkt, 30, 1);
            let three = ctx.lit(3, Width::W8);
            let bounded = ctx.ule(l, three);
            ctx.assume(bounded);
            let mut i = 0u64;
            loop {
                let iv = ctx.lit(i, Width::W8);
                let more = ctx.ult(iv, l);
                if !ctx.branch(more) {
                    break;
                }
                // Loop body: constant work.
                let a = ctx.lit(1, Width::W32);
                let b = ctx.lit(2, Width::W32);
                let _ = ctx.add(a, b);
                i += 1;
            }
            ctx.verdict(NfVerdict::Forward(0));
        } else {
            ctx.tag("invalid");
            ctx.verdict(NfVerdict::Drop);
        }
    }

    #[test]
    fn explores_all_feasible_paths() {
        let result = Explorer::new().explore(toy_router);
        // invalid + valid with l = 0,1,2,3 → 5 paths.
        assert_eq!(result.paths.len(), 5);
        assert_eq!(result.tagged("invalid").count(), 1);
        assert_eq!(result.tagged("valid").count(), 4);
    }

    #[test]
    fn loop_paths_have_increasing_cost() {
        let result = Explorer::new().explore(toy_router);
        let mut costs: Vec<u64> = result
            .tagged("valid")
            .map(|p| count_ic_ma(&p.events).0)
            .collect();
        costs.sort_unstable();
        for w in costs.windows(2) {
            assert!(w[1] > w[0], "each extra iteration must cost more");
        }
    }

    #[test]
    fn every_path_has_a_witness() {
        let result = Explorer::new().explore(toy_router);
        let solver = Solver::default();
        for p in &result.paths {
            let r = solver.check(&result.pool, &p.constraints);
            let w = r
                .witness()
                .unwrap_or_else(|| panic!("no witness for path {:?} ({:?})", p.decisions, r));
            assert!(w.satisfies(&result.pool, &p.constraints));
        }
    }

    #[test]
    fn verdicts_recorded_per_path() {
        let result = Explorer::new().explore(toy_router);
        for p in &result.paths {
            if p.has_tag("invalid") {
                assert_eq!(p.verdict, Some(NfVerdict::Drop));
            } else {
                assert_eq!(p.verdict, Some(NfVerdict::Forward(0)));
            }
        }
    }

    #[test]
    fn infeasible_combinations_are_pruned() {
        // A branch followed by a contradictory branch: only 2 paths, not 4.
        let result = Explorer::new().explore(|ctx| {
            let pkt = ctx.packet(64);
            let x = ctx.load(pkt, 0, 1);
            let ten = ctx.lit(10, Width::W8);
            let small = ctx.ult(x, ten);
            if ctx.branch(small) {
                // x < 10: branching on x >= 10 must not fork.
                let big = ctx.ule(ten, x);
                assert!(!ctx.branch(big), "contradictory arm must be pruned");
                ctx.tag("small");
            } else {
                ctx.tag("large");
            }
        });
        assert_eq!(result.paths.len(), 2);
    }

    #[test]
    fn field_lookup_on_paths() {
        let result = Explorer::new().explore(toy_router);
        for p in &result.paths {
            assert!(p.field(12, 2).is_some(), "every path reads ether_type");
            assert!(p.field(99, 2).is_none());
        }
    }

    #[test]
    fn deterministic_exploration() {
        let a = Explorer::new().explore(toy_router);
        let b = Explorer::new().explore(toy_router);
        assert_eq!(a.paths.len(), b.paths.len());
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa.decisions, pb.decisions);
            assert_eq!(count_ic_ma(&pa.events), count_ic_ma(&pb.events));
        }
    }

    #[test]
    fn path_explosion_truncates_instead_of_panicking() {
        let mut ex = Explorer::new();
        ex.max_paths = 2;
        let result = ex.explore(toy_router);
        assert!(result.truncated, "hitting max_paths must set the marker");
        assert!(result.paths.len() <= 2);
        // The untruncated exploration is complete and says so.
        let full = Explorer::new().explore(toy_router);
        assert!(!full.truncated);
        assert_eq!(full.paths.len(), 5);
    }

    #[test]
    fn stats_expose_solver_work() {
        let result = Explorer::new().explore(toy_router);
        let s = result.stats.solver;
        assert_eq!(result.stats.runs as usize, result.paths.len());
        assert!(s.checks_requested > 0, "exploration must issue requests");
        assert!(
            s.solver_queries + s.shortcuts() >= s.checks_requested,
            "every request is either a query or a shortcut"
        );
        assert_eq!(result.stats.terms_interned, result.pool.len() as u64);
    }

    #[test]
    fn parallel_exploration_is_bit_identical() {
        let seq = Explorer::new().explore(toy_router);
        let seq_bytes = crate::codec::encode_result(&seq);
        for threads in [2, 3, 8] {
            let mut ex = Explorer::new();
            ex.threads = threads;
            let par = ex.explore(toy_router);
            // The encoded result pins everything: pool arena order,
            // symbol registry, path order, constraints, events, tags,
            // verdicts, stats, truncation.
            assert_eq!(
                crate::codec::encode_result(&par),
                seq_bytes,
                "exploration at {threads} threads diverged from sequential"
            );
        }
    }

    #[test]
    fn parallel_truncation_is_deterministic() {
        let mut seq = Explorer::new();
        seq.max_paths = 2;
        let seq = seq.explore(toy_router);
        assert!(seq.truncated);
        assert_eq!(seq.paths.len(), 2, "truncation stops at exactly max_paths");
        let seq_bytes = crate::codec::encode_result(&seq);
        for threads in [2, 8] {
            let mut ex = Explorer::new();
            ex.max_paths = 2;
            ex.threads = threads;
            let par = ex.explore(toy_router);
            assert!(
                par.truncated,
                "truncation marker must survive {threads} threads"
            );
            assert_eq!(par.paths.len(), 2);
            assert_eq!(crate::codec::encode_result(&par), seq_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "nf body panicked")]
    fn parallel_exploration_propagates_body_panics() {
        // A panicking NF body must unwind out of explore (the engine
        // releases its workers), not deadlock the scope join.
        let mut ex = Explorer::new();
        ex.threads = 2;
        let _ = ex.explore(|ctx| {
            let pkt = ctx.packet(64);
            let b = ctx.load(pkt, 0, 1);
            let z = ctx.lit(0, Width::W8);
            let c = ctx.eq(b, z);
            ctx.branch(c);
            panic!("nf body panicked");
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the two routes of a step diverged")]
    fn a_step_whose_routes_diverge_fails_the_debug_check() {
        // The tag alternates from one execution of the body to the next,
        // so a step's two routes record different tags. Its decisions
        // agree, which is all the absorbed route's replay compares.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let mut ex = Explorer::new();
        ex.threads = 2;
        let _ = ex.explore(|ctx| {
            let odd = !EXECUTIONS.fetch_add(1, Ordering::Relaxed).is_multiple_of(2);
            ctx.tag(if odd { "odd" } else { "even" });
            toy_router(ctx);
        });
    }

    #[test]
    fn sibling_runs_share_symbols_and_terms() {
        // Five runs all load the same fields: the pool must hold one
        // symbol per field, not one per (field, run) pair.
        let result = Explorer::new().explore(toy_router);
        assert_eq!(result.paths.len(), 5);
        let names: Vec<&str> = (0..result.pool.sym_count())
            .map(|i| result.pool.sym_name(i as u32))
            .collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(
            deduped.len(),
            names.len(),
            "cross-run symbol registry must not re-mint symbols: {names:?}"
        );
    }
}
