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
//! The worklist is one LIFO stack of decision prefixes, run on the
//! caller's thread: pop a prefix, run it, enqueue its feasible flips.
//! Pool arena order, path order, decisions, tags, verdicts, metrics,
//! stats and truncation are therefore a function of the NF body alone.

use bolt_expr::{TermPool, TermRef};
use bolt_solver::{Solver, SolverCtx, SolverStats};
use bolt_trace::TraceEvent;

use crate::symbolic::{ExploreShared, PacketField, SymbolicCtx};
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
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            solver: Solver::default(),
            max_paths: 65536,
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
        F: Fn(&mut SymbolicCtx<'_>),
    {
        let mut pool = TermPool::new();
        let mut shared = ExploreShared::default();
        let mut paths = Vec::new();
        let mut truncated = false;
        let mut runs = 0u64;
        // The final decision of each stacked prefix is the flip that
        // spawned it.
        let mut stack: Vec<Vec<bool>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if paths.len() >= self.max_paths {
                // Path explosion: stop exploring and report truncation.
                truncated = true;
                break;
            }
            runs += 1;
            let prefix_len = prefix.len();
            let mut ctx = SymbolicCtx::new(&mut pool, &self.solver, prefix, &mut shared);
            body(&mut ctx);
            let feasible = ctx.path_feasible();
            let mut rec = ctx.finish();

            // Enqueue feasible flips of the decisions made beyond the
            // prefix (the prefix's own decisions were already covered when
            // their parent run enqueued them). One incrementally-extended
            // context walks the entries in assertion order; each flip is
            // one push/pop probe against the walked prefix state.
            let mut walk = SolverCtx::new(&self.solver);
            if let Some(m) = rec.model.take() {
                walk.install_model(&pool, m);
            }
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
                            stack.push(alt);
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
        }
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
