//! Exhaustive path exploration (Algorithm 2, line 3: `GetAllPaths`).
//!
//! The explorer re-runs the NF body deterministically with a worklist of
//! decision prefixes. A run takes the scheduled decisions at its first
//! `prefix.len()` symbolic branches, then defaults (feasibility-guided
//! true-first) beyond. At every *new* decision the run probes both arms
//! where it makes the decision, and the flipped alternative is enqueued
//! unless the solver proved it infeasible there. The result is the full
//! feasible-path tree of the stateless NF code, each path carrying its
//! constraints, stateless instruction trace, stateful-call events, tags,
//! verdict, and packet-field symbol table.
//!
//! Solving is incremental throughout and done once per run: each run
//! extends one [`bolt_solver::SolverCtx`] constraint-by-constraint as it
//! executes, each arm is probed with a single push/pop against the saved
//! propagation state of the constraints asserted so far, and all runs
//! share a [`bolt_solver::SolverCache`] of feasibility verdicts and
//! models. [`ExplorationResult::stats`] reports what answered each
//! request.
//!
//! The worklist is one LIFO stack of decision prefixes, run on the
//! caller's thread: pop a prefix, run it, enqueue its feasible flips.
//! Pool arena order, path order, decisions, tags, verdicts, metrics,
//! stats and truncation are therefore a function of the NF body alone.

use bolt_expr::{TermPool, TermRef};
use bolt_solver::{Solver, SolverStats};
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
            let mut ctx = SymbolicCtx::new(&mut pool, &self.solver, prefix, &mut shared);
            body(&mut ctx);
            let feasible = ctx.path_feasible();
            let rec = ctx.finish();

            // Enqueue the feasible flips of the decisions made beyond the
            // prefix (the prefix's own decisions were already covered when
            // their parent run enqueued them).
            for &i in &rec.flips {
                let mut alt = Vec::with_capacity(i + 1);
                alt.extend_from_slice(&rec.decisions[..i]);
                alt.push(!rec.decisions[i]);
                stack.push(alt);
            }

            if feasible {
                paths.push(Path {
                    constraints: rec.entries,
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
    use bolt_expr::{BinOp, Width};
    use bolt_trace::count_ic_ma;
    use std::collections::HashMap;

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

    /// A SplitMix64 stream: the differential test's trees are a function
    /// of the seed alone.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[(self.next() % xs.len() as u64) as usize]
        }
    }

    /// A value of a random condition: a packet field, a literal, or a
    /// field plus a literal (which wraps).
    #[derive(Clone, Copy, Debug)]
    enum Val {
        Field(u64),
        Lit(u64),
        FieldPlus(u64, u64),
    }

    /// `a op b` over fields of `bytes` bytes.
    #[derive(Clone, Copy, Debug)]
    struct Cond {
        op: BinOp,
        bytes: usize,
        a: Val,
        b: Val,
    }

    #[derive(Debug)]
    enum Node {
        Leaf,
        Assume(Cond, Box<Node>),
        Branch(Cond, Box<Node>, Box<Node>),
    }

    fn random_val(rng: &mut Mix, bytes: usize) -> Val {
        // Two fields per width: offsets 0 and 1 hold bytes, 2 and 4 hold
        // 16-bit words.
        let field = if bytes == 1 {
            rng.pick(&[0, 1])
        } else {
            rng.pick(&[2, 4])
        };
        let lit = if bytes == 1 {
            rng.pick(&[0, 1, 2, 3, 8, 200, 255])
        } else {
            rng.pick(&[0, 1, 3, 0x0800, 0x8000, 0xffff])
        };
        match rng.next() % 5 {
            0 | 1 => Val::Field(field),
            2 | 3 => Val::Lit(lit),
            _ => Val::FieldPlus(field, lit),
        }
    }

    fn random_cond(rng: &mut Mix) -> Cond {
        let bytes = rng.pick(&[1, 2]);
        Cond {
            op: rng.pick(&[BinOp::Eq, BinOp::Ne, BinOp::Ult, BinOp::Ule]),
            bytes,
            a: random_val(rng, bytes),
            b: random_val(rng, bytes),
        }
    }

    fn random_tree(rng: &mut Mix, depth: u32) -> Node {
        if depth == 0 || rng.next().is_multiple_of(6) {
            return Node::Leaf;
        }
        let c = random_cond(rng);
        if rng.next().is_multiple_of(4) {
            Node::Assume(c, Box::new(random_tree(rng, depth - 1)))
        } else {
            let t = random_tree(rng, depth - 1);
            Node::Branch(c, Box::new(t), Box::new(random_tree(rng, depth - 1)))
        }
    }

    /// `c` built through the analysis build, as an NF body would.
    fn cond_in_ctx(ctx: &mut SymbolicCtx<'_>, pkt: bolt_trace::MemRegion, c: Cond) -> TermRef {
        let w = Width::from_bytes(c.bytes);
        let val = |ctx: &mut SymbolicCtx<'_>, v: Val| match v {
            Val::Field(o) => ctx.load(pkt, o, c.bytes),
            Val::Lit(x) => ctx.lit(x, w),
            Val::FieldPlus(o, x) => {
                let f = ctx.load(pkt, o, c.bytes);
                let l = ctx.lit(x, w);
                ctx.add(f, l)
            }
        };
        let (a, b) = (val(ctx, c.a), val(ctx, c.b));
        match c.op {
            BinOp::Eq => ctx.eq(a, b),
            BinOp::Ne => ctx.ne(a, b),
            BinOp::Ult => ctx.ult(a, b),
            _ => ctx.ule(a, b),
        }
    }

    fn run_tree(ctx: &mut SymbolicCtx<'_>, pkt: bolt_trace::MemRegion, node: &Node) {
        match node {
            Node::Leaf => ctx.verdict(NfVerdict::Drop),
            Node::Assume(c, next) => {
                let t = cond_in_ctx(ctx, pkt, *c);
                ctx.assume(t);
                run_tree(ctx, pkt, next);
            }
            Node::Branch(c, then, els) => {
                let t = cond_in_ctx(ctx, pkt, *c);
                let next = if ctx.branch(t) { then } else { els };
                run_tree(ctx, pkt, next);
            }
        }
    }

    /// `c` built straight in a pool, under the explorer's symbol names;
    /// `syms` maps each name to its symbol.
    fn cond_in_pool(pool: &mut TermPool, syms: &mut HashMap<String, TermRef>, c: Cond) -> TermRef {
        let w = Width::from_bytes(c.bytes);
        let mut field = |pool: &mut TermPool, o: u64| {
            *syms
                .entry(format!("pkt@{o}:{}", c.bytes))
                .or_insert_with_key(|name| pool.fresh_sym(name.as_str(), w))
        };
        let mut val = |pool: &mut TermPool, v: Val| match v {
            Val::Field(o) => field(pool, o),
            Val::Lit(x) => pool.constant(x, w),
            Val::FieldPlus(o, x) => {
                let f = field(pool, o);
                let l = pool.constant(x, w);
                pool.binop(BinOp::Add, f, l)
            }
        };
        let (a, b) = (val(pool, c.a), val(pool, c.b));
        pool.binop(c.op, a, b)
    }

    /// Every full schedule of `node` that the explorer's rule admits,
    /// each arm judged by the batch solver on the constraints before it
    /// plus the arm: the true arm when it is not refuted, the false arm
    /// when it is not refuted or the true arm is. A leaf is kept when its
    /// whole constraint list is not refuted. Leaves are not judged on
    /// their whole list alone because the batch solver can answer
    /// `Unknown` for a list whose prefix it refutes.
    struct Leaves {
        pool: TermPool,
        syms: HashMap<String, TermRef>,
        decisions: Vec<bool>,
        constraints: Vec<TermRef>,
        found: Vec<(Vec<bool>, Vec<String>)>,
    }

    impl Leaves {
        /// Whether the batch solver fails to refute the constraints so
        /// far plus `extra`, if any.
        fn feasible(&mut self, extra: Option<TermRef>) -> bool {
            self.constraints.extend(extra);
            let r = Solver::default().check(&self.pool, &self.constraints);
            if extra.is_some() {
                self.constraints.pop();
            }
            !matches!(r, bolt_solver::SolveResult::Unsat)
        }

        fn walk(&mut self, node: &Node) {
            match node {
                Node::Leaf => {
                    if self.feasible(None) {
                        let shown = self.constraints.iter().map(|&c| self.pool.display(c));
                        self.found.push((self.decisions.clone(), shown.collect()));
                    }
                }
                Node::Assume(c, next) => {
                    let t = cond_in_pool(&mut self.pool, &mut self.syms, *c);
                    if self.pool.as_const(t) == Some(1) {
                        self.walk(next);
                    } else {
                        self.constraints.push(t);
                        self.walk(next);
                        self.constraints.pop();
                    }
                }
                Node::Branch(c, then, els) => {
                    let t = cond_in_pool(&mut self.pool, &mut self.syms, *c);
                    if let Some(v) = self.pool.as_const(t) {
                        return self.walk(if v != 0 { then } else { els });
                    }
                    let not_t = self.pool.not(t);
                    let then_ok = self.feasible(Some(t));
                    let else_ok = !then_ok || self.feasible(Some(not_t));
                    for (taken, k, ok, next) in
                        [(true, t, then_ok, then), (false, not_t, else_ok, els)]
                    {
                        if ok {
                            self.decisions.push(taken);
                            self.constraints.push(k);
                            self.walk(next);
                            self.constraints.pop();
                            self.decisions.pop();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn explored_paths_are_exactly_the_feasible_leaves() {
        let mut rng = Mix(0x5eed);
        let mut forks = 0;
        for _ in 0..64 {
            let tree = random_tree(&mut rng, 6);
            let result = Explorer::new().explore(|ctx| {
                let pkt = ctx.packet(64);
                run_tree(ctx, pkt, &tree);
            });
            let mut explored: Vec<(Vec<bool>, Vec<String>)> = result
                .paths
                .iter()
                .map(|p| {
                    let shown = p.constraints.iter().map(|&c| result.pool.display(c));
                    (p.decisions.clone(), shown.collect())
                })
                .collect();
            let mut reference = Leaves {
                pool: TermPool::new(),
                syms: Default::default(),
                decisions: Vec::new(),
                constraints: Vec::new(),
                found: Vec::new(),
            };
            reference.walk(&tree);
            explored.sort();
            reference.found.sort();
            assert_eq!(explored, reference.found, "tree {tree:?}");
            forks += explored.len().saturating_sub(1);
        }
        assert!(forks > 200, "the trees must fork: {forks} feasible forks");
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
