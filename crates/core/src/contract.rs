//! Algorithm 2: from explored paths to performance contracts.

use bolt_expr::{PcvAssignment, PerfExpr, TermPool, TermRef};
use bolt_hw::ConservativeModel;
use bolt_see::symbolic::PacketField;
use bolt_see::{ExplorationResult, NfVerdict};
use bolt_solver::Solver;
use bolt_trace::{Metric, TraceEvent, Tracer};
use nf_lib::registry::DsRegistry;

use crate::classes::InputClass;

/// Contract of one feasible execution path.
#[derive(Debug, Clone)]
pub struct PathContract {
    /// Index within the parent [`NfContract`].
    pub index: usize,
    /// The path's constraints (conjunction).
    pub constraints: Vec<TermRef>,
    /// Labels the NF attached.
    pub tags: Vec<&'static str>,
    /// The NF's verdict on this path.
    pub verdict: Option<NfVerdict>,
    /// Per-metric cost expressions, indexed by [`Metric::index`].
    pub perf: [PerfExpr; 3],
    /// Input packet fields the path read (offset, size, symbol).
    pub packet_fields: Vec<PacketField>,
    /// Final symbolic packet state (for chain composition).
    pub final_packet: Vec<(u64, u8, TermRef)>,
}

impl PathContract {
    /// The expression for a metric.
    pub fn expr(&self, metric: Metric) -> &PerfExpr {
        &self.perf[metric.index()]
    }

    /// Whether the path carries a tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(&tag)
    }
}

/// A complete performance contract: every feasible path of the NF, plus
/// the term pool their constraints live in.
///
/// Invariant: each path's constraints are feasible on their own
/// (`Solver::is_feasible(pool, &path.constraints)`). The explorer keeps a
/// path only when `path_feasible()` holds, `compose` keeps a pair only
/// when `current_feasible` holds, and the decoders only re-read what
/// those two wrote. [`NfContract::compatible_paths`] relies on it.
#[derive(Debug)]
pub struct NfContract {
    /// Pool owning all constraint terms.
    pub pool: TermPool,
    /// Per-path contracts.
    pub paths: Vec<PathContract>,
}

/// Result of a class query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Index of the worst compatible path.
    pub path_index: usize,
    /// Its predicted value at the supplied PCV binding.
    pub value: u64,
    /// Its cost expression.
    pub expr: PerfExpr,
}

/// Generate the contract from an exploration (Algorithm 2, lines 4–17).
///
/// For every path: stateless `Instr`/`Mem` events contribute their exact
/// counts to the instructions/accesses metrics and are replayed through a
/// [`ConservativeModel`], reset cold per path, for the cycles metric;
/// every recorded [`TraceEvent::Stateful`] call contributes the case
/// expression the path selected, resolved against `reg`.
///
/// Panics if the exploration was truncated by the explorer's `max_paths`
/// bound: a contract over an incomplete path set is not conservative
/// (its worst case could under-estimate). Callers that want to handle
/// path explosion must check [`ExplorationResult::truncated`] before
/// generating.
pub fn generate(reg: &DsRegistry, exploration: ExplorationResult) -> NfContract {
    assert!(
        !exploration.truncated,
        "path explosion: exploration truncated at {} paths — bound the \
         NF's loops (or raise Explorer::max_paths); a contract over an \
         incomplete path set would not be conservative",
        exploration.paths.len()
    );
    let ExplorationResult { pool, paths, .. } = exploration;
    let mut out = Vec::with_capacity(paths.len());
    let mut hw = ConservativeModel::new();
    for (index, p) in paths.into_iter().enumerate() {
        // A sum has at most one term per term of its summands, plus the
        // stateless constant: with room for that, each metric's sum
        // allocates once.
        let mut room = [1; 3];
        for ev in &p.events {
            if let TraceEvent::Stateful(call) = ev {
                let case = reg.resolve(*call);
                for m in Metric::ALL {
                    room[m.index()] += case.expr(m).iter().count();
                }
            }
        }
        let mut perf = room.map(PerfExpr::with_capacity);
        let mut stateless_ic = 0u64;
        let mut stateless_ma = 0u64;
        hw.reset();
        for ev in &p.events {
            match ev {
                TraceEvent::Stateful(call) => {
                    let case = reg.resolve(*call);
                    for m in Metric::ALL {
                        perf[m.index()].add_assign(case.expr(m));
                    }
                }
                ev => {
                    stateless_ic += ev.instruction_count();
                    stateless_ma += ev.mem_access_count();
                    hw.event(*ev);
                }
            }
        }
        perf[Metric::Instructions.index()].add_const(stateless_ic);
        perf[Metric::MemAccesses.index()].add_const(stateless_ma);
        perf[Metric::Cycles.index()].add_const(hw.cycles());
        out.push(PathContract {
            index,
            constraints: p.constraints,
            tags: p.tags,
            verdict: p.verdict,
            perf,
            packet_fields: p.packet_fields,
            final_packet: p.final_packet,
        });
    }
    NfContract { pool, paths: out }
}

impl NfContract {
    /// Indices of the paths compatible with an input class: tags must
    /// match and the conjunction of path constraints and instantiated
    /// class constraints must not be provably unsatisfiable.
    ///
    /// The solver runs only for a path on which the class instantiates a
    /// constraint — a field predicate on a field the path read. A class
    /// that adds nothing there (`Unconstrained`, `Tag`, `NotTag`, a field
    /// the path never read, or an `All` of these) leaves the path's own
    /// constraints, which are feasible by the type's invariant.
    pub fn compatible_paths(&mut self, solver: &Solver, class: &InputClass) -> Vec<usize> {
        (0..self.paths.len())
            .filter(|&i| self.is_compatible(solver, class, i))
            .collect()
    }

    fn is_compatible(&mut self, solver: &Solver, class: &InputClass, i: usize) -> bool {
        let path = &self.paths[i];
        if !class.spec.tags_match(path) {
            return false;
        }
        let extra = class.spec.instantiate(&mut self.pool, &path.packet_fields);
        if extra.is_empty() {
            return true;
        }
        let mut cs = path.constraints.clone();
        cs.extend(extra);
        solver.is_feasible(&self.pool, &cs)
    }

    /// The class's predicted performance: the worst compatible path's
    /// expression evaluated at `env` (§5.1's conservative reporting). On
    /// a tie the last such path wins.
    pub fn query(
        &mut self,
        solver: &Solver,
        class: &InputClass,
        metric: Metric,
        env: &PcvAssignment,
    ) -> Option<QueryResult> {
        let mut worst: Option<(u64, usize)> = None;
        for i in 0..self.paths.len() {
            if !self.is_compatible(solver, class, i) {
                continue;
            }
            let value = self.paths[i].expr(metric).eval(env);
            match worst {
                Some((v, _)) if value < v => {}
                _ => worst = Some((value, i)),
            }
        }
        worst.map(|(value, path_index)| QueryResult {
            path_index,
            value,
            expr: self.paths[path_index].expr(metric).clone(),
        })
    }

    /// Paths carrying a tag.
    pub fn tagged<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a PathContract> + 'a {
        self.paths.iter().filter(move |p| p.has_tag(tag))
    }

    /// The worst path overall for a metric under a binding (the WCET-style
    /// query: an unconstrained class).
    pub fn worst(&self, metric: Metric, env: &PcvAssignment) -> Option<&PathContract> {
        self.paths.iter().max_by_key(|p| p.expr(metric).eval(env))
    }

    /// Synthesize a concrete packet that drives the NF down `path`
    /// (CASTAN-style adversarial input synthesis, §5.1): ask the solver
    /// for a witness and materialise the constrained fields into a frame.
    /// Returns the frame bytes and the witness input-port value.
    pub fn synthesize_packet(
        &self,
        solver: &Solver,
        path_index: usize,
        frame_len: usize,
    ) -> Option<(Vec<u8>, u16)> {
        let p = &self.paths[path_index];
        let w = match solver.check(&self.pool, &p.constraints) {
            bolt_solver::SolveResult::Sat(w) => w,
            _ => return None,
        };
        let mut bytes = vec![0u8; frame_len];
        for f in &p.packet_fields {
            let v = w.get(f.sym);
            for i in 0..f.bytes as usize {
                let shift = 8 * (f.bytes as usize - 1 - i);
                let idx = f.offset as usize + i;
                if idx < bytes.len() {
                    bytes[idx] = (v >> shift) as u8;
                }
            }
        }
        // The direction symbol, if the NF read one.
        let mut port = 0u16;
        for id in 0..self.pool.sym_count() as u32 {
            if self.pool.sym_name(id) == "pkt.in_port" {
                port = w.get(id) as u16;
            }
        }
        Some((bytes, port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassSpec;
    use bolt_expr::Width;
    use bolt_see::{Explorer, NfCtx};
    use bolt_trace::Metric;
    use dpdk_sim::headers as h;
    use nf_lib::flow_table::{FlowTableOps, FlowTableParams};
    use nf_lib::model::DsModel;

    fn toy_contract() -> (DsRegistry, nf_lib::flow_table::FlowTableIds, NfContract) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 256,
            ttl_ns: 1000,
        };
        let ids = nf_lib::flow_table::register::<1>(&mut reg, "t", "", params);
        let result = Explorer::new().explore(|ctx| {
            let mut model = DsModel {
                ds: ids.ds,
                bound: params.capacity as u64,
            };
            let pkt = ctx.packet(64);
            let et = ctx.load(pkt, h::ETHER_TYPE, 2);
            if ctx.branch_eq_imm(et, h::ETHERTYPE_IPV4 as u64, Width::W16) {
                ctx.tag("valid");
                let f = ctx.load(pkt, h::IPV4_SRC, 4);
                let f64v = ctx.zext(f, Width::W64);
                let now = ctx.lit(0, Width::W64);
                match FlowTableOps::<_, 1>::get(&mut model, ctx, &[f64v], now) {
                    Some(_) => ctx.tag("hit"),
                    None => ctx.tag("miss"),
                }
                ctx.verdict(NfVerdict::Forward(0));
            } else {
                ctx.tag("invalid");
                ctx.verdict(NfVerdict::Drop);
            }
        });
        let contract = generate(&reg, result);
        (reg, ids, contract)
    }

    #[test]
    fn stateless_and_stateful_costs_combine() {
        let (reg, ids, contract) = toy_contract();
        assert_eq!(contract.paths.len(), 3);
        let hit = contract.tagged("hit").next().unwrap();
        // The hit path's instruction expression = stateless constant +
        // get-hit case expression: it must carry the t PCV.
        let expr = hit.expr(Metric::Instructions);
        assert!(expr.coeff(&bolt_expr::Monomial::var(ids.t)) > 0);
        assert!(expr.constant_term() > 0);
        // The invalid path is a pure constant (no stateful calls).
        let invalid = contract.tagged("invalid").next().unwrap();
        assert!(invalid.expr(Metric::Instructions).as_const().is_some());
        // Cycles expressions exist and dominate instruction counts.
        let _ = reg;
        for p in &contract.paths {
            let env = PcvAssignment::new();
            assert!(
                p.expr(Metric::Cycles).eval(&env) >= p.expr(Metric::Instructions).eval(&env),
                "a cycle is at least an instruction on this machine"
            );
        }
    }

    #[test]
    fn class_queries_pick_worst_compatible_path() {
        let (_, ids, mut contract) = toy_contract();
        let solver = Solver::default();
        let valid = InputClass::new(
            "valid packets",
            ClassSpec::field_eq(h::ETHER_TYPE, 2, h::ETHERTYPE_IPV4 as u64),
        );
        let invalid = InputClass::new(
            "invalid packets",
            ClassSpec::field_ne(h::ETHER_TYPE, 2, h::ETHERTYPE_IPV4 as u64),
        );
        let mut env = PcvAssignment::new();
        env.set(ids.t, 4).set(ids.c, 1);
        let qv = contract
            .query(&solver, &valid, Metric::Instructions, &env)
            .unwrap();
        let qi = contract
            .query(&solver, &invalid, Metric::Instructions, &env)
            .unwrap();
        assert!(qv.value > qi.value, "valid packets cost more");
        // The valid class's worst path is the hit path (it has the t/c
        // terms).
        assert!(contract.paths[qv.path_index].has_tag("hit"));
        // Class compatibility filtered correctly.
        assert_eq!(contract.compatible_paths(&solver, &invalid).len(), 1);
        assert_eq!(contract.compatible_paths(&solver, &valid).len(), 2);
    }

    #[test]
    fn synthesized_packets_trigger_their_class() {
        let (_, _, mut contract) = toy_contract();
        let solver = Solver::default();
        let invalid = InputClass::new(
            "invalid",
            ClassSpec::field_ne(h::ETHER_TYPE, 2, h::ETHERTYPE_IPV4 as u64),
        );
        let idx = contract.compatible_paths(&solver, &invalid)[0];
        let (bytes, _) = contract.synthesize_packet(&solver, idx, 64).unwrap();
        let et = u16::from_be_bytes([bytes[12], bytes[13]]);
        assert_ne!(et, h::ETHERTYPE_IPV4);
    }

    #[test]
    fn tag_classes_work() {
        let (_, _, mut contract) = toy_contract();
        let solver = Solver::default();
        let hits = InputClass::new("hits", ClassSpec::Tag("hit"));
        assert_eq!(contract.compatible_paths(&solver, &hits).len(), 1);
    }

    /// A contract built by hand over one 2-byte field `x` at offset 12:
    /// one path per (values `x` must equal, constant cost).
    fn hand_built(paths: &[(&[u64], u64)]) -> NfContract {
        let mut pool = TermPool::new();
        let x = pool.fresh_sym("pkt@12:2", Width::W16);
        let sym = match *pool.get(x) {
            bolt_expr::Term::Sym { id, .. } => id,
            _ => unreachable!(),
        };
        let paths = paths
            .iter()
            .enumerate()
            .map(|(index, &(values, cost))| PathContract {
                index,
                constraints: values
                    .iter()
                    .map(|&v| {
                        let c = pool.constant(v, Width::W16);
                        pool.eq(x, c)
                    })
                    .collect(),
                tags: Vec::new(),
                verdict: None,
                perf: std::array::from_fn(|_| PerfExpr::constant(cost)),
                packet_fields: vec![PacketField {
                    offset: 12,
                    bytes: 2,
                    sym,
                    term: x,
                }],
                final_packet: Vec::new(),
            })
            .collect();
        NfContract { pool, paths }
    }

    #[test]
    fn only_a_class_that_adds_a_constraint_asks_the_solver() {
        // Path 1 (`x == 1 ∧ x == 2`) breaks `NfContract`'s invariant, as
        // no producer would: a class that adds nothing takes it on trust,
        // one that constrains `x` still has the solver refute it.
        let mut contract = hand_built(&[(&[1], 10), (&[1, 2], 20)]);
        let solver = Solver::default();
        let env = PcvAssignment::new();
        let any = InputClass::unconstrained();
        assert_eq!(contract.compatible_paths(&solver, &any), [0, 1]);
        let q = contract.query(&solver, &any, Metric::Cycles, &env).unwrap();
        assert_eq!((q.path_index, q.value), (1, 20));
        let small = InputClass::new(
            "x <= 5",
            ClassSpec::FieldUle {
                offset: 12,
                bytes: 2,
                value: 5,
            },
        );
        assert_eq!(contract.compatible_paths(&solver, &small), [0]);
        let q = contract
            .query(&solver, &small, Metric::Cycles, &env)
            .unwrap();
        assert_eq!((q.path_index, q.value), (0, 10));
    }

    #[test]
    fn the_last_of_equally_costly_paths_is_the_worst() {
        let mut contract = hand_built(&[(&[], 30), (&[1], 30), (&[2], 7)]);
        let q = contract
            .query(
                &Solver::default(),
                &InputClass::unconstrained(),
                Metric::Instructions,
                &PcvAssignment::new(),
            )
            .unwrap();
        assert_eq!((q.path_index, q.value), (1, 30));
        assert_eq!(q.expr, PerfExpr::constant(30));
    }

    #[test]
    #[should_panic(expected = "path explosion")]
    fn truncated_exploration_cannot_generate_a_contract() {
        // A contract over an incomplete path set would under-estimate the
        // worst case; generation must fail loudly, not silently drop
        // paths (callers handle truncation via ExplorationResult).
        let reg = DsRegistry::new();
        let mut ex = Explorer::new();
        ex.max_paths = 2;
        let result = ex.explore(|ctx| {
            let pkt = ctx.packet(64);
            for i in 0..4 {
                let b = ctx.load(pkt, i, 1);
                let z = ctx.lit(0, Width::W8);
                let c = ctx.eq(b, z);
                ctx.branch(c);
            }
            ctx.verdict(NfVerdict::Drop);
        });
        assert!(result.truncated);
        let _ = generate(&reg, result);
    }
}
