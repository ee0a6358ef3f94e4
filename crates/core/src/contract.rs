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
/// cold [`ConservativeModel`] for the cycles metric; every recorded
/// [`TraceEvent::Stateful`] call contributes the case expression the path
/// selected, resolved against `reg`.
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
    for (index, p) in paths.into_iter().enumerate() {
        let mut perf = [PerfExpr::zero(), PerfExpr::zero(), PerfExpr::zero()];
        let mut stateless_ic = 0u64;
        let mut stateless_ma = 0u64;
        let mut hw = ConservativeModel::new();
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
    pub fn compatible_paths(&mut self, solver: &Solver, class: &InputClass) -> Vec<usize> {
        let mut out = Vec::new();
        for i in 0..self.paths.len() {
            if !class.spec.tags_match(&self.paths[i]) {
                continue;
            }
            let mut cs = self.paths[i].constraints.clone();
            let extra = class
                .spec
                .instantiate(&mut self.pool, &self.paths[i].packet_fields);
            cs.extend(extra);
            if solver.is_feasible(&self.pool, &cs) {
                out.push(i);
            }
        }
        out
    }

    /// The class's predicted performance: the worst compatible path's
    /// expression evaluated at `env` (§5.1's conservative reporting).
    pub fn query(
        &mut self,
        solver: &Solver,
        class: &InputClass,
        metric: Metric,
        env: &PcvAssignment,
    ) -> Option<QueryResult> {
        let compatible = self.compatible_paths(solver, class);
        compatible
            .into_iter()
            .map(|i| QueryResult {
                path_index: i,
                value: self.paths[i].expr(metric).eval(env),
                expr: self.paths[i].expr(metric).clone(),
            })
            .max_by_key(|r| r.value)
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
    use nf_lib::flow_table::{FlowTableModel, FlowTableOps, FlowTableParams};

    fn toy_contract() -> (DsRegistry, nf_lib::flow_table::FlowTableIds, NfContract) {
        let mut reg = DsRegistry::new();
        let params = FlowTableParams {
            capacity: 256,
            ttl_ns: 1000,
        };
        let ids = nf_lib::flow_table::register::<1>(&mut reg, "t", "", params);
        let result = Explorer::new().explore(|ctx| {
            let mut model = FlowTableModel::new(ids, params);
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
