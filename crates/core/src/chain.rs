//! NF-chain composition (§3.4) and contract-proven parallelization.
//!
//! Two contracts compose by pairing execution paths: an upstream path
//! that forwards is paired with every downstream path whose constraints
//! are compatible once the upstream NF's *output* packet expressions are
//! equated with the downstream NF's *input* symbols. Incompatible pairs
//! are discarded — which is exactly how the firewall masks the router's
//! expensive IP-options path in §5.2 (Figure 3 / Table 5c). Upstream
//! paths that drop the packet appear in the composed contract on their
//! own.
//!
//! Both contracts keep their own term pools; composition migrates terms
//! into a joint pool, remapping every symbol to a fresh one prefixed by
//! the NF's name.
//!
//! The public front door is [`crate::composer::Composer`].
//!
//! The cross-product is one loop on the caller's thread: each upstream
//! path, in path order, is composed against every downstream candidate.
//! Composed path order, constraint terms, verdicts, metrics, and
//! [`SolverStats`] counters are therefore a function of the two operand
//! contracts and the cache's prior contents alone.
//!
//! # Memoized composition
//!
//! Composed contracts are content-addressed store records: each fold
//! step of a [`Pipeline`] is keyed by
//! [`crate::store::compose_key`] over the two operand fingerprints and
//! the stack level, so a warm chain run decodes the final composed
//! contract straight from disk — zero stage explorations, zero compose
//! solver queries ([`ChainReport`] counts both).
//!
//! # Proving order-independence
//!
//! Many service-chain stages are order-independent, and for those the
//! chain's cycle contract need not be a *sum*: stages that provably
//! commute can run side by side, making the group's latency the *max*
//! of its members plus a merge cost. The proof obligation is
//! `compose(A,B) ≡ compose(B,A)` on paths, verdicts, and metrics, and
//! [`stages_commute`] discharges it by comparing *canonical signatures*
//! of the two composed contracts: per-path, the verdict, the sorted
//! tags, the three cost polynomials, and every constraint and packet
//! field rendered with symbols renamed by stage identity (not by
//! compose position) and commutative operands sorted — so the two
//! operand orders, which intern different `nf1.`/`nf2.` symbol spaces
//! in different orders, become literally comparable strings. The check
//! is conservative: a `true` is a proof that the composed behaviour is
//! identical either way; a `false` merely keeps the pair sequential.
//!
//! [`Pipeline::parallelize`] runs that check pair-by-pair to partition
//! a chain into sequential groups of provably-parallel stages, emitting
//! a [`ChainPlan`] whose predicted cycle contract per group is
//! `max(members) + merge_cost` (merge cost from
//! [`bolt_hw::CostTable::parallel_merge_cycles`]).

use std::fmt;

use bolt_expr::{
    BinOp, FxHashMap, PcvAssignment, PerfExpr, SymTable, Term, TermPool, TermRef, UnOp,
};
use bolt_see::symbolic::PacketField;
use bolt_see::NfVerdict;
use bolt_solver::{Solver, SolverCache, SolverCtx, SolverStats};
use bolt_trace::Metric;
use dpdk_sim::StackLevel;
use nf_lib::registry::sum3;

use crate::composer::Composer;
use crate::contract::{NfContract, PathContract};
use crate::nf::AbstractNf;
use crate::store::{compose_key, level_name, Fingerprint};

/// Rebuild [`PacketField`]s around migrated terms, keeping the fields
/// whose term is a symbol. Reads the pool only.
fn fields_of(pool: &TermPool, fields: &[(u64, u8, TermRef)]) -> Vec<PacketField> {
    fields
        .iter()
        .filter_map(|&(offset, bytes, term)| match *pool.get(term) {
            Term::Sym { id, .. } => Some(PacketField {
                offset,
                bytes,
                sym: id,
                term,
            }),
            _ => None,
        })
        .collect()
}

/// Migrates both operands' terms into the joint pool, remapping each
/// side's symbols under its prefix. Symbols mint through `syms`, so
/// however many upstream paths meet a symbol, it is minted once. The
/// memos are a pure cache under hash-consing: a miss rebuilds the same
/// ref and interns nothing new.
struct Migrator<'a> {
    srcs: [&'a TermPool; 2],
    memo: [FxHashMap<TermRef, TermRef>; 2],
    syms: SymTable,
}

/// [`Migrator`] sides: the upstream and the downstream operand.
const NF1: usize = 0;
const NF2: usize = 1;

impl<'a> Migrator<'a> {
    fn new(first: &'a NfContract, second: &'a NfContract) -> Self {
        Migrator {
            srcs: [&first.pool, &second.pool],
            memo: Default::default(),
            syms: SymTable::default(),
        }
    }

    fn migrate(&mut self, dst: &mut TermPool, side: usize, t: TermRef) -> TermRef {
        if let Some(&m) = self.memo[side].get(&t) {
            return m;
        }
        let src = self.srcs[side];
        let out = match *src.get(t) {
            Term::Const { value, width } => dst.constant(value, width),
            Term::Sym { id, width } => {
                let name = format!("nf{}.{}", side + 1, src.sym_name(id));
                self.syms.sym_for(dst, &name, width)
            }
            Term::Unop { op, a } => {
                let a = self.migrate(dst, side, a);
                dst.unop(op, a)
            }
            Term::Binop { op, a, b } => {
                let a = self.migrate(dst, side, a);
                let b = self.migrate(dst, side, b);
                dst.binop(op, a, b)
            }
            Term::Ite { c, t: tt, e } => {
                let c = self.migrate(dst, side, c);
                let tt = self.migrate(dst, side, tt);
                let e = self.migrate(dst, side, e);
                dst.ite(c, tt, e)
            }
            Term::Zext { a, width } => {
                let a = self.migrate(dst, side, a);
                dst.zext(a, width)
            }
            Term::Trunc { a, width } => {
                let a = self.migrate(dst, side, a);
                dst.trunc(a, width)
            }
        };
        self.memo[side].insert(t, out);
        out
    }
}

/// Compose two contracts into the contract of `first → second` (the
/// body behind [`Composer::compose`]).
///
/// One loop: each upstream path, in path order, is paired with every
/// downstream path, and a pair becomes a composed [`PathContract`] as
/// soon as it is proved feasible. The upstream constraints are asserted
/// once into an incremental [`SolverCtx`]; every downstream candidate
/// extends that saved state under a push/pop checkpoint, with verdicts
/// and models memoised in the given [`SolverCache`].
///
/// Both NFs must have been registered against the *same*
/// [`nf_lib::registry::DsRegistry`]
/// (or be stateless) so that PCV ids agree in the summed expressions.
pub(crate) fn compose_pair(
    first: &NfContract,
    second: &NfContract,
    solver: &Solver,
    cache: &mut SolverCache,
) -> NfContract {
    let mut pool = TermPool::new();
    let mut mig = Migrator::new(first, second);
    let mut paths = Vec::new();
    // A pair's constraints beyond the upstream path's own: the migrated
    // downstream constraints plus the input/output link equalities.
    let mut tail: Vec<TermRef> = Vec::new();
    for pa in &first.paths {
        let ca: Vec<TermRef> = pa
            .constraints
            .iter()
            .map(|&t| mig.migrate(&mut pool, NF1, t))
            .collect();
        let forwards = matches!(
            pa.verdict,
            Some(NfVerdict::Forward(_)) | Some(NfVerdict::Flood)
        );
        // Output packet state of the upstream path, then its input
        // fields, migrated.
        let out_fields: Vec<(u64, u8, TermRef)> = if forwards {
            pa.final_packet
                .iter()
                .map(|&(o, b, t)| (o, b, mig.migrate(&mut pool, NF1, t)))
                .collect()
        } else {
            Vec::new()
        };
        let in_fields: Vec<(u64, u8, TermRef)> = pa
            .packet_fields
            .iter()
            .map(|f| (f.offset, f.bytes, mig.migrate(&mut pool, NF1, f.term)))
            .collect();
        if !forwards {
            // The packet dies here: the pair is the upstream path alone.
            paths.push(PathContract {
                index: paths.len(),
                constraints: ca,
                tags: pa.tags.clone(),
                verdict: pa.verdict,
                perf: pa.perf.clone(),
                packet_fields: fields_of(&pool, &in_fields),
                final_packet: Vec::new(),
            });
            continue;
        }
        // The upstream NF's value of a field: written value if any, else
        // the pass-through input symbol.
        let nf1_field = |o: u64, b: u8| {
            out_fields
                .iter()
                .chain(&in_fields)
                .find(|&&(fo, fb, _)| fo == o && fb == b)
                .map(|&(_, _, t)| t)
        };
        let mut upstream = SolverCtx::new(solver);
        for &c in &ca {
            upstream.assert_term(&pool, c);
        }
        for pb in &second.paths {
            tail.clear();
            tail.extend(
                pb.constraints
                    .iter()
                    .map(|&t| mig.migrate(&mut pool, NF2, t)),
            );
            // Link: the downstream NF's input fields equal the upstream
            // NF's output.
            for f in &pb.packet_fields {
                let downstream = mig.migrate(&mut pool, NF2, f.term);
                if let Some(up) = nf1_field(f.offset, f.bytes) {
                    tail.push(pool.eq(downstream, up));
                }
            }
            upstream.push();
            for &c in &tail {
                upstream.assert_term(&pool, c);
            }
            let feasible = upstream.current_feasible(&pool, cache);
            upstream.pop();
            if !feasible {
                continue;
            }
            let mut constraints = Vec::with_capacity(ca.len() + tail.len());
            constraints.extend_from_slice(&ca);
            constraints.extend_from_slice(&tail);
            // The chain's input fields are the first NF's inputs, plus
            // any field the second NF reads that passed through the
            // first NF untouched (it is still free chain input).
            let mut pf = in_fields.clone();
            for f in &pb.packet_fields {
                if nf1_field(f.offset, f.bytes).is_none() {
                    pf.push((f.offset, f.bytes, mig.migrate(&mut pool, NF2, f.term)));
                }
            }
            // The chain's final packet: the second NF's writes overlay
            // the first NF's final state.
            let mut final_packet = out_fields.clone();
            for &(o, b, t) in &pb.final_packet {
                let t = mig.migrate(&mut pool, NF2, t);
                match final_packet
                    .iter_mut()
                    .find(|(fo, fb, _)| *fo == o && *fb == b)
                {
                    Some(slot) => slot.2 = t,
                    None => final_packet.push((o, b, t)),
                }
            }
            let mut tags = pa.tags.clone();
            tags.extend(pb.tags.iter().copied());
            paths.push(PathContract {
                index: paths.len(),
                constraints,
                tags,
                verdict: pb.verdict,
                perf: sum3(&pa.perf, &pb.perf),
                packet_fields: fields_of(&pool, &pf),
                final_packet,
            });
        }
    }
    NfContract { pool, paths }
}

// ---------------------------------------------------------------------------
// Commutativity: canonical signatures of composed contracts.
// ---------------------------------------------------------------------------

/// Whether swapping a binary operator's operands preserves its value.
fn op_is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
    )
}

/// Render a term into a canonical string: symbols pass through `rename`
/// (mapping the compose-position `nf1.`/`nf2.` prefixes back to stable
/// stage identities) and commutative operands are emitted in sorted
/// order, so two pools that interned the same expression from different
/// directions produce identical strings.
fn canon_term(pool: &TermPool, t: TermRef, rename: &dyn Fn(&str) -> String) -> String {
    match *pool.get(t) {
        Term::Const { value, width } => format!("{value}:w{}", width.bits()),
        Term::Sym { id, width } => format!("{}:w{}", rename(pool.sym_name(id)), width.bits()),
        Term::Unop { op: UnOp::Not, a } => format!("(! {})", canon_term(pool, a, rename)),
        Term::Binop { op, a, b } => {
            let mut x = canon_term(pool, a, rename);
            let mut y = canon_term(pool, b, rename);
            if op_is_commutative(op) && y < x {
                std::mem::swap(&mut x, &mut y);
            }
            format!("({x} {} {y})", op.symbol())
        }
        Term::Ite { c, t: tt, e } => format!(
            "(ite {} {} {})",
            canon_term(pool, c, rename),
            canon_term(pool, tt, rename),
            canon_term(pool, e, rename)
        ),
        Term::Zext { a, width } => {
            format!("(zext{} {})", width.bits(), canon_term(pool, a, rename))
        }
        Term::Trunc { a, width } => {
            format!("(trunc{} {})", width.bits(), canon_term(pool, a, rename))
        }
    }
}

/// Canonical rendering of a cost polynomial (monomials are already kept
/// sorted internally, so this is deterministic).
fn canon_perf(p: &PerfExpr) -> String {
    p.iter()
        .map(|(m, c)| {
            let vars: Vec<u32> = m.vars().iter().map(|v| v.0).collect();
            format!("{c}x{vars:?}")
        })
        .collect::<Vec<_>>()
        .join("+")
}

/// Canonical signature of one composed path: verdict, sorted tags, the
/// three cost polynomials, and the sorted canonical constraint / packet
/// field / final-packet renderings. Path order and term-intern order do
/// not participate.
fn path_signature(pool: &TermPool, p: &PathContract, rename: &dyn Fn(&str) -> String) -> String {
    let mut tags: Vec<&str> = p.tags.clone();
    tags.sort_unstable();
    let mut cs: Vec<String> = p
        .constraints
        .iter()
        .map(|&t| canon_term(pool, t, rename))
        .collect();
    cs.sort();
    let mut pf: Vec<String> = p
        .packet_fields
        .iter()
        .map(|f| {
            format!(
                "{}+{}={}",
                f.offset,
                f.bytes,
                canon_term(pool, f.term, rename)
            )
        })
        .collect();
    pf.sort();
    let mut fpk: Vec<String> = p
        .final_packet
        .iter()
        .map(|&(o, b, t)| format!("{o}+{b}={}", canon_term(pool, t, rename)))
        .collect();
    fpk.sort();
    format!(
        "v={:?} tags={tags:?} ic={} ma={} cy={} cs={cs:?} pf={pf:?} fp={fpk:?}",
        p.verdict,
        canon_perf(&p.perf[Metric::Instructions.index()]),
        canon_perf(&p.perf[Metric::MemAccesses.index()]),
        canon_perf(&p.perf[Metric::Cycles.index()]),
    )
}

/// The canonical signature of a composed contract: the sorted multiset
/// of its path signatures, with the compose-position symbol prefixes
/// (`nf1.`, `nf2.`) renamed to the given stage identity labels. Two
/// compositions of the same two stages in opposite orders commute iff
/// their signatures are equal.
pub(crate) fn contract_signature(
    c: &NfContract,
    first_label: &str,
    second_label: &str,
) -> Vec<String> {
    let rename = |name: &str| -> String {
        if let Some(rest) = name.strip_prefix("nf1.") {
            format!("{first_label}.{rest}")
        } else if let Some(rest) = name.strip_prefix("nf2.") {
            format!("{second_label}.{rest}")
        } else {
            name.to_string()
        }
    };
    let mut sigs: Vec<String> = c
        .paths
        .iter()
        .map(|p| path_signature(&c.pool, p, &rename))
        .collect();
    sigs.sort();
    sigs
}

/// Prove (or fail to prove) that two stages are order-independent:
/// compose them both ways and compare canonical signatures (see the
/// module docs). `label_a`/`label_b` are stable stage identities — they
/// must be equal exactly when the two stages are interchangeable (same
/// name *and* same configuration), which is what lets a pair of
/// identical stages commute trivially while two same-named stages with
/// different configs stay distinguishable.
///
/// The check is conservative and the contract is one-sided: `true`
/// proves `compose(a,b)` and `compose(b,a)` describe identical
/// behaviour (paths, verdicts, metrics, packet effects); `false` only
/// means the proof failed and the pair must stay sequential. Drops
/// break commutativity with any non-identical neighbour by
/// construction — an upstream drop path stands alone, while the same
/// drop downstream is crossed with every upstream path — which is the
/// conservative answer: reordering around a dropper changes what the
/// other stage observes.
pub fn stages_commute(
    a: &NfContract,
    b: &NfContract,
    label_a: &str,
    label_b: &str,
    solver: &Solver,
    cache: &mut SolverCache,
) -> bool {
    let ab = compose_pair(a, b, solver, cache);
    let ba = compose_pair(b, a, solver, cache);
    // Two sorted multisets of different size are never equal, and a
    // drop-capable stage yields exactly that shape (see above), so the
    // common refusal costs no rendering at all.
    ab.paths.len() == ba.paths.len()
        && contract_signature(&ab, label_a, label_b) == contract_signature(&ba, label_b, label_a)
}

// ---------------------------------------------------------------------------
// Chain plans.
// ---------------------------------------------------------------------------

/// The outcome of one pairwise commutativity check the planner ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommuteWitness {
    /// Chain index of the earlier stage.
    pub left: u32,
    /// Chain index of the later stage.
    pub right: u32,
    /// Whether `compose(left,right) ≡ compose(right,left)` was proven.
    pub commutes: bool,
    /// The two stages had identical store keys (same NF, same config):
    /// commutativity holds trivially, no composition probe was run.
    pub identical: bool,
}

/// A contract-proven parallelization plan for one chain: consecutive
/// groups of stages whose members provably commute pairwise, so each
/// group can execute side by side and the chain's cycle contract drops
/// from the *sum* of stage worst cases to, per group,
/// `max(members) + merge_cost`.
///
/// The semantic contract of the chain is untouched — groups are proven
/// order-independent, so the sequential composed contract remains the
/// truth for paths/verdicts/metrics; the plan re-interprets *latency*
/// only.
///
/// Plans are store-cacheable (keyed over every stage fingerprint and the
/// level, so any stage-config change invalidates).
#[derive(Clone, Debug, PartialEq)]
pub struct ChainPlan {
    /// Stage names, upstream first.
    pub names: Vec<String>,
    /// Stack level the plan was proven at.
    pub level: StackLevel,
    /// Consecutive groups of chain indices; members of one group
    /// provably commute pairwise. Singleton groups are stages kept
    /// sequential.
    pub groups: Vec<Vec<u32>>,
    /// Every pairwise check the planner ran, in check order.
    pub witnesses: Vec<CommuteWitness>,
    /// Per-stage worst-case cycle polynomial (the stage's worst path at
    /// all-zero PCVs; evaluation-based, since `max` of polynomials is
    /// not a polynomial).
    pub stage_cycles: Vec<PerfExpr>,
    /// Per-group merge cost in cycles
    /// ([`bolt_hw::CostTable::parallel_merge_cycles`] of the group
    /// width; 0 for singletons).
    pub merge_cycles: Vec<u64>,
}

impl ChainPlan {
    /// Number of stages the plan covers.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the plan covers no stages.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether any group actually runs stages side by side.
    pub fn is_parallel(&self) -> bool {
        self.groups.iter().any(|g| g.len() > 1)
    }

    /// Width of the widest group.
    pub fn widest_group(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The sequential cycle contract: the sum of stage worst cases
    /// under `env` (the naive chain latency the plan improves on).
    pub fn sequential_cycles(&self, env: &PcvAssignment) -> u64 {
        self.stage_cycles.iter().map(|e| e.eval(env)).sum()
    }

    /// The parallelized cycle contract: per group, the max of its
    /// members' worst cases plus the group's merge cost, summed across
    /// groups.
    pub fn parallel_cycles(&self, env: &PcvAssignment) -> u64 {
        self.groups
            .iter()
            .zip(&self.merge_cycles)
            .map(|(g, &merge)| {
                let worst = g
                    .iter()
                    .map(|&i| self.stage_cycles[i as usize].eval(env))
                    .max()
                    .unwrap_or(0);
                worst + merge
            })
            .sum()
    }

    /// Predicted sequential/parallel speedup at all-zero PCVs. 1.0 when
    /// nothing parallelizes (or the chain predicts zero cycles).
    pub fn predicted_speedup(&self) -> f64 {
        let env = PcvAssignment::new();
        let seq = self.sequential_cycles(&env);
        let par = self.parallel_cycles(&env);
        if par == 0 {
            1.0
        } else {
            seq as f64 / par as f64
        }
    }

    /// Render the group structure, e.g.
    /// `[firewall | firewall] -> [static_router]`.
    pub fn groups_display(&self) -> String {
        self.groups
            .iter()
            .map(|g| {
                let members: Vec<&str> =
                    g.iter().map(|&i| self.names[i as usize].as_str()).collect();
                format!("[{}]", members.join(" | "))
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Human rendering of one witness, with stage names resolved.
    pub fn describe_witness(&self, w: &CommuteWitness) -> String {
        let verdict = if w.identical {
            "commute (identical configs)"
        } else if w.commutes {
            "commute (signatures equal both orders)"
        } else {
            "order-dependent (kept sequential)"
        };
        format!(
            "{}[{}] x {}[{}] — {verdict}",
            self.names[w.left as usize], w.left, self.names[w.right as usize], w.right
        )
    }
}

impl fmt::Display for ChainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let env = PcvAssignment::new();
        writeln!(f, "plan       : {}", self.groups_display())?;
        write!(
            f,
            "predicted  : {}cy sequential -> {}cy parallel ({:.2}x, widest group {}, merge {}cy)",
            self.sequential_cycles(&env),
            self.parallel_cycles(&env),
            self.predicted_speedup(),
            self.widest_group(),
            self.merge_cycles.iter().sum::<u64>(),
        )
    }
}

/// What one [`Pipeline`] chain run did: the composed contract plus the
/// work provenance the warm-chain CI gate asserts on.
#[derive(Debug)]
pub struct ChainReport {
    /// Stage names, upstream first.
    pub names: Vec<String>,
    /// Stack level the chain was composed at.
    pub level: StackLevel,
    /// The chain's composed-contract store key (the left fold of
    /// [`crate::store::compose_key`] over the stage keys).
    pub key: Fingerprint,
    /// The composed contract of the whole chain.
    pub contract: NfContract,
    /// Compose-side solver counters, accumulated across every fold step
    /// (and, when planning ran, every commutativity probe) that composed
    /// fresh this run. All-zero on a fully warm run.
    pub solver: SolverStats,
    /// Fold steps composed fresh (pairwise cross-product solves ran).
    pub steps_composed: usize,
    /// Stored composed records decoded. The fold resumes after the
    /// *deepest* stored prefix, so this is at most 1 per run — a fully
    /// warm chain decodes exactly the final record, a partially warm one
    /// the longest memoized prefix.
    pub steps_cached: usize,
    /// Stage contracts explored fresh this run.
    pub stages_explored: usize,
    /// Stage contracts decoded from stored explorations.
    pub stages_cached: usize,
    /// The parallelization plan, when the run was asked to plan
    /// ([`Pipeline::parallelize`]).
    pub plan: Option<ChainPlan>,
    /// Whether the plan was decoded from a stored plan record (no
    /// commutativity probes ran).
    pub plan_cached: bool,
}

impl ChainReport {
    /// Whether the run was fully solver-free: every fold step decoded
    /// from the store, no stage explored, no compose solver request
    /// (and, if planning ran, the plan record was warm too).
    pub fn fully_cached(&self) -> bool {
        self.steps_composed == 0
            && self.stages_explored == 0
            && self.solver == SolverStats::default()
            && (self.plan.is_none() || self.plan_cached)
    }

    /// Machine-readable rendering of the report (one JSON object; the
    /// `--json` form of `bolt_cli chain`). Stable field set; plan
    /// predictions are evaluated at all-zero PCVs.
    pub fn to_json(&self) -> String {
        let names = self
            .names
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect::<Vec<_>>()
            .join(", ");
        let plan = match &self.plan {
            None => "null".to_string(),
            Some(p) => {
                let env = PcvAssignment::new();
                let groups = p
                    .groups
                    .iter()
                    .map(|g| {
                        format!(
                            "[{}]",
                            g.iter()
                                .map(|i| i.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let witnesses = p
                    .witnesses
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"left\": {}, \"right\": {}, \"commutes\": {}, \"identical\": {}}}",
                            w.left, w.right, w.commutes, w.identical
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let stage_cycles = p
                    .stage_cycles
                    .iter()
                    .map(|e| e.eval(&env).to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let merges = p
                    .merge_cycles
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"groups\": [{groups}], \"witnesses\": [{witnesses}], \
                     \"stage_cycles\": [{stage_cycles}], \"merge_cycles\": [{merges}], \
                     \"sequential_cycles\": {}, \"parallel_cycles\": {}, \
                     \"predicted_speedup\": {:.4}, \"cached\": {}}}",
                    p.sequential_cycles(&env),
                    p.parallel_cycles(&env),
                    p.predicted_speedup(),
                    self.plan_cached
                )
            }
        };
        format!(
            "{{\"chain\": [{names}], \"level\": \"{}\", \"key\": \"{}\", \"paths\": {}, \
             \"stages_explored\": {}, \"stages_cached\": {}, \"steps_composed\": {}, \
             \"steps_cached\": {}, \"solver\": {{\"checks_requested\": {}, \
             \"solver_queries\": {}}}, \"fully_cached\": {}, \"plan\": {plan}}}",
            level_name(self.level),
            self.key,
            self.contract.paths.len(),
            self.stages_explored,
            self.stages_cached,
            self.steps_composed,
            self.steps_cached,
            self.solver.checks_requested,
            self.solver.solver_queries,
            self.fully_cached(),
        )
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl fmt::Display for ChainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chain {} @ {} — {} paths  key {}",
            self.names.join(" -> "),
            level_name(self.level),
            self.contract.paths.len(),
            self.key
        )?;
        writeln!(
            f,
            "  stages     : {} explored, {} from store",
            self.stages_explored, self.stages_cached
        )?;
        writeln!(
            f,
            "  fold steps : {} composed, {} from store",
            self.steps_composed, self.steps_cached
        )?;
        write!(
            f,
            "  compose    : {} solver requests, {} full queries{}",
            self.solver.checks_requested,
            self.solver.solver_queries,
            if self.fully_cached() {
                " (fully warm: solver-free)"
            } else {
                ""
            }
        )?;
        if let Some(plan) = &self.plan {
            let env = PcvAssignment::new();
            write!(
                f,
                "\n  plan       : {}{}\n  predicted  : {}cy sequential -> {}cy parallel ({:.2}x)",
                plan.groups_display(),
                if self.plan_cached {
                    " (from store)"
                } else {
                    ""
                },
                plan.sequential_cycles(&env),
                plan.parallel_cycles(&env),
                plan.predicted_speedup(),
            )?;
        }
        Ok(())
    }
}

/// A chain of heterogeneous network functions, composed pairwise (§3.4).
///
/// Stages are [`AbstractNf`] trait objects, so any mix of
/// [`crate::nf::NetworkFunction`] implementors chains without generics
/// leaking into the caller:
///
/// ```ignore
/// let chain = Pipeline::new()
///     .push(Firewall::default())
///     .push(StaticRouter::default());
/// let contract = chain.contract(StackLevel::NfOnly).unwrap();
/// ```
///
/// With a persistent contract store attached
/// ([`Pipeline::with_store`]), both halves of the work are memoized:
/// stage explorations are get-or-explore, and every pairwise fold step
/// is a content-addressed composed record (keyed by
/// [`crate::store::compose_key`] over the two operand fingerprints), so
/// a warm chain run is fully solver-free — [`Pipeline::report`] returns
/// the [`ChainReport`] that proves it.
///
/// [`Pipeline::parallelize`] additionally partitions the chain into
/// groups of provably order-independent stages and attaches the
/// [`ChainPlan`] (itself a store record) to the report.
pub struct Pipeline<'s> {
    pub(crate) stages: Vec<Box<dyn AbstractNf>>,
    pub(crate) store: Option<&'s bolt_store::ContractStore>,
}

impl Default for Pipeline<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'s> Pipeline<'s> {
    /// An empty chain.
    pub fn new() -> Self {
        Pipeline {
            stages: Vec::new(),
            store: None,
        }
    }

    /// Append a network function to the downstream end.
    pub fn push(self, nf: impl AbstractNf + 'static) -> Self {
        self.push_boxed(Box::new(nf))
    }

    /// [`Pipeline::push`] for a stage already behind the trait object
    /// (one chosen by name at run time).
    pub fn push_boxed(mut self, nf: Box<dyn AbstractNf>) -> Self {
        self.stages.push(nf);
        self
    }

    /// Attach a persistent contract store consulted for every stage
    /// exploration, every composed fold step, and every chain plan.
    pub fn with_store(mut self, store: &'s bolt_store::ContractStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Accepted and ignored: a chain explores and composes on the
    /// caller's thread. Kept only so existing callers build; it goes
    /// with them (ROADMAP item 1 (g)).
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names, upstream first.
    pub fn names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// The chain's composed-contract store key at a level: the left fold
    /// of [`crate::store::compose_key`] over the stage keys. For a
    /// single-stage chain this is the stage's own key (no composed
    /// record is ever written for it). `None` for an empty chain.
    pub fn chain_key(&self, level: StackLevel) -> Option<Fingerprint> {
        let mut it = self.stages.iter();
        let mut key = it.next()?.store_key(level);
        for s in it {
            key = compose_key(key, s.store_key(level), level);
        }
        Some(key)
    }

    /// Each stage's individual contract, upstream first (every stage is
    /// explored at `level`, through the attached store when there is
    /// one).
    pub fn contracts(&self, level: StackLevel) -> Vec<NfContract> {
        self.stages
            .iter()
            .map(|s| s.explore_contract(level, self.store).0)
            .collect()
    }

    /// The composed contract of the whole chain: stage contracts are
    /// composed pairwise left to right, discarding solver-infeasible
    /// path pairs (which is what masks downstream slow paths the upstream
    /// NFs filter out). Store-aware — this is
    /// [`Pipeline::report`] without the provenance counters. `None` for
    /// an empty chain.
    pub fn contract(&self, level: StackLevel) -> Option<NfContract> {
        self.report(level).map(|r| r.contract)
    }

    /// Compose the chain at `level`, reporting what the run actually did.
    ///
    /// The fold walks stages left to right. For every step it first
    /// consults the attached store, if any, under the step's
    /// [`crate::store::compose_key`]; a hit decodes the composed record
    /// — no stage exploration, no solver work. On a miss the two
    /// operands are materialised (themselves store-backed), composed, and
    /// the result is persisted for the next run. Stage contracts are built lazily, so a fully
    /// warm chain run touches nothing but the final composed record.
    ///
    /// Equivalent to [`crate::composer::Composer::chain`] on a fresh
    /// solver; build a [`Composer`] directly to share a solver cache
    /// across chains.
    pub fn report(&self, level: StackLevel) -> Option<ChainReport> {
        let solver = Solver::default();
        Composer::new(&solver).chain(self, level)
    }

    /// [`Pipeline::report`] with the parallelization planner enabled:
    /// the returned report additionally carries the [`ChainPlan`] —
    /// groups of provably-commuting stages, the commutativity
    /// witnesses, and the predicted `max + merge` cycle contract. With
    /// a store attached the plan is itself a cached record (keyed over
    /// every stage fingerprint, so any stage-config change invalidates
    /// it); a fully warm parallelized run is still solver-free.
    pub fn parallelize(&self, level: StackLevel) -> Option<ChainReport> {
        let solver = Solver::default();
        Composer::new(&solver).fold(self, level, true)
    }
}

/// The naive prediction for a chain: the sum over its stages of each
/// stage's individual worst case (Figure 3's "Naive-Add" bar, generalised
/// to any length). Pair with [`Pipeline::contracts`] +
/// [`crate::composer::Composer::compose_all`] when both the composed
/// contract and the baseline are needed.
pub fn naive_add<'a>(
    contracts: impl IntoIterator<Item = &'a NfContract>,
    metric: Metric,
    env: &PcvAssignment,
) -> u64 {
    contracts
        .into_iter()
        .map(|c| c.worst(metric, env).map_or(0, |p| p.expr(metric).eval(env)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::Width;
    use bolt_see::{Explorer, NfCtx};

    /// A forwarding NF body that writes one field and reads another.
    fn upstream_nf(ctx: &mut bolt_see::SymbolicCtx<'_>) {
        let pkt = ctx.packet(64);
        let et = ctx.load(pkt, 12, 2);
        if ctx.branch_eq_imm(et, 0x0800, Width::W16) {
            ctx.tag("up-valid");
            let marker = ctx.lit(0x7, Width::W8);
            ctx.store(pkt, 30, marker, 1);
            ctx.verdict(NfVerdict::Forward(0));
        } else {
            ctx.tag("up-drop");
            ctx.verdict(NfVerdict::Drop);
        }
    }

    /// A downstream NF body that branches on the upstream-written field.
    fn downstream_nf(ctx: &mut bolt_see::SymbolicCtx<'_>) {
        let pkt = ctx.packet(64);
        let m = ctx.load(pkt, 30, 1);
        if ctx.branch_eq_imm(m, 0x7, Width::W8) {
            ctx.tag("down-fast");
            ctx.verdict(NfVerdict::Forward(1));
        } else {
            ctx.tag("down-slow");
            let x = ctx.load(pkt, 31, 1);
            let z = ctx.lit(0, Width::W8);
            let _ = ctx.add(x, z);
            ctx.verdict(NfVerdict::Forward(1));
        }
    }

    fn toy_pair() -> (NfContract, NfContract) {
        let reg = nf_lib::registry::DsRegistry::new();
        let a = crate::contract::generate(&reg, Explorer::new().explore(upstream_nf));
        let b = crate::contract::generate(&reg, Explorer::new().explore(downstream_nf));
        (a, b)
    }

    /// A stateless always-forward marking filter over one field: reads
    /// `offset`, branches, always `Forward(0)`, never writes. Two such
    /// filters over disjoint fields are genuinely order-independent.
    fn mark_filter(
        offset: u64,
        hit_tag: &'static str,
        miss_tag: &'static str,
    ) -> impl Fn(&mut bolt_see::SymbolicCtx<'_>) {
        move |ctx| {
            let pkt = ctx.packet(64);
            let v = ctx.load(pkt, offset, 1);
            if ctx.branch_eq_imm(v, 0x42, Width::W8) {
                ctx.tag(hit_tag);
            } else {
                ctx.tag(miss_tag);
                let w = ctx.load(pkt, offset + 1, 1);
                let z = ctx.lit(1, Width::W8);
                let _ = ctx.add(w, z);
            }
            ctx.verdict(NfVerdict::Forward(0));
        }
    }

    fn filter_contract(body: impl Fn(&mut bolt_see::SymbolicCtx<'_>)) -> NfContract {
        let reg = nf_lib::registry::DsRegistry::new();
        crate::contract::generate(&reg, Explorer::new().explore(|ctx| body(ctx)))
    }

    #[test]
    fn infeasible_pairs_are_masked() {
        let (a, b) = toy_pair();
        let solver = Solver::default();
        let chain = Composer::new(&solver).compose(&a, &b);
        // up-drop alone, up-valid×down-fast; up-valid×down-slow is
        // infeasible (the upstream always writes 0x7).
        assert_eq!(chain.paths.len(), 2);
        assert!(chain.paths.iter().any(|p| p.has_tag("up-drop")));
        assert!(chain
            .paths
            .iter()
            .any(|p| p.has_tag("up-valid") && p.has_tag("down-fast")));
        assert!(!chain.paths.iter().any(|p| p.has_tag("down-slow")));
    }

    #[test]
    fn shared_cache_reuses_verdicts_across_fold_steps() {
        let (a, b) = toy_pair();
        let solver = Solver::default();
        // Composing the same pair twice through one cache must answer
        // the second step's identical probes from the memo.
        let mut cache = SolverCache::new();
        let _ = compose_pair(&a, &b, &solver, &mut cache);
        let after_first = cache.stats;
        let _ = compose_pair(&a, &b, &solver, &mut cache);
        assert!(
            cache.stats.checks_requested > after_first.checks_requested,
            "second step must issue requests"
        );
        assert_eq!(
            cache.stats.solver_queries, after_first.solver_queries,
            "identical second fold step must run zero fresh solver queries"
        );
    }

    #[test]
    fn compose_all_threads_a_single_cache() {
        let (a, b) = toy_pair();
        let solver = Solver::default();
        let mut composer = Composer::new(&solver);
        let c = composer.compose_all(vec![a, b]).unwrap();
        assert_eq!(c.paths.len(), 2);
        assert!(
            composer.stats().checks_requested > 0,
            "fold reports its work"
        );
    }

    #[test]
    fn empty_and_single_compose_all() {
        let solver = Solver::default();
        assert!(Composer::new(&solver).compose_all(Vec::new()).is_none());
        let (a, _) = toy_pair();
        let n = a.paths.len();
        let only = Composer::new(&solver).compose_all(vec![a]).unwrap();
        assert_eq!(only.paths.len(), n);
    }

    #[test]
    fn independent_stateless_filters_commute() {
        // Disjoint fields (20/21 vs 30/31), always Forward(0), no
        // writes: the canonical signatures must match in both orders.
        let f = filter_contract(mark_filter(20, "f-hit", "f-miss"));
        let g = filter_contract(mark_filter(30, "g-hit", "g-miss"));
        let solver = Solver::default();
        let mut cache = SolverCache::new();
        assert!(
            stages_commute(&f, &g, "f", "g", &solver, &mut cache),
            "independent stateless filters must provably commute"
        );
    }

    #[test]
    fn writer_before_reader_does_not_commute() {
        // The toy upstream writes byte 30; the toy downstream branches
        // on byte 30. Order visibly matters (one order masks down-slow,
        // the other cannot), so the proof must fail.
        let (a, b) = toy_pair();
        let solver = Solver::default();
        let mut cache = SolverCache::new();
        assert!(
            !stages_commute(&a, &b, "up", "down", &solver, &mut cache),
            "a writer and a reader of the same field must stay sequential"
        );
        // Refused on the path counts alone: up→down masks down-slow and
        // lets up-drop stand alone, down→up crosses everything.
        let ab = compose_pair(&a, &b, &solver, &mut cache);
        let ba = compose_pair(&b, &a, &solver, &mut cache);
        assert_eq!((ab.paths.len(), ba.paths.len()), (2, 4));
    }

    /// An always-forward filter over `offset` that also stamps byte 50
    /// with `stamp` on both of its paths.
    fn stamping_filter(offset: u64, stamp: u64) -> impl Fn(&mut bolt_see::SymbolicCtx<'_>) {
        move |ctx| {
            let pkt = ctx.packet(64);
            let v = ctx.load(pkt, offset, 1);
            let tag = if ctx.branch_eq_imm(v, 0x42, Width::W8) {
                "hit"
            } else {
                "miss"
            };
            ctx.tag(tag);
            let s = ctx.lit(stamp, Width::W8);
            ctx.store(pkt, 50, s, 1);
            ctx.verdict(NfVerdict::Forward(0));
        }
    }

    #[test]
    fn equal_path_counts_do_not_prove_commutativity() {
        // Two filters over disjoint fields that both stamp byte 50: either
        // order composes to 2 x 2 paths, and only the final packet tells
        // which stage ran last. The count comparison must not decide it.
        let f = filter_contract(stamping_filter(20, 1));
        let g = filter_contract(stamping_filter(30, 2));
        let solver = Solver::default();
        let mut cache = SolverCache::new();
        let fg = compose_pair(&f, &g, &solver, &mut cache);
        let gf = compose_pair(&g, &f, &solver, &mut cache);
        assert_eq!((fg.paths.len(), gf.paths.len()), (4, 4));
        assert!(
            !stages_commute(&f, &g, "f", "g", &solver, &mut cache),
            "the last writer of a field is visible in the final packet"
        );
        // Stamping the same value, the same two stages do commute.
        let g = filter_contract(stamping_filter(30, 1));
        assert!(stages_commute(&f, &g, "f", "g", &solver, &mut cache));
    }

    #[test]
    fn drop_capable_stage_does_not_commute_with_a_filter() {
        // The upstream toy drops non-0x0800 packets. Against an
        // independent always-forward filter, an upstream drop path
        // stands alone in one order but is crossed with the filter's
        // paths in the other — conservatively order-dependent.
        let (a, _) = toy_pair();
        let g = filter_contract(mark_filter(40, "g-hit", "g-miss"));
        let solver = Solver::default();
        let mut cache = SolverCache::new();
        assert!(!stages_commute(&a, &g, "up", "g", &solver, &mut cache));
    }

    #[test]
    fn chain_plan_cycle_arithmetic() {
        let mut e1 = PerfExpr::constant(400);
        e1.add_assign(&PerfExpr::constant(0));
        let plan = ChainPlan {
            names: vec!["a".into(), "b".into(), "c".into()],
            level: StackLevel::NfOnly,
            groups: vec![vec![0, 1], vec![2]],
            witnesses: vec![CommuteWitness {
                left: 0,
                right: 1,
                commutes: true,
                identical: false,
            }],
            stage_cycles: vec![
                PerfExpr::constant(400),
                PerfExpr::constant(300),
                PerfExpr::constant(500),
            ],
            merge_cycles: vec![208, 0],
        };
        let env = PcvAssignment::new();
        assert_eq!(plan.sequential_cycles(&env), 1200);
        // max(400, 300) + 208, then 500 + 0.
        assert_eq!(plan.parallel_cycles(&env), 1108);
        assert!(plan.is_parallel());
        assert_eq!(plan.widest_group(), 2);
        assert!(plan.predicted_speedup() > 1.0);
        assert_eq!(plan.groups_display(), "[a | b] -> [c]");
        let shown = plan.to_string();
        assert!(shown.contains("1200cy sequential"));
        assert!(shown.contains("1108cy parallel"));
    }
}
