//! Class queries filter paths: a class that adds no constraint to a path
//! takes the path's feasibility from `NfContract`'s invariant, and only a
//! class that does add one runs the solver. Two properties make that
//! sound and invisible: every path the catalog and the ledger's chains
//! produce is feasible on its own, fresh and after a codec round trip;
//! and `query` answers exactly what the solver-on-every-path procedure
//! answered before it.

use bolt::core::{
    decode_contract, encode_contract, ClassSpec, InputClass, NfContract, PathContract,
};
use bolt::expr::{PcvAssignment, PerfExpr, TermPool, TermRef, Width};
use bolt::nfs::{nat, Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::symbolic::PacketField;
use bolt::see::StackLevel;
use bolt::solver::Solver;
use bolt::trace::Metric;
use bolt::{NetworkFunction, Pipeline};

const LEVELS: [StackLevel; 2] = [StackLevel::NfOnly, StackLevel::FullStack];

/// An NF's contract, and a binding of every PCV its registry knows to 3.
fn contract_of<N: NetworkFunction>(nf: N, level: StackLevel) -> (NfContract, PcvAssignment) {
    let c = nf.explore(level).contract();
    let mut threes = PcvAssignment::new();
    for (id, _) in c.reg.pcvs.iter() {
        threes.set(id, 3);
    }
    (c.inner, threes)
}

/// The eight catalog contracts at one level.
fn catalog(level: StackLevel) -> Vec<(&'static str, NfContract, PcvAssignment)> {
    let nat = |kind| Nat::with(nat::NatConfig::default(), kind);
    [
        ("bridge", contract_of(Bridge::default(), level)),
        (
            "example_router",
            contract_of(ExampleRouter::default(), level),
        ),
        ("firewall", contract_of(Firewall::default(), level)),
        ("lb", contract_of(LoadBalancer::default(), level)),
        ("lpm_router", contract_of(LpmRouter::default(), level)),
        ("nat-a", contract_of(nat(nat::AllocKind::A), level)),
        ("nat-b", contract_of(nat(nat::AllocKind::B), level)),
        ("static_router", contract_of(StaticRouter::default(), level)),
    ]
    .into_iter()
    .map(|(name, (c, env))| (name, c, env))
    .collect()
}

/// The composed contracts of the ledger's three `gen_chain` chains.
fn chains(level: StackLevel) -> Vec<(&'static str, NfContract)> {
    [
        (
            "firewall->static_router",
            Pipeline::new()
                .push(Firewall::default())
                .push(StaticRouter::default()),
        ),
        (
            "static_router->firewall",
            Pipeline::new()
                .push(StaticRouter::default())
                .push(Firewall::default()),
        ),
        (
            "firewall->firewall->static_router",
            Pipeline::new()
                .push(Firewall::default())
                .push(Firewall::default())
                .push(StaticRouter::default()),
        ),
    ]
    .into_iter()
    .map(|(name, chain)| (name, chain.report(level).unwrap().contract))
    .collect()
}

#[test]
fn every_produced_path_is_feasible_on_its_own() {
    let solver = Solver::default();
    let mut paths = 0;
    for level in LEVELS {
        let catalog = catalog(level).into_iter().map(|(name, c, _)| (name, c));
        for (name, fresh) in catalog.chain(chains(level)) {
            let decoded = decode_contract(&encode_contract(&fresh)).unwrap();
            for (which, c) in [("fresh", &fresh), ("decoded", &decoded)] {
                for p in &c.paths {
                    assert!(
                        solver.is_feasible(&c.pool, &p.constraints),
                        "{name} {level:?} ({which}): path #{} is infeasible",
                        p.index
                    );
                }
            }
            paths += fresh.paths.len();
        }
    }
    assert_eq!(paths, 152, "110 catalog paths, 42 chain paths");
}

/// The reference's tag filter, written against the class shapes below.
fn tags_match(spec: &ClassSpec, path: &PathContract) -> bool {
    match spec {
        ClassSpec::Tag(t) => path.has_tag(t),
        ClassSpec::NotTag(t) => !path.has_tag(t),
        ClassSpec::All(specs) => specs.iter().all(|s| tags_match(s, path)),
        _ => true,
    }
}

/// The reference's instantiation of `FieldEq` (the only field predicate
/// the classes below use) against one path's fields.
fn instantiate(
    spec: &ClassSpec,
    pool: &mut TermPool,
    fields: &[PacketField],
    out: &mut Vec<TermRef>,
) {
    match *spec {
        ClassSpec::FieldEq {
            offset,
            bytes,
            value,
        } => {
            if let Some(f) = fields
                .iter()
                .find(|f| f.offset == offset && f.bytes == bytes)
            {
                let c = pool.constant(value, Width::from_bytes(bytes as usize));
                out.push(pool.eq(f.term, c));
            }
        }
        ClassSpec::All(ref specs) => specs.iter().for_each(|s| instantiate(s, pool, fields, out)),
        _ => {}
    }
}

/// The procedure `query` replaced: the solver on every tag-matched path
/// (its constraints and the instantiated class), then `max_by_key`.
/// Returns the answer and how many tag-matched paths the solver refuted.
fn reference_query(
    c: &mut NfContract,
    solver: &Solver,
    spec: &ClassSpec,
    metric: Metric,
    env: &PcvAssignment,
) -> (Option<(usize, u64, PerfExpr)>, usize) {
    let mut refuted = 0;
    let mut compatible = Vec::new();
    for i in 0..c.paths.len() {
        if !tags_match(spec, &c.paths[i]) {
            continue;
        }
        let mut cs = c.paths[i].constraints.clone();
        instantiate(spec, &mut c.pool, &c.paths[i].packet_fields, &mut cs);
        if solver.is_feasible(&c.pool, &cs) {
            compatible.push(i);
        } else {
            refuted += 1;
        }
    }
    let answer = compatible
        .into_iter()
        .map(|i| {
            (
                i,
                c.paths[i].expr(metric).eval(env),
                c.paths[i].expr(metric).clone(),
            )
        })
        .max_by_key(|&(_, value, _)| value);
    (answer, refuted)
}

#[test]
fn queries_answer_what_the_solver_on_every_path_answered() {
    let solver = Solver::default();
    let mut refuted = 0;
    for level in LEVELS {
        for (name, mut contract, threes) in catalog(level) {
            let mut reference = decode_contract(&encode_contract(&contract)).unwrap();
            let mut tags: Vec<&'static str> =
                contract.paths.iter().flat_map(|p| p.tags.clone()).collect();
            tags.sort_unstable();
            tags.dedup();
            let ipv4 = || ClassSpec::field_eq(12, 2, 0x0800);
            let mut specs = vec![ClassSpec::Unconstrained];
            for &t in &tags {
                specs.extend([
                    ClassSpec::Tag(t),
                    ClassSpec::NotTag(t),
                    ClassSpec::all([ClassSpec::Tag(t), ipv4()]),
                ]);
            }
            for spec in &specs {
                let class = InputClass::new("probe", spec.clone());
                for metric in Metric::ALL {
                    for env in [&PcvAssignment::new(), &threes] {
                        let (want, n) = reference_query(&mut reference, &solver, spec, metric, env);
                        refuted += n;
                        let got = contract
                            .query(&solver, &class, metric, env)
                            .map(|q| (q.path_index, q.value, q.expr));
                        assert_eq!(got, want, "{name} {level:?} {spec:?} {metric} {env:?}");
                    }
                }
            }
        }
    }
    assert!(refuted > 0, "some class must have needed the solver");
}
