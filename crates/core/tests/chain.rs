//! Chain-composition behaviour (§3.4) against real NFs, driven through
//! the [`Pipeline`] abstraction.

use bolt_core::nf::NetworkFunction;
use bolt_core::{naive_add, Composer, NfContract, Pipeline};
use bolt_expr::PcvAssignment;
use bolt_nfs::{Firewall, StaticRouter};
use bolt_see::NfVerdict;
use bolt_solver::Solver;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

fn chain() -> (NfContract, NfContract, NfContract) {
    let fw = Firewall::default()
        .contract(StackLevel::NfOnly)
        .into_inner();
    let rt = StaticRouter::default()
        .contract(StackLevel::NfOnly)
        .into_inner();
    let composed = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default())
        .contract(StackLevel::NfOnly)
        .unwrap();
    (fw, rt, composed)
}

#[test]
fn pipeline_reports_its_shape() {
    let p = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default());
    assert_eq!(p.len(), 2);
    assert!(!p.is_empty());
    assert_eq!(p.names(), vec!["firewall", "static_router"]);
    assert!(Pipeline::new().contract(StackLevel::NfOnly).is_none());
    // Naive-add is the sum of the stages' own worst cases, whatever
    // shape the contracts arrive in.
    let env = PcvAssignment::new();
    let contracts = p.contracts(StackLevel::NfOnly);
    let two_nf = naive_add(&contracts, Metric::Instructions, &env);
    assert_eq!(
        naive_add([&contracts[0]], Metric::Instructions, &env)
            + naive_add([&contracts[1]], Metric::Instructions, &env),
        two_nf
    );
}

#[test]
fn firewall_masks_router_option_paths() {
    let (_, rt, composed) = chain();
    // The router alone has expensive option paths…
    let env = PcvAssignment::new();
    let rt_worst = rt
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    // …but no composed path pairs a forwarded firewall packet with a
    // router option path: packets with options died at the firewall.
    for p in &composed.paths {
        assert!(
            !(p.has_tag("no-options") && p.has_tag("ip-options")),
            "firewall-accepted traffic must not reach router option paths"
        );
    }
    let composed_worst = composed
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    let naive = naive_add([&chain().0, &rt], Metric::Instructions, &env);
    assert!(
        composed_worst < naive,
        "composition must beat naive addition: {composed_worst} vs {naive}"
    );
    let _ = rt_worst;
}

#[test]
fn dropped_upstream_paths_stand_alone() {
    let (fw, _, composed) = chain();
    // Firewall option-drop path appears in the chain unpaired, with
    // the firewall-only cost.
    let env = PcvAssignment::new();
    let fw_drop = fw
        .tagged("ip-options")
        .next()
        .unwrap()
        .expr(Metric::Instructions)
        .eval(&env);
    let chain_drop = composed
        .tagged("ip-options")
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    assert_eq!(fw_drop, chain_drop, "drop path cost is firewall-only");
}

#[test]
fn longer_chains_compose_pairwise() {
    // §3.4: longer chains are pieced together one NF at a time. A
    // firewall → router → router chain composes associatively enough
    // for provisioning: the three-NF contract still masks the option
    // paths and still beats naive addition. The three-stage Pipeline
    // composes left-to-right, i.e. (fw ∘ rt) ∘ rt.
    let (fw, rt, fw_rt) = chain();
    let solver = Solver::default();
    let three = Composer::new(&solver).compose(&fw_rt, &rt);
    let env = PcvAssignment::new();
    assert!(!three.paths.is_empty());
    for p in &three.paths {
        assert!(
            !(p.has_tag("no-options") && p.has_tag("ip-options")),
            "masking must survive a second composition"
        );
    }
    let worst3 = three
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    let naive3 = naive_add([&fw_rt, &rt], Metric::Instructions, &env).max(naive_add(
        [&fw, &rt],
        Metric::Instructions,
        &env,
    ));
    assert!(worst3 < naive3 + naive_add([&fw, &rt], Metric::Instructions, &env));
    // The three-NF worst case is the two-NF worst case plus one more
    // clean router pass.
    let worst2 = fw_rt
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    let rt_clean = rt
        .tagged("no-options")
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    assert_eq!(worst3, worst2 + rt_clean);

    // The same three-stage chain through Pipeline gives the same worst
    // case (Pipeline::contract is exactly this left fold).
    let three_pipeline = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default())
        .push(StaticRouter::default())
        .contract(StackLevel::NfOnly)
        .unwrap();
    let worst3p = three_pipeline
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .max()
        .unwrap();
    assert_eq!(worst3, worst3p);
}

#[test]
fn composed_pairs_sum_costs() {
    let (fw, rt, composed) = chain();
    let env = PcvAssignment::new();
    // Any composed forwarding path costs at least the cheapest
    // upstream forward plus the cheapest downstream path.
    let fw_min = fw
        .paths
        .iter()
        .filter(|p| matches!(p.verdict, Some(NfVerdict::Forward(_))))
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .min()
        .unwrap();
    let rt_min = rt
        .paths
        .iter()
        .map(|p| p.expr(Metric::Instructions).eval(&env))
        .min()
        .unwrap();
    for p in &composed.paths {
        if matches!(p.verdict, Some(NfVerdict::Forward(_))) {
            assert!(p.expr(Metric::Instructions).eval(&env) >= fw_min + rt_min);
        }
    }
}
