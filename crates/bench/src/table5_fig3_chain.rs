//! Table 5 and Figure 3: NF-chain composition (§3.4, §5.2). The firewall
//! drops every packet carrying IP options, so the composed
//! firewall→router contract never pays the router's per-option cost —
//! its bound beats the naive sum of the two NFs' individual worst cases.
//! The measured bars replay mixed traffic through the concrete chain.

use crate::table_fmt::{human, outln, table};
use bolt_core::nf::NetworkFunction;
use bolt_core::{naive_add, ClassSpec, Composer, InputClass, Pipeline};
use bolt_distiller::NfRunner;
use bolt_expr::PcvAssignment;
use bolt_nfs::{Firewall, StaticRouter};
use bolt_see::NfVerdict;
use bolt_solver::Solver;
use bolt_trace::{AddressSpace, Metric};
use bolt_workloads::generators::{merge, options_traffic, uniform_udp_flows};
use dpdk_sim::StackLevel;
use nf_lib::clock::Granularity;

pub(crate) fn table5_fig3(out: &mut String) {
    // --- contracts, via the Pipeline abstraction (stages explored once,
    // reused for the per-NF tables, the composition, and naive-add) ---
    let chain_nf = Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default());
    let mut stage_contracts = chain_nf.contracts(StackLevel::FullStack);
    let mut rt = stage_contracts.pop().unwrap();
    let mut fw = stage_contracts.pop().unwrap();
    let solver = Solver::default();
    let mut chain = Composer::new(&solver).compose(&fw, &rt);
    let env = PcvAssignment::new();

    let classes = [
        InputClass::new("No IP options", ClassSpec::Tag("no-options")),
        InputClass::new("IP options", ClassSpec::Tag("ip-options")),
    ];
    let mut render = |c: &mut bolt_core::NfContract, title: &str| {
        let solver = Solver::default();
        let rows: Vec<Vec<String>> = classes
            .iter()
            .filter_map(|cl| {
                let q = c.query(&solver, cl, Metric::Instructions, &env)?;
                Some(vec![cl.name.clone(), q.value.to_string()])
            })
            .collect();
        table(out, title, &["Traffic type", "Instructions"], &rows);
    };
    render(&mut fw, "Table 5a — firewall (paper: 477 / 298)");
    render(&mut rt, "Table 5b — static router (paper: 603 / 79·n+646)");
    render(
        &mut chain,
        "Table 5c — firewall→router chain (paper: 1053 / 298 — options masked)",
    );

    // --- Figure 3: naive-add vs composed, predicted vs measured ---
    let naive_ic = naive_add([&fw, &rt], Metric::Instructions, &env);
    let naive_ma = naive_add([&fw, &rt], Metric::MemAccesses, &env);
    let mut composed = |metric| {
        chain
            .query(&solver, &InputClass::unconstrained(), metric, &env)
            .unwrap()
            .value
    };
    let comp_ic = composed(Metric::Instructions);
    let comp_ma = composed(Metric::MemAccesses);

    // Measured: play mixed traffic through the concrete chain.
    let (fw_nf, rt_nf) = (Firewall::default(), StaticRouter::default());
    let mut rt_state = rt_nf.state((), &mut AddressSpace::new());
    let mut fw_runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
    let mut rt_runner = NfRunner::new(StackLevel::FullStack, Granularity::Nanoseconds);
    let pkts = merge(vec![
        uniform_udp_flows(61, 1000, 64, 2000, 0),
        options_traffic(500, 5, 4000),
    ]);
    fw_runner.play_nf(&fw_nf, &mut (), &pkts);
    let forwarded: Vec<_> = pkts
        .iter()
        .zip(&fw_runner.samples)
        .filter(|(_, sample)| matches!(sample.verdict, NfVerdict::Forward(_)))
        .map(|(pkt, _)| pkt.clone())
        .collect();
    rt_runner.play_nf(&rt_nf, &mut rt_state, &forwarded);
    // Per-packet combined IC: firewall cost + (router cost if forwarded).
    let mut rt_iter = rt_runner.samples.iter();
    let mut measured_ic = 0u64;
    let mut measured_ma = 0u64;
    for s in &fw_runner.samples {
        let (mut ic, mut ma) = (s.ic, s.ma);
        if matches!(s.verdict, NfVerdict::Forward(_)) {
            let r = rt_iter.next().expect("router sample");
            ic += r.ic;
            ma += r.ma;
        }
        measured_ic = measured_ic.max(ic);
        measured_ma = measured_ma.max(ma);
    }

    table(
        out,
        "Figure 3 — composite firewall+router: naive addition vs BOLT composition",
        &["quantity", "Naive-Add", "Composite-Bolt", "Measured"],
        &[
            vec![
                "worst-case IC".into(),
                human(naive_ic),
                human(comp_ic),
                human(measured_ic),
            ],
            vec![
                "worst-case MA".into(),
                human(naive_ma),
                human(comp_ma),
                human(measured_ma),
            ],
        ],
    );
    assert!(comp_ic < naive_ic, "composition must beat naive addition");
    assert!(comp_ic >= measured_ic, "composed bound must hold");
    assert!(comp_ma >= measured_ma);
    outln!(
        out,
        "\ncomposition gap: naive over-predicts by {:.1}% vs the composed contract's {:.1}% (IC).",
        (naive_ic as f64 / measured_ic as f64 - 1.0) * 100.0,
        (comp_ic as f64 / measured_ic as f64 - 1.0) * 100.0
    );
}
