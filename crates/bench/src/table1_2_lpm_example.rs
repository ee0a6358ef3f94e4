//! Tables 1 and 2: the §2 running example — contracts for the simple
//! trie-based LPM router and for its `lpmGet` method, expressed over the
//! matched-prefix-length PCV `l`. The paper's stylised numbers are
//! `4·l+5 / l+3` (router) and `4·l+2 / l+1` (lpmGet); this prints the
//! reproduction's exact coefficients. The example assumes the framework
//! below the NF costs nothing, so the analysis runs without the DPDK
//! substrate.

use crate::table_fmt::table;
use bolt_core::nf::NetworkFunction;
use bolt_core::{generate, ClassSpec, InputClass};
use bolt_expr::PcvAssignment;
use bolt_nfs::ExampleRouter;
use bolt_see::Explorer;
use bolt_solver::Solver;
use bolt_trace::Metric;
use dpdk_sim::headers as h;
use nf_lib::registry::DsRegistry;

pub(crate) fn tables1_2(out: &mut String) {
    let nf = ExampleRouter::default();
    let mut reg = DsRegistry::new();
    let ids = nf.register(&mut reg);
    // Bare exploration: no driver, no mempool — §2 assumes layers below
    // the NF are free.
    let exploration = Explorer::new().explore(|ctx| {
        let region = ctx.packet(64);
        let mbuf = dpdk_sim::Mbuf {
            region,
            len: 64,
            port: 0,
        };
        nf.sym_process(ctx, ids, mbuf);
    });
    let mut contract = generate(&reg, exploration);
    let solver = Solver::default();
    let classes = [
        InputClass::new(
            "Invalid packets",
            ClassSpec::field_ne(h::ETHER_TYPE, 2, h::ETHERTYPE_IPV4 as u64),
        ),
        InputClass::new(
            "Valid packets",
            ClassSpec::field_eq(h::ETHER_TYPE, 2, h::ETHERTYPE_IPV4 as u64),
        ),
    ];
    let env = PcvAssignment::new();
    let mut rows = Vec::new();
    for class in &classes {
        let ic = contract
            .query(&solver, class, Metric::Instructions, &env)
            .unwrap();
        let ma = contract
            .query(&solver, class, Metric::MemAccesses, &env)
            .unwrap();
        rows.push(vec![
            class.name.clone(),
            format!("{}", ic.expr.display(&reg.pcvs)),
            format!("{}", ma.expr.display(&reg.pcvs)),
        ]);
    }
    table(
        out,
        "Table 1 — contracts for the example LPM router (paper, stylised: 2 / 1 and 4*l+5 / l+3)",
        &["Input class", "Instructions", "Memory accesses"],
        &rows,
    );

    let rows: Vec<Vec<String>> = Metric::ALL
        .iter()
        .map(|&m| {
            let r = reg.render_method(ids.trie.ds, nf_lib::lpm_trie::M_LOOKUP, m);
            vec![format!("{m}"), r[0].1.clone()]
        })
        .collect();
    table(
        out,
        "Table 2 — contract for lpmGet (paper, stylised: 4*l+2 instructions, l+1 accesses)",
        &["metric", "unconstrained"],
        &rows,
    );
}
