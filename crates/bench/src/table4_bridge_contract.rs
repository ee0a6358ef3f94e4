//! Table 4: the bridge's learn contract — instructions as a function of
//! expired entries `e`, collisions `c`, traversals `t` (probe PCVs), and
//! occupancy `o`, with the rehashing row's performance cliff. This
//! reproduction scopes the expiry probe PCVs as `te`/`ce` and prints the
//! full method family.

use crate::table_fmt::{outln, table};
use bolt_core::nf::NetworkFunction;
use bolt_nfs::Bridge;
use bolt_trace::Metric;
use nf_lib::mac_table::{M_MT_EXPIRE, M_MT_LEARN, M_MT_LOOKUP};
use nf_lib::registry::DsRegistry;

pub(crate) fn table4(out: &mut String) {
    let mut reg = DsRegistry::new();
    let ids = Bridge::default().register(&mut reg);
    for (title, method) in [
        (
            "Table 4 — bridge `learn` contract (paper rows: known / unknown / unknown+rehash)",
            M_MT_LEARN,
        ),
        ("bridge `lookup` contract", M_MT_LOOKUP),
        ("bridge `expire` contract", M_MT_EXPIRE),
    ] {
        let rows: Vec<Vec<String>> = reg
            .render_method(ids.table.ds, method, Metric::Instructions)
            .into_iter()
            .zip(reg.render_method(ids.table.ds, method, Metric::MemAccesses))
            .map(|((name, ic), (_, ma))| vec![name, ic, ma])
            .collect();
        table(
            out,
            title,
            &["Traffic type", "Instructions", "Memory accesses"],
            &rows,
        );
    }
    // The paper's cliff: the rehash row's constant dwarfs the others.
    let rows = reg.render_method(ids.table.ds, M_MT_LEARN, Metric::Instructions);
    outln!(
        out,
        "\nrehash cliff: the '{}' row's constant term is the defence's performance cliff (§5.2).",
        rows[2].0
    );
}
