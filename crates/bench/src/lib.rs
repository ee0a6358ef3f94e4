//! The reproduction: every table and figure of the paper's evaluation as
//! deterministic text.
//!
//! [`reproduce`] is the one procedure. `cargo run --release -p bolt-bench`
//! prints it, `golden/reproduce.txt` is its committed output, and
//! `tests/golden.rs` compares the two byte for byte — all counts are
//! simulated, so the text is exact in debug and release alike. Each
//! module below regenerates the tables named in its file name and asserts
//! the paper's qualitative claim about them.
//!
//! [`scenarios`] — the fourteen §5.1 input-class scenarios (NAT1–4,
//! Br1–3, LB1–5, LPM1–2): state preparation, per-class workloads,
//! predicted-vs-measured collection for all three metrics — is also what
//! the `bolt-ledger` benchmark replays.

mod fig1_table3_accuracy;
mod fig2_bridge_attack;
mod fig4_table7_8_expiry;
mod fig5_6_7_allocators;
mod p123_hwmodel;
pub mod scenarios;
mod table1_2_lpm_example;
mod table4_bridge_contract;
mod table5_fig3_chain;
mod table6_vignat_contract;
mod table_fmt;

/// Capacity of the pathological (mass-expiry) tables. The paper uses
/// 65536; the shape is capacity-independent.
const PATH_CAPACITY: usize = 8192;

/// Regenerate every table and figure, in the order of the golden file.
/// Panics if a result leaves the band the paper's claim needs.
pub fn reproduce() -> String {
    let mut out = String::new();
    let scenarios = scenarios::all_scenarios(PATH_CAPACITY);
    fig1_table3_accuracy::fig1(&mut out, &scenarios);
    fig2_bridge_attack::fig2(&mut out);
    let expiry = fig4_table7_8_expiry::run();
    fig4_table7_8_expiry::fig4(&mut out, &expiry);
    fig5_6_7_allocators::figs5_6_7(&mut out);
    p123_hwmodel::p123(&mut out);
    table1_2_lpm_example::tables1_2(&mut out);
    fig1_table3_accuracy::table3(&mut out, &scenarios);
    table4_bridge_contract::table4(&mut out);
    table5_fig3_chain::table5_fig3(&mut out);
    table6_vignat_contract::table6(&mut out);
    fig4_table7_8_expiry::tables7_8(&mut out, &expiry);
    out
}
