//! The workspace pins what it produces: every catalog contract and every
//! planned chain, rendered as text and compared with the committed
//! `tests/golden/contracts.txt`, in debug and release alike.
//!
//! Per catalog descriptor and stack level, a header carries the path
//! count and the `fnv64` digest of the exploration's `encode_result`
//! bytes, then one line per path: index, tags, verdict, and the three
//! metrics at the empty PCV binding and at every PCV = 3. Per chain
//! (`firewall->static_router`, `static_router->firewall`,
//! `firewall->firewall->static_router`) and level, planned through
//! `Pipeline::parallelize`, the section carries the composed contract in
//! the same form, the `encode_contract` digest, the plan groups and
//! witnesses, and the compose-side solver counters.
//!
//! A mismatch names the descriptor or chain, the level and the first
//! path (or plan/solver line) that differs. After an intended change,
//! regenerate with
//! `cargo test --release --test contract_golden -- --ignored regenerate`
//! and review the diff.

use std::fmt::Write as _;

use bolt::core::nf::Exploration;
use bolt::core::{encode_contract, ChainReport, NfContract, Pipeline};
use bolt::expr::PcvAssignment;
use bolt::nfs::nat::{AllocKind, NatConfig};
use bolt::nfs::{Bridge, ExampleRouter, Firewall, LoadBalancer, LpmRouter, Nat, StaticRouter};
use bolt::see::codec::encode_result;
use bolt::see::StackLevel;
use bolt::store::fnv64;
use bolt::trace::Metric;
use bolt::NetworkFunction;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/contracts.txt");
const GOLDEN: &str = include_str!("golden/contracts.txt");

const LEVELS: [StackLevel; 2] = [StackLevel::NfOnly, StackLevel::FullStack];

/// Value every PCV takes in the fixed binding, so a changed PCV
/// coefficient cannot hide behind a zero.
const FIXED_PCV: u64 = 3;

/// One line per path: index, tags, verdict, and the three metrics at the
/// empty binding and at the fixed one.
fn path_lines(out: &mut String, contract: &NfContract) {
    let empty = PcvAssignment::new();
    let mut fixed = PcvAssignment::new();
    for p in &contract.paths {
        for m in Metric::ALL {
            for pcv in p.expr(m).pcvs() {
                fixed.set(pcv, FIXED_PCV);
            }
        }
    }
    for p in &contract.paths {
        let at = |env: &PcvAssignment| Metric::ALL.map(|m| p.expr(m).eval(env));
        let [ic, ma, cy] = at(&empty);
        let [ic3, ma3, cy3] = at(&fixed);
        let _ = writeln!(
            out,
            "  {} tags={:?} verdict={:?} ic={ic} ma={ma} cy={cy} @{FIXED_PCV}: ic={ic3} ma={ma3} cy={cy3}",
            p.index, p.tags, p.verdict
        );
    }
}

fn contract_section<I>(name: &str, ex: Exploration<I>) -> String {
    let level = ex.level;
    let digest = fnv64(&encode_result(&ex.result));
    let contract = ex.contract().into_inner();
    let mut out = format!(
        "== contract {name} {level:?}: {} paths  result {digest:016x}\n",
        contract.paths.len()
    );
    path_lines(&mut out, &contract);
    out
}

fn chain_section(label: &str, level: StackLevel, rep: &ChainReport) -> String {
    let digest = fnv64(&encode_contract(&rep.contract));
    let mut out = format!(
        "== chain {label} {level:?}: {} paths  contract {digest:016x}\n",
        rep.contract.paths.len()
    );
    path_lines(&mut out, &rep.contract);
    let plan = rep.plan.as_ref().expect("parallelize attaches a plan");
    let env = PcvAssignment::new();
    let _ = writeln!(
        out,
        "  plan: {}  seq={}cy par={}cy",
        plan.groups_display(),
        plan.sequential_cycles(&env),
        plan.parallel_cycles(&env)
    );
    for w in &plan.witnesses {
        let _ = writeln!(out, "  witness: {}", plan.describe_witness(w));
    }
    let _ = writeln!(out, "  compose: {:?}", rep.solver);
    out
}

fn chain(label: &str) -> Pipeline<'static> {
    match label {
        "firewall->static_router" => Pipeline::new()
            .push(Firewall::default())
            .push(StaticRouter::default()),
        "static_router->firewall" => Pipeline::new()
            .push(StaticRouter::default())
            .push(Firewall::default()),
        "firewall->firewall->static_router" => Pipeline::new()
            .push(Firewall::default())
            .push(Firewall::default())
            .push(StaticRouter::default()),
        other => unreachable!("unknown chain {other}"),
    }
}

/// Every section, in golden order.
fn sections() -> Vec<String> {
    let mut out = Vec::new();
    for level in LEVELS {
        out.push(contract_section("bridge", Bridge::default().explore(level)));
        out.push(contract_section(
            "example_router",
            ExampleRouter::default().explore(level),
        ));
        out.push(contract_section(
            "firewall",
            Firewall::default().explore(level),
        ));
        out.push(contract_section(
            "lb",
            LoadBalancer::default().explore(level),
        ));
        out.push(contract_section(
            "lpm_router",
            LpmRouter::default().explore(level),
        ));
        out.push(contract_section(
            "nat-a",
            Nat::with(NatConfig::default(), AllocKind::A).explore(level),
        ));
        out.push(contract_section(
            "nat-b",
            Nat::with(NatConfig::default(), AllocKind::B).explore(level),
        ));
        out.push(contract_section(
            "static_router",
            StaticRouter::default().explore(level),
        ));
    }
    for label in [
        "firewall->static_router",
        "static_router->firewall",
        "firewall->firewall->static_router",
    ] {
        for level in LEVELS {
            let rep = chain(label).parallelize(level).expect("non-empty chain");
            out.push(chain_section(label, level, &rep));
        }
    }
    out
}

/// Split golden text into its `== ` sections.
fn split(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("== ") || out.is_empty() {
            out.push(String::new());
        }
        let s = out.last_mut().expect("pushed above");
        s.push_str(line);
        s.push('\n');
    }
    out
}

/// A section's name: its header up to the colon (`== contract nat-a NfOnly`).
fn section_name(section: &str) -> &str {
    let header = section.lines().next().unwrap_or("");
    header.split_once(':').map_or(header, |(k, _)| k)
}

/// What a rendered line describes: `path N`, the header, or its label.
fn line_label(line: &str) -> String {
    if line.starts_with("== ") {
        return "header (path count or digest)".into();
    }
    let word = line.split_whitespace().next().unwrap_or("");
    match word.parse::<usize>() {
        Ok(i) => format!("path {i}"),
        Err(_) => format!("{} line", word.trim_end_matches(':')),
    }
}

/// `Err` names the first section and line where `ours` leaves `golden`.
fn compare(golden: &str, ours: &str) -> Result<(), String> {
    if golden == ours {
        return Ok(());
    }
    let (g, o) = (split(golden), split(ours));
    for (gs, os) in g.iter().zip(&o) {
        if gs == os {
            continue;
        }
        let name = section_name(os).trim_start_matches("== ");
        if section_name(gs) != section_name(os) {
            return Err(format!(
                "{name}: expected section {:?} here",
                section_name(gs).trim_start_matches("== ")
            ));
        }
        let (mut gl, mut ol) = (gs.lines(), os.lines());
        loop {
            match (gl.next(), ol.next()) {
                (Some(a), Some(b)) if a == b => continue,
                (a, b) => {
                    let label = line_label(a.or(b).unwrap_or(""));
                    return Err(format!(
                        "{name}: {label} differs\n  golden: {}\n  ours:   {}",
                        a.unwrap_or("<end>"),
                        b.unwrap_or("<end>")
                    ));
                }
            }
        }
    }
    Err(format!(
        "the golden has {} sections, the run rendered {}",
        g.len(),
        o.len()
    ))
}

#[test]
fn contracts_and_chains_match_the_golden() {
    if let Err(e) = compare(GOLDEN, &sections().concat()) {
        panic!(
            "{e}\nregenerate: cargo test --release --test contract_golden -- --ignored regenerate"
        );
    }
}

#[test]
fn a_mismatch_names_the_section_and_the_path() {
    let golden = "== contract a NfOnly: 2 paths  result 00\n  0 ic=1\n  1 ic=2\n\
                  == chain b FullStack: 1 paths  contract 00\n  0 ic=3\n  compose: x\n";
    assert!(compare(golden, golden).is_ok());
    let path = compare(golden, &golden.replace("1 ic=2", "1 ic=9")).unwrap_err();
    assert!(
        path.starts_with("contract a NfOnly: path 1 differs"),
        "{path}"
    );
    let stats = compare(golden, &golden.replace("compose: x", "compose: y")).unwrap_err();
    assert!(
        stats.starts_with("chain b FullStack: compose line differs"),
        "{stats}"
    );
    let header = compare(golden, &golden.replace("2 paths", "3 paths")).unwrap_err();
    assert!(header.contains("contract a NfOnly: header"), "{header}");
    let short = compare(
        golden,
        "== contract a NfOnly: 2 paths  result 00\n  0 ic=1\n  1 ic=2\n",
    );
    assert!(short.unwrap_err().contains("2 sections"));
}

/// Rewrite the golden from this build. Run on purpose only (see the
/// module docs); the diff is what a reviewer reads.
#[test]
#[ignore = "writes tests/golden/contracts.txt"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, sections().concat()).expect("write the golden");
}
