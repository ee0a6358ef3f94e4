//! Deterministic text renderings of what the program produces, and the
//! committed golden files they are checked against.
//!
//! The renderings follow `examples/fingerprint.rs` (paths, tags,
//! verdicts, the three metrics at the empty PCV binding, plan groups and
//! compose-side solver counters) and add the metrics at a fixed non-zero
//! binding, so a changed PCV coefficient cannot hide behind a zero.

use std::collections::HashMap;
use std::fmt::Write as _;

use bolt_bench::scenarios::ScenarioOutcome;
use bolt_core::{ChainReport, NfContract};
use bolt_expr::PcvAssignment;
use bolt_store::Fingerprint;
use bolt_trace::Metric;
use dpdk_sim::StackLevel;

/// Value every PCV takes in the fixed binding.
const FIXED_PCV: u64 = 3;

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

/// Fingerprint of one NF contract.
pub fn contract_section(name: &str, level: StackLevel, contract: &NfContract) -> String {
    let mut out = format!(
        "== contract {name} {level:?}: {} paths\n",
        contract.paths.len()
    );
    path_lines(&mut out, contract);
    out
}

/// Fingerprint of one composed, planned chain.
pub fn chain_section(
    label: &str,
    level: StackLevel,
    key: Fingerprint,
    rep: &ChainReport,
) -> String {
    let mut out = format!(
        "== chain {label} {level:?}: {} paths  key {key}\n",
        rep.contract.paths.len()
    );
    path_lines(&mut out, &rep.contract);
    let s = rep.solver;
    let _ = writeln!(
        out,
        "  compose: steps={}+{} requests={} queries={} witness={} memo={} unsat-prop={}",
        rep.steps_composed,
        rep.steps_cached,
        s.checks_requested,
        s.solver_queries,
        s.witness_reuse_hits,
        s.memo_hits,
        s.unsat_by_propagation
    );
    match &rep.plan {
        Some(plan) => {
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
        }
        None => out.push_str("  plan: none\n"),
    }
    out
}

/// Fingerprint of the §5.1 scenario table: predicted and measured
/// `[IC, MA, cycles]` of every scenario.
pub fn scenario_section(capacity: usize, rows: &[ScenarioOutcome]) -> String {
    let mut out = format!("== scenarios {capacity}: {} rows\n", rows.len());
    for r in rows {
        let _ = writeln!(
            out,
            "  {} predicted={:?} measured={:?}",
            r.name, r.predicted, r.measured
        );
    }
    out
}

/// A golden file: fingerprint sections keyed by their header up to the
/// first colon.
pub struct Golden {
    sections: HashMap<String, String>,
}

fn section_key(section: &str) -> &str {
    let header = section.lines().next().unwrap_or("");
    header.split_once(':').map_or(header, |(k, _)| k)
}

impl Golden {
    /// Split a golden file into its `== ` sections.
    pub fn parse(text: &str) -> Golden {
        let mut sections = HashMap::new();
        let mut current = String::new();
        for line in text.lines() {
            if line.starts_with("== ") && !current.is_empty() {
                sections.insert(section_key(&current).to_string(), current);
                current = String::new();
            }
            current.push_str(line);
            current.push('\n');
        }
        if !current.is_empty() {
            sections.insert(section_key(&current).to_string(), current);
        }
        Golden { sections }
    }

    /// Compare a freshly rendered section with the committed one;
    /// `Err` names the first line that differs.
    pub fn check(&self, rendered: &str) -> Result<(), String> {
        let key = section_key(rendered);
        let Some(golden) = self.sections.get(key) else {
            return Err(format!("no golden section {key:?}"));
        };
        if golden == rendered {
            return Ok(());
        }
        let (mut g, mut r) = (golden.lines(), rendered.lines());
        loop {
            match (g.next(), r.next()) {
                (Some(a), Some(b)) if a == b => continue,
                (a, b) => {
                    return Err(format!(
                        "{key}: golden {:?} but got {:?}",
                        a.unwrap_or("<end>"),
                        b.unwrap_or("<end>")
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_sections_split_and_compare() {
        let g = Golden::parse("== a x: 1 paths\n  0 ic=1\n== b y: 2 paths\n  0 ic=2\n  1 ic=3\n");
        assert_eq!(g.sections.len(), 2);
        assert!(g.check("== a x: 1 paths\n  0 ic=1\n").is_ok());
        let err = g
            .check("== b y: 2 paths\n  0 ic=2\n  1 ic=4\n")
            .unwrap_err();
        assert!(err.contains("1 ic=3") && err.contains("1 ic=4"), "{err}");
        assert!(
            g.check("== b y: 2 paths\n  0 ic=2\n").is_err(),
            "missing line"
        );
        assert!(g
            .check("== c z: 0 paths\n")
            .unwrap_err()
            .contains("no golden"));
    }
}
