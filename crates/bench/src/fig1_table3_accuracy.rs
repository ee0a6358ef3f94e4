//! Figure 1 and Table 3: accuracy of performance contracts over the
//! fourteen §5.1 scenarios, both read off one [`all_scenarios`] run.
//!
//! Figure 1 — predicted vs measured instruction count (IC) and
//! memory-access count (MA). The paper's headline: maximum
//! over-estimation 7.5% (IC) and 7.6% (MA), with the pathological
//! scenarios within 2.36% / 3.03%. `NAT1adv` is this reproduction's extra
//! row: the same mass-expiry state arranged as one adversarial probe run,
//! where the product-form `e·te` coalescing makes the bound ≈2×
//! conservative.
//!
//! Table 3 — execution-cycle contracts. BOLT's conservative hardware
//! model over-estimates cycles by small-integer factors for typical
//! classes (paper: 1.46×–4.08×) and more for the pathological mass-expiry
//! scenarios (paper: ≈9×), because the testbed's prefetching and
//! memory-level parallelism are deliberately unmodelled (§3.5).
//!
//! [`all_scenarios`]: crate::scenarios::all_scenarios

use crate::scenarios::{nat_pathological, ScenarioOutcome};
use crate::table_fmt::{human, outln, ratio, table};
use crate::PATH_CAPACITY;

pub(crate) fn fig1(out: &mut String, scenarios: &[ScenarioOutcome]) {
    let adversarial = nat_pathological(2048, false);
    let over = |s: &ScenarioOutcome, m: usize| format!("{:+.2}%", s.gap(m) * 100.0);
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .chain([&adversarial])
        .map(|s| {
            vec![
                s.name.to_string(),
                human(s.predicted[0]),
                human(s.measured[0]),
                over(s, 0),
                human(s.predicted[1]),
                human(s.measured[1]),
                over(s, 1),
                s.description.to_string(),
            ]
        })
        .collect();
    table(
        out,
        "Figure 1 — contract accuracy, IC and MA (paper: max +7.5% / +7.6%)",
        &[
            "scenario",
            "pred IC",
            "meas IC",
            "IC over",
            "pred MA",
            "meas MA",
            "MA over",
            "packet class",
        ],
        &rows,
    );
    let max_over = |m: usize| scenarios.iter().map(|s| s.gap(m)).fold(0.0, f64::max);
    let (max_ic, max_ma) = (max_over(0), max_over(1));
    outln!(
        out,
        "\nmax over-estimation across scenarios (excl. NAT1adv): IC {:.2}%, MA {:.2}%",
        max_ic * 100.0,
        max_ma * 100.0
    );
    outln!(
        out,
        "pathological table capacity: {PATH_CAPACITY} (the paper used 65536)"
    );
    assert!(
        max_ic < 0.12 && max_ma < 0.12,
        "reproduction regression: gaps exceed the expected band"
    );
}

pub(crate) fn table3(out: &mut String, scenarios: &[ScenarioOutcome]) {
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                human(s.predicted[2]),
                human(s.measured[2]),
                ratio(s.predicted[2], s.measured[2]),
                s.description.to_string(),
            ]
        })
        .collect();
    table(
        out,
        "Table 3 — execution-cycle contracts (paper ratios: 1.46-4.08x typical, ~9x pathological)",
        &[
            "NF+class",
            "predicted bound",
            "measured cycles",
            "ratio",
            "packet class",
        ],
        &rows,
    );
    for s in scenarios {
        let r = s.predicted[2] as f64 / s.measured[2].max(1) as f64;
        assert!(r >= 1.0, "{}: cycle bound violated", s.name);
        assert!(
            r < 40.0,
            "{}: conservative ratio {r:.1} far outside the paper's band",
            s.name
        );
    }
}
