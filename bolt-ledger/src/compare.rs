//! `bolt_ledger compare` — two sets of result files against the bounds
//! in `BENCHMARK.json`.
//!
//! Each side is one file written by `run --out`, or several separated by
//! commas (repeated runs of one commit). A file is refused when it was
//! measured for less than the full length, when any of its workloads
//! failed an operation (a number measured while answers were wrong is not
//! a number of the program), or when the two sides were not measured for
//! the same length.
//!
//! Per workload row and end-to-end metric it prints both medians, the
//! ratio with its base, and a verdict: `worse` when the second median is
//! worse than the first by more than the metric's bound, `unresolved`
//! when a side's own run-to-run spread (interquartile range over its
//! median, four or more runs) is wider than the bound and the runs of one
//! side do not all beat the other's, or when a side lacks the metric, and
//! `ok` otherwise.
//!
//! The exact counts among the per-layer metrics (simulated cycles,
//! tightness, solver and explorer work: [`MetricDef::exact`]) have a
//! bound of zero. Where traced runs of both sides share a seed, each
//! count must be equal or have moved in its better direction; one that
//! moved the other way is `worse`, and `unresolved` when no two runs
//! share a seed. Exits non-zero on any `worse`.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{Better, MetricDef, PER_LAYER};
use crate::stats;
use crate::FULL_SECONDS;

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// Fold a workload's untraced and traced result objects into one: the
/// checks add up, the metric sets are disjoint and concatenate.
pub fn merge_results(first: &str, second: &str) -> String {
    let (Ok(a), Ok(b)) = (json::parse(first), json::parse(second)) else {
        return first.to_string();
    };
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let correct = [&a, &b]
        .iter()
        .all(|v| v.get("correct").and_then(Value::as_bool) == Some(true));
    let mut metrics = Vec::new();
    for v in [&a, &b] {
        if let Some(m) = v.get("metrics").and_then(Value::as_object) {
            metrics.extend(m.iter().cloned());
        }
    }
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Num(num(&a, "attempted") + num(&b, "attempted")),
        ),
        (
            "failed".to_string(),
            Value::Num(num(&a, "failed") + num(&b, "failed")),
        ),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_string()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_bounds(path: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let doc = load(path)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"workloads\""))?
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    let bounds = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"end_to_end\""))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed \"end_to_end\" entry"))?;
    Ok((workloads, bounds))
}

/// One side of the comparison: the result files of one commit, all
/// measured for `seconds`.
struct Side {
    docs: Vec<Value>,
    seconds: f64,
}

fn load_side(spec: &str) -> Result<Side, String> {
    let mut side = Side {
        docs: Vec::new(),
        seconds: 0.0,
    };
    for path in spec.split(',') {
        let doc = load(path)?;
        let seconds = doc
            .get("seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: not a result file (no \"seconds\")"))?;
        if seconds < FULL_SECONDS {
            return Err(format!(
                "{path}: measured for {seconds} s, a --quick run; numbers from less than \
                 {FULL_SECONDS} s are not comparable"
            ));
        }
        if !side.docs.is_empty() && seconds != side.seconds {
            return Err(format!(
                "{path}: measured for {seconds} s, the files before it for {} s",
                side.seconds
            ));
        }
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: not a result file (no \"workloads\")"))?;
        for (name, result) in workloads {
            let failed = result.get("failed").and_then(Value::as_f64);
            let correct = result.get("correct").and_then(Value::as_bool);
            if failed != Some(0.0) || correct != Some(true) {
                return Err(format!(
                    "{path}: {name} failed {} operation(s); its numbers are not comparable",
                    failed.unwrap_or(f64::NAN)
                ));
            }
        }
        side.seconds = seconds;
        side.docs.push(doc);
    }
    Ok(side)
}

fn metric(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn values(side: &Side, workload: &str, name: &str) -> Vec<f64> {
    side.docs
        .iter()
        .filter_map(|doc| metric(doc, workload, name))
        .collect()
}

/// An exact count's values on both sides, one pair per seed that a
/// traced run of each side shares.
fn seed_pairs(a: &Side, b: &Side, workload: &str, name: &str) -> Vec<(f64, f64)> {
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    let mut pairs = Vec::new();
    for da in &a.docs {
        for db in &b.docs {
            if seed(da).is_some() && seed(da) == seed(db) {
                if let (Some(va), Some(vb)) =
                    (metric(da, workload, name), metric(db, workload, name))
                {
                    pairs.push((va, vb));
                }
            }
        }
    }
    pairs
}

/// Bound zero: any move in the worse direction is worse.
fn judge_exact(pairs: &[(f64, f64)], def: &MetricDef) -> Verdict {
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let worse = pairs.iter().any(|&(a, b)| match def.better {
        Better::Higher => b < a,
        Better::Lower => b > a,
    });
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Interquartile range over the median; `None` below four runs.
fn spread(v: &[f64]) -> Option<f64> {
    if v.len() < 4 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let iqr = stats::percentile(&s, 75.0) - stats::percentile(&s, 25.0);
    Some(iqr / stats::median(v).abs().max(f64::MIN_POSITIVE))
}

#[derive(PartialEq, Debug)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    // How much worse b is than a, as a share of a.
    let worsening = if bound.higher_is_better {
        (ma - mb) / ma.abs().max(f64::MIN_POSITIVE)
    } else {
        (mb - ma) / ma.abs().max(f64::MIN_POSITIVE)
    };
    if worsening > bound.bound {
        return Verdict::Worse;
    }
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound.bound));
    if noisy {
        let better = |x: f64, y: f64| {
            if bound.higher_is_better {
                x > y
            } else {
                x < y
            }
        };
        let b_beats_a = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        if !b_beats_a {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a value")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [a_spec, b_spec] = files[..] else {
        return Err(
            "compare needs exactly two result files (or comma-separated lists)".to_string(),
        );
    };
    let (workloads, bounds) = load_bounds(&benchmark)?;
    let (a, b) = (load_side(a_spec)?, load_side(b_spec)?);
    if a.seconds != b.seconds {
        return Err(format!(
            "{a_spec} was measured for {} s and {b_spec} for {} s: not comparable",
            a.seconds, b.seconds
        ));
    }
    println!(
        "base A = {a_spec} ({} run(s)); B = {b_spec} ({} run(s)); {} s per workload",
        a.docs.len(),
        b.docs.len(),
        a.seconds
    );
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>10} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound"
    );
    let mut worse = 0usize;
    for w in &workloads {
        for bound in &bounds {
            let (va, vb) = (values(&a, w, &bound.name), values(&b, w, &bound.name));
            let verdict = judge(&va, &vb, bound);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{w:<18} {:<14} {:>16.4} {:>16.4} {:>10.4} {:>7.2}  {} [{}, {} is better]",
                bound.name,
                ma,
                mb,
                mb / ma,
                bound.bound,
                verdict.as_str(),
                bound.unit,
                if bound.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            );
            worse += usize::from(verdict == Verdict::Worse);
        }
    }
    // The exact counts of traced runs. A count reads 0 on a workload
    // that never enters its layer; those rows say nothing and are left
    // out.
    let traced = |side: &Side, w: &str| {
        side.docs
            .iter()
            .any(|doc| metric(doc, w, PER_LAYER[0].name).is_some())
    };
    for w in &workloads {
        if !traced(&a, w) && !traced(&b, w) {
            continue;
        }
        for def in PER_LAYER.iter().filter(|m| m.exact) {
            let pairs = seed_pairs(&a, &b, w, def.name);
            if !pairs.is_empty() && pairs.iter().all(|&(x, y)| x == 0.0 && y == 0.0) {
                continue;
            }
            let verdict = judge_exact(&pairs, def);
            let (va, vb): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
            println!(
                "{w:<18} {:<32} {:>16.4} {:>16.4} {:>7}  {} [{}, exact, {} seed pair(s), {} is better]",
                def.name,
                stats::median(&va),
                stats::median(&vb),
                0,
                verdict.as_str(),
                def.unit,
                pairs.len(),
                def.better.as_str(),
            );
            worse += usize::from(verdict == Verdict::Worse);
        }
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&[100.0], &[95.0], &bound(true, 0.07)), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[90.0], &bound(true, 0.07)), Verdict::Worse);
        assert_eq!(
            judge(&[100.0], &[110.0], &bound(false, 0.07)),
            Verdict::Worse
        );
        assert_eq!(judge(&[100.0], &[50.0], &bound(false, 0.07)), Verdict::Ok);
        assert_eq!(judge(&[], &[1.0], &bound(true, 0.1)), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(&noisy, &[99.0, 100.0, 101.0, 102.0], &bound(true, 0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[130.0, 131.0, 132.0, 133.0], &bound(true, 0.05)),
            Verdict::Ok
        );
    }

    #[test]
    fn an_exact_count_has_a_bound_of_zero_in_its_own_direction() {
        let lower = PER_LAYER
            .iter()
            .find(|m| m.name == "replay.sim_cycles_per_pkt")
            .unwrap();
        assert!(lower.exact);
        assert_eq!(judge_exact(&[(812.25, 812.25)], lower), Verdict::Ok);
        assert_eq!(judge_exact(&[(812.25, 700.0)], lower), Verdict::Ok);
        assert_eq!(
            judge_exact(&[(812.25, 812.25), (500.0, 500.5)], lower),
            Verdict::Worse
        );
        assert_eq!(judge_exact(&[], lower), Verdict::Unresolved);
        let higher = PER_LAYER
            .iter()
            .find(|m| m.name == "solver.memo_hits")
            .unwrap();
        assert_eq!(judge_exact(&[(10.0, 9.0)], higher), Verdict::Worse);
        assert_eq!(judge_exact(&[(10.0, 11.0)], higher), Verdict::Ok);
    }

    #[test]
    fn merged_results_add_checks_and_concatenate_metrics() {
        let a = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1, "unit": "s"}}}"#;
        let b = r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"y": {"value": 2, "unit": "s"}}}"#;
        let m = json::parse(&merge_results(a, b)).unwrap();
        assert_eq!(m.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(m.get("attempted").and_then(Value::as_f64), Some(5.0));
        assert_eq!(m.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = m.get("metrics").unwrap();
        assert!(metrics.get("x").is_some() && metrics.get("y").is_some());
    }
}
