//! `bolt_ledger` — one seeded benchmark for contract generation,
//! contract serving and the simulated data plane, end to end and layer
//! by layer. See the README beside this package for what each workload
//! is for and what each metric means.
//!
//! ```text
//! bolt_ledger run --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]] [--quick] [--out <file>]
//! bolt_ledger compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//! bolt_ledger golden
//! bolt_ledger describe > BENCHMARK.json
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading counters the program already exposes; the
//! program under test receives only the inputs generated from the seed.

mod catalog;
mod compare;
mod fingerprint;
mod json;
mod metrics;
mod speed;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use workloads::{RunConfig, RunResult};

/// Measured seconds per workload of a full run (`run_seconds` in
/// `BENCHMARK.json`), and under `--quick`. Anything measured for less
/// than the full length is flagged `"quick": true` and refused by
/// `compare`.
pub const FULL_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 2.0;

struct RunArgs {
    seed: u64,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

impl RunArgs {
    /// Measured seconds per workload: as given, else by `--quick`.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            FULL_SECONDS
        })
    }
}

fn usage() -> String {
    format!(
        "usage:\n  bolt_ledger run --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]] \
         [--quick] [--out <file>]\n  bolt_ledger compare <a.json> <b.json> [--benchmark <file>]\n  \
         bolt_ledger golden\n  bolt_ledger describe\nworkloads: {}",
        workloads::names().join(", ")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        seed: 0,
        workload: None,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--workload" => out.workload = Some(value("--workload")?),
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is out of range (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--out" => out.out = Some(value("--out")?),
            "--quick" => out.quick = true,
            // `--trace` alone switches tracing on; the benchmark driver
            // passes an explicit 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    out.trace = false;
                }
                Some("1") => {
                    it.next();
                    out.trace = true;
                }
                _ => out.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    out.seed = seed.ok_or("run needs --seed <u64>")?;
    Ok(out)
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json_number(*value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A number as measured, with all its digits; JSON has no NaN or
/// infinity, so a non-finite value (a division by a zero count) reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run one workload in this process and print its report; the last line
/// of standard output is the result object.
fn run_one(name: &str, args: &RunArgs) -> ExitCode {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
    };
    let result = match workloads::run(name, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bolt_ledger: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "== {} seed {} {} s {}",
        result.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for remark in &result.remarks {
        println!("   {remark}");
    }
    for (m, value) in &result.metrics {
        println!(
            "   {:<32} {value:>16.4} {:<7} ({} is better)",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "   checked {} operations, {} failed",
        result.attempted, result.failed
    );
    for note in &result.notes {
        println!("   FAILED: {note}");
    }
    println!("{}", result_json(&result));
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of its own (so that
/// `peak_rss_mb` is per workload), one after another; with `--trace`,
/// each workload runs a second, traced time for the per-layer metrics.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bolt_ledger: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    let mut rows = Vec::new();
    for name in workloads::names() {
        let mut merged: Option<String> = None;
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("bolt_ledger: cannot start {name}: {e}");
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            let (report, last) = match text.trim_end().rsplit_once('\n') {
                Some((report, last)) => (report, last),
                None => ("", text.trim_end()),
            };
            println!("{report}");
            failed |= !output.status.success();
            if json::parse(last).is_err() {
                eprintln!("bolt_ledger: {name} printed no result");
                failed = true;
                continue;
            }
            merged = Some(match merged {
                None => last.to_string(),
                Some(first) => compare::merge_results(&first, last),
            });
        }
        if let Some(result) = merged {
            rows.push(format!("    {}: {result}", json::quote(name)));
        }
    }
    let seconds = args.seconds();
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"quick\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        seconds < FULL_SECONDS,
        rows.join(",\n")
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("bolt_ledger: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    sys::clear_ambient_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(|run| match &run.workload {
            Some(name) => run_one(name, &run),
            None => run_all(&run),
        }),
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => workloads::write_golden().map(|()| ExitCode::SUCCESS),
        Some("describe") => {
            print!("{}", metrics::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bolt_ledger: {e}");
        ExitCode::from(2)
    })
}
