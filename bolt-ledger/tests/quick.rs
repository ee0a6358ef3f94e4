//! Runs the built `bolt_ledger` end to end at `--quick` length, so that
//! `cargo test` in this package keeps the harness, its checks and its
//! golden files honest against the program as it is now.

use std::process::Command;

/// Run one workload at quick length; return the result line.
fn quick(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bolt_ledger"))
        .args(["run", "--quick", "--workload", workload, "--seed", "7"])
        .args(["--trace", trace])
        .output()
        .expect("bolt_ledger starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_correct(result: &str, metric: &str) {
    assert!(result.starts_with("{\"correct\": true, "), "{result}");
    assert!(result.contains("\"failed\": 0, "), "{result}");
    assert!(
        result.contains(&format!("\"{metric}\": {{\"value\": ")),
        "{result}"
    );
}

#[test]
fn gen_catalog_runs_and_matches_its_golden_file() {
    assert_correct(&quick("gen_catalog", "0"), "ops_per_s");
}

#[test]
fn replay_dataplane_runs_and_matches_its_golden_file() {
    assert_correct(&quick("replay_dataplane", "0"), "ops_per_s");
}

#[test]
fn a_traced_run_reports_the_layer_metrics() {
    let result = quick("gen_catalog", "1");
    assert_correct(&result, "see.explore_us");
    // Every per-layer name is present, also those of layers this workload
    // never enters (they read 0).
    assert!(
        result.contains("\"nflib.maglev_lookup_ns\": {\"value\": 0, "),
        "{result}"
    );
}

/// Run `compare` on two result files with the given contents; return
/// whether it succeeded and what it printed.
fn compare(tag: &str, a: &str, b: &str) -> (bool, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (fa, fb) = (
        dir.join(format!("{tag}-a.json")),
        dir.join(format!("{tag}-b.json")),
    );
    std::fs::write(&fa, a).unwrap();
    std::fs::write(&fb, b).unwrap();
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bolt_ledger"))
        .args(["compare", fa.to_str().unwrap(), fb.to_str().unwrap()])
        .args(["--benchmark", benchmark])
        .output()
        .expect("bolt_ledger starts");
    let _ = std::fs::remove_file(&fa);
    let _ = std::fs::remove_file(&fb);
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

/// A result file of one traced `replay_dataplane` run.
fn result_file(seconds: u32, failed: u32, sim_cycles: f64) -> String {
    format!(
        "{{\"seed\": 1, \"seconds\": {seconds}, \"quick\": {}, \"workloads\": {{\"replay_dataplane\": \
         {{\"correct\": {}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": {{\
         \"ops_per_s\": {{\"value\": 250000.5, \"unit\": \"1/s\"}}, \
         \"see.explore_us\": {{\"value\": 0, \"unit\": \"us\"}}, \
         \"replay.sim_cycles_per_pkt\": {{\"value\": {sim_cycles}, \"unit\": \"cycles\"}}}}}}}}}}",
        seconds < 20,
        failed == 0,
    )
}

#[test]
fn compare_refuses_what_is_not_comparable() {
    let good = result_file(20, 0, 812.25);
    let (ok, text) = compare("same", &good, &good);
    assert!(ok, "{text}");
    assert!(text.contains("replay.sim_cycles_per_pkt"), "{text}");

    let (ok, text) = compare("quick", &result_file(2, 0, 812.25), &good);
    assert!(!ok && text.contains("--quick"), "{text}");

    let (ok, text) = compare("failed", &good, &result_file(20, 3, 812.25));
    assert!(!ok && text.contains("failed 3 operation(s)"), "{text}");

    let (ok, text) = compare("length", &good, &result_file(30, 0, 812.25));
    assert!(!ok && text.contains("not comparable"), "{text}");
}

#[test]
fn an_exact_count_that_moved_the_wrong_way_is_worse() {
    let (ok, text) = compare(
        "exact",
        &result_file(20, 0, 812.25),
        &result_file(20, 0, 812.5),
    );
    assert!(!ok, "{text}");
    assert!(text.contains("worse"), "{text}");
    let (ok, text) = compare(
        "exact-better",
        &result_file(20, 0, 812.25),
        &result_file(20, 0, 800.0),
    );
    assert!(ok, "{text}");
}

#[test]
fn an_unknown_workload_is_an_error_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_bolt_ledger"))
        .args(["run", "--workload", "nope", "--seed", "1"])
        .output()
        .expect("bolt_ledger starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
