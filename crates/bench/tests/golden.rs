//! The reproduction is a golden: `reproduce()` must print exactly the
//! committed `golden/reproduce.txt`, in debug and release alike (every
//! count is simulated). A contract-shape or tightness change therefore
//! shows up as a reviewed diff of that file. Regenerate with
//! `cargo run --release -p bolt-bench > crates/bench/golden/reproduce.txt`.

const GOLDEN: &str = include_str!("../golden/reproduce.txt");

#[test]
fn reproduce_matches_the_golden_byte_for_byte() {
    let ours = bolt_bench::reproduce();
    if ours != GOLDEN {
        let line = ours
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| ours.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "reproduce() left the golden at line {}:\n  golden: {:?}\n  ours:   {:?}",
            line + 1,
            GOLDEN.lines().nth(line),
            ours.lines().nth(line),
        );
    }
}

/// A table dropped from `reproduce()` must fail even after a regenerate:
/// the golden carries every table and figure exactly once, in this order.
#[test]
fn the_golden_carries_every_table_and_figure_exactly_once() {
    let headers: Vec<&str> = GOLDEN
        .lines()
        .filter_map(|l| l.strip_prefix("=== ")?.strip_suffix(" ==="))
        .map(|title| title.split(" — ").next().expect("split yields one item"))
        .collect();
    assert_eq!(
        headers,
        [
            "Figure 1",
            "Figure 2",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "P1/P2/P3",
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "bridge `lookup` contract",
            "bridge `expire` contract",
            "Table 5a",
            "Table 5b",
            "Table 5c",
            "Figure 3",
            "Table 6",
            "Table 7",
            "Table 8",
        ]
    );
}
