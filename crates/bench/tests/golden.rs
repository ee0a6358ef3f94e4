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

/// The README's "Reproduction status" table is read off the golden: every
/// number in its *ours* column is one the golden prints, at the precision
/// the table quotes it (39.9 % for 39.8850) and a percentage possibly as a
/// fraction (0.52 % for 0.0052), so a moved golden cannot leave the table
/// stale.
#[test]
fn the_readme_table_quotes_the_golden() {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("## Reproduction status")
        .nth(1)
        .expect("the README has the section");
    // The header and its `|---|` rule come first.
    let rows = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2);
    let printed = numbers(GOLDEN, false);
    let mut checked = 0;
    for row in rows {
        let ours = row.split('|').nth(3).expect("a row has an ours column");
        for (value, decimals, percent) in numbers(ours, true) {
            let half_ulp = 0.5 * 10f64.powi(-(decimals as i32)) + 1e-9;
            let quotes = |g: f64| (g - value).abs() <= half_ulp;
            assert!(
                printed
                    .iter()
                    .any(|&(g, ..)| quotes(g) || (percent && quotes(100.0 * g))),
                "{value} in the ours column {ours:?} is nowhere in the golden"
            );
        }
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} rows of the table were read");
}

/// Each decimal number in `text`, its count of decimals, and whether a
/// `%` follows it. Digits glued to a word (`Br2`, `P1`) are names, not
/// numbers; `grouped` also reads thousands split by single spaces
/// (`3 983`), as the README writes them.
fn numbers(text: &str, grouped: bool) -> Vec<(f64, usize, bool)> {
    let b = text.as_bytes();
    let digit = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !digit(i) || (i > 0 && b[i - 1].is_ascii_alphanumeric()) {
            i += 1;
            continue;
        }
        let mut number = String::new();
        loop {
            while digit(i) {
                number.push(b[i] as char);
                i += 1;
            }
            let group = b.get(i) == Some(&b' ') && (1..=3).all(|k| digit(i + k)) && !digit(i + 4);
            if !(grouped && group) {
                break;
            }
            i += 1;
        }
        let mut decimals = 0;
        if b.get(i) == Some(&b'.') && digit(i + 1) {
            number.push('.');
            i += 1;
            while digit(i) {
                number.push(b[i] as char);
                decimals += 1;
                i += 1;
            }
        }
        let percent = text[i..].trim_start().starts_with('%');
        out.push((number.parse().expect("digits parse"), decimals, percent));
    }
    out
}
