//! Fixed-width table rendering for the reproduction's output.

/// `println!` onto the reproduction's output string.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}
pub(crate) use outln;

/// Append a titled table: a header row, a dashed separator and `rows`,
/// columns padded to their widest cell and lines trimmed at the right.
pub(crate) fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    outln!(out, "\n=== {title} ===");
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate().take(cols) {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        outln!(out, "{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// `x.yz` formatting for ratios.
pub(crate) fn ratio(pred: u64, measured: u64) -> String {
    if measured == 0 {
        return "-".to_string();
    }
    format!("{:.2}", pred as f64 / measured as f64)
}

/// Thousands-separated integer.
pub(crate) fn human(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_format() {
        assert_eq!(ratio(900, 300), "3.00");
        assert_eq!(ratio(1, 0), "-");
        assert_eq!(human(1234567), "1,234,567");
        assert_eq!(human(12), "12");
    }

    #[test]
    fn table_pads_columns_and_trims_line_ends() {
        let mut out = String::from("before");
        table(
            &mut out,
            "T — title",
            &["a", "long header", "c"],
            &[
                vec!["wider cell".into(), "x".into(), "".into()],
                vec!["y".into(), "z".into(), "last".into()],
            ],
        );
        assert_eq!(
            out,
            "before\n\
             === T — title ===\n\
             a           long header  c\n\
             ----------  -----------  ----\n\
             wider cell  x\n\
             y           z            last\n"
        );
    }
}
