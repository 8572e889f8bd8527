//! Plain-text table rendering shared by the CLI's summaries and the
//! paper-artifact renderer.

/// Render an aligned text table. `headers.len()` must equal the width of
/// every row.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    for r in rows {
        assert_eq!(r.len(), cols, "row width mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(headers.to_vec(), &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in rows {
        out.push_str(&render_row(r.iter().map(std::string::String::as_str).collect(), &widths));
    }
    out
}

/// Format a ratio as a signed percent improvement over a baseline,
/// e.g. `pct_over(1.207, 1.0)` → `"+20.7%"`.
pub fn pct_over(value: f64, baseline: f64) -> String {
    assert!(baseline != 0.0, "baseline must be non-zero");
    let pct = (value / baseline - 1.0) * 100.0;
    format!("{pct:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["name", "val"],
            &[vec!["a".into(), "1.0".into()], vec!["longer".into(), "22.5".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.0"));
        assert!(lines[3].ends_with("22.5"));
    }

    #[test]
    fn pct_formats_sign() {
        assert_eq!(pct_over(1.207, 1.0), "+20.7%");
        assert_eq!(pct_over(0.9, 1.0), "-10.0%");
        assert_eq!(pct_over(2.0, 2.0), "+0.0%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let _ = format_table(&["a", "b"], &[vec!["x".into()]]);
    }
}
