//! Plain-text table and CSV rendering helpers shared by the experiments.

/// Formats a value to a compact fixed width (ratios and bounds).
pub fn fmt_ratio(v: f64) -> String {
    if !v.is_finite() {
        "inf".to_string()
    } else if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a simple aligned table: a header row plus data rows. Columns
/// are padded to their widest cell; the first column is left-aligned,
/// the rest right-aligned.
pub fn render_table<H: AsRef<str>>(header: &[H], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (c, h) in header.iter().enumerate() {
        width[c] = width[c].max(h.len());
    }
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (c, cell) in row.iter().enumerate() {
            width[c] = width[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, row: &[String]| {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            if c == 0 {
                out.push_str(&format!("{cell:<w$}", w = width[c]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = width[c]));
            }
        }
        out.push('\n');
    };
    render_row(&mut out, &header);
    let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders rows as CSV (no quoting — the harness only emits numbers and
/// simple identifiers).
pub fn render_csv<H: AsRef<str>>(header: &[H], rows: &[Vec<String>]) -> String {
    let header: Vec<&str> = header.iter().map(AsRef::as_ref).collect();
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// A crude ASCII line chart: one row per series point, a bar of `#`
/// proportional to the value. Good enough to eyeball Figure 5's shape in
/// a terminal.
pub fn ascii_chart(title: &str, series: &[(String, Vec<(String, f64)>)]) -> String {
    let max = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().map(|(_, v)| *v))
        .fold(f64::NEG_INFINITY, f64::max);
    let scale = if max > 0.0 { 50.0 / max } else { 1.0 };
    let mut out = format!("{title}\n");
    for (name, pts) in series {
        out.push_str(&format!("-- {name}\n"));
        for (label, v) in pts {
            let bar = "#".repeat((v * scale).round().max(0.0) as usize);
            out.push_str(&format!("  {label:>8} {v:7.3} {bar}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> String {
        x.to_string()
    }

    #[test]
    fn ratio_formatting_adapts_precision() {
        assert_eq!(fmt_ratio(1.23456), "1.235");
        assert_eq!(fmt_ratio(123.456), "123.5");
        assert_eq!(fmt_ratio(12345.6), "12346");
        assert_eq!(fmt_ratio(f64::INFINITY), "inf");
    }

    #[test]
    fn table_aligns_columns() {
        let header = vec![s("name"), s("v")];
        let rows = vec![vec![s("a"), s("1")], vec![s("longer"), s("22")]];
        let t = render_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&[s("a"), s("b")], &[vec![s("only-one")]]);
    }

    #[test]
    fn csv_joins_cells() {
        let got = render_csv(&[s("x"), s("y")], &[vec![s("1"), s("2")]]);
        assert_eq!(got, "x,y\n1,2\n");
    }

    #[test]
    fn chart_contains_bars() {
        let chart = ascii_chart("demo", &[(s("hf"), vec![(s("5"), 1.0), (s("6"), 2.0)])]);
        assert!(chart.contains("demo"));
        assert!(chart.contains("#"));
    }
}
