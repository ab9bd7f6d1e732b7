//! Text-table and CSV rendering for the evaluation outputs.

use std::fmt::Write as _;
use std::path::Path;

/// Renders an aligned text table with a header row.
///
/// # Example
///
/// ```
/// let t = pm_bench::report::render_table(
///     &["case", "PM"],
///     &[vec!["(13,20)".into(), "315%".into()]],
/// );
/// assert!(t.contains("(13,20)"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{:<width$}", cell, width = widths[i]);
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    write_row(&mut out, &header_cells);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Writes `body` to `dir/name`, creating the directory if needed. Errors
/// are reported to stderr but not fatal — the text tables on stdout are
/// the primary artifact.
pub fn write_file(dir: &Path, name: &str, body: &str) {
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), body))
    {
        eprintln!("warning: could not write {name}: {e}");
    }
}

/// Writes `rows` to `dir/name` as JSON lines keyed by `headers` — the
/// mergeable JSON counterpart of a CSV. The first `text_cols` columns are
/// strings; every other column is numeric.
pub fn write_jsonl(
    dir: &Path,
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
    text_cols: usize,
) {
    let mut out = String::new();
    for row in rows {
        out.push('{');
        for (i, (h, v)) in headers.iter().zip(row).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if i < text_cols {
                let _ = write!(out, "\"{h}\": \"{v}\"");
            } else {
                let _ = write!(out, "\"{h}\": {v}");
            }
        }
        out.push_str("}\n");
    }
    write_file(dir, name, &out);
}

/// Writes a CSV file (header + rows) into `dir/name.csv` through
/// [`write_file`].
pub fn write_csv(dir: &Path, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|cell| {
                if cell.contains(',') || cell.contains('"') {
                    format!("\"{}\"", cell.replace('"', "\"\""))
                } else {
                    cell.clone()
                }
            })
            .collect();
        body.push_str(&escaped.join(","));
        body.push('\n');
    }
    write_file(dir, &format!("{name}.csv"), &body);
}

/// Formats a ratio as a percentage with no decimals ("315%").
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Formats a [`pm_sdwan::BoxStats`] as "min/q1/med/q3/max".
pub fn box_summary(b: Option<pm_sdwan::BoxStats>) -> String {
    match b {
        None => "-".into(),
        Some(b) => format!(
            "{:.0}/{:.0}/{:.1}/{:.0}/{:.0}",
            b.min, b.q1, b.median, b.q3, b.max
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xxxx".into(), "y".into()],
                vec!["z".into(), "w".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows equal length after trimming trailing spaces?
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn pct_rounds() {
        assert_eq!(pct(3.149), "315%");
        assert_eq!(pct(1.0), "100%");
    }

    #[test]
    fn csv_escapes_commas() {
        let dir = std::env::temp_dir().join("pm_bench_csv_test");
        write_csv(
            &dir,
            "t",
            &["a", "b"],
            &[vec!["x,y".into(), "q\"uote".into()]],
        );
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(body.contains("\"x,y\""));
        assert!(body.contains("\"q\"\"uote\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn box_summary_formats() {
        let b = pm_sdwan::BoxStats::from_values(&[1.0, 2.0, 3.0]);
        // q1 = 1.5 and q3 = 2.5 round half-to-even under {:.0}.
        assert_eq!(box_summary(b), "1/2/2.0/2/3".to_string());
        assert_eq!(box_summary(None), "-");
    }
}
