//! Plain-text table rendering for experiment output.

use std::fmt;

/// A titled, column-aligned text table (also exportable as CSV).
///
/// ```
/// use sda_experiments::Table;
/// let mut t = Table::new("demo", &["load", "MD_local", "MD_global"]);
/// t.row(&["0.5", "8.9%", "25.0%"]);
/// let text = t.to_string();
/// assert!(text.contains("MD_global"));
/// assert!(text.contains("25.0%"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// A cell by (row, column), if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// Renders as comma-separated values (header row first). Cells
    /// containing commas, quotes or newlines are quoted, with each quote
    /// doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_csv_cell(&mut out, cell);
            }
            out.push('\n');
        }
        out
    }
}

/// Appends one CSV cell, quoted if it holds a comma, quote or newline.
fn push_csv_cell(out: &mut String, cell: &str) {
    if !cell.contains([',', '"', '\n']) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for c in cell.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        writeln!(f, "{}", header_line.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("  "))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("t", &["a", "long_header"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let s = t.to_string();
        assert!(s.contains("## t"));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[2].len(), "rule matches header width");
        assert_eq!(lines[2].len(), lines[3].len(), "rows align with header");
    }

    #[test]
    fn csv_export_escapes() {
        let mut t = Table::new("t", &["x", "note"]);
        t.row(&["1", "plain"]);
        t.row(&["2", "has, comma"]);
        t.row(&["3", "has \"quote\""]);
        let csv = t.to_csv();
        assert!(csv.starts_with("x,note\n"));
        assert!(csv.contains("\"has, comma\""));
        assert!(csv.contains("\"has \"\"quote\"\"\""));
    }

    /// The escape-and-join writer `to_csv` replaced, kept as its oracle.
    fn reference_csv(t: &Table) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &t.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &t.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    #[test]
    fn csv_matches_the_escape_and_join_reference() {
        const CELLS: [&str; 12] = [
            "",
            "0.5",
            "8.9%",
            "has, comma",
            "\"",
            "say \"hi\"",
            "two\nlines",
            ",\"\n",
            "±0.35pp",
            "EQF ‖ DIV-1",
            "\"é, ü\"",
            "  spaced  ",
        ];
        let mut state = 0x00C5_u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            CELLS[(state >> 33) as usize % CELLS.len()]
        };
        for width in 1..5 {
            let headers: Vec<&str> = (0..width).map(|_| draw()).collect();
            for rows in 0..4 {
                let mut t = Table::new("t", &headers);
                for _ in 0..rows {
                    let row: Vec<&str> = (0..width).map(|_| draw()).collect();
                    t.row(&row);
                }
                assert_eq!(t.to_csv(), reference_csv(&t), "{t:?}");
            }
        }
        // Every cell, alone and beside each other one.
        for a in CELLS {
            for b in CELLS {
                let mut t = Table::new("t", &[a, b]);
                t.row(&[b, a]);
                assert_eq!(t.to_csv(), reference_csv(&t), "{t:?}");
            }
        }
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("title", &["c1", "c2"]);
        t.row(&["a", "b"]);
        assert_eq!(t.title(), "title");
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.cell(0, 1), Some("b"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.cell(0, 5), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only one"]);
    }
}
