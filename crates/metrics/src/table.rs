//! Plain-text and CSV table rendering for the experiment harness.
//!
//! Every experiment in `ofa-bench` returns a [`Table`]; the same value is
//! asserted on by tests and printed by the `experiments` binary as text,
//! CSV or Markdown.

use std::fmt;

/// Alignment of a rendered cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Align {
    Left,
    Right,
}

/// A titled table with a fixed set of columns.
///
/// # Examples
///
/// ```
/// use ofa_metrics::Table;
///
/// let mut t = Table::new("E4: decision rounds", &["n", "mean", "p99"]);
/// t.row(["4", "1.9", "5"]);
/// t.row(["8", "2.1", "6"]);
/// let text = t.render();
/// assert!(text.contains("E4: decision rounds"));
/// assert!(text.contains("mean"));
/// assert_eq!(t.to_csv().lines().count(), 3); // header + 2 rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new<S: Into<String>>(title: S, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of columns.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} does not match {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
        self
    }

    /// Appends a row from anything `Display` (numbers, ids, …).
    pub fn row_display<I, D>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = D>,
        D: fmt::Display,
    {
        let row: Vec<String> = cells.into_iter().map(|d| d.to_string()).collect();
        self.row(row)
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrowed access to the data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Returns the cell at `(row, col)`, if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// Finds the first row whose first cell equals `key`.
    pub fn find_row(&self, key: &str) -> Option<&[String]> {
        self.rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(key))
            .map(Vec::as_slice)
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let ncols = self.columns.len();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        // Right-align a column iff every data cell in it parses as a number.
        let aligns: Vec<Align> = (0..ncols)
            .map(|i| {
                let numeric = !self.rows.is_empty()
                    && self.rows.iter().all(|r| {
                        let c = r[i].trim();
                        !c.is_empty() && c.parse::<f64>().is_ok()
                    });
                if numeric {
                    Align::Right
                } else {
                    Align::Left
                }
            })
            .collect();

        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let fmt_cell = |text: &str, width: usize, align: Align| -> String {
            let pad = width.saturating_sub(text.chars().count());
            match align {
                Align::Left => format!("{}{}", text, " ".repeat(pad)),
                Align::Right => format!("{}{}", " ".repeat(pad), text),
            }
        };
        // header
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| fmt_cell(c, widths[i], Align::Left))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| fmt_cell(c, widths[i], aligns[i]))
                .collect();
            out.push_str(cells.join("  ").trim_end());
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows). Cells containing commas,
    /// quotes, or newlines are quoted.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        for row in &self.rows {
            out.push('\n');
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Renders the table as a GitHub-flavored Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats an `f64` with `prec` decimals, trimming a trailing ".0" when
/// `prec == 1` renders an integral value exactly.
pub fn fmt_f64(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio `a / b` as e.g. `"3.2x"`, or `"inf"` when `b == 0`.
pub fn fmt_ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.2}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("title", &["name", "count"]);
        t.row(["alpha", "1"]);
        t.row(["beta", "22"]);
        t
    }

    #[test]
    fn render_alignment() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "title");
        assert_eq!(lines[1], "name   count");
        // numeric column is right-aligned
        assert_eq!(lines[3], "alpha      1");
        assert_eq!(lines[4], "beta      22");
    }

    #[test]
    fn mixed_column_left_aligned() {
        let mut t = Table::new("t", &["v"]);
        t.row(["1"]);
        t.row(["x"]);
        let lines: Vec<String> = t.render().lines().map(String::from).collect();
        assert_eq!(lines[3], "1");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.cell(1, 1), Some("22"));
        assert_eq!(t.cell(5, 0), None);
        assert_eq!(t.find_row("beta").unwrap()[1], "22");
        assert!(t.find_row("gamma").is_none());
        assert_eq!(t.columns()[0], "name");
        assert_eq!(t.title(), "title");
    }

    #[test]
    fn row_display_accepts_numbers() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row_display([1.5, 2.0]);
        assert_eq!(t.cell(0, 0), Some("1.5"));
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("**title**"));
        assert!(md.contains("| name | count |"));
        assert!(md.contains("| beta | 22 |"));
    }

    #[test]
    fn helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_ratio(6.0, 2.0), "3.00x");
        assert_eq!(fmt_ratio(1.0, 0.0), "inf");
    }
}
