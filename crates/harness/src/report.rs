//! Plain-text tables for experiment reports.

use std::fmt::Write as _;

/// A simple column-aligned table with a title.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let line = |cells: &[String], width: &[usize], out: &mut String| {
            let mut first = true;
            for (c, w) in cells.iter().zip(width) {
                if !first {
                    out.push_str("  ");
                }
                first = false;
                let pad = w.saturating_sub(c.chars().count());
                // Right-align numbers-ish, left-align text: keep it simple
                // and right-align everything except the first column.
                out.push_str(&" ".repeat(pad));
                out.push_str(c);
            }
            out.push('\n');
        };
        line(&self.headers, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &width, &mut out);
        }
        out
    }
}

/// Helper: format an `f64` cell.
pub fn f(v: f64, precision: usize) -> String {
    format!("{v:.precision$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["x".into(), "1.00".into()]);
        t.row(vec!["longer".into(), "22.50".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // header, separator, two rows
        assert_eq!(lines.len(), 5);
        // Both value cells end-aligned to the same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn f_formats() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
