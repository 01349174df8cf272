//! Result tables: aligned console rendering + CSV export.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A titled grid of results — one per reproduced table/figure series.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title shown above the table and used for the CSV file name.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// File-system-safe slug of the title.
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Writes the table as CSV into `dir`, returning the path.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.slug()));
        let mut s = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            s,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                s,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Formats a float with 2 decimals (table cells).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 0 decimals.
pub fn f0(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn slug_is_fs_safe() {
        let t = Table::new("Fig 8a: Modeled LAN (max throughput)", &["x"]);
        assert_eq!(t.slug(), "fig_8a_modeled_lan_max_throughput");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("paxi_table_test");
        let mut t = Table::new("csv test", &["a", "b"]);
        t.row(vec!["1,5".into(), "x".into()]);
        let path = t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n\"1,5\",x\n");
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
