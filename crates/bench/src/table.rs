//! Aligned console tables + CSV export for experiment results.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple result table: headers plus string rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            format!("  {}\n", parts.join("  "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&format!("  {}\n", "-".repeat(total.saturating_sub(4))));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV into `dir/<file>` (directory created as
    /// needed). Errors are reported to stderr but do not abort the
    /// experiment run.
    pub fn write_csv(&self, dir: &Path, file: &str) {
        let write = || -> std::io::Result<()> {
            fs::create_dir_all(dir)?;
            let mut f = fs::File::create(dir.join(file))?;
            writeln!(f, "{}", self.headers.join(","))?;
            for row in &self.rows {
                let escaped: Vec<String> = row
                    .iter()
                    .map(|c| {
                        if c.contains(',') || c.contains('"') {
                            format!("\"{}\"", c.replace('"', "\"\""))
                        } else {
                            c.clone()
                        }
                    })
                    .collect();
                writeln!(f, "{}", escaped.join(","))?;
            }
            Ok(())
        };
        if let Err(e) = write() {
            eprintln!("warning: could not write {file}: {e}");
        }
    }
}

/// Formats a float with 2 decimals (the table default).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a mean ± half-CI pair.
pub fn pm(mean: f64, ci: f64) -> String {
    format!("{mean:.2}±{ci:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["n", "hops"]);
        t.row(vec!["1024".into(), "9.13".into()]);
        t.row(vec!["64".into(), "5.2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("1024"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("swbench-test");
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        t.write_csv(&dir, "demo.csv");
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(content, "a,b\n1,\"x,y\"\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pm(9.131, 0.225), "9.13±0.23");
    }
}
