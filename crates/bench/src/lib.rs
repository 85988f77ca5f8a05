//! Shared reporting helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every figure and table binary prints a human-readable markdown table to stdout (the
//! same rows/series the paper reports). The `bench_report` binary instead writes and
//! prints `BENCH_norm.json`, the machine-readable perf trajectory, rendered by the
//! dependency-free [`haan_obs::json`] module and timed with [`timing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

/// A simple markdown table builder.
#[derive(Debug, Clone, Default)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified by the caller).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured markdown.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Formats a float with three decimal places (accuracy-style).
#[must_use]
pub fn fmt_acc(value: f64) -> String {
    format!("{value:.4}")
}

/// Formats a normalized ratio ("1.23x").
#[must_use]
pub fn fmt_ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a percentage with one decimal place.
#[must_use]
pub fn fmt_pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Prints a section header for an experiment binary.
pub fn print_experiment_header(id: &str, description: &str) {
    println!("\n==========================================================");
    println!("{id}: {description}");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders_header_separator_and_rows() {
        let mut table = MarkdownTable::new(vec!["a", "b"]);
        assert!(table.is_empty());
        table.push_row(vec!["1", "2"]);
        table.push_row(vec!["3", "4"]);
        assert_eq!(table.len(), 2);
        let rendered = table.render();
        assert!(rendered.starts_with("| a | b |\n|---|---|\n"));
        assert!(rendered.contains("| 3 | 4 |"));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_acc(0.70162), "0.7016");
        assert_eq!(fmt_ratio(11.6789), "11.68x");
        assert_eq!(fmt_pct(0.145), "14.5%");
    }
}
