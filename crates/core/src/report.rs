//! Plain-text report tables for experiment binaries and examples.

use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use hybrimoe::report::Table;
///
/// let mut t = Table::new(vec!["model".into(), "latency".into()]);
/// t.push_row(vec!["DeepSeek".into(), "1.23s".into()]);
/// let s = t.to_string();
/// assert!(s.contains("DeepSeek"));
/// assert!(s.contains("model"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push_row(&mut self, mut row: Vec<String>) {
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > w[i] {
                    w[i] = cell.len();
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for w in &widths {
                write!(f, "+-{}-", "-".repeat(*w))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (h, w) in self.headers.iter().zip(widths.iter()) {
            write!(f, "| {h:w$} ")?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &self.rows {
            for (cell, w) in row.iter().zip(widths.iter()) {
                write!(f, "| {cell:w$} ")?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// Renders serving summaries as an aligned comparison table, one row per
/// experiment — the human-readable companion of the JSON a sweep emits.
///
/// # Example
///
/// ```
/// use hybrimoe::report::serve_table;
/// use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeSim};
/// use hybrimoe::{EngineConfig, Framework};
/// use hybrimoe_hw::SimDuration;
/// use hybrimoe_model::ModelConfig;
///
/// let report = ServeSim::new(ServeConfig {
///     engine: EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
///     arrivals: ArrivalProcess::deterministic(SimDuration::from_millis(2)),
///     requests: 2,
///     prompt_tokens: 8,
///     decode_tokens: 2,
///     max_batch: 2,
///     seed: 1,
/// })
/// .run();
/// let table = serve_table(&[("HybriMoE".into(), report.summary())]);
/// assert!(table.to_string().contains("HybriMoE"));
/// ```
pub fn serve_table(rows: &[(String, crate::serve::ServeSummary)]) -> Table {
    let mut table = Table::new(vec![
        "framework".into(),
        "arrivals".into(),
        "rate/s".into(),
        "ratio".into(),
        "gpus".into(),
        "batch".into(),
        "tok/s".into(),
        "TTFT p50".into(),
        "TTFT p99".into(),
        "TPOT p50".into(),
        "latency p99".into(),
    ]);
    for (label, s) in rows {
        table.push_row(vec![
            label.clone(),
            s.arrivals.clone(),
            format!("{:.1}", s.arrival_rate_per_sec),
            format!("{:.2}", s.cache_ratio),
            format!("{}", s.num_gpus),
            format!("{:.1}", s.mean_batch),
            format!("{:.1}", s.output_tokens_per_sec),
            format!("{:.1}ms", s.ttft_p50_ms),
            format!("{:.1}ms", s.ttft_p99_ms),
            format!("{:.1}ms", s.tpot_p50_ms),
            format!("{:.1}ms", s.latency_p99_ms),
        ]);
    }
    table
}

/// Formats a speedup factor as e.g. `"1.33x"`.
pub fn speedup(baseline_ns: u64, ours_ns: u64) -> String {
    if ours_ns == 0 {
        return "inf".to_owned();
    }
    format!("{:.2}x", baseline_ns as f64 / ours_ns as f64)
}

/// Formats a fraction as a percentage, e.g. `"45.0%"`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = Table::new(vec!["a".into(), "bb".into()]);
        t.push_row(vec!["xxx".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(s.contains("xxx"));
        // Header separator lines exist.
        assert!(s.contains("+-"));
    }

    #[test]
    fn helpers() {
        assert_eq!(speedup(200, 100), "2.00x");
        assert_eq!(speedup(100, 0), "inf");
        assert_eq!(percent(0.4567), "45.7%");
    }
}
