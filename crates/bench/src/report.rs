//! Minimal fixed-width table formatting for the experiment reports, plus
//! what every versioned JSON document this crate emits shares: the
//! envelope that opens it and [`check_document`], the one checker behind
//! `reproduce check`.

use peakperf_sim::json::{check_chrome_trace, Json};
use peakperf_sim::obj;

use crate::{fault, ledger, profiling, service, telemetry};

/// The producing crate and version, stamped into every JSON document.
pub const GENERATED_BY: &str = concat!("peakperf-bench ", env!("CARGO_PKG_VERSION"));

/// The two GPUs the paper (and therefore the default experiment suite)
/// covers, in report order.
pub const PAPER_GPUS: [&str; 2] = ["GTX580", "GTX680"];

/// A versioned JSON document: the envelope every family opens with —
/// `schema` id, `generated_by` crate+version, and the `gpu` list the
/// document covers — followed by the members of `body`.
pub fn envelope(schema: &str, gpus: &[&str], body: Json) -> Json {
    let gpu: Json = gpus.iter().copied().collect();
    let mut doc = obj!((); schema = schema, generated_by = GENERATED_BY, gpu = gpu);
    doc.extend(body);
    doc
}

/// Check any document this workspace writes, returning one message per
/// violation (empty = valid). The document says what it is: a
/// `traceEvents` key selects the Chrome-trace check, otherwise the
/// `schema` id selects the family, whose check sits next to its emitter:
/// the document must be shaped like a sample that emitter writes
/// ([`Json::conforms`]) and keep the family's invariants.
pub fn check_document(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.get("traceEvents").is_some() {
        check_chrome_trace(doc, &mut errors);
        return errors;
    }
    match doc.text("schema") {
        "peakperf-job-v1" => errors.extend(service::JobSpec::from_json(doc).err()),
        "peakperf-profile-v1" => profiling::check(doc, &mut errors),
        "peakperf-fuzz-v1" => fault::check(doc, &mut errors),
        telemetry::BENCH_SCHEMA => telemetry::check_bench(doc, &mut errors),
        "peakperf-service-v1" => service::check(doc, &mut errors),
        ledger::SCHEMA => ledger::check(doc, &mut errors),
        "" => errors.push("document has neither a string `schema` nor `traceEvents`".to_owned()),
        other => errors.push(format!("unknown schema `{other}`")),
    }
    errors
}

/// A simple text table with a title and aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells.
                if cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
                    && cell
                        .chars()
                        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '%' | 'x' | ':'))
                {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1.0".into()]);
        t.row(vec!["beta-longer".into(), "22.5".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("alpha"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_length_is_checked() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(pct(0.825), "82.5%");
    }

    #[test]
    fn envelope_carries_schema_version_and_gpus() {
        let doc = envelope("peakperf-bench-v1", &PAPER_GPUS, obj!((); workers = 2));
        assert_eq!(doc.keys(), ["schema", "generated_by", "gpu", "workers"]);
        assert_eq!(doc.text("generated_by"), GENERATED_BY);
        assert_eq!(doc.get("gpu").unwrap().render(), "[\"GTX580\",\"GTX680\"]");
        assert!(GENERATED_BY.starts_with("peakperf-bench "));
    }

    #[test]
    fn documents_that_do_not_say_what_they_are_are_rejected() {
        let unknown = envelope("peakperf-nonesuch-v9", &[], obj!(();));
        assert_eq!(
            check_document(&unknown),
            ["unknown schema `peakperf-nonesuch-v9`"]
        );
        assert_eq!(check_document(&Json::Arr(vec![])).len(), 1);
        let bare = obj!((); schema = "peakperf-profile-v1");
        let errors = check_document(&bare);
        assert_eq!(errors[0], "profile document: missing key `generated_by`");
    }
}
