//! `agree <a.json> <b.json>`: do two result documents of one commit say
//! the same thing? Exact metrics must be identical; end-to-end metrics
//! must lie within the bound `BENCHMARK.json` gives them, in either
//! direction; per-layer host times carry no bound and are listed only.

use std::path::Path;

use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Agree,
    /// Within the bound, but one of the two documents spreads wider than
    /// the bound, so "unchanged" is not a claim the numbers support.
    Unresolved,
    Disagree,
    /// No bound and not exact: shown for the reader.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Disagree => "DISAGREE",
            Verdict::Info => "-",
        }
    }
}

/// How a metric is to be compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    Exact,
    Bounded(f64),
    Unbounded,
}

/// Relative difference of `b` from `a`, with `a` as the base.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a).abs() / a.abs()
    }
}

pub fn compare(rule: Rule, a: &Summary, b: &Summary) -> Verdict {
    match rule {
        Rule::Exact if a.median == b.median => Verdict::Agree,
        Rule::Exact => Verdict::Disagree,
        Rule::Unbounded => Verdict::Info,
        Rule::Bounded(bound) => {
            if relative_difference(a.median, b.median) > bound {
                Verdict::Disagree
            } else if a.spread().max(b.spread()) > bound {
                Verdict::Unresolved
            } else {
                Verdict::Agree
            }
        }
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let value = metric.get("value")?.as_f64()?;
    let field = |key: &str| metric.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Summary {
        median: value,
        q1: field("q1"),
        q3: field("q3"),
        n: field("n") as usize,
    })
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
pub fn bounds_of(spec: &Json) -> Result<Vec<(String, f64)>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_owned(), bound))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_owned())
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub rule: Rule,
    pub verdict: Verdict,
}

/// One row per workload × metric present in either document. A workload
/// or a comparable metric that only one document has is a disagreement.
pub fn compare_documents(a: &Json, b: &Json, bounds: &[(String, f64)]) -> Result<Vec<Row>, String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "document has no `workloads` object".to_owned())
    };
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    let missing = |workload: &str, metric: &str| Row {
        workload: workload.to_owned(),
        metric: metric.to_owned(),
        a: f64::NAN,
        b: f64::NAN,
        rule: Rule::Exact,
        verdict: Verdict::Disagree,
    };
    for (name, _) in in_b
        .iter()
        .filter(|(n, _)| !in_a.iter().any(|(m, _)| m == n))
    {
        rows.push(missing(name, "(workload missing from first document)"));
    }
    for (name, result_a) in &in_a {
        let Some((_, result_b)) = in_b.iter().find(|(n, _)| n == name) else {
            rows.push(missing(name, "(workload missing from second document)"));
            continue;
        };
        let metrics = |result: &Json| {
            result
                .get("metrics")
                .and_then(Json::as_obj)
                .map(<[_]>::to_vec)
        };
        let (Some(metrics_a), Some(metrics_b)) = (metrics(result_a), metrics(result_b)) else {
            return Err(format!("workload `{name}` has no `metrics` object"));
        };
        for (metric, entry_a) in &metrics_a {
            let rule = if let Some((_, bound)) = bounds.iter().find(|(n, _)| n == metric) {
                Rule::Bounded(*bound)
            } else if entry_a.get("exact").and_then(Json::as_bool) == Some(true) {
                Rule::Exact
            } else {
                Rule::Unbounded
            };
            let entry_b = metrics_b.iter().find(|(n, _)| n == metric).map(|(_, e)| e);
            match (summary_of(entry_a), entry_b.and_then(summary_of)) {
                (Some(sa), Some(sb)) => rows.push(Row {
                    workload: name.clone(),
                    metric: metric.clone(),
                    a: sa.median,
                    b: sb.median,
                    rule,
                    verdict: compare(rule, &sa, &sb),
                }),
                _ if rule == Rule::Unbounded => {}
                _ => rows.push(missing(name, metric)),
            }
        }
        for (metric, _) in metrics_b
            .iter()
            .filter(|(n, _)| !metrics_a.iter().any(|(m, _)| m == n))
        {
            rows.push(missing(name, metric));
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print one row per workload × metric; `Ok(true)` if nothing disagrees.
pub fn agree(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = bounds_of(&load(spec)?)?;
    let rows = compare_documents(&load(a)?, &load(b)?, &bounds)?;
    println!(
        "{:<12} {:<40} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff %", "bound"
    );
    for row in &rows {
        let bound = match row.rule {
            Rule::Exact => "exact".to_owned(),
            Rule::Bounded(bound) => format!("{bound}"),
            Rule::Unbounded => "-".to_owned(),
        };
        println!(
            "{:<12} {:<40} {:>16.6} {:>16.6} {:>9.2} {:>7}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            relative_difference(row.a, row.b) * 100.0,
            bound,
            row.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} agree, {} unresolved, {} disagree, {} without a bound",
        count(Verdict::Agree),
        count(Verdict::Unresolved),
        count(Verdict::Disagree),
        count(Verdict::Info)
    );
    Ok(count(Verdict::Disagree) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, q1: f64, q3: f64, exact: bool) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str("s".into())),
            ("exact", Json::Bool(exact)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(8.0)),
        ])
    }

    fn document(metrics: Vec<(&str, Json)>) -> Json {
        Json::obj([(
            "workloads",
            Json::obj([("toolchain", Json::obj([("metrics", Json::obj(metrics))]))]),
        )])
    }

    fn verdicts(a: Json, b: Json) -> Vec<(String, Verdict)> {
        let bounds = vec![("wall_s".to_owned(), 0.10)];
        compare_documents(&a, &b, &bounds)
            .unwrap()
            .into_iter()
            .map(|row| (row.metric, row.verdict))
            .collect()
    }

    #[test]
    fn bounded_metric_within_bound_and_tight_spread_agrees() {
        let a = document(vec![("wall_s", metric(2.00, 1.98, 2.03, false))]);
        let b = document(vec![("wall_s", metric(2.10, 2.08, 2.12, false))]);
        assert_eq!(verdicts(a, b), [("wall_s".to_owned(), Verdict::Agree)]);
    }

    #[test]
    fn bounded_metric_beyond_bound_disagrees_in_both_directions() {
        let slow = || document(vec![("wall_s", metric(2.30, 2.29, 2.31, false))]);
        let fast = || document(vec![("wall_s", metric(2.00, 1.99, 2.01, false))]);
        assert_eq!(verdicts(fast(), slow())[0].1, Verdict::Disagree);
        assert_eq!(verdicts(slow(), fast())[0].1, Verdict::Disagree);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = document(vec![("wall_s", metric(2.00, 1.80, 2.25, false))]);
        let b = document(vec![("wall_s", metric(2.05, 2.04, 2.06, false))]);
        assert_eq!(verdicts(a, b)[0].1, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_be_identical_and_unbounded_ones_are_listed() {
        let a = document(vec![
            ("sim.timing.cycles", metric(1000.0, 1000.0, 1000.0, true)),
            ("sass.assemble_us", metric(10.0, 10.0, 10.0, false)),
        ]);
        let b = document(vec![
            ("sim.timing.cycles", metric(1001.0, 1001.0, 1001.0, true)),
            ("sass.assemble_us", metric(30.0, 30.0, 30.0, false)),
        ]);
        assert_eq!(
            verdicts(a.clone(), b),
            [
                ("sim.timing.cycles".to_owned(), Verdict::Disagree),
                ("sass.assemble_us".to_owned(), Verdict::Info),
            ]
        );
        assert_eq!(verdicts(a.clone(), a)[0].1, Verdict::Agree);
    }

    #[test]
    fn a_metric_or_workload_in_one_document_only_disagrees() {
        let a = document(vec![("wall_s", metric(2.0, 2.0, 2.0, false))]);
        let b = document(vec![]);
        assert_eq!(verdicts(a.clone(), b)[0].1, Verdict::Disagree);
        let other = Json::obj([(
            "workloads",
            Json::obj([(
                "micro_sweep",
                Json::obj([("metrics", Json::obj(Vec::<(&str, Json)>::new()))]),
            )]),
        )]);
        let rows = verdicts(a, other);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|(_, v)| *v == Verdict::Disagree));
    }

    #[test]
    fn zero_base_is_handled() {
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
        assert!(relative_difference(0.0, 1.0).is_infinite());
    }
}
