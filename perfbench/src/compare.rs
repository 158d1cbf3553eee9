//! `benchmark --compare BASE.jsonl NEW.jsonl`: judges every end-to-end
//! metric on every workload against the bounds in `BENCHMARK.json`.
//!
//! Each file holds result lines from full runs (one line per workload,
//! any number of runs). A metric is *worse* when the new median is worse
//! than the base median by more than its bound, *better* when it improves
//! by more than the bound, and *same* otherwise, except that it is
//! *unresolved* when the base runs' own spread (interquartile range over
//! median) is wider than the bound, unless every new run beats every base
//! run.

use crate::json::{self, Json};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without 'better'")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), higher_is_better: better == "higher", bound })
        })
        .collect()
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) → values` from result lines that name a workload.
fn samples(text: &str) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| l.trim_start().starts_with('{')) {
        let row = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let Some(workload) = row.get("workload").and_then(Json::as_str) else { continue };
        for (metric, v) in row.get("metrics").map(Json::entries).unwrap_or_default() {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), metric.clone())).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Judges one metric. Returns the verdict and how much worse the new
/// median is, as a share of the base median (negative: better).
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (b, n) = (median(base), median(new));
    let worse_by = if b == 0.0 {
        0.0
    } else if higher_is_better {
        (b - n) / b.abs()
    } else {
        (n - b) / b.abs()
    };
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let verdict = if spread(base) > bound {
        if new.iter().all(|&x| base.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// Compares two result files; returns the report and the exit code (1 when
/// any metric is worse than its bound).
pub fn run(benchmark_json: &str, base: &str, new: &str) -> Result<(String, i32), String> {
    let bounds = bounds(benchmark_json)?;
    let (base, new) = (samples(base)?, samples(new)?);
    let mut report = String::new();
    let mut first_worse = None;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = base.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for b in &bounds {
            let key = (workload.clone(), b.name.clone());
            let (Some(bv), Some(nv)) = (base.get(&key), new.get(&key)) else {
                report += &format!("{workload:<11} {:<24} missing from one side\n", b.name);
                continue;
            };
            let (verdict, worse_by) = judge(bv, nv, b.higher_is_better, b.bound);
            report += &format!(
                "{workload:<11} {:<24} base {:>12.4} new {:>12.4} worse by {:>+7.2}% (bound {:.0}%, spread {:.2}%)  {verdict:?}\n",
                b.name,
                median(bv),
                median(nv),
                worse_by * 100.0,
                b.bound * 100.0,
                spread(bv) * 100.0,
            );
            if verdict == Verdict::Worse && first_worse.is_none() {
                first_worse = Some(format!(
                    "{workload} {}: worse by {:.2}%, beyond its bound of {:.0}%",
                    b.name,
                    worse_by * 100.0,
                    b.bound * 100.0
                ));
            }
        }
    }
    Ok(match first_worse {
        Some(w) => (report + &format!("REGRESSION: {w}\n"), 1),
        None => (report, 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.1},
        {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#;

    fn row(workload: &str, txn_per_s: f64, p50: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\
             \"txn_per_s\":{{\"value\":{txn_per_s},\"unit\":\"txn/s\"}},\"p50_us\":{{\"value\":{p50},\"unit\":\"us\"}}}}}}\n"
        )
    }

    fn rows(workload: &str, txn_per_s: &[f64], p50: f64) -> String {
        txn_per_s.iter().map(|&t| row(workload, t, p50)).collect()
    }

    #[test]
    fn same_code_within_noise_passes() {
        let base = rows("session", &[1000.0, 1010.0, 990.0, 1005.0, 995.0], 200.0);
        let new = rows("session", &[1003.0, 998.0, 1012.0, 992.0, 1001.0], 203.0);
        let (report, code) = run(BENCH, &base, &new).unwrap();
        assert_eq!(code, 0, "{report}");
        assert_eq!(report.matches("Same").count(), 2, "{report}");
    }

    #[test]
    fn a_regressed_row_fails_and_is_named() {
        let base = rows("session", &[1000.0, 1010.0, 990.0, 1005.0, 995.0], 200.0)
            + &rows("fleet", &[100.0; 5], 9000.0);
        let new = rows("session", &[1000.0; 5], 200.0) + &rows("fleet", &[100.0; 5], 10_500.0);
        let (report, code) = run(BENCH, &base, &new).unwrap();
        assert_eq!(code, 1, "{report}");
        assert!(report.contains("REGRESSION: fleet p50_us"), "{report}");
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&steady, &[120.0; 5], true, 0.1).0, Verdict::Better);
        assert_eq!(judge(&steady, &[85.0; 5], true, 0.1).0, Verdict::Worse);
        assert_eq!(judge(&steady, &[95.0; 5], true, 0.1).0, Verdict::Same);
        assert_eq!(judge(&steady, &[115.0; 5], false, 0.1).0, Verdict::Worse);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&noisy, &[80.0; 5], true, 0.1).0, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[150.0; 5], true, 0.1).0, Verdict::Better);
    }

    #[test]
    fn the_repository_bounds_parse() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let b = bounds(&text).unwrap();
        let names: Vec<&str> = b.iter().map(|b| b.name.as_str()).collect();
        let catalog: Vec<&str> = crate::metrics::END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, catalog);
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
