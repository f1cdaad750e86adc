//! `stackbench compare A.json B.json`: two sets of runs, judged by the
//! bounds `BENCHMARK.json` fixes. One row per declared workload ×
//! end-to-end metric, plus a `failed_share` row per workload; exits
//! nonzero when any row is `worse` or `missing`.

use crate::json::Json;
use crate::stats::{iqr_share, median};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Per-layer counts that must repeat exactly for the same workload and
/// seed; a claim may rest on them only when they do.
const EXACT_COUNTERS: [&str; 5] = [
    "exec.considerations",
    "exec.executions",
    "events.appended",
    "rules.rules_checked",
    "calculus.ts_probes",
];

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one set holds for one workload.
#[derive(Default)]
struct Runs {
    /// Metric → values over the end-to-end runs that were correct. An
    /// incorrect run measured a system that was not working; its numbers
    /// are not taken, its failures are.
    metrics: BTreeMap<String, Vec<f64>>,
    end_to_end: usize,
    /// Seed → exact counters of that seed's traced run.
    counts: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    attempted: f64,
    failed: f64,
    /// Runs that did not say `"correct": true`.
    incorrect: usize,
}

impl Runs {
    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

fn by_workload(set: &Json) -> BTreeMap<String, Runs> {
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for run in set.get("runs").map_or(&[][..], Json::as_arr) {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let runs = out.entry(workload.into()).or_default();
        let num = |key: &str| run.get(key).and_then(Json::as_f64);
        let correct = run.get("correct") == Some(&Json::Bool(true));
        runs.attempted += num("attempted").unwrap_or(0.0);
        runs.failed += num("failed").unwrap_or(0.0);
        runs.incorrect += usize::from(!correct);
        let metrics = run.get("metrics").map_or(&[][..], Json::as_obj);
        let value = |metric: &Json| metric.get("value").and_then(Json::as_f64);
        if num("trace") == Some(1.0) {
            let counts = EXACT_COUNTERS
                .iter()
                .filter_map(|&name| {
                    let (_, metric) = metrics.iter().find(|(n, _)| n == name)?;
                    Some((name, value(metric)?))
                })
                .collect();
            runs.counts
                .insert(num("seed").unwrap_or(0.0) as u64, counts);
        } else {
            runs.end_to_end += 1;
            for (name, metric) in metrics.iter().filter(|_| correct) {
                if let Some(v) = value(metric) {
                    runs.metrics.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    out
}

fn row(workload: &str, name: &str, a: &str, b: &str, rest: &str) {
    println!("{workload:<16} {name:<26} {a:>12} {b:>12}  {rest}");
}

/// Prints the rows for sets `a` and `b` under `spec` (a parsed
/// `BENCHMARK.json`); returns whether no row is `worse` or `missing`.
pub fn compare(spec: &Json, set_a: &Json, set_b: &Json) -> bool {
    let (sets_a, sets_b) = (by_workload(set_a), by_workload(set_b));
    let empty = Runs::default();
    let mut clean = true;
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr"
    );
    let named = |key: &str| {
        spec.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|item| Some((item.get("name")?.as_str()?, item)))
    };
    for (workload, _) in named("workloads") {
        let a = sets_a.get(workload).unwrap_or(&empty);
        let b = sets_b.get(workload).unwrap_or(&empty);
        // a declared workload neither set ran; one that a single set ran
        // shows up below, metric by metric and seed by seed
        if a.end_to_end.max(b.end_to_end) + a.counts.len().max(b.counts.len()) == 0 {
            clean = false;
            row(workload, "(any run)", "none", "none", "missing");
            continue;
        }

        // failed_share: any increase is a regression
        let share = |r: &Runs| format!("{:.3e}", r.failed_share());
        let verdict = if b.failed_share() > a.failed_share() || b.incorrect > 0 {
            clean = false;
            "worse"
        } else if b.failed_share() < a.failed_share() || a.incorrect > 0 {
            "better"
        } else {
            "within"
        };
        let incorrect = format!(
            "{} / {} runs incorrect  {verdict}",
            a.incorrect, b.incorrect
        );
        row(workload, "failed_share", &share(a), &share(b), &incorrect);

        for (name, metric) in named("end_to_end").filter(|_| a.end_to_end + b.end_to_end > 0) {
            let better = metric.get("better").and_then(Json::as_str);
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (a.metrics.get(name), b.metrics.get(name)) else {
                clean = false;
                let has = |r: &Runs| r.metrics.get(name).map_or(0, Vec::len).to_string();
                row(workload, name, &has(a), &has(b), "values: missing");
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            // positive = B is worse than A, as a share of A
            let worsening = if better == Some("higher") {
                ma - mb
            } else {
                mb - ma
            } / ma.abs();
            let (spread_a, spread_b) = (iqr_share(va), iqr_share(vb));
            let verdict = if [spread_a, spread_b].iter().flatten().any(|&s| s > bound) {
                "unresolved"
            } else if worsening > bound {
                clean = false;
                "worse"
            } else if worsening < -bound {
                "better"
            } else {
                "within"
            };
            let pct = |s: Option<f64>| s.map_or("n<2".into(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{workload:<16} {name:<26} {ma:>12.5} {mb:>12.5} {:>+7.1}% {:>7} {:>7}  {verdict}",
                (mb - ma) / ma.abs() * 100.0,
                pct(spread_a),
                pct(spread_b),
            );
        }

        // traced runs pair up by seed; a count that differs is reported,
        // not judged (a change may do less work on purpose)
        let seeds: BTreeSet<u64> = a.counts.keys().chain(b.counts.keys()).copied().collect();
        for seed in seeds {
            let (Some(ca), Some(cb)) = (a.counts.get(&seed), b.counts.get(&seed)) else {
                clean = false;
                let has = |r: &Runs| match r.counts.contains_key(&seed) {
                    true => "1 run",
                    false => "none",
                };
                let note = format!("seed {seed}: missing");
                row(workload, "(traced run)", has(a), has(b), &note);
                continue;
            };
            for name in EXACT_COUNTERS {
                let shown = |c: Option<&f64>| c.map_or("none".into(), f64::to_string);
                let (x, y) = (ca.get(name), cb.get(name));
                let note = match (x, y) {
                    (Some(x), Some(y)) if x == y => continue,
                    (Some(_), Some(_)) => "count differs",
                    _ => {
                        clean = false;
                        "missing"
                    }
                };
                let note = format!("seed {seed}: {note}");
                row(workload, name, &shown(x), &shown(y), &note);
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An end-to-end run of workload `w` with one metric.
    fn run(events_per_s: f64, failed: f64) -> Json {
        Json::obj([
            ("workload", Json::str("w")),
            ("trace", Json::Num(0.0)),
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj([(
                    "events_per_s",
                    Json::obj([("value", Json::Num(events_per_s))]),
                )]),
            ),
        ])
    }

    fn traced(seed: f64, probes: f64) -> Json {
        let count = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([
            ("workload", Json::str("w")),
            ("trace", Json::Num(1.0)),
            ("seed", Json::Num(seed)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj(EXACT_COUNTERS.map(|name| {
                    let v = if name == "calculus.ts_probes" {
                        probes
                    } else {
                        7.0
                    };
                    (name, count(v))
                })),
            ),
        ])
    }

    fn set(runs: Vec<Json>) -> Json {
        Json::obj([("runs", Json::Arr(runs))])
    }

    fn clean(a: Vec<Json>, b: Vec<Json>) -> bool {
        let spec = Json::obj([
            (
                "workloads",
                Json::Arr(vec![Json::obj([("name", Json::str("w"))])]),
            ),
            (
                "end_to_end",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("events_per_s")),
                    ("better", Json::str("higher")),
                    ("bound", Json::Num(0.1)),
                ])]),
            ),
        ]);
        compare(&spec, &set(a), &set(b))
    }

    fn runs(values: &[f64]) -> Vec<Json> {
        values.iter().map(|&v| run(v, 0.0)).collect()
    }

    #[test]
    fn only_a_drop_beyond_the_bound_fails() {
        let base = [100.0, 101.0, 99.0];
        assert!(clean(runs(&base), runs(&[95.0, 96.0, 94.0])));
        assert!(!clean(runs(&base), runs(&[85.0, 86.0, 84.0])));
        // a set noisier than the bound cannot convict
        assert!(clean(
            runs(&[100.0, 140.0, 60.0]),
            runs(&[85.0, 86.0, 84.0])
        ));
    }

    #[test]
    fn a_missing_workload_or_metric_is_not_clean() {
        let base = [100.0, 101.0, 99.0];
        assert!(!clean(runs(&base), vec![]));
        assert!(!clean(vec![], runs(&base)));
        assert!(!clean(vec![], vec![]));
        let mut other = run(100.0, 0.0);
        if let Json::Obj(fields) = &mut other {
            fields.retain(|(k, _)| k != "metrics");
        }
        assert!(!clean(runs(&base), vec![other]));
    }

    #[test]
    fn any_increase_in_failures_is_worse() {
        let base = [100.0, 101.0, 99.0];
        let mut b = runs(&base);
        b.push(run(100.0, 1.0));
        assert!(!clean(runs(&base), b.clone()));
        // fewer failures than the parent is not a regression
        assert!(clean(b, runs(&base)));
        // a run that does not say it was correct counts as incorrect
        let mut silent = run(100.0, 0.0);
        if let Json::Obj(fields) = &mut silent {
            fields.retain(|(k, _)| k != "correct");
        }
        assert!(!clean(runs(&base), vec![silent]));
    }

    #[test]
    fn traced_runs_pair_by_seed() {
        // a differing count is reported, not judged
        assert!(clean(vec![traced(1.0, 50.0)], vec![traced(1.0, 40.0)]));
        assert!(!clean(vec![traced(1.0, 50.0)], vec![traced(2.0, 50.0)]));
        assert!(!clean(
            vec![traced(1.0, 50.0), traced(2.0, 50.0)],
            vec![traced(1.0, 50.0)]
        ));
    }
}
