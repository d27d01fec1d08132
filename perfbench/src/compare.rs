//! Compare mode: two result sets, one verdict per workload and metric.
//!
//! Each side is a `results.jsonl` the benchmark appended to (its untraced,
//! correct runs are used, in file order). Runs pair up by position, so
//! alternate parent and change runs when collecting them. For every
//! end-to-end metric `BENCHMARK.json` lists:
//!
//! * `improved` — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and its median beats the parent's by more
//!   than the parent's interquartile range;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `unresolved` — either side's interquartile range, as a share of its
//!   median, exceeds the bound, and the runs do not separate completely;
//! * `unchanged` — none of these.

use crate::measure::{median, quartiles};
use std::collections::BTreeMap;
use vcgp_stress::json::{self, Value};

struct MetricSpec {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs: Runs = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let traced = v
            .get("provenance")
            .and_then(|p| p.get("trace"))
            .and_then(Value::as_f64);
        if v.get("correct") != Some(&Value::Bool(true)) || traced != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let mut metrics = BTreeMap::new();
        if let Some(Value::Object(members)) = v.get("metrics") {
            for (name, m) in members {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        runs.entry(workload).or_default().push(metrics);
    }
    Ok(runs)
}

fn load_spec(path: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Array(items)) = v.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    items
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The verdict for one metric of one workload.
fn verdict(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (&'static str, usize) {
    // `better(a, b)`: a reads better than b.
    let better = |a: f64, b: f64| if spec.higher_is_better { a > b } else { a < b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let pairs = parent.len().min(change.len());
    let (mp, mc) = (median(parent), median(change));
    let iqr = |v: &[f64]| quartiles(v).map_or(f64::INFINITY, |q| q[2] - q[0]);
    let spread = |v: &[f64], m: f64| iqr(v) / m.abs().max(f64::MIN_POSITIVE);
    let separated = |a: &[f64], b: &[f64]| a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let noisy = spread(parent, mp) > spec.bound || spread(change, mc) > spec.bound;
    let worse_by = if spec.higher_is_better {
        (mp - mc) / mp
    } else {
        (mc - mp) / mp
    };
    let v = if wins * 10 >= pairs * 9
        && better(mc, mp)
        && (mc - mp).abs() > iqr(parent)
        && (!noisy || separated(change, parent))
    {
        "improved"
    } else if noisy && !separated(parent, change) {
        "unresolved"
    } else if worse_by > spec.bound {
        "regressed"
    } else {
        "unchanged"
    };
    (v, wins)
}

fn fmt_side(v: &[f64]) -> String {
    match quartiles(v) {
        Some(q) => format!("{:.4} [{:.4}, {:.4}]", median(v), q[0], q[2]),
        None => format!("{:.4}", median(v)),
    }
}

pub fn run(args: &[String]) -> Result<i32, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [parent_path, change_path] = files.as_slice() else {
        return Err(
            "usage: perfbench compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]"
                .to_string(),
        );
    };
    let spec = load_spec(&spec_path)?;
    let (parent, change) = (load_runs(parent_path)?, load_runs(change_path)?);
    println!("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change wins | verdict |");
    println!("|---|---|---|---|---|---|");
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!(
                "| {workload} | – | {} runs | no runs | – | missing |",
                p_runs.len()
            );
            continue;
        };
        for m in &spec {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, wins) = verdict(m, &p, &c);
            let pairs = p.len().min(c.len());
            println!(
                "| {workload} | {} | {} | {} | {wins}/{pairs} | {v} |",
                m.name,
                fmt_side(&p),
                fmt_side(&c)
            );
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            higher_is_better: higher,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&spec(false), &parent, &faster).0, "improved");
        assert_eq!(verdict(&spec(true), &parent, &faster).0, "regressed");
        assert_eq!(verdict(&spec(false), &parent, &parent).0, "unchanged");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&spec(false), &parent, &noisy).0, "unresolved");
    }
}
