//! The repository benchmark. See README.md for the workloads, the metrics
//! and how to run it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size tiny] [--out DIR]
//! perfbench compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). Each run also
//! appends its full record, provenance included, to `DIR/results.jsonl`,
//! and a traced run writes its spans to `DIR/trace-WORKLOAD-SEED.csv`.

mod compare;
mod measure;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use workloads::{Metric, Params, WORKLOADS};

fn main() {
    std::process::exit(match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            2
        }
    });
}

fn run(args: Vec<String>) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    // The benchmark measures the program's defaults; these variables
    // change them (worker count, placement, thread count, stealing).
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("VCGP_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: unset it to measure the defaults",
            set.join(", ")
        ));
    }

    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut out = PathBuf::from(".bench_out");
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                params.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let kind = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, k)| k)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;

    let outcome = workloads::run(kind, &params);
    let correct = outcome.failures.is_empty();
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let provenance = json_object(&[
        ("workload", json_str(&name)),
        ("seed", params.seed.to_string()),
        ("seconds", json_num(params.seconds)),
        ("trace", u8::from(params.trace).to_string()),
        ("size", json_str(if params.tiny { "tiny" } else { "full" })),
        ("nproc", measure::nproc().to_string()),
        ("cpu_model", json_str(&measure::cpu_model())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_commit", json_str(env!("PERFBENCH_COMMIT"))),
        (
            "offered_rate_ops_s",
            if kind == workloads::Kind::LiveWrites {
                json_num(workloads::LIVE_RATE)
            } else {
                "null".to_string()
            },
        ),
    ]);
    let info: Vec<(&str, String)> = outcome
        .info
        .iter()
        .map(|(k, v)| (*k, json_str(v)))
        .collect();
    println!(
        "{{\"provenance\": {provenance}, \"info\": {}}}",
        json_object(&info)
    );

    // A run that fails a check reports no metrics.
    let shown: &[Metric] = match (correct, params.trace) {
        (false, _) => &[],
        (true, false) => &outcome.e2e,
        (true, true) => &outcome.layers,
    };
    let metrics = metrics_json(shown);

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if params.trace {
        let path = out.join(format!("trace-{name}-{}.csv", params.seed));
        trace::write(&path, &outcome.spans, outcome.trace_overhead_frac)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    let record = json_object(&[
        ("workload", json_str(&name)),
        ("correct", correct.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("failures", format!("[{}]", failures.join(", "))),
        ("metrics", metrics.clone()),
        ("info", json_object(&info)),
        ("provenance", provenance),
    ]);
    let path = out.join("results.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{record}"))
        .map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    Ok(if correct { 0 } else { 1 })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(m.value),
                    json_str(m.unit)
                ),
            )
        })
        .collect();
    json_object(&fields)
}

fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number in full precision (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
