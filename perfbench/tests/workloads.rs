//! Every workload at a tiny size on two seeds, untraced and traced: the
//! oracles pass, and every metric `BENCHMARK.json` lists is emitted with
//! its unit.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;
use vcgp_stress::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

/// Runs are timing-sensitive (the open loop checks its own lag), so the
/// tests take turns instead of sharing the cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn spec_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn spec() -> Value {
    json::parse(&std::fs::read_to_string(spec_path()).expect("BENCHMARK.json")).expect("valid JSON")
}

fn list(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = v.get(key) else {
        panic!("no {key} list")
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (
                field("name"),
                field(if key == "workloads" { "why" } else { "unit" }),
            )
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn bench(args: &[&str], out: &PathBuf) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out)
        .env_remove("VCGP_WORKERS")
        .env_remove("VCGP_THREADS")
        .env_remove("VCGP_PARTITIONING")
        .env_remove("VCGP_STEAL_CHUNK")
        .output()
        .expect("run perfbench")
}

fn last_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).expect("the result line is JSON")
}

fn check_workload(workload: &str) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec();
    let out = out_dir(workload);
    for seed in ["3", "4"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--size",
                "tiny",
            ];
            let run = bench(&args, &out);
            let result = last_line(&run);
            assert!(
                run.status.success(),
                "{workload} seed {seed} trace {trace} failed: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("no metrics")
            };
            let expected = list(&spec, key);
            let got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            let names: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(got, names, "{workload}: metric names of {key}");
            for (name, unit) in expected {
                let m = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&name))
                    .expect("metric");
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite() && v >= -1.0, "{workload} {name} = {v}");
                if key == "end_to_end" {
                    assert!(v > 0.0, "{workload} {name} is never 0, got {v}");
                }
            }
        }
    }
}

/// `point_lookups`, `batch_jobs` and `live_writes` run and are tested
/// here, but are not gated: on a shared VM their numbers move with the
/// hypervisor's steal by more than any allowed bound (see README.md).
#[test]
fn benchmark_gates_the_steady_workloads() {
    let names: Vec<String> = list(&spec(), "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        names,
        ["analytics_whole", "analytics_scatter", "live_writes_closed"]
    );
}

#[test]
fn point_lookups() {
    check_workload("point_lookups");
}

#[test]
fn analytics_whole() {
    check_workload("analytics_whole");
}

#[test]
fn analytics_scatter() {
    check_workload("analytics_scatter");
}

#[test]
fn batch_jobs() {
    check_workload("batch_jobs");
}

#[test]
fn live_writes() {
    check_workload("live_writes");
}

#[test]
fn live_writes_closed() {
    check_workload("live_writes_closed");
}

#[test]
fn refuses_vcgp_overrides() {
    let out = out_dir("refuse");
    let run = Command::new(BIN)
        .args([
            "--workload",
            "batch_jobs",
            "--seed",
            "1",
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--size",
            "tiny",
        ])
        .arg("--out")
        .arg(&out)
        .env("VCGP_WORKERS", "4")
        .output()
        .expect("run perfbench");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty(), "no result is printed");
}

#[test]
fn compare_reads_two_result_sets() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = (out_dir("cmp-a"), out_dir("cmp-b"));
    for (dir, seed) in [(&a, "5"), (&b, "6")] {
        let _ = std::fs::remove_file(dir.join("results.jsonl"));
        let args = [
            "--workload",
            "analytics_whole",
            "--seed",
            seed,
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--size",
            "tiny",
        ];
        assert!(bench(&args, dir).status.success());
    }
    let run = Command::new(BIN)
        .arg("compare")
        .arg(a.join("results.jsonl"))
        .arg(b.join("results.jsonl"))
        .arg("--spec")
        .arg(spec_path())
        .output()
        .expect("run compare");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let table = String::from_utf8_lossy(&run.stdout);
    for (name, _) in list(&spec(), "end_to_end") {
        assert!(
            table.contains(&format!("| analytics_whole | {name} |")),
            "{table}"
        );
    }
}
