//! Runs the benchmark binary at smoke sizes and validates what it
//! writes; checks `/BENCHMARK.json` against the metric catalogue.

use repmem_benchmark::inputs::WORKLOADS;
use repmem_benchmark::json::Json;
use repmem_benchmark::metrics::{END_TO_END, PER_LAYER};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_repmem-benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read /BENCHMARK.json"))
        .expect("parse /BENCHMARK.json")
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn names_of(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_catalogue_and_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| &k[..])
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    // The end-to-end list is the catalogue minus the metrics that can
    // be zero (the contract judges a share of the median).
    let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    let catalogue: Vec<_> = END_TO_END.iter().filter(|m| !m.can_be_zero).collect();
    assert_eq!(listed.len(), catalogue.len());
    let mut largest_bound: f64 = 0.0;
    for (l, m) in listed.iter().zip(&catalogue) {
        assert_eq!(l.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(l.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            l.get("better").and_then(Json::as_str),
            Some(m.better.word())
        );
        assert_eq!(l.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        largest_bound = largest_bound.max(m.bound);
    }
    let setup = catalogue.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert_eq!(setup.bound, largest_bound, "setup_s has the largest bound");

    let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (l, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(l.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(l.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            l.get("better").and_then(Json::as_str),
            Some(m.better.word())
        );
        assert!(m.unit.len() <= 16, "{}", m.name);
    }

    let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    all.extend(END_TO_END.iter().map(|m| m.name));
    all.extend(PER_LAYER.iter().map(|m| m.name));
    assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
    assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
}

#[test]
fn smoke_run_reports_every_metric_on_every_workload() {
    let run = Command::new(BIN)
        .args(["--smoke", "--seed", "7"])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // Every child's result line: exactly the contract's keys, and the
    // metrics /BENCHMARK.json lists for its mode.
    let doc = benchmark_json();
    let lines: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(lines.len(), 2 * WORKLOADS.len());
    for (i, line) in lines.iter().enumerate() {
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let mode = if i % 2 == 0 {
            "end_to_end"
        } else {
            "per_layer"
        };
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let reported: Vec<&str> = metrics.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(reported, names_of(doc.get(mode).unwrap()), "line {i}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} in line {i}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }

    // The report file: every end-to-end metric present and finite on
    // every workload, names well-formed, and no claim.
    let report = Json::parse(&std::fs::read_to_string("out/report.json").expect("report.json"))
        .expect("report.json parses");
    let (last_key, last_value) = report.as_obj().unwrap().last().unwrap();
    assert_eq!((&last_key[..], last_value), ("claim", &Json::Null));
    let workloads = report.get("workloads").and_then(Json::as_obj).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (name, runs) in workloads {
        assert!(valid_name(name));
        let end_to_end = runs.get("end_to_end").unwrap();
        for m in &END_TO_END {
            let value = end_to_end
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|d| d.get("value"))
                .and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {}", m.name);
        }
        let host = end_to_end.get("host").expect("host fingerprint");
        for key in ["nproc", "allowed_cpus", "pinned_cpu", "kernel", "rustc"] {
            assert!(host.get(key).is_some(), "{name}: host.{key}");
        }
        let per_layer = runs
            .get("per_layer")
            .and_then(|r| r.get("metrics"))
            .unwrap();
        for (metric, _) in per_layer.as_obj().unwrap() {
            assert!(valid_name(metric), "{metric}");
        }
        // Service-only metrics are reported for the service workload
        // and for no other.
        let has_overhead = per_layer.get("kv.svc_overhead_us").is_some();
        assert_eq!(has_overhead, name == "svc-b-berkeley", "{name}");
    }
}

#[test]
fn a_wrong_reference_model_fails_the_run() {
    let run = Command::new(BIN)
        .args([
            "--workload",
            "embed-c-writeonce",
            "--smoke",
            "--flip-expected",
        ])
        .output()
        .expect("spawn the benchmark");
    assert!(!run.status.success(), "a corrupted model must not pass");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("output check failed"), "{stderr}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(!stdout.contains("\"correct\""), "no result line on failure");
}
