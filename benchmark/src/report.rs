//! Output: the per-run table and JSON, the contract line the driver
//! reads, and the all-workloads modes that run each workload in a child
//! process (so that peak RSS and thread state are per workload).

use crate::host::{fingerprint, Pinning};
use crate::inputs::{Workload, WORKLOADS};
use crate::json::Json;
use crate::measure::{Measured, Outcome, RunCfg, OPEN_LOOP_RATE, REPS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where reports and traces go: `benchmark/out/` whether the command
/// runs from the repository root or from the package directory.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn distribution(m: &Measured) -> Json {
    let [q1, q2, q3] = quartiles(&m.samples);
    let fold = |f: fn(f64, f64) -> f64| m.samples.iter().copied().reduce(f).expect("non-empty");
    Json::obj([
        ("unit", Json::from(m.unit)),
        ("value", Json::from(m.value)),
        ("min", Json::from(fold(f64::min))),
        ("q1", Json::from(q1)),
        ("median", Json::from(q2)),
        ("q3", Json::from(q3)),
        ("max", Json::from(fold(f64::max))),
        (
            "samples",
            Json::Arr(m.samples.iter().map(|&v| Json::from(v)).collect()),
        ),
    ])
}

fn detail_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("run-{workload}-trace{}.json", trace as u8))
}

/// Print one run's metrics by name with unit, write the detailed JSON
/// beside the traces, and print the contract line last.
pub fn emit_run(
    w: &Workload,
    cfg: &RunCfg,
    trace: bool,
    pin: &Pinning,
    outcome: &Outcome,
    dir: &Path,
) -> Result<(), String> {
    println!(
        "{} (seed {}, {} s timed, {}): {}",
        w.name,
        cfg.seed,
        cfg.seconds,
        if trace {
            "trace pair + single-layer legs".to_string()
        } else {
            format!("{} reps, {} callers", cfg.reps, w.callers())
        },
        w.why
    );
    for m in &outcome.metrics {
        let [q1, _, q3] = quartiles(&m.samples);
        println!(
            "  {:<32} {:>14.4} {:<9} (q1 {:.4}, q3 {:.4}, n={})",
            m.name,
            m.value,
            m.unit,
            q1,
            q3,
            m.samples.len()
        );
    }
    let detail = Json::obj([
        ("workload", Json::from(w.name)),
        ("why", Json::from(w.why)),
        ("trace", Json::from(trace)),
        ("seed", Json::from(cfg.seed as f64)),
        ("seconds", Json::from(cfg.seconds)),
        ("reps", Json::from(cfg.reps as f64)),
        ("rep_seconds", Json::from(cfg.seconds / cfg.reps as f64)),
        ("callers", Json::from(w.callers() as f64)),
        (
            "records",
            Json::from(cfg.records.unwrap_or(w.records) as f64),
        ),
        ("host", fingerprint(pin)),
        ("attempted", Json::from(outcome.attempted as f64)),
        ("failed", Json::from(outcome.failed as f64)),
        (
            "latency_samples_per_rep",
            Json::Arr(
                outcome
                    .latency_samples
                    .iter()
                    .map(|&n| Json::from(n as f64))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| (m.name, distribution(m)))),
        ),
    ]);
    let path = detail_path(dir, w.name, trace);
    std::fs::write(&path, detail.pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // The contract line: exactly the metrics /BENCHMARK.json lists for
    // this mode. Per-layer metrics that do not exist on this workload
    // read 0 there (and are absent everywhere else).
    let value_of = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let listed: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| !m.can_be_zero)
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(outcome.attempted as f64)),
        ("failed", Json::from(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(listed.into_iter().map(|(name, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::from(value_of(name))),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(())
}

/// The flags every mode shares; the all-workloads modes pass them down
/// to every child.
pub struct SetCfg {
    /// Seed.
    pub seed: u64,
    /// Timed seconds per run.
    pub seconds: f64,
    /// Smoke sizes.
    pub smoke: bool,
    /// Corrupt the reference model (self-test of the output check).
    pub flip_expected: bool,
}

/// Run one workload in a child process and read its detailed JSON.
fn run_child(set: &SetCfg, w: &Workload, trace: bool, dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &set.seed.to_string()])
        .args(["--seconds", &set.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if set.smoke {
        cmd.arg("--smoke");
    }
    if set.flip_expected {
        cmd.arg("--flip-expected");
    }
    let path = detail_path(dir, w.name, trace);
    let _ = std::fs::remove_file(&path);
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) failed: {status}",
            w.name, trace as u8
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, end to end and per layer; prints the children's
/// tables as they go and writes `report.json`.
pub fn run_all(set: &SetCfg) -> Result<(), String> {
    let dir = out_dir()?;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let end_to_end = run_child(set, w, false, &dir)?;
        println!();
        let per_layer = run_child(set, w, true, &dir)?;
        println!();
        workloads.push((
            w.name,
            Json::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let report = Json::obj([
        ("benchmark", Json::from("repmem-benchmark")),
        ("seed", Json::from(set.seed as f64)),
        ("seconds_per_run", Json::from(set.seconds)),
        (
            "reps",
            Json::from(if set.smoke { 1.0 } else { REPS as f64 }),
        ),
        ("smoke", Json::from(set.smoke)),
        ("open_loop_rate_per_s", Json::from(OPEN_LOOP_RATE)),
        (
            "end_to_end_metrics",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.word())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer_metrics",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.word())),
                            ("moves", Json::from(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    let path = dir.join("report.json");
    std::fs::write(&path, report.pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// The A/A check: the end-to-end set twice on the same build. Prints,
/// per workload and metric, both medians, their relative difference and
/// the bound; fails if any pair disagrees by more than its bound.
pub fn check_repeat(set: &SetCfg) -> Result<(), String> {
    let dir = out_dir()?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut runs = Vec::new();
        for w in &WORKLOADS {
            runs.push(run_child(set, w, false, &dir)?);
            println!();
        }
        sets.push(runs);
    }
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut rows = Vec::new();
    let mut disagreements = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let median = |set: &Vec<Json>| {
                metric_value(&set[i], m.name)
                    .ok_or_else(|| format!("{}: no {} in the child's report", w.name, m.name))
            };
            let (first, second) = (median(&sets[0])?, median(&sets[1])?);
            // A metric that can be zero has no median to take a share
            // of: compare it absolutely.
            let diff = if m.can_be_zero && first == 0.0 {
                (second - first).abs()
            } else {
                (second - first).abs() / first.abs()
            };
            let agrees = diff <= m.bound;
            disagreements += !agrees as u32;
            println!(
                "{:<20} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                first,
                second,
                diff * 100.0,
                m.bound * 100.0,
                if agrees { "ok" } else { "DISAGREE" }
            );
            rows.push(Json::obj([
                ("workload", Json::from(w.name)),
                ("metric", Json::from(m.name)),
                ("first", Json::from(first)),
                ("second", Json::from(second)),
                ("diff", Json::from(diff)),
                ("bound", Json::from(m.bound)),
                ("agrees", Json::from(agrees)),
            ]));
        }
    }
    let path = dir.join("check-repeat.json");
    let doc = Json::obj([("pairs", Json::Arr(rows)), ("claim", Json::Null)]);
    std::fs::write(&path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} of {} cells disagree by more than their bound",
            WORKLOADS.len() * END_TO_END.len()
        ));
    }
    Ok(())
}
