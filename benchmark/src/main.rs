//! `repmem-benchmark` — see `benchmark/README.md`.
//!
//! ```text
//! repmem-benchmark [--seed S] [--seconds T] [--smoke] [--check-repeat]
//!     every workload, each in a child process
//! repmem-benchmark --workload NAME --seed S --seconds T --trace 0|1
//!     one workload; the last stdout line is the result object
//! ```

use repmem_benchmark::host::pin_to_first_cpu;
use repmem_benchmark::inputs::Workload;
use repmem_benchmark::measure::{end_to_end, per_layer, RunCfg};
use repmem_benchmark::report::{check_repeat, emit_run, out_dir, run_all, SetCfg};
use std::process::ExitCode;

/// Timed seconds of one run when `--seconds` is not given; equal to
/// `run_seconds` in `/BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    trace: bool,
    check_repeat: bool,
    set: SetCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: false,
        check_repeat: false,
        set: SetCfg {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            flip_expected: false,
        },
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.set.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.set.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.set.seconds > 0.0 && args.set.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.set.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--flip-expected" => args.set.flip_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    // Before anything can spawn a thread.
    let pin = pin_to_first_cpu().map_err(|e| format!("refusing to report unpinned: {e}"))?;
    let w = Workload::by_name(name).ok_or(format!("no workload named {name}"))?;
    if w.callers() > pin.allowed.len() {
        return Err(format!(
            "refusing to report: {} caller threads but the host allows {} CPU(s)",
            w.callers(),
            pin.allowed.len()
        ));
    }
    let set = &args.set;
    let cfg = RunCfg::new(set.seed, set.seconds, set.smoke, set.flip_expected);
    let dir = out_dir()?;
    let outcome = if args.trace {
        per_layer(&w, &cfg, &dir)?
    } else {
        end_to_end(&w, &cfg)?
    };
    emit_run(&w, &cfg, args.trace, &pin, &outcome, &dir)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None if args.check_repeat => check_repeat(&args.set),
        None => run_all(&args.set),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repmem-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
