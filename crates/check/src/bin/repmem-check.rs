//! Command-line driver for the schedule-exploration harness.
//!
//! ```text
//! repmem-check explore [--protocol <name|all>] [--clients N] [--objects M]
//!                      [--ops K] [--faults <palette|all>] [--depth D]
//!                      [--max-states N] [--max-execs N] [--artifact-dir DIR]
//! repmem-check sample  [same options] --seed S --walks W
//! repmem-check mutate  [--artifact-dir DIR]
//! repmem-check replay  <artifact.sched>...
//! ```
//!
//! Exit codes: `0` all checks passed (for `mutate`: every seeded bug
//! was caught), `1` a violation was found (for `mutate`: a seeded bug
//! escaped), `2` usage error.

use repmem_check::{
    exhaustive, minimize, sample, Artifact, CheckConfig, Expect, ExploreLimits, Mutation,
};
use repmem_core::{MsgKind, NodeId, ProtocolKind};
use repmem_net::FaultAction;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage("missing command"),
    };
    match command {
        "explore" | "sample" => match Options::parse(rest) {
            Ok(opts) => run_explorations(command == "sample", &opts),
            Err(e) => usage(&e),
        },
        "mutate" => match Options::parse(rest) {
            Ok(opts) => run_mutations(&opts),
            Err(e) => usage(&e),
        },
        "replay" => run_replays(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => usage(&format!("unknown command `{other}`")),
    }
}

const USAGE: &str = "\
repmem-check — schedule-exploration correctness harness

  repmem-check explore [options]          bounded-exhaustive enumeration
  repmem-check sample [options]           seeded random-walk sampling
  repmem-check mutate [options]           seeded-bug self-test (must be caught)
  repmem-check replay <file.sched>...     re-execute committed artifacts

options:
  --protocol <name|all>    protocol under check (default all)
  --clients N              client nodes (default 2)
  --objects M              shared objects (default 2)
  --ops K                  program steps per client (default 2)
  --faults <palette|all>   none | blackout | kill-client | kill-seq | all
                           (default none)
  --depth D                schedule length bound (default 64)
  --max-states N           exhaustive state cap (default 2000000)
  --max-execs N            exhaustive execution cap (default 5000000)
  --seed S                 sampling seed (default 1)
  --walks W                sampled schedules (default 2000)
  --artifact-dir DIR       write shrunk failing schedules here
";

struct Options {
    protocols: Vec<ProtocolKind>,
    clients: usize,
    objects: usize,
    ops: usize,
    palettes: Vec<&'static str>,
    depth: usize,
    limits: ExploreLimits,
    seed: u64,
    walks: u64,
    artifact_dir: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            protocols: ProtocolKind::EVERY.to_vec(),
            clients: 2,
            objects: 2,
            ops: 2,
            palettes: vec!["none"],
            depth: 64,
            limits: ExploreLimits::default(),
            seed: 1,
            walks: 2000,
            artifact_dir: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or(format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--protocol" => {
                    let v = value()?;
                    opts.protocols = if v == "all" {
                        ProtocolKind::EVERY.to_vec()
                    } else {
                        vec![ProtocolKind::EVERY
                            .into_iter()
                            .find(|k| k.name().eq_ignore_ascii_case(v))
                            .ok_or(format!("unknown protocol `{v}`"))?]
                    };
                }
                "--clients" => opts.clients = num(value()?)?,
                "--objects" => opts.objects = num(value()?)?,
                "--ops" => opts.ops = num(value()?)?,
                "--faults" => {
                    let v = value()?;
                    opts.palettes = if v == "all" {
                        PALETTES.iter().map(|(name, _)| *name).collect()
                    } else {
                        let name = PALETTES
                            .iter()
                            .map(|(name, _)| *name)
                            .find(|name| *name == v)
                            .ok_or(format!("unknown fault palette `{v}`"))?;
                        vec![name]
                    };
                }
                "--depth" => opts.depth = num(value()?)?,
                "--max-states" => opts.limits.max_states = num(value()?)?,
                "--max-execs" => opts.limits.max_execs = num(value()?)?,
                "--seed" => opts.seed = num(value()?)?,
                "--walks" => opts.walks = num(value()?)?,
                "--artifact-dir" => opts.artifact_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    fn config(&self, kind: ProtocolKind, palette: &str) -> CheckConfig {
        let mut cfg = CheckConfig::new(kind, self.clients, self.objects, self.ops);
        cfg.faults = palette_actions(palette, self.clients);
        cfg.max_depth = self.depth;
        cfg
    }
}

/// Named fault palettes. Sever palettes are balanced (every sever has
/// its restore), so quiescence — and with it the convergence check —
/// stays reachable.
const PALETTES: [(&str, &str); 5] = [
    ("none", "fault-free"),
    ("blackout", "sever client 0 <-> sequencer, restore later"),
    ("kill-client", "kill the last client"),
    ("kill-seq", "kill the sequencer"),
    ("kill-minority", "kill a strict minority of the replicas"),
];

fn palette_actions(name: &str, clients: usize) -> Vec<FaultAction> {
    let home = NodeId(clients as u16);
    match name {
        "none" => Vec::new(),
        "blackout" => vec![
            FaultAction::Sever(NodeId(0), home),
            FaultAction::Restore(NodeId(0), home),
        ],
        "kill-client" => vec![FaultAction::Kill(NodeId(clients.saturating_sub(1) as u16))],
        "kill-seq" => vec![FaultAction::Kill(home)],
        // A strict minority of the n_clients+1 replicas, sequencer
        // first: the largest kill set the quorum family must survive
        // with every operation still completing.
        "kill-minority" => {
            let n_nodes = clients + 1;
            let minority = (n_nodes - 1) / 2;
            (0..minority)
                .map(|i| {
                    if i == 0 {
                        FaultAction::Kill(home)
                    } else {
                        FaultAction::Kill(NodeId((clients - i) as u16))
                    }
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad number `{v}`"))
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}\n\n{USAGE}");
    ExitCode::from(2)
}

fn run_explorations(sampling: bool, opts: &Options) -> ExitCode {
    let mode = if sampling { "sample" } else { "explore" };
    let mut failed = false;
    for &kind in &opts.protocols {
        let mut runs: Vec<(&str, CheckConfig)> = opts
            .palettes
            .iter()
            .map(|palette| (*palette, opts.config(kind, palette)))
            .collect();
        if !sampling {
            // The litmus program never re-reads a copy; this one does.
            let mut cfg = CheckConfig::reread(kind, opts.clients);
            cfg.max_depth = opts.depth;
            runs.push(("reread", cfg));
            // Nor does it write a copy twice. Quorum has no silent
            // local write to race, and its rounds put this program
            // past the execution cap.
            if !kind.polls_all_replicas() {
                let mut cfg = CheckConfig::rewrite(kind, opts.clients);
                cfg.max_depth = opts.depth;
                runs.push(("rewrite", cfg));
            }
        }
        let mut fast_path_reads = 0;
        for (palette, cfg) in &runs {
            let report = if sampling {
                sample(cfg, opts.seed, opts.walks)
            } else {
                exhaustive(cfg, opts.limits)
            };
            println!("[{mode}/{palette}] {}", report.summary());
            fast_path_reads += report.fast_path_reads;
            if let Some(found) = report.violation {
                failed = true;
                eprintln!("VIOLATION [{}] {}", found.kind, found.detail);
                let shrunk = minimize(cfg, &found.events);
                eprintln!(
                    "shrunk to {} events (from {})",
                    shrunk.len(),
                    found.events.len()
                );
                let artifact = Artifact {
                    cfg: cfg.clone(),
                    events: shrunk,
                    note: format!(
                        "shrunk {} counterexample, palette {palette}, found by `{mode}`",
                        found.kind
                    ),
                    expect: Expect::Violation,
                };
                match write_artifact(opts.artifact_dir.as_deref(), kind, palette, &artifact) {
                    Ok(Some(path)) => eprintln!("artifact: {}", path.display()),
                    Ok(None) => print!("{}", artifact.render()),
                    Err(e) => eprintln!("could not write artifact: {e}"),
                }
            }
        }
        // "No violation" only counts if the explorer went through the
        // read predicate the runtime ships: every sequencer protocol
        // serves the re-read from its replica table in some schedule,
        // and Quorum (every read is a round) in none.
        if !sampling && (fast_path_reads == 0) != kind.polls_all_replicas() {
            failed = true;
            eprintln!(
                "FAST PATH [{}] {fast_path_reads} reads completed on the fast path: \
                 the explorer is not exercising the shipped read predicate",
                kind.name()
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Seeded protocol bugs the harness must catch: each mutation breaks a
/// transport axiom some protocol's correctness argument relies on.
fn mutations_under_test() -> Vec<(&'static str, CheckConfig)> {
    let mut lost_inv = CheckConfig::new(ProtocolKind::WriteThrough, 2, 2, 2);
    lost_inv.mutation = Mutation::DropKind {
        kind: MsgKind::WInv,
        nth: 1,
    };
    let mut lost_grant = CheckConfig::new(ProtocolKind::Synapse, 2, 2, 2);
    lost_grant.mutation = Mutation::DropKind {
        kind: MsgKind::RGnt,
        nth: 1,
    };
    let mut lost_update = CheckConfig::new(ProtocolKind::Dragon, 2, 2, 2);
    lost_update.mutation = Mutation::DropKind {
        kind: MsgKind::Upd,
        nth: 1,
    };
    let mut lost_commit = CheckConfig::new(ProtocolKind::Quorum, 2, 2, 2);
    lost_commit.mutation = Mutation::DropKind {
        kind: MsgKind::QCommit,
        nth: 1,
    };
    vec![
        ("write-through-lost-invalidation", lost_inv),
        ("synapse-lost-grant", lost_grant),
        ("dragon-lost-update", lost_update),
        // A commit that reached a sub-majority of the replicas but was
        // acknowledged anyway: the quorum analogue of a lost
        // invalidation, leaving one live replica behind the round.
        ("quorum-lost-commit", lost_commit),
    ]
}

fn run_mutations(opts: &Options) -> ExitCode {
    let mut escaped = false;
    for (name, mut cfg) in mutations_under_test() {
        cfg.max_depth = opts.depth;
        let report = exhaustive(&cfg, opts.limits);
        match report.violation.clone() {
            Some(found) => {
                let shrunk = minimize(&cfg, &found.events);
                println!(
                    "[mutate] {name}: caught ({}) and shrunk to {} events — {}",
                    found.kind,
                    shrunk.len(),
                    report.summary(),
                );
                let artifact = Artifact {
                    cfg: cfg.clone(),
                    events: shrunk,
                    note: format!("seeded bug `{name}` caught by the mutation self-test"),
                    expect: Expect::Violation,
                };
                if let Ok(Some(path)) =
                    write_artifact(opts.artifact_dir.as_deref(), cfg.kind, name, &artifact)
                {
                    println!("[mutate] {name}: artifact {}", path.display());
                }
            }
            None => {
                escaped = true;
                eprintln!(
                    "[mutate] {name}: ESCAPED — the seeded bug survived exploration: {}",
                    report.summary(),
                );
            }
        }
    }
    if escaped {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn write_artifact(
    dir: Option<&Path>,
    kind: ProtocolKind,
    label: &str,
    artifact: &Artifact,
) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = dir else { return Ok(None) };
    std::fs::create_dir_all(dir)?;
    let slug: String = format!("{}-{label}", kind.name())
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("{slug}.sched"));
    std::fs::write(&path, artifact.render())?;
    Ok(Some(path))
}

fn run_replays(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        return usage("replay needs at least one artifact path");
    }
    let mut failed = false;
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Artifact::parse(&text))
            .and_then(|artifact| {
                artifact.check_replay()?;
                Ok(artifact)
            });
        match outcome {
            Ok(artifact) => {
                let what = match artifact.expect {
                    Expect::Pass => "clean as committed",
                    Expect::Violation => "still violating as committed",
                };
                println!(
                    "[replay] {path}: ok ({what}; {} events)",
                    artifact.events.len()
                );
            }
            Err(e) => {
                failed = true;
                eprintln!("[replay] {path}: FAILED — {e}");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
