//! `repmem-chaos` — seeded randomized fault-schedule soak for the
//! threaded runtime.
//!
//! Where `repmem-check` *enumerates* interleavings on a deterministic
//! single-threaded executor, this binary hammers the real
//! [`Cluster`] — node threads, channels, stalled senders — with
//! randomized [`FaultSchedule`]s (delay bursts, permanent kills) across
//! every protocol kind, including the sequencer-free quorum protocol,
//! for a fixed wall-clock budget.
//!
//! The faults wrap the in-process transport in three scenarios of four
//! and the TCP mesh (`EpollTransport::loopback`) in the fourth; the
//! seed chooses which, and the scenario header names the transport. On
//! the mesh the runner thread runs idle nodes' turns itself, so those
//! scenarios are where a delivery races the node's own thread.
//!
//! Kills are drawn from each family's availability contract: any
//! replica, at any send, for the sequencer-free quorum protocol; the
//! sequencer node, before the first delivery, for the eight sequencer
//! protocols (whose contract is fail-fast degradation, not survival —
//! a mid-stream kill of a dirty-copy holder is unrecoverable data
//! loss in the paper's model and would strand a recall by design).
//!
//! An iteration fails if:
//!
//! * an operation fails with anything other than [`ClusterError::NodeDown`]
//!   (degradation is the only acceptable failure mode),
//! * the cluster poisons,
//! * shutdown does not complete inside [`DEFAULT_STOP_DEADLINE`]
//!   (a hung node loop),
//! * a kill-free schedule leaves the replicas incoherent at shutdown
//!   (non-convergence), or
//! * a quorum read observes neither the latest committed write nor a
//!   value from a degraded (partially applied) one.
//!
//! On failure the offending seed and the full schedule are printed, a
//! replay artifact is written to `--artifact-dir`, and the process
//! exits non-zero. A watchdog thread aborts (exit 2) if any single
//! operation wedges for over two minutes, printing the same
//! diagnostics — a hung blocking `wait` is a liveness bug, not an
//! excuse to eat the budget. (The threshold is per *operation*, so a
//! soak merely starved by a loaded machine keeps ticking and is not
//! reported.)
//!
//! A seed names a scenario only within one build of this binary:
//! reproduce a failure with the build that printed it.
//!
//! ```text
//! repmem-chaos --seed 7 --budget-secs 600 --artifact-dir chaos-artifacts
//! ```

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
#[cfg(target_os = "linux")]
use repmem_net::EpollTransport;
use repmem_net::{FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig, DEFAULT_STOP_DEADLINE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, good enough for schedule fuzzing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// One iteration's randomized scenario, kept in a renderable form so
/// a failure (or the watchdog) can print exactly what was running.
struct Scenario {
    seed: u64,
    iter: u64,
    kind: ProtocolKind,
    sys: SystemParams,
    /// Rendered schedule lines, e.g. `kill n3 @send 41`.
    faults: Vec<String>,
    /// The node the schedule kills, if any.
    killed: Option<NodeId>,
    schedule: FaultSchedule,
    /// Whether the faults wrap the TCP mesh instead of the in-process
    /// transport.
    mesh: bool,
}

impl Scenario {
    /// Derive iteration `iter`'s scenario from the run seed. Each
    /// iteration gets an independent SplitMix64 stream so a failure
    /// reproduces from `--seed` + the printed iteration alone.
    fn derive(seed: u64, iter: u64, kind: ProtocolKind) -> Self {
        let mut rng = Rng(seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let sys = SystemParams {
            n_clients: 2 + rng.below(3) as usize, // 3..=5 nodes
            s: 16,
            p: 4,
            m_objects: 1 + rng.below(4) as usize,
        };
        let nodes = sys.n_nodes() as u64;
        let mut schedule = FaultSchedule::new();
        let mut faults = Vec::new();
        let mut killed = None;

        if rng.chance(3) {
            let at = 1 + rng.below(150);
            let ms = 1 + rng.below(3);
            let sends = 5 + rng.below(20);
            schedule = schedule.delay_burst_at(at, Duration::from_millis(ms), sends);
            faults.push(format!("delay-burst {ms}ms x{sends} @send {at}"));
        }
        if rng.chance(3) {
            // Kills follow each family's availability contract. Quorum
            // claims minority-kill tolerance, so any single replica may
            // die at any point mid-run. Sequencer protocols only claim
            // clean fail-fast degradation when the sequencer is dead
            // *before* the operation starts: a mid-stream kill of a
            // client holding a dirty copy strands the recall (Synapse
            // by design never learns who the owner was, and the data
            // died with it), which is documented data loss, not a
            // runtime bug — so their kill is pinned to the home node at
            // the first send, the shape `quorum_faults.rs` pins down.
            let (n, at) = if kind == ProtocolKind::Quorum {
                (NodeId(rng.below(nodes) as u16), 1 + rng.below(120))
            } else {
                (sys.home(), 1)
            };
            schedule = schedule.kill_at(at, n);
            faults.push(format!("kill {n} @send {at}"));
            killed = Some(n);
        }
        let mesh = cfg!(target_os = "linux") && rng.chance(4);

        Scenario {
            seed,
            iter,
            kind,
            sys,
            faults,
            killed,
            schedule,
            mesh,
        }
    }

    fn transport(&self) -> &'static str {
        if self.mesh {
            "tcp-mesh"
        } else {
            "in-proc"
        }
    }

    /// Start the scenario's cluster over its faulted transport.
    fn start(&self) -> Result<Cluster, ClusterError> {
        let n = self.sys.n_nodes();
        let cfg = ShardConfig::default();
        #[cfg(target_os = "linux")]
        if self.mesh {
            let mesh =
                EpollTransport::loopback(n).map_err(|e| ClusterError::Transport(e.to_string()))?;
            let transport = FaultTransport::new(mesh, self.schedule.clone());
            return Cluster::with_transport(self.sys, self.kind, cfg, transport);
        }
        let transport = FaultTransport::new(InProcTransport::new(n), self.schedule.clone());
        Cluster::with_transport(self.sys, self.kind, cfg, transport)
    }

    fn render(&self) -> String {
        let mut out = format!(
            "seed {} iteration {} protocol {:?} nodes {} objects {} transport {}\n",
            self.seed,
            self.iter,
            self.kind,
            self.sys.n_nodes(),
            self.sys.m_objects,
            self.transport()
        );
        if self.faults.is_empty() {
            out.push_str("  (fault-free schedule)\n");
        }
        for f in &self.faults {
            out.push_str("  ");
            out.push_str(f);
            out.push('\n');
        }
        out
    }
}

/// Run one scenario to completion, bumping `tick` as operations finish
/// so the watchdog can tell a starved-but-progressing scenario from a
/// wedged wait. `Err` carries the failure report.
fn run(sc: &Scenario, rng: &mut Rng, trace: bool, tick: &AtomicU64) -> Result<(), String> {
    let cluster = sc.start().map_err(|e| format!("cluster start: {e}"))?;

    let nodes = sc.sys.n_nodes() as u64;
    let objects = sc.sys.m_objects as u64;
    // Last value a *completed* write committed, per object; `None` once
    // a degraded write may have partially applied. Only the quorum
    // protocol gives blocking completions strong enough to assert
    // read-your-writes across nodes (fire-and-forget writers ack
    // before global visibility).
    let mut committed: Vec<Option<Bytes>> = vec![None; sc.sys.m_objects];
    let mut degraded: Vec<bool> = vec![false; sc.sys.m_objects];
    // Operations routed through the schedule's killed node are the one
    // thing allowed to hang: once the kill lands, replies to that node
    // die in flight, and a round whose outbound legs all made it out
    // beforehand waits on votes that can never arrive — the node never
    // sends again, so it cannot observe its own death. (In the model a
    // kill is network death; the thread and its driver handle live on,
    // where a real ABD client would have died with its replica.) Those
    // operations are issued asynchronously and resolved after
    // shutdown, which drops the node's reply channels and settles any
    // still-pending ticket as `NodeDown`.
    let mut stash = Vec::new();

    for op in 0..24u64 {
        tick.fetch_add(1, Ordering::SeqCst);
        let node = NodeId(rng.below(nodes) as u16);
        let handle = cluster.handle(node);
        let obj = ObjectId(rng.below(objects) as u32);
        let write = rng.chance(2);
        if trace {
            eprintln!(
                "[trace] {:?} op {op}: {} {obj} at {node}",
                sc.kind,
                if write { "write" } else { "read" }
            );
        }
        if sc.killed == Some(node) {
            degraded[obj.idx()] = true; // outcome unknowable until shutdown
            stash.push(if write {
                handle.write_async(obj, Bytes::from(format!("i{}-o{}", sc.iter, op)))
            } else {
                handle.read_async(obj)
            });
            continue;
        }
        if write {
            let value = Bytes::from(format!("i{}-o{}", sc.iter, op));
            match handle.write(obj, value.clone()) {
                Ok(()) => committed[obj.idx()] = Some(value),
                Err(ClusterError::NodeDown(_)) => degraded[obj.idx()] = true,
                Err(e) => return Err(format!("write op {op} on {obj}: {e}")),
            }
        } else {
            match handle.read(obj) {
                Ok(seen) => {
                    if sc.kind == ProtocolKind::Quorum && !degraded[obj.idx()] {
                        if let Some(want) = &committed[obj.idx()] {
                            if &seen != want {
                                return Err(format!(
                                    "quorum read op {op} on {obj}: saw {seen:?}, \
                                     latest committed write was {want:?}"
                                ));
                            }
                        }
                    }
                }
                Err(ClusterError::NodeDown(_)) => {}
                Err(e) => return Err(format!("read op {op} on {obj}: {e}")),
            }
        }
    }

    // A burst of pipelined writes to distinct objects from distinct
    // issue points: exercises the per-node operation window under the
    // same faults. Completions are checked for error class only.
    if trace {
        eprintln!("[trace] {:?} burst phase", sc.kind);
    }
    let tickets: Vec<_> = (0..objects.min(nodes))
        .map(|i| {
            let handle = cluster.handle(NodeId(i as u16));
            let obj = ObjectId(i as u32);
            let value = Bytes::from(format!("i{}-burst-o{i}", sc.iter));
            (obj, value.clone(), handle.write_async(obj, value))
        })
        .collect();
    for (obj, value, ticket) in tickets {
        tick.fetch_add(1, Ordering::SeqCst);
        if sc.killed == Some(NodeId(obj.0 as u16)) {
            degraded[obj.idx()] = true;
            stash.push(ticket);
            continue;
        }
        match ticket.wait() {
            Ok(_) => committed[obj.idx()] = Some(value),
            Err(ClusterError::NodeDown(_)) => degraded[obj.idx()] = true,
            Err(e) => return Err(format!("pipelined write on {obj}: {e}")),
        }
    }

    if let Some(p) = cluster.poisoned() {
        return Err(format!("cluster poisoned: {p}"));
    }
    let dump = cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .map_err(|e| format!("hung shutdown: {e}"))?;
    // Kills legitimately strand a dead node's replicas; a delay loses
    // nothing, so every other schedule must converge.
    if sc.killed.is_none() && !dump.is_coherent() {
        return Err(format!(
            "replicas incoherent at shutdown under a kill-free schedule: {:?}",
            dump.copies
        ));
    }
    // Ops through the killed node settle now that its loop has exited.
    for ticket in stash {
        tick.fetch_add(1, Ordering::SeqCst);
        match ticket.wait() {
            Ok(_) | Err(ClusterError::NodeDown(_)) => {}
            Err(e) => return Err(format!("op through the killed node: {e}")),
        }
    }
    Ok(())
}

fn fail(sc: &Scenario, why: &str, artifact_dir: Option<&str>, code: i32) -> ! {
    eprintln!("[chaos] FAILURE: {why}");
    eprint!("{}", sc.render());
    eprintln!(
        "[chaos] reproduce: repmem-chaos --seed {} --iters-max {}",
        sc.seed,
        sc.iter + 1
    );
    if let Some(dir) = artifact_dir {
        let _ = std::fs::create_dir_all(dir);
        let path = format!("{dir}/chaos-seed{}-iter{}.txt", sc.seed, sc.iter);
        let body = format!("{}{}\n", sc.render(), why);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("[chaos] could not write artifact {path}: {e}");
        } else {
            eprintln!("[chaos] schedule written to {path}");
        }
    }
    std::process::exit(code);
}

fn usage() -> ! {
    eprintln!(
        "usage: repmem-chaos [--seed S] [--budget-secs T] [--iters-max N] [--artifact-dir DIR]"
    );
    std::process::exit(64);
}

fn main() {
    let mut seed = 1u64;
    let mut budget = Duration::from_secs(60);
    let mut iters_max = u64::MAX;
    let mut artifact_dir: Option<String> = None;
    let mut trace = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--budget-secs" => {
                budget =
                    Duration::from_secs(value("--budget-secs").parse().unwrap_or_else(|_| usage()))
            }
            "--iters-max" => iters_max = value("--iters-max").parse().unwrap_or_else(|_| usage()),
            "--artifact-dir" => artifact_dir = Some(value("--artifact-dir")),
            "--trace" => trace = true,
            _ => usage(),
        }
    }

    // Watchdog: the runtime's waits are blocking with no timeout, so a
    // lost completion would otherwise consume the whole budget
    // silently. Exceeding a minute on one iteration *is* the bug.
    let current: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let tick = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    {
        let current = Arc::clone(&current);
        let tick = Arc::clone(&tick);
        std::thread::spawn(move || {
            let mut last = (0, Instant::now());
            loop {
                std::thread::sleep(Duration::from_secs(5));
                let now = tick.load(Ordering::SeqCst);
                if now != last.0 {
                    last = (now, Instant::now());
                } else if last.1.elapsed() > Duration::from_secs(120) {
                    let sc = current.lock().unwrap_or_else(|e| e.into_inner());
                    eprintln!("[chaos] FAILURE: an operation wedged for over 120s (hung wait)");
                    eprint!("{sc}");
                    std::process::exit(2);
                }
            }
        });
    }

    println!("[chaos] seed {seed}, budget {}s", budget.as_secs());
    let mut iter = 0u64;
    let mut per_kind = vec![0u64; ProtocolKind::EVERY.len()];
    let mut on_mesh = 0u64;
    while epoch.elapsed() < budget && iter < iters_max {
        for (k, &kind) in ProtocolKind::EVERY.iter().enumerate() {
            let sc = Scenario::derive(seed, iter, kind);
            tick.fetch_add(1, Ordering::SeqCst);
            *current.lock().unwrap_or_else(|e| e.into_inner()) = sc.render();
            let mut rng = Rng(seed ^ iter.wrapping_mul(0xD134_2543_DE82_EF95) ^ k as u64);
            if let Err(why) = run(&sc, &mut rng, trace, &tick) {
                fail(&sc, &why, artifact_dir.as_deref(), 1);
            }
            per_kind[k] += 1;
            on_mesh += u64::from(sc.mesh);
        }
        iter += 1;
        if iter.is_multiple_of(25) {
            println!(
                "[chaos] {iter} iterations x {} protocols, {}s elapsed",
                ProtocolKind::EVERY.len(),
                epoch.elapsed().as_secs()
            );
        }
    }

    let scenarios = per_kind.iter().sum::<u64>();
    println!(
        "[chaos] clean: {} scenarios ({} iterations x {} protocols) in {}s; \
         in-proc {}, tcp-mesh {}",
        scenarios,
        iter,
        ProtocolKind::EVERY.len(),
        epoch.elapsed().as_secs(),
        scenarios - on_mesh,
        on_mesh
    );
}
