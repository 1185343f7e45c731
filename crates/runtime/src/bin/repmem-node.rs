//! One DSM node as an OS process.
//!
//! ```text
//! repmem-node --node 0 --n-clients 3 --s 64 --p 16 --m 8 \
//!             --protocol Write-Once --listen 127.0.0.1:0
//! ```
//!
//! With no `--peers`, the node prints `LISTEN <addr>` on stdout and
//! waits for a `PEERS <addr0> <addr1> ...` line on stdin (the
//! `RemoteCluster` launcher protocol). With `--peers a0,a1,...` the
//! mesh is wired directly from the command line, so a cluster can also
//! be assembled by hand across terminals.
//!
//! The process serves until a control connection sends `Shutdown`.

// The TCP mesh under `remote::serve` is epoll-based.
#![cfg(target_os = "linux")]

use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_runtime::remote::{serve, ServeConfig};
use repmem_runtime::ShardConfig;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};

fn main() {
    if let Err(e) = run() {
        eprintln!("repmem-node: {e}");
        std::process::exit(1);
    }
}

struct Args {
    node: u16,
    sys: SystemParams,
    kind: ProtocolKind,
    listen: String,
    peers: Option<String>,
    shard: ShardConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut node: Option<u16> = None;
    let mut n_clients: Option<usize> = None;
    let mut s: Option<u64> = None;
    let mut p: Option<u64> = None;
    let mut m: Option<usize> = None;
    let mut kind: Option<ProtocolKind> = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut peers: Option<String> = None;
    let mut shard = ShardConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--node" => node = Some(parse(&value("--node")?, "--node")?),
            "--n-clients" => n_clients = Some(parse(&value("--n-clients")?, "--n-clients")?),
            "--s" => s = Some(parse(&value("--s")?, "--s")?),
            "--p" => p = Some(parse(&value("--p")?, "--p")?),
            "--m" => m = Some(parse(&value("--m")?, "--m")?),
            "--protocol" => kind = Some(parse_protocol(&value("--protocol")?)?),
            "--listen" => listen = value("--listen")?,
            "--peers" => peers = Some(value("--peers")?),
            "--shards" => shard.shards = parse(&value("--shards")?, "--shards")?,
            "--window" => shard.window = parse(&value("--window")?, "--window")?,
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    let sys = SystemParams {
        n_clients: n_clients.ok_or("--n-clients is required")?,
        s: s.ok_or("--s is required")?,
        p: p.ok_or("--p is required")?,
        m_objects: m.ok_or("--m is required")?,
    };
    if shard.shards == 0 || shard.window == 0 {
        return Err(format!(
            "invalid shard config: {} shards, window {}",
            shard.shards, shard.window
        ));
    }
    Ok(Args {
        node: node.ok_or("--node is required")?,
        sys,
        kind: kind.ok_or("--protocol is required")?,
        listen,
        peers,
        shard,
    })
}

const HELP: &str = "\
repmem-node: one DSM node as an OS process

USAGE:
    repmem-node --node I --n-clients N --s S --p P --m M --protocol NAME
                [--listen ADDR] [--peers A0,A1,...] [--shards K] [--window W]

With no --peers, prints `LISTEN <addr>` and reads `PEERS <a0> <a1> ...`
from stdin. Protocol names are the paper's (case-insensitive), e.g.
Write-Through, Write-Once, Synapse, Illinois, Berkeley, Dragon, Firefly.
Nodes talk over one TCP stream per node pair, all of a node's links on
one epoll event loop (Linux only). A link whose stream dies stays dead,
and the node treats its peer as dead: an operation that needs that
peer fails with NodeDown, and updates to it are dropped.

--shards K runs K sequencer shard nodes (the cluster then has
N-clients + K nodes; every process must agree); --window W allows W
in-flight operations per node.
";

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| format!("invalid value {v:?} for {flag}: {e}"))
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, String> {
    ProtocolKind::EVERY
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<_> = ProtocolKind::EVERY.iter().map(|k| k.name()).collect();
            format!("unknown protocol {name:?}; one of: {}", names.join(", "))
        })
}

fn parse_peers(list: &str, expected: usize) -> Result<Vec<SocketAddr>, String> {
    let addrs: Result<Vec<SocketAddr>, String> = list
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .map(|s| parse(s, "peer address"))
        .collect();
    let addrs = addrs?;
    if addrs.len() != expected {
        return Err(format!(
            "got {} peer addresses, the system has {expected} nodes",
            addrs.len()
        ));
    }
    Ok(addrs)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let n = args.shard.total_nodes(&args.sys);
    if usize::from(args.node) >= n {
        return Err(format!(
            "--node {} out of range: the system has nodes 0..{n}",
            args.node
        ));
    }
    let listener =
        TcpListener::bind(&args.listen).map_err(|e| format!("binding {}: {e}", args.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let peers = match &args.peers {
        Some(list) => parse_peers(list, n)?,
        None => {
            // Launcher protocol: announce our port, wait for the map.
            let mut out = std::io::stdout();
            writeln!(out, "LISTEN {addr}")
                .and_then(|()| out.flush())
                .map_err(|e| format!("writing LISTEN line: {e}"))?;
            let mut line = String::new();
            std::io::stdin()
                .lock()
                .read_line(&mut line)
                .map_err(|e| format!("reading PEERS line: {e}"))?;
            let rest = line
                .trim()
                .strip_prefix("PEERS")
                .ok_or_else(|| format!("expected a PEERS line, got {:?}", line.trim()))?;
            parse_peers(rest, n)?
        }
    };

    serve(ServeConfig {
        sys: args.sys,
        kind: args.kind,
        me: NodeId(args.node),
        listener,
        peers,
        shard: args.shard,
    })
    .map_err(|e| e.to_string())
}
