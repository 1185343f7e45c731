//! Replayable schedule artifacts: a line-oriented text format for one
//! [`CheckConfig`] plus its event list, stable enough to commit under
//! `tests/schedules/` and re-execute on every `cargo test`.
//!
//! ```text
//! # repmem-check schedule v1
//! protocol Write-Through
//! clients 2
//! objects 2
//! params 16 4
//! depth 64
//! note restore racing an in-flight write
//! program 0 w0 r1
//! program 1 w1 r0
//! fault sever 0 2
//! fault restore 0 2
//! mutation none
//! expect pass
//! ev fault 0
//! ev issue 0
//! ev deliver 0 2
//! ```
//!
//! `expect pass` artifacts pin known-tricky interleavings that must
//! stay violation-free; `expect violation` artifacts are shrunk
//! counterexamples (e.g. from mutation runs) that must keep failing.

use crate::checks;
use crate::exec::{CheckConfig, Ev, Exec, Mutation, ProgOp};
use repmem_core::{MsgKind, NodeId, ProtocolKind};
use repmem_net::SchedAction;

/// The verdict a committed artifact locks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Replay must report no violation.
    Pass,
    /// Replay must report a violation.
    Violation,
}

/// A schedule artifact: config, events, provenance note, and the
/// locked-in verdict.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Full workload description.
    pub cfg: CheckConfig,
    /// The schedule itself.
    pub events: Vec<Ev>,
    /// Human note on what this schedule exercises.
    pub note: String,
    /// Locked-in verdict.
    pub expect: Expect,
}

impl Artifact {
    /// Serialize to the committed text form.
    pub fn render(&self) -> String {
        let mut out = String::from("# repmem-check schedule v1\n");
        out.push_str(&format!("protocol {}\n", self.cfg.kind.name()));
        out.push_str(&format!("clients {}\n", self.cfg.n_clients));
        out.push_str(&format!("objects {}\n", self.cfg.m_objects));
        out.push_str(&format!("params {} {}\n", self.cfg.s, self.cfg.p));
        out.push_str(&format!("depth {}\n", self.cfg.max_depth));
        if !self.note.is_empty() {
            out.push_str(&format!("note {}\n", self.note));
        }
        for (client, prog) in self.cfg.program.iter().enumerate() {
            out.push_str(&format!("program {client}"));
            for op in prog {
                match op {
                    ProgOp::Write(o) => out.push_str(&format!(" w{o}")),
                    ProgOp::Read(o) => out.push_str(&format!(" r{o}")),
                }
            }
            out.push('\n');
        }
        for fault in &self.cfg.faults {
            match fault {
                SchedAction::Sever(a, b) => out.push_str(&format!("fault sever {} {}\n", a.0, b.0)),
                SchedAction::Restore(a, b) => {
                    out.push_str(&format!("fault restore {} {}\n", a.0, b.0));
                }
                SchedAction::Kill(n) => out.push_str(&format!("fault kill {}\n", n.0)),
            }
        }
        match self.cfg.mutation {
            Mutation::None => out.push_str("mutation none\n"),
            Mutation::DropKind { kind, nth } => {
                out.push_str(&format!("mutation drop-kind {} {nth}\n", kind.mnemonic()));
            }
            Mutation::ReorderLink { nth } => {
                out.push_str(&format!("mutation reorder {nth}\n"));
            }
        }
        out.push_str(match self.expect {
            Expect::Pass => "expect pass\n",
            Expect::Violation => "expect violation\n",
        });
        for ev in &self.events {
            out.push_str(&format!("ev {ev}\n"));
        }
        out
    }

    /// Parse the committed text form.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let mut protocol = None;
        let mut clients = None;
        let mut objects = None;
        let mut s = 16u64;
        let mut p = 4u64;
        let mut depth = 64usize;
        let mut note = String::new();
        let mut programs: Vec<(usize, Vec<ProgOp>)> = Vec::new();
        let mut faults = Vec::new();
        let mut mutation = Mutation::None;
        let mut expect = None;
        let mut events = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let fields: Vec<&str> = rest.split_whitespace().collect();
            match key {
                "protocol" => {
                    protocol = Some(
                        ProtocolKind::EVERY
                            .into_iter()
                            .find(|k| k.name() == rest)
                            .ok_or_else(|| at("unknown protocol"))?,
                    );
                }
                "clients" => clients = Some(parse_num(rest).map_err(|e| at(&e))?),
                "objects" => objects = Some(parse_num(rest).map_err(|e| at(&e))?),
                "params" => {
                    let [sv, pv] = fields[..] else {
                        return Err(at("expected `params <s> <p>`"));
                    };
                    s = parse_num(sv).map_err(|e| at(&e))?;
                    p = parse_num(pv).map_err(|e| at(&e))?;
                }
                "depth" => depth = parse_num(rest).map_err(|e| at(&e))?,
                "note" => note = rest.to_owned(),
                "program" => {
                    let (client, ops) = fields.split_first().ok_or_else(|| at("empty program"))?;
                    let client: usize = parse_num(client).map_err(|e| at(&e))?;
                    let ops = ops
                        .iter()
                        .map(|tok| parse_prog_op(tok))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| at(&e))?;
                    programs.push((client, ops));
                }
                "fault" => match fields[..] {
                    ["sever", a, b] => faults.push(SchedAction::Sever(
                        NodeId(parse_num(a).map_err(|e| at(&e))?),
                        NodeId(parse_num(b).map_err(|e| at(&e))?),
                    )),
                    ["restore", a, b] => faults.push(SchedAction::Restore(
                        NodeId(parse_num(a).map_err(|e| at(&e))?),
                        NodeId(parse_num(b).map_err(|e| at(&e))?),
                    )),
                    ["kill", n] => {
                        faults.push(SchedAction::Kill(NodeId(parse_num(n).map_err(|e| at(&e))?)));
                    }
                    _ => return Err(at("unknown fault")),
                },
                "mutation" => match fields[..] {
                    ["none"] => mutation = Mutation::None,
                    ["drop-kind", kind, nth] => {
                        let kind = MsgKind::ALL
                            .into_iter()
                            .find(|k| k.mnemonic() == kind)
                            .ok_or_else(|| at("unknown message kind"))?;
                        mutation = Mutation::DropKind {
                            kind,
                            nth: parse_num(nth).map_err(|e| at(&e))?,
                        };
                    }
                    ["reorder", nth] => {
                        mutation = Mutation::ReorderLink {
                            nth: parse_num(nth).map_err(|e| at(&e))?,
                        };
                    }
                    _ => return Err(at("unknown mutation")),
                },
                "expect" => {
                    expect = Some(match rest {
                        "pass" => Expect::Pass,
                        "violation" => Expect::Violation,
                        _ => return Err(at("expect must be `pass` or `violation`")),
                    });
                }
                "ev" => match fields[..] {
                    ["issue", c] => events.push(Ev::Issue(parse_num(c).map_err(|e| at(&e))?)),
                    ["deliver", a, b] => events.push(Ev::Deliver(
                        parse_num(a).map_err(|e| at(&e))?,
                        parse_num(b).map_err(|e| at(&e))?,
                    )),
                    ["fault", i] => events.push(Ev::Fault(parse_num(i).map_err(|e| at(&e))?)),
                    _ => return Err(at("unknown event")),
                },
                _ => return Err(at("unknown directive")),
            }
        }

        let kind = protocol.ok_or("missing `protocol`")?;
        let n_clients = clients.ok_or("missing `clients`")?;
        let m_objects = objects.ok_or("missing `objects`")?;
        // One row per client, plus one for the home (node `n_clients`).
        let mut program = vec![Vec::new(); n_clients];
        for (node, ops) in programs {
            if node > n_clients {
                return Err(format!("program for node {node} out of range"));
            }
            if node >= program.len() {
                program.resize(node + 1, Vec::new());
            }
            program[node] = ops;
        }
        Ok(Artifact {
            cfg: CheckConfig {
                kind,
                n_clients,
                m_objects,
                s,
                p,
                program,
                faults,
                mutation,
                max_depth: depth,
            },
            events,
            note,
            expect: expect.ok_or("missing `expect`")?,
        })
    }

    /// Replay the artifact and compare against its locked-in verdict.
    /// `Ok` on a match; `Err` describes the divergence (including a
    /// violation's detail when one appears unexpectedly).
    pub fn check_replay(&self) -> Result<(), String> {
        let (exec, applied) = Exec::replay_traced(&self.cfg, &self.events);
        if applied.len() != self.events.len() {
            return Err(format!(
                "only {} of {} events applied; first skipped: `{}`",
                applied.len(),
                self.events.len(),
                self.events[applied.len().min(self.events.len() - 1)],
            ));
        }
        match (checks::check(&exec), self.expect) {
            (None, Expect::Pass) | (Some(_), Expect::Violation) => Ok(()),
            (Some(v), Expect::Pass) => Err(format!(
                "expected a clean replay, found {}: {}",
                v.kind, v.detail
            )),
            (None, Expect::Violation) => {
                Err("expected the replay to violate a check, but it passed".to_owned())
            }
        }
    }
}

fn parse_num<T: std::str::FromStr>(token: &str) -> Result<T, String> {
    token.parse().map_err(|_| format!("bad number `{token}`"))
}

fn parse_prog_op(token: &str) -> Result<ProgOp, String> {
    let object = token
        .get(1..)
        .and_then(|t| t.parse().ok())
        .ok_or(format!("bad program op `{token}`"))?;
    match token.as_bytes().first() {
        Some(b'w') => Ok(ProgOp::Write(object)),
        Some(b'r') => Ok(ProgOp::Read(object)),
        _ => Err(format!("bad program op `{token}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> Artifact {
        let mut cfg = CheckConfig::new(ProtocolKind::Synapse, 2, 2, 2);
        cfg.faults = vec![
            SchedAction::Sever(NodeId(0), NodeId(2)),
            SchedAction::Restore(NodeId(0), NodeId(2)),
        ];
        cfg.mutation = Mutation::DropKind {
            kind: MsgKind::WInv,
            nth: 2,
        };
        Artifact {
            cfg,
            events: vec![Ev::Fault(0), Ev::Issue(0), Ev::Deliver(0, 2), Ev::Fault(1)],
            note: "round-trip fixture".to_owned(),
            expect: Expect::Violation,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let original = sample_artifact();
        let text = original.render();
        let parsed = Artifact::parse(&text).expect("parse");
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed.events, original.events);
        assert_eq!(parsed.expect, original.expect);
        assert_eq!(parsed.cfg.kind, original.cfg.kind);
        assert_eq!(parsed.cfg.program, original.cfg.program);
        assert_eq!(parsed.cfg.faults, original.cfg.faults);
        assert_eq!(parsed.cfg.mutation, original.cfg.mutation);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(Artifact::parse("protocol NoSuch\nclients 2\nobjects 1\nexpect pass").is_err());
        assert!(Artifact::parse("clients 2\nobjects 1\nexpect pass").is_err());
        let missing_expect = "protocol Synapse\nclients 2\nobjects 1\nprogram 0 w0";
        assert!(Artifact::parse(missing_expect).is_err());
        let bad_ev = "protocol Synapse\nclients 2\nobjects 1\nexpect pass\nev warp 1";
        assert!(Artifact::parse(bad_ev).is_err());
        // Rows 0 and 1 are the clients', row 2 the home's; 3 is nobody's.
        let no_node = "protocol Synapse\nclients 2\nobjects 1\nexpect pass\nprogram 3 w0";
        assert!(Artifact::parse(no_node).is_err());
        let home =
            Artifact::parse("protocol Synapse\nclients 2\nobjects 1\nexpect pass\nprogram 2 w0")
                .expect("a home row");
        assert_eq!(home.cfg.program.len(), 3);
    }

    #[test]
    fn verified_pass_artifact_round_trips_through_replay() {
        // A trivial all-greedy schedule on a clean config must pass.
        let cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 1, 1);
        let mut exec = Exec::new(&cfg);
        let mut events = Vec::new();
        while let Some(&ev) = exec.enabled().first() {
            exec.apply(ev).expect("greedy step");
            events.push(ev);
        }
        let artifact = Artifact {
            cfg,
            events,
            note: String::new(),
            expect: Expect::Pass,
        };
        artifact.check_replay().expect("clean replay");
        let reparsed = Artifact::parse(&artifact.render()).expect("parse");
        reparsed.check_replay().expect("clean replay after rt");
    }
}
