//! The four workloads, their seeded inputs, and the reference model the
//! outputs are checked against.
//!
//! Everything the system under test receives is generated here, from
//! the seed, before any timing starts; the timed loops only replay it.

use bytes::Bytes;
use repmem_core::{ProtocolKind, SystemParams};
use repmem_kv::KeySpace;
use repmem_runtime::ShardConfig;
use repmem_workload::ycsb::{KvOp, YcsbSpec, YcsbWorkload};

/// `N` client nodes of every workload's cluster.
pub const N_CLIENTS: usize = 4;
/// Object slots of the KV keyspace (`M`).
pub const SLOTS: usize = 65_536;
/// Key-hash seed; fixed so that `--seed` moves the op streams only.
pub const KEY_SEED: u64 = 42;
/// Zipfian skew of every op stream.
pub const THETA: f64 = 0.99;
/// Value payload size.
pub const VALUE_LEN: usize = 100;
/// Sequencer shards (`K`).
pub const SHARDS: usize = 2;
/// Per-node in-flight window (`W`).
pub const WINDOW: usize = 8;
/// Pre-generated ops per stream; the timed loop cycles through them.
/// Large enough that a zipfian stream over 10 000 records has settled,
/// small enough to generate in tens of milliseconds.
pub const POOL_OPS: u64 = 1 << 16;

/// The application surface a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `KvServer` over TCP loopback, blocking `KvClient` connections.
    Svc,
    /// `KvStore` over an in-process cluster, blocking callers.
    Embed,
    /// `Handle::{read,write}_async` directly, one windowed caller.
    Pipe,
    /// `KvStore` over a cluster on the epoll TCP mesh, blocking callers.
    Mesh,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as `/BENCHMARK.json` lists it.
    pub name: &'static str,
    /// One sentence on why it is in the set.
    pub why: &'static str,
    /// What the callers talk to.
    pub surface: Surface,
    /// YCSB mix of the op streams.
    pub mix: YcsbWorkload,
    /// Coherence protocol of the cluster.
    pub protocol: ProtocolKind,
    /// Records loaded before the timed run.
    pub records: u64,
}

/// The workload set, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "svc-b-berkeley",
        why: "The repmem-kv service path over TCP loopback, YCSB-B on Berkeley: kv wire, connection threads and socket syscalls do most of the work, net and protocols almost none.",
        surface: Surface::Svc,
        mix: YcsbWorkload::B,
        protocol: ProtocolKind::Berkeley,
        records: 10_000,
    },
    Workload {
        name: "embed-c-writeonce",
        why: "In-process KvStore, YCSB-C on Write-Once: every op is a local read hit the paper prices at 0, so all time is the runtime's Handle-inbox-node-loop-ticket hop.",
        surface: Surface::Embed,
        mix: YcsbWorkload::C,
        protocol: ProtocolKind::WriteOnce,
        records: 10_000,
    },
    Workload {
        name: "pipe-a-writethrough",
        why: "Windowed async Handles, YCSB-A on Write-Through: writes beside reads, 32 ops in flight, so protocols and the in-proc net path carry real traffic; guards the runtime against read-only tuning.",
        surface: Surface::Pipe,
        mix: YcsbWorkload::A,
        protocol: ProtocolKind::WriteThrough,
        records: 10_000,
    },
    Workload {
        name: "mesh-a-quorum",
        why: "KvStore over the epoll TCP mesh, YCSB-A on Quorum: every op is two majority rounds to all replicas (20 messages), so the net codec and epoll mesh do most of the work; the slowest path.",
        surface: Surface::Mesh,
        mix: YcsbWorkload::A,
        protocol: ProtocolKind::Quorum,
        records: 2_000,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Threads issuing operations in an end-to-end rep. Equal to the
    /// host's CPU count the method was sized on; the run refuses to
    /// report if the host allows fewer CPUs than this.
    pub fn callers(&self) -> usize {
        match self.surface {
            Surface::Pipe => 1,
            _ => 2,
        }
    }

    /// Client nodes operations are issued at: one per blocking caller,
    /// or all four round-robin for the windowed caller.
    pub fn issuers(&self, callers: usize) -> usize {
        match self.surface {
            Surface::Pipe => N_CLIENTS,
            _ => callers,
        }
    }

    /// System parameters of the cluster.
    pub fn sys(&self) -> SystemParams {
        SystemParams {
            n_clients: N_CLIENTS,
            s: 64,
            p: 16,
            m_objects: SLOTS,
        }
    }

    /// Sharding and window of the cluster.
    pub fn shard_config(&self) -> ShardConfig {
        let cfg = ShardConfig::new(SHARDS).with_window(WINDOW);
        match self.surface {
            // All ops are issued at client nodes, so shard nodes need
            // no replicas of foreign objects.
            Surface::Pipe => cfg.exclusive(),
            _ => cfg,
        }
    }

    /// Whether reads are key-verified: the KV surfaces store key-tagged
    /// records, the raw-handle surface stores bare values.
    pub fn key_verified(&self) -> bool {
        self.surface != Surface::Pipe
    }

    /// The same cluster and op stream driven in-process: the shadow leg
    /// that `kv.svc_overhead_us` subtracts.
    pub fn embedded(mut self) -> Workload {
        self.surface = Surface::Embed;
        self
    }
}

/// The keyspace every surface routes with.
pub fn keyspace() -> KeySpace {
    KeySpace::new(SLOTS, KEY_SEED)
}

/// One pre-generated operation: a read, or a write of `value`.
#[derive(Debug, Clone)]
pub struct PoolOp {
    /// Record index of the key.
    pub key: u32,
    /// `None` for a read.
    pub value: Option<Bytes>,
}

/// Everything generated from the seed.
pub struct Inputs {
    /// `user<12 digits>` key of every record.
    pub keys: Vec<String>,
    /// Object slot of every key.
    pub slot_of: Vec<u32>,
    /// Value the load phase stores under every key.
    pub load_values: Vec<Bytes>,
    /// One op stream per caller thread.
    pub pools: Vec<Vec<PoolOp>>,
}

fn key_index(key: &str) -> u32 {
    key.strip_prefix("user")
        .and_then(|digits| digits.parse().ok())
        .expect("YcsbSpec::key is `user` + decimal index")
}

impl Inputs {
    /// Generate `streams` op streams and the load set for `w`. Stream
    /// `t` is seeded `seed ^ ((t + 1) << 17)`, the load set `seed`.
    pub fn generate(w: &Workload, seed: u64, records: u64, streams: usize) -> Inputs {
        let spec = |seed, ops| {
            YcsbSpec::new(w.mix, records, ops, seed)
                .with_theta(THETA)
                .with_value_len(VALUE_LEN)
        };
        let space = keyspace();
        let keys: Vec<String> = (0..records).map(YcsbSpec::key).collect();
        let slot_of = keys.iter().map(|k| space.object_of(k).0).collect();
        let load_values = spec(seed, 0)
            .load_ops()
            .map(|op| match op {
                KvOp::Insert(_, value) => Bytes::from(value),
                other => unreachable!("load phase emitted {other:?}"),
            })
            .collect();
        let pools = (0..streams as u64)
            .map(|t| {
                spec(seed ^ ((t + 1) << 17), POOL_OPS)
                    .run_ops()
                    .map(|op| match op {
                        KvOp::Read(key) => PoolOp {
                            key: key_index(&key),
                            value: None,
                        },
                        KvOp::Update(key, value) => PoolOp {
                            key: key_index(&key),
                            value: Some(Bytes::from(value)),
                        },
                        other => unreachable!("YCSB A/B/C emitted {other:?}"),
                    })
                    .collect()
            })
            .collect();
        Inputs {
            keys,
            slot_of,
            load_values,
            pools,
        }
    }
}

/// What a slot holds: the key it was last written under and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rec {
    /// Record index of the key the slot was written under.
    pub key: u32,
    /// The stored value.
    pub value: Bytes,
}

impl Rec {
    /// What reading `key` observes when its slot holds this record.
    fn observed_as(&self, key: u32, key_verified: bool) -> Option<&[u8]> {
        (!key_verified || self.key == key).then_some(&self.value[..])
    }
}

/// The reference model: an array of slots with last-writer-wins
/// eviction, computed by the benchmark itself.
pub struct Model {
    key_verified: bool,
    slots: Vec<Option<Rec>>,
}

impl Model {
    /// The state after the load phase: every record put in key order.
    pub fn loaded(inputs: &Inputs, key_verified: bool) -> Model {
        let mut slots = vec![None; SLOTS];
        for (key, value) in inputs.load_values.iter().enumerate() {
            slots[inputs.slot_of[key] as usize] = Some(Rec {
                key: key as u32,
                value: value.clone(),
            });
        }
        Model {
            key_verified,
            slots,
        }
    }

    /// Corrupt one expected value — the self-test that shows the
    /// output check can fail.
    pub fn flip_one_expected_value(&mut self) {
        let rec = self
            .slots
            .iter_mut()
            .flatten()
            .next()
            .expect("load set is not empty");
        let mut value = rec.value.to_vec();
        value[0] ^= 1;
        rec.value = Bytes::from(value);
    }

    /// What reading `key` must return right after the load phase.
    pub fn expect_loaded(&self, inputs: &Inputs, key: u32) -> Option<&[u8]> {
        self.slots[inputs.slot_of[key as usize] as usize]
            .as_ref()
            .and_then(|rec| rec.observed_as(key, self.key_verified))
    }

    /// Whether `observed` is an admissible result of reading `key` once
    /// the timed run has quiesced. Each issuer's writes to a slot are
    /// applied in its program order, so the slot holds the last write
    /// of *some* issuer (`last_put[issuer][slot]` indexes that issuer's
    /// pool, `u32::MAX` for none) — or the loaded record if none wrote.
    pub fn admits_final(
        &self,
        inputs: &Inputs,
        pools: &[&[PoolOp]],
        last_put: &[Vec<u32>],
        key: u32,
        observed: Option<&[u8]>,
    ) -> bool {
        let slot = inputs.slot_of[key as usize] as usize;
        let mut written = false;
        for (pool, last) in pools.iter().zip(last_put) {
            if last[slot] == u32::MAX {
                continue;
            }
            written = true;
            let op = &pool[last[slot] as usize];
            let rec = Rec {
                key: op.key,
                value: op.value.clone().expect("last_put records writes only"),
            };
            if rec.observed_as(key, self.key_verified) == observed {
                return true;
            }
        }
        !written && self.expect_loaded(inputs, key) == observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let w = WORKLOADS[2];
        let a = Inputs::generate(&w, 7, 300, 2);
        let b = Inputs::generate(&w, 7, 300, 2);
        let c = Inputs::generate(&w, 8, 300, 2);
        let keys = |i: &Inputs, t: usize| i.pools[t].iter().map(|o| o.key).collect::<Vec<_>>();
        assert_eq!(keys(&a, 0), keys(&b, 0));
        assert_eq!(a.load_values, b.load_values);
        assert_ne!(keys(&a, 0), keys(&a, 1));
        assert_ne!(keys(&a, 0), keys(&c, 0));
        assert_eq!(a.pools[0].len() as u64, POOL_OPS);
        let writes = a.pools[0].iter().filter(|o| o.value.is_some()).count();
        assert!((0.45..0.55).contains(&(writes as f64 / POOL_OPS as f64)));
    }

    #[test]
    fn model_evicts_on_collision_and_admits_any_issuers_last_write() {
        let w = WORKLOADS[1];
        let mut inputs = Inputs::generate(&w, 1, 4, 1);
        // Force keys 0 and 1 into one slot: key 1 is loaded last.
        inputs.slot_of[1] = inputs.slot_of[0];
        let model = Model::loaded(&inputs, true);
        assert_eq!(model.expect_loaded(&inputs, 0), None);
        assert_eq!(
            model.expect_loaded(&inputs, 1),
            Some(&inputs.load_values[1][..])
        );
        // Raw-handle reads are not key-verified: key 0 sees key 1's value.
        let raw = Model::loaded(&inputs, false);
        assert_eq!(
            raw.expect_loaded(&inputs, 0),
            Some(&inputs.load_values[1][..])
        );

        let pool = [
            PoolOp {
                key: 0,
                value: Some(Bytes::from_static(b"from-a")),
            },
            PoolOp {
                key: 1,
                value: Some(Bytes::from_static(b"from-b")),
            },
        ];
        let slot = inputs.slot_of[0] as usize;
        let mut last = vec![vec![u32::MAX; SLOTS]; 2];
        let pools = [&pool[..], &pool[..]];
        // Nobody wrote: only the loaded state is admissible.
        assert!(model.admits_final(&inputs, &pools, &last, 0, None));
        assert!(!model.admits_final(&inputs, &pools, &last, 0, Some(b"from-a")));
        // Issuer 0 last put key 0, issuer 1 last put key 1, same slot.
        last[0][slot] = 0;
        last[1][slot] = 1;
        assert!(model.admits_final(&inputs, &pools, &last, 0, Some(b"from-a")));
        assert!(model.admits_final(&inputs, &pools, &last, 0, None));
        assert!(model.admits_final(&inputs, &pools, &last, 1, Some(b"from-b")));
        assert!(!model.admits_final(&inputs, &pools, &last, 1, Some(b"from-a")));
        assert!(!model.admits_final(&inputs, &pools, &last, 1, Some(&inputs.load_values[1][..])));
    }
}
